"""Packaging metadata for the src/-layout ``repro`` package.

``pip install -e .`` makes ``import repro`` work without a manual
``PYTHONPATH=src`` (the tier-1 test command keeps setting it anyway so the
suite also runs from a bare checkout).
"""

from setuptools import find_packages, setup

setup(
    name="repro-functional-mechanism",
    version="2.0.0",
    description=(
        "Reproduction of 'Functional Mechanism: Regression Analysis under "
        "Differential Privacy' (Zhang et al., VLDB 2012)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The committed golden-oracle digest store ships with the package so
    # `python -m repro verify --tier 3` works from an installed wheel.
    package_data={"repro.verify": ["golden_digests.json"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    # Optional array backends for the stacked kernels (repro.runtime.backend).
    # CPU wheels suffice: `pip install repro-functional-mechanism[torch]`
    # (CI uses the pytorch.org cpu index); CUDA builds are picked up
    # automatically when present.
    extras_require={"torch": ["torch>=2.0"]},
)

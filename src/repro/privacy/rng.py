"""Random-number-generator plumbing shared by every randomized component.

The library never touches numpy's global random state.  Every randomized
function takes either a :class:`numpy.random.Generator`, an integer seed, or
``None`` (fresh OS entropy), and normalizes it through :func:`ensure_rng`.
Experiments derive independent child streams with :func:`spawn` so that, for
example, each cross-validation repetition sees its own reproducible stream
regardless of how many random draws earlier repetitions consumed.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = [
    "RngLike",
    "STREAM_VERSIONS",
    "ensure_rng",
    "spawn",
    "derive_substream",
]

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

#: Supported stream-derivation formats (see :func:`derive_substream`).
STREAM_VERSIONS = (1, 2)

#: Domain separator appended (together with the tag length) by the
#: version-2 derivation.  The value is arbitrary but pinned: changing it
#: reshuffles every version-2 stream.
_V2_DOMAIN_WORD = 0x5D5EC0DE


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Normalize ``rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` (fresh entropy), an ``int`` seed, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged, so callers can thread one
        stream through a pipeline).

    Returns
    -------
    numpy.random.Generator
        A PCG64-backed generator.

    Raises
    ------
    TypeError
        If ``rng`` is of an unsupported type (e.g. the legacy
        ``numpy.random.RandomState``), to keep the library on one RNG API.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None or isinstance(rng, (int, np.integer)):
        return np.random.default_rng(rng)
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    raise TypeError(
        f"expected None, int, SeedSequence or numpy.random.Generator, "
        f"got {type(rng).__name__}"
    )


def spawn(rng: RngLike, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    Child streams are derived through ``SeedSequence.spawn`` semantics: the
    parent generator's bit stream is used once to seed a ``SeedSequence``,
    whose children seed the returned generators.  Consuming draws from one
    child does not perturb its siblings, which keeps sweep points of an
    experiment independent of each other's draw counts.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = ensure_rng(rng)
    # 4 words of 32-bit entropy from the parent stream seed the sequence.
    entropy = parent.integers(0, 2**32, size=4, dtype=np.uint64)
    seq = np.random.SeedSequence(entropy.tolist())
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def derive_substream(
    rng: RngLike,
    tag: Sequence[int] | int,
    stream_version: int = 1,
) -> np.random.Generator:
    """Derive a child generator keyed by ``tag``.

    Unlike :func:`spawn`, this does not consume draws from the parent when it
    is an integer seed: the same ``(seed, tag)`` pair always yields the same
    stream.  Used to give each (figure, panel, sweep-point, repetition) cell
    of an experiment a reproducible, addressable stream.

    ``stream_version`` selects the derivation format:

    ``1`` (this function's default argument)
        The historical format: entropy is ``[seed, *tag]`` verbatim.  Every
        stream the harness published before the runtime default moved to
        version 2 uses it; pass ``stream_version=1`` to replay them.
    ``2`` (the runtime default)
        Appends ``[len(tag), 0x5D5EC0DE]`` (tag length + a fixed domain
        separator) to the entropy, which removes the zero-padding alias
        described below: ``[a, b]`` and ``[a, b, 0]`` derive different
        entropy lists (``[s, a, b, 2, D]`` vs ``[s, a, b, 0, 3, D]``) and
        therefore independent streams.  Sessions and the CLI derive
        version-2 streams unless a policy pins version 1
        (:data:`repro.session.policy.DEFAULT_STREAM_VERSION`); the runtime
        plumbs the choice as ``stream_version=`` end to end.

    .. warning::
        Under version 1, ``numpy.random.SeedSequence`` zero-pads entropy to
        its 4-word pool, so a tag and the same tag extended by trailing
        zeros alias the same stream while the combined ``[seed, *tag]``
        list fits in the pool: ``derive_substream(s, [a, b])`` equals
        ``derive_substream(s, [a, b, 0])``.  Callers nesting namespaces
        (e.g. the harness's ``[key, rep]`` data stream vs ``[key, rep, 0]``
        fold-0 cell stream) inherit this aliasing; it is pinned by tests
        because changing the derivation would reshuffle every stream the
        harness produced under it.  Version 2 is the fix.
    """
    if stream_version not in STREAM_VERSIONS:
        raise ValueError(
            f"stream_version must be one of {STREAM_VERSIONS}, got {stream_version!r}"
        )
    if isinstance(tag, (int, np.integer)):
        tag = [int(tag)]
    tag_list = [int(t) for t in tag]
    if stream_version == 2:
        tag_list = [*tag_list, len(tag_list), _V2_DOMAIN_WORD]
    if isinstance(rng, (int, np.integer)):
        seq = np.random.SeedSequence([int(rng), *tag_list])
        return np.random.default_rng(seq)
    parent = ensure_rng(rng)
    entropy = parent.integers(0, 2**32, size=2, dtype=np.uint64)
    seq = np.random.SeedSequence([*entropy.tolist(), *tag_list])
    return np.random.default_rng(seq)


def _self_test() -> None:  # pragma: no cover - debugging helper
    a = derive_substream(7, [1, 2])
    b = derive_substream(7, [1, 2])
    assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)


if __name__ == "__main__":  # pragma: no cover
    _self_test()

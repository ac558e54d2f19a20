"""Durable tenant state: registries, journals, snapshots, the writer lock."""

import json
import threading

import numpy as np
import pytest

from repro.exceptions import InvalidBudgetError, TransientIOError
from repro.faults import make_injector, use_injector
from repro.obs import make_recorder, use_recorder
from repro.privacy.budget import PrivacyBudget
from repro.serve.loadgen import synthetic_batch
from repro.serve.protocol import TenantExistsError, UnknownTenantError
from repro.serve.state import TenantRegistry


def _rows(n=50, dims=3, seed=9, tenant=0, batch=0):
    return synthetic_batch(seed, tenant, batch, n, dims)


def _observed(recorder_mode="summary"):
    recorder = make_recorder(recorder_mode)
    return recorder, use_recorder(recorder)


class TestRegistryLifecycle:
    def test_create_get_names(self, tmp_path):
        registry = TenantRegistry(tmp_path)
        registry.create("alpha", 5.0)
        registry.create("beta", 2.0)
        assert registry.names() == ["alpha", "beta"]
        assert registry.get("alpha").budget.total == 5.0
        registry.close()

    def test_duplicate_create_refused(self, tmp_path):
        registry = TenantRegistry(tmp_path)
        registry.create("alpha", 5.0)
        with pytest.raises(TenantExistsError):
            registry.create("alpha", 9.0)
        registry.close()

    def test_unknown_tenant(self, tmp_path):
        registry = TenantRegistry(tmp_path)
        with pytest.raises(UnknownTenantError):
            registry.get("ghost")
        registry.close()

    def test_tenant_layout_on_disk(self, tmp_path):
        registry = TenantRegistry(tmp_path)
        registry.create("alpha", 5.0)
        root = tmp_path / "tenants" / "alpha"
        meta = json.loads((root / "meta.json").read_text())
        assert meta["total_epsilon"] == 5.0
        assert (root / "budget.journal").exists()
        registry.close()


class TestRestore:
    def test_spends_survive_close_and_restore(self, tmp_path):
        registry = TenantRegistry(tmp_path)
        tenant = registry.create("alpha", 10.0)
        tenant.budget.spend(1.5, note="fit 1")
        tenant.budget.spend(2.0, note="fit 2")
        registry.close()

        fresh = TenantRegistry(tmp_path)
        assert fresh.restore_all() == 1
        restored = fresh.get("alpha")
        assert restored.budget.spent == pytest.approx(3.5)
        assert restored.budget.total == 10.0
        fresh.close()

    def test_accumulators_survive_via_snapshots(self, tmp_path):
        recorder, scope = _observed()
        with scope:
            registry = TenantRegistry(tmp_path)
            tenant = registry.create("alpha", 10.0)
            X, y = _rows(80)
            with tenant.locked():
                tenant.ingest("linear", 3, X, y)
            assert tenant.snapshot() == 1
            registry.close()

            fresh = TenantRegistry(tmp_path)
            fresh.restore_all()
            acc = fresh.get("alpha").accumulator("linear", 3)
            assert acc.n_rows == 80
            fresh.close()
        assert recorder.summary()["counters"]["serve.snapshot_writes"] == 1

    def test_restored_statistics_bitwise_equal(self, tmp_path):
        registry = TenantRegistry(tmp_path)
        tenant = registry.create("alpha", 10.0)
        X, y = _rows(64)
        with tenant.locked():
            tenant.ingest("linear", 3, X, y)
        before = tenant.accumulator("linear", 3).snapshot()
        tenant.snapshot()
        registry.close()

        fresh = TenantRegistry(tmp_path)
        fresh.restore_all()
        after = fresh.get("alpha").accumulator("linear", 3).snapshot()
        np.testing.assert_array_equal(before.S2, after.S2)
        np.testing.assert_array_equal(before.Sxy, after.Sxy)
        assert before.Syy == after.Syy and before.n == after.n
        fresh.close()

    def test_dir_without_meta_is_invisible(self, tmp_path):
        # a crash mid-create publishes meta.json last; its absence means
        # the tenant never existed
        registry = TenantRegistry(tmp_path)
        (tmp_path / "tenants" / "half-created").mkdir(parents=True)
        assert registry.restore_all() == 0
        assert registry.names() == []
        registry.close()

    def test_restore_is_idempotent(self, tmp_path):
        registry = TenantRegistry(tmp_path)
        registry.create("alpha", 10.0)
        registry.close()
        fresh = TenantRegistry(tmp_path)
        assert fresh.restore_all() == 1
        assert fresh.restore_all() == 0
        fresh.close()


class TestJournalGuard:
    def test_fresh_constructor_refuses_existing_journal(self, tmp_path):
        journal = tmp_path / "budget.journal"
        budget = PrivacyBudget(4.0, journal_path=journal)
        budget.spend(1.0)
        budget.close()
        # silently re-creating the ledger would erase a durable spend
        with pytest.raises(InvalidBudgetError, match="restore"):
            PrivacyBudget(4.0, journal_path=journal)
        restored = PrivacyBudget.restore(journal)
        assert restored.spent == pytest.approx(1.0)
        restored.close()


class TestSnapshotIntegrity:
    def _with_snapshot(self, tmp_path):
        registry = TenantRegistry(tmp_path)
        tenant = registry.create("alpha", 10.0)
        X, y = _rows(40)
        with tenant.locked():
            tenant.ingest("linear", 3, X, y)
        tenant.snapshot()
        registry.close()
        return tmp_path / "tenants" / "alpha" / "acc" / "linear-d3.acc"

    def test_corrupt_container_quarantined_not_loaded(self, tmp_path):
        path = self._with_snapshot(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))

        recorder, scope = _observed()
        with scope:
            fresh = TenantRegistry(tmp_path)
            fresh.restore_all()
            tenant = fresh.get("alpha")
            # statistics are never fabricated: the accumulator restarts empty
            assert tenant.accumulator("linear", 3).n_rows == 0
            fresh.close()
        assert recorder.summary()["counters"]["serve.snapshot_quarantined"] == 1
        assert not path.exists()
        quarantined = tmp_path / "tenants" / "alpha" / "quarantine" / "linear-d3.acc"
        assert quarantined.exists()

    def test_budget_survives_snapshot_corruption(self, tmp_path):
        # rows are re-sendable data; spends are not — corruption of the
        # one must never touch the other
        registry = TenantRegistry(tmp_path)
        tenant = registry.create("alpha", 10.0)
        X, y = _rows(40)
        with tenant.locked():
            tenant.ingest("linear", 3, X, y)
        tenant.budget.spend(2.5)
        tenant.snapshot()
        registry.close()
        acc_path = tmp_path / "tenants" / "alpha" / "acc" / "linear-d3.acc"
        acc_path.write_bytes(b"garbage")

        fresh = TenantRegistry(tmp_path)
        fresh.restore_all()
        assert fresh.get("alpha").budget.spent == pytest.approx(2.5)
        fresh.close()


class TestTransientIO:
    def test_bounded_retries_absorb_transients(self, tmp_path):
        recorder = make_recorder("summary")
        with use_recorder(recorder), use_injector(
            make_injector("seed=3;io.transient=1.0x2")
        ):
            registry = TenantRegistry(tmp_path)
            tenant = registry.create("alpha", 10.0)
            X, y = _rows(30)
            with tenant.locked():
                tenant.ingest("linear", 3, X, y)
            assert tenant.snapshot() == 1  # third attempt lands
            registry.close()
        assert recorder.summary()["counters"]["serve.io_retries"] == 2

    def test_exhausted_retries_raise_and_stay_dirty(self, tmp_path):
        with use_injector(make_injector("seed=3;io.transient=1.0x10")):
            registry = TenantRegistry(tmp_path)
            tenant = registry.create("alpha", 10.0)
            X, y = _rows(30)
            with tenant.locked():
                tenant.ingest("linear", 3, X, y)
            with pytest.raises(TransientIOError):
                tenant.snapshot()
        # outside the fault scope the retry succeeds: the key stayed dirty
        assert tenant.snapshot() == 1
        registry.close()

    def test_snapshot_all_contains_per_tenant_failures(self, tmp_path):
        recorder = make_recorder("summary")
        registry = TenantRegistry(tmp_path)
        for name in ("alpha", "beta"):
            tenant = registry.create(name, 10.0)
            X, y = _rows(30, tenant=hash(name) % 7)
            with tenant.locked():
                tenant.ingest("linear", 3, X, y)
        # break exactly one tenant's snapshot path persistently
        broken = registry.get("alpha")
        broken.snapshot = lambda force=False: (_ for _ in ()).throw(OSError("disk"))
        with use_recorder(recorder):
            written = registry.snapshot_all(force=True)
        assert written == 1  # beta's snapshot still landed
        assert recorder.summary()["counters"]["serve.snapshot_failures"] == 1
        registry.close()


class TestWriterLock:
    def test_contention_is_counted(self, tmp_path):
        recorder = make_recorder("summary")
        registry = TenantRegistry(tmp_path)
        tenant = registry.create("alpha", 10.0)
        holding = threading.Event()
        release = threading.Event()

        def holder():
            with tenant.locked():
                holding.set()
                release.wait(5.0)

        def contender():
            with tenant.locked():
                pass

        # The active-recorder slot is process-global: install it once here,
        # around both threads, rather than in each thread (their lifetimes
        # do not nest, so per-thread installs could restore out of order).
        with use_recorder(recorder):
            first = threading.Thread(target=holder)
            first.start()
            assert holding.wait(5.0)
            second = threading.Thread(target=contender)
            second.start()
            # give the contender time to hit the non-blocking acquire and count
            for _ in range(100):
                if recorder.summary()["counters"].get("serve.lock_contention"):
                    break
                second.join(0.02)
            release.set()
            first.join(5.0)
            second.join(5.0)
        assert recorder.summary()["counters"]["serve.lock_contention"] == 1
        registry.close()

    def test_uncontended_acquire_is_silent(self, tmp_path):
        recorder = make_recorder("summary")
        registry = TenantRegistry(tmp_path)
        tenant = registry.create("alpha", 10.0)
        with use_recorder(recorder):
            with tenant.locked():
                pass
        assert "serve.lock_contention" not in recorder.summary()["counters"]
        registry.close()

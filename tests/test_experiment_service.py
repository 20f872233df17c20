"""Fault-injection matrix for the durable experiment service.

Every robustness guarantee of :mod:`repro.experiments.service` is
exercised against a deterministic :class:`FaultPlan` and asserted via
the ``simulated_sha256`` byte-identity fingerprint: a crashed, hung,
flaky, killed-and-resumed or cache-served sweep must compute *exactly*
the simulation a fault-free ``workers=1`` straight-line run computes.

Also covers the choice between the inline and supervised modes, the
removal of every attempt's scratch files, a supervisor woken by worker
exits rather than by its tick, the job runner's running median, eager
``SweepPoint`` validation, the sub-resolution ``host_seconds`` division
guards, and corruption recovery in both the journal (truncated line) and
the object store.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.common.addresses import MB
from repro.experiments import service as service_module
from repro.experiments.faultinject import FaultAction, FaultPlan, TransientFault
from repro.experiments.runner import JobRunner, new_counters
from repro.experiments.service import (
    demo_grid,
    run_resilient_sweep,
    sweep_job_key,
)
from repro.experiments.store import Journal, ResultStore, content_key
from repro.experiments.sweep import (
    SweepPoint,
    kips_value,
    merge_point_digests,
    run_sweep,
    validate_points,
)
from repro.validation.parity import ParityPoint, parity_job_key


def tiny_grid(count: int = 4) -> list:
    return [SweepPoint(name=f"svc-{index}", workload="RND",
                       workload_kwargs={"footprint_bytes": 1 * MB,
                                        "memory_operations": 300,
                                        "prefault": True, "seed": index})
            for index in range(count)]


@pytest.fixture(scope="module")
def straight_line():
    """The fault-free sequential baseline every faulted run must match."""
    return run_sweep(tiny_grid(), workers=1)


# --------------------------------------------------------------------- #
# Mode selection: inline vs supervised
# --------------------------------------------------------------------- #
class TestModeSelection:
    @pytest.mark.parametrize("points, workers", [(1, 8), (3, 1)])
    def test_one_usable_slot_runs_inline(self, monkeypatch, points,
                                         workers):
        def forbidden_process(*_args, **_kwargs):
            raise AssertionError("an inline run must not fork a worker")

        monkeypatch.setattr(multiprocessing, "Process", forbidden_process)
        digest = run_sweep(tiny_grid(points), workers=workers)
        assert digest["service"]["mode"] == "inline"
        assert digest["service"]["executed"] == points

    @pytest.mark.parametrize("points, workers", [(2, 8), (4, 2)])
    def test_supervised_run_caps_live_workers(self, monkeypatch, points,
                                              workers, straight_line):
        live, peak = set(), [0]
        real_process = multiprocessing.Process

        class CountingProcess(real_process):
            def start(self):
                super().start()
                live.add(self)
                peak[0] = max(peak[0], len(live))

            def join(self, timeout=None):
                super().join(timeout)
                if not self.is_alive():
                    live.discard(self)

        monkeypatch.setattr(multiprocessing, "Process", CountingProcess)
        digest = run_sweep(tiny_grid(points), workers=workers)
        assert digest["service"]["mode"] == "supervised"
        assert peak[0] == min(workers, points)
        assert not live
        if points == len(straight_line["points"]):
            assert (digest["simulated_sha256"]
                    == straight_line["simulated_sha256"])

    def test_timeout_alone_selects_supervised(self, tmp_path):
        digest = run_resilient_sweep(tiny_grid(1), store_root=tmp_path,
                                     workers=1, timeout=30.0)
        assert digest["service"]["mode"] == "supervised"


# --------------------------------------------------------------------- #
# Per-attempt scratch files are removed
# --------------------------------------------------------------------- #
class TestSupervisorWakeUp:
    def test_worker_exit_wakes_the_supervisor(self, monkeypatch):
        """With a tick no run survives, only the workers' exits can move a
        supervised sweep along."""
        monkeypatch.setattr(service_module, "POLL_SECONDS", 30.0)
        start = time.monotonic()
        digest = run_sweep(tiny_grid(6), workers=2)
        assert time.monotonic() - start < 20.0
        assert digest["service"]["mode"] == "supervised"
        assert digest["service"]["executed"] == 6


class TestRunnerMedian:
    def test_median_duration_matches_statistics_median(self):
        runner = JobRunner(len, 1, None, new_counters())
        assert runner.median_duration() is None
        rng = random.Random(23)
        values = []
        for _ in range(41):  # odd and even counts, and repeated values
            value = rng.choice([rng.random(), 0.5])
            values.append(value)
            runner.record_duration(value)
            assert runner.median_duration() == statistics.median(values)
        assert runner.durations == sorted(values)


class TestScratchCleanup:
    def test_faulted_durable_run_leaves_scratch_empty(self, tmp_path):
        plan = FaultPlan(actions=[FaultAction("svc-0", 1, "crash"),
                                  FaultAction("svc-1", 1, "hang",
                                              hang_seconds=30.0),
                                  FaultAction("svc-2", 1, "flaky")])
        digest = run_resilient_sweep(tiny_grid(), store_root=tmp_path,
                                     workers=2, timeout=0.75, retries=2,
                                     backoff=0.01, fault_plan=plan)
        assert digest["failed_points"] == []
        assert list((tmp_path / "scratch").iterdir()) == []

    def test_non_durable_supervised_run_leaves_no_temp_dir(self, tmp_path,
                                                           monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        digest = run_resilient_sweep(tiny_grid(2), workers=2, timeout=30.0)
        assert digest["service"]["mode"] == "supervised"
        assert list(tmp_path.glob("repro-service-*")) == []


# --------------------------------------------------------------------- #
# Satellite: eager grid validation
# --------------------------------------------------------------------- #
class TestValidation:
    def test_unknown_workload_names_the_point(self):
        points = [SweepPoint(name="bad-wl", workload="NoSuchWorkload")]
        with pytest.raises(ValueError, match="bad-wl.*NoSuchWorkload"):
            validate_points(points)

    def test_unknown_scenario_for_multicore_point(self):
        points = [SweepPoint(name="bad-scenario", workload="RND", cores=2)]
        with pytest.raises(ValueError, match="bad-scenario.*scenario"):
            validate_points(points)

    def test_unknown_page_table_kind(self):
        points = [SweepPoint(name="bad-kind", workload="RND",
                             page_table_kind="quantum")]
        with pytest.raises(ValueError, match="bad-kind.*quantum"):
            validate_points(points)

    def test_duplicate_names_rejected(self):
        points = [SweepPoint(name="twin", workload="RND"),
                  SweepPoint(name="twin", workload="Bagel")]
        with pytest.raises(ValueError, match="duplicate.*twin"):
            validate_points(points)

    def test_run_sweep_validates_before_spawning(self):
        with pytest.raises(ValueError, match="NoSuchWorkload"):
            run_sweep([SweepPoint(name="p", workload="NoSuchWorkload")],
                      workers=4)


# --------------------------------------------------------------------- #
# Satellite: sub-resolution host-seconds guards
# --------------------------------------------------------------------- #
class TestKipsGuards:
    def test_kips_value_zero_below_resolution(self):
        assert kips_value(1_000_000, 0.0) == 0.0
        assert kips_value(1_000_000, 1e-9) == 0.0
        assert kips_value(2_000_000, 2.0) == 1000.0

    def test_merge_guards_denormal_total(self):
        digests = [{"simulated_instructions": 1000, "kernel_instructions": 0,
                    "page_faults": 0, "host_seconds": 5e-10}]
        merged = merge_point_digests(digests)
        assert merged["aggregate_kips"] == 0.0


# --------------------------------------------------------------------- #
# Store + journal durability primitives
# --------------------------------------------------------------------- #
class TestStore:
    def test_roundtrip_and_content_addressing(self, tmp_path):
        store = ResultStore(tmp_path)
        key = content_key({"a": 1, "b": [1, 2]})
        assert content_key({"b": (1, 2), "a": 1}) == key  # order/tuple-blind
        assert store.get(key) is None
        store.put(key, {"value": 42})
        assert store.get(key)["digest"] == {"value": 42}
        assert key in store and list(store.keys()) == [key]

    def test_corrupt_object_quarantined_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = content_key("x")
        path = store.put(key, {"value": 1})
        path.write_text('{"schema": "result_store/v1", "dig')  # torn write
        assert store.get(key) is None
        assert store.corrupt_objects == 1
        store.put(key, {"value": 2})  # recompute lands cleanly
        assert store.get(key)["digest"] == {"value": 2}

    def test_journal_replay_tolerates_truncated_tail(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.append({"event": "a"})
        journal.append({"event": "b"})
        journal.close()
        with open(journal.path, "a") as handle:
            handle.write('{"event": "c", "trunc')  # SIGKILL mid-append
        records, corrupt = journal.replay()
        assert [r["event"] for r in records] == ["a", "b"]
        assert corrupt == 1

    def test_sweep_job_key_hashes_config_and_seed(self):
        point = tiny_grid(1)[0]
        assert sweep_job_key(point, 0) != sweep_job_key(point, 1)
        renamed = SweepPoint(**{**point.__dict__, "name": "other"})
        assert sweep_job_key(point, 0) != sweep_job_key(renamed, 0)

    def test_store_keys_are_pinned(self):
        """Keys recorded from a fixed sweep point and a fixed parity point.

        A key that moves orphans every stored result under the old one, so
        a change to the key schema, to a point's fields or to how configs
        are hashed must show up here and be re-recorded on purpose.
        """
        sweep_point = SweepPoint(name="svc-0", workload="RND",
                                 workload_kwargs={"footprint_bytes": 1 * MB,
                                                  "memory_operations": 300,
                                                  "prefault": True, "seed": 0})
        assert sweep_job_key(sweep_point, 0) == (
            "7916e0c84a8a8cb0c97fba9e35cb04d42b5008111059ad083f7cce270163e019")
        parity_point = ParityPoint(page_table_kind="radix", family="gups", cores=2,
                                   swap_pressure=True, virtualized=True, guest_kind="ecpt")
        assert parity_job_key(parity_point) == (
            "f8096f11d9b01948b248d17723b3832b91e6a1108c79a3671bbe8e36914054eb")


# --------------------------------------------------------------------- #
# The fault-injection matrix
# --------------------------------------------------------------------- #
class TestFaultMatrix:
    def test_crash_on_point_k_recovers_bit_identical(self, tmp_path,
                                                     straight_line):
        """A worker crash (os._exit) on one point costs a retry, not the
        sweep: the final digest matches the straight-line run exactly."""
        points = tiny_grid()
        plan = FaultPlan(actions=[FaultAction("svc-2", 1, "crash")])
        digest = run_resilient_sweep(points, store_root=tmp_path, workers=2,
                                     timeout=30.0, retries=2, backoff=0.01,
                                     fault_plan=plan)
        assert digest["service"]["crashes"] == 1
        assert digest["service"]["retries"] == 1
        assert digest["failed_points"] == []
        assert digest["simulated_sha256"] == straight_line["simulated_sha256"]

    def test_hang_is_timeout_killed_then_retried(self, tmp_path,
                                                 straight_line):
        points = tiny_grid()
        plan = FaultPlan(actions=[FaultAction("svc-1", 1, "hang",
                                              hang_seconds=30.0)])
        digest = run_resilient_sweep(points, store_root=tmp_path, workers=2,
                                     timeout=0.75, retries=2, backoff=0.01,
                                     fault_plan=plan)
        assert digest["service"]["timeouts"] == 1
        assert digest["failed_points"] == []
        assert digest["simulated_sha256"] == straight_line["simulated_sha256"]

    def test_flaky_twice_then_pass_backoff_schedule(self, tmp_path,
                                                    straight_line):
        """Two transient failures retry on an exponential schedule
        (base, 2*base) and the third attempt lands the real result."""
        points = tiny_grid()
        plan = FaultPlan(actions=[FaultAction("svc-0", 1, "flaky"),
                                  FaultAction("svc-0", 2, "flaky")])
        digest = run_resilient_sweep(points, store_root=tmp_path, workers=2,
                                     timeout=30.0, retries=3, backoff=0.01,
                                     fault_plan=plan)
        assert digest["service"]["transient_failures"] == 2
        assert digest["service"]["retries"] == 2
        assert digest["job_details"]["svc-0"]["attempts"] == 3
        assert digest["job_details"]["svc-0"]["backoff_schedule"] == [0.01, 0.02]
        assert digest["simulated_sha256"] == straight_line["simulated_sha256"]

    def test_exhausted_retries_quarantine_not_poison(self, tmp_path,
                                                     straight_line):
        """A job that fails every attempt is quarantined with its
        traceback in the digest; the rest of the sweep completes, and a
        later fault-free rerun heals the hole from the cache + recompute."""
        points = tiny_grid()
        plan = FaultPlan(actions=[FaultAction("svc-3", attempt, "flaky")
                                  for attempt in (1, 2, 3, 4, 5)])
        digest = run_resilient_sweep(points, store_root=tmp_path, workers=2,
                                     timeout=30.0, retries=1, backoff=0.01,
                                     fault_plan=plan)
        assert digest["service"]["quarantined"] == 1
        assert len(digest["points"]) == len(points) - 1
        assert digest["merged"]["points"] == len(points) - 1
        [failed] = digest["failed_points"]
        assert failed["name"] == "svc-3"
        assert failed["attempts"] == 2
        assert failed["reason"] == "transient"
        assert "TransientFault" in failed["traceback"]
        # Healing rerun: the three completed points come from the cache,
        # only the quarantined one is recomputed — and identity holds.
        healed = run_resilient_sweep(points, store_root=tmp_path, workers=2)
        assert healed["service"]["cache_hits"] == len(points) - 1
        assert healed["service"]["executed"] == 1
        assert healed["simulated_sha256"] == straight_line["simulated_sha256"]

    def test_partial_run_then_full_run_reuses_cache(self, tmp_path,
                                                    straight_line):
        points = tiny_grid()
        run_resilient_sweep(points[:2], store_root=tmp_path, workers=1)
        digest = run_resilient_sweep(points, store_root=tmp_path, workers=1)
        assert digest["service"]["cache_hits"] == 2
        assert digest["service"]["cache_misses"] == 2
        assert digest["service"]["cache_hit_rate"] == 0.5
        assert digest["simulated_sha256"] == straight_line["simulated_sha256"]

    def test_corrupt_store_object_recomputed(self, tmp_path, straight_line):
        points = tiny_grid()
        first = run_resilient_sweep(points, store_root=tmp_path, workers=1)
        store = ResultStore(tmp_path)
        key = sweep_job_key(points[1], 0)
        store._object_path(key).write_text("not json at all")
        digest = run_resilient_sweep(points, store_root=tmp_path, workers=1)
        assert digest["service"]["cache_hits"] == len(points) - 1
        assert digest["service"]["executed"] == 1
        assert digest["service"]["store_corrupt_objects"] == 1
        assert digest["simulated_sha256"] == first["simulated_sha256"]
        assert digest["simulated_sha256"] == straight_line["simulated_sha256"]

    def test_seeded_plan_is_deterministic_and_distinct(self):
        names = [point.name for point in demo_grid(8)]
        plan_a = FaultPlan.seeded(names, seed=11, crashes=1, hangs=1, flaky=1)
        plan_b = FaultPlan.seeded(names, seed=11, crashes=1, hangs=1, flaky=1)
        assert plan_a.actions == plan_b.actions
        victims = {action.job for action in plan_a.actions}
        assert len(victims) == 3
        assert plan_a.counts() == {"crash": 1, "hang": 1, "flaky": 1}
        rehydrated = FaultPlan.from_json(plan_a.to_json())
        assert rehydrated.actions == plan_a.actions


# --------------------------------------------------------------------- #
# Kill-and-resume (the CI smoke, exercised through the CLI)
# --------------------------------------------------------------------- #
class TestKillResume:
    def test_sigkill_mid_sweep_resumes_bit_identical(self, tmp_path):
        """SIGKILL the service host mid-sweep, resume from the journal +
        store, and finish with a digest byte-identical to straight-line
        (the `kill-resume-smoke` CLI asserts exactly this and exits 0)."""
        src_root = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_root)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments.service",
             "kill-resume-smoke", "--store", str(tmp_path / "store"),
             "--points", "5", "--demo-ops", "4000", "--workers", "1"],
            env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, (
            f"kill-resume smoke failed:\n{result.stdout}\n{result.stderr}")
        assert "identical" in result.stdout

    def test_resume_counters_surface_interrupted_jobs(self, tmp_path):
        """A journal with an attempt_started but no completion is counted
        as an interrupted job on the next run."""
        points = tiny_grid(2)
        store = ResultStore(tmp_path)
        journal = Journal(store.journal_path)
        journal.append({"event": "attempt_started",
                        "key": sweep_job_key(points[0], 0),
                        "name": points[0].name, "attempt": 1})
        journal.close()
        digest = run_resilient_sweep(points, store_root=tmp_path, workers=1)
        assert digest["service"]["resumed_interrupted"] == 1
        assert len(digest["points"]) == 2


# --------------------------------------------------------------------- #
# Satellite: fail-fast argument validation
# --------------------------------------------------------------------- #
class TestResilientSweepValidation:
    def test_empty_point_list_fails_fast(self, tmp_path):
        with pytest.raises(ValueError, match="non-empty point list"):
            run_resilient_sweep([], store_root=tmp_path)

    def test_nonpositive_workers_fail_fast(self, tmp_path):
        with pytest.raises(ValueError, match="workers must be a positive"):
            run_resilient_sweep(tiny_grid(1), store_root=tmp_path, workers=0)
        with pytest.raises(ValueError, match="got -2"):
            run_resilient_sweep(tiny_grid(1), store_root=tmp_path, workers=-2)

    def test_store_root_that_is_a_file_fails_fast(self, tmp_path):
        clobber = tmp_path / "store"
        clobber.write_text("precious data, do not mkdir over me")
        with pytest.raises(ValueError, match="existing file, not a directory"):
            run_resilient_sweep(tiny_grid(1), store_root=clobber)
        assert clobber.read_text() == "precious data, do not mkdir over me"


# --------------------------------------------------------------------- #
# Satellite: store GC, quarantine stats, duplicate-completion warning
# --------------------------------------------------------------------- #
class TestStoreGC:
    def fill(self, store: ResultStore, count: int = 4) -> list:
        keys = []
        for index in range(count):
            key = content_key({"gc": index})
            path = store.put(key, {"value": index, "pad": "x" * 512})
            # Deterministic LRU order: ascending atime by index.
            stamp = 1_000_000 + index * 100
            os.utime(path, (stamp, stamp))
            keys.append(key)
        return keys

    def test_evicts_least_recently_used_first(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = self.fill(store)
        sizes = store.stats()["stored_bytes"]
        report = store.gc(budget_bytes=sizes // 2)
        evicted = [row["key"] for row in report["evicted"]]
        # Oldest atimes go first; the newest object always survives.
        assert evicted == keys[:len(evicted)]
        assert store.get(keys[-1]) is not None
        assert report["bytes_after"] <= sizes // 2
        assert not report["over_budget"]

    def test_dry_run_unlinks_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = self.fill(store)
        report = store.gc(budget_bytes=0, dry_run=True)
        assert len(report["evicted"]) == len(keys)
        for key in keys:
            assert store.get(key) is not None

    def test_protected_keys_survive_even_over_budget(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = self.fill(store)
        report = store.gc(budget_bytes=0, protect=set(keys))
        assert report["evicted"] == []
        assert report["over_budget"]
        assert sorted(report["protected_skipped"]) == sorted(keys)

    def test_corrupt_debris_reclaimed_first(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = self.fill(store)
        bad = content_key({"gc": "corrupt"})
        path = store.put(bad, {"value": 0})
        path.write_text('{"schema": "result_store/v1", "torn')
        assert store.get(bad) is None  # quarantines it as *.corrupt
        before = store.stats()["stored_bytes"]
        report = store.gc(budget_bytes=before)  # already within budget...
        # ...so only the (budget-free) corrupt debris is reclaimed.
        assert [row["corrupt"] for row in report["evicted"]] == [True]
        for key in keys:
            assert store.get(key) is not None

    def test_stats_count_quarantined_objects_on_disk(self, tmp_path):
        store = ResultStore(tmp_path)
        key = content_key({"stats": 1})
        path = store.put(key, {"value": 1})
        path.write_text("garbage")
        assert store.get(key) is None
        # A *different* handle still sees the on-disk quarantine debris.
        fresh = ResultStore(tmp_path)
        stats = fresh.stats()
        assert stats["quarantined_objects"] == 1
        assert stats["corrupt_objects"] == 0  # this handle saw none itself


class TestJournalDuplicateWarning:
    def test_duplicate_completion_warns_on_replay(self, tmp_path):
        from repro.experiments.store import JournalWarning

        journal = Journal(tmp_path / "journal.jsonl")
        journal.append({"event": "job_completed", "key": "k1", "name": "a"})
        journal.append({"event": "job_completed", "key": "k1", "name": "a"})
        journal.append({"event": "job_completed", "key": "k2", "name": "b"})
        journal.close()
        replayer = Journal(tmp_path / "journal.jsonl")
        with pytest.warns(JournalWarning, match="k1"):
            records, corrupt = replayer.replay()
        replayer.close()
        assert corrupt == 0 and len(records) == 3

    def test_unique_completions_replay_silently(self, tmp_path):
        import warnings

        journal = Journal(tmp_path / "journal.jsonl")
        journal.append({"event": "job_completed", "key": "k1", "name": "a"})
        journal.append({"event": "job_completed", "key": "k2", "name": "b"})
        journal.close()
        replayer = Journal(tmp_path / "journal.jsonl")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records, _ = replayer.replay()
        replayer.close()
        assert len(records) == 2


class TestJournalProgress:
    def test_in_flight_is_submitted_minus_terminal(self):
        from repro.experiments.service import journal_progress

        rollup = journal_progress([
            {"event": "job_submitted", "key": "a"},
            {"event": "attempt_started", "key": "a"},
            {"event": "job_completed", "key": "a"},
            {"event": "job_submitted", "key": "b"},
            {"event": "attempt_started", "key": "b"},   # crashed mid-run
            {"event": "job_submitted", "key": "c"},
            {"event": "job_cancelled", "key": "c"},
            {"event": "cache_hit", "key": "d"},
            {"event": "server_started"},                # no key: ignored
        ])
        assert rollup["completed"] == 1
        assert rollup["cancelled"] == 1
        assert rollup["cache_hits"] == 1
        assert rollup["in_flight"] == 1  # only "b"

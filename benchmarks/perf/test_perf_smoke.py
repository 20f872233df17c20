"""Always-on perf smoke gate: fail if simulator KIPS regresses past tolerance.

Four scenarios are gated: GUPS (the application fast path), ``llm_faults``
(the kernel-dominated fault-heavy scenario that isolates the array-backed
MimicOS stream path), ``multicore_contention`` (two simulated cores
sharing the LLC/DRAM) and ``virtualized_guest`` (2-D translation).  Each
compares throughput measured on this host against the value recorded in
``BENCH_perf.json`` and fails when it drops more than
:data:`~benchmarks.perf.kips_harness.REGRESSION_TOLERANCE` (30 %) below
the record.  The record is scaled onto this host by a fixed pure-Python
calibration loop that runs none of the simulator, so the gate measures the
simulator and not the host's load.  Regenerate the record with::

    PYTHONPATH=src python benchmarks/perf/kips_harness.py
    PYTHONPATH=src python benchmarks/perf/sweep.py
    PYTHONPATH=src python benchmarks/perf/service_bench.py
    PYTHONPATH=src python benchmarks/perf/prefault_bench.py
    PYTHONPATH=src python benchmarks/perf/memhier_bench.py
    PYTHONPATH=src python benchmarks/perf/translation_bench.py
    PYTHONPATH=src python benchmarks/perf/workload_bench.py
    PYTHONPATH=src python benchmarks/perf/kernel_bench.py
    PYTHONPATH=src python benchmarks/perf/fuzz_bench.py

The sweep host-scaling gate only fires when the digest was recorded on a
multi-core host (a 1-CPU container cannot exhibit host scaling); the sweep
*determinism* gate is always on.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.perf.kips_harness import (
    BENCH_PATH,
    REGRESSION_TOLERANCE,
    REPEATS,
    SEED_ENGINE_KIPS,
    calibration_s,
    run_scenario,
)

pytestmark = pytest.mark.perf_smoke


def recorded_bench():
    if not BENCH_PATH.exists():
        pytest.skip("BENCH_perf.json not generated yet; run the KIPS harness first")
    return json.loads(BENCH_PATH.read_text())


def assert_no_regression(name: str, repeats: int = REPEATS) -> None:
    """Measured KIPS must stay within tolerance of the record.

    (recorded calibration / measured calibration) scales the record onto
    the current machine, so the gate only fires on genuine simulator
    regressions, not on running the suite on a slower or busier host.
    """
    recorded = recorded_bench()
    row = recorded["scenarios"][name]
    assert row["kips"] > 0 and recorded["calibration_s"] > 0
    host_scale = min(1.0, recorded["calibration_s"] / calibration_s())
    measured = run_scenario(name, repeats=repeats)
    floor = row["kips"] * host_scale * (1.0 - REGRESSION_TOLERANCE)
    assert measured["kips"] >= floor, (
        f"{name} KIPS regressed: measured {measured['kips']:.1f}, "
        f"recorded {row['kips']:.1f} (host scale {host_scale:.2f}), "
        f"floor {floor:.1f} "
        f"(>{REGRESSION_TOLERANCE:.0%} below the BENCH_perf.json record)")


def test_gups_kips_no_regression():
    assert_no_regression("gups_smoke")


def test_fault_heavy_record_is_kernel_dominated():
    """The fault-heavy scenario only isolates the kernel path if MimicOS
    dominates it."""
    row = recorded_bench()["scenarios"].get("llm_faults")
    assert row is not None, "BENCH_perf.json predates the llm_faults scenario"
    assert row["kernel_instructions"] > 10 * row["instructions"]


def test_fault_heavy_kips_no_regression():
    assert_no_regression("llm_faults")


def test_multicore_record_simulates_two_cores():
    row = recorded_bench()["scenarios"].get("multicore_contention")
    assert row is not None, ("BENCH_perf.json predates the multicore_contention "
                             "scenario; regenerate it with the KIPS harness")
    assert row.get("cores", 1) >= 2, "multicore_contention must simulate >= 2 cores"


def test_multicore_kips_no_regression():
    assert_no_regression("multicore_contention", repeats=2)


def test_virtualized_record_matches_its_digest():
    """One run of the virtualized-guest scenario must reproduce the
    statistics recorded with its KIPS, with both kernels' streams injected."""
    row = recorded_bench()["scenarios"].get("virtualized_guest")
    assert row is not None, ("BENCH_perf.json predates the virtualized_guest "
                             "scenario; regenerate it with the KIPS harness")
    assert row.get("virtualized") is True
    assert run_scenario("virtualized_guest", repeats=1)["stats_sha256"] == row["stats_sha256"], (
        "virtualized_guest no longer simulates what its KIPS record measured")
    # A virtualised run without hypervisor work would not be testing the
    # two-level path.
    assert row["kernel_instructions"] > 0


def test_virtualized_kips_no_regression():
    assert_no_regression("virtualized_guest", repeats=2)


def test_seed_baselines_are_null_not_zero():
    """Scenarios that postdate the seed engine must record ``null`` baselines.

    A ``pre_pr_seed_kips`` of 0.0 with ``speedup_vs_seed`` 0.0 reads as a
    total regression; the honest encoding for "no seed-engine measurement
    exists" is ``null`` (omitting the comparison), and scenarios *with* a
    seed baseline must show a genuine speedup over it.
    """
    recorded = recorded_bench()
    for name, row in recorded["scenarios"].items():
        seed_kips = row.get("pre_pr_seed_kips")
        speedup = row.get("speedup_vs_seed")
        if name in SEED_ENGINE_KIPS:
            assert seed_kips and seed_kips > 0, (
                f"{name}: expected a positive seed baseline, got {seed_kips!r}")
            assert speedup and speedup > 1.0, (
                f"{name}: fast-path engine should beat the seed engine, "
                f"recorded {speedup!r}")
        else:
            assert seed_kips is None and speedup is None, (
                f"{name}: scenarios without a seed-engine measurement must "
                f"record null baselines, got pre_pr_seed_kips={seed_kips!r}, "
                f"speedup_vs_seed={speedup!r}")


def test_sweep_digest_recorded_and_deterministic():
    """The sweep digest must exist and attest worker-count determinism."""
    recorded = recorded_bench()
    digest = recorded.get("sweep")
    if digest is None:
        pytest.skip("no sweep digest recorded yet; run benchmarks/perf/sweep.py")
    assert digest["deterministic_across_workers"] is True
    assert digest["grid_points"] >= 4, "sweep digest should cover a 4-config grid"
    merged = digest["merged"]
    assert merged["simulated_instructions"] > 0


def test_sweep_host_scaling_meets_target():
    """Near-linear host scaling, gated only on genuinely multi-core hosts."""
    recorded = recorded_bench()
    digest = recorded.get("sweep")
    if digest is None:
        pytest.skip("no sweep digest recorded yet; run benchmarks/perf/sweep.py")
    if digest.get("host_cpus", 1) < 2:
        pytest.skip(f"sweep digest recorded on a {digest.get('host_cpus', 1)}-CPU "
                    "host; host scaling needs >= 2 CPUs")
    scaling = digest.get("scaling_2_workers")
    assert scaling is not None and scaling >= digest["scaling_target"], (
        f"2-worker sweep scaling {scaling}x is below the "
        f"{digest['scaling_target']}x near-linear target")


def test_prefault_record_is_faster_and_state_identical():
    """The recorded trace-free prefault must not be slower than the
    recording fault path, and must have left identical kernel state.

    The ``prefault`` section is written by
    ``benchmarks/perf/prefault_bench.py``.
    """
    digest = recorded_bench().get("prefault")
    if digest is None:
        pytest.skip("no prefault digest recorded yet; run "
                    "benchmarks/perf/prefault_bench.py")
    for kind, row in digest["backends"].items():
        assert row["state_identical"] is True, kind
        assert row["faults"] > 0, kind
    assert digest["total"]["speedup"] >= 1.0, (
        f"prefault with a DiscardedTrace recorded slower than the recording "
        f"fault path ({digest['total']['speedup']}x)")


def test_memhier_mix_counters_match_record():
    """One pass of each recorded memory-hierarchy mix must leave exactly the
    counters the record holds (no timing is checked here).

    The ``memhier`` section is written by
    ``benchmarks/perf/memhier_bench.py``; both of its sides were refused
    unless their counters agreed, so a changed digest means the access path
    no longer simulates what it did.
    """
    from benchmarks.perf.memhier_bench import MIXES, mix_digest

    digest = recorded_bench().get("memhier")
    if digest is None:
        pytest.skip("no memhier digest recorded yet; run "
                    "benchmarks/perf/memhier_bench.py")
    assert set(digest["mixes"]) == set(MIXES)
    for name, row in digest["mixes"].items():
        assert mix_digest(name) == row["stats_sha256"], (
            f"memhier mix {name}: the hierarchy's counters changed")


def test_translation_counters_match_record():
    """One pass of each recorded translation mix and of each backend's
    walks must leave exactly the counters the record holds (no timing is
    checked here).

    The ``translation`` section is written by
    ``benchmarks/perf/translation_bench.py``, which refuses a side whose
    counters differ from the other side's record, so a changed digest
    means the translation path no longer simulates what it did.
    """
    from benchmarks.perf.translation_bench import (
        MIXES,
        WALK_BACKENDS,
        mix_digest,
        walk_digest,
    )

    digest = recorded_bench().get("translation")
    if digest is None:
        pytest.skip("no translation digest recorded yet; run "
                    "benchmarks/perf/translation_bench.py")
    assert set(digest["mixes"]) == set(MIXES)
    assert set(digest["walks"]) == set(WALK_BACKENDS)
    for name, row in digest["mixes"].items():
        assert mix_digest(name) == row["stats_sha256"], (
            f"translation mix {name}: the MMU's or the caches' counters changed")
    for kind, row in digest["walks"].items():
        assert walk_digest(kind) == row["stats_sha256"], (
            f"{kind} walks: the page table's or the caches' counters changed")


def test_workload_streams_match_record():
    """A fresh pass of each recorded workload generator must yield exactly
    the batches the record holds (no timing is checked here).

    The ``workloads`` section is written by
    ``benchmarks/perf/workload_bench.py``, which refuses a side whose
    stream differs from the other side's record, so a changed digest means
    a generator no longer emits what it did, or cuts it elsewhere.
    """
    from benchmarks.perf.workload_bench import WORKLOADS, stream_digest

    digest = recorded_bench().get("workloads")
    if digest is None:
        pytest.skip("no workloads digest recorded yet; run "
                    "benchmarks/perf/workload_bench.py")
    assert set(digest["streams"]) == set(WORKLOADS)
    for name, row in digest["streams"].items():
        assert stream_digest(name) == (row["stats_sha256"], row["batches"]), (
            f"workload {name}: the generated batches changed")


def test_kernel_stream_counters_match_record():
    """Expanding and executing each recorded set of MimicOS handler traces
    must leave exactly the counters the record holds (no timing is checked
    here).

    The ``kernel_stream`` section is written by
    ``benchmarks/perf/kernel_bench.py``, which refuses a side whose
    counters differ from the other side's record, so a changed digest
    means the kernel stream no longer simulates what it did.
    """
    from benchmarks.perf.kernel_bench import TRACE_SETS, trace_set_digest

    digest = recorded_bench().get("kernel_stream")
    if digest is None:
        pytest.skip("no kernel_stream digest recorded yet; run "
                    "benchmarks/perf/kernel_bench.py")
    assert set(digest["sets"]) == set(TRACE_SETS)
    for name, row in digest["sets"].items():
        assert trace_set_digest(name) == row["stats_sha256"], (
            f"kernel trace set {name}: the stream's cycles or counters changed")


def test_service_fault_tolerance_recorded():
    """The recorded fault-injection run must attest full recovery.

    The ``service`` section (written by ``benchmarks/perf/service_bench
    .py``) records a seeded FaultPlan injecting a worker crash, a hang
    (timeout-killed) and a transient exception into an 8-point sweep:
    every fault class must actually have fired, every job must have
    recovered (no quarantine), the final digest must be byte-identical
    to the fault-free straight-line run, and a re-run against the same
    store must have served every point from the content-addressed cache.
    """
    recorded = recorded_bench()
    digest = recorded.get("service")
    if digest is None:
        pytest.skip("no service digest recorded yet; run "
                    "benchmarks/perf/service_bench.py")
    assert digest["digest_identical"] is True, (
        "the recorded fault-injected sweep digest diverged from the "
        "straight-line run — the service's determinism guarantee is broken")
    counters = digest["counters"]
    assert counters["crashes"] >= 1, "recorded run never injected a crash"
    assert counters["timeouts"] >= 1, "recorded run never timeout-killed a hang"
    assert counters["transient_failures"] >= 1, (
        "recorded run never injected a transient failure")
    assert counters["retries"] >= 3, (
        "every injected fault must have cost (and recovered through) a retry")
    assert counters["quarantined"] == 0, (
        "the recorded fault plan is recoverable; nothing may be quarantined")
    assert digest["grid_points"] >= 8
    assert digest["rerun_cache_hit_rate"] == 1.0, (
        "re-running the identical grid must be served entirely from the "
        "content-addressed result store")


def test_fuzz_campaign_digest_is_healthy():
    """The recorded fixed-seed fuzz campaign must attest a healthy build.

    The ``fuzz`` section (written by ``benchmarks/perf/fuzz_bench.py``)
    records a fixed-seed scenario-fuzzer campaign run at two worker counts:
    the summaries must have been identical (the campaign is a pure function
    of the seed), a healthy build must have found zero translation-check
    violations and zero crashes, no scenario may have been quarantined, the generator must have
    actually explored (non-zero coverage on both maps), and the banked
    regression corpus must have replayed clean.
    """
    recorded = recorded_bench()
    digest = recorded.get("fuzz")
    if digest is None:
        pytest.skip("no fuzz digest recorded yet; run "
                    "benchmarks/perf/fuzz_bench.py")
    assert digest["deterministic_across_workers"] is True, (
        "the recorded fixed-seed campaign differed between worker counts — "
        "fuzz results are no longer reproducible from the seed")
    assert digest["violations"] == 0 and digest["crashes"] == 0, (
        "the recorded campaign caught stale translations; shrink and fix them "
        "(python -m repro.validation.fuzz), then re-record")
    assert digest["quarantined"] == 0
    assert digest["clean"] == digest["scenarios"] >= 10
    coverage = digest["coverage"]
    assert coverage["op_pair_backend"] > 0 and coverage["op_axis"] > 0, (
        "the recorded campaign explored no coverage — generator regression")
    assert coverage["op_pair_backend"] <= coverage["op_pair_backend_space"]
    corpus = digest["corpus"]
    assert corpus["failures"] == 0, (
        "banked reproducers failed again at record time — a fixed bug is back")
    assert corpus["skipped"] == 0, "committed corpus entries must all load"
    assert corpus["entries"] >= 1


def test_lint_digest_is_clean_and_baseline_never_grows():
    """The recorded lint run must attest a discipline-clean tree.

    The ``lint`` section (written by ``benchmarks/perf/lint_bench.py``)
    records one whole-program pass of the ten invariant rules over
    ``src/repro``: a healthy build has zero non-baselined findings, all
    ten rules must actually have run over the full package, the pass
    must fit the recorded scan-time budget, and the checked-in
    ``lint_baseline.json`` may never grow past the recorded size —
    grandfathered debt only shrinks, it is never added to.  The live
    baseline file is compared against the record, so a PR that baselines
    a new violation away fails here even if it also re-records.
    """
    recorded = recorded_bench()
    digest = recorded.get("lint")
    if digest is None:
        pytest.skip("no lint digest recorded yet; run "
                    "benchmarks/perf/lint_bench.py")
    assert digest["findings"] == 0, (
        "the recorded lint run had non-baselined findings; fix them or "
        "annotate with '# lint-allow: <rule> <why>' "
        "(python -m repro.analysis.lint)")
    assert digest["rules_run"] == [
        "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10"]
    assert digest["files_scanned"] >= 90, (
        "the lint scanned suspiciously few files — scope regression")
    assert digest["wall_seconds"] <= digest["scan_budget_seconds"], (
        "the recorded whole-program lint pass blew its scan-time budget — "
        "the lint must stay cheap enough to gate every push")
    assert digest["stale_baseline_entries"] == 0, (
        "the baseline lists violations that no longer exist; prune it "
        "(python -m repro.analysis.lint --update-baseline)")

    from repro.analysis.lint import load_baseline
    from repro.analysis.lint.__main__ import DEFAULT_BASELINE
    live_size = len(load_baseline(DEFAULT_BASELINE))
    assert live_size <= digest["baseline_size"], (
        f"lint_baseline.json grew from {digest['baseline_size']} to "
        f"{live_size} entries — new violations must be fixed or "
        f"pragma-annotated, never baselined away")


def test_server_soak_digest_attests_exactly_once():
    """The recorded server soak must attest distributed-systems health.

    The ``server`` section (written by ``benchmarks/perf/server_bench
    .py``) records a soak campaign of >= 4 concurrent clients submitting
    overlapping sweep slices to one experiment server under a seeded
    network fault plan, with the server SIGKILLed and restarted
    mid-campaign: at least one client connection must have been severed,
    at least one heartbeat silenced into a lease reclaim, every job must
    have completed exactly once across both server generations (journal
    audit), the merged digest must be byte-identical to the fault-free
    straight-line run, and the seeded sensitivity probe must show the
    reclaim fired *because* of the silenced heartbeat (control run clean).
    """
    recorded = recorded_bench()
    digest = recorded.get("server")
    if digest is None:
        pytest.skip("no server soak digest recorded yet; run "
                    "benchmarks/perf/server_bench.py")
    assert digest["clients"] >= 4, (
        "the soak must multiplex at least 4 concurrent clients")
    assert digest["digest_identical"] is True, (
        "the soaked campaign's merged digest diverged from the fault-free "
        "straight-line run — the server's determinism guarantee is broken")
    assert digest["exactly_once"] is True, (
        "a job completed more than once across server restarts — the "
        "journal/resubmit recovery loop double-ran work")
    assert digest["completions"] == digest["unique_keys"] >= digest["points"]
    assert digest["server_kills"] >= 1, (
        "the recorded soak never SIGKILLed the server mid-campaign")
    assert digest["lease_reclaims"] >= 1, (
        "the recorded soak never reclaimed a silent owner's lease")
    assert digest["client_disconnects"] >= 1, (
        "the recorded soak never severed a client connection")
    injected = digest["injected"]
    assert injected["drop_heartbeat"] >= 1 and injected["disconnect"] >= 1
    sensitivity = digest["sensitivity"]
    assert sensitivity["reclaim_fired"] is True, (
        "sensitivity probe: silencing the victim's heartbeat did not force "
        "a lease reclaim (or the control run reclaimed spuriously)")
    assert sensitivity["converged"] is True, (
        "sensitivity probe runs diverged from the straight-line digest")
    assert digest["journal_corrupt_lines"] == 0
    assert digest["errors"] == []

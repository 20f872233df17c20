"""The scenario fuzzer: generation, injection, oracle, shrinking, acceptance.

The heavyweight acceptance proofs live here too: a deliberately broken
invalidation path must be *found* by a seeded budget-bounded fuzz run —
the translation check trips at the first op or fault after the mutation —
*shrunk* to a minimal reproducer, and the banked entry must fail under the
broken build and pass under the fixed one; a fixed-seed campaign must be
deterministic across worker counts and resumable through the experiment
service after SIGKILL.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.common.rng import DeterministicRNG
from repro.core.instructions import OP_ALU, InstructionBatch
from repro.mimicos.kernel import MimicOS
from repro.validation import corpus, fuzz
from repro.validation.invariants import TranslationIncoherence
from repro.validation.fuzz import (
    CoverageMap,
    FuzzConfig,
    FuzzScenario,
    generate_scenarios,
    run_fuzz_scenario,
    scenario_key,
    shrink_scenario,
)
from repro.workloads.base import Workload
from repro.workloads.schedule import KernelOpSpec, OpSchedule, ScheduledWorkload
from tests.conftest import trip_after_first_stale_mutation

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Summary keys that legitimately vary run to run (host timing, cache hits).
VOLATILE_SUMMARY_KEYS = ("wall_seconds", "service")


def _stable(summary):
    return {key: value for key, value in summary.items()
            if key not in VOLATILE_SUMMARY_KEYS}


# --------------------------------------------------------------------- #
# DeterministicRNG snapshot/restore (satellite: RNG cursor capture)
# --------------------------------------------------------------------- #
class TestRNGSnapshot:
    def test_restore_replays_the_stream(self):
        rng = DeterministicRNG(3)
        for _ in range(7):
            rng.random()
        cursor = rng.snapshot()
        first = [rng.randint(0, 10 ** 9) for _ in range(20)]
        rng.restore(cursor)
        assert [rng.randint(0, 10 ** 9) for _ in range(20)] == first

    def test_snapshot_survives_json_round_trip_into_fresh_rng(self):
        rng = DeterministicRNG(99)
        rng.lognormvariate(0.0, 1.0)
        cursor = json.loads(json.dumps(rng.snapshot()))
        expected = [rng.random() for _ in range(10)]
        other = DeterministicRNG(0)  # different seed: state fully overwritten
        other.restore(cursor)
        assert [other.random() for _ in range(10)] == expected


# --------------------------------------------------------------------- #
# Schedule injection mechanics
# --------------------------------------------------------------------- #
class _FlatWorkload(Workload):
    """100 ALU instructions — a bare substrate for boundary tests."""

    name = "flat"

    def setup(self, kernel, process):
        pass

    def instruction_batches(self, process, batch_size=4096):
        for first in range(0, 100, batch_size):
            pcs = list(range(first, min(100, first + batch_size)))
            yield InstructionBatch([OP_ALU] * len(pcs), pcs, [None] * len(pcs))


class _Recorder:
    def __init__(self):
        self.applied = []

    def apply(self, spec, process):
        self.applied.append(spec)


class TestScheduledWorkload:
    def _schedule(self):
        return OpSchedule(ops=(KernelOpSpec("touch", 10, {"slot": 1}),
                               KernelOpSpec("collapse", 10, {}),
                               KernelOpSpec("reclaim", 37, {}),
                               KernelOpSpec("migrate", 400, {})))

    def test_instruction_sequence_is_unchanged_by_wrapping(self):
        wrapped = ScheduledWorkload(_FlatWorkload(), self._schedule())
        wrapped.bind(_Recorder())
        assert ([pc for batch in wrapped.instruction_batches(None, batch_size=16)
                 for pc in batch.pcs]
                == [pc for batch in _FlatWorkload().instruction_batches(None)
                    for pc in batch.pcs])

    def test_batch_boundaries_cut_exactly_at_op_offsets(self):
        recorder = _Recorder()
        wrapped = ScheduledWorkload(_FlatWorkload(), self._schedule())
        wrapped.bind(recorder)
        sizes = []
        fired_after = []  # instructions emitted before each op fired
        emitted = 0
        for batch in wrapped.instruction_batches(None, batch_size=16):
            while len(fired_after) < len(recorder.applied):
                fired_after.append(emitted)
            emitted += len(batch)
            sizes.append(len(batch))
        while len(fired_after) < len(recorder.applied):
            fired_after.append(emitted)
        assert sum(sizes) == 100
        # Ops at offset 10 and 37 fire when exactly 10 / 37 instructions
        # have been emitted ahead of them; the off-the-end op fires last.
        assert [spec.op for spec in recorder.applied] == [
            "touch", "collapse", "reclaim", "migrate"]
        assert fired_after == [10, 10, 37, 100]

    def test_chunks_stay_batch_size_long_between_op_offsets(self):
        wrapped = ScheduledWorkload(_FlatWorkload(), self._schedule())
        wrapped.bind(_Recorder())
        sizes = [len(batch)
                 for batch in wrapped.instruction_batches(None, batch_size=16)]
        # Extra cuts at offsets 10 and 37 only; full 16-long chunks elsewhere.
        assert sizes == [10, 16, 11, 16, 16, 16, 15]

    def test_unbound_executor_is_an_error(self):
        wrapped = ScheduledWorkload(_FlatWorkload(),
                                    OpSchedule(ops=(KernelOpSpec("mmap", 0, {}),)))
        with pytest.raises(RuntimeError, match="no executor bound"):
            list(wrapped.instruction_batches(None))


# --------------------------------------------------------------------- #
# Seeded generation and coverage guidance
# --------------------------------------------------------------------- #
class TestGeneration:
    def test_same_seed_same_scenarios_and_cursors(self):
        first = generate_scenarios(10, seed=5)
        second = generate_scenarios(10, seed=5)
        assert [(s.to_json(), cursor) for s, cursor in first] \
            == [(s.to_json(), cursor) for s, cursor in second]
        assert generate_scenarios(10, seed=6)[0][0] != first[0][0]

    def test_every_schedule_carries_a_mutator_and_respects_max_ops(self):
        for scenario, _cursor in generate_scenarios(30, seed=1, max_ops=5):
            ops = [spec.op for spec in scenario.schedule.ops]
            assert 2 <= len(ops) <= 5
            assert any(op in fuzz.MUTATOR_OPS for op in ops)
            assert ops[0] == "mmap"

    def test_scenarios_round_trip_through_json(self):
        for scenario, _cursor in generate_scenarios(5, seed=8):
            clone = FuzzScenario.from_json(json.loads(
                json.dumps(scenario.to_json())))
            assert clone == scenario
            assert scenario_key(clone) == scenario_key(scenario)

    def test_coverage_novelty_guides_selection(self):
        coverage = CoverageMap()
        scenario = generate_scenarios(1, seed=3)[0][0]
        before = coverage.novelty(scenario)
        assert before > 0
        coverage.observe(scenario)
        assert coverage.novelty(scenario) == 0
        stats = coverage.stats()
        assert stats["op_pair_backend"] > 0
        assert stats["op_axis"] > 0
        assert stats["op_pair_backend"] <= stats["op_pair_backend_space"]


# --------------------------------------------------------------------- #
# Shrinking (synthetic predicate: no simulation cost)
# --------------------------------------------------------------------- #
class TestShrinker:
    def test_minimises_ops_then_config_axes(self):
        ops = tuple(KernelOpSpec(op, offset, {}) for op, offset in
                    [("mmap", 10), ("touch", 20), ("reclaim", 30),
                     ("collapse", 40), ("munmap", 50)])
        scenario = FuzzScenario(
            config=FuzzConfig(backend="vbi", family="mix", cores=2,
                              thp=False, swap=True),
            schedule=OpSchedule(ops=ops))
        fails = lambda s: any(spec.op == "reclaim" for spec in s.schedule.ops)
        shrunk, checks = shrink_scenario(scenario, fails=fails)
        assert [spec.op for spec in shrunk.schedule.ops] == ["reclaim"]
        assert shrunk.config == FuzzConfig()  # every axis shrank to vanilla
        assert 0 < checks <= 60

    def test_respects_the_check_budget(self):
        ops = tuple(KernelOpSpec("touch", i, {}) for i in range(8))
        scenario = FuzzScenario(config=FuzzConfig(), schedule=OpSchedule(ops=ops))
        calls = []

        def fails(candidate):
            calls.append(candidate)
            return True

        shrunk, checks = shrink_scenario(scenario, fails=fails, max_checks=5)
        assert checks == 5
        assert len(calls) == 5
        assert len(shrunk.schedule.ops) < len(ops)


# --------------------------------------------------------------------- #
# The oracle end to end (healthy build)
# --------------------------------------------------------------------- #
class TestOracle:
    def test_scheduled_kernel_ops_keep_translations_coherent(self):
        ops = (KernelOpSpec("mmap", 40, {"pages": 96}),
               KernelOpSpec("touch", 150, {"slot": 0, "pages": 32, "stride": 1}),
               KernelOpSpec("collapse", 500, {"regions": 4}),
               KernelOpSpec("reclaim", 800, {"pages": 6}),
               KernelOpSpec("remap", 1000, {"slot": 0}),
               KernelOpSpec("migrate", 1200, {}))
        scenario = FuzzScenario(config=FuzzConfig(), schedule=OpSchedule(ops=ops))
        digest = run_fuzz_scenario(scenario.to_json())
        assert digest["outcome"] == "clean", digest["violation"]
        assert digest["violation"] is None and digest["crash"] is None
        assert digest["kernel_ops"]["reclaim.applied"] == 1

    def test_crash_is_classified_not_raised(self, monkeypatch):
        monkeypatch.setattr(fuzz, "_run_scenario",
                            lambda scenario: (_ for _ in ()).throw(
                                AssertionError("injected fault")))
        scenario = generate_scenarios(1, seed=2)[0][0]
        digest = run_fuzz_scenario(scenario.to_json())
        assert digest["outcome"] == "crash"
        assert digest["crash"] == {"type": "AssertionError",
                                   "message": "injected fault"}

    def test_violation_is_classified_with_the_entry(self, monkeypatch):
        violation = TranslationIncoherence(1, "l2", 0x7000, (0xA000, 4096), None)
        monkeypatch.setattr(fuzz, "_run_scenario",
                            lambda scenario: (_ for _ in ()).throw(violation))
        scenario = generate_scenarios(1, seed=2)[0][0]
        digest = run_fuzz_scenario(scenario.to_json())
        assert digest["outcome"] == "violation"
        assert digest["crash"] is None
        assert digest["violation"] == dict(violation.as_dict(), point=scenario.name)
        assert digest["violation"]["live"] is None


# --------------------------------------------------------------------- #
# Acceptance: sensitivity proof
# --------------------------------------------------------------------- #
class TestSensitivityProof:
    def test_broken_shootdown_is_found_shrunk_and_banked(self, monkeypatch, tmp_path):
        """With kernel TLB shootdowns deliberately unhooked (the PR 4
        harness-sensitivity toggle), a seeded budget-bounded fuzz run must
        find the stale translation, shrink it to <= 8 ops, and bank a
        reproducer that fails under the broken build and passes under the
        fixed one."""
        monkeypatch.setattr(MimicOS, "register_tlb_listener",
                            lambda self, listener: None)
        summary = fuzz.run_fuzz(budget=6, seed=2025, workers=2,
                                corpus_dir=tmp_path, bank=True)
        assert summary["violations"], (
            "fuzzer failed to find the stale TLB entry within budget")
        assert summary["reproducers"]
        entries, skipped = corpus.load_corpus(tmp_path)
        assert skipped == 0
        assert len(entries) == len(set(summary["reproducers"]))
        for _path, entry in entries:
            assert len(entry["scenario"]["ops"]) <= 8
            assert entry["violation"] is not None
            assert entry["rng_state"]  # generator cursor at schedule start
            # Still under the broken build: the reproducer must fail.
            assert fuzz.replay_entry(entry)["outcome"] == "violation"
        monkeypatch.undo()  # back to the fixed build
        for _path, entry in entries:
            assert fuzz.replay_entry(entry)["outcome"] == "clean"

    #: A virtualised scenario whose ops unmap guest pages and remap the
    #: host frames backing guest RAM.
    PROBE = FuzzScenario(
        config=FuzzConfig(backend="radix", family="gups", virtualized=True),
        schedule=OpSchedule(ops=(
            KernelOpSpec("mmap", 10, {"pages": 64}),
            KernelOpSpec("touch", 50, {"slot": 0, "pages": 48, "stride": 1}),
            KernelOpSpec("munmap", 300, {"slot": 0}),
            KernelOpSpec("host_remap", 500, {"pages": 16}))))

    @pytest.mark.parametrize("toggle", ["shootdown", "nested"])
    def test_break_probe_trips_at_the_first_check_after_the_mutation(
            self, monkeypatch, toggle):
        """``fuzz --break shootdown|nested``: the check must trip at the
        first op or fault after the first mutation that left a stale
        translation behind, and the healthy build runs the probe clean."""
        assert run_fuzz_scenario(self.PROBE.to_json())["outcome"] == "clean"
        undo = fuzz.apply_sensitivity_toggle(toggle)
        try:
            violation, stale_at, checks = trip_after_first_stale_mutation(
                monkeypatch, lambda: run_fuzz_scenario(self.PROBE.to_json())["violation"])
        finally:
            undo()
        assert violation is not None, f"--break {toggle} went unnoticed"
        assert checks == stale_at + 1
        assert violation["point"] == self.PROBE.name


class TestCLIExitCode:
    def test_quarantined_scenario_fails_the_campaign(self, monkeypatch):
        """A scenario whose worker died on every attempt has no verdict;
        the campaign must not pass on the rest."""
        summary = {"scenarios": 2, "clean": 1, "violations": [],
                   "crashes": [], "quarantined": 1, "wall_seconds": 0.1,
                   "coverage": {"op_pair_backend": 1, "op_axis": 1},
                   "reproducers": []}
        monkeypatch.setattr(fuzz, "run_fuzz", lambda **_kwargs: summary)
        assert fuzz.main(["--budget", "2", "--no-bank"]) == 1
        monkeypatch.setitem(summary, "quarantined", 0)
        assert fuzz.main(["--budget", "2", "--no-bank"]) == 0


# --------------------------------------------------------------------- #
# Acceptance: determinism and SIGKILL resume
# --------------------------------------------------------------------- #
class TestDeterminismAndResume:
    def test_fixed_seed_run_is_deterministic_across_worker_counts(self):
        first = fuzz.run_fuzz(budget=4, seed=31, workers=1, bank=False,
                              shrink=False)
        second = fuzz.run_fuzz(budget=4, seed=31, workers=2, bank=False,
                               shrink=False)
        assert _stable(first) == _stable(second)
        assert first["coverage"] == second["coverage"]
        assert first["reproducers"] == second["reproducers"]

    def test_campaign_resumes_from_store_after_sigkill(self, tmp_path):
        store = tmp_path / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                             + os.pathsep + env.get("PYTHONPATH", ""))
        command = [sys.executable, "-m", "repro.validation.fuzz",
                   "--budget", "4", "--seed", "31", "--workers", "1",
                   "--no-bank", "--no-shrink", "--store", str(store)]
        process = subprocess.Popen(command, env=env, cwd=str(REPO_ROOT),
                                   stdout=subprocess.DEVNULL,
                                   stderr=subprocess.DEVNULL)
        try:
            # Let at least one scenario land in the store, then SIGKILL.
            objects = store / "objects"
            deadline = time.time() + 90
            while time.time() < deadline:
                if objects.is_dir() and any(objects.glob("*/*.json")):
                    break
                if process.poll() is not None:
                    break
                time.sleep(0.1)
            completed_before_kill = (objects.is_dir()
                                     and any(objects.glob("*/*.json")))
            if process.poll() is None:
                os.kill(process.pid, signal.SIGKILL)
        finally:
            process.wait()
        resumed = fuzz.run_fuzz(budget=4, seed=31, workers=1, bank=False,
                                shrink=False, store_root=str(store))
        reference = fuzz.run_fuzz(budget=4, seed=31, workers=1, bank=False,
                                  shrink=False)
        assert _stable(resumed) == _stable(reference)
        if completed_before_kill:
            assert resumed["service"]["cache_hits"] >= 1

"""Tests for the invariant lint (``repro.analysis.lint``).

Each rule gets a positive (dirty fixture tree) and a negative (clean
fixture tree) case, the baseline workflow is exercised end-to-end
through the real CLI entry point, and two sensitivity tests run against
mutated copies of *real* source files — deleting the RMM range-lookaside
invalidation that PR 4 fixed, and deleting the cross-module edge that
covers a caller-holds-contract mutator — so the rules are proven against
the real bugs, not just toy fixtures.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.lint import (
    AsyncSafetyRule,
    DeterminismRule,
    DurabilityRule,
    ForkHygieneRule,
    InvalidationRule,
    JournalOrderingRule,
    ParitySurfaceRule,
    ProtocolSymmetryRule,
    RepoIndex,
    ResourceLifecycleRule,
    SeedFlowRule,
    default_rules,
    load_baseline,
    run_rules,
    save_baseline,
    split_findings,
)
from repro.analysis.lint.__main__ import PACKAGE_ROOT, main

FIXTURES = Path(__file__).parent / "lint_fixtures"
DIRTY = FIXTURES / "dirty"
CLEAN = FIXTURES / "clean"
XMODULE = FIXTURES / "xmodule"


def lint_tree(root, rule):
    """Run one rule over a fixture tree; returns (findings, suppressed)."""
    report = run_rules(RepoIndex.build(root), [rule()])
    return report.findings, report.suppressed


def keys(findings):
    return {(f.rule, f.path, f.symbol, f.detail) for f in findings}


# --------------------------------------------------------------------- #
# R1 determinism
# --------------------------------------------------------------------- #
def test_r1_flags_every_violation_shape():
    findings, _ = lint_tree(DIRTY, DeterminismRule)
    got = keys(findings)
    assert ("R1", "core/model.py", "schedule_jitter", "random.random") in got
    assert ("R1", "core/model.py", "pick_victim", "random.choice") in got
    assert ("R1", "core/model.py", "stamp", "time.time") in got
    assert ("R1", "core/model.py", "identity_key", "hash(id())") in got
    # The seeded constructor is never flagged.
    assert not any(f.symbol == "seeded_ok" for f in findings)


def test_r1_clean_tree_is_clean():
    findings, _ = lint_tree(CLEAN, DeterminismRule)
    assert findings == []


# --------------------------------------------------------------------- #
# R2 invalidation
# --------------------------------------------------------------------- #
def test_r2_owned_cache_and_broadcast_positives():
    findings, suppressed = lint_tree(DIRTY, InvalidationRule)
    got = keys(findings)
    assert ("R2", "pagetables/table.py", "Table.remove_mapping",
            "stale-cache:cache") in got
    assert ("R2", "mimicos/kernel.py", "Kernel.munmap", "no-shootdown") in got
    # The pragma-annotated sibling is suppressed, not reported.
    assert any(f.symbol == "Bookkeeper.munmap" for f in suppressed)
    assert not any(f.symbol == "Bookkeeper.munmap" for f in findings)


def test_r2_clean_tree_accepts_all_witness_shapes():
    # Direct call, transitive call and cache rebuild.
    findings, _ = lint_tree(CLEAN, InvalidationRule)
    assert findings == []


def test_r2_detects_removed_rmm_invalidation(tmp_path):
    """Deleting the PR 4 RLB invalidation from the real source fires R2."""
    source = (PACKAGE_ROOT / "pagetables" / "rmm.py").read_text()
    assert "self.rlb.invalidate(entry.virtual_start)" in source
    target = tmp_path / "pagetables" / "rmm.py"
    target.parent.mkdir(parents=True)

    # Unmodified copy: clean.
    target.write_text(source)
    findings, _ = lint_tree(tmp_path, InvalidationRule)
    assert not any(f.symbol.endswith("_remove_structure") for f in findings)

    # Re-introduce the bug: the mutation no longer reaches the RLB.
    target.write_text(source.replace(
        "self.rlb.invalidate(entry.virtual_start)", "pass"))
    findings, _ = lint_tree(tmp_path, InvalidationRule)
    hits = [f for f in findings if f.symbol.endswith("_remove_structure")]
    assert hits and hits[0].rule == "R2"
    assert "rlb" in hits[0].detail


# --------------------------------------------------------------------- #
# R3 durability
# --------------------------------------------------------------------- #
def test_r3_flags_bare_writes():
    findings, _ = lint_tree(DIRTY, DurabilityRule)
    got = keys(findings)
    assert ("R3", "experiments/writer.py", "save_digest", "open-write") in got
    assert ("R3", "experiments/writer.py", "save_plan", "write_text") in got


def test_r3_accepts_inlined_replace_and_reads():
    findings, _ = lint_tree(CLEAN, DurabilityRule)
    assert findings == []


# --------------------------------------------------------------------- #
# R4 async safety
# --------------------------------------------------------------------- #
def test_r4_flags_blocking_call():
    findings, _ = lint_tree(DIRTY, AsyncSafetyRule)
    got = keys(findings)
    assert ("R4", "experiments/server.py", "handle_client",
            "blocking:time.sleep") in got


def test_r4_clean_tree_is_clean():
    findings, _ = lint_tree(CLEAN, AsyncSafetyRule)
    assert findings == []


# --------------------------------------------------------------------- #
# R5 parity surface
# --------------------------------------------------------------------- #
def test_r5_flags_orphan_read():
    findings, _ = lint_tree(DIRTY, ParitySurfaceRule)
    got = keys(findings)
    assert ("R5", "core/engine.py", "build_report",
            "orphan:page_walks_typo") in got
    # A total no ``part_of`` names is not written by its parts' cells.
    assert ("R5", "core/engine.py", "build_report", "orphan:stores") in got


def test_r5_clean_tree_is_clean():
    findings, _ = lint_tree(CLEAN, ParitySurfaceRule)
    assert findings == []


# --------------------------------------------------------------------- #
# Whole-program graph: the two-module invalidation chain
# --------------------------------------------------------------------- #
def test_xmodule_chain_passes_whole_program_but_not_intra_module():
    """The caller-holds-contract shape the three deleted pragmas covered.

    Module A's mutator has no witness of its own; module B's kernel
    broadcasts the shootdown and delegates across the import boundary.
    A graph confined to one module cannot see that edge; the
    whole-program graph has it and proves the coverage.
    """
    index = RepoIndex.build(XMODULE)
    global_edges = index.global_graph()[("mimicos/kernel.py", "Kernel.munmap")]
    assert ("mimicos/bookkeep.py", "Bookkeeper.munmap") in global_edges
    # And the rule accepts the chain with no pragma anywhere.
    findings, suppressed = lint_tree(XMODULE, InvalidationRule)
    assert findings == [] and suppressed == []


def test_xmodule_chain_sensitivity_deleting_the_cross_module_edge(tmp_path):
    """Severing the delegation edge re-exposes the uncovered mutator."""
    root = tmp_path / "tree"
    shutil.copytree(XMODULE, root)
    kernel = root / "mimicos" / "kernel.py"
    source = kernel.read_text()
    assert "self.books.munmap(vma)" in source
    kernel.write_text(source.replace("self.books.munmap(vma)", "pass"))
    findings, _ = lint_tree(root, InvalidationRule)
    assert ("R2", "mimicos/bookkeep.py", "Bookkeeper.munmap",
            "no-shootdown") in keys(findings)


def test_real_tree_proves_the_deleted_caller_holds_contract_pragmas():
    """The three PR 9 pragma sites are provably clean, pragma-free.

    ``VMAManager.munmap`` ← ``Process.munmap`` ← ``MimicOS.munmap``
    (which broadcasts), and ``SwapSubsystem.swap_out`` ← the kernel
    reclaim sites: whole-program caller coverage, no annotations.
    """
    for relpath in ("mimicos/vma.py", "mimicos/process.py",
                    "mimicos/swap.py"):
        assert "lint-allow: R2" not in (PACKAGE_ROOT / relpath).read_text()
    index = RepoIndex.build(PACKAGE_ROOT)
    report = run_rules(index, [InvalidationRule()])
    mutators = {f.symbol for f in report.findings + report.suppressed}
    assert "VMAManager.munmap" not in mutators
    assert "Process.munmap" not in mutators
    assert "SwapSubsystem.swap_out" not in mutators


# --------------------------------------------------------------------- #
# R6 seed flow
# --------------------------------------------------------------------- #
def test_r6_flags_missing_and_literal_seeds():
    findings, _ = lint_tree(DIRTY, SeedFlowRule)
    got = keys(findings)
    assert ("R6", "core/rng_use.py", "default_stream",
            "seed-missing:DeterministicRNG") in got
    assert ("R6", "core/rng_use.py", "baked_stream",
            "seed-literal:DeterministicRNG=42") in got


def test_r6_accepts_derived_opaque_and_pragmad_seeds():
    findings, suppressed = lint_tree(CLEAN, SeedFlowRule)
    assert findings == []
    # The documented fallback is suppressed by its pragma, not silent.
    assert any(f.symbol == "documented_fallback" for f in suppressed)


# --------------------------------------------------------------------- #
# R7 journal/store ordering
# --------------------------------------------------------------------- #
def test_r7_flags_journal_first_and_silent_quarantine():
    findings, _ = lint_tree(DIRTY, JournalOrderingRule)
    got = keys(findings)
    assert ("R7", "experiments/queue.py", "complete",
            "journal-before-store") in got
    assert ("R7", "experiments/queue.py", "quarantine_job",
            "unjournaled-failure-exit") in got


def test_r7_accepts_store_first_and_journaled_quarantine():
    findings, _ = lint_tree(CLEAN, JournalOrderingRule)
    assert findings == []


# --------------------------------------------------------------------- #
# R8 protocol symmetry
# --------------------------------------------------------------------- #
def test_r8_flags_every_drift_direction():
    findings, _ = lint_tree(DIRTY, ProtocolSymmetryRule)
    got = keys(findings)
    assert ("R8", "experiments/proto.py", "VERBS",
            "no-server-handler:fetch") in got
    assert ("R8", "experiments/proto.py", "VERBS",
            "no-client-method:fetch") in got
    assert ("R8", "experiments/proto.py", "dispatch",
            "undeclared-verb:legacy") in got
    assert ("R8", "experiments/proto.py", "Client.legacy",
            "undeclared-verb:legacy") in got
    assert ("R8", "experiments/proto.py", "Client.ping",
            "no-error-path:ping") in got
    assert ("R8", "experiments/proto.py", "dispatch",
            "no-unknown-verb-fallback") in got


def test_r8_clean_surface_is_symmetric():
    findings, _ = lint_tree(CLEAN, ProtocolSymmetryRule)
    assert findings == []


# --------------------------------------------------------------------- #
# R9 resource lifecycle
# --------------------------------------------------------------------- #
def test_r9_flags_bare_acquisitions():
    findings, _ = lint_tree(DIRTY, ResourceLifecycleRule)
    got = keys(findings)
    assert ("R9", "experiments/pool.py", "probe",
            "leak:socket.create_connection") in got
    assert ("R9", "experiments/pool.py", "fan_out",
            "leak:multiprocessing.Pool") in got


def test_r9_accepts_every_release_shape():
    # with, try/finally, return-transfer and self-escape all pass.
    findings, _ = lint_tree(CLEAN, ResourceLifecycleRule)
    assert findings == []


# --------------------------------------------------------------------- #
# R10 fork hygiene (whole-program)
# --------------------------------------------------------------------- #
def test_r10_flags_unhygienic_entry_and_kept_fd():
    findings, _ = lint_tree(DIRTY, ForkHygieneRule)
    got = keys(findings)
    # An entry that never detaches the parent's signal plumbing.
    assert ("R10", "experiments/server.py", "spawn",
            "fork-hygiene:_worker_entry:signal.set_wakeup_fd,signal.signal"
            ) in got
    # Signal-hygienic entry that keeps the inherited listening fd.
    assert ("R10", "experiments/forker.py", "launch",
            "fork-fd-close:_entry") in got


def test_r10_clean_tree_is_clean():
    findings, _ = lint_tree(CLEAN, ForkHygieneRule)
    assert findings == []


# --------------------------------------------------------------------- #
# CLI surface added in PR 10
# --------------------------------------------------------------------- #
def test_rules_csv_selection(tmp_path):
    out = tmp_path / "report.json"
    main(["--root", str(DIRTY), "--no-baseline", "--rules", "R3,R6",
          "--json", str(out)])
    payload = json.loads(out.read_text())
    assert set(payload["by_rule"]) == {"R3", "R6"}
    assert payload["rules_run"] == ["R3", "R6"]


def test_rules_csv_unknown_id_is_usage_error():
    assert main(["--root", str(DIRTY), "--no-baseline",
                 "--rules", "R3,R99"]) == 2


def test_format_json_emits_machine_report(capsys):
    code = main(["--root", str(CLEAN), "--no-baseline", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == 0
    assert payload["rules_run"] == [r.rule_id for r in default_rules()]
    assert payload["wall_seconds"] >= 0
    assert payload["new_findings"] == []


def test_summary_reports_wall_clock_and_per_rule_counts(capsys):
    main(["--root", str(DIRTY), "--no-baseline"])
    out = capsys.readouterr().out
    assert "[per-rule " in out and "R3:2" in out
    assert out.rstrip().endswith("s")  # "... in 0.12s"


# --------------------------------------------------------------------- #
# Baseline workflow (through the real CLI)
# --------------------------------------------------------------------- #
def test_baseline_round_trip(tmp_path):
    root = tmp_path / "tree"
    shutil.copytree(DIRTY, root)
    baseline = tmp_path / "baseline.json"

    # New findings, no baseline: fail.
    assert main(["--root", str(root), "--baseline", str(baseline)]) == 1

    # Grandfather them; the same scan is now clean.
    assert main(["--root", str(root), "--baseline", str(baseline),
                 "--update-baseline"]) == 0
    assert main(["--root", str(root), "--baseline", str(baseline)]) == 0

    # Baseline keys are line-independent: shifting every finding down a
    # few lines must not churn the grandfather list.
    model = root / "core" / "model.py"
    model.write_text("# shifted\n# shifted\n# shifted\n" + model.read_text())
    assert main(["--root", str(root), "--baseline", str(baseline)]) == 0

    # Remove the baseline: the findings are new again.
    baseline.unlink()
    assert main(["--root", str(root), "--baseline", str(baseline)]) == 1


def test_baseline_reports_stale_entries(tmp_path):
    root = tmp_path / "tree"
    shutil.copytree(DIRTY, root)
    baseline = tmp_path / "baseline.json"
    assert main(["--root", str(root), "--baseline", str(baseline),
                 "--update-baseline"]) == 0

    # Fix one violation: its baseline entry goes stale, exit stays 0.
    shutil.copy(CLEAN / "experiments" / "writer.py",
                root / "experiments" / "writer.py")
    out = tmp_path / "report.json"
    assert main(["--root", str(root), "--baseline", str(baseline),
                 "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["findings"] == 0
    assert payload["stale_baseline_entries"] == 2  # both writer.py findings


def test_baseline_split_round_trips_through_disk(tmp_path):
    report = run_rules(RepoIndex.build(DIRTY), default_rules())
    path = tmp_path / "baseline.json"
    save_baseline(path, report.findings)
    loaded = load_baseline(path)
    new, baselined, stale = split_findings(report.findings, loaded)
    assert new == [] and stale == []
    assert len(baselined) == len(report.findings)


def test_unknown_rule_id_is_a_usage_error(tmp_path):
    assert main(["--root", str(DIRTY), "--no-baseline", "--rule", "R99"]) == 2


def test_rule_filter_runs_only_selected_rule(tmp_path):
    out = tmp_path / "report.json"
    main(["--root", str(DIRTY), "--no-baseline", "--rule", "R3",
          "--json", str(out)])
    payload = json.loads(out.read_text())
    assert set(payload["by_rule"]) == {"R3"}


# --------------------------------------------------------------------- #
# The repo itself
# --------------------------------------------------------------------- #
def test_repo_lints_clean_against_checked_in_baseline():
    """The tree at HEAD has no non-baselined findings (the CI contract)."""
    assert main([]) == 0


def test_all_rules_have_distinct_ids_and_descriptions():
    rules = default_rules()
    assert len({rule.rule_id for rule in rules}) == len(rules) == 10
    assert all(rule.description for rule in rules)

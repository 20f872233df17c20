"""Tier-1 parity sampler plus the page-table-zoo smoke tests.

Five families:

* sampled parity matrix — a seeded ~40-point subset of the full lattice
  (every page-table design x workload family x cores x THP/swap toggles)
  must run with every translation check clean and reproduce its
  checked-in ``stats_sha256`` record;
* the record — it covers exactly the lattice, and the CLI fails on a
  record mismatch or a check violation;
* harness sensitivity — with the kernel's TLB-shootdown wiring (or the
  nested invalidation) disabled, the translation check must trip at the
  first check after the mutation that left a stale entry, naming it;
* stale-translation regression — swapping a page out must make the next
  access fault, reproducing the statistics recorded when a per-object
  reference engine still ran;
* zoo smoke — every factory-registered design survives a
  fault-allocate-translate-remove cycle, and the fallback page-table-frame
  allocator can never alias simulated physical memory.
"""

import json

import pytest

from repro.common.addresses import FALLBACK_FRAME_BASE, GB, MB, PAGE_SIZE_4K, align_down, page_number
from repro.common.config import PageTableConfig
from repro.core.virtuoso import Virtuoso, build_report
from repro.mimicos.kernel import MimicOS
from repro.mmu.mmu import MMU
from repro.pagetables.base import _BumpFrameAllocator
from repro.pagetables.factory import build_page_table, registered_kinds
from repro.validation import parity as parity_module
from repro.validation.parity import (
    MIN_VIRTUALIZED_SAMPLE,
    ParityPoint,
    full_lattice,
    load_record,
    record_mismatch,
    run_parity_point,
    sample_lattice,
    virtualized_lattice,
)
from tests.conftest import (
    FlatMemory,
    assert_report_digest,
    tiny_mimicos_config,
    tiny_system_config,
    trip_after_first_stale_mutation,
)

#: Size of the always-on sampled subset (the full lattice is the CLI's job).
SAMPLE_SIZE = 40


class TestLattice:
    def test_full_lattice_covers_every_design_and_toggle(self):
        points = full_lattice()
        kinds = {point.page_table_kind for point in points}
        assert kinds == set(registered_kinds())
        assert {point.cores for point in points} == {1, 2}
        assert {point.thp for point in points} == {True, False}
        assert {point.swap_pressure for point in points} == {True, False}

    def test_sample_is_deterministic_and_covers_every_design(self):
        first = sample_lattice(SAMPLE_SIZE)
        second = sample_lattice(SAMPLE_SIZE)
        assert first == second
        assert len(first) == SAMPLE_SIZE
        assert {p.page_table_kind for p in first} == set(registered_kinds())
        # A different seed picks a different subset (it really is sampling).
        assert sample_lattice(SAMPLE_SIZE, seed=1) != first

    def test_virtualized_axis_covers_guest_and_host_backends(self):
        from repro.pagetables.factory import nested_capable_kinds

        points = virtualized_lattice()
        assert all(point.virtualized for point in points)
        capable = set(nested_capable_kinds())
        # Host-backend sweep (guest radix over every walk-capable host) and
        # guest-backend sweep (every walk-capable guest over a radix host).
        assert {p.page_table_kind for p in points} == capable
        assert {p.guest_kind for p in points} == capable
        # Intermediate-address schemes never reach the nested walker.
        assert "midgard" not in capable and "vbi" not in capable
        # Feature toggles: guest THP off, host swap pressure, multi-core.
        assert any(not p.thp for p in points)
        assert any(p.swap_pressure for p in points)
        assert any(p.cores > 1 for p in points)
        # The virtualization slice is part of the full lattice.
        full = full_lattice()
        assert all(point in full for point in points)

    def test_sample_always_includes_virtualized_points(self):
        for seed in (2025, 1, 77):
            sample = sample_lattice(SAMPLE_SIZE, seed=seed)
            virtualized = [p for p in sample if p.virtualized]
            assert len(virtualized) >= MIN_VIRTUALIZED_SAMPLE, (
                f"seed {seed}: sampled only {len(virtualized)} virtualized "
                f"points, need >= {MIN_VIRTUALIZED_SAMPLE}")


class TestSampledParityMatrix:
    """The always-on gate: every sampled point checks clean and matches
    its record."""

    @pytest.mark.parametrize("point", sample_lattice(SAMPLE_SIZE),
                             ids=lambda point: point.name)
    def test_point_is_coherent_and_matches_record(self, point):
        digest = run_parity_point(point)
        assert digest["violation"] is None, digest["violation"]
        assert record_mismatch(digest, load_record()) is None
        assert digest["fields"] > 50  # a real report, not a stub


class TestRecord:
    def test_record_covers_exactly_the_lattice(self):
        record = load_record()
        assert sorted(record) == sorted(point.name for point in full_lattice())
        assert all(len(sha) == 64 for sha in record.values())

    def test_record_is_rebuilt_from_a_full_summary(self, tmp_path):
        summary = tmp_path / "full.json"
        summary.write_text(json.dumps({"results": [
            {"point": "b/gups", "stats_sha256": "2" * 64},
            {"point": "a/gups", "stats_sha256": "1" * 64}]}))
        record = tmp_path / "record.json"
        parity_module.write_record(str(summary), record)
        assert load_record(record) == {"a/gups": "1" * 64, "b/gups": "2" * 64}
        assert json.loads(record.read_text())["schema"] == "parity_record/v1"

    def test_cli_fails_on_a_record_mismatch(self, monkeypatch, tmp_path):
        point = ParityPoint("radix", "gups")
        monkeypatch.setattr(parity_module, "sample_lattice",
                            lambda _size, _seed: [point])
        monkeypatch.setattr(parity_module, "load_record",
                            lambda: {point.name: "0" * 64})
        out = tmp_path / "summary.json"
        assert parity_module.main(["--workers", "1", "--json", str(out)]) == 1
        summary = json.loads(out.read_text())
        [mismatch] = summary["mismatches"]
        assert mismatch["point"] == point.name
        assert mismatch["recorded"] == "0" * 64
        assert mismatch["measured"] == load_record()[point.name]
        assert summary["matching"] == 0 and summary["violations"] == []

    def test_cli_fails_on_a_check_violation(self, monkeypatch, tmp_path):
        monkeypatch.setattr(MimicOS, "register_tlb_listener",
                            lambda self, listener: None)
        point = ParityPoint("radix", "llm")
        monkeypatch.setattr(parity_module, "sample_lattice",
                            lambda _size, _seed: [point])
        out = tmp_path / "summary.json"
        assert parity_module.main(["--workers", "1", "--json", str(out)]) == 1
        summary = json.loads(out.read_text())
        [violation] = summary["violations"]
        assert violation["point"] == point.name
        assert summary["mismatches"] == [] and summary["matching"] == 0


class TestQuarantinedPoints:
    def test_point_failing_in_the_worker_fails_the_cli(self, monkeypatch,
                                                       tmp_path):
        """A point whose worker raises on every attempt is quarantined:
        it is reported under ``failed_points`` and the CLI exits 1 even
        though no point diverged."""
        good = ParityPoint("radix", "gups")
        bad = ParityPoint("no-such-design", "gups")
        monkeypatch.setattr(parity_module, "sample_lattice",
                            lambda _size, _seed: [good, bad])
        out = tmp_path / "summary.json"
        code = parity_module.main(["--workers", "2", "--json", str(out)])
        summary = json.loads(out.read_text())
        assert code == 1
        assert summary["mismatches"] == [] and summary["violations"] == []
        assert summary["matching"] == summary["points"] == 1
        [failed] = summary["failed_points"]
        assert failed["name"] == bad.name
        assert failed["reason"] == "error"
        assert "no-such-design" in failed["traceback"]


class TestStatsDigest:
    """``stats_sha256`` lets two commits' ``--full --json`` summaries be
    compared point by point."""

    POINT = ParityPoint("radix", "gups")

    def test_one_point_hashes_alike_on_two_runs(self):
        first = run_parity_point(self.POINT)["stats_sha256"]
        assert len(first) == 64
        assert run_parity_point(self.POINT)["stats_sha256"] == first

    def test_hash_moves_with_a_perturbed_reported_stat(self, monkeypatch):
        clean = run_parity_point(self.POINT)["stats_sha256"]
        import repro.core.virtuoso as virtuoso

        original = virtuoso.build_report

        def perturbed(*args, **kwargs):
            report = original(*args, **kwargs)
            report.page_walks += 1
            return report

        monkeypatch.setattr(virtuoso, "build_report", perturbed)
        digest = run_parity_point(self.POINT)
        assert digest["stats_sha256"] != clean
        # ...and the record catches it.
        assert record_mismatch(digest, load_record()) == {
            "point": self.POINT.name, "recorded": clean,
            "measured": digest["stats_sha256"]}


class TestHarnessSensitivity:
    def test_trips_when_shootdown_disabled(self, monkeypatch):
        """Re-create the pre-fix tree (no kernel TLB shootdowns): the check
        must trip at the first check after the first unmap it missed,
        naming the stale entry."""
        monkeypatch.setattr(MimicOS, "register_tlb_listener",
                            lambda self, listener: None)
        point = ParityPoint("radix", "llm", thp=True)
        violation, stale_at, checks = trip_after_first_stale_mutation(
            monkeypatch, lambda: run_parity_point(point)["violation"])
        assert violation is not None, "the check missed the stale TLB entry"
        assert checks == stale_at + 1
        assert violation["point"] == "radix/llm/c1/thp=on/swap=off"
        assert violation["core"] == 0
        assert violation["structure"] in ("l1i", "l1d_4k", "l1d_2m", "l2")
        assert violation["cached"] != violation["live"]
        assert f"{violation['virtual_address']:#x}" in violation["message"]

    def test_trips_when_nested_invalidation_disabled(self, monkeypatch):
        """Re-create the pre-fix nested path (stale nested-TLB entries
        survive guest collapses and hypervisor remaps): the check must trip
        at the first check after the remap, on the virtualised
        guest-collapse point."""
        from repro.mmu.nested import NestedTranslationUnit

        monkeypatch.setattr(NestedTranslationUnit, "invalidate",
                            lambda self, guest_virtual, size=0: None)
        monkeypatch.setattr(NestedTranslationUnit, "flush", lambda self: None)
        monkeypatch.setattr(MMU, "invalidate_nested_translations",
                            lambda self: None)
        point = ParityPoint("radix", "guestmix", virtualized=True)
        violation, stale_at, checks = trip_after_first_stale_mutation(
            monkeypatch, lambda: run_parity_point(point)["violation"])
        assert violation is not None, "the check missed the stale nested entry"
        assert checks == stale_at + 1
        assert violation["point"] == point.name
        assert violation["cached"] != violation["live"]


class TestOverlappingRangeDigest:
    """RMM's eager paging used to grow a block over the next live range on
    this point, so a few RLB lookups matched two ranges that translate one
    page to two frames.  A block now stops at the next live range or mapped
    page; the recorded report pins that."""

    POINT = ParityPoint("rmm", "llm", thp=True)
    #: Recorded when eager blocks stopped overlapping live ranges (the
    #: report with overlaps was ccce81a3...).
    RECORDED_DIGEST = "fe38ddf3a815df7850948b267ffcebef52ff6ce49b341caf94be0643c6029270"

    def test_report_matches_recorded_digest(self):
        assert self.POINT.name == "rmm/llm/c1/thp=on/swap=off"
        assert_report_digest(parity_module._run(self.POINT), self.RECORDED_DIGEST)


def _swap_out_page(system: Virtuoso, pid: int, virtual_base: int) -> None:
    """Do exactly what kswapd reclaim does to one resident 4 KB page:
    swap it out, unmap it and shoot the translation down."""
    kernel = system.kernel
    kernel.swap.swap_out(pid, page_number(virtual_base))
    kernel.processes[pid].page_table.remove(virtual_base)
    kernel.tlb_shootdown(pid, virtual_base)


class TestSwapOutStaleTranslationRegression:
    """A swapped-out page must fault on its next access."""

    #: Report digest of the sequence, recorded when a per-object reference
    #: engine still ran beside the batch engine (both produced it).
    RECORDED_DIGEST = "163b3b741d5b5b1dd46dd2d8b8f47231c2b90476a2f871f7a83d5791e2f1240a"

    def run(self):
        system = Virtuoso(tiny_system_config(), seed=7)
        process = system.create_process("swap-victim")
        vma = system.kernel.mmap(process, 1 * MB)
        system.activate_process(process)
        address = vma.start + 0x1000

        access = system.mmu.access_data_fast
        # Fault the page in, then touch it twice more: both are in-place
        # L1 data-TLB hits.
        assert access(address)[2]   # page fault
        access(address)
        access(address)
        assert system.mmu.fast_hits == 2

        _swap_out_page(system, process.pid, align_down(address, PAGE_SIZE_4K))

        _, _, page_fault, _, _ = access(address)
        return system, page_fault

    def test_next_access_faults_and_matches_recorded_digest(self):
        system, page_fault = self.run()

        # The unmapped page faults again (major: it comes back from swap).
        assert page_fault
        assert system.kernel.swap.counters.get("swap_ins") == 1

        # And every simulated statistic of the sequence is the recorded one.
        report = build_report("swap-victim", 0.0, config=system.config,
                              core=system.core, mmu=system.mmu, tlbs=system.tlbs,
                              memory=system.memory, kernel=system.kernel,
                              coupling=system.coupling)
        assert_report_digest(report, self.RECORDED_DIGEST)

    def test_shootdown_reaches_only_the_matching_context(self):
        """The per-core IPI filter: a shootdown for another pid must leave
        the current context's TLB entries alone."""
        config = tiny_system_config()
        system = Virtuoso(config, seed=7)
        process = system.create_process("current")
        vma = system.kernel.mmap(process, 1 * MB)
        system.activate_process(process)
        address = vma.start + 0x1000
        system.mmu.access_data(address)   # fault in + fill TLBs
        system.mmu.access_data(address)   # L1 hit
        hits_before = system.tlbs.l1d_4k.counters.get("hits")

        system.kernel.tlb_shootdown(process.pid + 999, address)
        system.mmu.access_data(address)
        assert system.tlbs.l1d_4k.counters.get("hits") == hits_before + 1

        system.kernel.tlb_shootdown(process.pid, address)
        misses = system.mmu.counters.get("tlb_misses")
        system.mmu.access_data(address)
        assert system.mmu.counters.get("tlb_misses") == misses + 1


class TestPageTableZooSmoke:
    """Every registered design: fault -> allocate -> translate -> remove."""

    @pytest.mark.parametrize("kind", registered_kinds())
    def test_fault_allocate_translate_remove_cycle(self, kind):
        kernel = MimicOS(tiny_mimicos_config(), PageTableConfig(kind=kind))
        process = kernel.create_process(f"zoo-{kind}")
        vma = kernel.mmap(process, 4 * MB)
        address = vma.start + 0x3000

        result = kernel.handle_page_fault(process.pid, address)
        assert not result.segfault
        assert result.page_size >= PAGE_SIZE_4K

        table = process.page_table
        mapping = table.lookup(address)
        assert mapping is not None
        physical_base, page_size = mapping
        functional = table.translate_functional(address)
        assert functional is not None
        assert functional == physical_base + (address - align_down(address, page_size))
        assert page_size in table.active_page_sizes()

        if not table.replaces_tlbs:
            walk = table.walk(address, FlatMemory())
            assert walk.found
            assert walk.physical_base == physical_base
            assert walk.page_size == page_size

        assert table.remove(address)
        assert table.lookup(address) is None
        assert table.translate_functional(address) is None
        if not table.replaces_tlbs:
            assert not table.walk(address, FlatMemory()).found

    @pytest.mark.parametrize("kind", registered_kinds())
    def test_standalone_factory_instantiation(self, kind):
        """No kernel at all: the factory's fallback frame allocator serves
        page-table frames from outside simulated physical memory."""
        table = build_page_table(PageTableConfig(kind=kind),
                                 physical_memory_bytes=1 * GB)
        table.insert(0x4000, 0x7000, PAGE_SIZE_4K)
        assert table.lookup(0x4000) == (align_down(0x7000, PAGE_SIZE_4K), PAGE_SIZE_4K)
        assert table.remove(0x4000)
        assert table.active_page_sizes() == ()


class TestBumpFrameAllocator:
    def test_fallback_frames_sit_above_physical_memory(self):
        allocator = _BumpFrameAllocator(physical_memory_bytes=256 * GB)
        frame = allocator()
        assert frame >= FALLBACK_FRAME_BASE
        assert frame >= 256 * GB
        assert allocator() == frame + PAGE_SIZE_4K

    def test_aliasing_base_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="alias"):
            _BumpFrameAllocator(base=1 << 30, physical_memory_bytes=4 * GB)
        with pytest.raises(ValueError, match="alias"):
            _BumpFrameAllocator(physical_memory_bytes=(FALLBACK_FRAME_BASE) * 2)

"""Differential oracle for the translation path: TLBs, radix walk and PWCs.

``ReferenceMMU`` is a plain model of what the docstrings of
:mod:`repro.mmu.mmu`, :mod:`repro.mmu.tlb` and :mod:`repro.pagetables.radix`
promise, written with lists and dicts only (no :mod:`repro.common.lru`):

* an L1 instruction TLB that only shootdowns and flushes reach, split L1
  data TLBs for 4 KB and 2 MB pages probed 4 KB first at the 4 KB TLB's
  latency, and a unified L2 TLB that also holds 1 GB translations and is
  probed 4 KB, 2 MB, 1 GB; every set is a list in recency order, oldest
  first, and an L2 hit is copied into the L1 TLB for its page size;
* a 4-level radix tree walked from the deepest page-walk cache that hits
  (PMD, PUD, then PGD; all probed in parallel), one PTW memory access per
  level, leaves checked before children, and on a leaf the PGD, PUD and PMD
  caches filled down to the resolved depth, a fill of a cached tag making it
  the most recently used;
* a TLB miss walks, a fault goes to the OS callback, a handled fault walks
  again, and the translation is filled into the L2 and L1 TLBs.

Seeded streams of data accesses, 4 KB/2 MB/1 GB inserts, removals,
``invalidate_translation`` shootdowns, flushes and faults through a stub
callback drive it and a real ``MMU`` through ``access_data_fast`` (whose
L1 data-TLB hit is written out in place).  Each stream runs as it is,
leaving stale TLB entries behind, and keeping MimicOS's shootdown
contract.  Every access must return the reference's tuple (translation
latency, fault latency, page fault, data latency, serving level), and
after it ``mmu.stats()`` and ``memory.stats()`` must agree: the TLB level
that hit, the walk, its memory accesses and a segfault show only in
those counters, and the physical address only in the requests the caches
count.  At the end the PWC counters and contents and the TLB contents in
recency order must agree too.  After every step the translation check
(:func:`repro.validation.invariants.check_mmu`) must trip exactly when
some reference TLB entry differs from the reference table's mapping.  The
data caches are the real ``MemoryHierarchy`` on both sides:
``test_cache_oracle.py`` checks them, and sharing them here checks the
address, type and order of every request.
"""

import random

import pytest

from repro.common.addresses import PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.config import CacheConfig, DRAMConfig, TLBConfig
from repro.memhier.memory_system import MemoryHierarchy
from repro.mmu.mmu import MMU
from repro.mmu.tlb import TLBHierarchy
from repro.pagetables.radix import PageWalkCache, RadixPageTable
from repro.validation.invariants import TranslationIncoherence, check_mmu

PID = 1
FRAME_BASE = 1 << 40
FAULT_LATENCY = 900
PWC = dict(entries=4, associativity=2, latency=2)
GEOMETRIES = {
    # Small enough that every structure evicts; the L1 TLBs differ in
    # latency so a level mix-up shows in the result.
    "split": dict(l1i=TLBConfig("L1I", 2, 2, 2),
                  l1d_4k=TLBConfig("L1D4K", 4, 2, 1),
                  l1d_2m=TLBConfig("L1D2M", 1, 1, 1, page_sizes=(PAGE_SIZE_2M,)),
                  l2=TLBConfig("L2", 16, 4, 7, page_sizes=(PAGE_SIZE_4K, PAGE_SIZE_2M))),
    # An L2 TLB configured for 4 KB pages only (it still takes 1 GB ones)
    # and a one-set 4 KB L1.
    "l2_4k_only": dict(l1i=TLBConfig("L1I", 4, 4, 1),
                       l1d_4k=TLBConfig("L1D4K", 2, 2, 2),
                       l1d_2m=TLBConfig("L1D2M", 4, 2, 2, page_sizes=(PAGE_SIZE_2M,)),
                       l2=TLBConfig("L2", 6, 3, 9, page_sizes=(PAGE_SIZE_4K,))),
}
#: Random streams by seed, and one written out (``L2_PROBE_ORDER_OPS``).
RANDOM_SEEDS = range(6)
SEEDS = [*RANDOM_SEEDS, "l2_probe_order"]


def make_memory():
    return MemoryHierarchy(l1_config=CacheConfig("L1", 1024, 2, 2),
                           l2_config=CacheConfig("L2", 4096, 4, 6),
                           l3_config=CacheConfig("L3", 16384, 4, 15),
                           dram_config=DRAMConfig(capacity_bytes=1 << 30))


class BumpFrames:
    """Page-table frames handed out in order, the same on both sides."""

    def __init__(self):
        self.next = FRAME_BASE

    def __call__(self, trace=None):
        frame, self.next = self.next, self.next + PAGE_SIZE_4K
        return frame


def nonzero(counts):
    return {name: value for name, value in counts.items() if value}


# --------------------------------------------------------------------- #
# Reference model
# --------------------------------------------------------------------- #
class RefStats:
    """Welford mean and a running total, as the MMU's latency summaries."""

    def __init__(self):
        self.count, self.mean, self.total = 0, 0.0, 0.0

    def add(self, value):
        self.count += 1
        self.total += value
        self.mean += (value - self.mean) / self.count


class RefTLB:
    def __init__(self, config, page_sizes=None):
        self.latency = config.latency
        self.page_sizes = tuple(page_sizes or config.page_sizes)
        self.ways = config.associativity
        self.sets = [[] for _ in range(config.entries // config.associativity)]
        self.counts = {}

    def count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    def _slot(self, address, page_size):
        vpn = address // page_size
        return self.sets[vpn % len(self.sets)], (vpn, page_size)

    def lookup(self, address):
        self.count("lookups")
        for page_size in self.page_sizes:
            entries, key = self._slot(address, page_size)
            for position, (entry_key, value) in enumerate(entries):
                if entry_key == key:
                    entries.append(entries.pop(position))
                    self.count("hits")
                    return value
        self.count("misses")
        return None

    def fill(self, address, physical_base, page_size):
        if page_size not in self.page_sizes:
            return
        entries, key = self._slot(address, page_size)
        kept = [pair for pair in entries if pair[0] != key]
        if len(kept) == len(entries) and len(entries) >= self.ways:
            kept.pop(0)
            self.count("evictions")
        entries[:] = kept + [(key, (physical_base, page_size))]
        self.count("fills")

    def invalidate(self, address):
        for page_size in self.page_sizes:
            entries, key = self._slot(address, page_size)
            kept = [pair for pair in entries if pair[0] != key]
            if len(kept) != len(entries):
                entries[:] = kept
                self.count("invalidations")

    def flush(self):
        for entries in self.sets:
            entries.clear()
        self.count("flushes")


class RefPWC:
    def __init__(self, shift):
        self.shift, self.latency = shift, PWC["latency"]
        self.sets = [[] for _ in range(PWC["entries"] // PWC["associativity"])]
        self.counts = {}

    def _slot(self, address):
        tag = address >> self.shift
        return self.sets[tag % len(self.sets)], tag

    def lookup(self, address):
        entries, tag = self._slot(address)
        hit = tag in entries
        if hit:
            entries.remove(tag)
            entries.append(tag)
        name = "hits" if hit else "misses"
        self.counts[name] = self.counts.get(name, 0) + 1
        return hit

    def fill(self, address):
        entries, tag = self._slot(address)
        if tag in entries:
            entries.remove(tag)
        elif len(entries) >= PWC["associativity"]:
            entries.pop(0)
        entries.append(tag)

    def invalidate(self, address):
        entries, tag = self._slot(address)
        if tag in entries:
            entries.remove(tag)


class RefRadix:
    """The tree as two dicts: interior nodes by index prefix, leaves by
    (prefix, index); the functional mappings by virtual base."""

    DEPTH = {PAGE_SIZE_1G: 2, PAGE_SIZE_2M: 3, PAGE_SIZE_4K: 4}

    def __init__(self):
        self.frames = BumpFrames()
        self.nodes = {(): self.frames()}
        self.leaves = {}
        self.mappings = {}
        self.counts = {}
        self.pgd, self.pud, self.pmd = RefPWC(39), RefPWC(30), RefPWC(21)

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    @staticmethod
    def indices(address):
        return tuple((address >> shift) & 511 for shift in (39, 30, 21, 12))

    def insert(self, address, physical, page_size):
        base = address - address % page_size
        self.mappings[base] = (physical - physical % page_size, page_size)
        self.count("insertions")
        indices, depth = self.indices(base), self.DEPTH[page_size]
        for level in range(1, depth):
            if indices[:level] not in self.nodes:
                self.nodes[indices[:level]] = self.frames()
                self.count("pt_frames_allocated")
        self.leaves[indices[:depth]] = self.mappings[base]

    def remove(self, address):
        for page_size in (PAGE_SIZE_4K, PAGE_SIZE_2M, PAGE_SIZE_1G):
            base = address - address % page_size
            mapping = self.mappings.get(base)
            if mapping is not None and mapping[1] == page_size:
                break
        else:
            return False
        del self.mappings[base]
        self.count("removals")
        indices, depth = self.indices(base), self.DEPTH[page_size]
        if indices[:depth - 1] in self.nodes:
            self.leaves.pop(indices[:depth], None)
            for pwc in (self.pmd, self.pud, self.pgd):
                pwc.invalidate(base)
        return True

    def walk(self, address, memory):
        """(found, latency, accesses, physical base, page size)."""
        self.count("walks")
        indices = self.indices(address)
        start, latency = 0, self.pmd.latency
        for depth, pwc in ((3, self.pmd), (2, self.pud), (1, self.pgd)):
            if pwc.lookup(address):
                start, latency = depth, pwc.latency
                break
        while start and indices[:start] not in self.nodes:
            start -= 1
        accesses = 0
        for depth in range(start, 4):
            frame = self.nodes[indices[:depth]]
            latency += memory.access_value(frame + indices[depth] * 8, False, "ptw", 0)
            accesses += 1
            leaf = self.leaves.get(indices[:depth + 1])
            if leaf is not None:
                for level, pwc in ((2, self.pgd), (3, self.pud), (4, self.pmd)):
                    if depth + 1 >= level:
                        pwc.fill(address)
                self.count("walk_hits")
                self.count("walk_memory_accesses", accesses)
                return True, latency, accesses, leaf[0], leaf[1]
            if indices[:depth + 1] not in self.nodes:
                break
        self.count("walk_faults")
        self.count("walk_memory_accesses", accesses)
        return False, latency, accesses, 0, PAGE_SIZE_4K


class ReferenceMMU:
    def __init__(self, geometry, callback):
        self.l1i = RefTLB(geometry["l1i"])
        self.l1d_4k = RefTLB(geometry["l1d_4k"])
        self.l1d_2m = RefTLB(geometry["l1d_2m"])
        l2 = geometry["l2"]
        self.l2 = RefTLB(l2, sorted(set(l2.page_sizes) | {PAGE_SIZE_1G}))
        self.tlbs = (self.l1i, self.l1d_4k, self.l1d_2m, self.l2)
        self.hierarchy_counts, self.counts = {}, {}
        self.ptw, self.translation = RefStats(), RefStats()
        self.table, self.memory, self.callback = RefRadix(), make_memory(), callback

    def count(self, counts, name, amount=1):
        counts[name] = counts.get(name, 0) + amount

    def fill_l1(self, address, physical_base, page_size):
        if page_size == PAGE_SIZE_4K:
            self.l1d_4k.fill(address, physical_base, page_size)
        elif page_size == PAGE_SIZE_2M:
            self.l1d_2m.fill(address, physical_base, page_size)

    def tlb_lookup(self, address):
        """(entry, latency)."""
        self.count(self.hierarchy_counts, "data_lookups")
        latency = self.l1d_4k.latency
        for tlb in (self.l1d_4k, self.l1d_2m):
            entry = tlb.lookup(address)
            if entry is not None:
                return entry, latency
        latency += self.l2.latency
        entry = self.l2.lookup(address)
        if entry is None:
            self.count(self.hierarchy_counts, "l2_misses")
            return None, latency
        self.fill_l1(address, entry[0], entry[1])
        return entry, latency

    def walk(self, address):
        found, latency, accesses, base, size = self.table.walk(address, self.memory)
        self.count(self.counts, "page_walks")
        self.count(self.counts, "ptw_memory_accesses", accesses)
        self.ptw.add(latency)
        return found, latency, accesses, base, size

    def access(self, address, is_write, pc):
        """(translation latency, fault latency, page fault, data latency,
        serving level)."""
        self.count(self.counts, "data_accesses")
        entry, latency = self.tlb_lookup(address)
        fault = segfault = False
        fault_latency = 0
        if entry is not None:
            base, size = entry
            self.count(self.counts, "tlb_hits")
        else:
            self.count(self.counts, "tlb_misses")
            found, walk_latency, _, base, size = self.walk(address)
            latency += walk_latency
            if not found:
                fault = True
                self.count(self.counts, "page_faults")
                fault_latency, handled = self.callback(self.table, address)
                latency += fault_latency
                if handled:
                    found, again, _, base, size = self.walk(address)
                    latency += again
                segfault = not found
            if segfault:
                self.count(self.counts, "segfaults")
            else:
                self.l2.fill(address, base, size)
                self.fill_l1(address, base, size)
        self.translation.add(latency)
        if segfault:
            return latency, fault_latency, True, 0, "none"
        data = self.memory.access_value(base + address % size, is_write, "data", pc)
        return latency, fault_latency, fault, data, self.memory.last_served_by

    def invalidate(self, address):
        for tlb in self.tlbs:
            tlb.invalidate(address)

    def flush(self):
        for tlb in self.tlbs:
            tlb.flush()

    def stats(self):
        return {
            "counters": nonzero(self.counts),
            "tlbs": {"hierarchy": nonzero(self.hierarchy_counts),
                     **{name: nonzero(tlb.counts) for name, tlb in
                        zip(("l1i", "l1d_4k", "l1d_2m", "l2"), self.tlbs)}},
            "avg_ptw_latency": self.ptw.mean,
            "total_ptw_latency": self.ptw.total,
            "avg_translation_latency": self.translation.mean,
            "page_table": nonzero(self.table.counts),
        }


# --------------------------------------------------------------------- #
# Streams
# --------------------------------------------------------------------- #
#: Page bases spread over three PGD regions, two PUD regions each and
#: three PMD regions each, so all three PWCs see more tags than ways.
REGIONS = [(pgd << 39) | (pud << 30) | (pmd << 21)
           for pgd in (0, 1, 5) for pud in (0, 3) for pmd in (0, 1, 7)]


def physical_for(address, page_size):
    return 0x4000_0000 + (address // page_size * 7919 % 4096) * page_size % (1 << 34)


def fault_callback(table, address):
    """The stub OS: faults on even 4 KB pages map the page, faults on pages
    divisible by 3 claim success without mapping, the rest are refused."""
    page = address >> 12
    if page % 2 == 0:
        table.insert(address, physical_for(address, PAGE_SIZE_4K), PAGE_SIZE_4K)
        return FAULT_LATENCY, True
    return FAULT_LATENCY + 1, page % 3 == 0


#: The random streams rarely leave a stale 4 KB and a 2 MB translation of
#: one address in the L2 TLB while both L1 data TLBs have lost them, the
#: only moment the L2 TLB's probe order shows, so this stream does that on
#: the "split" geometry: page T is walked as 4 KB and a 2 MB page mapped
#: over it; pages A and B, in T's L1 set but another L2 set, push T out of
#: the L1 TLB and its region out of the PMD walk cache; a walk from another
#: 4 KB page of the 2 MB page then finds the 2 MB leaf, a second 2 MB page
#: R empties the 2 MB L1 TLB, and T is accessed again.
_T = (1 << 39) | (3 << 30) | (7 << 21)
_A, _B = _T + 2 * PAGE_SIZE_2M + 2 * PAGE_SIZE_4K, _T + 4 * PAGE_SIZE_2M + 2 * PAGE_SIZE_4K
_R = (5 << 39) + 2 * PAGE_SIZE_2M
L2_PROBE_ORDER_OPS = [
    ("insert", _T, PAGE_SIZE_4K), ("access", _T, False, 0), ("insert", _T, PAGE_SIZE_2M),
    ("insert", _A, PAGE_SIZE_4K), ("access", _A, False, 0),
    ("insert", _B, PAGE_SIZE_4K), ("access", _B, False, 0),
    ("access", _T + 8 * PAGE_SIZE_4K, False, 0),
    ("insert", _R, PAGE_SIZE_2M), ("access", _R, False, 0),
    ("access", _T + 0x40, False, 0),
]


def stream(seed):
    if seed == "l2_probe_order":
        return L2_PROBE_ORDER_OPS
    rng = random.Random(f"translation-oracle-{seed}")
    recent = []

    def address():
        if recent and rng.random() < 0.5:
            page = rng.choice(recent)
            return page - page % PAGE_SIZE_4K + rng.randrange(PAGE_SIZE_4K)
        region = rng.choice(REGIONS)
        if rng.random() < 0.1:
            return region + rng.randrange(1, 4) * PAGE_SIZE_2M + rng.randrange(PAGE_SIZE_2M)
        return region + rng.randrange(6) * PAGE_SIZE_4K + rng.randrange(PAGE_SIZE_4K)

    ops = []
    for _ in range(400):
        draw = rng.random()
        if draw < 0.62:
            target = address()
            recent[:] = (recent + [target])[-12:]
            ops.append(("access", target, rng.random() < 0.3, rng.randrange(4) * 4))
        elif draw < 0.76:
            size = rng.choice([PAGE_SIZE_4K] * 6 + [PAGE_SIZE_2M] * 2 + [PAGE_SIZE_1G])
            ops.append(("insert", address(), size))
        elif draw < 0.80 and recent:
            # A 2 MB page over a recently used 4 KB one, then a walk through
            # it from another 4 KB page: without a shootdown of the 4 KB
            # page, the L2 TLB now holds both translations of it.
            target = rng.choice(recent)
            ops.append(("insert", target, PAGE_SIZE_2M))
            ops.append(("access", target ^ PAGE_SIZE_4K * rng.randrange(8, 512), False, 0))
        elif draw < 0.88:
            ops.append(("remove", address()))
        elif draw < 0.96:
            ops.append(("shootdown", address(), rng.choice([PID, PID, PID + 1])))
        else:
            ops.append(("flush",))
    return ops


def build_mmu(geometry):
    mmu = MMU(TLBHierarchy(**geometry), make_memory())
    table = RadixPageTable(BumpFrames(), pwc_entries=PWC["entries"],
                           pwc_associativity=PWC["associativity"],
                           pwc_latency=PWC["latency"])
    mmu.set_context(PID, table)
    mmu.set_fault_callback(lambda pid, address: fault_callback(table, address))
    return mmu, table


def mmu_stats(mmu):
    """``mmu.stats()`` with the zero counters dropped, as the reference
    leaves them out."""
    stats = mmu.stats()
    stats["counters"] = nonzero(stats["counters"])
    stats["tlbs"] = {name: nonzero(counts) for name, counts in stats["tlbs"].items()}
    stats["page_table"] = nonzero(stats["page_table"])
    return stats


def reference_incoherent(reference):
    """Does some reference TLB entry differ from the reference table?
    The table is read as ``PageTableBase.lookup`` reads it, smallest
    page size first."""
    for tlb in reference.tlbs:
        for entries in tlb.sets:
            for (vpn, page_size), (physical_base, _) in entries:
                base = vpn * page_size
                for size in (PAGE_SIZE_4K, PAGE_SIZE_2M, PAGE_SIZE_1G):
                    live = reference.table.mappings.get(base - base % size)
                    if live is not None and live[1] == size:
                        break
                else:
                    return True
                if live[0] + base % size != physical_base or size < page_size:
                    return True
    return False


def check_trips(mmu):
    try:
        check_mmu(mmu)
    except TranslationIncoherence:
        return True
    return False


def divergence(geometry_name, seed, shootdowns):
    """The first step on which the MMU and the reference disagree, or None.

    With ``shootdowns`` the stream keeps MimicOS's contract: every removed
    mapping is shot down, and an insert first removes (and shoots down)
    the live mappings it overlaps, as a THP promotion does.  Without it,
    removals and overlapping inserts leave stale TLB entries behind.
    """
    geometry = GEOMETRIES[geometry_name]
    mmu, table = build_mmu(geometry)
    reference = ReferenceMMU(geometry, fault_callback)

    def unmap(address):
        removed = table.remove(address)
        assert reference.table.remove(address) == removed
        if removed and shootdowns:
            mmu.invalidate_translation(PID, address)
            reference.invalidate(address)

    for step, op in enumerate(stream(seed)):
        kind = op[0]
        if kind == "access":
            _, address, is_write, pc = op
            got = mmu.access_data_fast(address, is_write, pc)
            want = reference.access(address, is_write, pc)
            if got != want:
                return step, op, got, want
            for name, got, want in (
                    ("mmu.stats()", mmu_stats(mmu), reference.stats()),
                    ("memory.stats()", mmu.memory.stats(), reference.memory.stats())):
                if got != want:
                    return step, op, name, got, want
        elif kind == "insert":
            _, address, size = op
            if shootdowns:
                base = address - address % size
                for live_base, (_, live_size) in list(reference.table.mappings.items()):
                    if live_base < base + size and base < live_base + live_size:
                        unmap(live_base)
            table.insert(address, physical_for(address, size), size)
            reference.table.insert(address, physical_for(address, size), size)
        elif kind == "remove":
            unmap(op[1])
        elif kind == "shootdown":
            _, address, pid = op
            mmu.invalidate_translation(pid, address)
            if pid == PID:
                reference.invalidate(address)
        else:
            mmu.set_context(PID, table, flush_tlbs=True)
            reference.flush()
        if check_trips(mmu) != reference_incoherent(reference):
            return step, op, "translation check", reference_incoherent(reference)
    checks = [
        ("mmu.stats()", mmu_stats(mmu), reference.stats()),
        ("memory.stats()", mmu.memory.stats(), reference.memory.stats()),
        ("pwc counters",
         [nonzero(pwc.counters.as_dict()) for pwc in (table.pwc_pgd, table.pwc_pud, table.pwc_pmd)],
         [nonzero(pwc.counts) for pwc in (reference.table.pgd, reference.table.pud,
                                          reference.table.pmd)]),
        ("pwc contents",
         [[list(entries) for entries in pwc._sets]
          for pwc in (table.pwc_pgd, table.pwc_pud, table.pwc_pmd)],
         [pwc.sets for pwc in (reference.table.pgd, reference.table.pud, reference.table.pmd)]),
        ("tlb contents",
         [[list(entries.items()) for entries in tlb._sets]
          for tlb in (mmu.tlbs.l1i, mmu.tlbs.l1d_4k, mmu.tlbs.l1d_2m, mmu.tlbs.l2)],
         [tlb.sets for tlb in reference.tlbs]),
    ]
    for name, got, want in checks:
        if got != want:
            return name, got, want
    return None


#: Whether each checked run keeps the shootdown contract.
RUNS = {"stale_tlbs": False, "shootdowns": True}


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_translation_path_matches_reference(geometry, seed, run):
    assert divergence(geometry, seed, RUNS[run]) is None


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_stale_streams_leave_entries_the_check_finds(geometry):
    """Without shootdowns the streams do leave stale entries behind, so the
    check's agreement with the reference is not vacuous."""
    tripped = 0
    for seed in SEEDS:
        mmu, table = build_mmu(GEOMETRIES[geometry])
        for op in stream(seed):
            if op[0] == "access":
                mmu.access_data_fast(op[1], op[2], op[3])
            elif op[0] == "insert":
                table.insert(op[1], physical_for(op[1], op[2]), op[2])
            elif op[0] == "remove":
                table.remove(op[1])
            tripped += check_trips(mmu)
    assert tripped


def answered(mmu):
    """Lookups each TLB level has answered so far, and the segfaults."""
    tlbs = mmu.tlbs
    return {"L1": tlbs.l1d_4k.counters.get("hits") + tlbs.l1d_2m.counters.get("hits"),
            "L2": tlbs.l2.counters.get("hits"),
            "miss": tlbs.l2_misses(), "segfault": mmu.counters.get("segfaults")}


def test_streams_exercise_every_outcome():
    """The random streams reach L1 and L2 hits, 2 MB and 1 GB translations,
    handled faults and segfaults, and PWC hits at every level."""
    levels, sizes, faults, segfaults, fast_hits = set(), set(), 0, 0, 0
    for seed in RANDOM_SEEDS:
        mmu, table = build_mmu(GEOMETRIES["split"])
        for op in stream(seed):
            if op[0] == "access":
                before = answered(mmu)
                page_fault = mmu.access_data_fast(op[1], op[2], op[3])[2]
                rose = {name for name, count in answered(mmu).items() if count > before[name]}
                levels |= rose - {"segfault"}
                if "segfault" in rose:
                    segfaults += 1
                else:
                    faults += page_fault
                    mapping = table.lookup(op[1])
                    if mapping is not None:   # None: a stale TLB entry served it
                        sizes.add(mapping[1])
            elif op[0] == "insert":
                table.insert(op[1], physical_for(op[1], op[2]), op[2])
            elif op[0] == "remove":
                table.remove(op[1])
        assert all(pwc.counters.get("hits") for pwc in
                   (table.pwc_pgd, table.pwc_pud, table.pwc_pmd))
        fast_hits += mmu.fast_hits
    assert levels == {"L1", "L2", "miss"}
    assert sizes == {PAGE_SIZE_4K, PAGE_SIZE_2M, PAGE_SIZE_1G}
    assert faults and segfaults and fast_hits


# --------------------------------------------------------------------- #
# Sensitivity: each deliberate break must make the oracle fail
# --------------------------------------------------------------------- #
def _probe_2m_before_4k_in_l2(monkeypatch):
    original = TLBHierarchy.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sizes = self.l2.page_sizes
        if PAGE_SIZE_2M in sizes:
            self.l2.page_sizes = (PAGE_SIZE_2M,) + tuple(s for s in sizes if s != PAGE_SIZE_2M)

    monkeypatch.setattr(TLBHierarchy, "__init__", init)


def _pwc_fill_without_refresh(monkeypatch):
    def fill(self, virtual_address):
        tag = virtual_address >> self.coverage_shift
        entries = self._sets[tag % self.num_sets]
        if tag not in entries:
            entries.put(tag, True)

    monkeypatch.setattr(PageWalkCache, "fill", fill)


def _no_l1_fill_after_l2_hit(monkeypatch):
    original = TLBHierarchy._lookup_l2

    def lookup_l2(self, virtual_address, latency):
        self._fill_l1 = lambda *args: None
        try:
            return original(self, virtual_address, latency)
        finally:
            del self._fill_l1

    monkeypatch.setattr(TLBHierarchy, "_lookup_l2", lookup_l2)


def _l1_miss_skips_2m_count(monkeypatch):
    """The data lookup after the in-place L1 peek counts the 4 KB TLB's
    lookup and miss but forgets the 2 MB TLB's."""

    def lookup_after_l1d_miss(self, virtual_address):
        self._c_data_lookups[0] += 1
        self.l1d_4k._c_lookups[0] += 1
        self.l1d_4k._c_misses[0] += 1
        return self._lookup_l2(virtual_address, self.l1d_4k.latency)

    monkeypatch.setattr(TLBHierarchy, "lookup_after_l1d_miss", lookup_after_l1d_miss)


#: Each break, and the runs it must fail in.  The L2 TLB's probe order
#: only shows while a stale 4 KB translation and a 2 MB one of the same
#: address are both in the L2 TLB, which the shootdown contract prevents.
BREAKS = [(_probe_2m_before_4k_in_l2, "stale_tlbs")] + [
    (break_path, run) for break_path in (_pwc_fill_without_refresh, _no_l1_fill_after_l2_hit,
                                         _l1_miss_skips_2m_count)
    for run in sorted(RUNS)]


@pytest.mark.parametrize("break_path,run", BREAKS,
                         ids=[f"{path.__name__.strip('_')}-{run}" for path, run in BREAKS])
def test_oracle_catches_a_broken_translation_path(monkeypatch, break_path, run):
    break_path(monkeypatch)
    assert any(divergence("split", seed, RUNS[run]) is not None for seed in SEEDS)

"""Differential oracles for the per-set-list ``Cache`` and the hierarchy.

``ReferenceCache`` is the line-object cache the per-set lists replaced: one
object per way, a first-invalid/first-minimum-stamp victim and an SRRIP
loop that ages every line until one reaches the maximum RRPV.  Hypothesis
drives it and :class:`repro.memhier.cache.Cache` with the same sequences
of demand accesses and prefetch fills, and every observable must agree:
hit/miss, the evicted block, the counter snapshot and the final lines.

``ReferenceHierarchy`` stacks three reference caches and a reference DRAM
(the ``(channel, bank)``-keyed bank dict and page-policy string tests) with
the prefetch path as it was before the prefetchers filled their own cache:
each prefetcher's ``observe`` returns a list of candidate addresses, and a
loop drops the negative ones, counts the rest and calls ``fill`` on each.
It is driven against :meth:`repro.memhier.memory_system.MemoryHierarchy.
access_value`, whose L1 hit is written out in place, and every step's
latency, serving level, row conflict and nested ``stats()`` must agree, as
must every level's final lines.
"""

from collections import Counter as Tally

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.config import CacheConfig, DRAMConfig, PrefetcherConfig, SystemConfig
from repro.memhier.cache import Cache
from repro.memhier.memory_system import MemoryHierarchy
from repro.memhier.prefetcher import IPStridePrefetcher, StreamPrefetcher


class _Line:
    __slots__ = ("tag", "valid", "lru_stamp", "rrpv", "request_type")

    def __init__(self):
        self.tag, self.valid = 0, False
        self.lru_stamp, self.rrpv, self.request_type = 0, 3, "data"


class ReferenceCache:
    def __init__(self, config: CacheConfig):
        self.num_sets, self.line_size = config.sets, config.line_size
        self.latency = config.latency
        self.lru = config.replacement == "lru"
        self.sets = [[_Line() for _ in range(config.associativity)]
                     for _ in range(self.num_sets)]
        self.clock = 0
        self.stats = Tally()

    def _find(self, address):
        block = address // self.line_size
        set_index, tag = block % self.num_sets, block // self.num_sets
        line = next((line for line in self.sets[set_index]
                     if line.valid and line.tag == tag), None)
        return set_index, tag, line

    def access(self, address, request_type):
        """(hit, the block a miss evicted or None)."""
        self.clock += 1
        set_index, tag, line = self._find(address)
        self.stats["accesses_" + request_type] += 1
        if line is not None:
            self.stats["hits_" + request_type] += 1
            line.lru_stamp, line.rrpv = self.clock, 0
            return True, None
        self.stats["misses_" + request_type] += 1
        return False, self._fill(set_index, tag, request_type)

    def fill(self, address, request_type):
        set_index, tag, line = self._find(address)
        if line is None:
            self.stats["fills_" + request_type] += 1
            self._fill(set_index, tag, request_type)

    def contents(self):
        """The block of every valid line."""
        return {line.tag * self.num_sets + set_index
                for set_index, lines in enumerate(self.sets)
                for line in lines if line.valid}

    def _fill(self, set_index, tag, request_type):
        victim = self._victim(self.sets[set_index])
        evicted = None
        if victim.valid:
            evicted = victim.tag * self.num_sets + set_index
            self.stats["evictions"] += 1
            if victim.request_type != request_type:
                self.stats["pollution_evictions_by_" + request_type] += 1
        victim.tag, victim.valid = tag, True
        victim.lru_stamp, victim.rrpv = self.clock, 2
        victim.request_type = request_type
        return evicted

    def _victim(self, lines):
        for line in lines:
            if not line.valid:
                return line
        if self.lru:
            return min(lines, key=lambda line: line.lru_stamp)
        while True:
            for line in lines:
                if line.rrpv >= 3:
                    return line
            for line in lines:
                line.rrpv += 1


class LastExtremeReference(ReferenceCache):
    """The reference with a plausible one-token slip: a full set evicts the
    last way with the oldest LRU stamp or the maximum SRRIP RRPV, not the
    first."""

    def _victim(self, lines):
        if all(line.valid for line in lines):
            lines = lines[::-1]
        return super()._victim(lines)


#: Fills are common so prefetched lines tie demand lines on the LRU stamp.
OPS = st.lists(st.tuples(
    st.sampled_from(["access"] * 6 + ["fill", "fill"]),
    st.integers(min_value=0, max_value=63),
    st.sampled_from(["data", "ptw", "kernel"])), max_size=200)


def cached(cache, address):
    """Whether the line holding ``address`` is in ``cache`` (its way map)."""
    block = address // cache.line_size
    return block in cache._way_maps[block % cache.num_sets]


def access_bool(cache, address, request_type="data"):
    """One demand access to a single ``Cache``: True on a hit, False on a
    miss-and-fill.  It updates the cache as one level of
    :meth:`MemoryHierarchy.access_value` does (clock, stamp or RRPV,
    counter cells), but fills through ``Cache._fill``, the prefetch fills'
    routine; only LRU stamps read the access clock, so SRRIP does not
    advance it."""
    if cache._lru:
        cache._access_clock += 1
    block = address // cache.line_size
    set_index = block % cache.num_sets
    cells = cache._cells_for(request_type)
    way = cache._way_maps[set_index].get(block)
    if way is not None:
        cells[0][0] += 1
        if cache._lru:
            cache._meta[set_index][way] = cache._access_clock
        else:
            cache._meta[set_index][way] = -cache._age[set_index]
        return True
    cells[1][0] += 1
    cache._fill(set_index, block, request_type)
    return False


def access_with_victim(cache, address, request_type):
    """:func:`access_bool`, then the block a miss evicted (None: none),
    read from the set before the fill."""
    block = address // cache.line_size
    set_index = block % cache.num_sets
    blocks = list(cache._blocks[set_index])
    if access_bool(cache, address, request_type):
        return True, None
    return False, blocks[cache._way_maps[set_index][block]]


def cache_contents(cache):
    """The block of every valid line of a ``Cache``, read from its way maps."""
    return {block for way_map in cache._way_maps for block in way_map}


def divergence(replacement, ways, sets, ops, reference_class=ReferenceCache):
    """First op on which ``Cache`` and the reference disagree, or None."""
    config = CacheConfig("oracle", size_bytes=sets * ways * 64,
                         associativity=ways, latency=1, replacement=replacement)
    cache, reference = Cache(config), reference_class(config)
    lines = 2 * sets * ways   # enough lines to evict, few enough to tie
    for step, (op, line, request_type) in enumerate(ops):
        address = line % lines * 64 + step % 64
        if op == "access":
            got = access_with_victim(cache, address, request_type)
            want = reference.access(address, request_type)
        else:
            got, want = cache.fill(address), reference.fill(address, "prefetch")
        stats = {key: value for key, value in cache.stats().items() if value}
        if got != want or stats != dict(reference.stats):
            return step, op, got, want
    if cache_contents(cache) != reference.contents():
        return "final contents", cache_contents(cache) ^ reference.contents()
    return None


#: Four lines fill a four-way SRRIP set at the insert RRPV; the fifth ages
#: them all to the maximum and evicts way 0; a hit takes way 1 out of that
#: aging epoch, so the next miss must evict way 2, the next way still at
#: the maximum, not way 1.  Random op lists rarely fill a set and then hit
#: behind the victim before the next miss, so this one is always run.
SRRIP_EPOCH_OPS = [("access", line, "data") for line in (0, 1, 2, 3, 4, 1, 5, 6)]


@given(replacement=st.sampled_from(["lru", "srrip"]),
       ways=st.integers(min_value=1, max_value=16),
       sets=st.sampled_from([1, 2, 4]), ops=OPS)
@example(replacement="srrip", ways=4, sets=1, ops=SRRIP_EPOCH_OPS)
@settings(max_examples=300, deadline=None)
def test_cache_matches_line_object_reference(replacement, ways, sets, ops):
    assert divergence(replacement, ways, sets, ops) is None


def test_oracle_catches_a_last_maximum_srrip_victim():
    """Sensitivity: picking the last line at the maximum RRPV instead of the
    first is a plausible one-token slip; these ops tell the two apart, so
    the oracle sees the slip on whichever side makes it."""
    ops = [("access", line, "data") for line in (0, 1, 2, 3, 4, 0, 5, 6)]
    assert divergence("srrip", 4, 1, ops) is None
    assert divergence("srrip", 4, 1, ops, LastExtremeReference) is not None


@pytest.mark.parametrize("replacement", ["lru", "srrip"])
def test_eviction_reports_the_displaced_block(replacement):
    cache = Cache(CacheConfig("one", size_bytes=64, associativity=1, latency=1,
                              replacement=replacement))
    access_with_victim(cache, 0x1234, "data")
    assert access_with_victim(cache, 0x5678, "data") == (False, 0x1234 // 64)


# --------------------------------------------------------------------------- #
# Hierarchy oracle
# --------------------------------------------------------------------------- #
class ReferenceIPStride:
    """``IPStridePrefetcher.observe`` as it was: a list of candidates."""

    def __init__(self, config):
        self.degree, self.entries, self.table = config.degree, config.table_entries, {}

    def observe(self, address, pc):
        entry = self.table.get(pc)
        if entry is None:
            if len(self.table) >= self.entries:
                self.table.pop(next(iter(self.table)))
            self.table[pc] = [address, 0, 0]
            return []
        stride = address - entry[0]
        prefetches = []
        if stride != 0 and stride == entry[1]:
            entry[2] = min(entry[2] + 1, 3)
            if entry[2] >= 2:
                prefetches = [address + stride * i for i in range(1, self.degree + 1)]
        else:
            entry[2] = 0
        entry[1], entry[0] = stride, address
        return prefetches


class ReferenceStream:
    """``StreamPrefetcher.observe`` as it was: a list of candidates."""

    def __init__(self, config, line_size):
        self.degree, self.entries, self.streams = config.degree, config.table_entries, {}
        self.line_size = line_size

    def observe(self, address, pc):
        region, line = address // 4096, address // self.line_size
        stream = self.streams.get(region)
        if stream is None:
            if len(self.streams) >= self.entries:
                self.streams.pop(next(iter(self.streams)))
            self.streams[region] = [line, 0]
            return []
        direction = 1 if line >= stream[0] else -1
        if abs(line - stream[0]) == 1:
            stream[1] = min(stream[1] + 1, 3)
        stream[0] = line
        if stream[1] >= 1:
            return [(line + direction * i) * self.line_size
                    for i in range(1, self.degree + 1)]
        return []


def reference_prefetcher(config, line_size):
    if config.kind == "ip_stride":
        return ReferenceIPStride(config)
    if config.kind == "stream":
        return ReferenceStream(config, line_size)
    return None


class ReferenceDRAM:
    """``DRAMModel.access_value`` as it was: the (channel, bank, row)
    mapping computed step by step, a bank dict keyed by ``(channel, bank)``
    and the page policy compared as a string."""

    def __init__(self, config):
        self.config, self.stats = config, Tally()
        self.channels = config.channels
        self.banks_per_channel = config.ranks_per_channel * config.banks_per_rank
        self.banks = {(channel, bank): [None, "none"] for channel in range(self.channels)
                      for bank in range(self.banks_per_channel)}

    def access(self, address, request_type):
        line = address // 64
        channel = line % self.channels
        line //= self.channels
        bank = line % self.banks_per_channel
        row = line // self.banks_per_channel // (self.config.row_size_bytes // 64)
        state = self.banks[(channel, bank)]
        self.stats["accesses"] += 1
        self.stats["accesses_" + request_type] += 1
        conflict = False
        if self.config.page_policy == "closed" or state[0] is None:
            latency = self.config.row_miss_latency
            self.stats["row_misses"] += 1
        elif state[0] == row:
            latency = self.config.row_hit_latency
            self.stats["row_hits"] += 1
            self.stats["row_hits_" + request_type] += 1
        else:
            latency, conflict = self.config.row_conflict_latency, True
            self.stats["row_conflicts"] += 1
            self.stats["row_conflicts_" + request_type] += 1
            self.stats["row_conflicts_caused_by_" + request_type] += 1
            self.stats["row_conflicts_victim_" + state[1]] += 1
        state[:] = [row, request_type] if self.config.page_policy == "open" else [None, "none"]
        return latency, conflict


class ReferenceHierarchy:
    """L1 -> L2 -> L3 -> DRAM over reference parts.  ``shared`` makes this a
    per-core view: a private L1 and L1 prefetcher, everything else shared."""

    def __init__(self, config, shared=None):
        self.l1 = ReferenceCache(config.l1d_cache)
        self.l1_prefetcher = reference_prefetcher(config.l1_prefetcher,
                                                  config.l1d_cache.line_size)
        if shared is None:
            self.l2, self.l3 = ReferenceCache(config.l2_cache), ReferenceCache(config.l3_cache)
            self.dram = ReferenceDRAM(config.dram)
            self.l2_prefetcher = reference_prefetcher(config.l2_prefetcher,
                                                      config.l2_cache.line_size)
        else:
            self.l2, self.l3, self.dram = shared.l2, shared.l3, shared.dram
            self.l2_prefetcher = shared.l2_prefetcher
        self.stats = Tally()

    def access(self, address, request_type, pc):
        """(latency, served_by, row_conflict) of one request."""
        self.stats["requests"] += 1
        self.stats["requests_" + request_type] += 1
        trains = request_type != "prefetch"
        latency = 0
        for name, cache in (("L1", self.l1), ("L2", self.l2), ("L3", self.l3)):
            latency += cache.latency
            if cache.access(address, request_type)[0]:
                if trains and name != "L3":
                    self._observe(address, pc, level=1 if name == "L1" else 2)
                return latency, name, False
        dram_latency, conflict = self.dram.access(address, request_type)
        if trains:
            self._observe(address, pc, level=2)
        return latency + dram_latency, "DRAM", conflict

    def _observe(self, address, pc, level):
        """``MemoryHierarchy._observe_prefetchers`` as it was."""
        if level == 1 and self.l1_prefetcher is not None:
            for candidate in self.l1_prefetcher.observe(address, pc):
                if candidate >= 0:
                    self.stats["l1_prefetches"] += 1
                    self.l1.fill(candidate, "prefetch")
        if self.l2_prefetcher is not None:
            for candidate in self.l2_prefetcher.observe(address, pc):
                if candidate >= 0:
                    self.stats["l2_prefetches"] += 1
                    self.l2.fill(candidate, "prefetch")

    def snapshot(self):
        return {"hierarchy": _nonzero(self.stats), "l1": _nonzero(self.l1.stats),
                "l2": _nonzero(self.l2.stats), "l3": _nonzero(self.l3.stats),
                "dram": _nonzero(self.dram.stats)}


def _nonzero(counts):
    return {key: value for key, value in counts.items() if value}


def hierarchy_snapshot(hierarchy):
    return {level: _nonzero(counts) for level, counts in hierarchy.stats().items()}


REQUEST_TYPES = ["data", "data", "ptw", "kernel", "kernel_zero", "prefetch"]

#: One run: (core, start address, stride in bytes, length, request type,
#: pc, write).  Starts near 0 with a negative stride make the prefetchers
#: produce negative candidates.  A write must cost what a read does: the
#: reference ignores the flag (no writeback is modelled).
RUNS = st.lists(st.tuples(
    st.integers(min_value=0, max_value=1),
    st.one_of(st.integers(min_value=0, max_value=300),
              st.integers(min_value=0, max_value=12 * 1024)),
    st.sampled_from([-4096, -128, -64, -8, 0, 8, 64, 64, 128, 192, 4096]),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(REQUEST_TYPES),
    st.sampled_from([0, 0x400, 0x404]),
    st.booleans()), max_size=30)

PREFETCHERS = st.builds(PrefetcherConfig,
                        kind=st.sampled_from(["ip_stride", "stream", "none"]),
                        degree=st.integers(min_value=1, max_value=3),
                        table_entries=st.integers(min_value=1, max_value=4))


def cache_config(name, sets, ways, latency, replacement):
    return CacheConfig(name, size_bytes=sets * ways * 64, associativity=ways,
                       latency=latency, replacement=replacement)


@st.composite
def system_configs(draw):
    policies = st.sampled_from(["lru", "srrip"])
    return SystemConfig(
        l1d_cache=cache_config("L1", draw(st.sampled_from([1, 2])),
                               draw(st.sampled_from([1, 2, 4])), 2, draw(policies)),
        l2_cache=cache_config("L2", draw(st.sampled_from([2, 4])),
                              draw(st.sampled_from([2, 4])), 5, draw(policies)),
        l3_cache=cache_config("L3", draw(st.sampled_from([4, 8])),
                              draw(st.sampled_from([2, 4])), 11, draw(policies)),
        l1_prefetcher=draw(PREFETCHERS), l2_prefetcher=draw(PREFETCHERS),
        dram=DRAMConfig(channels=2, ranks_per_channel=1, banks_per_rank=2,
                        row_size_bytes=128,
                        page_policy=draw(st.sampled_from(["open", "open", "closed"]))))


def hierarchy_divergence(config, runs, cores=1):
    """First access on which ``MemoryHierarchy`` (and its per-core views)
    and the reference disagree, or None."""
    shared = MemoryHierarchy.from_system_config(config)
    systems = [shared] + [MemoryHierarchy.per_core_view(shared, config)
                          for _ in range(cores - 1)]
    reference = ReferenceHierarchy(config)
    references = [reference] + [ReferenceHierarchy(config, shared=reference)
                                for _ in range(cores - 1)]
    step = 0
    for core, start, stride, length, request_type, pc, write in runs:
        core %= cores
        for k in range(length):
            address = start + stride * k
            if address < 0:
                break
            dram = systems[core].dram
            conflicts = dram.counters.get("row_conflicts")
            latency = systems[core].access_value(address, write, request_type, pc)
            got = (latency, systems[core].last_served_by,
                   dram.counters.get("row_conflicts") > conflicts)
            want = references[core].access(address, request_type, pc)
            got_stats = [hierarchy_snapshot(system) for system in systems]
            want_stats = [ref.snapshot() for ref in references]
            if got != want or got_stats != want_stats:
                return step, address, request_type, got, want
            step += 1
    for system, ref in zip(systems, references):
        for level in ("l1", "l2", "l3"):
            got, want = cache_contents(getattr(system, level)), getattr(ref, level).contents()
            if got != want:
                return "final contents", level, got ^ want
    return None


#: Lines 0 and 1 go to DRAM; the second trains the L2 stream prefetcher,
#: which fills lines 2 and 3 into the last free L2 ways.  Three `prefetch`
#: requests, which train nothing, evict lines 0, 1 and 2 from the L2 by
#: demand fills.  Line 1 again, an L1 hit, repeats the stream's last line:
#: only the demand evictions' `Cache._removals` count makes it refill line
#: 2.  Random runs rarely evict a candidate without training in between,
#: so this one is always run.
REMOVAL_CONFIG = SystemConfig(
    l1d_cache=cache_config("L1", 1, 8, 2, "lru"),
    l2_cache=cache_config("L2", 1, 4, 5, "srrip"),
    l3_cache=cache_config("L3", 1, 8, 11, "srrip"),
    l1_prefetcher=PrefetcherConfig("none"), l2_prefetcher=PrefetcherConfig("stream"))
REMOVAL_RUNS = [(0, 0, 64, 2, "data", 0, False), (0, 9 * 64, 64, 3, "prefetch", 0, False),
                (0, 64, 0, 1, "data", 0, False)]


@given(config=system_configs(), runs=RUNS)
@example(config=REMOVAL_CONFIG, runs=REMOVAL_RUNS)
@settings(max_examples=200, deadline=None)
def test_hierarchy_matches_reference(config, runs):
    assert hierarchy_divergence(config, runs) is None


@given(config=system_configs(), runs=RUNS)
@settings(max_examples=100, deadline=None)
def test_per_core_views_sharing_l2_l3_match_reference(config, runs):
    assert hierarchy_divergence(config, runs, cores=2) is None


#: One set of two L1 ways, no prefetchers: A, B, A (an L1 hit that must
#: stamp A), C (evicts B, the least recently used), A (hits only if the
#: hit stamped A).
STAMP_CONFIG = SystemConfig(
    l1d_cache=cache_config("L1", 1, 2, 2, "lru"),
    l2_cache=cache_config("L2", 2, 4, 5, "srrip"),
    l3_cache=cache_config("L3", 4, 4, 11, "srrip"),
    l1_prefetcher=PrefetcherConfig("none"), l2_prefetcher=PrefetcherConfig("none"))
STAMP_RUNS = [(0, address, 0, 1, "data", 0, False) for address in (0, 64, 0, 128, 0)]

#: An IP-stride stream over eight lines, then the same stream again: on the
#: second pass every candidate is already present, yet each still counts.
PRESENT_CONFIG = SystemConfig(
    l1d_cache=cache_config("L1", 2, 8, 2, "lru"),
    l2_cache=cache_config("L2", 4, 8, 5, "srrip"),
    l3_cache=cache_config("L3", 8, 4, 11, "srrip"),
    l1_prefetcher=PrefetcherConfig("ip_stride"), l2_prefetcher=PrefetcherConfig("stream"))
PRESENT_RUNS = [(0, 0, 64, 8, "data", 0x400, False)] * 2


def _skip_l1_stamp_on_hit(access_value):
    def patched(self, address, is_write=False, access_type="data", pc=0):
        l1 = self.l1
        block = address // l1.line_size
        set_index = block % l1.num_sets
        way = l1._way_maps[set_index].get(block)
        stamp = None if way is None else l1._meta[set_index][way]
        latency = access_value(self, address, is_write, access_type, pc)
        if stamp is not None and l1._blocks[set_index][way] == block:
            l1._meta[set_index][way] = stamp
        return latency
    return patched


def _count_only_new_fills(train):
    def patched(self, address, pc):
        before = self.cache.counters.get("fills_prefetch")
        train(self, address, pc)
        return self.cache.counters.get("fills_prefetch") - before
    return patched


def test_hierarchy_oracle_catches_a_missing_l1_hit_stamp(monkeypatch):
    """Sensitivity: an L1 hit written out in place that forgets the LRU
    stamp evicts the line it just served."""
    assert hierarchy_divergence(STAMP_CONFIG, STAMP_RUNS) is None
    monkeypatch.setattr(MemoryHierarchy, "access_value",
                        _skip_l1_stamp_on_hit(MemoryHierarchy.access_value))
    assert hierarchy_divergence(STAMP_CONFIG, STAMP_RUNS) is not None


def test_hierarchy_oracle_catches_counting_only_new_prefetch_fills(monkeypatch):
    """Sensitivity: a candidate whose line is already present still counts
    towards ``l1_prefetches``/``l2_prefetches``."""
    assert hierarchy_divergence(PRESENT_CONFIG, PRESENT_RUNS) is None
    for prefetcher in (IPStridePrefetcher, StreamPrefetcher):
        monkeypatch.setattr(prefetcher, "train", _count_only_new_fills(prefetcher.train))
    assert hierarchy_divergence(PRESENT_CONFIG, PRESENT_RUNS) is not None

"""Differential oracle for the per-set-list ``Cache``.

``ReferenceCache`` is the line-object cache the per-set lists replaced: one
object per way, a first-invalid/first-minimum-stamp victim and an SRRIP
loop that ages every line until one reaches the maximum RRPV.  Hypothesis
drives it and :class:`repro.memhier.cache.Cache` with the same sequences
of accesses, writes, prefetch fills, invalidations, flushes and probes, and
every observable must agree: hit/miss, the evicted block and its dirty bit,
probe answers and the counter snapshot.
"""

from collections import Counter as Tally

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig
from repro.memhier.cache import Cache


class _Line:
    __slots__ = ("tag", "valid", "dirty", "lru_stamp", "rrpv", "request_type")

    def __init__(self):
        self.tag, self.valid, self.dirty = 0, False, False
        self.lru_stamp, self.rrpv, self.request_type = 0, 3, "data"


class ReferenceCache:
    def __init__(self, config: CacheConfig):
        self.num_sets, self.line_size = config.sets, config.line_size
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

    def access(self, address, is_write, request_type):
        self.clock += 1
        set_index, tag, line = self._find(address)
        self.stats["accesses_" + request_type] += 1
        if line is not None:
            self.stats["hits_" + request_type] += 1
            line.lru_stamp, line.rrpv = self.clock, 0
            line.dirty |= is_write
            return True, None, False
        self.stats["misses_" + request_type] += 1
        return (False,) + self._fill(set_index, tag, is_write, request_type)

    def fill(self, address, request_type):
        set_index, tag, line = self._find(address)
        if line is None:
            self.stats["fills_" + request_type] += 1
            self._fill(set_index, tag, False, request_type)

    def invalidate(self, address):
        line = self._find(address)[2]
        if line is None:
            return False
        line.valid = False
        self.stats["invalidations"] += 1
        return True

    def flush(self):
        for line in (line for lines in self.sets for line in lines):
            line.valid = line.dirty = False

    def probe(self, address):
        return self._find(address)[2] is not None

    def _fill(self, set_index, tag, is_write, request_type):
        victim = self._victim(self.sets[set_index])
        evicted = (None, False)
        if victim.valid:
            evicted = (victim.tag * self.num_sets + set_index, victim.dirty)
            self.stats["evictions"] += 1
            if victim.request_type != request_type:
                self.stats["pollution_evictions_by_" + request_type] += 1
        victim.tag, victim.valid, victim.dirty = tag, True, is_write
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


#: Flushes are rare so sets fill up; fills are common so prefetched lines
#: tie demand lines on the LRU stamp.
OPS = st.lists(st.tuples(
    st.sampled_from(["read"] * 4 + ["write", "write", "fill", "fill",
                                    "invalidate", "probe", "flush"]),
    st.integers(min_value=0, max_value=63),
    st.sampled_from(["data", "ptw", "kernel"])), max_size=200)


def divergence(replacement, ways, sets, ops):
    """First op on which ``Cache`` and the reference disagree, or None."""
    config = CacheConfig("oracle", size_bytes=sets * ways * 64,
                         associativity=ways, latency=1, replacement=replacement)
    cache, reference = Cache(config), ReferenceCache(config)
    lines = 2 * sets * ways   # enough lines to evict, few enough to tie
    for step, (op, line, request_type) in enumerate(ops):
        address = line % lines * 64 + step % 64
        if op in ("read", "write"):
            result = cache.access(address, op == "write", request_type)
            got = (result.hit, result.evicted_tag, result.evicted_dirty)
            want = reference.access(address, op == "write", request_type)
        elif op == "fill":
            got, want = cache.fill(address), reference.fill(address, "prefetch")
        elif op == "invalidate":
            got, want = cache.invalidate(address), reference.invalidate(address)
        elif op == "flush":
            got, want = cache.flush(), reference.flush()
        else:
            got, want = cache.probe(address), reference.probe(address)
        stats = {key: value for key, value in cache.stats().items() if value}
        if got != want or stats != dict(reference.stats):
            return step, op, got, want
    probes = [cache.probe(line * 64) for line in range(lines)]
    if probes != [reference.probe(line * 64) for line in range(lines)]:
        return "final probes", probes
    return None


@given(replacement=st.sampled_from(["lru", "srrip"]),
       ways=st.integers(min_value=1, max_value=16),
       sets=st.sampled_from([1, 2, 4]), ops=OPS)
@settings(max_examples=300, deadline=None)
def test_cache_matches_line_object_reference(replacement, ways, sets, ops):
    assert divergence(replacement, ways, sets, ops) is None


def _last_maximum_victim(self, set_index):
    meta = self._meta[set_index]
    top = max(meta)
    self._age[set_index] = self.SRRIP_MAX_RRPV - top
    return len(meta) - 1 - meta[::-1].index(top)


def test_oracle_catches_a_last_maximum_srrip_victim(monkeypatch):
    """Sensitivity: picking the last line at the maximum RRPV instead of the
    first is a plausible one-token slip; the oracle must see it."""
    ops = [("read", line, "data") for line in (0, 1, 2, 3, 4, 0, 5, 6)]
    assert divergence("srrip", 4, 1, ops) is None
    monkeypatch.setattr(Cache, "_choose_victim", _last_maximum_victim)
    assert divergence("srrip", 4, 1, ops) is not None


@pytest.mark.parametrize("replacement", ["lru", "srrip"])
def test_eviction_reports_the_displaced_block(replacement):
    cache = Cache(CacheConfig("one", size_bytes=64, associativity=1, latency=1,
                              replacement=replacement))
    cache.access(0x1234, is_write=True)
    result = cache.access(0x5678)
    assert (result.evicted_tag, result.evicted_dirty) == (0x1234 // 64, True)

"""Differential exactness oracle for the one LRU replacement primitive.

Every translation-side cache replaces entries through
:class:`repro.common.lru.LRU`.  The parity lattice cannot catch a mistake
in that primitive: its record was made with the same primitive.  So this
file keeps a reference model of the semantics the caches had before the
port — a clock, a stamp per entry and a ``min`` victim scan, with range
caches scanned in first-inserted order — and drives it and each ported structure
through the same Hypothesis sequences of lookup, fill, invalidate and
flush.  Hit/miss results, eviction counts and final contents (in recency
order) must agree step by step.
"""

import itertools
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.addresses import PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.config import TLBConfig
from repro.common.lru import LRU, RangeCache
from repro.mimicos.page_cache import PageCache
from repro.mmu.nested import _NestedTLB
from repro.mmu.tlb import TLB
from repro.pagetables.midgard import _VMARange
from repro.pagetables.radix import PageWalkCache
from repro.pagetables.rmm import RangeLookasideBuffer, VirtualRange
from repro.pagetables.utopia import _SmallCache


class StampModel:
    """The pre-port LRU: a clock, a stamp per entry and a ``min`` victim scan.

    ``values`` keeps first-inserted order, the range caches' scan order.
    Sets of one cache share ``clock``, as the TLB's sets did.
    """

    def __init__(self, capacity, clock=None):
        self.capacity = capacity
        self.clock = clock if clock is not None else itertools.count(1)
        self.values, self.stamps = {}, {}
        self.evictions = 0

    def touch(self, key):
        self.stamps[key] = next(self.clock)

    def victim(self):
        if len(self.values) < self.capacity:
            return None
        return min(self.stamps, key=self.stamps.get)

    def put(self, key, value):
        if key not in self.values and len(self.values) >= self.capacity:
            victim = self.victim()
            del self.values[victim], self.stamps[victim]
            self.evictions += 1
        self.values[key] = value
        self.touch(key)

    def remove(self, key):
        self.stamps.pop(key, None)
        return self.values.pop(key, None) is not None

    def clear(self):
        self.values.clear()
        self.stamps.clear()

    def scan(self, address):
        for key, entry in self.values.items():
            if entry.contains(address):
                self.touch(key)
                return entry
        return None

    def recency(self):
        return [(key, self.values[key]) for key in sorted(self.stamps, key=self.stamps.get)]


#: One operation: (kind, x, y); each structure maps x and y onto its keys.
OPS = st.lists(st.tuples(st.sampled_from(("lookup", "fill", "invalidate", "flush")),
                         st.integers(0, 23), st.integers(0, 5)),
               max_size=80)
ORACLE = settings(max_examples=120, deadline=None)
PAGE_SIZES = (PAGE_SIZE_4K, PAGE_SIZE_2M, PAGE_SIZE_1G)


# --------------------------------------------------------------------- #
# One checker per ported structure
# --------------------------------------------------------------------- #
def check_lru(ops, capacity=3):
    lru, model = LRU(capacity), StampModel(capacity)
    for kind, x, y in ops:
        if kind == "lookup":
            assert (x in lru) == (x in model.values)
            if x in lru:
                lru.move_to_end(x)
                model.touch(x)
        elif kind == "fill":
            expected = model.victim() if x not in model.values else None
            evicted = lru.put(x, y)
            assert (evicted and evicted[0]) == expected
            model.put(x, y)
        elif kind == "invalidate":
            assert (lru.pop(x, None) is not None) == model.remove(x)
        else:
            lru.clear()
            model.clear()
    assert list(lru.items()) == model.recency()


def tlb_address(x, y):
    return (x % 6) * PAGE_SIZE_4K + (x // 6) * PAGE_SIZE_2M + (y % 2) * PAGE_SIZE_1G


def check_tlb(ops, page_sizes, ways=2, num_sets=2):
    tlb = TLB(TLBConfig("T", entries=ways * num_sets, associativity=ways, latency=1,
                        page_sizes=page_sizes))
    clock = itertools.count(1)
    model = [StampModel(ways, clock) for _ in range(num_sets)]

    def slot(address, size):
        vpn = address // size
        return model[vpn % num_sets], (vpn, size)

    for kind, x, y in ops:
        address = tlb_address(x, y)
        if kind == "lookup":
            expected = None
            for size in page_sizes:
                reference, key = slot(address, size)
                if key in reference.values:
                    reference.touch(key)
                    expected = reference.values[key]
                    break
            assert tlb.lookup(address) == expected
        elif kind == "fill":
            size = PAGE_SIZES[y % 3]
            physical_base = (x * 7 + y) * PAGE_SIZE_2M
            if size in page_sizes:
                reference, key = slot(address, size)
                reference.put(key, (physical_base, size))
            tlb.fill(address, physical_base, size)
        elif kind == "invalidate":
            for size in page_sizes:
                reference, key = slot(address, size)
                reference.remove(key)
            tlb.invalidate(address)
        else:
            for reference in model:
                reference.clear()
            tlb.flush()
    assert tlb.counters.get("evictions") == sum(m.evictions for m in model)
    for reference, entries in zip(model, tlb._sets):
        assert list(entries.items()) == reference.recency()


def check_pwc(ops, ways=2, num_sets=2):
    pwc = PageWalkCache("PWC", entries=ways * num_sets, associativity=ways,
                        coverage_shift=12)
    clock = itertools.count(1)
    model = [StampModel(ways, clock) for _ in range(num_sets)]
    for kind, x, _y in ops:
        reference = model[x % num_sets]
        if kind == "lookup":
            hit = x in reference.values
            if hit:
                reference.touch(x)
            assert pwc.lookup(x * PAGE_SIZE_4K) == hit
        elif kind == "fill":
            reference.put(x, True)
            pwc.fill(x * PAGE_SIZE_4K)
        elif kind == "invalidate":
            reference.remove(x)
            pwc.invalidate(x * PAGE_SIZE_4K)
    for reference, entries in zip(model, pwc._sets):
        assert list(entries.items()) == reference.recency()


def check_nested_tlb(ops, capacity=4):
    nested, model = _NestedTLB(capacity), StampModel(capacity)
    for kind, x, y in ops:
        guest_virtual = (x % 12) * PAGE_SIZE_4K + (x // 12) * PAGE_SIZE_2M
        vpn = guest_virtual // PAGE_SIZE_4K
        if kind == "lookup":
            expected = model.values.get(vpn)
            if expected is not None:
                model.touch(vpn)
            assert nested.lookup(guest_virtual) == expected
        elif kind == "fill":
            page_size = PAGE_SIZES[y % 2]
            model.put(vpn, (y * PAGE_SIZE_2M, page_size))
            nested.fill(guest_virtual, y * PAGE_SIZE_2M, page_size)
        elif kind == "invalidate":
            dead = [key for key, (_host, size) in model.values.items()
                    if (key * PAGE_SIZE_4K) // size * size <= guest_virtual
                    < (key * PAGE_SIZE_4K) // size * size + size]
            for key in dead:
                model.remove(key)
            assert nested.invalidate(guest_virtual) == bool(dead)
        else:
            expected = bool(model.values)
            model.clear()
            assert nested.flush() == expected
    assert list(nested._store.items()) == model.recency()


def check_range_cache(ops, cache, make_range, capacity=3):
    """RMM's RLB and Midgard's VLB: overlapping ranges, oldest match wins."""
    model = StampModel(capacity)
    lookups = hits = 0
    for kind, x, y in ops:
        start = (x % 8) * PAGE_SIZE_4K
        if kind == "lookup":
            expected = model.scan(x * PAGE_SIZE_4K)
            lookups += 1
            hits += expected is not None
            assert cache.lookup(x * PAGE_SIZE_4K) is expected
        elif kind == "fill":
            entry = make_range(start, start + (y + 1) * PAGE_SIZE_4K, (x + 1) * PAGE_SIZE_2M)
            model.put(start, entry)
            cache.fill(entry)
        elif kind == "invalidate" and hasattr(cache, "invalidate"):
            model.remove(start)
            cache.invalidate(start)
    assert (cache.hits, cache.misses) == (hits, lookups - hits)
    assert list(cache._ranges.items()) == list(model.values.items())
    assert list(cache._recency) == [key for key, _entry in model.recency()]


def check_small_cache(ops, capacity=3):
    cache, model = _SmallCache(capacity, latency=2), StampModel(capacity)
    for kind, x, _y in ops:
        if kind == "lookup":
            hit = x in model.values
            if hit:
                model.touch(x)
            assert cache.lookup(x) == hit
        elif kind == "fill":
            model.put(x, True)
            cache.fill(x)
    assert list(cache._store.items()) == model.recency()


def check_page_cache(ops, capacity=3):
    cache, model = PageCache(capacity * PAGE_SIZE_4K), StampModel(capacity)
    insertions = 0
    for kind, x, y in ops:
        key = (y % 2, x)
        if kind == "lookup":
            hit = key in model.values
            if hit:
                model.touch(key)
            assert cache.lookup(*key) == hit
        elif kind == "fill":
            if key in model.values:
                model.touch(key)
            else:
                model.put(key, True)
                insertions += 1
            cache.insert(*key)
    assert cache.counters.get("evictions") == model.evictions
    assert cache.counters.get("insertions") == insertions
    assert list(cache._pages.items()) == model.recency()


CHECKERS = {
    "lru": check_lru,
    "tlb-4k": lambda ops: check_tlb(ops, (PAGE_SIZE_4K,)),
    "tlb-2m": lambda ops: check_tlb(ops, (PAGE_SIZE_2M,)),
    "tlb-unified": lambda ops: check_tlb(ops, PAGE_SIZES),
    "pwc": check_pwc,
    "nested-tlb": check_nested_tlb,
    "rlb": lambda ops: check_range_cache(ops, RangeLookasideBuffer(3, 9), VirtualRange),
    "vlb": lambda ops: check_range_cache(ops, RangeCache(3, 1), _VMARange),
    "utopia-sf-tar": check_small_cache,
    "page-cache": check_page_cache,
}


@pytest.mark.parametrize("name", sorted(CHECKERS))
@ORACLE
@given(ops=OPS)
def test_port_matches_the_stamp_model(name, ops):
    CHECKERS[name](ops)


# --------------------------------------------------------------------- #
# The oracle is not vacuous
# --------------------------------------------------------------------- #
def fixed_ops(seed=7, length=300):
    """A fixed sequence with many evictions in every structure."""
    rng = random.Random(seed)
    kinds = rng.choices(("lookup", "fill", "invalidate", "flush"), weights=(10, 10, 2, 1),
                        k=length)
    return [(kind, rng.randrange(24), rng.randrange(6)) for kind in kinds]


@pytest.mark.parametrize("name", sorted(CHECKERS))
def test_oracle_fails_when_the_victim_is_the_last_key(name, monkeypatch):
    CHECKERS[name](fixed_ops())
    monkeypatch.setattr(LRU, "popitem",
                        lambda self, last=True: OrderedDict.popitem(self, last=True))
    with pytest.raises(AssertionError):
        CHECKERS[name](fixed_ops())


def test_range_caches_scan_in_first_inserted_order():
    """Overlapping ranges: the oldest cached range answers even when a newer
    overlapping range is more recently used."""
    rlb = RangeLookasideBuffer(entries=4, latency=9)
    wide = VirtualRange(0, 8 * PAGE_SIZE_4K, 0x100000)
    narrow = VirtualRange(2 * PAGE_SIZE_4K, 4 * PAGE_SIZE_4K, 0x900000)
    rlb.fill(wide)
    rlb.fill(narrow)
    assert rlb.lookup(2 * PAGE_SIZE_4K) is wide
    rlb.lookup(3 * PAGE_SIZE_4K)
    assert list(rlb._recency) == [narrow.virtual_start, wide.virtual_start]

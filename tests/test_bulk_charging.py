"""Oracle for charging a compute run by binade (``repro.core.cpu.add_repeated``).

``CoreModel.execute_kernel_batch`` charges a run of ``n`` compute
instructions as ``n`` in-order additions of ``base_cpi`` to two float
accumulators.  ``add_repeated`` gives the same sums one binade at a time,
and returns the binade ``(lo, hi, step)`` that the kernel loop's fast path
reuses for the next runs.  The reference is the per-step loop itself.  Both
the sum and every follow-up run the returned binade admits must match it
bit for bit, on both sides of every binade edge from 2**-3 to 2**40, in
the tie binade (``0.35`` is an odd multiple of half the ulp of ``[1, 2)``)
and on random ``(start, c, length)`` triples.
"""

import math
import random

import pytest

from repro.core.cpu import add_repeated

#: Follow-up run lengths tried on the binade each call returns.
FOLLOW_UPS = (1, 2, 7, 33, 400)


def per_step(x: float, n: int, c: float) -> float:
    for _ in range(n):
        x += c
    return x


def divergence(x: float, n: int, c: float):
    """The first way ``add_repeated(x, n, c)`` differs from the loop, or None."""
    total, lo, hi, step = add_repeated(x, n, c)
    want = per_step(x, n, c)
    if total.hex() != want.hex():
        return "sum", x, n, c, total, want
    for m in FOLLOW_UPS:
        charged = total + m * step
        if lo <= total and charged < hi:
            want = per_step(total, m, c)
            if charged.hex() != want.hex():
                return "follow-up", total, m, c, charged, want
    return None


def edge_starts(c: float):
    """Starts just below, at and just above every binade edge 2**-3..2**40."""
    for exponent in range(-3, 41):
        edge = 2.0 ** exponent
        for start in (edge - 3 * c, edge - 2 * c, edge - c, math.nextafter(edge, 0.0),
                      edge, math.nextafter(edge, math.inf), edge + c):
            if start >= 0.0:
                yield start


def random_costs(rng: random.Random, count: int):
    return [rng.choice([rng.uniform(0.0, 4.0), 2.0 ** rng.uniform(-12.0, 12.0),
                        rng.randint(1, 64) / 20.0]) for _ in range(count)]


def edge_divergences(costs):
    for c in costs:
        for start in edge_starts(c):
            for n in (1, 2, 3, 4, 9, 64, 1000):
                found = divergence(start, n, c)
                if found is not None:
                    yield found


def test_0_35_has_a_tie_binade():
    """``0.35`` rounds by a different step at each add in ``[1, 2)``."""
    assert (0.35 / math.ulp(1.0)) % 1.0 == 0.5


def test_every_binade_edge_for_0_35_and_random_costs():
    costs = [0.35, 1.0, 0.5] + random_costs(random.Random(11), 24)
    assert next(edge_divergences(costs), None) is None


def test_random_triples():
    rng = random.Random(2027)
    costs = [0.35] + random_costs(rng, 96)
    for _ in range(50_000):
        c = rng.choice(costs)
        start = rng.choice([0.0, rng.uniform(0.0, 8.0), 2.0 ** rng.uniform(-4.0, 41.0),
                            rng.randint(0, 1 << 20) * c])
        length = rng.choice([rng.randint(0, 8), rng.randint(0, 200)])
        assert divergence(start, length, c) is None


@pytest.mark.parametrize("c", [0.0, -0.35, math.inf, math.nan])
def test_costs_outside_the_fast_domain_add_one_at_a_time(c):
    for start in (0.0, 1.5, 1e6):
        total = add_repeated(start, 9, c)[0]
        assert total.hex() == per_step(start, 9, c).hex()

"""Deterministic random-number helpers.

Every stochastic component of the simulator (workload generators, hash
functions with salts, fragmentation injection, the reference-system noise
model) draws from a :class:`DeterministicRNG` seeded explicitly, so any
experiment is exactly reproducible from its configuration.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRNG:
    """A seeded random source with the handful of draws the simulator needs.

    Wraps :class:`random.Random` rather than numpy's generator because most
    draws are scalar and interleaved with Python control flow, and the
    simulator depends on nothing outside the standard library.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._random = random.Random(seed)

    def fork(self, salt: int) -> "DeterministicRNG":
        """Return an independent RNG derived from this one's seed and ``salt``.

        Forking keeps components independent: adding draws to one component
        does not perturb the stream seen by another.
        """
        return DeterministicRNG((self.seed * 1_000_003 + salt) & 0xFFFFFFFF)

    def snapshot(self) -> List[object]:
        """The exact position of this RNG's stream, as a JSON-able value.

        The snapshot captures the full Mersenne-Twister state (not just the
        seed), so :meth:`restore` resumes the stream mid-flight: the fuzzer
        stores the generator cursor alongside each reproducer, and simulator
        checkpoint/restore can serialise every component RNG losslessly.
        """
        version, internal, gauss_next = self._random.getstate()
        return [version, list(internal), gauss_next]

    def restore(self, state: Sequence[object]) -> None:
        """Rewind this RNG to a :meth:`snapshot` (accepts the JSON round-trip
        of one: the internal state may arrive as a list)."""
        version, internal, gauss_next = state
        self._random.setstate((version, tuple(internal), gauss_next))

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    def random_list(self, count: int) -> List[float]:
        """``count`` uniform floats, drawn from the *same* stream as
        :meth:`random`.

        Bulk helper for the workload generators: calling ``random_list(n)``
        consumes exactly the draws that ``n`` scalar :meth:`random` calls
        would, so array-building code can hoist its draws without perturbing
        reproducibility.
        """
        random = self._random.random
        return [random() for _ in range(count)]

    def randint_list(self, low: int, high: int, count: int) -> List[int]:
        """``count`` uniform integers in ``[low, high]``, stream-exact with
        ``count`` scalar :meth:`randint` calls (see :meth:`random_list`)."""
        randint = self._random.randint
        return [randint(low, high) for _ in range(count)]

    def lognormvariate(self, mu: float, sigma: float) -> float:
        """Log-normally distributed float."""
        return self._random.lognormvariate(mu, sigma)

    def choice(self, items: Sequence[T]) -> T:
        """Pick one element uniformly."""
        return self._random.choice(items)

    def choices(self, items: Sequence[T], weights: Sequence[float], k: int) -> List[T]:
        """Pick ``k`` elements with replacement, weighted."""
        return self._random.choices(items, weights=weights, k=k)

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        """Pick ``k`` distinct elements."""
        return self._random.sample(items, k)

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """Draw an index in ``[0, n)`` following an (approximate) Zipf law.

        Used by the graph-workload generators to produce the power-law vertex
        popularity that gives graph analytics their irregular, TLB-hostile
        access patterns.  A loop drawing with one ``n`` and ``skew`` binds
        :meth:`zipf_sampler` once instead.
        """
        return self.zipf_sampler(n, skew)()

    def zipf_sampler(self, n: int, skew: float = 1.0) -> Callable[[], int]:
        """:meth:`zipf_index` for a fixed ``n`` and ``skew``: each call of the
        returned function consumes the same draw and returns the same index
        as ``zipf_index(n, skew)`` at that point of the stream."""
        if n <= 0:
            raise ValueError("n must be positive")
        if n == 1:
            return _zero
        random = self._random.random
        last = n - 1
        # Inverse-CDF approximation of a bounded Zipf distribution.
        if skew == 1.0:
            # Harmonic normalisation approximated with log(n).
            def draw() -> int:
                index = int(n ** random()) - 1
                return 0 if index < 0 else last if index > last else index
        else:
            exponent = 1.0 - skew
            scale = n ** exponent - 1.0
            inverse = 1.0 / exponent

            def draw() -> int:
                index = int((scale * random() + 1.0) ** inverse) - 1
                return 0 if index < 0 else last if index > last else index
        return draw


def _zero() -> int:
    return 0

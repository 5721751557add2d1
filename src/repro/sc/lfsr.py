"""Maximal-length linear feedback shift registers (LFSRs).

GEO generates stochastic streams with deterministic, repeatable
pseudo-random numbers from maximal-length LFSRs (paper Sec. II-A): when
generating streams of length ``2**n`` an ``n``-bit maximal-length LFSR with
cycle ``2**n - 1`` is used. Determinism is the key property — the same
input and seed always produce the same stream, which lets training absorb
the fixed generation error.

This module implements Fibonacci-configuration LFSRs with a table of
maximal-length tap sets for widths 2..24, multiple alternative maximal
polynomials per width (GEO varies the seed *or the characteristic
polynomial* to obtain uncorrelated streams), and a cached full-period
sequence generator so stream generation reduces to a vectorized compare.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError

# Maximal-length tap sets (Fibonacci form, 1-indexed bit positions where
# bit ``width`` is the output bit), from the standard Xilinx XAPP052 /
# Wayne Stahnke tables. The first entry per width is the default
# polynomial; additional entries are alternative maximal polynomials used
# when streams must be decorrelated by varying the characteristic
# polynomial rather than the seed.
MAXIMAL_TAPS: dict[int, tuple[tuple[int, ...], ...]] = {
    2: ((2, 1),),
    3: ((3, 2), (3, 1)),
    4: ((4, 3), (4, 1)),
    5: ((5, 3), (5, 2), (5, 4, 3, 2), (5, 4, 2, 1)),
    6: ((6, 5), (6, 1), (6, 5, 2, 1), (6, 5, 3, 2)),
    7: ((7, 6), (7, 1), (7, 3), (7, 4), (7, 6, 5, 4), (7, 5, 4, 3)),
    8: (
        (8, 6, 5, 4),
        (8, 7, 6, 1),
        (8, 7, 5, 3),
        (8, 7, 3, 2),
        (8, 6, 5, 3),
        (8, 6, 5, 2),
        (8, 6, 5, 1),
        (8, 7, 6, 5, 4, 2),
    ),
    9: ((9, 5), (9, 4), (9, 8, 6, 5), (9, 8, 7, 2)),
    10: ((10, 7), (10, 3), (10, 9, 7, 6), (10, 8, 5, 1)),
    11: ((11, 9), (11, 2), (11, 10, 9, 7), (11, 8, 5, 2)),
    12: ((12, 11, 10, 4), (12, 6, 4, 1), (12, 11, 8, 6), (12, 9, 8, 5)),
    13: ((13, 12, 11, 8), (13, 4, 3, 1), (13, 12, 10, 9), (13, 12, 11, 2)),
    14: ((14, 13, 12, 2), (14, 12, 11, 1), (14, 13, 11, 9), (14, 5, 3, 1)),
    15: ((15, 14), (15, 1), (15, 4), (15, 7), (15, 14, 13, 11)),
    16: ((16, 15, 13, 4), (16, 14, 13, 11), (16, 15, 10, 4), (16, 12, 3, 1)),
    17: ((17, 14), (17, 3), (17, 16, 15, 14)),
    18: ((18, 11), (18, 7), (18, 17, 16, 13)),
    19: ((19, 18, 17, 14), (19, 6, 2, 1), (19, 18, 15, 14)),
    20: ((20, 17), (20, 3), (20, 19, 16, 14)),
    21: ((21, 19), (21, 2), (21, 20, 19, 16)),
    22: ((22, 21), (22, 1), (22, 19, 18, 17)),
    23: ((23, 18), (23, 5), (23, 22, 20, 18)),
    24: ((24, 23, 22, 17), (24, 23, 21, 20)),
}

MIN_WIDTH = min(MAXIMAL_TAPS)
MAX_WIDTH = max(MAXIMAL_TAPS)


def num_polynomials(width: int) -> int:
    """Number of alternative maximal polynomials available for ``width``."""
    _check_width(width)
    return len(MAXIMAL_TAPS[width])


def _check_width(width: int) -> None:
    if width not in MAXIMAL_TAPS:
        raise ConfigurationError(
            f"no maximal-length tap set for width {width}; "
            f"supported widths are {MIN_WIDTH}..{MAX_WIDTH}"
        )


def _taps_for(width: int, polynomial: int) -> tuple[int, ...]:
    _check_width(width)
    table = MAXIMAL_TAPS[width]
    return table[polynomial % len(table)]


class LFSR:
    """A Fibonacci-configuration maximal-length LFSR.

    Parameters
    ----------
    width:
        Register width in bits. The period is ``2**width - 1``.
    seed:
        Initial state, ``1 <= seed <= 2**width - 1``. The all-zero state is
        a lockup state and is rejected.
    polynomial:
        Index selecting among the alternative maximal polynomials for this
        width (wraps modulo the table size). Varying the polynomial gives
        streams that are uncorrelated even at equal seeds.

    Examples
    --------
    >>> lfsr = LFSR(width=4, seed=1)
    >>> states = [lfsr.step() for _ in range(15)]
    >>> len(set(states))       # maximal length: all nonzero states visited
    15
    """

    def __init__(self, width: int, seed: int = 1, polynomial: int = 0):
        _check_width(width)
        period = (1 << width) - 1
        seed = int(seed)
        if not 1 <= seed <= period:
            raise ConfigurationError(
                f"LFSR seed must be in [1, {period}] for width {width}, "
                f"got {seed}"
            )
        self.width = width
        self.seed = seed
        self.polynomial = polynomial % len(MAXIMAL_TAPS[width])
        self.taps = _taps_for(width, polynomial)
        self.state = seed

    @property
    def period(self) -> int:
        return (1 << self.width) - 1

    def step(self) -> int:
        """Advance one cycle and return the new state."""
        feedback = 0
        for tap in self.taps:
            feedback ^= (self.state >> (tap - 1)) & 1
        self.state = ((self.state << 1) | feedback) & self.period
        return self.state

    def reset(self, seed: int | None = None) -> None:
        """Reset to ``seed`` (or the construction seed)."""
        if seed is not None:
            if not 1 <= int(seed) <= self.period:
                raise ConfigurationError(
                    f"LFSR seed must be in [1, {self.period}], got {seed}"
                )
            self.seed = int(seed)
        self.state = self.seed

    def sequence(self, length: int) -> np.ndarray:
        """Return the next ``length`` states *without* mutating this LFSR.

        The values are the register states after each step, starting from
        the current state's successor — i.e. the same values ``step()``
        would return. Uses the cached full-period table, so repeated calls
        are O(length) copies.
        """
        base, index = _period_table(self.width, self.polynomial)
        start = index[self.state]
        idx = (start + 1 + np.arange(length)) % self.period
        return base[idx]


@lru_cache(maxsize=64)
def _period_table(width: int, polynomial: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-period state sequence for (width, polynomial), plus its inverse
    permutation: ``index[state]`` is the position of ``state`` in the
    sequence (``index[0]`` is unused). Cached because every SNG in a layer
    reuses it."""
    lfsr = LFSR(width, seed=1, polynomial=polynomial)
    period = lfsr.period
    states = np.empty(period, dtype=np.int64)
    state = lfsr.state
    for i in range(period):
        states[i] = state
        state = lfsr.step()
    if state != states[0]:
        raise ConfigurationError(
            f"tap set {lfsr.taps} for width {width} is not maximal-length"
        )
    index = np.zeros(period + 1, dtype=np.int64)
    index[states] = np.arange(period)
    return states, index


def lfsr_sequence(
    width: int, seed: int = 1, polynomial: int = 0, length: int | None = None
) -> np.ndarray:
    """Vectorized LFSR state sequence starting *at* ``seed``.

    Unlike :meth:`LFSR.sequence`, the returned sequence includes the seed
    itself as element 0, which is the convention the SNG model uses (the
    register holds the seed during the first generation cycle).

    Parameters
    ----------
    length:
        Number of states; defaults to the full period ``2**width - 1``.
    """
    return lfsr_sequences(width, [int(seed)], polynomial, length)[0]


def lfsr_sequences(
    width: int,
    seeds: np.ndarray | list[int],
    polynomial: int = 0,
    length: int | None = None,
) -> np.ndarray:
    """:func:`lfsr_sequence` for many seeds of one polynomial at once.

    Returns shape ``(len(seeds), length)``; row ``i`` starts at
    ``seeds[i]``. One gather from the cached period table, so the cost is
    ``O(len(seeds) * length)`` with no per-seed Python work.
    """
    _check_width(width)
    period = (1 << width) - 1
    seeds = np.asarray(seeds, dtype=np.int64).ravel()
    if seeds.size and (seeds.min() < 1 or seeds.max() > period):
        bad = seeds[(seeds < 1) | (seeds > period)][0]
        raise ConfigurationError(
            f"LFSR seed must be in [1, {period}] for width {width}, got {bad}"
        )
    if length is None:
        length = period
    base, index = _period_table(width, polynomial % len(MAXIMAL_TAPS[width]))
    idx = (index[seeds][:, None] + np.arange(length)) % period
    return base[idx]

"""Random number sources feeding stochastic number generators.

A stochastic number generator compares an n-bit random value against the
n-bit target value every cycle (paper Sec. I). The random source determines
both the error profile and whether training can compensate for it:

* :class:`LFSRSource` — deterministic, repeatable pseudo-random values from
  maximal-length LFSRs. GEO's choice: the same input always yields the
  same stream, so the network trains against a *fixed* error.
* :class:`TRNGSource` — a true random number generator stand-in. The paper
  lacked a hardware TRNG and approximated it with ``torch.rand``
  (footnote 1); we use numpy's PCG64 in the same role. Streams differ on
  every draw, so the error floor is irreducible by training.
* :class:`SobolSource` — a low-discrepancy (LD) sequence source. Included
  because Sec. II-A argues LD sequences are *unsuitable* for OR
  accumulation (hard to decorrelate many streams); the fig1 experiment can
  demonstrate that claim.

All sources produce integer values in ``[1, 2**width - 1]`` (the nonzero
n-bit range of LFSR states; the other sources are mapped into the same
range so the comparator convention ``bit = rand <= target`` gives every
source the same transfer function) with shape ``(num_streams, length)``
through :meth:`RandomSource.bank`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sc.lfsr import lfsr_sequences, num_polynomials


class RandomSource(ABC):
    """Common interface for SNG random sources."""

    def __init__(self, width: int):
        if width < 1:
            raise ConfigurationError(f"RNG width must be >= 1, got {width}")
        self.width = int(width)

    @property
    def deterministic(self) -> bool:
        """True when the same seed always produces the same sequence."""
        return True

    @abstractmethod
    def bank(self, seeds: Sequence[int] | np.ndarray, length: int) -> np.ndarray:
        """Random value bank of shape ``(len(seeds), length)``.

        ``seeds`` identify logical generators: equal seeds must return
        identical rows for deterministic sources (that is what seed sharing
        *means*), and independent rows for nondeterministic ones.
        """

    def max_unique_seeds(self) -> int:
        """Number of distinct sequences this source can provide."""
        return (1 << self.width) - 1


class LFSRSource(RandomSource):
    """Maximal-length LFSR random source (deterministic, repeatable).

    Seeds map to (state, polynomial) pairs: seed values beyond the LFSR
    period select alternative maximal polynomials, matching GEO's strategy
    of "varying the seed or the characteristic polynomial" to obtain
    uncorrelated streams.
    """

    def __init__(self, width: int):
        super().__init__(width)
        self._period = (1 << width) - 1

    def max_unique_seeds(self) -> int:
        return self._period * num_polynomials(self.width)

    def bank(self, seeds: Sequence[int] | np.ndarray, length: int) -> np.ndarray:
        logical = np.asarray(seeds, dtype=np.int64).ravel() % self.max_unique_seeds()
        polys, states = np.divmod(logical, self._period)
        out = np.empty((logical.size, length), dtype=np.int64)
        for poly in np.unique(polys):
            rows = polys == poly
            out[rows] = lfsr_sequences(
                self.width, states[rows] + 1, polynomial=int(poly), length=length
            )
        return out


class TRNGSource(RandomSource):
    """True-RNG stand-in using numpy PCG64 (paper footnote 1 used
    ``torch.rand`` for the same purpose).

    ``fresh_draws=True`` (the default) re-randomizes on every call, which
    models real TRNG hardware: the training loop can never see the same
    stream twice. ``fresh_draws=False`` freezes the draw per (seed, call
    index) — useful only for unit tests.
    """

    def __init__(self, width: int, root_seed: int = 0, fresh_draws: bool = True):
        super().__init__(width)
        self.fresh_draws = fresh_draws
        self._rng = np.random.default_rng(root_seed)
        self._root_seed = root_seed
        self._calls = 0

    @property
    def deterministic(self) -> bool:
        return False

    def max_unique_seeds(self) -> int:
        return 2**63

    def bank(self, seeds: Sequence[int] | np.ndarray, length: int) -> np.ndarray:
        seeds = np.asarray(seeds, dtype=np.int64)
        if self.fresh_draws:
            rng = self._rng
        else:
            rng = np.random.default_rng((self._root_seed, self._calls))
        self._calls += 1
        # Equal seeds share a row (that is what sharing a TRNG means
        # physically: one generator fans out to several comparators).
        unique, inverse = np.unique(seeds.ravel(), return_inverse=True)
        rows = rng.integers(
            1, 1 << self.width, size=(unique.size, length), dtype=np.int64
        )
        return rows[inverse]


class SobolSource(RandomSource):
    """Low-discrepancy source: bit-reversed van der Corput / Sobol' points.

    Dimension ``d`` (derived from the seed) selects the Sobol' dimension.
    Only a handful of genuinely uncorrelated dimensions exist at short
    lengths — which is precisely the paper's argument for why LD sequences
    fail under OR accumulation at scale.
    """

    def __init__(self, width: int, max_dimensions: int = 64):
        super().__init__(width)
        self.max_dimensions = max_dimensions
        from scipy.stats import qmc  # local import: scipy only needed here

        self._engine_cls = qmc.Sobol

    def max_unique_seeds(self) -> int:
        return self.max_dimensions

    def bank(self, seeds: Sequence[int] | np.ndarray, length: int) -> np.ndarray:
        seeds = np.asarray(seeds, dtype=np.int64)
        dims = seeds.ravel() % self.max_dimensions
        ndim = int(dims.max()) + 1 if dims.size else 1
        engine = self._engine_cls(d=ndim, scramble=False)
        points = engine.random(length)  # (length, ndim) in [0, 1)
        values = np.floor(points * ((1 << self.width) - 1)).astype(np.int64) + 1
        values = np.clip(values, 1, (1 << self.width) - 1)
        return values.T[dims]


def make_source(kind: str, width: int, **kwargs) -> RandomSource:
    """Factory by name: ``"lfsr"``, ``"trng"``, or ``"sobol"``."""
    kind = kind.lower()
    if kind == "lfsr":
        return LFSRSource(width)
    if kind == "trng":
        return TRNGSource(width, **kwargs)
    if kind == "sobol":
        return SobolSource(width, **kwargs)
    raise ConfigurationError(f"unknown random source kind: {kind!r}")

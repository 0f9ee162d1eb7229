"""Photon-pair source: Poissonian pair emission on a comb of frequency modes.

Pairs are created at Poisson times with a total rate across all active
modes; each pair lands on one mode, which both members share.  The temporal
correlation between the two members follows a two-sided exponential whose
decay constant is set by the source linewidth:

    tau_c = 1 / (2 * pi * linewidth)

which is the coincidence profile of a Lorentzian line.  ``sample_pairs``
draws the creation times and modes; the herald member leaves at the
creation time and the signal member ``pair_delays`` later.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import intervals as iv
from .domains import Checked, ScenarioError, check, ranged


@dataclass(frozen=True)
class SourceConfig(Checked):
    """Pair source settings.

    ``total_pair_rate`` is pairs/s summed over all active modes; the mode
    weights default to uniform.  Modes outside the conversion band never
    reach the memory and are not generated.
    """

    total_pair_rate: float = ranged(">= 0")
    n_modes: int = ranged(">= 1", 25)
    fsr: float = ranged("> 0", 117.2e6)
    linewidth: float = ranged("> 0", 7.1e6)
    mode_weights: Optional[Sequence[float]] = None

    def __post_init__(self):
        super().__post_init__()
        if self.mode_weights is not None:
            w = np.asarray(self.mode_weights, dtype=np.float64)
            if len(w) != self.n_modes:
                raise ScenarioError("mode_weights", "length must equal n_modes")
            if not np.all(w >= 0):
                raise ScenarioError("mode_weights", "must be nonnegative")
            if not math.isclose(float(w.sum()), 1.0, rel_tol=0, abs_tol=1e-9):
                raise ScenarioError("mode_weights", "must sum to 1")

    @property
    def coherence_time(self) -> float:
        """Pair correlation decay constant tau_c (s)."""
        return 1.0 / (2.0 * math.pi * self.linewidth)

    def weights(self) -> np.ndarray:
        if self.mode_weights is None:
            return np.full(self.n_modes, 1.0 / self.n_modes)
        return np.asarray(self.mode_weights, dtype=np.float64)

    def mode_offsets(self) -> np.ndarray:
        return tpc_mode_offsets(self.n_modes, self.fsr)

    def thinned(self, keep: np.ndarray) -> "SourceConfig":
        """The source of the pairs that are kept, each independently with
        probability ``keep[m]`` on its mode m.

        A thinned Poisson process is again Poisson (Kingman, *Poisson
        Processes*, 1993, sec. 5.1): the kept pairs arrive at
        ``total_pair_rate * sum(w * keep)`` with modes weighted by
        ``w * keep``.  When nothing can be kept the rate is 0 and the
        weights stay as they are."""
        w = self.weights() * np.asarray(keep, dtype=np.float64)
        total = float(w.sum())
        if total == 0.0:
            return dataclasses.replace(self, total_pair_rate=0.0)
        return dataclasses.replace(
            self, total_pair_rate=self.total_pair_rate * total, mode_weights=tuple(w / total)
        )


def tpc_mode_offsets(n_modes: int, fsr: float) -> np.ndarray:
    """Offsets (Hz, from the memory's comb reference) of the active source
    comb modes, k*fsr for k symmetric around 0, sorted ascending; ``n_modes``
    must be odd.  Offsets rather than optical frequencies (~490 THz) keep the
    arithmetic in the MHz-GHz range, where floats are exact well below 1 Hz."""
    check("n_modes", n_modes, ">= 1")
    if n_modes % 2 == 0:
        raise ValueError("n_modes must be odd: modes are placed symmetrically around mode 0")
    check("fsr", fsr, "> 0")
    half = (n_modes - 1) // 2
    return fsr * np.arange(-half, half + 1, dtype=np.float64)


def sample_pairs(
    cfg: SourceConfig, windows: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Pair creation on the interval set ``windows``: sorted Poisson times at
    the total pair rate, then one weighted categorical mode draw per pair.
    Returns ``(times, mode_idx)``; ``mode_idx`` indexes ``cfg.mode_offsets()``.

    The mode draw inverts the normalised cumulative weights at one uniform
    per pair through ``_invert_cdf``: the same draws and the same indices
    as ``rng.choice(cfg.n_modes, size=len(times), p=cfg.weights())``, without
    its per-pair binary search."""
    times = iv.sample_poisson(windows, cfg.total_pair_rate, rng)
    cdf = np.cumsum(cfg.weights())
    cdf /= cdf[-1]
    mode_idx = _invert_cdf(cdf, rng.random(len(times)))
    return times, mode_idx


def _invert_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exactly ``np.searchsorted(cdf, u, side="right")`` for a nondecreasing
    ``cdf`` in [0, 1] that ends at 1.0 and keys ``u`` in [0, 1).

    A bucket guide table (Chen & Asau, AIIE Trans. 6, 1974; Devroye 1986,
    sec. III.2.4): the monotone map ``int(v * b)`` with ``b = 8 * len(cdf)``
    sends the table and the keys onto buckets, so the entries in lower
    buckets than a key's are all below it.  A key below 1.0 lands in bucket
    b - 1 at most (its product rounds below b), and an entry of 1.0 in
    bucket b, past every key.  Each key starts at the count of the entries
    in lower buckets, and vectorised passes step it over the entries
    ``<= u`` of its own bucket; none steps past the last entry, 1.0.
    """
    buckets = 8 * len(cdf)
    guide = np.searchsorted((cdf * buckets).astype(np.intp), np.arange(buckets))
    idx = guide[(u * buckets).astype(np.intp)]
    todo = np.flatnonzero(cdf[idx] <= u)
    while todo.size:
        idx[todo] += 1
        todo = todo[cdf[idx[todo]] <= u[todo]]
    return idx


def pair_delays(cfg: SourceConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Signal-minus-herald emission delays of ``n`` pairs: two-sided
    exponential (Laplace) draws with decay constant ``cfg.coherence_time``.

    The difference of two independent standard exponentials is exactly
    standard Laplace (Devroye, *Non-Uniform Random Variate Generation*, 1986,
    ch. IX); it is cheaper than ``rng.laplace`` and needs no branch."""
    d = rng.standard_exponential(n)
    d -= rng.standard_exponential(n)
    d *= cfg.coherence_time
    return d

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

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import intervals as iv
from .spectral import tpc_mode_offsets


@dataclass(frozen=True)
class SourceConfig:
    """Pair source settings.

    ``total_pair_rate`` is pairs/s summed over all active modes; the mode
    weights default to uniform.  Modes outside the conversion band never
    reach the memory and are not generated.
    """

    total_pair_rate: float
    n_modes: int = 25
    fsr: float = 117.2e6
    linewidth: float = 7.1e6
    mode_weights: Optional[Sequence[float]] = None

    def __post_init__(self):
        if self.total_pair_rate < 0:
            raise ValueError("total_pair_rate must be >= 0")
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.linewidth <= 0:
            raise ValueError("linewidth must be > 0")
        if self.mode_weights is not None:
            w = np.asarray(self.mode_weights, dtype=np.float64)
            if len(w) != self.n_modes:
                raise ValueError("mode_weights length must equal n_modes")
            if np.any(w < 0):
                raise ValueError("mode_weights must be nonnegative")
            if not math.isclose(float(w.sum()), 1.0, rel_tol=0, abs_tol=1e-9):
                raise ValueError("mode_weights must sum to 1")

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


def sample_pairs(
    cfg: SourceConfig, windows: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Pair creation on the interval set ``windows``: sorted Poisson times at
    the total pair rate, then one weighted categorical mode draw per pair.
    Returns ``(times, mode_idx)``; ``mode_idx`` indexes ``cfg.mode_offsets()``."""
    times = iv.sample_poisson(windows, cfg.total_pair_rate, rng)
    mode_idx = rng.choice(cfg.n_modes, size=len(times), p=cfg.weights())
    return times, mode_idx


def pair_delays(cfg: SourceConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Signal-minus-herald emission delays of ``n`` pairs: two-sided
    exponential draws with decay constant ``cfg.coherence_time``."""
    return rng.laplace(0.0, cfg.coherence_time, size=n)

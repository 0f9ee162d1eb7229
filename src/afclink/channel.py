"""Transmission channel: fiber link, wavelength converter, and the
herald-synchronized noise shutter.

Shutter timing model
--------------------
The experiment cycles between a memory-preparation phase (shutter closed to
photons) and a transmission phase.  During transmission the gate in front of
the memory is open by default; each detected herald commands it shut from
``herald_close_delay`` after the herald until the end of the echo window
``t_close``, so that converter noise arriving while the partner photon is
stored cannot reach the detector.  The stored photon itself entered the
memory while the gate was still open (it arrives essentially together with
its herald) and its retrieval is not affected by the gate, which sits
*before* the memory.  ``echo_window`` therefore describes when the retrieved
photon is expected at the detector: the histogram places its signal window
there, and the gate holds closed through it, reopening at ``t_close`` for
the next photon.  Overlapping closure commands from nearby heralds merge.

``gate_passes`` acts on memory-input times.  Photons inside the open set
(transmission phases minus the closures) pass with probability 1; everything
else (preparation phases and closed intervals) leaks through with
probability ``extinction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import intervals as iv
from .domains import Checked, ScenarioError, ranged


@dataclass(frozen=True)
class FiberLink(Checked):
    """Passive fiber span: loss per km.  Photon times are taken at the far
    end; the span's group delay is common to both arms, cancels in every
    coincidence and is not modelled."""

    length: float = ranged(">= 0", 10.0)  # km
    loss: float = ranged(">= 0", 0.2)  # dB/km

    @property
    def survival_probability(self) -> float:
        return 10.0 ** (-self.loss * self.length / 10.0)


@dataclass(frozen=True)
class ConverterConfig(Checked):
    """Sum-frequency wavelength converter with a Gaussian phase-matching window."""

    efficiency: float = ranged("in [0, 1]", 0.558)
    pm_fwhm: float = ranged("> 0", 40e9)  # Hz
    pump_power: float = ranged(">= 0", 140.0)  # mW
    noise_rate_per_mw: float = ranged(">= 0", 40e3 / 140.0)  # counts/s per mW of pump

    @property
    def noise_rate(self) -> float:
        """Pump-induced noise rate, linear in pump power."""
        return self.noise_rate_per_mw * self.pump_power

    @property
    def arm_noise_rate(self) -> float:
        """Noise rate each arm receives: the beam splitter's half of ``noise_rate``."""
        return 0.5 * self.noise_rate

    def conversion_probability(self, mode_offset) -> np.ndarray:
        """Chance that a photon at ``mode_offset`` is converted: efficiency
        times the Gaussian phase-matching transmission, 1 at offset 0.
        Evaluate it once per mode, not once per photon."""
        x = np.asarray(mode_offset, dtype=np.float64) / self.pm_fwhm
        return self.efficiency * np.exp(-4.0 * math.log(2.0) * x * x)

    def noise_offsets(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Frequency offsets of ``n`` pump-induced noise photons: white
        across the phase-matching FWHM.  Noise is born at the converter
        output, so it sees neither fiber loss nor the conversion efficiency."""
        half = 0.5 * self.pm_fwhm
        return rng.uniform(-half, half, size=n)


@dataclass(frozen=True)
class ShutterSchedule(Checked):
    """Cycle and herald-triggered gating of the noise shutter (see module docstring)."""

    cycle_period: float = 0.6
    prep_duration: float = ranged("> 0", 0.3)
    herald_close_delay: float = ranged(">= 0", 200e-9)
    echo_window: tuple[float, float] = (900e-9, 1200e-9)
    extinction: float = ranged("in [0, 1]", 1e-3)

    def __post_init__(self):
        super().__post_init__()
        if not self.prep_duration < self.cycle_period:
            raise ScenarioError("prep_duration", "must lie inside the cycle, below cycle_period")
        t_open, t_close = self.echo_window
        if not t_open < t_close:
            raise ScenarioError("echo_window", "requires t_open < t_close")
        if not self.herald_close_delay <= t_open:
            raise ScenarioError("herald_close_delay", "must be at most t_open, the echo window's start")

    def transmission_windows(self, cycle_lo: int, cycle_hi: int, duration: float) -> np.ndarray:
        """Transmission phases of cycles ``cycle_lo .. cycle_hi - 1``, clipped
        to the run ``duration``; empty phases are dropped."""
        k = np.arange(cycle_lo, cycle_hi)
        starts = k * self.cycle_period + self.prep_duration
        ends = np.minimum((k + 1) * self.cycle_period, duration)
        keep = ends > starts
        return np.stack([starts[keep], ends[keep]], axis=1)


def as_closures(heralds: np.ndarray, schedule: ShutterSchedule) -> np.ndarray:
    """Merged closed intervals commanded by the herald stream."""
    heralds = np.asarray(heralds, dtype=np.float64)
    return iv.as_interval_set(heralds + schedule.herald_close_delay, heralds + schedule.echo_window[1])


def gate_passes(
    t: np.ndarray,
    windows: np.ndarray,
    closed: np.ndarray,
    extinction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Shutter pass mask at memory-input times ``t``: open inside the
    transmission ``windows`` away from the ``closed`` set, else leaking with
    probability ``extinction`` (one uniform draw per photon)."""
    is_open = iv.contains(windows, t) & ~iv.contains(closed, t)
    return is_open | (rng.random(len(t)) < extinction)


def fiber_passes(link: FiberLink, n: int, rng: np.random.Generator) -> np.ndarray:
    """Fiber survival mask of ``n`` photons at the link's loss budget."""
    return rng.random(n) < link.survival_probability


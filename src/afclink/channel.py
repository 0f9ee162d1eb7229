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

#: speed of light in vacuum (m/s), exact by the SI definition of the metre
_C_VACUUM = 299_792_458.0


@dataclass(frozen=True)
class FiberLink:
    """Passive fiber span: loss per km and group delay."""

    length: float = 10.0  # km
    loss: float = 0.2  # dB/km
    group_index: float = 1.468

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be >= 0")
        if self.loss < 0:
            raise ValueError("loss must be >= 0")
        if self.group_index < 1:
            raise ValueError("group_index must be >= 1")

    @property
    def survival_probability(self) -> float:
        return 10.0 ** (-self.loss * self.length / 10.0)

    @property
    def delay(self) -> float:
        return self.length * 1e3 * self.group_index / _C_VACUUM


@dataclass(frozen=True)
class ConverterConfig:
    """Sum-frequency wavelength converter with a Gaussian phase-matching window."""

    efficiency: float = 0.558
    pm_fwhm: float = 40e9  # Hz
    pump_power: float = 140.0  # mW
    noise_rate_ref: float = 40e3  # counts/s at reference_power
    reference_power: float = 140.0  # mW

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")
        if self.pm_fwhm <= 0:
            raise ValueError("pm_fwhm must be > 0")
        if self.pump_power < 0:
            raise ValueError("pump_power must be >= 0")
        if self.noise_rate_ref < 0 or self.reference_power <= 0:
            raise ValueError("invalid noise rate reference")

    @property
    def noise_rate(self) -> float:
        """Pump-induced noise rate, linear in pump power through the one
        anchored reference point."""
        return self.noise_rate_ref * self.pump_power / self.reference_power

    def window_transmission(self, mode_offset) -> np.ndarray:
        """Gaussian phase-matching transmission, T(0) = 1."""
        x = np.asarray(mode_offset, dtype=np.float64) / self.pm_fwhm
        return np.exp(-4.0 * math.log(2.0) * x * x)

    def conversion_probability(self, mode_offset) -> np.ndarray:
        """Chance that a photon at ``mode_offset`` is converted:
        efficiency * T_pm(offset).  Evaluate it once per mode, not once per
        photon."""
        return self.efficiency * self.window_transmission(mode_offset)

    def noise_offsets(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Frequency offsets of ``n`` pump-induced noise photons: white
        across the phase-matching FWHM.  Noise is born at the converter
        output, so it sees neither fiber loss nor the conversion efficiency."""
        half = 0.5 * self.pm_fwhm
        return rng.uniform(-half, half, size=n)


@dataclass(frozen=True)
class ShutterSchedule:
    """Cycle and herald-triggered gating of the noise shutter (see module docstring)."""

    cycle_period: float = 0.6
    prep_duration: float = 0.3
    herald_close_delay: float = 200e-9
    echo_window: tuple[float, float] = (900e-9, 1200e-9)
    extinction: float = 1e-3

    def __post_init__(self):
        if not 0 < self.prep_duration < self.cycle_period:
            raise ValueError("prep_duration must lie inside the cycle")
        if not 0.0 <= self.extinction <= 1.0:
            raise ValueError("extinction must be in [0, 1]")
        t_open, t_close = self.echo_window
        if not t_open < t_close:
            raise ValueError("echo window requires t_open < t_close")
        if self.herald_close_delay < 0 or self.herald_close_delay > t_open:
            raise ValueError("herald_close_delay must be in [0, t_open]")

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
    t_open, t_close = schedule.echo_window
    return iv.as_interval_set(heralds + schedule.herald_close_delay, heralds + t_close)


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


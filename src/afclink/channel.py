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

``shutter_gate`` acts on memory-input event times.  Events inside the open
set pass with probability 1; everything else (preparation phases and closed
intervals) leaks through with probability ``extinction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as _C_VACUUM

from . import intervals as iv
from .events import ORIGIN_CONVERSION_NOISE, ARM_SIGNAL, EventBatch


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

    @property
    def transmit_duration(self) -> float:
        return self.cycle_period - self.prep_duration

    def transmission_windows(self, span: tuple[float, float]) -> np.ndarray:
        """Transmission-phase intervals of the cycle pattern within ``span``."""
        t0, t1 = span
        first = math.floor(t0 / self.cycle_period)
        last = math.ceil(t1 / self.cycle_period)
        k = np.arange(first, last + 1)
        starts = k * self.cycle_period + self.prep_duration
        ends = (k + 1) * self.cycle_period
        return iv.intersect(np.stack([starts, ends], axis=1), np.array([[t0, t1]]))

    def open_intervals(self, heralds: np.ndarray, span: tuple[float, float]) -> np.ndarray:
        """The gate's open set on ``span``: transmission phases minus the
        union of herald-commanded closures [h + close_delay, h + t_close)."""
        trans = self.transmission_windows(span)
        heralds = np.asarray(heralds, dtype=np.float64)
        closures = as_closures(heralds, self)
        open_set = []
        for lo, hi in trans:
            open_set.append(iv.complement(closures, (lo, hi)))
        if not open_set:
            return np.empty((0, 2))
        return iv.as_interval_set(
            np.concatenate([o[:, 0] for o in open_set]) if open_set else np.empty(0),
            np.concatenate([o[:, 1] for o in open_set]) if open_set else np.empty(0),
        )


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


def fiber_transmit(
    events: EventBatch, link: FiberLink, rng: np.random.Generator
) -> EventBatch:
    """Propagate events through the fiber: Bernoulli survival at the link's
    loss budget, surviving times advanced by the group delay."""
    if len(events) == 0:
        return events
    survive = rng.random(len(events)) < link.survival_probability
    out = events.select(survive)
    out.time = out.time + link.delay
    return out


def convert(
    events: EventBatch, cfg: ConverterConfig, rng: np.random.Generator
) -> EventBatch:
    """Wavelength conversion: survival probability efficiency * T_pm(offset).

    Times and mode offsets of survivors are unchanged (the lock chain
    guarantees the frequency mapping onto the memory reference).
    """
    if len(events) == 0:
        return events
    p = cfg.efficiency * cfg.window_transmission(events.mode_offset)
    survive = rng.random(len(events)) < p
    return events.select(survive)


def sample_conversion_noise(
    cfg: ConverterConfig,
    window: tuple[float, float],
    rng: np.random.Generator,
    mode_span: tuple[float, float] | None = None,
) -> EventBatch:
    """Pump-induced noise: Poisson in time on ``window``, spectrally white
    across the phase-matching span, origin tagged ``conversion_noise``.

    Noise is born at the converter output, so it sees neither fiber loss nor
    the conversion efficiency.
    """
    t0, t1 = window
    if not t1 > t0:
        raise ValueError("window must satisfy t1 > t0")
    if mode_span is None:
        mode_span = (-0.5 * cfg.pm_fwhm, 0.5 * cfg.pm_fwhm)
    f_lo, f_hi = mode_span
    n = rng.poisson(cfg.noise_rate * (t1 - t0))
    times = np.sort(rng.uniform(t0, t1, size=n))
    offsets = rng.uniform(f_lo, f_hi, size=n)
    return EventBatch(
        times,
        offsets,
        np.full(n, ARM_SIGNAL, dtype=np.uint8),
        np.full(n, ORIGIN_CONVERSION_NOISE, dtype=np.uint8),
    )


def shutter_gate(
    events: EventBatch,
    heralds: np.ndarray,
    schedule: ShutterSchedule,
    rng: np.random.Generator,
) -> EventBatch:
    """Gate an event stream at its (memory-input) times.

    Events inside the open set pass with probability 1; all others pass with
    probability ``extinction``.  ``extinction = 1`` is the identity.
    """
    if len(events) == 0:
        return events
    if schedule.extinction == 1.0:
        return events
    heralds = np.asarray(heralds, dtype=np.float64)
    span = (float(events.time.min()), float(np.nextafter(events.time.max(), np.inf)))
    passes = gate_passes(
        events.time, schedule.transmission_windows(span), as_closures(heralds, schedule),
        schedule.extinction, rng,
    )
    return events.select(passes)

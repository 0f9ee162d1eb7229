"""Frequency-multiplexed atomic-frequency-comb memory.

Model
-----
The storage medium has a Gaussian inhomogeneously broadened absorption
profile.  Preparation empties a pit around each multiplexed mode offset and
builds back a periodic comb of narrow Gaussian absorption teeth (spacing
``tooth_spacing``, FWHM spacing/finesse, peak depth ``tooth_peak_depth``)
on top of a residual background depth.  A photon absorbed by the comb is
re-emitted after the rephasing time 1/spacing; in-band photons additionally
acquire a fixed slow-light group delay.

Echo efficiency uses the standard forward-retrieval expression for a
Gaussian-tooth comb,

    eta = (d/F)^2 * exp(-d/F) * exp(-7/F^2) * exp(-d0),

whose depth parameter d/F plays the role of the period-averaged optical
depth of the comb.  ``afc_efficiency_oracle`` validates it numerically: the
prepared comb is applied to a weak probe pulse as a linear filter
exp(-depth/2) in amplitude together with the causal (Kramers-Kronig
minimum-phase) dispersion that a real absorption structure must carry, and
the echo energy is read off the time-domain response at delay 1/spacing.
Dropping the dispersion phase would split the rephased energy between
t = +1/spacing and the unphysical t = -1/spacing and underestimate the echo
fourfold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import Checked, ScenarioError, check, ranged

_FOUR_LN2 = 4.0 * math.log(2.0)
#: integral of a unit-peak Gaussian in units of its FWHM
_GAUSS_AREA_PER_FWHM = math.sqrt(math.pi / _FOUR_LN2)

#: offsets closer than this (Hz) are one frequency; plans are set to 0.1 MHz
_MERGE_TOL_HZ = 1.0

KIND_ECHO = 0
KIND_PROMPT = 1
KIND_OUT_OF_BAND = 2
KIND_LOST = 3


@dataclass(frozen=True)
class InhomogeneousProfile(Checked):
    """Gaussian inhomogeneous absorption profile of the storage crystal."""

    fwhm: float = ranged("> 0", 10e9)
    peak_optical_depth: float = ranged(">= 0", 5.0)

    def depth_at(self, f) -> np.ndarray:
        x = np.asarray(f, dtype=np.float64) / self.fwhm
        return self.peak_optical_depth * np.exp(-_FOUR_LN2 * x * x)

    def in_band(self, f) -> np.ndarray:
        """Photons beyond one FWHM from line center see the crystal as
        transparent (the tail is treated as fully out of band)."""
        return np.abs(np.asarray(f, dtype=np.float64)) <= self.fwhm


@dataclass(frozen=True)
class AFCConfig(Checked):
    """Comb preparation parameters shared by every pit of the source's mode plan."""

    tooth_spacing: float = ranged("> 0", 1.15e6)
    finesse: float = ranged("> 1", 4.0)
    tooth_peak_depth: float = ranged(">= 0", 2.0)
    background_depth: float = ranged(">= 0", 0.2)
    pit_halfwidth: float = 9e6

    def __post_init__(self):
        super().__post_init__()
        if not self.pit_halfwidth > 2 * self.tooth_spacing:
            raise ScenarioError("pit_halfwidth", "must span several tooth spacings")

    @property
    def tooth_fwhm(self) -> float:
        return self.tooth_spacing / self.finesse

    @property
    def storage_time(self) -> float:
        """Rephasing delay of the comb: 1 / tooth_spacing."""
        return 1.0 / self.tooth_spacing

    @property
    def mean_comb_depth(self) -> float:
        """Per-period average optical depth of the prepared comb."""
        return self.background_depth + (
            self.tooth_peak_depth * self.tooth_fwhm * _GAUSS_AREA_PER_FWHM / self.tooth_spacing
        )

    @property
    def echo_efficiency(self) -> float:
        """Echo probability of a photon on a tooth: ``afc_efficiency`` with
        ``tooth_peak_depth`` as its depth parameter.  That formula reads d/F
        as the period-averaged depth, which the tooth peak is not; ROADMAP
        item 13 will feed it the prepared mean depth instead."""
        return afc_efficiency(self.tooth_peak_depth, self.finesse, self.background_depth)


@dataclass(frozen=True)
class AbsorptionSpectrum:
    """Optical depth at the points f_min + step * k, one per depth value,
    and the tooth spacing of its comb."""

    f_min: float
    step: float
    optical_depth: np.ndarray
    tooth_spacing: float

    def __post_init__(self):
        depth = np.asarray(self.optical_depth, dtype=np.float64)
        check("step", self.step, "> 0")
        if not np.all(depth >= 0):
            raise ValueError("optical depth must be nonnegative")
        object.__setattr__(self, "optical_depth", depth)

    def frequencies(self) -> np.ndarray:
        return self.f_min + self.step * np.arange(len(self.optical_depth))

    def to_csv(self) -> str:
        n = len(self.optical_depth)
        flat = [None] * (2 * n)
        flat[0::2] = self.frequencies().tolist()
        flat[1::2] = self.optical_depth.tolist()
        return "offset_hz,optical_depth\n" + ("%.3f,%.9e\n" * n) % tuple(flat)


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The points lo, lo + step, ... up to hi."""
    return lo + step * np.arange(math.floor((hi - lo) / step) + 1)


def _teeth(f: np.ndarray, centers: np.ndarray, fwhm: float) -> np.ndarray:
    """Unit-peak Gaussian teeth of width ``fwhm`` at ``centers``, summed over
    the frequencies ``f``; each tooth is cut at 8 FWHM from its center."""
    sigma2 = fwhm**2 / _FOUR_LN2  # exponent scale: exp(-4ln2 x^2 / fwhm^2)
    out = np.zeros(f.shape)
    for c in centers:
        x = f - c
        near = np.abs(x) <= 8 * fwhm
        out[near] += np.exp(-(x[near] ** 2) / sigma2)
    return out


def prepare_afc(inh: InhomogeneousProfile, cfg: AFCConfig, modes: np.ndarray) -> AbsorptionSpectrum:
    """Burn the multiplexed comb pattern into the inhomogeneous profile.

    For each offset of ``modes``, the source's ascending mode plan, the pit
    is emptied, the residual background depth is laid in, and Gaussian teeth
    (peak ``tooth_peak_depth``, FWHM spacing/finesse) are placed at every
    multiple of the spacing inside the pit.  Outside the pits the profile is untouched.  The grid spans every
    pit and four tooth spacings beyond, at eight points per tooth FWHM.
    """
    span = cfg.pit_halfwidth + 4 * cfg.tooth_spacing
    step = cfg.tooth_spacing / (4.0 * cfg.finesse) / 2.0
    f = _grid(modes.min() - span, modes.max() + span, step)
    depth = inh.depth_at(f)
    half = math.floor(cfg.pit_halfwidth / cfg.tooth_spacing)
    offsets = np.arange(-half, half + 1) * cfg.tooth_spacing
    for m in modes:
        in_pit = np.abs(f - m) <= cfg.pit_halfwidth
        teeth = _teeth(f[in_pit], m + offsets, cfg.tooth_fwhm)
        depth[in_pit] = cfg.background_depth + cfg.tooth_peak_depth * teeth

    return AbsorptionSpectrum(f_min=f[0], step=step, optical_depth=depth, tooth_spacing=cfg.tooth_spacing)


def eom_sideband_offsets(f1: float, f2: float, max_order: int) -> np.ndarray:
    """Offsets (Hz) reachable with two phase modulators driven at f1 and f2:
    {i*f1 + j*f2 : |i|,|j| <= max_order}, sorted ascending, where an offset
    less than ``_MERGE_TOL_HZ`` above the one below merges into it.  With f1
    the source free spectral range, f2 = 5*f1 and max_order 2, the 25
    combinations cover k*f1 for k = -12..12 exactly once: the layout of the
    25 memory comb copies."""
    check("f1", f1, "> 0")
    check("f2", f2, "> 0")
    check("max_order", max_order, ">= 0")
    orders = np.arange(-max_order, max_order + 1, dtype=np.float64)
    values = np.sort((orders[:, None] * f1 + orders[None, :] * f2).ravel())
    return values[np.diff(values, prepend=-np.inf) >= _MERGE_TOL_HZ]


def afc_efficiency(d: float, F: float, d0: float = 0.0) -> float:
    """Forward echo efficiency of a comb with depth parameter d, finesse F
    and background depth d0, at most 4/e^2; squaring (d/F) e^(-d/2F) keeps
    it finite at any depth."""
    check("d", d, ">= 0")
    check("d0", d0, ">= 0")
    check("F", F, "> 1")
    dd = d / F
    return (dd * math.exp(-dd / 2.0)) ** 2 * math.exp(-7.0 / (F * F)) * math.exp(-d0)


def comb_spectrum(
    d: float,
    F: float,
    n_teeth: int = 61,
    points_per_tooth: int = 16,
) -> AbsorptionSpectrum:
    """Standalone periodic Gaussian-tooth comb for oracle studies.

    The tooth peak is scaled so the per-period average depth equals d/F,
    matching the depth convention of ``afc_efficiency``.  The grid spans
    twice the teeth's extent, with no background depth.
    """
    # the shipped comb's spacing: with F held it only scales the frequency and
    # time axes, so the echo fraction the oracle reads does not depend on it
    spacing = 1.15e6
    fwhm = spacing / F
    peak = d / (F * _GAUSS_AREA_PER_FWHM * fwhm / spacing)
    half = (n_teeth - 1) // 2
    span = 2.0 * half * spacing
    step = fwhm / points_per_tooth
    f = _grid(-span, span, step)
    depth = peak * _teeth(f, np.arange(-half, half + 1) * spacing, fwhm)
    return AbsorptionSpectrum(f_min=f[0], step=step, optical_depth=depth, tooth_spacing=spacing)


def _minimum_phase(attenuation: np.ndarray) -> np.ndarray:
    """Causal (minimum-phase) phase profile for a given amplitude attenuation.

    The log-magnitude -attenuation is completed to the log of a causal
    transfer function by folding its cepstrum; the imaginary part of the
    result is the Kramers-Kronig phase in the grid's FFT convention.
    """
    n = len(attenuation)
    log_mag = -attenuation
    cep = np.fft.ifft(log_mag)
    fold = np.zeros(n, dtype=complex)
    fold[0] = cep[0]
    if n % 2 == 0:
        fold[1 : n // 2] = 2.0 * cep[1 : n // 2]
        fold[n // 2] = cep[n // 2]
    else:
        fold[1 : (n + 1) // 2] = 2.0 * cep[1 : (n + 1) // 2]
    log_h = np.fft.fft(fold)
    return np.imag(log_h)


def afc_efficiency_oracle(spectrum: AbsorptionSpectrum, mode: float, spacing: float) -> float:
    """Numerically propagate a weak probe through the comb and return the
    fraction of input energy re-emitted in the first-echo window.

    The comb (optical depth around ``mode``) acts as the amplitude filter
    exp(-depth/2) with its causal dispersion phase; the probe is a Gaussian
    pulse of spectral FWHM 6x the tooth spacing (wide against the comb
    period, narrow against the pit).  The echo energy is integrated over a
    window of width 1/(2*spacing) centered at delay 1/spacing and normalized
    to the input energy; ``spacing`` must be ``spectrum.tooth_spacing``.
    """
    if spacing != spectrum.tooth_spacing:
        raise ValueError(f"spacing {spacing} is not the spectrum's tooth spacing {spectrum.tooth_spacing}")
    if spectrum.step > spacing / 8.0:
        raise ValueError("grid too coarse for the echo oracle (need step <= spacing/8)")
    input_fwhm = 6.0 * spacing

    f = spectrum.frequencies() - mode
    depth = spectrum.optical_depth
    # taper the outermost 5% so the cepstral phase sees a smooth, compactly
    # supported attenuation even when the surrounding absorption is nonzero
    n = len(f)
    n_edge = max(int(0.05 * n), 2)
    taper = np.ones(n)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(n_edge) / n_edge))
    taper[:n_edge] = ramp
    taper[-n_edge:] = ramp[::-1]
    alpha = 0.5 * depth * taper

    phase = _minimum_phase(alpha)
    transfer = np.exp(-alpha + 1j * phase)

    pulse = np.exp(-_FOUR_LN2 * (f / input_fwhm) ** 2)
    e_in = np.fft.ifft(pulse)
    e_out = np.fft.ifft(pulse * transfer)

    dt = 1.0 / (n * spectrum.step)
    t = dt * np.arange(n)  # causal times; the echo sits at +1/spacing
    t_echo = 1.0 / spacing
    window = (t >= t_echo - 0.25 / spacing) & (t <= t_echo + 0.25 / spacing)
    if not np.any(window) or t[-1] < t_echo + 0.25 / spacing:
        raise ValueError("grid too coarse: time span does not reach the echo window")
    return float(np.sum(np.abs(e_out[window]) ** 2) / np.sum(np.abs(e_in) ** 2))


def _branch_chances(offsets: np.ndarray, modes: np.ndarray, cfg: AFCConfig, inh: InhomogeneousProfile):
    """The outcome chances at ``offsets`` of the comb with one pit per mode
    of ``modes``, the source's ascending mode plan, as thresholds on one
    uniform: echo below ``echo_below``, prompt below ``prompt_below``, else
    lost.  Returns the in-band mask, for each in-band photon in order the row
    of the threshold table that holds its chances, and the table's two
    columns.  Rows 0 and 1 hold the chances inside a pit on and off a tooth;
    each in-band photon outside every pit has a row of its own.

    A photon echoes only when it is inside a prepared pit and aligned with a
    comb tooth to within half a tooth FWHM; misalignment (e.g. a lock-chain
    residual of a few tooth widths) removes the echo branch entirely.
    Outside a pit the prompt chance is the plain absorption survival
    exp(-depth) of the unprepared profile.  On a tooth, with x the tooth
    peak depth over the finesse and d0 the background depth, echo + prompt
    <= exp(-d0) (x^2 e^-x + e^-1.0645x) <= 1 for every comb ``AFCConfig``
    accepts, with equality only at x = d0 = 0.
    """
    in_band = inh.in_band(offsets)
    off = offsets[in_band]
    # the nearest comb mode, the upper one from each midpoint on: a photon
    # within rounding of a midpoint lies outside both pits (which
    # ScenarioConfig keeps apart), so either mode gives it the same chances
    detune = off - modes[np.searchsorted(0.5 * (modes[1:] + modes[:-1]), off, side="right")]
    in_pit = np.abs(detune) <= cfg.pit_halfwidth
    tooth_miss = np.abs(detune - cfg.tooth_spacing * np.round(detune / cfg.tooth_spacing))
    on_tooth = in_pit & (tooth_miss <= 0.5 * cfg.tooth_fwhm)

    eta = cfg.echo_efficiency
    p_prompt_pit = math.exp(-cfg.mean_comb_depth)
    outside = np.flatnonzero(~in_pit)
    row = np.where(on_tooth, 0, 1)
    row[outside] = 2 + np.arange(len(outside))
    echo_below = np.zeros(2 + len(outside))
    echo_below[0] = eta
    prompt_below = np.concatenate([[eta + p_prompt_pit, p_prompt_pit], np.exp(-inh.depth_at(off[outside]))])
    return in_band, row, echo_below, prompt_below


def storage_branches(
    offsets: np.ndarray,
    modes: np.ndarray,
    cfg: AFCConfig,
    inh: InhomogeneousProfile,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized outcome draw for photons at ``offsets`` in the comb of ``modes``.

    Returns an array of outcome codes (KIND_*): out of band beyond the
    inhomogeneous support, else one uniform per photon against the chances
    of ``_branch_chances``.
    """
    offsets = np.asarray(offsets, dtype=np.float64)
    out = np.full(len(offsets), KIND_OUT_OF_BAND, dtype=np.uint8)
    in_band, row, echo_below, prompt_below = _branch_chances(offsets, modes, cfg, inh)
    u = rng.random(len(row))
    res = np.full(len(u), KIND_LOST, dtype=np.uint8)
    res[u < prompt_below[row]] = KIND_PROMPT
    res[u < echo_below[row]] = KIND_ECHO
    out[in_band] = res
    return out


def branch_counts(
    counts: np.ndarray,
    offsets: np.ndarray,
    modes: np.ndarray,
    cfg: AFCConfig,
    inh: InhomogeneousProfile,
    rng: np.random.Generator,
) -> np.ndarray:
    """Outcome totals, one per KIND_* code, of ``counts[i]`` photons at
    ``offsets[i]`` in the comb of ``modes``: one multinomial per row of
    ``_branch_chances``' table, the chances that ``storage_branches`` draws
    photon by photon.  The offsets that share a row (every one on a tooth,
    say) pool their photons.
    """
    counts = np.asarray(counts, dtype=np.int64)
    in_band, row, echo_below, prompt_below = _branch_chances(np.asarray(offsets, dtype=np.float64), modes, cfg, inh)
    n = np.bincount(row, weights=counts[in_band], minlength=len(echo_below)).astype(np.int64)
    drawn = np.zeros(3, dtype=np.int64)
    # a scalar multinomial per row that holds photons: under a locked chain
    # that is rows 0 and 1 alone
    for k in np.flatnonzero(n).tolist():
        e, p = echo_below[k], prompt_below[k]
        drawn += rng.multinomial(n[k], (e, p - e, 1.0 - p))
    out = np.zeros(KIND_LOST + 1, dtype=np.int64)
    out[[KIND_ECHO, KIND_PROMPT, KIND_LOST]] = drawn
    out[KIND_OUT_OF_BAND] = counts.sum() - n.sum()
    return out


def exit_times(
    entry_times: np.ndarray,
    kinds: np.ndarray,
    cfg: AFCConfig,
    slow_light_delay: float,
) -> np.ndarray:
    """Exit time per outcome; NaN for lost photons.

    The echo leaves exactly one rephasing period after its prompt
    counterpart: both share the slow-light delay, computed so that
    echo - prompt == storage_time holds bit-exactly.
    """
    entry_times = np.asarray(entry_times, dtype=np.float64)
    prompt = entry_times + slow_light_delay
    t = np.where(kinds == KIND_OUT_OF_BAND, entry_times, prompt)
    t = np.where(kinds == KIND_ECHO, prompt + cfg.storage_time, t)
    return np.where(kinds == KIND_LOST, np.nan, t)

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

import io
import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralGrid

_FOUR_LN2 = 4.0 * math.log(2.0)
#: integral of a unit-peak Gaussian in units of its FWHM
_GAUSS_AREA_PER_FWHM = math.sqrt(math.pi / _FOUR_LN2)

KIND_ECHO = 0
KIND_PROMPT = 1
KIND_OUT_OF_BAND = 2
KIND_LOST = 3


@dataclass(frozen=True)
class InhomogeneousProfile:
    """Gaussian inhomogeneous absorption profile of the storage crystal."""

    fwhm: float = 10e9
    peak_optical_depth: float = 5.0

    def __post_init__(self):
        if self.fwhm <= 0:
            raise ValueError("fwhm must be > 0")
        if self.peak_optical_depth < 0:
            raise ValueError("peak_optical_depth must be >= 0")

    def depth_at(self, f) -> np.ndarray:
        x = np.asarray(f, dtype=np.float64) / self.fwhm
        return self.peak_optical_depth * np.exp(-_FOUR_LN2 * x * x)

    def in_band(self, f) -> np.ndarray:
        """Photons beyond one FWHM from line center see the crystal as
        transparent (the tail is treated as fully out of band)."""
        return np.abs(np.asarray(f, dtype=np.float64)) <= self.fwhm


@dataclass(frozen=True)
class AFCConfig:
    """Comb preparation parameters shared by every multiplexed mode."""

    tooth_spacing: float = 1.15e6
    finesse: float = 4.0
    tooth_peak_depth: float = 2.0
    background_depth: float = 0.2
    pit_halfwidth: float = 9e6
    mode_offsets: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if self.tooth_spacing <= 0:
            raise ValueError("tooth_spacing must be > 0")
        if self.finesse <= 1:
            raise ValueError("finesse must be > 1")
        if self.tooth_peak_depth < 0 or self.background_depth < 0:
            raise ValueError("depths must be >= 0")
        if self.pit_halfwidth <= 2 * self.tooth_spacing:
            raise ValueError("pit_halfwidth must span several tooth spacings")
        object.__setattr__(
            self, "mode_offsets", tuple(float(m) for m in sorted(self.mode_offsets))
        )

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


@dataclass(frozen=True)
class AbsorptionSpectrum:
    """Optical depth sampled on a uniform frequency grid."""

    grid: SpectralGrid
    optical_depth: np.ndarray

    def __post_init__(self):
        depth = np.asarray(self.optical_depth, dtype=np.float64)
        if depth.shape != (self.grid.n_points,):
            raise ValueError("optical_depth length must match grid point count")
        if np.any(depth < 0):
            raise ValueError("optical depth must be nonnegative")
        object.__setattr__(self, "optical_depth", depth)

    def frequencies(self) -> np.ndarray:
        return self.grid.frequencies()

    def depth_at(self, f) -> np.ndarray:
        return np.interp(np.asarray(f, dtype=np.float64), self.frequencies(), self.optical_depth)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("offset_hz,optical_depth\n")
        for f, d in zip(self.frequencies(), self.optical_depth):
            buf.write(f"{f:.3f},{d:.9e}\n")
        return buf.getvalue()


def prepare_afc(
    inh: InhomogeneousProfile,
    cfg: AFCConfig,
    grid: SpectralGrid | None = None,
) -> AbsorptionSpectrum:
    """Burn the multiplexed comb pattern into the inhomogeneous profile.

    For each mode offset the pit is emptied, the residual background depth is
    laid in, and Gaussian teeth (peak ``tooth_peak_depth``, FWHM
    spacing/finesse) are placed at every multiple of the spacing inside the
    pit.  Outside the pits the profile is untouched.
    """
    modes = np.asarray(cfg.mode_offsets)
    if len(modes) > 1 and np.min(np.diff(modes)) <= 2 * cfg.pit_halfwidth:
        raise ValueError("adjacent mode pits overlap; reduce pit_halfwidth or respace modes")
    max_step = cfg.tooth_spacing / (4.0 * cfg.finesse)
    if grid is None:
        span = cfg.pit_halfwidth + 4 * cfg.tooth_spacing
        grid = SpectralGrid(modes.min() - span, modes.max() + span, max_step / 2.0)
    if grid.step > max_step:
        raise ValueError(
            f"grid step {grid.step:g} Hz too coarse to resolve teeth (need <= {max_step:g} Hz)"
        )

    f = grid.frequencies()
    depth = inh.depth_at(f)
    n_teeth_half = int(math.floor(cfg.pit_halfwidth / cfg.tooth_spacing))
    sigma2 = (cfg.tooth_fwhm**2) / _FOUR_LN2  # exponent scale: exp(-4ln2 x^2 / fwhm^2)
    reach = 6.0 * cfg.tooth_fwhm

    for m in modes:
        in_pit = np.abs(f - m) <= cfg.pit_halfwidth
        depth[in_pit] = cfg.background_depth
        lo = np.searchsorted(f, m - cfg.pit_halfwidth - reach)
        hi = np.searchsorted(f, m + cfg.pit_halfwidth + reach)
        local = f[lo:hi]
        teeth = np.zeros(local.shape)
        for k in range(-n_teeth_half, n_teeth_half + 1):
            center = m + k * cfg.tooth_spacing
            x = local - center
            near = np.abs(x) <= reach
            teeth[near] += np.exp(-(x[near] ** 2) / sigma2)
        depth[lo:hi] += cfg.tooth_peak_depth * teeth * in_pit[lo:hi]

    return AbsorptionSpectrum(grid=grid, optical_depth=depth)


def afc_efficiency(d: float, F: float, d0: float = 0.0) -> float:
    """Forward echo efficiency of a comb with depth parameter d, finesse F
    and background depth d0, clamped to [0, 1]."""
    if d < 0 or d0 < 0:
        raise ValueError("depths must be >= 0")
    if F <= 1:
        raise ValueError("finesse must be > 1")
    dd = d / F
    eta = dd * dd * math.exp(-dd) * math.exp(-7.0 / (F * F)) * math.exp(-d0)
    return min(max(eta, 0.0), 1.0)


def comb_spectrum(
    d: float,
    F: float,
    spacing: float = 1.15e6,
    n_teeth: int = 61,
    d0: float = 0.0,
    points_per_tooth: int = 16,
    span_factor: float = 2.0,
    normalization: str = "mean",
) -> AbsorptionSpectrum:
    """Standalone periodic Gaussian-tooth comb for oracle studies.

    ``normalization='mean'`` scales the tooth peak so the per-period average
    depth equals d/F, matching the depth convention of ``afc_efficiency``;
    ``'peak'`` uses peak depth d directly (the preparation convention, whose
    average depth is ~6% higher, sqrt(pi/(4 ln 2)) ~= 1.064).
    """
    fwhm = spacing / F
    if normalization == "mean":
        peak = d / (F * _GAUSS_AREA_PER_FWHM * fwhm / spacing)
    elif normalization == "peak":
        peak = d
    else:
        raise ValueError("normalization must be 'mean' or 'peak'")
    half = (n_teeth - 1) // 2
    span = span_factor * half * spacing
    step = fwhm / points_per_tooth
    grid = SpectralGrid(-span, span, step)
    f = grid.frequencies()
    sigma2 = fwhm**2 / _FOUR_LN2
    depth = np.full(f.shape, d0)
    for k in range(-half, half + 1):
        x = f - k * spacing
        near = np.abs(x) <= 8 * fwhm
        depth[near] += peak * np.exp(-(x[near] ** 2) / sigma2)
    return AbsorptionSpectrum(grid=grid, optical_depth=depth)


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


def afc_efficiency_oracle(
    spectrum: AbsorptionSpectrum,
    mode: float,
    spacing: float,
    input_fwhm: float | None = None,
) -> float:
    """Numerically propagate a weak probe through the comb and return the
    fraction of input energy re-emitted in the first-echo window.

    The comb (optical depth around ``mode``) acts as the amplitude filter
    exp(-depth/2) with its causal dispersion phase; the probe is a Gaussian
    pulse of spectral FWHM ``input_fwhm`` (default 6x the tooth spacing:
    wide against the comb period, narrow against the pit).  The echo energy
    is integrated over a window of width 1/(2*spacing) centered at delay
    1/spacing and normalized to the input energy.
    """
    if spacing <= 0:
        raise ValueError("spacing must be > 0")
    if spectrum.grid.step > spacing / 8.0:
        raise ValueError("grid too coarse for the echo oracle (need step <= spacing/8)")
    if input_fwhm is None:
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

    dt = 1.0 / (n * spectrum.grid.step)
    t = dt * np.arange(n)  # causal times; the echo sits at +1/spacing
    t_echo = 1.0 / spacing
    window = (t >= t_echo - 0.25 / spacing) & (t <= t_echo + 0.25 / spacing)
    if not np.any(window) or t[-1] < t_echo + 0.25 / spacing:
        raise ValueError("grid too coarse: time span does not reach the echo window")
    return float(np.sum(np.abs(e_out[window]) ** 2) / np.sum(np.abs(e_in) ** 2))


def storage_branches(
    offsets: np.ndarray,
    cfg: AFCConfig,
    inh: InhomogeneousProfile,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized outcome draw for photons at the given mode offsets.

    Returns an array of outcome codes (KIND_*).  A photon echoes only when
    it is inside a prepared pit and aligned with a comb tooth to within half
    a tooth FWHM; misalignment (e.g. a lock-chain residual of a few tooth
    widths) removes the echo branch entirely.
    """
    offsets = np.asarray(offsets, dtype=np.float64)
    n = len(offsets)
    out = np.full(n, KIND_LOST, dtype=np.uint8)
    if n == 0:
        return out

    in_band = inh.in_band(offsets)
    out[~in_band] = KIND_OUT_OF_BAND

    idx = np.flatnonzero(in_band)
    if idx.size == 0:
        return out
    off = offsets[idx]
    modes = np.asarray(cfg.mode_offsets)
    nearest = modes[np.clip(np.searchsorted(modes, off), 0, len(modes) - 1)]
    alt = modes[np.clip(np.searchsorted(modes, off) - 1, 0, len(modes) - 1)]
    nearest = np.where(np.abs(off - alt) < np.abs(off - nearest), alt, nearest)
    detune = off - nearest
    in_pit = np.abs(detune) <= cfg.pit_halfwidth
    tooth_miss = np.abs(detune - cfg.tooth_spacing * np.round(detune / cfg.tooth_spacing))
    on_tooth = in_pit & (tooth_miss <= 0.5 * cfg.tooth_fwhm)

    eta = afc_efficiency(cfg.tooth_peak_depth, cfg.finesse, cfg.background_depth)
    p_prompt_pit = math.exp(-cfg.mean_comb_depth)
    if eta + p_prompt_pit > 1.0:
        raise ValueError("comb parameters give echo + transmit probability > 1")

    u = rng.random(idx.size)
    res = np.full(idx.size, KIND_LOST, dtype=np.uint8)

    # inside a pit: echo (if tooth-aligned), background transmission, or loss
    p_echo = np.where(on_tooth, eta, 0.0)
    res[in_pit & (u < p_echo)] = KIND_ECHO
    res[in_pit & (u >= p_echo) & (u < p_echo + p_prompt_pit)] = KIND_PROMPT

    # in band but outside any pit: plain absorption by the unprepared profile
    off_pit = ~in_pit
    if np.any(off_pit):
        p_pass = np.exp(-inh.depth_at(off[off_pit]))
        res[off_pit] = np.where(u[off_pit] < p_pass, KIND_PROMPT, KIND_LOST)

    out[idx] = res
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

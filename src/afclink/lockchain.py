"""Frequency-stabilization network: drifting lasers, offset-lock servos, and
the beat identity that makes the photon and memory frequencies track each
other.

Coordinate convention
---------------------
The state stores per-laser frequency *errors* in Hz: the deviation of each
driven laser from its nominal lock design point.  In this frame the nominal
beat between the monitoring upconversion light and the memory control laser
equals ``rf.f_beat`` by construction, so all other frequencies are affine
functions of the three driven errors:

    nu_qm        = 2 * err(qm_master_1212)
    nu_afc       = nu_qm + rf.f_qm_pump_aom
    nu_monitor   = rf.f_beat + err(tpc_pump_1514) + err(wc_pump_1010)
    nu_606photon = nu_monitor + rf.f_noisecut_aom

The matching residual nu_606photon - nu_afc is therefore

    (f_beat + f_noisecut_aom - f_qm_pump_aom) + (e_photon + e_wc - 2*e_qm)

i.e. an RF bookkeeping term that vanishes for the stock RF values plus the
servo-suppressed combination of laser errors.  That combination is the beat
error the monitor lock measures; ``BEAT`` holds its coefficients, and the
monitor servo row, ``matching_residual`` and the telemetry of
``simulate_lock_run`` are all built from it.  The comb reference itself is
treated as perfect.

Every lock drives its beat error to zero: a comb lock holds its laser's
error at 0 and the monitor lock holds the beat at ``rf.f_beat``, so the
dynamics carry no forcing.  A lock point off its design value is an RF
setting: it shows up through ``RfOffsets.mismatch`` in the residual.

Long runs
---------
``simulate_lock_run`` samples the closed-loop network at the telemetry step
(1 s by default).  Physical servo bandwidths (hundreds of Hz and up) are far
above 1 Hz, so an explicit Euler step at the telemetry rate cannot represent
the loop (it is unstable for gain*dt > 2).  Instead each step applies the
exact solution of the joint linear stochastic differential equation (one
Van Loan block exponential for the transition and the noise covariance),
which is both faster and exact for any gain.  Free-running drift is the same
run with every servo gain at 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np


class LaserId(str, enum.Enum):
    """Driven lasers of the network; the 606 nm frequencies derive from them."""

    TPC_PUMP_1514 = "tpc_pump_1514"
    QM_MASTER_1212 = "qm_master_1212"
    WC_PUMP_1010 = "wc_pump_1010"


#: Order of the state vector of the joint linear SDE.
DRIVEN_LASERS = (LaserId.TPC_PUMP_1514, LaserId.QM_MASTER_1212, LaserId.WC_PUMP_1010)

#: The beat identity: coefficients over DRIVEN_LASERS of the laser errors in
#: the monitor beat error and in the matching residual, e_photon - 2 e_qm + e_wc.
BEAT = (1.0, -2.0, 1.0)


@dataclass(frozen=True)
class RfOffsets:
    """RF frequencies applied by the lock chain's modulators (Hz)."""

    f_qm_pump_aom: float = 164.3e6
    f_beat: float = 83.4e6
    f_noisecut_aom: float = 80.9e6

    def __post_init__(self):
        for name in ("f_qm_pump_aom", "f_beat", "f_noisecut_aom"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def mismatch(self) -> float:
        """Residual of the RF matching condition; 0 for the stock values."""
        return self.f_beat + self.f_noisecut_aom - self.f_qm_pump_aom


@dataclass(frozen=True)
class DriftModel:
    """Free-running frequency drift: an Ornstein-Uhlenbeck process, which is
    a random walk at ``reversion_rate`` 0.

    ``sigma`` is the white-noise strength in Hz/sqrt(s); ``reversion_rate``
    (1/s) pulls the error back toward zero, and above 0 the stationary
    standard deviation is sigma / sqrt(2 * reversion_rate).
    """

    sigma: float = 0.0
    reversion_rate: float = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.reversion_rate < 0:
            raise ValueError("reversion_rate must be >= 0")


@dataclass(frozen=True)
class ServoModel:
    """First-order offset-lock loop pulling its beat error to zero at rate
    ``gain`` (1/s); gain 0 leaves the loop open."""

    gain: float
    residual_noise_rms: float = 0.0

    def __post_init__(self):
        if self.gain < 0:
            raise ValueError("gain must be >= 0")
        if self.residual_noise_rms < 0:
            raise ValueError("residual_noise_rms must be >= 0")


@dataclass(frozen=True)
class LaserNetworkState:
    """Frequency errors of the driven lasers (Hz); a laser that ``errors``
    does not name is on frequency."""

    errors: Mapping[LaserId, float] = field(default_factory=dict)

    def error(self, laser: LaserId) -> float:
        return self.errors.get(laser, 0.0)


def _residual(rf: RfOffsets, errors):
    """nu_606photon - nu_afc from the driven lasers' errors (scalars or
    arrays, in DRIVEN_LASERS order): the RF bookkeeping term plus the beat
    identity.  The terms are added photon, wc, qm; the telemetry's bytes
    depend on that order."""
    total = rf.mismatch
    for i in (0, 2, 1):
        total = total + BEAT[i] * errors[i]
    return total


def matching_residual(state: LaserNetworkState, rf: RfOffsets) -> float:
    """Photon-to-comb frequency mismatch nu_606photon - nu_afc (Hz)."""
    return _residual(rf, [state.error(laser) for laser in DRIVEN_LASERS])


def _default_drifts() -> dict[LaserId, DriftModel]:
    # Calibration, not a claim: free-running random walk sized so an unlocked
    # 12 h excursion is a few MHz (typical external-cavity diode laser scale).
    return {laser: DriftModel(sigma=15e3) for laser in DRIVEN_LASERS}


def _default_lock() -> ServoModel:
    return ServoModel(gain=2000.0, residual_noise_rms=200.0)


def _default_comb_locks() -> dict[LaserId, ServoModel]:
    return {laser: _default_lock() for laser in DRIVEN_LASERS[:2]}


@dataclass(frozen=True)
class LockChainConfig:
    """Complete description of the stabilization network for a long run.

    The monitor lock holds the beat at ``rf.f_beat``, so changing it moves
    the lock point with it (as retuning the offset-lock synthesizer would).
    """

    rf: RfOffsets = field(default_factory=RfOffsets)
    drift: Mapping[LaserId, DriftModel] = field(default_factory=_default_drifts)
    comb_locks: Mapping[LaserId, ServoModel] = field(default_factory=_default_comb_locks)
    monitor_lock: ServoModel = field(default_factory=_default_lock)

    def __post_init__(self):
        for laser in self.comb_locks:
            if laser not in (LaserId.TPC_PUMP_1514, LaserId.QM_MASTER_1212):
                raise ValueError("comb locks act on the 1514 and 1212 nm lasers")

    def with_servos_disabled(self) -> "LockChainConfig":
        locks = {k: replace(v, gain=0.0) for k, v in self.comb_locks.items()}
        return replace(self, comb_locks=locks, monitor_lock=replace(self.monitor_lock, gain=0.0))


@dataclass(frozen=True)
class LockRunResult:
    """Residual telemetry of a lock run, sampled every ``dt`` seconds; all zero for an ideal lock."""

    dt: float
    residual: np.ndarray
    laser_errors: dict[LaserId, np.ndarray]

    @property
    def t(self) -> np.ndarray:
        return self.dt * np.arange(len(self.residual))

    @property
    def max_abs_residual(self) -> float:
        return float(np.max(np.abs(self.residual)))

    @property
    def rms_residual(self) -> float:
        return float(np.sqrt(np.mean(self.residual**2)))

    def summary(self) -> dict:
        """The residual statistics a report and ``afclink lockcheck`` print."""
        return {"max_abs_residual_hz": self.max_abs_residual, "rms_residual_hz": self.rms_residual}

    def step_at(self, t: np.ndarray) -> np.ndarray:
        """Index of the sample that holds at times ``t``: the last k with
        ``self.t[k] <= t``, exactly against the stored grid ``dt * k``;
        times outside the run take the first or last sample.  floor(t / dt)
        can miss the grid by one either way (0.1 * 43 / 0.1 < 43), so one
        correction against the grid follows it."""
        t = np.asarray(t, dtype=np.float64)
        k = np.minimum(np.maximum((t / self.dt).astype(np.int64), 0), len(self.residual) - 1)
        k += (k + 1 < len(self.residual)) & (t >= self.dt * (k + 1))
        k -= (k > 0) & (t < self.dt * k)
        return k

    def residual_at(self, t: np.ndarray) -> np.ndarray:
        """Residual at times ``t``, the sample ``step_at`` picks."""
        return self.residual[self.step_at(t)]

    def to_csv(self) -> str:
        flat = [None] * (2 * len(self.residual))
        flat[0::2] = self.t.tolist()
        flat[1::2] = self.residual.tolist()
        return "t_s,residual_hz\n" + ("%.6f,%.9e\n" * len(self.residual)) % tuple(flat)


def _system_matrices(config: LockChainConfig):
    """Drift matrix A and noise covariance density Q of
    dX = -A X dt + Sigma dW for X = (e_photon, e_qm_master, e_wc)."""
    drifts = [config.drift.get(laser, DriftModel()) for laser in DRIVEN_LASERS]
    A = np.diag(np.array([d.reversion_rate for d in drifts], float))
    q = np.array([d.sigma**2 for d in drifts], float)

    # each servo pushes its laser against the beat error it measures: the
    # laser's own error for a comb lock (none is an open loop), BEAT . X for
    # the monitor lock
    open_loop = ServoModel(gain=0.0)
    locks = [config.comb_locks.get(laser, open_loop) for laser in DRIVEN_LASERS[:2]] + [config.monitor_lock]
    for i, (servo, beat) in enumerate(zip(locks, (*np.eye(3)[:2], np.array(BEAT)))):
        A[i] += servo.gain * beat
        q[i] += 2.0 * servo.gain * servo.residual_noise_rms**2

    return A, np.diag(q)


def _exact_step_operators(A: np.ndarray, Q: np.ndarray, dt: float):
    """Exact one-step transition M and noise factor L for the linear SDE.

    Update: x' = M x + L z with z standard normal.  The transition and the
    noise covariance C = int_0^dt e^(-As) Q e^(-A's) ds are built by scaling
    and doubling.  On a step h with ||A h|| <= 0.01 one Van Loan block
    exponential F = exp([[-A, Q], [0, A']] h) gives M = F11 and C = F12 M';
    at that norm its Taylor sum of degree 12 is exact to rounding, and Q,
    outside the diagonal of the triangular block, does not slow it.  The
    steps are composed with

        M(2t) = M(t)^2,  C(2t) = C(t) + M(t) C(t) M(t)'

    which stays contractive for arbitrarily stiff servo gains.  Zero or
    singular A (servos disabled) needs no special casing.
    """
    scale = np.linalg.norm(A, ord=np.inf) * dt
    k = max(0, int(math.ceil(math.log2(scale / 0.01)))) if scale > 0.01 else 0
    h = dt / 2**k

    K = np.zeros((6, 6))
    K[:3, :3], K[:3, 3:], K[3:, 3:] = -A * h, Q * h, A.T * h
    F = term = np.eye(6)
    for j in range(1, 13):
        term = term @ K / j
        F = F + term
    M = F[:3, :3]
    C = F[:3, 3:] @ M.T
    C = 0.5 * (C + C.T)

    for _ in range(k):
        C = C + M @ C @ M.T
        C = 0.5 * (C + C.T)
        M = M @ M

    # C can be singular (zero-noise lasers): the symmetric root, not Cholesky
    w, V = np.linalg.eigh(C)
    w = np.clip(w, 0.0, None)
    L = (V * np.sqrt(w)) @ V.T
    return M, L


def simulate_lock_run(
    config: LockChainConfig,
    duration: float,
    dt: float,
    seed: int,
) -> LockRunResult:
    """Simulate the closed-loop network and return residual telemetry.

    Deterministic for a given (config, duration, dt, seed).  The same seed
    with servos disabled replays the identical noise draws through the
    open-loop dynamics, so locked and unlocked runs are directly paired.
    """
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be > 0")
    n_steps = int(round(duration / dt))
    M, L = _exact_step_operators(*_system_matrices(config), dt)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    z = rng.standard_normal((n_steps, 3))

    traj = np.empty((n_steps + 1, 3))
    x = np.zeros(3)
    traj[0] = x
    for k in range(n_steps):
        x = M @ x + L @ z[k]
        traj[k + 1] = x

    return LockRunResult(
        dt=dt,
        residual=_residual(config.rf, traj.T),
        laser_errors={laser: traj[:, i].copy() for i, laser in enumerate(DRIVEN_LASERS)},
    )

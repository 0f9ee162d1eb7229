"""Frequency-stabilization network: drifting lasers, offset-lock servos, and
the derived-frequency identities that make the photon and memory frequencies
track each other.

Coordinate convention
---------------------
The state stores per-laser frequency *errors* in Hz: the deviation of each
driven laser from its nominal lock design point.  In this frame the nominal
beat between the monitoring upconversion light and the memory control laser
equals ``rf.f_beat`` by construction, so all derived frequencies are affine
functions of the three driven errors:

    nu_qm        = 2 * err(qm_master_1212)
    nu_afc       = nu_qm + rf.f_qm_pump_aom
    nu_monitor   = rf.f_beat + err(tpc_pump_1514) + err(wc_pump_1010)
    nu_606photon = nu_monitor + rf.f_noisecut_aom

The matching residual nu_606photon - nu_afc is therefore

    (f_beat + f_noisecut_aom - f_qm_pump_aom) + (e_photon + e_wc - 2*e_qm)

i.e. an RF bookkeeping term that vanishes for the stock RF values plus the
servo-suppressed combination of laser errors.  ``matching_residual`` and the
telemetry of ``simulate_lock_run`` both evaluate this one expression.  The
comb reference itself is treated as perfect.

Long runs
---------
``simulate_lock_run`` samples the closed-loop network at the telemetry step
(1 s by default).  Physical servo bandwidths (hundreds of Hz and up) are far
above 1 Hz, so an explicit Euler step at the telemetry rate cannot represent
the loop (it is unstable for gain*dt > 2).  Instead each step applies the
exact solution of the joint linear stochastic differential equation
(matrix exponential for the mean, Van Loan block integral for the noise
covariance), which is both faster and exact for any gain.  Free-running
drift is the same run with every servo disabled.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass, field, replace
from typing import Literal, Mapping

import numpy as np
from scipy.linalg import expm


class LaserId(str, enum.Enum):
    """Lasers of the network. The two 606 nm entries are derived, never driven."""

    TPC_PUMP_1514 = "tpc_pump_1514"
    QM_MASTER_1212 = "qm_master_1212"
    WC_PUMP_1010 = "wc_pump_1010"
    MONITOR_606 = "monitor_606"
    QM_CONTROL_606 = "qm_control_606"


DRIVEN_LASERS = (LaserId.TPC_PUMP_1514, LaserId.QM_MASTER_1212, LaserId.WC_PUMP_1010)
DERIVED_LASERS = (LaserId.MONITOR_606, LaserId.QM_CONTROL_606)


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
    """Free-running frequency drift: random walk or Ornstein-Uhlenbeck.

    ``sigma`` is the white-noise strength in Hz/sqrt(s); for the OU kind,
    ``reversion_rate`` (1/s) pulls the error back toward zero and the
    stationary standard deviation is sigma / sqrt(2 * reversion_rate).
    """

    kind: Literal["random_walk", "ou_process"] = "random_walk"
    sigma: float = 0.0
    reversion_rate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("random_walk", "ou_process"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.reversion_rate < 0:
            raise ValueError("reversion_rate must be >= 0")


@dataclass(frozen=True)
class ServoModel:
    """First-order offset-lock loop holding a beat note at ``setpoint``."""

    setpoint: float
    gain: float
    residual_noise_rms: float = 0.0
    enabled: bool = True

    def __post_init__(self):
        if self.enabled and self.gain <= 0:
            raise ValueError("enabled servo requires gain > 0")
        if self.residual_noise_rms < 0:
            raise ValueError("residual_noise_rms must be >= 0")


@dataclass(frozen=True)
class LaserNetworkState:
    """Frequency errors of the driven lasers (Hz) at simulation time ``time``."""

    errors: Mapping[LaserId, float] = field(
        default_factory=lambda: {laser: 0.0 for laser in DRIVEN_LASERS}
    )
    time: float = 0.0

    def __post_init__(self):
        errs = dict(self.errors)
        for laser in DRIVEN_LASERS:
            errs.setdefault(laser, 0.0)
        for laser in errs:
            if laser in DERIVED_LASERS:
                raise ValueError(f"{laser.value} is derived; it carries no independent error")
        object.__setattr__(self, "errors", errs)

    def error(self, laser: LaserId) -> float:
        return self.errors[laser]


@dataclass(frozen=True)
class DerivedFrequencies:
    """Derived network frequencies, offset form (see module docstring)."""

    nu_qm: float
    nu_afc: float
    nu_monitor: float
    nu_606photon: float


def derived_frequencies(state: LaserNetworkState, rf: RfOffsets) -> DerivedFrequencies:
    """Evaluate the frequency identities of the chain for the given state."""
    nu_qm = 2.0 * state.error(LaserId.QM_MASTER_1212)
    nu_monitor = rf.f_beat + state.error(LaserId.TPC_PUMP_1514) + state.error(LaserId.WC_PUMP_1010)
    return DerivedFrequencies(
        nu_qm=nu_qm,
        nu_afc=nu_qm + rf.f_qm_pump_aom,
        nu_monitor=nu_monitor,
        nu_606photon=nu_monitor + rf.f_noisecut_aom,
    )


def beat_frequency(state: LaserNetworkState, rf: RfOffsets) -> float:
    """Beat note between the monitoring light and the memory control laser."""
    d = derived_frequencies(state, rf)
    return d.nu_monitor - d.nu_qm


def _residual(rf: RfOffsets, e_photon, e_qm, e_wc):
    """nu_606photon - nu_afc from the driven lasers' errors (scalars or
    arrays): the RF bookkeeping term plus e_photon + e_wc - 2 e_qm."""
    return rf.mismatch + e_photon + e_wc - 2.0 * e_qm


def matching_residual(state: LaserNetworkState, rf: RfOffsets) -> float:
    """Photon-to-comb frequency mismatch nu_606photon - nu_afc (Hz)."""
    return _residual(
        rf,
        state.error(LaserId.TPC_PUMP_1514),
        state.error(LaserId.QM_MASTER_1212),
        state.error(LaserId.WC_PUMP_1010),
    )


def comb_lock(gain: float, residual_noise_rms: float = 0.0, enabled: bool = True) -> ServoModel:
    """Offset lock of a laser to the frequency comb: in error coordinates the
    measured beat is the laser error itself, so the setpoint is zero."""
    return ServoModel(setpoint=0.0, gain=gain, residual_noise_rms=residual_noise_rms, enabled=enabled)


def _default_drifts() -> dict[LaserId, DriftModel]:
    # Calibration, not a claim: free-running random walk sized so an unlocked
    # 12 h excursion is a few MHz (typical external-cavity diode laser scale).
    return {laser: DriftModel("random_walk", sigma=15e3) for laser in DRIVEN_LASERS}


def _default_comb_locks() -> dict[LaserId, ServoModel]:
    return {
        LaserId.TPC_PUMP_1514: comb_lock(gain=2000.0, residual_noise_rms=200.0),
        LaserId.QM_MASTER_1212: comb_lock(gain=2000.0, residual_noise_rms=200.0),
    }


@dataclass(frozen=True)
class LockChainConfig:
    """Complete description of the stabilization network for a long run.

    The monitor lock's setpoint defaults to the configured beat frequency,
    so changing ``rf.f_beat`` moves the lock point with it (as retuning the
    offset-lock synthesizer would).
    """

    rf: RfOffsets = field(default_factory=RfOffsets)
    drift: Mapping[LaserId, DriftModel] = field(default_factory=_default_drifts)
    comb_locks: Mapping[LaserId, ServoModel] = field(default_factory=_default_comb_locks)
    monitor_lock: ServoModel | None = None

    def __post_init__(self):
        if self.monitor_lock is None:
            object.__setattr__(
                self,
                "monitor_lock",
                ServoModel(setpoint=self.rf.f_beat, gain=2000.0, residual_noise_rms=200.0),
            )
        for laser in self.drift:
            if laser in DERIVED_LASERS:
                raise ValueError("drift models apply to driven lasers only")
        for laser in self.comb_locks:
            if laser not in (LaserId.TPC_PUMP_1514, LaserId.QM_MASTER_1212):
                raise ValueError("comb locks act on the 1514 and 1212 nm lasers")

    def with_servos_disabled(self) -> "LockChainConfig":
        locks = {k: replace(v, enabled=False) for k, v in self.comb_locks.items()}
        return replace(
            self,
            comb_locks=locks,
            monitor_lock=replace(self.monitor_lock, enabled=False),
        )


@dataclass(frozen=True)
class LockRunResult:
    """Residual telemetry of a simulated lock run."""

    t: np.ndarray
    residual: np.ndarray
    laser_errors: dict[LaserId, np.ndarray]
    max_abs_residual: float
    rms_residual: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t_s,residual_hz\n")
        for ti, ri in zip(self.t, self.residual):
            buf.write(f"{ti:.6f},{ri:.9e}\n")
        return buf.getvalue()


# state vector order for the joint linear SDE
_ORDER = (LaserId.TPC_PUMP_1514, LaserId.QM_MASTER_1212, LaserId.WC_PUMP_1010)


def _system_matrices(config: LockChainConfig):
    """Drift matrix A, forcing b and noise covariance density Q of
    dX = (-A X + b) dt + Sigma dW for X = (e_photon, e_qm_master, e_wc)."""
    A = np.zeros((3, 3))
    b = np.zeros(3)
    q = np.zeros(3)

    for i, laser in enumerate(_ORDER):
        drift = config.drift.get(laser, DriftModel("random_walk", 0.0))
        q[i] += drift.sigma**2
        if drift.kind == "ou_process":
            A[i, i] += drift.reversion_rate

    for i, laser in enumerate(_ORDER[:2]):
        servo = config.comb_locks.get(laser)
        if servo is not None and servo.enabled:
            A[i, i] += servo.gain
            b[i] += servo.gain * servo.setpoint  # setpoint 0 for a comb lock
            q[i] += 2.0 * servo.gain * servo.residual_noise_rms**2

    mon = config.monitor_lock
    if mon.enabled:
        # beat error = e_photon + e_wc - 2 e_qm + (f_beat - setpoint)
        A[2, 0] += mon.gain
        A[2, 1] += -2.0 * mon.gain
        A[2, 2] += mon.gain
        b[2] += -mon.gain * (config.rf.f_beat - mon.setpoint)
        q[2] += 2.0 * mon.gain * mon.residual_noise_rms**2

    return A, b, np.diag(q)


def _exact_step_operators(A: np.ndarray, b: np.ndarray, Q: np.ndarray, dt: float):
    """Exact one-step transition (M, m) and noise factor L for the linear SDE.

    Mean update: x' = M x + m.  Noise: x' += L z with z standard normal.
    The transition and the noise covariance C = int_0^dt e^(-As) Q e^(-A's) ds
    are built by scaling and doubling: the Van Loan block integral is
    evaluated on a step small against 1/||A|| (where it is well conditioned
    even though the block form contains +A') and composed with

        M(2t) = M(t)^2,  m(2t) = (I + M(t)) m(t),
        C(2t) = C(t) + M(t) C(t) M(t)'

    which stays contractive for arbitrarily stiff servo gains.  Zero or
    singular A (servos disabled) needs no special casing.
    """
    scale = np.linalg.norm(A, ord=np.inf) * dt
    k = max(0, int(math.ceil(math.log2(scale / 0.01)))) if scale > 0.01 else 0
    h = dt / 2**k

    aug = np.zeros((4, 4))
    aug[:3, :3] = -A
    aug[:3, 3] = b
    Maug = expm(aug * h)
    M = Maug[:3, :3]
    m = Maug[:3, 3]

    # Van Loan block integral: with G = [[A, Q], [0, -A']], the (1,2) block of
    # expm(G h) left-multiplied by e^(-A h) is exactly int_0^h e^(-As) Q e^(-A's) ds
    G = np.zeros((6, 6))
    G[:3, :3] = A
    G[:3, 3:] = Q
    G[3:, 3:] = -A.T
    F = expm(G * h)
    C = F[3:, 3:].T @ F[:3, 3:]
    C = 0.5 * (C + C.T)

    for _ in range(k):
        C = C + M @ C @ M.T
        C = 0.5 * (C + C.T)
        m = m + M @ m
        M = M @ M

    # covariance can be singular (zero-noise lasers); use an eigh-based factor
    w, V = np.linalg.eigh(C)
    w = np.clip(w, 0.0, None)
    L = V * np.sqrt(w)
    return M, m, L


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
    A, b, Q = _system_matrices(config)
    M, m, L = _exact_step_operators(A, b, Q, dt)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    z = rng.standard_normal((n_steps, 3))

    traj = np.empty((n_steps + 1, 3))
    x = np.zeros(3)
    traj[0] = x
    for k in range(n_steps):
        x = M @ x + m + L @ z[k]
        traj[k + 1] = x

    t = dt * np.arange(n_steps + 1)
    residual = _residual(config.rf, traj[:, 0], traj[:, 1], traj[:, 2])
    return LockRunResult(
        t=t,
        residual=residual,
        laser_errors={laser: traj[:, i].copy() for i, laser in enumerate(_ORDER)},
        max_abs_residual=float(np.max(np.abs(residual))),
        rms_residual=float(np.sqrt(np.mean(residual**2))),
    )

"""Scenario configuration: one serializable description of an experiment run.

JSON documents map 1:1 onto the dataclasses (same field names, SI units:
seconds, Hz, counts/s; fiber length in km, pump power in mW).  Unknown keys
are rejected with the offending path in the error, so config typos fail
loudly instead of silently running defaults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Any, Optional

from .channel import ConverterConfig, FiberLink, ShutterSchedule
from .detection import SPDConfig
from .lockchain import DriftModel, LaserId, LockChainConfig, RfOffsets, ServoModel
from .memory import AFCConfig, InhomogeneousProfile
from .source import SourceConfig
from .spectral import tpc_mode_offsets


class ScenarioError(ValueError):
    """Invalid scenario configuration; ``field`` names the offending entry."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


@dataclass(frozen=True)
class HistogramLayout:
    bin_width: float = 0.128e-9
    tau_min: float = -200e-9
    tau_max: float = 1400e-9
    signal_window: tuple[float, float] = (900e-9, 1150e-9)
    noise_window: tuple[float, float] = (1155e-9, 1195e-9)


@dataclass(frozen=True)
class MemorySettings:
    inhomogeneous: InhomogeneousProfile = field(default_factory=InhomogeneousProfile)
    afc: AFCConfig = field(default_factory=AFCConfig)
    slow_light_delay: float = 150e-9

    def __post_init__(self):
        if self.slow_light_delay < 0:
            raise ValueError("slow_light_delay must be >= 0")

    @property
    def max_delay(self) -> float:
        """Widest delay a photon can pick up in the memory before detection:
        storage time plus slow-light delay, with a 100 ns margin."""
        return self.afc.storage_time + self.slow_light_delay + 100e-9


@dataclass(frozen=True)
class DetectorSettings:
    herald: SPDConfig = field(default_factory=SPDConfig)
    signal: SPDConfig = field(default_factory=lambda: SPDConfig(dark_rate=300.0))


@dataclass(frozen=True)
class LockSettings:
    """Lock chain treatment: 'ideal' pins the matching residual at zero;
    'simulated' runs the closed-loop network and feeds its residual into
    every photon's mode offset before the memory."""

    mode: str = "ideal"
    config: Optional[LockChainConfig] = None
    dt: float = 1.0

    def __post_init__(self):
        if self.mode not in ("ideal", "simulated"):
            raise ValueError("lock mode must be 'ideal' or 'simulated'")
        if self.mode == "simulated" and self.config is None:
            object.__setattr__(self, "config", LockChainConfig())
        if self.dt <= 0:
            raise ValueError("lock dt must be > 0")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    duration: float
    source: SourceConfig
    link: FiberLink = field(default_factory=FiberLink)
    converter: ConverterConfig = field(default_factory=ConverterConfig)
    shutter: ShutterSchedule = field(default_factory=ShutterSchedule)
    memory: MemorySettings = field(default_factory=MemorySettings)
    detectors: DetectorSettings = field(default_factory=DetectorSettings)
    histogram: HistogramLayout = field(default_factory=HistogramLayout)
    lock: LockSettings = field(default_factory=LockSettings)

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        # the memory comb plan always follows the active source modes
        offsets = tuple(tpc_mode_offsets(self.source.n_modes, self.source.fsr))
        object.__setattr__(self, "memory", replace(
            self.memory, afc=replace(self.memory.afc, mode_offsets=offsets)
        ))
        # the engine runs batches of cycles independently; that drops nothing
        # only while no coincidence or dead time reaches across the
        # preparation phase that separates two batches
        reach = (
            self.histogram.tau_max - self.histogram.tau_min + self.memory.max_delay
            + max(self.detectors.herald.dead_time, self.detectors.signal.dead_time)
        )
        if not self.shutter.prep_duration > reach:
            raise ScenarioError(
                "shutter.prep_duration",
                f"must exceed the {reach:.4g} s coincidence and dead-time reach "
                "(tau_max - tau_min + memory delay + dead time)",
            )

    def with_mode_count(self, n_modes: int, scale_rate: bool = True) -> "ScenarioConfig":
        """Same scenario with a different multiplexing count; the pair rate
        scales proportionally by default (constant rate per mode)."""
        rate = self.source.total_pair_rate
        if scale_rate:
            rate = rate * n_modes / self.source.n_modes
        src = replace(self.source, n_modes=n_modes, total_pair_rate=rate, mode_weights=None)
        return replace(self, source=src)

    def with_rate(self, total_pair_rate: float) -> "ScenarioConfig":
        return replace(self, source=replace(self.source, total_pair_rate=total_pair_rate))


# ---------------------------------------------------------------------------
# JSON (de)serialization.  Strict: every key must be a known dataclass field.

_LASER_KEYS = {laser.value: laser for laser in LaserId}


def _check_keys(d: dict, cls, path: str):
    known = {f.name for f in dataclasses.fields(cls)}
    for k in d:
        if k not in known:
            raise ScenarioError(f"{path}.{k}" if path else k, "unknown key")


def _build(cls, d: Any, path: str):
    """Construct dataclass ``cls`` from a plain dict, recursing into known
    dataclass fields and converting list pairs to tuples."""
    if not isinstance(d, dict):
        raise ScenarioError(path, f"expected an object, got {type(d).__name__}")
    _check_keys(d, cls, path)
    kwargs = {}
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    for k, v in d.items():
        sub = f"{path}.{k}" if path else k
        kwargs[k] = _convert(types[k], v, sub)
    try:
        return cls(**kwargs)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(path or cls.__name__, str(exc)) from exc


_DATACLASS_FIELDS = {
    "source": SourceConfig,
    "link": FiberLink,
    "converter": ConverterConfig,
    "shutter": ShutterSchedule,
    "memory": MemorySettings,
    "detectors": DetectorSettings,
    "histogram": HistogramLayout,
    "lock": LockSettings,
    "inhomogeneous": InhomogeneousProfile,
    "afc": AFCConfig,
    "herald": SPDConfig,
    "signal": SPDConfig,
    "rf": RfOffsets,
    "monitor_lock": ServoModel,
}


def _convert(annotation, v, path: str):
    name = path.rsplit(".", 1)[-1]
    if name == "config" and isinstance(v, dict):
        return _lock_chain_from_dict(v, path)
    if name in ("drift", "comb_locks") and isinstance(v, dict):
        sub_cls = DriftModel if name == "drift" else ServoModel
        out = {}
        for laser_name, sub in v.items():
            if laser_name not in _LASER_KEYS:
                raise ScenarioError(f"{path}.{laser_name}", "unknown laser id")
            out[_LASER_KEYS[laser_name]] = _build(sub_cls, sub, f"{path}.{laser_name}")
        return out
    if name in _DATACLASS_FIELDS and isinstance(v, dict):
        return _build(_DATACLASS_FIELDS[name], v, path)
    if isinstance(v, list):
        return tuple(v)
    return v


def _lock_chain_from_dict(d: dict, path: str) -> LockChainConfig:
    return _build(LockChainConfig, d, path)


def scenario_from_dict(d: dict) -> ScenarioConfig:
    return _build(ScenarioConfig, d, "")


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    def enc(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {f.name: enc(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if isinstance(obj, dict):
            return {(k.value if isinstance(k, LaserId) else k): enc(v) for k, v in obj.items()}
        if isinstance(obj, tuple):
            return [enc(x) for x in obj]
        if isinstance(obj, LaserId):
            return obj.value
        return obj

    d = enc(cfg)
    # mode_offsets are derived from the source plan, not an input
    d["memory"]["afc"].pop("mode_offsets", None)
    return d


def scenario_from_json(text: str) -> ScenarioConfig:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("<document>", f"invalid JSON: {exc}") from exc
    return scenario_from_dict(d)


def scenario_to_json(cfg: ScenarioConfig) -> str:
    return json.dumps(scenario_to_dict(cfg), indent=2, sort_keys=True)


def config_hash(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(scenario_to_json(cfg).encode()).hexdigest()


def load_scenario_file(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_json(fh.read())


def load_bundled_scenario(name: str) -> ScenarioConfig:
    """Load one of the scenario files shipped with the package."""
    fname = name if name.endswith(".json") else f"{name}.json"
    ref = resources.files("afclink").joinpath("scenarios", fname)
    return scenario_from_json(ref.read_text(encoding="utf-8"))


def bundled_scenarios() -> list[str]:
    folder = resources.files("afclink").joinpath("scenarios")
    return sorted(p.name[:-5] for p in folder.iterdir() if p.name.endswith(".json"))

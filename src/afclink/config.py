"""Scenario configuration: one serializable description of an experiment run.

JSON documents map 1:1 onto the dataclasses (same field names, SI units:
seconds, Hz, counts/s; fiber length in km, pump power in mW).  The decoder
follows the dataclasses' type hints: unknown or missing keys, values of the
wrong type and lists of the wrong length fail loudly at load, with the
offending path in the error, instead of running defaults or failing mid-run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import types
import typing
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Any, Literal, Optional

import numpy as np

from .channel import ConverterConfig, FiberLink, ShutterSchedule
from .detection import HistogramLayout, SPDConfig
from .lockchain import LaserId, LockChainConfig
from .memory import AFCConfig, InhomogeneousProfile
from .source import SourceConfig


_REACH_SIGMAS = 8  # jitter sigmas of margin on both sides of the signal reach
_MAX_RATE_DEAD_TIME = 1e-2  # largest click rate x dead time of either detector


class ScenarioError(ValueError):
    """Invalid scenario configuration; ``field`` names the offending entry."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


@dataclass(frozen=True)
class MemorySettings:
    inhomogeneous: InhomogeneousProfile = field(default_factory=InhomogeneousProfile)
    afc: AFCConfig = field(default_factory=AFCConfig)
    slow_light_delay: float = 150e-9

    def __post_init__(self):
        if self.slow_light_delay < 0:
            raise ValueError("slow_light_delay must be >= 0")

    @property
    def echo_delay(self) -> float:
        """Herald-to-echo delay: storage time plus slow-light delay, the
        longest a photon stays in the memory."""
        return self.afc.storage_time + self.slow_light_delay


@dataclass(frozen=True)
class DetectorSettings:
    herald: SPDConfig = field(default_factory=SPDConfig)
    signal: SPDConfig = field(default_factory=lambda: SPDConfig(dark_rate=300.0))


@dataclass(frozen=True)
class LockSettings:
    """Lock chain treatment: 'ideal' pins the matching residual at zero and
    takes no ``config``; 'simulated' runs the closed-loop network ``config``
    (the default chain when null) at telemetry step ``dt`` and feeds its
    residual into every photon's mode offset before the memory.
    ``afclink lockcheck`` writes the same realisation (``pipeline.lock_run``)."""

    mode: Literal["ideal", "simulated"] = "ideal"
    config: Optional[LockChainConfig] = None
    dt: float = 1.0

    def __post_init__(self):
        if self.mode not in ("ideal", "simulated"):
            raise ValueError("lock mode must be 'ideal' or 'simulated'")
        if self.mode == "ideal" and self.config is not None:
            raise ScenarioError("lock.config", "must be null for an ideal lock, which runs no chain")
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
        if not self.duration > 0:
            raise ScenarioError("duration", "must be > 0")
        if self.seed < 0:
            raise ScenarioError("seed", "must be >= 0")
        # the memory prepares one pit per source mode; overlapping pits are
        # refused, since the nearest-mode pick cannot tell them apart
        try:
            modes = self.source.mode_offsets()
        except ValueError as exc:
            raise ScenarioError("source.n_modes", str(exc)) from exc
        if len(modes) > 1 and np.diff(modes).min() <= 2 * self.memory.afc.pit_halfwidth:
            raise ScenarioError("memory.afc.pit_halfwidth",
                                "adjacent mode pits overlap; reduce pit_halfwidth or respace modes")
        # the signal reach covers one dead time of shadowing, and the sparse
        # herald stream one herald dead time around each drawn herald; chains
        # of dead times are second order in click rate x dead time (Mueller,
        # Nucl. Instrum. Methods 112, 1973, 47), so that product must stay
        # small at each detector's highest click rate
        for name in ("signal", "herald"):
            det = getattr(self.detectors, name)
            r_max = det.efficiency * (
                self.converter.arm_noise_rate + self.source.total_pair_rate * self.signal_survival.max()
            ) + det.dark_rate
            if r_max * det.dead_time > _MAX_RATE_DEAD_TIME:
                raise ScenarioError(
                    f"detectors.{name}.dead_time",
                    f"highest click rate {r_max:.4g}/s x dead time is {r_max * det.dead_time:.3g}, "
                    f"above {_MAX_RATE_DEAD_TIME:g}",
                )
        # the echo must land where the histogram counts it and the gate holds
        echo = self.memory.echo_delay
        for path, (a, b) in (("histogram.signal_window", self.histogram.signal_window),
                             ("shutter.echo_window", self.shutter.echo_window)):
            if not a <= echo <= b:
                raise ScenarioError(path, f"[{a:.4g}, {b:.4g}] s misses the {echo:.4g} s echo delay "
                                          "(storage time plus slow-light delay)")
        # the engine runs batches of cycles independently; that drops nothing
        # only while the preparation phase between two outlasts the signal
        # reach plus a herald dead time, and the delay margin of a pair delay
        lo, hi = self.signal_reach
        reach = hi - lo + self.detectors.herald.dead_time
        if not self.shutter.prep_duration > max(reach, self.delay_margin):
            raise ScenarioError(
                "shutter.prep_duration",
                f"must exceed both the {reach:.4g} s signal reach plus herald dead time "
                f"and the {self.delay_margin:.4g} s delay margin",
            )

    @property
    def signal_survival(self) -> np.ndarray:
        """Per source mode, the chance that a signal photon survives the
        fiber and the converter and reaches the gate."""
        return self.link.survival_probability * self.converter.conversion_probability(self.source.mode_offsets())

    @property
    def jitter_margin(self) -> float:
        """8 signal-detector jitter sigmas: the farthest the engine takes a
        signal click's jitter to move it."""
        return _REACH_SIGMAS * self.detectors.signal.jitter_sigma

    @property
    def delay_margin(self) -> float:
        """36 pair coherence times, which a Laplace pair delay exceeds with chance e^-36."""
        return 36.0 * self.source.coherence_time

    @property
    def signal_reach(self) -> tuple[float, float]:
        """Herald-relative memory-entry times from which a signal-arm photon
        can still reach the histogram or meet a closed gate: ``tau_min`` less
        the echo delay, one signal dead time and the jitter margin, to the
        later of ``tau_max`` and the gate's reopening plus the margin.  The
        closures start at ``herald_close_delay`` >= 0, and the lower end is
        negative (the signal window holds the echo delay), so the reach
        covers every closure a herald commands."""
        h, margin = self.histogram, self.jitter_margin
        return (
            h.tau_min - self.memory.echo_delay - self.detectors.signal.dead_time - margin,
            max(h.tau_max, self.shutter.echo_window[1]) + margin,
        )

    def with_rate(self, total_pair_rate: float) -> "ScenarioConfig":
        return replace(self, source=replace(self.source, total_pair_rate=total_pair_rate))


# ---------------------------------------------------------------------------
# JSON (de)serialization, driven by the dataclasses' type hints.

_type_hints = functools.cache(typing.get_type_hints)


def _reject(path: str, expected: str, value: Any) -> typing.NoReturn:
    got = json.dumps(value, default=repr)[:40]
    raise ScenarioError(path or "<document>", f"expected {expected}, got {got}")


def _decode(tp, value: Any, path: str):
    """``value`` from a JSON document as an instance of the type hint ``tp``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # Optional[X] and X | None
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else _decode(inner, value, path)
    if dataclasses.is_dataclass(tp) or origin is Mapping:
        if not isinstance(value, dict):
            _reject(path, "an object", value)
        # a dataclass is keyed by its fields, a Mapping by an enum
        keys = {m.value: m for m in args[0]} if origin else {f.name: f for f in dataclasses.fields(tp)}
        for k in value:
            if k not in keys:
                raise ScenarioError(f"{path}.{k}" if path else k,
                                    f"unknown key; expected one of {', '.join(keys)}")
        if origin is Mapping:
            return {keys[k]: _decode(args[1], v, f"{path}.{k}") for k, v in value.items()}
        return _build(tp, value, path)
    if origin in (tuple, Sequence):
        fixed = origin is tuple and args[-1] is not Ellipsis
        if not isinstance(value, list) or (fixed and len(value) != len(args)):
            _reject(path, f"a list of {len(args)}" if fixed else "a list", value)
        items = args if fixed else (args[0],) * len(value)
        return tuple(_decode(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    if origin is Literal:
        if value not in args:
            _reject(path, f"one of {', '.join(map(json.dumps, args))}", value)
    elif tp is float:
        # an int stays an int, so the document's config_sha256 does not move
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            _reject(path, "a finite number", value)
    elif type(value) is not tp:  # int, bool, str: True is no int and 1.0 no int
        _reject(path, {int: "an integer", bool: "true or false", str: "a string"}[tp], value)
    return value


def _build(cls, d: dict, path: str):
    """Construct dataclass ``cls`` from a JSON object ``d`` of its fields."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        sub = f"{path}.{f.name}" if path else f.name
        if f.name in d:
            kwargs[f.name] = _decode(_type_hints(cls)[f.name], d[f.name], sub)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ScenarioError(sub, "missing required key")
    try:
        return cls(**kwargs)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(path or "<document>", str(exc)) from exc


def scenario_from_dict(d: dict) -> ScenarioConfig:
    return _decode(ScenarioConfig, d, "")


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    def enc(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {f.name: enc(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if isinstance(obj, dict):
            return {enc(k): enc(v) for k, v in obj.items()}
        if isinstance(obj, tuple):
            return [enc(x) for x in obj]
        if isinstance(obj, LaserId):
            return obj.value
        return obj

    return enc(cfg)


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

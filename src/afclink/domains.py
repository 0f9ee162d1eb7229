"""Declared value domains of the numbers the program takes in, and the one
check that enforces them.

A config field declares its domain once, as ``ranged("> 0", default)``.  A
dataclass that derives from ``Checked`` refuses, at construction, a value
outside a declared domain.  The public kernels and the CLI pass their
numeric arguments and flags through the same ``check``.  Each domain is a
membership test of finite numbers, which NaN and +-inf fail.  A
``__post_init__`` keeps only the relations between fields, and calls
``super().__post_init__()`` first.
"""

from __future__ import annotations

import dataclasses
import math

#: the domains a number can declare, by the text a refusal prints
DOMAINS = {
    "> 0": lambda v: 0 < v < math.inf,
    ">= 0": lambda v: 0 <= v < math.inf,
    "> 1": lambda v: 1 < v < math.inf,
    ">= 1": lambda v: 1 <= v < math.inf,
    "in [0, 1]": lambda v: 0 <= v <= 1,
}


class ScenarioError(ValueError):
    """An invalid number or scenario setting; ``field`` names the offending
    entry: a kernel argument (``fsr``) or a CLI flag (``--hours``), a field
    relative to the dataclass when one is constructed directly (``loss``),
    and a path once a document is decoded (``link.loss``)."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        self.message = message
        super().__init__(f"{field_path}: {message}")


def check(name: str, value, domain: str) -> None:
    """Refuse ``value`` under ``name`` unless it lies in ``DOMAINS[domain]``."""
    if not DOMAINS[domain](value):
        raise ScenarioError(name, f"must be a finite number {domain}")


def ranged(domain: str, default=dataclasses.MISSING):
    """A dataclass field whose value must lie in ``DOMAINS[domain]``."""
    return dataclasses.field(default=default, metadata={"domain": domain})


class Checked:
    """Base of the config dataclasses: construction refuses a value outside
    its field's declared domain, naming that field."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            domain = f.metadata.get("domain")
            if domain:
                check(f.name, getattr(self, f.name), domain)

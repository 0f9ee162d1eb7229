"""Declared value domains of the config dataclasses' numeric fields, and the
one check that enforces them.

A field declares its domain once, as ``ranged("> 0", default)``.  A dataclass
that derives from ``Checked`` refuses, at construction, a value outside a
declared domain.  Each domain is a membership test, which NaN fails.  A
``__post_init__`` keeps only the relations between fields, and calls
``super().__post_init__()`` first.
"""

from __future__ import annotations

import dataclasses

#: the domains a numeric field can declare, by the text a refusal prints
DOMAINS = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    "> 1": lambda v: v > 1,
    ">= 1": lambda v: v >= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
}


class ScenarioError(ValueError):
    """Invalid scenario configuration; ``field`` names the offending entry,
    relative to the dataclass when one is constructed directly (``loss``)
    and absolute once a document is decoded (``link.loss``)."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        self.message = message
        super().__init__(f"{field_path}: {message}")


def ranged(domain: str, default=dataclasses.MISSING):
    """A dataclass field whose value must lie in ``DOMAINS[domain]``."""
    return dataclasses.field(default=default, metadata={"domain": domain})


class Checked:
    """Base of the config dataclasses: construction refuses a value outside
    its field's declared domain, naming that field."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            domain = f.metadata.get("domain")
            if domain and not DOMAINS[domain](getattr(self, f.name)):
                raise ScenarioError(f.name, f"must be {domain}")

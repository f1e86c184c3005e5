"""Hierarchical split generation, metric-learning loss kernels, and linking metrics."""

import json
import math
import numbers
import operator
from dataclasses import fields
from pathlib import Path

import numpy as np

__version__ = "0.1.0"


def check_fields(config, error: type[Exception]) -> None:
    """Raise ``error`` unless every ``int`` and ``float`` field of ``config`` is a plain number.

    An int field holds an integer (numpy's too) that fits in int64, except
    ``seed``, which `seeded_rng` takes mod 2**64.  A float field holds a real
    whose float value is finite.  A bool is neither.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int":
            ok = isinstance(value, numbers.Integral)
        elif f.type == "float":
            try:
                ok = isinstance(value, numbers.Real) and math.isfinite(value)
            except OverflowError:  # an int too large for a float
                ok = False
        else:
            continue
        if isinstance(value, bool) or not ok:
            raise error(f"{f.name} must be a finite {f.type}, got {value!r}")
        if f.type == "int" and f.name != "seed" and not -2**63 <= value < 2**63:
            raise error(f"{f.name} must fit in int64, got {value!r}")  # numpy shapes are int64


def seeded_rng(seed) -> np.random.Generator:
    """The generator of an integer seed; seeds equal mod 2**64 give the same stream."""
    return np.random.default_rng(operator.index(seed) & 0xFFFFFFFFFFFFFFFF)


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as UTF-8 JSON, indented by 2, with a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

"""Hierarchical split generation, metric-learning loss kernels, and linking metrics.

Every file encoding lives here (UTF-8 text, CSV, JSON, the EMB1/TOY1 binary frame); a format
module keeps its own headers and shapes, and names the error that a bad file raises.
"""

import csv
import io
import json
import math
import numbers
import operator
import struct
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


def read_text(path, error: type[Exception]) -> str:
    """The UTF-8 text of ``path``, newlines as written; bytes that do not decode raise ``error``."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None


def read_csv(path, error: type[Exception]):
    """The `csv.reader` rows of `read_text`; text that does not parse raises ``error``."""
    rows = csv.reader(io.StringIO(read_text(path, error), newline=""))
    try:
        yield from rows
    except csv.Error as exc:
        raise error(f"{path}: line {rows.line_num}: {exc}") from None


def write_csv(path, header, rows) -> None:
    """``header`` then ``rows`` as UTF-8 CSV in the csv module's default dialect."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([header, *rows])


def write_frame(path, magic: bytes, a: int, b: int, *arrays) -> None:
    """``magic``, u32 ``a`` and ``b``, then each array as float32, row-major; all little-endian."""
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<II", a, b))
        f.writelines(np.ascontiguousarray(array, dtype="<f4").tobytes() for array in arrays)


def read_frame(path, magic: bytes, error: type[Exception]) -> tuple[int, int, np.ndarray]:
    """``(a, b, read-only payload)`` of a ``magic`` frame; a bad magic or size raises ``error``."""
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise error(f"{path}: bad magic {raw[:4]!r}, expected {magic!r}")
    if len(raw) < 12 or len(raw) % 4:
        raise error(f"{path}: size {len(raw)} is not a 12-byte header and whole float32 values")
    a, b = struct.unpack_from("<II", raw, 4)
    return a, b, np.frombuffer(raw, dtype="<f4", offset=12)

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
from itertools import accumulate, permutations
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


def _seed_states(seeds) -> np.ndarray:
    """``SeedSequence(seed).generate_state(8, np.uint32)`` of each seed mod 2**64, S x 8."""
    # SeedSequence's hash constants, built per call (module-level arrays shifted the heap and
    # raised peak RSS by 1.3 MB): hash call i xors with mix[i], then multiplies by mix[i + 1]
    mix = np.array([0x43B0D7E5 * 0x931E8875**i & 0xFFFFFFFF for i in range(17)], np.uint32)
    state = np.array([0x8B51F9DD * 0x58F38DED**i & 0xFFFFFFFF for i in range(9)], np.uint32)
    seeds = np.array([operator.index(seed) & 0xFFFFFFFFFFFFFFFF for seed in seeds], np.uint64)
    pool = np.stack([seeds, seeds >> 32, 0 * seeds, 0 * seeds]).astype(np.uint32)  # low word first
    pool = (pool ^ mix[:4, None]) * mix[1:5, None]
    pool ^= pool >> 16
    for (src, dst), xor, mult in zip(permutations(range(4), 2), mix[4:], mix[5:]):
        h = (pool[src] ^ xor) * mult
        pool[dst] = pool[dst] * np.uint32(0xCA01F9DD) - (h ^ h >> 16) * np.uint32(0x4973F715)
        pool[dst] ^= pool[dst] >> 16
    words = (np.tile(pool.T, 2) ^ state[:-1]) * state[1:]
    return words ^ words >> 16


def seeded_words(seeds, n: int) -> np.ndarray:
    """The first n ``next_uint32`` words of each ``seeded_rng(seed)``, S x n uint64 under 2**32.

    numpy fixes the SeedSequence and PCG64 streams (NEP 19).  Seeded from `_seed_states`,
    PCG64's output t is the XSL-RR of initstate * M**(t+2) + inc * (1 + M + .. + M**(t+2)).
    """
    seed = _seed_states(seeds).astype("<u4").view("<u8").astype(np.uint64).T[..., None]
    inc = seed[2] << 1 | seed[3] >> 63, seed[3] << 1 | 1  # 2 * initseq + 1, high then low
    powers = [pow(0x2360ED051FC65DA44385DF649FCCF645, t, 2**128) for t in range((n + 5) // 2)]
    high = low = 0
    for (xh, xl), jump in zip([seed[:2], inc], [powers[2:], list(accumulate(powers))[2:]]):
        yh, yl = np.array([divmod(y % 2**128, 2**64) for y in jump], np.uint64).T
        x0, x1, y0, y1 = xl & 0xFFFFFFFF, xl >> 32, yl & 0xFFFFFFFF, yl >> 32  # sum x * y
        mid = x1 * y0 + (x0 * y0 >> 32)
        low = low + (part := xl * yl)
        high = high + xh * yl + xl * yh + x1 * y1 + (low < part)
        high += (mid >> 32) + (x0 * y1 + (mid & 0xFFFFFFFF) >> 32)
    out, rot = high ^ low, high >> 58  # XSL-RR: xor the halves, rotate right by the top 6 bits
    out = out >> rot | out << (64 - rot & 63)  # then each output is two words, low first
    return np.stack([out & 0xFFFFFFFF, out >> 32], axis=-1).reshape(len(out), -1)[:, :n]


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

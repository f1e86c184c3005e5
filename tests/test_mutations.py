"""Seeded mutations of every artifact a command reads, run through `cli.main`.

The files of a 6 x 4 x 12 corpus (the catalog CSV, the splits CSV, the
EMB1 matrix with its ``.ids`` file and a TOY1 model) are mutated 300 times
with stdlib `random`: byte flips, truncation, duplicated bytes, duplicated
or deleted lines, swapped or blank cells, and a NaN float.  Each mutated
set runs through one command that reads the mutated file.  A run either
exits 0, or exits 1 with stderr starting ``error: `` and writes nothing but
`verify`'s report: bad input fails at the boundary, never as a traceback.
A mutation that leaves a file valid (a flipped float, a renamed id) exits 0
with other numbers; no reader can tell it apart.
"""

import random
import shutil
import struct

import pytest

from splitmetric.cli import main

MUTATIONS = 300
TEXT = ("catalog.csv", "splits.csv", "features.emb.ids")
BINARY = ("features.emb", "model.toy1")


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    assert run("synth", "--out-catalog", root / "catalog.csv", "--out-features",
               root / "features.emb", "--chains", 6, "--branches-per-chain", 4,
               "--images-per-branch", 12, "--d-in", 8, "--seed", 3) == 0
    assert run("split", "--catalog", root / "catalog.csv", "--out", root / "splits.csv",
               "--report", root / "report.json") == 0
    assert run("train", "--catalog", root / "catalog.csv", "--splits", root / "splits.csv",
               "--features", root / "features.emb", "--epochs", 1, "--m", 4, "--k", 3,
               "--out", root / "model.toy1", "--history", root / "history.csv") == 0
    return root


def commands(inputs, outputs) -> dict:
    """Each command line of the probe, with the input files it reads."""
    c, s, f, m = (inputs / name for name in ("catalog.csv", "splits.csv", "features.emb",
                                             "model.toy1"))
    return {
        "verify": (["verify", "--catalog", c, "--splits", s, "--report",
                    outputs / "verify.json"], {c, s}),
        "train": (["train", "--catalog", c, "--splits", s, "--features", f, "--epochs", 1,
                   "--m", 4, "--k", 3, "--out", outputs / "m.toy1", "--history",
                   outputs / "h.csv"], {c, s, f}),
        "eval_model": (["eval", "--catalog", c, "--model", m, "--features", f, "--splits", s,
                        "--split", "test_ss", "--repeats", 2, "--out", outputs / "e.json"],
                       {c, s, f, m}),
        "eval_reference": (["eval", "--catalog", c, "--embeddings", f, "--reference", f,
                            "--hard-k", 3, "--repeats", 2, "--out", outputs / "e.json"], {c, f}),
        "mine": (["mine", "--catalog", c, "--embeddings", f, "--splits", s, "--split",
                  "test_uu", "--k", 3, "--out", outputs / "p.json"], {c, s, f}),
    }


def mutate(data: bytes, text: bool, rnd: random.Random) -> bytes:
    """One random mutation of a file's bytes; line and cell edits for text, a NaN for frames."""
    kinds = ["flip", "truncate", "duplicate_bytes"]
    kinds += ["duplicate_line", "delete_line", "swap_cells", "blank_cell"] if text else ["nan"]
    kind = rnd.choice(kinds)
    at = rnd.randrange(max(len(data), 1))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ (1 << rnd.randrange(8))]) + data[at + 1:]
    if kind == "truncate":
        return data[:at]
    if kind == "duplicate_bytes":
        return data[:at] + data[at:at + rnd.randrange(1, 9)] + data[at:]
    if kind == "nan":
        offset = 12 + 4 * rnd.randrange(max((len(data) - 12) // 4, 1))
        return data[:offset] + struct.pack("<f", float("nan")) + data[offset + 4:]
    lines = data.splitlines(keepends=True)
    i = rnd.randrange(len(lines))
    if kind == "duplicate_line":
        lines.insert(i, lines[i])
    elif kind == "delete_line":
        del lines[i]
    else:
        end = len(lines[i]) - len(lines[i].rstrip(b"\r\n"))
        cells = lines[i][:len(lines[i]) - end].split(b",")
        a, b = rnd.randrange(len(cells)), rnd.randrange(len(cells))
        if kind == "swap_cells":
            cells[a], cells[b] = cells[b], cells[a]
        else:
            cells[a] = b""
        lines[i] = b",".join(cells) + lines[i][len(lines[i]) - end:]
    return b"".join(lines)


def test_every_mutated_run_exits_zero_or_refuses_cleanly(pristine, tmp_path, capsys):
    rnd = random.Random(20261020)
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    table = commands(inputs, outputs)
    exits = {0: 0, 1: 0}
    for case in range(MUTATIONS):
        for directory in (inputs, outputs):
            shutil.rmtree(directory, ignore_errors=True)
        shutil.copytree(pristine, inputs)
        outputs.mkdir()
        name = rnd.choice(TEXT + BINARY)
        target = inputs / name
        target.write_bytes(mutate(target.read_bytes(), name in TEXT, rnd))
        reads = target.with_name("features.emb") if name.endswith(".ids") else target
        command = rnd.choice(sorted(c for c, (_, files) in table.items() if reads in files))
        code = run(*table[command][0])
        err = capsys.readouterr().err
        where = f"case {case}: {command} on mutated {name}"
        assert code in (0, 1), where
        exits[code] += 1
        if code == 1:
            assert err.startswith("error: "), (where, err)
            allowed = {"verify.json"} if command == "verify" else set()
            assert {p.name for p in outputs.iterdir()} <= allowed, where
    assert min(exits.values()) > 0, exits  # the probe both refuses and passes mutated sets

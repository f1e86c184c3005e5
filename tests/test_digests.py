"""The fast, BLAS-kernel-stable digest sections against ``tools/digests.expected``.

The lines come from ``tools/digests.py`` itself (`section_lines`), so the
tool and this test make them the same way.  A failure names every moved
line; a change that moves them on purpose rewrites the file with
``tools/digests.py --write`` and names the moved lines in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
_spec = importlib.util.spec_from_file_location("digests", TOOL)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


@pytest.mark.parametrize("section", digests.FAST)
def test_section_matches_the_committed_digests(section):
    expected = digests.read_expected()[section]
    assert digests.moved(expected, digests.section_lines(section)) == []


def test_check_of_named_sections_compares_only_those(capsys, monkeypatch):
    expected = digests.read_expected()
    lines = len(expected["batch"])
    assert digests.main(["--check", "--section", "batch"]) == 0
    assert capsys.readouterr().out == f"batch: 0 of {lines} lines moved\n"
    first = expected["batch"][0].split()[0]
    monkeypatch.setattr(digests, "read_expected", lambda: {"batch": expected["batch"][1:]})
    assert digests.main(["--check", "--section", "batch"]) == 1
    assert capsys.readouterr().out == f"batch: 1 of {lines} lines moved\n  {first}\n"


def test_write_of_named_sections_keeps_every_other_byte(tmp_path, monkeypatch, capsys):
    """`--write --section` replaces only the named sections' lines; the header, the
    other sections and their order keep their bytes, and a new section is appended."""
    expected = tmp_path / "digests.expected"
    expected.write_text("# header\n[a]\na.x 1\n[b]\nb.x 2\nb.y 3\n[c]\nc.x 4\n",
                        encoding="utf-8")
    monkeypatch.setattr(digests, "EXPECTED", expected)
    monkeypatch.setattr(digests, "SECTIONS", {
        "a": lambda: print("a.x 9"), "b": lambda: print("b.x 5\nb.z 6"),
        "c": lambda: print("c.x 9"), "d": lambda: print("d.x 7")})
    assert digests.main(["--write", "--section", "d", "--section", "b"]) == 0
    assert capsys.readouterr().out == f"wrote 3 lines to {expected}\n"
    assert expected.read_text(encoding="utf-8") == (
        "# header\n[a]\na.x 1\n[b]\nb.x 5\nb.z 6\n[c]\nc.x 4\n[d]\nd.x 7\n")

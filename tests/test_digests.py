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

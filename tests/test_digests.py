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

"""The file encodings every format module shares: ``splitmetric``'s text, CSV and frame helpers."""

import csv
import re
import struct

import numpy as np
import pytest

from splitmetric import read_csv, read_frame, read_text, write_csv, write_frame


class Bad(ValueError):
    pass


# quoted line breaks, \r\n, \r and \n line ends, blank lines, a BOM, padding and non-ASCII
TRICKY = '\ufeffa,b\r\n"x\r\ny",2\rz,"q""uote"\n\n , é ,\r\n'


def test_read_text_keeps_newlines_as_written(tmp_path):
    p = tmp_path / "t.txt"
    p.write_bytes(TRICKY.encode())
    assert read_text(p, Bad) == TRICKY


def test_read_csv_gives_the_rows_of_the_file(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(TRICKY.encode())
    with p.open(encoding="utf-8", newline="") as f:
        want = list(csv.reader(f))
    assert list(read_csv(p, Bad)) == want


def test_write_csv_is_the_default_dialect(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ("a", "b"), [("x\ny", None), ("é", 1.5)])
    assert p.read_bytes() == 'a,b\r\n"x\ny",\r\né,1.5\r\n'.encode()


@pytest.mark.parametrize("blob, message", [
    (b"ok\n\xff", "not UTF-8"),
    ("a,b\r\n".encode() + b"x" * 200_000 + b",1\r\n", "line 2: field larger than field limit"),
])
def test_bytes_that_do_not_decode_raise_the_callers_error_naming_the_file(tmp_path, blob,
                                                                           message):
    p = tmp_path / "t.csv"
    p.write_bytes(blob)
    with pytest.raises(Bad, match=f"^{re.escape(str(p))}: {message}"):
        list(read_csv(p, Bad))


def test_frame_round_trip(tmp_path):
    p = tmp_path / "f.bin"
    weight, bias = np.arange(6, dtype=np.float64).reshape(2, 3) / 7, np.array([0.5, -1.0])
    write_frame(p, b"TEST", 3, 2, weight, bias)
    raw = p.read_bytes()
    assert raw[:12] == b"TEST" + struct.pack("<II", 3, 2) and len(raw) == 12 + 4 * 8
    a, b, values = read_frame(p, b"TEST", Bad)
    assert (a, b) == (3, 2)
    assert values.dtype == np.dtype("<f4") and not values.flags.writeable
    assert values.tobytes() == np.concatenate([weight.ravel(), bias]).astype("<f4").tobytes()


@pytest.mark.parametrize("blob", [b"", b"TES", b"BEST" + bytes(8), b"TEST" + bytes(7),
                                  b"TEST" + bytes(13)])
def test_a_bad_frame_raises_the_callers_error_naming_the_file(tmp_path, blob):
    p = tmp_path / "f.bin"
    p.write_bytes(blob)
    with pytest.raises(Bad, match=f"^{re.escape(str(p))}: (bad magic|size) "):
        read_frame(p, b"TEST", Bad)

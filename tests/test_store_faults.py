"""Fault matrix: damage a store that `hecg encrypt` wrote, then read it.

Every damage below makes `decrypt`, `analyze --store` and `attack` exit 1
with an `error:` line, and decrypt writes no CSV:
- a record file truncated at any byte;
- two record files swapped, or one renamed to an unused index;
- a flipped byte in the record's magic, version or segment length, or in
  its salt (timestamp, device id length, device id) or key_id;
- a torn final row of keys.txt;
- a key row's r or x0 set outside (3.6, 4.0) x (0.1, 0.9), or to nan.
A record file missing from the middle of a stream makes decrypt exit 1;
analyze and attack read the records as a set and still run.

The order check compares a record's key_id with make_key_id of its own
salt and its file's index, so it needs no byte the store does not
already write. These damages still read without an error until records
are bound to their key rows:
- the range min or max bytes of a record, ciphertext bytes, and an
  in-range edit of r or x0 in a key row, each of which decrypts to wrong
  plaintext;
- the mode tag's 0 <-> 1 bit, which decrypts to the right plaintext
  under the wrong mode.

Stores are built in tempfile directories: hypothesis runs many examples
in one test call, and each needs a fresh copy of the store.
"""

import contextlib
import io
import math
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecg.cli import main

SEGMENTS = 4
READERS = [
    ("decrypt", ["--output", "{work}/back.csv"]),
    ("analyze", ["--output", "{work}/rep/a"]),
    ("attack", []),
]
# magic, version, mode tag, segment length, min, max, timestamp, device id length
HEAD = struct.calcsize("<4sBBIddQB")
fault_settings = settings(max_examples=40, deadline=None)


@pytest.fixture(scope="module")
def template():
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "store"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["encrypt", "--synthetic", str(SEGMENTS), "--store", str(store)]) == 0
        yield store


@contextlib.contextmanager
def damaged(template):
    """A fresh copy of the template store; yields (work dir, stream dir)."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(template, work / "store")
        yield work, work / "store" / "stream0"


def run(work: Path, command: str, args: list) -> tuple[int, str]:
    err = io.StringIO()
    argv = [command, "--store", f"{work}/store", *(a.format(work=work) for a in args)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_refused(work: Path, names: str, readers=READERS):
    for command, args in readers:
        code, err = run(work, command, args)
        assert code == 1, (command, err)
        assert err.startswith("error: ") and names in err, (command, err)
    assert not (work / "back.csv").exists()


def record(stream: Path, index: int) -> Path:
    return stream / f"seg_{index:06d}.rec"


@fault_settings
@given(index=st.integers(0, SEGMENTS - 1), data=st.data())
def test_truncated_record(template, index, data):
    with damaged(template) as (work, stream):
        blob = record(stream, index).read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        record(stream, index).write_bytes(blob[:cut])
        assert_refused(work, f"stream0[{index}]")


@fault_settings
@given(pair=st.lists(st.integers(0, SEGMENTS - 1), min_size=2, max_size=2, unique=True))
def test_swapped_records(template, pair):
    i, j = sorted(pair)
    with damaged(template) as (work, stream):
        a, b = record(stream, i).read_bytes(), record(stream, j).read_bytes()
        record(stream, i).write_bytes(b)
        record(stream, j).write_bytes(a)
        assert_refused(work, f"stream0[{i}]")


@fault_settings
@given(index=st.integers(0, SEGMENTS - 1), to=st.integers(SEGMENTS, 999_999))
def test_renamed_record(template, index, to):
    with damaged(template) as (work, stream):
        record(stream, index).rename(record(stream, to))
        # decrypt names the gap the rename left; the others reach the record
        assert_refused(work, f"stream0[{index}", READERS[:1])
        assert_refused(work, f"stream0[{to}]", READERS[1:])


def _checked_offsets(blob: bytes) -> list:
    """Offsets of magic, version, segment length, and of the salt and
    key_id fields through the end of key_id."""
    key_id_end = HEAD + blob[HEAD - 1] + 16
    return [*range(0, 5), *range(6, 10), *range(26, key_id_end)]


@fault_settings
@given(index=st.integers(0, SEGMENTS - 1), data=st.data())
def test_flipped_header_or_salt_byte(template, index, data):
    with damaged(template) as (work, stream):
        blob = bytearray(record(stream, index).read_bytes())
        offset = data.draw(st.sampled_from(_checked_offsets(blob)), label="offset")
        blob[offset] ^= data.draw(st.integers(1, 255), label="xor")
        record(stream, index).write_bytes(bytes(blob))
        assert_refused(work, f"stream0[{index}]")


@fault_settings
@given(data=st.data())
def test_torn_final_key_row(template, data):
    with damaged(template) as (work, stream):
        keys = (stream / "keys.txt").read_bytes()
        last_row = keys.rstrip(b"\n").rfind(b"\n") + 1
        cut = data.draw(st.integers(last_row, len(keys) - 1), label="cut")
        (stream / "keys.txt").write_bytes(keys[:cut])
        assert_refused(work, f"error: stream0[{SEGMENTS - 1}]: no key")


# Values ChaoticParams refuses, for a key row's r and x0 fields.
OUT_OF_RANGE = {
    1: st.sampled_from([5.0, math.nan]) | st.floats(max_value=3.6) | st.floats(min_value=4.0),
    2: st.sampled_from([5.0, math.nan]) | st.floats(max_value=0.1) | st.floats(min_value=0.9),
}


@fault_settings
@given(index=st.integers(0, SEGMENTS - 1), field=st.sampled_from([1, 2]), data=st.data())
def test_key_row_out_of_range(template, index, field, data):
    with damaged(template) as (work, stream):
        rows = (stream / "keys.txt").read_text().splitlines()
        parts = rows[index].split()  # the rows are in segment order
        parts[field] = repr(data.draw(OUT_OF_RANGE[field], label="value"))
        rows[index] = " ".join(parts)
        (stream / "keys.txt").write_text("\n".join(rows) + "\n")
        assert_refused(work, f"error: stream0[{index}]: key {parts[0]} in stream stream0 is out of range: ")


@fault_settings
@given(index=st.integers(1, SEGMENTS - 2))
def test_deleted_middle_record(template, index):
    with damaged(template) as (work, stream):
        record(stream, index).unlink()
        assert_refused(work, f"no record for stream0[{index}]", READERS[:1])
        for command, args in READERS[1:]:
            assert run(work, command, args)[0] == 0

"""LIBSVM ingestion, the split protocol, and the experiment runner."""

import bz2
import csv
import gzip
import io
import contextlib
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import scipy.sparse as sp
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from privote import aggregation, harness, learners, pipelines
from privote import (
    ExperimentConfig,
    LibsvmParseError,
    PrivacyBudget,
    RunReport,
    SummaryReport,
    TrialReport,
    compute_svt_params,
    emit_report,
    gen_massart,
    gen_realizable,
    make_rng,
    parse_libsvm,
    render_trial_csv,
    run_experiment,
    split_protocol,
    write_libsvm,
)

SAMPLE = """\
# tiny fixture
+1 3:0.5 7:1
-1 1:2.5  # trailing comment
0
2 2:1e-3
1 1:1 2:-0.5 10:3
"""


def test_parse_libsvm_values_and_labels(tmp_path):
    f = tmp_path / "sample.txt"
    f.write_text(SAMPLE)
    data = parse_libsvm(f)
    assert len(data) == 5
    assert data.n_features == 10
    assert data.y.tolist() == [1, 0, 0, 0, 1]
    dense = data.X.toarray()
    assert dense[0, 2] == 0.5 and dense[0, 6] == 1.0
    assert dense[1, 0] == 2.5
    assert not dense[2].any()
    assert dense[3, 1] == pytest.approx(1e-3)
    assert dense[4, 9] == 3.0 and dense[4, 1] == -0.5


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("1 5:abc", "malformed feature"),
        ("1 5", "malformed feature"),
        ("abc 1:1", "unreadable label"),
        ("3 1:1", "unknown label"),
        ("1 3:1 2:1", "does not increase"),
        ("1 3:1 3:2", "does not increase"),
        ("1 0:1", "not positive"),
        ("1 1:nan", "non-finite feature value '1:nan'"),
        ("1 1:2 2:-inf", "non-finite feature value '2:-inf'"),
        ("1 1:1e999", "non-finite feature value '1:1e999'"),
        ("1 99999999999999999999:1", "feature index 99999999999999999999 is too large"),
        ("1 9223372036854775808:1", "is too large"),
    ],
)
def test_parse_libsvm_errors_name_the_line(tmp_path, line, fragment):
    f = tmp_path / "bad.txt"
    f.write_text("+1 1:1\n" + line + "\n")
    with pytest.raises(LibsvmParseError) as err:
        parse_libsvm(f)
    assert "line 2" in str(err.value)
    assert fragment in str(err.value)


def test_parse_libsvm_rejects_empty(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("# only a comment\n\n")
    with pytest.raises(LibsvmParseError, match="no examples"):
        parse_libsvm(f)


def test_parse_libsvm_compressed_variants(tmp_path):
    plain = tmp_path / "d.txt"
    plain.write_text(SAMPLE)
    (tmp_path / "d.txt.bz2").write_bytes(bz2.compress(SAMPLE.encode()))
    (tmp_path / "d.txt.gz").write_bytes(gzip.compress(SAMPLE.encode()))
    ref = parse_libsvm(plain)
    for name in ("d.txt.bz2", "d.txt.gz"):
        got = parse_libsvm(tmp_path / name)
        assert np.array_equal(got.y, ref.y)
        assert (got.X != ref.X).nnz == 0


def test_libsvm_round_trip(tmp_path):
    f = tmp_path / "orig.txt"
    f.write_text(SAMPLE)
    first = parse_libsvm(f)
    out = tmp_path / "rewritten.txt"
    write_libsvm(first, out)
    second = parse_libsvm(out)
    assert np.array_equal(first.y, second.y)
    assert (first.X != second.X).nnz == 0
    # canonical form is a fixed point
    out2 = tmp_path / "rewritten2.txt"
    write_libsvm(second, out2)
    assert out.read_text() == out2.read_text()


def test_parse_libsvm_largest_index(tmp_path):
    f = tmp_path / "wide.txt"
    f.write_text("1 9223372036854775807:2\n")
    data = parse_libsvm(f)
    assert data.n_features == 2**63 - 1
    assert data.X.indices.tolist() == [2**63 - 2]


def test_parse_libsvm_first_error_across_blocks(tmp_path):
    """Each block is checked before the next is read, and an unreadable
    label waits for the feature checks of the lines above it."""
    good = "".join(f"+1 {i}:1 {i + 1}:0.5\n" for i in range(1, 40))
    f = tmp_path / "late.txt"
    f.write_text(good + "1 2:1 2:1\n" + good + "x 1:1\n")
    g = tmp_path / "label.txt"
    g.write_text(good + "1 2:1 3:nan\nx 1:1\n")
    with mock.patch.object(harness, "_BLOCK_BYTES", 64):
        with pytest.raises(LibsvmParseError, match="^line 40: feature index 2 does"):
            parse_libsvm(f)
        with pytest.raises(LibsvmParseError, match="^line 40: non-finite"):
            parse_libsvm(g)
        g.write_text(good + "1 2:1 3:4\nx 1:1\n")
        with pytest.raises(LibsvmParseError, match="^line 41: unreadable label 'x'"):
            parse_libsvm(g)


_READ = 1 << 16  # harness._BLOCK_BYTES, the size of each read


@given(
    st.lists(
        st.tuples(st.integers(0, 3 * _READ), st.text("a\r\n", max_size=6)),
        max_size=6,
    )
)
@example([(_READ - 1, "\r\n"), (10, "\n")])  # a \r\n pair across two reads
@example([(_READ - 1, "\r"), (_READ, "\r\r"), (5, "")])  # lone \r across reads
@example([(3 * _READ, "\n\ra\r"), (2 * _READ, "")])  # lines several reads long
def test_blocks_cut_only_after_line_ends(runs):
    data = b"".join(b"x" * n + ends.encode() for n, ends in runs)
    assert harness._BLOCK_BYTES == _READ
    blocks = list(harness._blocks(io.BytesIO(data)))
    assert b"".join(blocks) == data and all(blocks)
    for block, after in zip(blocks, blocks[1:]):
        # after a \n, or after a \r whose \r\n pair the cut does not split
        assert block.endswith(b"\n") or (
            block.endswith(b"\r") and not after.startswith(b"\n")
        )


def test_parse_libsvm_reads_one_line_many_blocks_long(tmp_path):
    features = " ".join(f"{j}:{j % 7 - 3}" for j in range(1, 40_000))
    path = tmp_path / "long.txt"
    path.write_text(f"+1 {features}\n")
    assert path.stat().st_size > 4 * harness._BLOCK_BYTES
    got = _outcome(parse_libsvm, path)
    assert got == _outcome(oracles.reference_parse_libsvm, path)


def _write_variants(tmp_path, data: bytes):
    plain = tmp_path / "d.txt"
    plain.write_bytes(data)
    (tmp_path / "d.txt.gz").write_bytes(gzip.compress(data))
    (tmp_path / "d.txt.bz2").write_bytes(bz2.compress(data))
    return [plain, tmp_path / "d.txt.gz", tmp_path / "d.txt.bz2"]


def test_parse_libsvm_rejects_non_utf8(tmp_path):
    for path in _write_variants(tmp_path, b"1 1:1\n1 2:\xe9\n"):
        with pytest.raises(LibsvmParseError, match="^line 2: byte 0xe9 is not"):
            parse_libsvm(path)


def test_parse_libsvm_non_utf8_counts_lines_as_the_reader_does(tmp_path):
    """Lines end at \\n, \\r\\n and \\r only: a form feed is blank space
    within a line, and U+0085 is part of a comment."""
    data = b"1 1:1\r\n-1 2:1\r1 1:1\x0c2:1 # \xc2\x85 note\n1 3:\xff\n"
    for path in _write_variants(tmp_path, data):
        with pytest.raises(LibsvmParseError, match="^line 4: byte 0xff is not"):
            parse_libsvm(path)


def test_parse_libsvm_error_above_bad_byte_wins(tmp_path):
    """A bad line above the bad byte is reported, whether it shares the
    bad byte's block or an earlier block was read before it."""
    good = "".join(f"+1 {i}:1 {i + 1}:0.5\n" for i in range(1, 40)).encode()
    cases = [
        (b"1 1:1\n1 2:x\n1 \xe9\n", "^line 2: malformed feature '2:x'"),
        (b"1 1:1\nx 1:1\n1 \xe9\n", "^line 2: unreadable label 'x'"),
        (good + b"1 2:1 2:1\n" + good + b"\xe9\n", "^line 40: feature index 2 does"),
        (good + b"1 2:1 3:1\n" + good + b"\xe9\n", "^line 80: byte 0xe9"),
    ]
    for block_bytes in (64, 1 << 16):
        with mock.patch.object(harness, "_BLOCK_BYTES", block_bytes):
            for data, message in cases:
                for path in _write_variants(tmp_path, data):
                    with pytest.raises(LibsvmParseError, match=message):
                        parse_libsvm(path)


# zeros of other decimal digit runs, which `int` and `float` read too
_DIGIT_ZEROS = [0x660, 0x966, 0xFF10]


def _spell_digits(draw, text: str, wide: bool) -> str:
    if not wide or not draw(st.booleans()):
        return text
    zero = draw(st.sampled_from(_DIGIT_ZEROS))
    return "".join(chr(zero + int(ch)) if ch.isdigit() else ch for ch in text)


def _spell_index(draw, idx: int, wide: bool) -> str:
    digits = str(idx).zfill(draw(st.integers(0, 3)) + len(str(idx)))
    if len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    return draw(st.sampled_from(["", "", "+"])) + _spell_digits(draw, digits, wide)


_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: f"{v:.3e}"),
    st.sampled_from(["1", "1.0", "-0.0", "0", "1_0.5", ".5", "-1E-3"]),
)
# about one token in 60 has a value rejected on purpose, and one line in
# 15 an index at or past the ends of the accepted range
_ODD = st.integers(0, 59).map(lambda k: k == 0)
_ODD_LINE = st.integers(0, 14).map(lambda k: k == 0)
_ODD_VALUE = st.sampled_from(["nan", "inf", "-inf", "1e999", "NaN"])
_ODD_INDEX = st.sampled_from([0, -1, 2**63 - 1, 2**63, 10**20])
# str.split gaps: those bytes.split also takes, \x1c-\x1f, which it does
# not, and in texts with wide characters the whitespace above 127
_GAPS = [" ", " ", "\t", "\x0b", "\x0c", "  ", "\x1c", "\x1d", "\x1e", "\x1f"]
_WIDE_GAPS = ["\xa0", "\u2003", "\u3000", "\x85", " \xa0"]


@st.composite
def libsvm_texts(draw) -> str:
    """LIBSVM text with the spellings the format allows, a few that it
    does not, and random one-character corruptions. About half the texts
    also hold wide characters: gaps above 127 and digits of other runs."""
    wide = draw(st.booleans())
    gap = st.sampled_from(_GAPS + _WIDE_GAPS if wide else _GAPS)
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["example"] * 5 + ["blank", "comment"]))
        if kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t"]))
        elif kind == "comment":
            line = draw(st.sampled_from(["#", "# note", "  # 1 2:3"]))
        else:
            idxs = draw(st.lists(st.integers(1, 30), max_size=6))
            if draw(_ODD_LINE):
                idxs.append(draw(_ODD_INDEX))
            if not draw(_ODD_LINE):
                idxs = sorted(set(idxs))
            label = draw(st.sampled_from(["+1", "-1", "1", "0", "2", "1.0"]))
            parts = [_spell_digits(draw, label, wide)]
            parts += [
                _spell_index(draw, i, wide)
                + ":"
                + (draw(_ODD_VALUE) if odd else _spell_digits(draw, draw(_VALUE), wide))
                for i, odd in zip(idxs, draw(st.lists(_ODD, min_size=len(idxs))))
            ]
            line = draw(st.sampled_from(["", "", "", " "])) + parts[0]
            for part in parts[1:]:
                line += draw(gap) + part
            line += draw(st.sampled_from(["", "", " ", "\t", " # tail", "#x", "#1:2"]))
        lines.append(line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")  # a last line with no line end
    text = "".join(lines)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        if not text:
            break
        at = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from(list(":#+-._e0 9\t\n\r\x0bx\x1c\xa0\u0663")))
        cut = draw(st.sampled_from([0, 1]))  # insert, or replace
        text = text[:at] + char + text[at + cut:]
    return text


def _outcome(parse, path):
    try:
        data = parse(path)
    except Exception as exc:  # the reference raises OverflowError too
        return type(exc), str(exc)
    X = data.X
    arrays = (X.data, X.indices, X.indptr, data.y)
    return X.shape, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _first_line(message: str) -> int:
    return int(re.match(r"line (\d+):", message).group(1))


def _at_each_block_size(*texts):
    """An @example of each text with 1-byte, 64-byte and 1 MB blocks."""

    def decorate(test):
        for text in texts:
            for block_bytes in (1, 64, 1 << 20):
                test = example(text, block_bytes)(test)
        return test

    return decorate


# one line of 70 bytes, so that with 64-byte reads it is a block of its own
_ONE_SPELLING = "1 " + " ".join(f"{j}:1.0" for j in range(1, 12)) + "\n"


@given(libsvm_texts(), st.sampled_from([1, 64, 1 << 20]))
@_at_each_block_size(
    "1 12345678:1 99999999:2\n-1 00000001:1\n",  # indices of 8 digits
    "1 5:1 123456789:1\n",  # and of 9, read line by line
    "1 7:1\n-1 007:1 08:2\n",  # leading zeros
    "1\n-1 3:1\n0\n",  # lines of a label alone
    # a sign or an underscore at each place of an 8-character index
    *(
        f"-1 2:1\n1 {'1234567'[:k]}{ch}{'1234567'[k:]}:1\n"
        for ch in "+-_"
        for k in range(8)
    ),
    # with 64-byte reads, a block of values of one spelling, then a block of
    # values over 7 characters, and \r and '#' in the second block only
    _ONE_SPELLING + "0 1:0.12345678 2:-1.5e-05 3:123456.75\n",
    _ONE_SPELLING + "-1 2:1 # c:1\r\n1 3:1\r\n",
)
@example("1 1:1\n-1 2:1\n", 1 << 20)
@example("1 1:2:3 4\n", 1 << 20)  # colons off by one twice
@example("1 2:1 1:1\n", 1 << 20)
@example("1 1:1 2:1\n-1 2:1 1:1\n", 1 << 20)
@example("1 1:nan\n-1 0:1\n", 1 << 20)
@example("1 1:1\n-1 99999999999999999999:1\n", 1 << 20)
@example("1\xa0\u0661\u0662:\uff15\x1c13:1#x\r-1 2:1", 64)
def test_parse_libsvm_matches_reference(text, block_bytes):
    """Same arrays, dtypes and errors as the token-at-a-time reader.

    Blocks of 1 and 64 bytes split the text across many blocks. The
    exceptions are the two inputs rejected on purpose: non-finite values
    and indices above 2**63 - 1. Where those fail, the reference must
    accept the file or fail no earlier.
    """
    with tempfile.TemporaryDirectory() as tmp:
        plain = Path(tmp) / "d.txt"
        plain.write_bytes(text.encode())
        (Path(tmp) / "d.txt.gz").write_bytes(gzip.compress(text.encode()))
        (Path(tmp) / "d.txt.bz2").write_bytes(bz2.compress(text.encode()))
        expected = _outcome(oracles.reference_parse_libsvm, plain)
        with mock.patch.object(harness, "_BLOCK_BYTES", block_bytes):
            for name in ("d.txt", "d.txt.gz", "d.txt.bz2"):
                got = _outcome(parse_libsvm, Path(tmp) / name)
                if got[0] is LibsvmParseError and (
                    "non-finite" in got[1] or "is too large" in got[1]
                ):
                    if expected[0] is LibsvmParseError:
                        assert _first_line(expected[1]) >= _first_line(got[1])
                    continue
                assert got == expected


@pytest.mark.parametrize(
    "gap",
    [chr(c) for c in range(128)] + _WIDE_GAPS,
    ids=lambda gap: "-".join(f"{ord(ch):04x}" for ch in gap),
)
def test_every_gap_reads_as_the_reference_reads_it(tmp_path, gap):
    """Each ASCII character, and each wide gap, as the gap after a label
    and between two features: a gap where str.split takes one, and part
    of a token, a comment or a line end elsewhere."""
    path = tmp_path / "d.txt"
    path.write_bytes(f"-1 3:2\n1{gap}1:1{gap}2:0.5\n".encode())
    assert _outcome(parse_libsvm, path) == _outcome(oracles.reference_parse_libsvm, path)


def test_only_blocks_the_tokenizer_leaves_are_read_line_by_line(tmp_path):
    """A plain one-hot file with CRLF line ends, tabs and comments is read
    by the array tokenizer alone; a wide gap or a signed index sends its
    block to the per-line reader, which reads it as the reference does."""
    plain = "# one-hot\r\n+1 3:1\t7:1 # note\r\n\r\n-1 1:1 2:1\r\n"
    path = tmp_path / "plain.txt"
    path.write_text(plain, newline="")
    reader = mock.Mock(side_effect=AssertionError("read line by line"))
    with mock.patch.object(harness, "_read_lines", reader):
        got = _outcome(parse_libsvm, path)
    assert got == _outcome(oracles.reference_parse_libsvm, path)
    for odd in ("-1 1:1\xa02:1\r\n", "-1 +5:1\r\n"):
        path = tmp_path / "odd.txt"
        path.write_text(plain + odd, newline="")
        with mock.patch.object(harness, "_read_lines", wraps=harness._read_lines) as reader:
            got = _outcome(parse_libsvm, path)
        assert reader.call_count == 1
        assert got == _outcome(oracles.reference_parse_libsvm, path)


# field sizes of a9a's 14 and mushrooms' 22 one-hot encoded fields
_A9A_CARDS = (5, 8, 5, 16, 5, 7, 14, 6, 5, 2, 2, 2, 5, 41)
_MUSHROOM_CARDS = (6, 4, 10, 2, 9, 2, 2, 2, 12, 2, 4, 4, 4, 9, 9, 1, 4, 3, 5, 9, 6, 3)


def _benchmark_shaped_line(shape: str, label: str, rng) -> str:
    if shape == "tf-idf":
        cols = rng.choice(np.arange(10_000, 100_000), rng.integers(5, 60), replace=False)
        values = rng.random(cols.size).tolist()
        return label + "".join(f" {j}:{v!r}" for j, v in zip(sorted(cols.tolist()), values))
    cards = _A9A_CARDS if shape == "a9a" else _MUSHROOM_CARDS
    first = np.cumsum((1, *cards[:-1]))
    cols = first + (rng.random(len(cards)) * cards).astype(int)
    value = "1" if shape == "a9a" else "1.0"
    return label + "".join(f" {j}:{value}" for j in cols.tolist())


@pytest.mark.parametrize("shape", ["a9a", "mushrooms", "tf-idf"])
def test_benchmark_shaped_files_are_read_by_the_array_tokenizer_alone(tmp_path, shape):
    """One-hot rows shaped like a9a's (values 1) and mushrooms' (values
    1.0), and tf-idf rows with 5-digit indices and values over 7
    characters, each with labels 0, 1, +1 and -1, never reach the per-line
    reader. A block sent there keeps every output the same, and so every
    other test green, but parses about seven times slower."""
    rng = np.random.default_rng(17)
    labels = rng.choice(["0", "1", "+1", "-1"], 3000).tolist()
    path = tmp_path / f"{shape}.txt"
    path.write_text("".join(_benchmark_shaped_line(shape, y, rng) + "\n" for y in labels))
    assert path.stat().st_size > 2 * harness._BLOCK_BYTES
    reader = mock.Mock(side_effect=AssertionError("read line by line"))
    with mock.patch.object(harness, "_read_lines", reader):
        got = _outcome(parse_libsvm, path)
    assert got == _outcome(oracles.reference_parse_libsvm, path)


def _one_hot_text(rows: int, rng) -> str:
    codes = rng.integers(0, 8, size=(rows, 14)) + 8 * np.arange(14) + 1
    return "".join(
        f"{label} " + " ".join(f"{j}:1.0" for j in row) + "\n"
        for label, row in zip(rng.choice(["+1", "-1"], rows), codes.tolist())
    )


def _parse_peak(tmp_path, rows: int, rng):
    """The peak bytes of parsing a one-hot file of these rows, the bytes of
    the returned arrays, and the returned values' bytes."""
    path = tmp_path / f"{rows}.txt"
    path.write_text(_one_hot_text(rows, rng))
    assert path.stat().st_size > 8 * harness._BLOCK_BYTES
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        data = parse_libsvm(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    X = data.X
    returned = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes + data.y.nbytes
    return peak, returned, X.data.nbytes


def _parse_peak_over_returned(tmp_path, rows: int, rng) -> int:
    """The peak bytes of parsing a one-hot file of these rows, less twice
    the returned arrays (the per-block pieces plus their concatenation)."""
    peak, returned, _ = _parse_peak(tmp_path, rows, rng)
    return peak - 2 * returned


def test_parse_libsvm_memory_does_not_grow_with_the_file(tmp_path):
    """The parse holds one block's temporaries at a time. Its peak, less
    twice the returned arrays, grows by at most a quarter for a file four
    times as long; a tokenizer over the whole file needs about four times
    as much. The figure shrinks instead once the returned arrays outgrow
    one block's temporaries, so the bound is one-sided."""
    rng = np.random.default_rng(5)
    small, large = (
        _parse_peak_over_returned(tmp_path, n, rng) for n in (6_000, 24_000)
    )
    assert 0 < small and large <= 1.25 * small, (small, large)


def test_parse_libsvm_releases_its_pieces_before_the_labels_copy(tmp_path):
    """`Dataset` copies the labels; the per-block pieces are gone by then,
    so past twice the returned arrays the peak grows by at most 2 bytes
    per row. With the pieces held it grows by about 8.5 (int64 labels)."""
    rng = np.random.default_rng(5)
    small, large = (
        _parse_peak_over_returned(tmp_path, n, rng) for n in (12_000, 48_000)
    )
    assert large - small <= 2 * (48_000 - 12_000), (small, large)


def test_parse_libsvm_peak_is_its_output_and_one_list_of_pieces(tmp_path):
    """Each list of per-block pieces is freed once joined, so the peak is
    the returned arrays plus the values' pieces, joined last, and less
    than a block's bytes more. Holding every list to the end, as a parse
    that frees its pieces only after the last join does, exceeds this by
    about 0.6 times the values' bytes."""
    peak, returned, values = _parse_peak(tmp_path, 48_000, np.random.default_rng(5))
    assert peak - returned <= values + harness._BLOCK_BYTES, (peak, returned, values)


# ---------------------------------------------------------------------------
# Split protocol


def test_split_protocol_sizes_mushroom_shape():
    n = 8124
    data = gen_realizable(2, n, make_rng(0))[0]
    split = split_protocol(data, make_rng(1))
    assert split.data is data
    assert len(split.teacher) == 6499
    assert len(split.pool) == 163
    assert len(split.test) == 1462
    assert split.student_labels.shape == (163,)
    assert np.array_equal(split.student_labels, data.y[split.pool])


def test_split_protocol_is_a_partition():
    n = 101
    data = gen_realizable(1, n, make_rng(2))[0]
    ids = np.arange(n, dtype=float).reshape(-1, 1)
    data = type(data)(ids, data.y)
    split = split_protocol(data, make_rng(3))
    assert split.data is data
    indices = [split.teacher, split.pool, split.test]
    assert all(idx.dtype.kind == "i" for idx in indices)
    assert oracles.is_partition([list(idx) for idx in indices], list(range(n)))
    # each part's rows, read through its indices, are the rows it names
    parts = [
        list(np.asarray(data.X[idx].todense()).ravel().astype(int))
        for idx in indices
    ]
    assert [len(part) for part in parts] == [80, 3, 18]
    assert parts == [list(idx) for idx in indices]
    assert oracles.is_partition(parts, list(range(n)))


def test_split_protocol_determinism_and_validation():
    data = gen_realizable(2, 60, make_rng(4))[0]
    a = split_protocol(data, make_rng(9))
    b = split_protocol(data, make_rng(9))
    for part in ("teacher", "pool", "test"):
        assert np.array_equal(getattr(a, part), getattr(b, part))
    assert np.array_equal(data.y[a.teacher], data.y[b.teacher])
    assert np.array_equal(data.y[a.test], data.y[b.test])
    assert np.array_equal(a.student_labels, b.student_labels)
    # 4 rows give 3 teachers, 1 pool point and no test point, 1 row no
    # teacher; 6 rows, 4, 1 and 1, are the fewest that split
    for n in (1, 4, 5):
        with pytest.raises(ValueError, match=f"split of {n} examples leaves an empty"):
            split_protocol(data.subset(np.arange(n)), make_rng(0))
    split = split_protocol(data.subset(np.arange(6)), make_rng(0))
    assert (len(split.teacher), len(split.pool), len(split.test)) == (4, 1, 1)
    with pytest.raises(ValueError, match="labeled"):
        split_protocol(data.without_labels(), make_rng(0))


def test_split_protocol_draws_what_the_copying_split_draws():
    # the same permutation cut at the same places: each part's rows and
    # labels are those the copying reference split copies out, in order
    data = gen_massart(4, 500, 0.1, make_rng(8))[0]
    split = split_protocol(data, make_rng(3))
    ref = oracles.reference_split_protocol(data, make_rng(3))
    for idx, part in [(split.teacher, ref.teacher), (split.test, ref.test)]:
        assert (data.X[idx] != part.X).nnz == 0
        assert np.array_equal(data.y[idx], part.y)
    assert (data.X[split.pool] != ref.student.X).nnz == 0
    assert np.array_equal(split.student_labels, ref.student_labels)


def _copied_split(data, rng):
    """The copying reference split, as a `Split` over its copied rows,
    stacked teacher, pool and test, so that `_run_trial` reads copies."""
    ref = oracles.reference_split_protocol(data, rng)
    copied = learners.Dataset(
        sp.vstack([ref.teacher.X, ref.student.X, ref.test.X], format="csr"),
        np.concatenate([ref.teacher.y, ref.student_labels, ref.test.y]),
    )
    cuts = np.cumsum([len(ref.teacher), len(ref.student)])
    return harness.Split(copied, *np.split(np.arange(len(copied)), cuts))


_TRIAL_SOURCES = [
    ("realizable", {"n": 400}),
    ("massart", {"n": 700, "d": 8, "flip": 0.2}),
    ("tnc", {"n": 500, "tau": 0.5}),
    (str(Path(__file__).parent / "data" / "mixed.libsvm.gz"), {}),
]


@given(
    st.integers(0, 10_000),
    st.sampled_from(list(harness.METHODS)),
    st.sampled_from(_TRIAL_SOURCES),
)
@example(7, "PsqGaussian", _TRIAL_SOURCES[0])
@example(7, "PsqSvt", _TRIAL_SOURCES[1])
@example(7, "Asq", _TRIAL_SOURCES[1])
@example(7, "PsqNoPrivacy", _TRIAL_SOURCES[2])
@example(7, "AsqNoPrivacy", _TRIAL_SOURCES[3])
def test_trials_through_the_indexed_split_equal_trials_through_copies(
    seed, method, source
):
    # the committee reads the teacher rows in place; every trial row must
    # be what reading them from copies, as the copying split did, gives
    dataset, params = source
    config = ExperimentConfig(
        dataset, method, trials=2, seed=seed, generator_params=params
    )
    _, trials = run_experiment(config)
    with mock.patch.object(harness, "split_protocol", _copied_split):
        _, copied = run_experiment(config)
    assert [t.as_row() for t in trials] == [t.as_row() for t in copied]


def test_a_trial_copies_out_only_pool_and_test_rows(monkeypatch):
    data = gen_massart(5, 1000, 0.1, make_rng(2))[0]
    built = []
    post_init = learners.Dataset.__post_init__

    def counting(self):
        post_init(self)
        built.append(len(self))

    monkeypatch.setattr(learners.Dataset, "__post_init__", counting)
    for method in harness.METHODS:
        harness._run_trial(ExperimentConfig("massart", method), data, make_rng(1))
    # 800 teacher rows, 20 pool rows and 180 test rows
    assert set(built) == {20, 180}


@pytest.mark.parametrize("n", [8124, 12000, 3500])
def test_split_and_run_sizes_are_what_the_benchmark_assumes(monkeypatch, n):
    """perfbench/workloads.py restates the protocol (FRACTIONS,
    QUERY_FRACTION, `sizes`) to check its runs; a trial's split, default
    K and Asq query budget must agree with it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    assert harness._QUERY_SHARE == workloads.QUERY_FRACTION
    data = gen_realizable(2, n, make_rng(n))[0]
    split = split_protocol(data, make_rng(0))
    teacher, pool = len(split.teacher), len(split.pool)
    F = workloads.FRACTIONS
    assert (teacher, pool) == (math.floor(F[0] * n), math.ceil(F[1] * n))
    assert len(split.test) == n - teacher - pool and math.isclose(sum(F), 1.0)
    for wl in workloads.WORKLOADS.values():
        runs = []

        def run(student, K, query_budget):
            assert not student.labeled
            runs.append({"K": K, "pool": len(student), "query_budget": query_budget})
            return None, RunReport(queries=0, bots=0, eps_ex_post=0.0, accuracy=0.5)

        def psq(teacher, student, test, K, budget, *, T=None, rng=None, teacher_rows):
            return run(student, K, len(student))  # psq asks all

        def asq(
            teacher, student, test, K, query_budget, budget, *, rng=None, teacher_rows
        ):
            return run(student, K, query_budget)

        config = ExperimentConfig("realizable", wl.method, epsilon=wl.epsilon)
        monkeypatch.setattr(harness, "pate_psq", psq)
        monkeypatch.setattr(harness, "pate_asq", asq)
        harness._run_trial(config, data, make_rng(0))
        assert runs == [wl.sizes(n)], wl.name


# ---------------------------------------------------------------------------
# Experiment configs and reports


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="realizable", method="Magic")
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="realizable", method="Asq", trials=0)
    cfg = ExperimentConfig(dataset="realizable", method="PsqNoPrivacy")
    assert not cfg.private
    assert ExperimentConfig(dataset="realizable", method="Asq").private


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"K": 0}, "K"),
        ({"K": -3}, "K"),
        ({"method": "PsqSvt", "svt_T": 0}, "svt_T"),
        ({"method": "PsqGaussian", "svt_T": 5}, "svt_T"),
        ({"method": "PsqNoPrivacy", "svt_T": 5}, "svt_T"),
        ({"method": "Asq", "svt_T": 5}, "svt_T"),
        ({"epsilon": -1.0}, "epsilon"),
        ({"epsilon": 0.0}, "epsilon"),
        ({"epsilon": math.inf}, "epsilon"),
        ({"epsilon": math.nan}, "epsilon"),
        ({"delta": 0.0}, "delta"),
        ({"delta": 1.0}, "delta"),
        ({"delta": -1e-5}, "delta"),
        ({"delta": math.nan}, "delta"),
        # each field's type: a bool only a bool, an int neither a bool nor
        # a float, a number finite and not a string
        ({"K": 2.5}, "K"),
        ({"K": True}, "K"),
        ({"method": "PsqSvt", "svt_T": True}, "svt_T"),
        ({"method": "PsqSvt", "svt_T": 3.0}, "svt_T"),
        ({"trials": 1.5}, "trials"),
        ({"seed": "x"}, "seed"),
        ({"dataset": "realizable", "generator_params": {"n": 40.5}}, "generator_params"),
        ({"epsilon": "3"}, "epsilon"),
        ({"epsilon": True}, "epsilon"),
        ({"delta": "1e-5"}, "delta"),
        # a method that spends no budget takes no delta
        ({"method": "PsqNoPrivacy", "delta": 1e-5}, "delta"),
        ({"method": "AsqNoPrivacy", "delta": 0.5}, "delta"),
        ({"record_timing": "no"}, "record_timing"),
        ({"record_timing": 1}, "record_timing"),
        ({"dataset": 3}, "dataset"),
        ({"method": None}, "method"),
        # generator_params is a dict, each value of its default's type
        ({"generator_params": "d"}, "generator_params"),
        ({"generator_params": [("d", 3)]}, "generator_params"),
        ({"dataset": "realizable", "generator_params": {"d": 2.5}}, "generator_params"),
        ({"dataset": "realizable", "generator_params": {"d": True}}, "generator_params"),
        ({"dataset": "massart", "generator_params": {"flip": "0.1"}}, "generator_params"),
        ({"dataset": "tnc", "generator_params": {"tau": True}}, "generator_params"),
        ({"dataset": "tnc", "generator_params": {"c": None}}, "generator_params"),
    ],
)
def test_experiment_config_rejects_bad_settings(overrides, field):
    """A bad setting fails when the config is made, naming its field,
    before any data is read; none is silently ignored."""
    base = {"dataset": "no/such/file.libsvm", "method": "PsqGaussian"}
    with pytest.raises(ValueError, match=rf"^{field} "):
        ExperimentConfig(**{**base, **overrides})


def test_experiment_config_accepts_the_edges_of_its_settings():
    ExperimentConfig("realizable", "PsqSvt", svt_T=1, K=1)
    # any integer where an int goes, any real number where a float goes
    ExperimentConfig("realizable", "PsqSvt", svt_T=np.int64(2), seed=np.uint32(3))
    ExperimentConfig("realizable", "Asq", epsilon=2, delta=np.float32(0.5), trials=1)
    ExperimentConfig("realizable", "Asq", epsilon=1e-9, delta=1e-12)
    ExperimentConfig("realizable", "PsqGaussian", delta=1.0 - 1e-12)
    ExperimentConfig("realizable", "Asq", generator_params={"d": np.int64(3)})
    ExperimentConfig("realizable", "Asq", generator_params={"n": np.int64(10)})
    ExperimentConfig("realizable", "PsqNoPrivacy", delta=None, epsilon=3.0)
    ExperimentConfig("massart", "Asq", generator_params={"flip": 0})
    ExperimentConfig("tnc", "Asq", generator_params={"tau": np.float32(0.5), "c": 1})


@pytest.mark.parametrize(
    "fractions",
    [(0.5, 0.5), (0.8, 0.0, 0.2), (math.nan, 0.5, 0.5), (0.5, math.nan, 0.5),
     (math.inf, 0.5, -math.inf), (0.8, 0.02, 0.18)],
)
def test_experiment_config_checks_its_fractions(fractions):
    """The split is fixed at 80/2/18: a config given any other, or that
    one, fails when it is made, before any data is read."""
    with pytest.raises(TypeError, match="fractions"):
        ExperimentConfig(dataset="realizable", method="Asq", fractions=fractions)


@pytest.mark.parametrize("key", ["synth_n", "query_fraction"])
def test_experiment_config_has_no_sample_size_or_query_share_field(key):
    """The sample size is the generator parameter n, and Asq queries a
    fixed share of the pool, `_QUERY_SHARE`; neither is a field."""
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
        ExperimentConfig("realizable", "Asq", **{key: 400})


def test_generator_sample_size_is_the_parameter_n(tmp_path):
    """Each generator draws n examples, 4000 unless generator_params
    says otherwise; a file takes no n, and fewer than 10 fail naming n."""
    for name, (_, defaults) in harness._GENERATORS.items():
        assert defaults["n"] == 4000, name
        assert len(harness._load_source(name, {})(make_rng(1))) == 4000
        assert len(harness._load_source(name, {"n": 400})(make_rng(1))) == 400
        config = ExperimentConfig(
            name, "PsqNoPrivacy", trials=1, generator_params={"n": 400}
        )
        # every point of the ceil(0.02 * 400)-point pool is queried
        assert run_experiment(config)[1][0].queries == 8
        for n in (9, 0, -400):
            message = rf"^generator_params 'n' must be at least 10, got {n}$"
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(name, "Asq", generator_params={"n": n})
    path = str(tmp_path / "d.svm")
    message = f"['n'] are not read by dataset {path!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(path, "Asq", generator_params={"n": 400})


def test_experiment_config_rejects_unread_generator_params(tmp_path):
    ExperimentConfig("massart", "Asq", generator_params={"d": 3, "flip": 0.2})
    ExperimentConfig("tnc", "Asq", generator_params={"tau": 0.5, "c": 0.3})
    cases = [
        ("massart", {"flp": 0.45}, "flp"),  # a typo, not the flip rate
        ("realizable", {"d": 3, "flip": 0.1}, "flip"),
        ("tnc", {"d": 3}, "d"),
        (str(tmp_path / "d.svm"), {"d": 3}, "d"),  # files read no parameters
    ]
    for dataset, params, key in cases:
        message = f"['{key}'] are not read by dataset {dataset!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(dataset, "Asq", generator_params=params)


def test_trial_report_validation():
    kwargs = dict(
        dataset="d", method="Asq", epsilon=1.0, delta=1e-5,
        trial=0, seed=1, queries=3, bots=0,
    )
    TrialReport(**kwargs, eps_ex_post=0.5, accuracy=0.9)
    with pytest.raises(ValueError):
        TrialReport(**kwargs, eps_ex_post=1.5, accuracy=0.9)
    with pytest.raises(ValueError):
        TrialReport(**kwargs, eps_ex_post=0.5, accuracy=1.2)


def _quick_config(**overrides):
    base = dict(
        dataset="realizable",
        method="PsqGaussian",
        epsilon=4.0,
        trials=3,
        seed=7,
        generator_params={"n": 400},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_summary_matches_oracle():
    summary, trials = run_experiment(_quick_config())
    assert summary.trials == 3
    mu, hw = oracles.mean_halfwidth([t.accuracy for t in trials])
    assert summary.mean_accuracy == pytest.approx(mu, abs=1e-12)
    assert summary.accuracy_halfwidth == pytest.approx(hw, abs=1e-12)
    mu_q, hw_q = oracles.mean_halfwidth([t.queries for t in trials])
    assert summary.mean_queries == pytest.approx(mu_q, abs=1e-12)
    assert summary.queries_halfwidth == pytest.approx(hw_q, abs=1e-12)
    for t in trials:
        assert t.eps_ex_post <= t.epsilon * (1 + 1e-9)
        assert t.delta == pytest.approx(1.0 / 320)  # teacher pool size
        assert t.wall_ms == 0


@pytest.mark.parametrize("n, factor", [(2, 12.7062), (4, 3.1824), (10, 2.2622)])
def test_halfwidth_is_the_student_t_interval(n, factor):
    # the 95% t quantile with n - 1 degrees of freedom, not the normal 1.96
    values = make_rng(n).random(n)
    halfwidth = harness._halfwidth(values)
    sd = values.std(ddof=1)
    assert halfwidth == pytest.approx(factor * sd / math.sqrt(n), rel=1e-4)
    assert halfwidth == pytest.approx(oracles.mean_halfwidth(list(values))[1], rel=1e-12)


def test_run_experiment_is_deterministic():
    a = run_experiment(_quick_config())[1]
    b = run_experiment(_quick_config())[1]
    assert [t.as_row() for t in a] == [t.as_row() for t in b]
    c = run_experiment(_quick_config(seed=8))[1]
    assert [t.seed for t in a] != [t.seed for t in c]


def test_run_experiment_single_trial_halfwidth_zero():
    summary, trials = run_experiment(_quick_config(trials=1))
    assert summary.accuracy_halfwidth == 0.0
    assert summary.mean_accuracy == trials[0].accuracy


def test_run_experiment_no_privacy_rows():
    _, trials = run_experiment(_quick_config(method="PsqNoPrivacy", trials=2))
    for t in trials:
        assert math.isinf(t.epsilon)
        assert t.delta == 0.0
        assert math.isinf(t.eps_ex_post)


def test_run_experiment_asq_counts_queries():
    _, trials = run_experiment(
        _quick_config(method="Asq", epsilon=1.0, trials=2)
    )
    for t in trials:
        assert 1 <= t.queries <= 2  # 30% of the 8-point student pool, rounded
        assert t.eps_ex_post <= 1.0 + 1e-9


def test_psq_svt_cutoff_reads_no_teacher_label(monkeypatch):
    # T is not charged to the budget, so it must not depend on the
    # sensitive pool: true teacher labels and coin flips get the same T
    cutoffs = []

    def spy(teacher, student, test, K, budget, *, T=None, rng=None, teacher_rows):
        cutoffs.append(T)
        return None, RunReport(queries=0, bots=0, eps_ex_post=0.0, accuracy=0.5)

    monkeypatch.setattr(harness, "pate_psq", spy)
    data = gen_realizable(4, 1000, make_rng(5))[0]
    n_teacher = 800  # floor(0.8 n)
    # split_protocol's permutation is the first draw of its rng
    teacher_rows = make_rng(6).permutation(len(data))[:n_teacher]
    y = data.y.copy()
    y[teacher_rows] = make_rng(7).integers(0, 2, n_teacher)
    noisy = data.with_labels(y)
    config = _quick_config(method="PsqSvt", epsilon=1.0)
    a = split_protocol(data, make_rng(6))
    b = split_protocol(noisy, make_rng(6))
    assert np.array_equal(a.student_labels, b.student_labels)
    assert np.array_equal(data.y[a.test], noisy.y[b.test])
    assert not np.array_equal(data.y[a.teacher], noisy.y[b.teacher])
    for source in (data, noisy):
        harness._run_trial(config, source, make_rng(6))
    budget = PrivacyBudget(1.0, 1.0 / n_teacher)
    public, _ = compute_svt_params(len(a.pool), budget)
    assert cutoffs == [public, public]
    harness._run_trial(_quick_config(method="PsqSvt", svt_T=5), noisy, make_rng(6))
    assert cutoffs[-1] == 5


def _public_run(config, data, seed):
    """A trial of `config` on data at seed, through `_run_trial`: the
    committee's members and pool votes, and every parameter of the run
    that must read nothing but public sizes."""
    seen = {"shards": []}
    sizes, train = learners._part_sizes, learners.train_committee
    vote = learners.Ensemble.vote_ones
    sessions = {
        cls: cls.for_budget.__func__
        for cls in (aggregation.GaussianSession, aggregation.SvtSession)
    }

    def part_sizes(n, K):
        seen["shards"].append(sizes(n, K).tolist())
        return sizes(n, K)

    def committee(*args, **kwargs):
        seen["members"] = train(*args, **kwargs).members
        return learners.Ensemble(seen["members"])

    def votes(ensemble, X):
        seen["votes"] = vote(ensemble, X)
        return seen["votes"]

    def session(cls, *args):
        # calibrated from ell (and T) and the budget, to sigma or lambda and w
        made = sessions[cls](cls, *args)
        scales = {k: getattr(made, k) for k in ("sigma", "lam", "w") if hasattr(made, k)}
        seen["session"] = args[:-1], scales  # all but the rng
        return made

    with contextlib.ExitStack() as stack:
        for target, name, spy in [
            (learners, "_part_sizes", part_sizes),
            (pipelines, "train_committee", committee),
            (learners.Ensemble, "vote_ones", votes),
            (aggregation.GaussianSession, "for_budget", classmethod(session)),
            (aggregation.SvtSession, "for_budget", classmethod(session)),
        ]:
            stack.enter_context(mock.patch.object(target, name, spy))
        harness._run_trial(config, data, make_rng(seed))
    seen["K"] = len(seen["members"])
    return seen


def _neighbouring_runs(seed, method, n, K, where):
    """`_public_run` at seed on n realizable rows, and on the same rows
    with the teacher row at fraction `where` of the teacher set replaced
    (features and label)."""
    rng = make_rng(seed)
    data = gen_realizable(5, n, rng)[0]
    X, y = data.X.toarray(), data.y.copy()
    # split_protocol's permutation is the first draw of its rng
    teachers = make_rng(seed).permutation(n)[: math.floor(0.8 * n)]
    row = teachers[int(where * len(teachers))]
    X[row], y[row] = rng.uniform(-1.0, 1.0, 5), 1 - y[row]
    config = ExperimentConfig("realizable", method, K=K, generator_params={"n": n})
    a = _public_run(config, data, seed)
    return a, _public_run(config, learners.Dataset(X, y), seed)


@given(
    st.integers(0, 10_000),
    st.sampled_from(["PsqGaussian", "PsqSvt", "Asq"]),
    st.integers(300, 1500),
    st.one_of(st.none(), st.integers(1, 30)),
    st.floats(0.0, 1.0, exclude_max=True),
)
def test_replacing_one_teacher_row_moves_one_member_and_votes_by_one(
    seed, method, n, K, where
):
    """The replace-one relation end to end: teacher sets that differ in
    one row (features and label), with the same pool, test set and rng,
    give committees that differ in at most one member, pool votes that
    move by at most 1 at every point, and equal K, delta, sigma, lambda,
    w, T, ell and shard sizes."""
    a, b = _neighbouring_runs(seed, method, n, K, where)
    differ = [
        not (np.array_equal(m.weights, o.weights) and m.bias == o.bias)
        for m, o in zip(a.pop("members"), b.pop("members"))
    ]
    assert sum(differ) <= 1
    assert np.abs(a.pop("votes") - b.pop("votes")).max() <= 1
    assert a == b
    assert a["shards"] and a["session"][1]


@given(
    st.integers(0, 10_000),
    st.integers(300, 700),
    st.one_of(st.none(), st.integers(1, 30)),
    st.floats(0.0, 1.0, exclude_max=True),
)
def test_replace_one_votes_keep_gaussian_answers_within_the_report(
    seed, n, K, where
):
    """PsqGaussian's answers to the pool votes of two teacher sets that
    differ in one row: the exact delta between their output distributions,
    enumerated over all 2^ell answer vectors (ell <= 14 pool points at
    n <= 700), at the epsilon the session reports once it has answered the
    whole pool, is within the reported delta, both ways round."""
    a, b = _neighbouring_runs(seed, "PsqGaussian", n, K, where)
    (ell, budget), scales = a["session"]
    session = aggregation.GaussianSession.for_budget(ell, budget, make_rng(0))
    for _ in range(ell):
        session.answer(aggregation.VoteCount(0, 1))
    eps, delta = session.privacy_report()
    assert len(a["votes"]) == ell <= 14 and session.sigma == scales["sigma"]
    p, q = (
        oracles.outcome_log_pmf(
            *oracles.noisy_majority_log_probs(run["votes"], run["K"], session.sigma)
        )
        for run in (a, b)
    )
    assert oracles.hockey_stick_delta(p, q, eps) <= delta
    assert oracles.hockey_stick_delta(q, p, eps) <= delta


def test_run_experiment_wraps_trial_failures():
    with pytest.raises(RuntimeError, match=r"trial 0 \(seed \d+\) failed"):
        run_experiment(_quick_config(K=500))


def test_run_experiment_missing_file():
    with pytest.raises(FileNotFoundError):
        run_experiment(_quick_config(dataset="no/such/file.libsvm", generator_params={}))


def test_run_experiment_timing_flag():
    _, trials = run_experiment(_quick_config(trials=1, record_timing=True))
    assert trials[0].wall_ms >= 0


# ---------------------------------------------------------------------------
# Emission


def test_trial_csv_shape_and_round_trip():
    _, trials = run_experiment(_quick_config(trials=2))
    text = render_trial_csv(trials)
    lines = text.strip().split("\n")
    assert lines[0] == "dataset,method,epsilon,delta,trial,seed,queries,bots,eps_ex_post,accuracy,wall_ms"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == "realizable"
    assert float(cells[9]) == trials[0].accuracy  # repr round-trips exactly


@pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", "a\r\nb"])
def test_trial_csv_quotes_a_path_that_needs_it(tmp_path, name):
    """A dataset path holding a comma, a quote or a line end is one cell,
    read back whole; every row has as many cells as the header."""
    path = tmp_path / name / "x.libsvm"
    path.parent.mkdir()
    write_libsvm(gen_realizable(3, 200, make_rng(2))[0], path)
    _, trials = run_experiment(ExperimentConfig(str(path), "PsqGaussian", trials=2))
    header, *rows = csv.reader(io.StringIO(render_trial_csv(trials), newline=""))
    assert header == list(harness.TRIAL_COLUMNS)
    assert [len(row) for row in rows] == [len(header)] * 2
    assert [row[0] for row in rows] == [str(path)] * 2


def test_emit_report_csv_and_json(tmp_path):
    _, trials = run_experiment(_quick_config(trials=2))
    csv_path = emit_report(trials, "csv", tmp_path / "t.csv")
    assert csv_path.read_text() == render_trial_csv(trials)
    again = emit_report(trials, "csv", tmp_path / "t2.csv")
    assert csv_path.read_bytes() == again.read_bytes()

    json_path = emit_report(trials, "json", tmp_path / "t.json")
    rows = json.loads(json_path.read_text())
    assert len(rows) == 2
    assert rows[0]["accuracy"] == trials[0].accuracy
    assert list(rows[0]) == list(render_trial_csv(trials).split("\n")[0].split(","))


def test_emit_margin_rows(tmp_path):
    rows = [
        {"probe_id": 0, "delta_hat": 0.25, "delta_hstar": 0.5},
        {"probe_id": 1, "delta_hat": 0.0, "delta_hstar": 0.125},
    ]
    text = harness.render_report(rows, "csv")
    assert text.startswith("probe_id,delta_hat,delta_hstar\n")
    assert "0,0.25,0.5" in text
    out = emit_report(rows, "csv", tmp_path / "m.csv")
    assert out.read_text() == text


def test_emit_report_validation(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], "csv", tmp_path / "x.csv")
    _, trials = run_experiment(_quick_config(trials=1))
    with pytest.raises(ValueError):
        emit_report(trials, "xml", tmp_path / "x.xml")
    with pytest.raises(TypeError):
        emit_report([{"unexpected": 1}], "csv", tmp_path / "x.csv")
    with pytest.raises(OSError):
        emit_report(trials, "csv", tmp_path / "missing" / "x.csv")


def test_summary_report_rejects_empty():
    with pytest.raises(ValueError):
        SummaryReport.from_trials([])

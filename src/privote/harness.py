"""Dataset ingestion, the split-and-repeat experiment protocol, and reports.

The protocol: per trial, re-split the data at a derived seed into a
sensitive teacher pool (80%), an unlabeled public student pool (2%), and a
test set (18%); size the committee at roughly one teacher per hundred
sensitive points; run the chosen pipeline, the active one with a query
budget of 30% of the pool; aggregate trial rows into a mean plus the
half-width of a 95% Student-t confidence interval.

Reports are byte-stable: identical config and master seed give identical
CSV/JSON files. Wall-clock columns are zero unless timing is switched on,
since real timings would break that guarantee.
"""

from __future__ import annotations

import bz2
import csv
import gzip
import io
import json
import math
import numbers
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.special import stdtrit

from .dp_core import PrivacyBudget, derive_seed, make_rng
from .learners import Dataset
from .pipelines import RunReport, compute_svt_params, pate_asq, pate_psq
from .synthdata import gen_massart, gen_realizable, gen_tnc

__all__ = [
    "LibsvmParseError",
    "parse_libsvm",
    "write_libsvm",
    "Split",
    "split_protocol",
    "ExperimentConfig",
    "TrialReport",
    "SummaryReport",
    "run_experiment",
    "render_trial_csv",
    "render_report",
    "emit_report",
    "METHODS",
    "TRIAL_COLUMNS",
]

# each method: its pipeline, and whether it spends a privacy budget; the
# first method of a pipeline is its command's default
METHODS = {
    "PsqGaussian": ("psq", True),
    "PsqSvt": ("psq", True),
    "Asq": ("asq", True),
    "PsqNoPrivacy": ("psq", False),
    "AsqNoPrivacy": ("asq", False),
}
MARGIN_COLUMNS = ("probe_id", "delta_hat", "delta_hstar")


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; the message names the offending line."""


def _open_bytes(path):
    p = str(path)
    if p.endswith(".bz2"):
        return bz2.open(p, "rb")
    if p.endswith(".gz"):
        return gzip.open(p, "rb")
    return open(p, "rb")


# accepted label spellings; 2 covers datasets published with {1, 2} classes
_LABEL_MAP = {1.0: 1, -1.0: 0, 0.0: 0, 2.0: 0}

# bytes read per block: 256 KB blocks leave freed temporaries that raise
# the peak RSS by 1.5-2.5 MB, and 16 KB blocks lose the speed
_BLOCK_BYTES = 1 << 16
# an index of at most 8 digits is read from the eight bytes before its colon,
# held in a uint64; a block with a longer one is read by `_read_lines`, where
# `int` also checks it against 2**63 - 1
_INDEX_DIGITS = 8
# labels and values of at most 7 characters are keyed by their bytes, padded
# with spaces, in a uint64, and each distinct one is converted once
_SHORT = 7
# a byte repeated in each byte of a uint64 is that byte times _EACH_BYTE
_EACH_BYTE = 0x0101010101010101
# _LOW_BYTES[k] keeps the low k bytes of a uint64, _SPACES[k] fills the
# others with spaces, and _HIGH_BYTES[k] keeps the high k bytes
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(_SHORT + 1)], dtype=np.uint64)
_SPACES = np.uint64(0x20 * _EACH_BYTE) & ~_LOW_BYTES
_HIGH_BYTES = np.array(
    [(1 << 64) - (1 << 64 - 8 * k) for k in range(_INDEX_DIGITS + 1)], dtype=np.uint64
)
# feature indices become column counts, which scipy keeps in int64
_MAX_INDEX = np.iinfo(np.int64).max
_INT32_MAX = np.iinfo(np.int32).max


def parse_libsvm(path) -> Dataset:
    """Read `label idx:val ...` lines into a sparse dataset.

    Labels {+1, 1} map to 1 and {-1, 0, 2} to 0, in any spelling `float`
    reads as one of those values. Feature indices are 1-based in the
    file, in `int` spelling, strictly increasing within a line, at most
    2**63 - 1, and stored 0-based; values are finite, in `float`
    spelling. Anything after '#' on a line is a comment, and blank lines
    are skipped. `.gz` and `.bz2` files are decompressed on the fly. The
    first error in file order raises `LibsvmParseError` naming its line.

    The file is read as bytes, in blocks of about 64 KB (`_BLOCK_BYTES`),
    each cut after a line end. An ASCII block whose features are all
    `digits:value`, with at most 8 digits, is read with array operations
    by `_tokenize`: one 16-byte gather around each colon gives the index,
    converted eight digits at a time in a uint64, and the value's first
    bytes; each distinct label or value of up to 7 characters is
    converted once with `float` (a value column of one spelling once in
    all), and longer values by `float` over one bytes.split. Any other
    block (one with a byte above 127, a signed, underscored or 9-digit
    index, or a line that fails a check) is read line by line by
    `_read_lines`, with str.split, `int` and `float`, at about a fifth of
    the speed; it alone names errors.
    """
    # per block: labels, features per example, 0-based indices, values
    labels, counts, indices, values = pieces = [], [], [], []
    lineno = 1  # of the current block's first line
    with _open_bytes(path) as fh:
        for block in _blocks(fh):
            *parts, lines = _tokenize(block) or _read_lines(block, lineno)
            for piece, part in zip(pieces, parts):
                piece.append(part)
            lineno += lines

    rows = sum(map(len, labels))
    if not rows:
        raise LibsvmParseError("no examples found")
    # each list is freed once joined, so the peak is the output and one list;
    # indptr is int32 where it fits, as scipy stores it, so it copies nothing
    nnz = sum(map(len, indices))
    y = _joined(labels)
    indptr = np.zeros(rows + 1, dtype=np.int32 if nnz <= _INT32_MAX else np.int64)
    np.cumsum(_joined(counts), out=indptr[1:])
    col = _joined(indices)
    X = sp.csr_matrix(
        (_joined(values), col, indptr),
        shape=(rows, int(col.max()) + 1 if col.size else 0),
    )
    return Dataset(X, y)


def _joined(pieces: list) -> np.ndarray:
    """The pieces concatenated, the list emptied so that they are freed."""
    joined = np.concatenate(pieces)
    pieces.clear()
    return joined


def _blocks(fh):
    """The bytes of `fh` in blocks of about `_BLOCK_BYTES`, each cut after
    its last \\n, or after its last \\r that a byte other than \\n follows,
    so that no \\r\\n pair or UTF-8 sequence is split. Each read is
    searched once, and a line's reads are joined once, at its cut."""
    pieces = []
    while chunk := fh.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1 or chunk.rfind(b"\r", 0, len(chunk) - 1) + 1
        # else a \r that ended the last read is a line end: chunk has no \n
        if cut or pieces and pieces[-1].endswith(b"\r"):
            yield b"".join([*pieces, chunk[:cut]])
            pieces = []
        pieces.append(chunk[cut:])
    if rest := b"".join(pieces):
        yield rest


def _shape(labels, counts, idx: np.ndarray, values, lines: int):
    """A block's labels (0/1), feature counts, 0-based indices and values,
    in the dtypes both readers return, and its number of line ends. `idx`
    is int32 where every index fits; `values` is a list or a float64 array
    of its own, never a view of a larger array that would outlive the block."""
    y, n = np.asarray(labels, dtype=np.int_), np.asarray(counts, dtype=np.int32)
    return y, n, idx, np.asarray(values, dtype=np.float64), lines


def _tokenize(block: bytes):
    """`_read_lines` of an ASCII block whose features are all
    `digits:value`, with at most 8 digits, and which passes every check,
    with array operations; None for any other block."""
    if not block.isascii():
        return None
    c = np.frombuffer(block, dtype=np.uint8)
    n = c.size
    # line k ends at ends[k]: a \n, or a \r that no \n follows
    ends = np.flatnonzero(c == 10)
    if b"\r" in block:
        cr = np.flatnonzero(c == 13)
        lone = cr[(cr == n - 1) | (c.take(cr + 1, mode="clip") != 10)]
        ends = np.union1d(ends, lone)
    # str.split's gaps: \t \n \v \f \r, \x1c-\x1f and the space; framed by
    # two more, their changes are each token's start and stop
    gap = np.ones(n + 2, dtype=bool)
    np.less(c - np.uint8(9), 5, out=gap[1:-1])  # wraps below 9
    gap[1:-1] |= c - np.uint8(28) < 5
    tokens = np.flatnonzero(gap[1:] != gap[:-1]).reshape(-1, 2)
    del gap
    colons = np.flatnonzero(c == 58)
    if b"#" in block:
        # a comment runs from the first '#' of a line to the line's end
        hashes = np.flatnonzero(c == 35)
        at = np.searchsorted(ends, hashes)
        lead = np.r_[True, at[1:] != at[:-1]]  # each line's first '#'
        comment = np.full(ends.size + 1, n)
        comment[at[lead]] = hashes[lead]
        starts, stops = tokens.T
        np.minimum(stops, comment[np.searchsorted(ends, starts)], out=stops)
        tokens = tokens[starts < stops]
        colons = colons[colons < comment[np.searchsorted(ends, colons)]]

    # a line's first token is its label, and every other token a feature;
    # line k's label is token labels[k], and labels[-1] the token count.
    # The starts and stops, in turn, increase, so the first token after a
    # line end follows the starts and stops at or before it
    head = np.zeros(len(tokens) + 1, dtype=bool)
    head[np.searchsorted(tokens.ravel(), ends, side="right") // 2] = True
    head[0] = head[-1] = True
    labels = np.flatnonzero(head)
    fs, fe = np.compress(~head[:-1], tokens, axis=0).T
    # each feature holds the next colon, after 1 to 8 digits and before a
    # value; so, with as many colons as features, it holds no other
    if colons.size != fs.size:
        return None
    digits = colons - fs
    if not np.all((digits >= 1) & (digits <= _INDEX_DIGITS) & (fe - colons > 1)):
        return None
    # window[p] holds the 16 bytes c[p - 8 : p + 8]; as two uint64, the
    # eight bytes before p and the eight from p
    padded = np.zeros(n + 16, dtype=np.uint8)
    padded[8:-8] = c
    window = np.ndarray(n + 1, dtype="V16", buffer=padded, strides=(1,))
    around = window[colons].view("<u8").reshape(-1, 2)  # take would copy window whole
    starts, stops = np.take(tokens, labels[:-1], axis=0).T
    try:
        value = _floats(c, colons + 1, fe, around[:, 1] >> np.uint64(8))
        label = _floats(c, starts, stops, window[starts].view("<u8")[1::2])
    except ValueError:
        return None
    idx = _indices(around[:, 0], digits)
    y = label == 1
    if idx is None or not np.all(y | (label == -1) | (label == 0) | (label == 2)):
        return None
    # an index must exceed the one before it on its line, and the first 0;
    # line k's first feature is feature labels[k] - k
    floor = np.empty(idx.size + 1, dtype=idx.dtype)
    floor[0] = 0
    floor[1:] = idx
    floor[labels[:-1] - np.arange(labels.size - 1)] = 0
    if not np.all(idx > floor[:-1]):
        return None
    idx -= 1
    return _shape(y, labels[1:] - labels[:-1] - 1, idx, value, ends.size)


# each SWAR step below works on all eight bytes of a uint64 at once
_ZEROS = np.uint64(0x30 * _EACH_BYTE)
_SIXES = np.uint64(0x06 * _EACH_BYTE)
_HIGH_NIBBLES = np.uint64(0xF0 * _EACH_BYTE)
_PAIRS = np.uint64(0x000000FF000000FF)  # bytes 0 and 4
_SCALE_EVEN = np.uint64(100 + (10**6 << 32))
_SCALE_ODD = np.uint64(1 + (10**4 << 32))


def _indices(x: np.ndarray, digits: np.ndarray) -> np.ndarray | None:
    """The int32 value of the `digits`-digit decimal in the high bytes of
    each uint64 `x` (the bytes before a colon, the last digit in the high
    byte); None where one of those bytes is not 0-9."""
    keep = _HIGH_BYTES.take(digits)
    x &= keep
    zeros = keep & _ZEROS  # '0' in each digit's byte, and 0 below them
    # an ASCII byte is 0x30-0x39 iff the high nibble of it AND it plus 6 is
    # 3: 0x3a-0x3f plus 6 carry into the high nibble, and '+' (0x2b) plus 6
    # is 0x31, with 0x2b & 0x31 = 0x21; no byte plus 6 carries into the next
    if not np.all(x & (x + _SIXES) & _HIGH_NIBBLES == zeros):
        return None
    x -= zeros  # eight digits d0..d7, d7 last, d0 in the low byte
    # 10 * d[i] + d[i + 1] in each byte i; the top byte's product wraps off
    x *= np.uint64(10 * 256 + 1)
    x >>= np.uint64(8)
    # the pairs of bytes 0, 2, 4 and 6, weighted by 10**6, 10**4, 100 and 1
    # in the high half (uint64 products wrap by design)
    odd = x >> np.uint64(16)
    odd &= _PAIRS
    odd *= _SCALE_ODD
    x &= _PAIRS
    x *= _SCALE_EVEN
    x += odd
    x >>= np.uint64(32)
    return x.astype(np.int32)


def _floats(c: np.ndarray, begin, end, first: np.ndarray) -> np.ndarray:
    """The `float` of each field c[begin:end] of ASCII bytes, in an array of
    its own; ValueError where one fails or is not finite. `first` holds each
    field's first seven bytes or more, the first in the low byte. A field of
    at most 7 bytes is keyed by its bytes, padded with spaces, and each
    distinct key is converted once."""
    length = end - begin
    over = length > _SHORT
    if over.any():
        out = np.empty(begin.size)
        out[over] = _split_floats(c, begin[over], end[over])
        short = ~over
        out[short] = _floats(c, begin[short], end[short], first[short])
        return out
    if not begin.size:
        return np.empty(0)
    key = first & _LOW_BYTES.take(length) | _SPACES.take(length)
    # one spelling, as in the value column of most binary data sets
    one = np.all(key == key[0])
    distinct = key[:1] if one else np.unique(key)
    words = distinct.astype("<u8").tobytes().split()
    value = _finite(np.fromiter(map(float, words), dtype=np.float64, count=len(words)))
    if one:
        return np.full(begin.size, value[0])
    return value[np.searchsorted(distinct, key)]


def _split_floats(c: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """`float` of each field, from one bytes.split of the fields gathered
    with a space after each; fields hold no whitespace, so none splits."""
    size = end - begin + 1
    offset = np.cumsum(size)
    at = np.repeat(begin - offset + size, size) + np.arange(offset[-1])
    gathered = c.take(at, mode="clip")  # a field may end the block
    gathered[offset - 1] = 32
    words = gathered.tobytes().split()
    return _finite(np.fromiter(map(float, words), dtype=np.float64, count=len(words)))


def _finite(values: np.ndarray) -> np.ndarray:
    """`values`; ValueError if one is infinite or NaN."""
    if not np.isfinite(values).all():
        raise ValueError("a value is infinite or NaN")
    return values


def _read_lines(block: bytes, lineno: int):
    """`_tokenize` of any block, whose first line is `lineno`, read line by
    line; raises at its first bad line, or at a byte that is not UTF-8
    once the lines above it are read."""
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = block[: exc.start]
        cut = max(head.rfind(b"\n"), head.rfind(b"\r")) + 1
        above = _read_lines(head[:cut], lineno)[-1]  # line ends above the byte
        raise LibsvmParseError(
            f"line {lineno + above}: byte {block[exc.start]:#04x} is not valid UTF-8"
        ) from None
    # lines end as the text reader ends them: at \n, \r\n and \r only
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    labels, counts, indices, values = [], [], [], []
    for k, line in enumerate(lines, start=lineno):
        tokens = line.split("#", 1)[0].split()
        if tokens:
            labels.append(_read_label(k, tokens[0]))
            idx, val = _read_features(k, tokens[1:])
            counts.append(len(idx))
            indices += idx
            values += val
    idx = np.asarray(indices, dtype=np.int64) - 1
    if idx.max(initial=0) <= _INT32_MAX:
        idx = idx.astype(np.int32)
    return _shape(labels, counts, idx, values, len(lines) - 1)


def _read_label(lineno: int, token: str) -> int:
    try:
        value = float(token)
    except ValueError:
        raise LibsvmParseError(
            f"line {lineno}: unreadable label {token!r}"
        ) from None
    label = _LABEL_MAP.get(value)
    if label is None:
        raise LibsvmParseError(f"line {lineno}: unknown label value {token}")
    return label


def _read_features(lineno: int, tokens) -> tuple[list[int], list[float]]:
    """1-based indices and values of one line's `idx:val` tokens; raises
    at the first bad one."""
    indices, values = [], []
    previous = 0
    for token in tokens:
        idx_str, _, val_str = token.partition(":")
        try:
            idx = int(idx_str)
            val = float(val_str)
        except ValueError:
            raise LibsvmParseError(
                f"line {lineno}: malformed feature {token!r}"
            ) from None
        if not math.isfinite(val):
            raise LibsvmParseError(
                f"line {lineno}: non-finite feature value {token!r}"
            )
        if idx < 1:
            raise LibsvmParseError(
                f"line {lineno}: feature index {idx} is not positive"
            )
        if idx > _MAX_INDEX:
            raise LibsvmParseError(
                f"line {lineno}: feature index {idx} is too large"
            )
        if idx <= previous:
            raise LibsvmParseError(
                f"line {lineno}: feature index {idx} does not increase"
            )
        indices.append(idx)
        values.append(val)
        previous = idx
    return indices, values


def write_libsvm(data: Dataset, path) -> None:
    """Canonical LIBSVM text for a labeled dataset (1-based indices)."""
    if not data.labeled:
        raise ValueError("writing needs labels")
    X = data.X
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(len(data)):
            start, end = X.indptr[i], X.indptr[i + 1]
            feats = " ".join(
                # plain-float repr: numpy scalars stringify as np.float64(..)
                f"{j + 1}:{float(X.data[k])!r}"
                for k, j in zip(range(start, end), X.indices[start:end])
            )
            fh.write(f"{int(data.y[i])} {feats}".rstrip() + "\n")


@dataclass(frozen=True)
class Split:
    """One trial's partition of the parsed rows `data`: the indices of the
    teacher, pool and test rows, in the split's random order. The pool's
    labels ride along for evaluation only."""

    data: Dataset
    teacher: np.ndarray
    pool: np.ndarray
    test: np.ndarray

    @property
    def student_labels(self) -> np.ndarray:
        return self.data.y[self.pool]


# the shares of a trial's examples that go to the teachers and to the pool,
# floor and ceil of these times the dataset size; the test set takes the rest
_TEACHER_SHARE, _POOL_SHARE = 0.8, 0.02
# the share of the pool an Asq run may query, rounded, and at least one point
_QUERY_SHARE = 0.3


def split_protocol(data: Dataset, rng) -> Split:
    """Disjoint random split into (teacher, unlabeled student, test), as
    row indices into `data`; no row is copied.

    The teacher pool takes floor(_TEACHER_SHARE * N), the student pool
    ceil(_POOL_SHARE * N), and the test set the remainder, so sizes are
    reproducible integers.
    """
    if not data.labeled:
        raise ValueError("splitting needs a labeled dataset")
    n = len(data)
    n_teacher = math.floor(_TEACHER_SHARE * n)
    n_student = math.ceil(_POOL_SHARE * n)
    n_test = n - n_teacher - n_student
    if min(n_teacher, n_student, n_test) < 1:
        raise ValueError(f"split of {n} examples leaves an empty part")
    perm = make_rng(rng).permutation(n)
    teacher, pool, test = np.split(perm, [n_teacher, n_teacher + n_student])
    return Split(data, teacher, pool, test)


# the type each scalar annotation of an `ExperimentConfig` field asks for
_SCALARS = {"bool": bool, "int": numbers.Integral, "float": numbers.Real, "str": str}


def _is_a(value, kind: str) -> bool:
    """Whether `value` is of the `_SCALARS` kind, a bool only where a bool
    goes (True is an int)."""
    is_bool = isinstance(value, bool)
    return isinstance(value, _SCALARS[kind]) and is_bool == (kind == "bool")


# each generator name: the function that draws a dataset, and the
# generator_params it reads with their defaults, n the sample size; a
# LIBSVM file reads none
_GENERATORS = {
    "realizable": (gen_realizable, {"n": 4000, "d": 5}),
    "massart": (gen_massart, {"n": 4000, "d": 5, "flip": 0.1}),
    "tnc": (gen_tnc, {"n": 4000, "tau": 1.0, "c": 0.5}),
}
# the fewest examples a generator may draw: 10 split into 8, 1 and 1
_MIN_N = 10


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one repeated experiment needs, JSON-mirrorable.

    dataset is a LIBSVM file path or a synthetic generator name
    (realizable, massart, tnc). generator_params may hold only keys the
    generator reads, each of its default's type (`_GENERATORS`: each an
    int sample size n, at least 10; realizable an int d; massart d and a
    real flip; tnc real tau and c); a file reads none. delta=None defers
    to 1/(teacher pool size) per trial, and only the private methods take
    a delta; K=None sizes the committee at one teacher per hundred
    sensitive points. svt_T is PsqSvt's cutoff, and no other method takes
    one; None gives the public cutoff
    `compute_svt_params(student pool size, budget)`, sized for error-free
    teachers, which reads nothing of the sensitive data. The split and
    Asq's query budget are fixed (`_TEACHER_SHARE`, `_POOL_SHARE`,
    `_QUERY_SHARE`).

    The privacy guarantee is for replace-one neighbours: data sets of the
    same size that differ in one example. The defaults of delta and K
    read the teacher pool's size, which is public only under that
    relation, and a vote count has sensitivity 1 only under it, as one
    replaced example changes one teacher's shard.
    """

    dataset: str
    method: str
    epsilon: float = 1.0
    delta: float | None = None
    trials: int = 30
    seed: int = 0
    K: int | None = None
    svt_T: int | None = None
    generator_params: dict = field(default_factory=dict)
    record_timing: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            value, kind = getattr(self, f.name), f.type.split(" | ")[0]
            optional = value is None and "None" in f.type
            if kind in _SCALARS and not optional and not _is_a(value, kind):
                raise ValueError(f"{f.name} must be of type {kind}, got {value!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {tuple(METHODS)}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.K is not None and self.K < 1:
            raise ValueError(f"K must be positive, got {self.K}")
        if self.svt_T is not None and self.method != "PsqSvt":
            raise ValueError(f"svt_T is read by PsqSvt only, not by {self.method}")
        if self.svt_T is not None and self.svt_T < 1:
            raise ValueError(f"svt_T must be positive, got {self.svt_T}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.delta is not None and not self.private:
            raise ValueError(
                f"delta is not read by {self.method}, which spends no budget"
            )
        params = self.generator_params
        if not isinstance(params, dict):
            raise ValueError(f"generator_params must be a dict, got {params!r}")
        defaults = _GENERATORS.get(self.dataset, (None, {}))[1]
        unread = set(params) - set(defaults)
        if unread:
            raise ValueError(
                f"generator_params {sorted(unread)} are not read "
                f"by dataset {self.dataset!r}"
            )
        for key, value in params.items():
            kind = type(defaults[key]).__name__
            if not _is_a(value, kind):
                raise ValueError(
                    f"generator_params {key!r} must be of type {kind}, got {value!r}"
                )
        if params.get("n", _MIN_N) < _MIN_N:
            raise ValueError(
                f"generator_params 'n' must be at least {_MIN_N}, got {params['n']}"
            )

    @property
    def private(self) -> bool:
        return METHODS[self.method][1]


@dataclass(frozen=True)
class TrialReport:
    dataset: str
    method: str
    epsilon: float
    delta: float
    trial: int
    seed: int
    queries: int
    bots: int
    eps_ex_post: float
    accuracy: float
    wall_ms: int = 0

    def __post_init__(self) -> None:
        if self.eps_ex_post > self.epsilon:
            raise ValueError("realized privacy loss exceeds the budget")
        if not (0.0 <= self.accuracy <= 1.0):
            raise ValueError("accuracy must lie in [0, 1]")

    def as_row(self) -> dict:
        return {c: getattr(self, c) for c in TRIAL_COLUMNS}


TRIAL_COLUMNS = tuple(f.name for f in fields(TrialReport))


@dataclass(frozen=True)
class SummaryReport:
    dataset: str
    method: str
    trials: int
    mean_accuracy: float
    accuracy_halfwidth: float
    mean_queries: float
    queries_halfwidth: float

    @classmethod
    def from_trials(cls, trials: list[TrialReport]) -> "SummaryReport":
        if not trials:
            raise ValueError("no trials to summarize")
        acc = np.array([t.accuracy for t in trials], dtype=float)
        qs = np.array([t.queries for t in trials], dtype=float)
        return cls(
            dataset=trials[0].dataset,
            method=trials[0].method,
            trials=len(trials),
            mean_accuracy=float(acc.mean()),
            accuracy_halfwidth=_halfwidth(acc),
            mean_queries=float(qs.mean()),
            queries_halfwidth=_halfwidth(qs),
        )


def _halfwidth(values: np.ndarray) -> float:
    """The half-width of the 95% Student-t interval for the mean; 0.0 for
    fewer than two values."""
    n = len(values)
    if n < 2:
        return 0.0
    # stdtrit is the t quantile of scipy.stats.t.ppf, without importing
    # scipy.stats, which costs ~44 MB and ~0.5 s at start-up
    return float(stdtrit(n - 1, 0.975) * values.std(ddof=1) / math.sqrt(n))


def _load_source(name: str, params: dict):
    """Per-trial dataset factory for a generator name or a LIBSVM file.

    Generators draw fresh examples from the trial's rng, with `params`
    over their defaults in `_GENERATORS`; a file is parsed once, here.
    """
    if name in _GENERATORS:
        generate, defaults = _GENERATORS[name]
        kwargs = {**defaults, **params}
        return lambda rng: generate(rng=rng, **kwargs)[0]
    if not Path(name).exists():
        raise FileNotFoundError(
            f"dataset {name!r} is neither a readable file nor a generator name"
        )
    parsed = parse_libsvm(name)
    return lambda rng: parsed


def _run_trial(
    config: ExperimentConfig, data: Dataset, rng: np.random.Generator
) -> tuple[RunReport, float, float]:
    """One pipeline run on a fresh split; returns (report, eps, delta).

    The pool and test rows are copied out of `data`; the committee reads
    the teacher rows in place. Non-private methods run the same pipelines
    with no budget, so their sessions release exact majorities; their
    rows state (inf, 0).
    """
    split = split_protocol(data, rng)
    data, teacher = split.data, split.teacher
    student, test = Dataset(data.X[split.pool]), data.subset(split.test)
    K = config.K if config.K is not None else math.ceil(len(teacher) / 100)

    if config.private:
        delta = config.delta if config.delta is not None else 1.0 / len(teacher)
        budget = PrivacyBudget(config.epsilon, delta)
        eps, delta = budget.epsilon, budget.delta
    else:
        budget = None
        eps, delta = math.inf, 0.0

    if METHODS[config.method][0] == "asq":
        query_budget = max(1, round(_QUERY_SHARE * len(student)))
        _, report = pate_asq(
            data, student, test, K, query_budget, budget, rng=rng, teacher_rows=teacher
        )
    else:  # T is None for PsqGaussian and PsqNoPrivacy
        T = config.svt_T
        if config.method == "PsqSvt" and T is None:
            # the public rule `privote calibrate` prints: sized for error-free
            # teachers, so T reads nothing of the sensitive pool
            T, _ = compute_svt_params(len(student), budget)
        _, report = pate_psq(
            data, student, test, K, budget, T=T, rng=rng, teacher_rows=teacher
        )
    return report, eps, delta


def run_experiment(
    config: ExperimentConfig,
) -> tuple[SummaryReport, list[TrialReport]]:
    """The repeat protocol: fresh derived-seed split and run per trial."""
    factory = _load_source(config.dataset, config.generator_params)
    trials: list[TrialReport] = []
    for t in range(config.trials):
        seed = derive_seed(config.seed, t)
        try:
            started = time.perf_counter() if config.record_timing else 0.0
            rng = make_rng(seed)
            data = factory(rng)
            report, eps, delta = _run_trial(config, data, rng)
            wall_ms = (
                round(1000.0 * (time.perf_counter() - started))
                if config.record_timing
                else 0
            )
        except Exception as exc:
            raise RuntimeError(
                f"trial {t} (seed {seed}) failed: {exc}"
            ) from exc
        trials.append(
            TrialReport(
                dataset=config.dataset,
                method=config.method,
                epsilon=eps,
                delta=delta,
                trial=t,
                seed=seed,
                queries=report.queries,
                bots=report.bots,
                eps_ex_post=report.eps_ex_post,
                accuracy=report.accuracy,
                wall_ms=wall_ms,
            )
        )
    return SummaryReport.from_trials(trials), trials


# ---------------------------------------------------------------------------
# Report emission


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _render_csv(columns, rows: list[dict]) -> str:
    """Rows as CSV, quoting a cell (a dataset path) only where it needs it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_format_cell(row[c]) for c in columns] for row in rows)
    return out.getvalue()


def render_trial_csv(trials: list[TrialReport]) -> str:
    return _render_csv(TRIAL_COLUMNS, [t.as_row() for t in trials])


def _coerce_rows(reports) -> tuple[tuple[str, ...], list[dict]]:
    first = reports[0]
    if isinstance(first, TrialReport):
        return TRIAL_COLUMNS, [t.as_row() for t in reports]
    if isinstance(first, dict) and "probe_id" in first:
        return MARGIN_COLUMNS, list(reports)
    raise TypeError(f"cannot emit reports of type {type(first).__name__}")


def _json_cell(value):
    # JSON has no inf or nan; write them as the CSV cells do
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value


def render_report(reports, format: str) -> str:
    """Trial or margin records as CSV or JSON text; byte-stable.

    JSON is an array of objects in column order. Non-finite floats, such
    as the epsilon of a non-private run, become the strings "inf", "-inf"
    and "nan", matching the CSV cells, so the output is strict JSON.
    """
    if not reports:
        raise ValueError("nothing to emit")
    if format not in ("csv", "json"):
        raise ValueError("format must be csv or json")
    columns, rows = _coerce_rows(reports)
    if format == "csv":
        return _render_csv(columns, rows)
    ordered = [{c: _json_cell(row[c]) for c in columns} for row in rows]
    return json.dumps(ordered, indent=2, allow_nan=False) + "\n"


def emit_report(reports, format: str, path) -> Path:
    """Write trial or margin records as CSV or JSON (see render_report)."""
    text = render_report(reports, format)
    out = Path(path)
    out.write_text(text, encoding="utf-8", newline="\n")
    return out

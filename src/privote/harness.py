"""Dataset ingestion, the split-and-repeat experiment protocol, and reports.

The protocol: per trial, re-split the data at a derived seed into a
sensitive teacher pool (80%), an unlabeled public student pool (2%), and a
test set (18%); size the committee at roughly one teacher per hundred
sensitive points; run the chosen pipeline; aggregate trial rows into a
mean plus a normal-approximation confidence half-width.

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

from .dp_core import PrivacyBudget, derive_seed, make_rng
from .learners import Dataset
from .pipelines import (
    AsqConfig,
    PsqConfig,
    RunReport,
    compute_svt_params,
    pate_asq,
    pate_psq,
)
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

METHODS = ("PsqGaussian", "PsqSvt", "Asq", "PsqNoPrivacy", "AsqNoPrivacy")

TRIAL_COLUMNS = (
    "dataset",
    "method",
    "epsilon",
    "delta",
    "trial",
    "seed",
    "queries",
    "bots",
    "eps_ex_post",
    "accuracy",
    "wall_ms",
)
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
# indices of at most 18 digits are converted with int64 arithmetic, and
# longer ones by `int`, which also checks them against 2**63 - 1
_MAX_DIGITS = 18
# labels and values of at most 7 characters are keyed by their bytes in a
# uint64, and each distinct one is converted once
_SHORT = 7
# _LOW_BYTES[k] keeps the low k bytes of a uint64
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(_SHORT + 1)], dtype=np.uint64)
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
    `digits:value` is read with array operations by `_tokenize`: indices
    of up to 18 digits with int64 arithmetic, each distinct label or
    value of up to 7 characters once with `float`, and longer values by
    `float` over one bytes.split. Any other block (one with a byte above
    127, a signed or underscored index, or a line that fails a check) is
    read line by line by `_read_lines`, with str.split, `int` and
    `float`, at about a fifth of the speed; it alone names errors.
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


def _shape(labels, counts, indices, values, lines: int):
    """A block's labels (0/1), feature counts, 0-based indices and values,
    in the dtypes both readers return, and its number of line ends.
    `indices` are 1-based; `values` is copied, so that no view of a larger
    array outlives the block."""
    idx = np.asarray(indices, dtype=np.int64) - 1
    if idx.max(initial=0) <= _INT32_MAX:
        idx = idx.astype(np.int32)
    y, n = np.asarray(labels, dtype=np.int_), np.asarray(counts, dtype=np.int32)
    return y, n, idx, np.array(values, dtype=np.float64), lines


def _tokenize(block: bytes):
    """`_read_lines` of an ASCII block whose features are all
    `digits:value` and which passes every check, with array operations;
    None for any other block."""
    if not block.isascii():
        return None
    c = np.frombuffer(block, dtype=np.uint8)
    n = c.size
    # line k ends at ends[k]: a \n, or a \r that no \n follows
    ends = np.flatnonzero(c == 10)
    cr = np.flatnonzero(c == 13)
    if cr.size:
        lone = cr[(cr == n - 1) | (c.take(cr + 1, mode="clip") != 10)]
        ends = np.union1d(ends, lone)
    # str.split's gaps: \t \n \v \f \r, \x1c-\x1f and the space
    shifted = c - np.uint8(9)  # wraps below 9
    gaps = (shifted < 5) | ((shifted >= 19) & (shifted <= 23))
    bounds = np.flatnonzero(np.diff(gaps, prepend=True, append=True))
    del shifted, gaps  # freed once used: a block's temporaries peak at ~20x its bytes
    starts, stops = bounds[0::2], bounds[1::2]
    hashes = np.flatnonzero(c == 35)
    if hashes.size:
        # a comment runs from the first '#' of a line to the line's end
        line = np.searchsorted(ends, starts)
        at = np.searchsorted(ends, hashes)
        lead = np.r_[True, at[1:] != at[:-1]]  # each line's first '#'
        comment = np.full(ends.size + 1, n)
        comment[at[lead]] = hashes[lead]
        stops = np.minimum(stops, comment[line])
        keep = starts < stops
        starts, stops = starts[keep], stops[keep]

    # a line's first token is its label, and every other token a feature
    head = np.zeros(starts.size + 1, dtype=bool)
    head[np.searchsorted(starts, ends)] = True
    head[0] = True
    head = head[:-1]
    examples = np.flatnonzero(head)
    feature = np.flatnonzero(~head)
    fs, fe = starts[feature], stops[feature]
    colons = np.flatnonzero(c == 58)
    if colons.size == fs.size and (fs < colons).all() and (colons < fe).all():
        col, one = colons, True  # one colon in each feature, and no other
    else:
        colons = np.append(colons, [n, n])
        at = np.searchsorted(colons, fs)
        col, one = colons[at], colons[at + 1] >= fe

    # every feature must be `digits:value`, with up to 18 digits, so that
    # its index stays below 2**63 - 1 in int64 arithmetic
    digits = col - fs
    if not np.all(one & (digits >= 1) & (digits <= _MAX_DIGITS) & (fe - col > 1)):
        return None
    idx = np.zeros(fs.size, dtype=np.int64)
    for k in range(int(digits.max(initial=0))):
        digit = c.take(fs + k, mode="clip") - np.uint8(48)  # wraps below '0'
        if not np.all((digits <= k) | (digit <= 9)):
            return None
        idx = np.where(digits > k, idx * 10 + digit, idx)
    begin = np.concatenate([starts[examples], col + 1])
    end = np.concatenate([stops[examples], fe])
    del fs, fe, colons, col, digits
    try:
        out = _floats(c, begin, end)
    except ValueError:
        return None
    label, value = out[: examples.size], out[examples.size :]
    bad = ~np.isfinite(value) | (idx < 1)
    # an index must exceed the one before it on its line
    bad[1:] |= (idx[1:] <= idx[:-1]) & ~head[feature[1:] - 1]
    known = (label == 1) | (label == -1) | (label == 0) | (label == 2)
    if bad.any() or not known.all():
        return None
    count = np.diff(examples, append=starts.size) - 1
    return _shape(label == 1, count, idx, value, ends.size)


def _floats(c: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """`float` of each field c[begin:end] of ASCII bytes; ValueError where
    one fails. Each distinct short field is converted once."""
    out = np.empty(begin.size)
    length = end - begin
    short = np.flatnonzero(length <= _SHORT)
    if short.size:
        # a short field's key holds its length in the low byte and its
        # bytes above it, read as a uint64 from the eight at its start
        padded = np.concatenate([c, np.zeros(8, dtype=np.uint8)])
        eight = np.ndarray(c.shape, dtype="<u8", buffer=padded, strides=(1,))
        size = length[short]
        key = eight[begin[short]] & _LOW_BYTES[size]  # take would copy eight whole
        key = key << np.uint64(8) | size.astype(np.uint64)
        distinct = np.sort(key)
        distinct = distinct[np.r_[True, distinct[1:] != distinct[:-1]]]
        inverse = np.searchsorted(distinct, key)
        one = np.empty(distinct.size, dtype=np.intp)
        one[inverse] = short  # a field that spells each key
        out[short] = _split_floats(c, begin[one], end[one])[inverse]
    rest = np.flatnonzero(length > _SHORT)
    if rest.size:
        out[rest] = _split_floats(c, begin[rest], end[rest])
    return out


def _split_floats(c: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """`float` of each field, from one bytes.split of the fields gathered
    with a space after each; fields hold no whitespace, so none splits."""
    size = end - begin + 1
    offset = np.cumsum(size) - size
    at = np.repeat(begin - offset, size) + np.arange(int(size.sum()))
    gathered = c.take(at, mode="clip")  # a field may end the block
    gathered[offset + size - 1] = 32
    words = gathered.tobytes().split()
    return np.fromiter(map(float, words), dtype=np.float64, count=len(words))


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
    return _shape(labels, counts, indices, values, len(lines) - 1)


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
    """One trial's partition; student labels ride along for evaluation only."""

    teacher: Dataset
    student: Dataset  # unlabeled
    test: Dataset
    student_labels: np.ndarray


def split_protocol(data: Dataset, fractions, rng) -> Split:
    """Disjoint random split into (teacher, unlabeled student, test).

    The teacher pool takes floor(f_t * N), the student pool ceil(f_s * N),
    and the test set the remainder, so sizes are reproducible integers.
    """
    f = _check_fractions(fractions)
    if not data.labeled:
        raise ValueError("splitting needs a labeled dataset")
    n = len(data)
    n_teacher = math.floor(f[0] * n)
    n_student = math.ceil(f[1] * n)
    n_test = n - n_teacher - n_student
    if min(n_teacher, n_student, n_test) < 1:
        raise ValueError(f"split of {n} examples leaves an empty part")
    perm = make_rng(rng).permutation(n)
    teacher = data.subset(perm[:n_teacher])
    student = data.subset(perm[n_teacher : n_teacher + n_student])
    test = data.subset(perm[n_teacher + n_student :])
    return Split(teacher, student.without_labels(), test, student.y.copy())


# the type each scalar annotation of an `ExperimentConfig` field asks for
_SCALARS = {"bool": bool, "int": numbers.Integral, "float": numbers.Real, "str": str}


def _is_a(value, kind: str) -> bool:
    """Whether `value` is of the `_SCALARS` kind, a bool only where a bool
    goes (True is an int)."""
    is_bool = isinstance(value, bool)
    return isinstance(value, _SCALARS[kind]) and is_bool == (kind == "bool")


def _check_fractions(fractions) -> tuple[float, ...]:
    f = tuple(fractions)
    positive = all(_is_a(x, "float") and 0 < x < math.inf for x in f)
    if len(f) != 3 or not positive or abs(sum(f) - 1) > 1e-9:
        raise ValueError(
            f"fractions must be three positive numbers summing to 1, got {f!r}"
        )
    return tuple(map(float, f))


# each generator name: the function that draws a dataset, and the
# generator_params it reads with their defaults; a LIBSVM file reads none
_GENERATORS = {
    "realizable": (gen_realizable, {"d": 5}),
    "massart": (gen_massart, {"d": 5, "flip": 0.1}),
    "tnc": (gen_tnc, {"tau": 1.0, "c": 0.5}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one repeated experiment needs, JSON-mirrorable.

    dataset is a LIBSVM file path or a synthetic generator name
    (realizable, massart, tnc). generator_params may hold only keys the
    generator reads, each of its default's type (`_GENERATORS`:
    realizable an int d; massart d and a real flip; tnc real tau and c);
    a file reads none. delta=None defers to 1/(teacher pool size) per
    trial; K=None sizes the committee at one teacher per hundred
    sensitive points. svt_T is PsqSvt's cutoff, and no other method takes
    one; None gives the public cutoff
    `compute_svt_params(student pool size, 0.0, 0.05, budget)`, which
    reads nothing of the sensitive data.

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
    fractions: tuple[float, float, float] = (0.8, 0.02, 0.18)
    K: int | None = None
    query_fraction: float = 0.3
    svt_T: int | None = None
    synth_n: int = 4000
    generator_params: dict = field(default_factory=dict)
    record_timing: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            value, kind = getattr(self, f.name), f.type.split(" | ")[0]
            optional = value is None and "None" in f.type
            if kind in _SCALARS and not optional and not _is_a(value, kind):
                raise ValueError(f"{f.name} must be of type {kind}, got {value!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not (0.0 < self.query_fraction <= 1.0):
            raise ValueError("query_fraction must lie in (0, 1]")
        if self.synth_n < 10:
            raise ValueError("synth_n is too small to split")
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
        _check_fractions(self.fractions)
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

    @property
    def private(self) -> bool:
        return self.method not in ("PsqNoPrivacy", "AsqNoPrivacy")


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
    if len(values) < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / math.sqrt(len(values)))


def _load_source(name: str, n: int, params: dict):
    """Per-trial dataset factory for a generator name or a LIBSVM file.

    Generators draw n fresh examples from the trial's rng, with `params`
    over their defaults in `_GENERATORS`; a file is parsed once, here.
    """
    if name in _GENERATORS:
        generate, defaults = _GENERATORS[name]
        kwargs = {**defaults, **params}
        return lambda rng: generate(n=n, rng=rng, **kwargs)[0]
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

    Non-private methods run the same pipelines with no budget, so their
    sessions release exact majorities; their rows state (inf, 0).
    """
    split = split_protocol(data, config.fractions, rng)
    teacher, student, test = split.teacher, split.student, split.test
    K = config.K if config.K is not None else math.ceil(len(teacher) / 100)
    method = config.method

    if config.private:
        delta = config.delta if config.delta is not None else 1.0 / len(teacher)
        budget = PrivacyBudget(config.epsilon, delta)
        eps, delta = budget.epsilon, budget.delta
    else:
        budget = None
        eps, delta = math.inf, 0.0

    if method in ("Asq", "AsqNoPrivacy"):
        query_budget = max(1, round(config.query_fraction * len(student)))
        cfg = AsqConfig(K, query_budget, budget)
        _, report = pate_asq(teacher, student, test, cfg, rng)
    else:  # T is None for PsqGaussian and PsqNoPrivacy
        T = config.svt_T
        if method == "PsqSvt" and T is None:
            # the public rule `privote calibrate` prints: sized for error-free
            # teachers, so T reads nothing of the sensitive pool
            T, _ = compute_svt_params(len(student), 0.0, 0.05, budget)
        _, report = pate_psq(teacher, student, test, PsqConfig(K, budget, T), rng)
    return report, eps, delta


def run_experiment(
    config: ExperimentConfig,
) -> tuple[SummaryReport, list[TrialReport]]:
    """The repeat protocol: fresh derived-seed split and run per trial."""
    factory = _load_source(config.dataset, config.synth_n, config.generator_params)
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

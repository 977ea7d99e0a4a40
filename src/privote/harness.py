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
import gzip
import io
import json
import math
import time
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .dp_core import PrivacyBudget, derive_seed, make_rng
from .learners import Dataset, empirical_error, train_erm
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
    "estimate_teacher_error",
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


def _open_text(path):
    return io.TextIOWrapper(_open_bytes(path), encoding="utf-8")


# accepted label spellings; 2 covers datasets published with {1, 2} classes
_LABEL_MAP = {1.0: 1, -1.0: 0, 0.0: 0, 2.0: 0}

# size hint, in characters, of the block of lines converted in one pass;
# larger blocks convert no faster and hold more token strings at once
_BLOCK_CHARS = 1 << 18
# leading tokens of a block sampled to decide whether to deduplicate it
_SAMPLE = 1024
# feature indices become column counts, which scipy keeps in int64
_MAX_INDEX = np.iinfo(np.int64).max


def parse_libsvm(path) -> Dataset:
    """Read `label idx:val ...` lines into a sparse dataset.

    Labels {+1, 1} map to 1 and {-1, 0, 2} to 0, in any spelling `float`
    reads as one of those values. Feature indices are 1-based in the
    file, in `int` spelling, strictly increasing within a line, at most
    2**63 - 1, and stored 0-based; values are finite, in `float`
    spelling. Anything after '#' on a line is a comment, and blank lines
    are skipped. `.gz` and `.bz2` files are decompressed on the fly. The
    first error in file order raises `LibsvmParseError` naming its line.

    Lines are read in blocks of about 256k characters. In a block that
    repeats its tokens, as one-hot data does, each distinct `idx:val`
    token is converted once. Indices are checked with array operations,
    and only the first line that fails them is re-read token by token, to
    name its first bad token.
    """
    labels: list[int] = []
    counts: list[int] = []  # features per example
    indices: list[np.ndarray] = []  # per block, 1-based
    values: list[np.ndarray] = []
    first_lineno = 1  # of the current block

    with _open_text(path) as fh:
        while lines := _read_block(fh, path, first_lineno):
            features: list[str] = []
            rows: list[int] = []  # each example's position in `lines`
            row_counts: list[int] = []
            label_error = None
            for i, raw in enumerate(lines):
                tokens = raw.split("#", 1)[0].split()
                if not tokens:
                    continue
                try:
                    label = _read_label(first_lineno + i, tokens[0])
                except LibsvmParseError as exc:
                    # raised once the lines before it are checked
                    label_error = exc
                    break
                labels.append(label)
                rows.append(i)
                row_counts.append(len(tokens) - 1)
                del tokens[0]
                features += tokens

            block_idx, block_val, bad = _convert_block(features, row_counts)
            if bad >= 0:
                i = rows[bad]
                tokens = lines[i].split("#", 1)[0].split()
                _check_features(first_lineno + i, tokens[1:])
                raise AssertionError(f"line {first_lineno + i} passed its re-check")
            if label_error is not None:
                raise label_error
            counts += row_counts
            indices.append(block_idx)
            values.append(block_val)
            first_lineno += len(lines)

    if not labels:
        raise LibsvmParseError("no examples found")
    col = np.concatenate(indices) - 1
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    X = sp.csr_matrix(
        (np.concatenate(values), col, indptr),
        shape=(len(labels), int(col.max()) + 1 if col.size else 0),
    )
    return Dataset(X, np.asarray(labels))


def _read_block(fh, path, first_lineno: int) -> list[str]:
    """The next block of lines from `fh`, which starts at `first_lineno`.

    On a byte that is not UTF-8 the text reader fails before it hands over
    the lines ahead of it, so those are re-read from the bytes, split at
    \\n, \\r\\n or \\r as the reader splits them, and checked first.
    """
    try:
        return fh.readlines(_BLOCK_CHARS)
    except UnicodeDecodeError:
        with _open_bytes(path) as raw:
            data = raw.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            bad = exc.start
        else:  # the file has changed since
            raise
    text = data[:bad].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    for lineno in range(first_lineno, len(lines)):
        tokens = lines[lineno - 1].split("#", 1)[0].split()
        if tokens:
            _read_label(lineno, tokens[0])
            _check_features(lineno, tokens[1:])
    raise LibsvmParseError(
        f"line {len(lines)}: byte {data[bad]:#04x} is not valid UTF-8"
    )


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


def _check_features(lineno: int, tokens) -> None:
    """Raise at the first bad `idx:val` token of one line, if any."""
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
        previous = idx


def _bad_token(token: str) -> bool:
    try:
        _check_features(0, (token,))
    except LibsvmParseError:
        return True
    return False


def _one_colon_each(joined: str, n: int) -> bool:
    """Whether each of the n newline-separated tokens has exactly one ':'."""
    text = np.frombuffer(joined.encode(), dtype=np.uint8)
    colons = np.flatnonzero(text == ord(":"))
    if len(colons) != n:
        return False
    newlines = np.flatnonzero(text == ord("\n"))
    return bool((colons[:-1] < newlines).all() and (colons[1:] > newlines).all())


def _convert_tokens(tokens: list[str]):
    """1-based indices and values of `idx:val` tokens, plus a mask of the
    tokens `_check_features` rejects on their own.

    With a bad token among them the values are None and a bad token's
    index is 1, so that the increase test can still run.
    """
    n = len(tokens)
    joined = "\n".join(tokens)
    if _one_colon_each(joined, n):
        parts = joined.replace(":", "\n").split("\n")
        try:
            # an index above _MAX_INDEX overflows int64 here
            idx = np.fromiter(map(int, parts[0::2]), np.int64, n)
            val = np.fromiter(map(float, parts[1::2]), np.float64, n)
        except (ValueError, OverflowError):
            pass
        else:
            return idx, val, (idx < 1) | ~np.isfinite(val)
    bad = np.fromiter(map(_bad_token, tokens), bool, n)
    idx = np.fromiter(
        (1 if b else int(t.partition(":")[0]) for b, t in zip(bad, tokens)),
        np.int64,
        n,
    )
    return idx, None, bad


def _convert_block(tokens: list[str], counts: list[int]):
    """1-based indices and values of a block's feature tokens.

    `counts` splits `tokens` into examples. When the block repeats its
    tokens (half or fewer of its first `_SAMPLE` are distinct), each
    distinct token is converted once and the results are gathered
    through per-token codes. The third item is the first example that
    `_check_features` rejects, or -1.
    """
    n = len(tokens)
    if not n:
        return np.zeros(0, np.int64), np.zeros(0, np.float64), -1
    sample = tokens[:_SAMPLE]
    if 2 * len(set(sample)) <= len(sample):
        distinct = list(dict.fromkeys(tokens))
        code_of = dict(zip(distinct, range(len(distinct))))
        codes = np.fromiter(map(code_of.__getitem__, tokens), np.intp, n)
        idx, val, bad = _convert_tokens(distinct)
        idx, bad = idx[codes], bad[codes]
        if val is not None:
            val = val[codes]
    else:
        idx, val, bad = _convert_tokens(tokens)
    ends = np.cumsum(counts)
    failed = np.zeros(n, dtype=bool)
    # an index not above its predecessor, except where an example starts
    np.less_equal(idx[1:], idx[:-1], out=failed[1:])
    failed[ends[ends < n]] = False
    failed |= bad
    if not failed.any():
        return idx, val, -1
    first = int(np.argmax(failed))
    return None, None, int(np.searchsorted(ends, first, side="right"))


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
    f = tuple(float(x) for x in fractions)
    if len(f) != 3 or any(x <= 0 for x in f) or abs(sum(f) - 1.0) > 1e-9:
        raise ValueError(
            "fractions must be three positive numbers summing to 1"
        )
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one repeated experiment needs, JSON-mirrorable.

    dataset is a LIBSVM file path or a synthetic generator name
    (realizable, massart, tnc). generator_params may hold only keys the
    generator reads (realizable: d; massart: d, flip; tnc: tau, c); a
    file reads none. delta=None defers to 1/(teacher pool size) per
    trial; K=None sizes the committee at one teacher per hundred
    sensitive points.
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
    gamma: float = 0.1
    svt_T: int | None = None
    synth_n: int = 4000
    generator_params: dict = field(default_factory=dict)
    record_timing: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not (0.0 < self.query_fraction <= 1.0):
            raise ValueError("query_fraction must lie in (0, 1]")
        if self.synth_n < 10:
            raise ValueError("synth_n is too small to split")
        unread = set(self.generator_params) - set(
            _GENERATOR_PARAMS.get(self.dataset, ())
        )
        if unread:
            raise ValueError(
                f"generator_params {sorted(unread)} are not read "
                f"by dataset {self.dataset!r}"
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


def estimate_teacher_error(
    teacher_data: Dataset, K: int, rng: np.random.Generator
) -> float:
    """Expected single-teacher error, measured on a 10% holdout.

    Trains one committee-sized fit on the remaining data and scores it,
    approximating E[Err] for a teacher trained on n/K points.
    """
    n = len(teacher_data)
    n_holdout = max(1, round(0.1 * n))
    if n - n_holdout < 1:
        raise ValueError("teacher pool too small to hold out from")
    perm = make_rng(rng).permutation(n)
    holdout = teacher_data.subset(perm[:n_holdout])
    rest = perm[n_holdout:]
    chunk = rest[: max(1, len(rest) // K)]
    teacher = train_erm(teacher_data.subset(chunk))
    return empirical_error(teacher, holdout)


# each generator's name and the generator_params keys it reads; a LIBSVM
# file reads none
_GENERATOR_PARAMS = {
    "realizable": ("d",),
    "massart": ("d", "flip"),
    "tnc": ("tau", "c"),
}


def _load_source(name: str, n: int, params: dict):
    """Per-trial dataset factory for a generator name or a LIBSVM file.

    Generators draw n fresh examples from the trial's rng, with their
    parameters read from `params`; a file is parsed once, here.
    """
    if name in _GENERATOR_PARAMS:

        def factory(rng):
            if name == "realizable":
                return gen_realizable(params.get("d", 5), n, rng)[0]
            if name == "massart":
                flip = params.get("flip", 0.1)
                return gen_massart(params.get("d", 5), n, flip, rng)[0]
            return gen_tnc(params.get("tau", 1.0), n, rng, c=params.get("c", 0.5))[0]

        return factory
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
        cfg = AsqConfig(
            K=K,
            query_budget=max(1, round(config.query_fraction * len(student))),
            budget=budget,
            gamma=config.gamma,
        )
        _, report = pate_asq(teacher, student, test, cfg, rng)
    elif method == "PsqSvt":
        if config.svt_T is not None:
            T = config.svt_T
        else:
            err = estimate_teacher_error(teacher, K, rng)
            T, _ = compute_svt_params(len(student), err, 0.05, budget)
        cfg = PsqConfig(K=K, budget=budget, mechanism="svt", T=T)
        _, report = pate_psq(teacher, student, test, cfg, rng)
    else:  # PsqGaussian, PsqNoPrivacy
        cfg = PsqConfig(K=K, budget=budget)
        _, report = pate_psq(teacher, student, test, cfg, rng)
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
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


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

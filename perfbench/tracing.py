"""Outside-in tracing of privote's layers, from the benchmark's own files.

`instrument` replaces the public functions of harness, learners,
aggregation and pipelines with timing wrappers at the names their callers
look up: module globals such as ``harness.split_protocol``, names imported
into another module such as ``pipelines.train_erm``, and class attributes
such as ``learners.Ensemble.vote_ones``. The originals are restored on
exit. Every call records one span (name, start, end, parent span, trial);
spans stay in memory until the caller writes them out.

The trial is the shared identifier: each call of ``harness._run_trial``
opens a new trial, and every span under it carries its index. Spans
recorded outside a trial (the parse in run_experiment) carry trial -1.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

TRIAL_SPAN = "harness._run_trial"


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    trial: int
    start: int  # perf_counter_ns
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trials = 0
        self._trial = -1

    @property
    def trials(self) -> int:
        """Trials opened so far; the next one gets this index."""
        return self._trials

    def wrap(self, name: str, fn, measure=None):
        """`fn` recording a span per call; measure(result) adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == TRIAL_SPAN:
                self._trial = self._trials
                self._trials += 1
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, parent, self._trial, time.perf_counter_ns())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
                if name == TRIAL_SPAN:
                    self._trial = -1
            if measure is not None:
                span.attrs.update(measure(result))
            return result

        return traced


def _targets():
    from privote import aggregation, harness, learners, pipelines

    return [
        (harness, "parse_libsvm", "harness.parse_libsvm", None),
        (harness, "_run_trial", TRIAL_SPAN, None),
        (harness, "split_protocol", "harness.split_protocol", None),
        (harness, "pate_psq", "pipelines.pate_psq", None),
        (harness, "pate_asq", "pipelines.pate_asq", None),
        (
            pipelines,
            "train_committee",
            "learners.train_committee",
            lambda ens: {"teachers": ens.size},
        ),
        (learners, "split_disjoint", "learners.split_disjoint", None),
        (learners, "train_erm", "learners.train_erm", None),
        (pipelines, "train_erm", "learners.train_erm", None),
        (pipelines, "empirical_error", "learners.empirical_error", None),
        (learners.Ensemble, "vote_ones", "learners.Ensemble.vote_ones", None),
        (
            aggregation.GaussianSession,
            "answer",
            "aggregation.GaussianSession.answer",
            None,
        ),
        (
            pipelines,
            "run_active_learning",
            "pipelines.run_active_learning",
            None,
        ),
        (
            pipelines,
            "active_update_version_space",
            "pipelines.active_update_version_space",
            None,
        ),
        (
            pipelines.LinearClassDescriptor,
            "disagreement",
            "pipelines.LinearClassDescriptor.disagreement",
            None,
        ),
        (
            pipelines.LinearClassDescriptor,
            "refit",
            "pipelines.LinearClassDescriptor.refit",
            None,
        ),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every traced name for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, measure in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, measure))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Analysis


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [(s.end - s.start - c) * 1e-9 for s, c in zip(spans, child)]


def check_spans(spans: list[Span]) -> list[str]:
    """Problems with the span tree: a child outside its parent, overlapping
    siblings, or a child whose trial differs from its parent's."""
    problems = []
    last_end: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {i} {s.name} ends before it starts")
        if s.parent < 0:
            continue
        p = spans[s.parent]
        if not (p.start <= s.start and s.end <= p.end):
            problems.append(f"span {i} {s.name} leaves parent {p.name}")
        if s.trial != p.trial:
            problems.append(f"span {i} {s.name} changes trial inside {p.name}")
        if s.start < last_end.get(s.parent, s.start):
            problems.append(f"span {i} {s.name} overlaps a sibling")
        last_end[s.parent] = s.end
    return problems


# wall_ms is whole milliseconds and also covers the trial's rng set-up
WALL_TOLERANCE_S = 0.005
WALL_TOLERANCE_SHARE = 0.02


def check_wall(spans: list[Span], first: int, reports) -> list[str]:
    """Problems where the self times of a traced trial's spans do not add
    up to the wall_ms the program reported for that trial. `reports` are
    the TrialReports of one run_experiment call whose first trial the
    tracer numbered `first`."""
    selfs = self_seconds(spans)
    totals: dict[int, float] = defaultdict(float)
    for s, own in zip(spans, selfs):
        if first <= s.trial < first + len(reports):
            totals[s.trial] += own
    problems = []
    for i, t in enumerate(reports):
        wall = t.wall_ms / 1000.0
        total = totals.get(first + i, 0.0)
        if abs(total - wall) > WALL_TOLERANCE_S + WALL_TOLERANCE_SHARE * wall:
            problems.append(
                f"trial {t.trial}: traced self times add to {total!r} s, "
                f"but wall_ms is {t.wall_ms}"
            )
    return problems


FIT_ROLES = {
    "learners.train_committee": "committee",
    "pipelines.pate_psq": "student",
    "pipelines.LinearClassDescriptor.disagreement": "probe",
}


def fit_role(spans: list[Span], span: Span) -> str:
    """Why a train_erm call happened, from the span that made it."""
    parent = spans[span.parent]
    if parent.name == "pipelines.LinearClassDescriptor.refit":
        # the last refit, made by run_active_learning itself, is the student
        grand = spans[parent.parent]
        return "student" if grand.name == "pipelines.run_active_learning" else "refit"
    return FIT_ROLES.get(parent.name, "other")


def per_trial(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per-trial sums keyed '<layer>.calls', '<layer>.s' and '<layer>.self_s';
    train_erm spans are split by role as 'learners.train_erm.<role>'."""
    selfs = self_seconds(spans)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, selfs):
        if s.trial < 0:
            continue
        key = s.name
        if key == "learners.train_erm":
            key = f"{key}.{fit_role(spans, s)}"
        row = out[s.trial]
        row[f"{key}.calls"] += 1
        row[f"{key}.s"] += s.seconds
        row[f"{key}.self_s"] += own
        for attr, value in s.attrs.items():
            row[f"{key}.{attr}"] += value
    return out


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0

#!/usr/bin/env python3
"""privote benchmark: one teacher-student round per trial, end to end.

    python3 perfbench/run.py --workload psq-a9a --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Per workload the run generates a seeded LIBSVM-shaped data set, writes it
with ``harness.write_libsvm``, parses it once to check the round trip, then
calls ``harness.run_experiment`` on the file, repeat after repeat, until the
time given by --seconds is spent. Every repeat uses its own master seed (see
workloads.py), so no two repeats or benchmark seeds share a trial seed.

--trace 0 reports the end-to-end metrics from untraced calls. Set-up time
is taken from every call: the call's wall time minus its trials' wall_ms,
which leaves the parse. A fixed reference kernel runs in every gap between
calls, and the times are reported at its nominal speed, which takes out
the host's CPU-speed drift (see ReferenceKernel). Accuracy and eps_spent
cover repeats 0..ACCURACY_REPEATS-1 only, which always run, so they depend
on the seed and not on how many repeats fit in the time. --trace 1 runs each repeat twice,
untraced and traced with the same seed (the order alternates by repeat),
checks the two trial CSVs are byte-identical with wall_ms zeroed, and
reports per-layer metrics from the traced call, plus span coverage and
the tracing overhead (traced minus untraced trial time).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 only when every output check passed. Spans and a full report
are written under .perfbench_out/ at the end of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# repeats that --trace 0 always runs; accuracy and eps_spent cover these
ACCURACY_REPEATS = 8
# eps_ex_post may exceed epsilon by float rounding only (a few ulps)
EPS_RTOL = 1e-12
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    """One BLAS/OpenMP thread (never more than nproc); must precede numpy."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


class ReferenceKernel:
    """A fixed gradient-descent loop of the benchmark's own, timed in every
    gap between run_experiment calls.

    On a shared VM the CPU speed can drift by up to 2x over seconds to
    minutes (seen on a 2-vCPU x86 VM), which wall times alone cannot tell
    apart from a code change. So the
    end-to-end times are drift-corrected: a span's wall seconds times
    NOMINAL_S / (the kernel's time interpolated to the span's midpoint).
    The raw wall medians are printed beside them. The kernel is not privote
    code, so a change to privote cannot move it.
    """

    PASSES = 5  # passes per gap; the gap's time is their median
    NOMINAL_S = 0.025  # about one pass on a calm 2-vCPU x86 VM (Xeon, 2.0 GHz)

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(12345)
        # committee-sized (100 x 123) and pool-sized (2000 x 128) fits
        self.loops = (
            (sp.random(100, 123, density=0.11, format="csr", random_state=rng), 400),
            (sp.random(2000, 128, density=0.11, format="csr", random_state=rng), 100),
        )
        self.gaps: list[float] = []

    def _pass(self) -> float:
        import numpy as np
        from scipy.special import expit

        started = time.perf_counter()
        for X, steps in self.loops:
            w = np.zeros(X.shape[1])
            for _ in range(steps):
                w -= 0.01 * (X.T @ expit(-(X @ w)))
        return time.perf_counter() - started

    def gap(self) -> None:
        self.gaps.append(statistics.median(self._pass() for _ in range(self.PASSES)))

    def corrected(self, seconds: float, gap: int, at: float) -> float:
        """`seconds` measured between gaps `gap` and `gap + 1`, at share `at`
        of the way from the first to the second, at nominal kernel speed."""
        ref = (1.0 - at) * self.gaps[gap] + at * self.gaps[gap + 1]
        return seconds * self.NOMINAL_S / ref

    def summary(self) -> str:
        s = self.gaps
        return (
            f"median {statistics.median(s)!r} s, min {min(s)!r}, max {max(s)!r} "
            f"over {len(s)} gaps of {self.PASSES} passes; nominal {self.NOMINAL_S} s"
        )


def tail_note(values) -> str:
    """Sample count, plus the highest percentile with >= 10 samples beyond."""
    import numpy as np

    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return f"n={n} p{p:g}={float(np.percentile(values, p)):.6g}"
    return f"n={n} (too few samples for a tail percentile)"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def csv_zeroed(harness, trials) -> str:
    """Trial CSV with the wall-clock column zeroed."""
    return harness.render_trial_csv(
        [dataclasses.replace(t, wall_ms=0) for t in trials]
    )


def trial_problems(t, sizes: dict) -> list[str]:
    problems = []
    if not t.eps_ex_post <= t.epsilon * (1.0 + EPS_RTOL):
        problems.append(f"eps_ex_post {t.eps_ex_post!r} > epsilon {t.epsilon!r}")
    if t.queries > sizes["query_budget"]:
        problems.append(
            f"queries {t.queries} > query budget {sizes['query_budget']}"
        )
    if not (math.isfinite(t.accuracy) and 0.0 <= t.accuracy <= 1.0):
        problems.append(f"accuracy {t.accuracy!r} is not a finite share")
    return problems


class Run:
    """State of one workload run: data, calls made, failures seen."""

    def __init__(self, wl, seed: int, seconds: float, trace: bool) -> None:
        import workloads
        from privote import harness

        self.harness = harness
        self.wl = wl
        self.trials = workloads.TRIALS
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.plain: list = []  # untraced trial reports
        self.fixed: list = []  # those of repeats below ACCURACY_REPEATS
        self.traced: list = []
        # per untraced call: (gap before it, call seconds, trial seconds)
        self.timed: list[tuple[int, float, list[float]]] = []
        self.csv_digest = None
        self.tracer = None
        self.kernel = ReferenceKernel()

    # -- set-up ------------------------------------------------------------

    def setup(self, workdir: Path) -> dict:
        import numpy as np

        import workloads
        from privote.learners import Dataset

        X, y = self.wl.generate(workloads.data_rng(self.seed, self.wl.name))
        # relative to ROOT (the working directory), so the dataset column of
        # the trial CSV, and with it the digest, is the same in every checkout
        self.path = (workdir / f"{self.wl.name}.libsvm").relative_to(ROOT)
        self.harness.write_libsvm(Dataset(X, y), self.path)
        parsed = self.harness.parse_libsvm(self.path)
        d = parsed.n_features
        if (
            X[:, d:].nnz
            or (parsed.X != X[:, :d]).nnz
            or not np.array_equal(parsed.y, y)
        ):
            self.errors.append("parse_libsvm does not reproduce the written data")
        props = workloads.properties(parsed.X)
        self.sizes = self.wl.sizes(props["n"])
        self.file_mb = self.path.stat().st_size / 1e6
        return {**props, **self.sizes, "file_mb": self.file_mb}

    # -- measurement -------------------------------------------------------

    def config(self, rep: int):
        import workloads

        return self.harness.ExperimentConfig(
            dataset=str(self.path),
            method=self.wl.method,
            epsilon=self.wl.epsilon,
            trials=self.trials,
            seed=workloads.master_seed(self.seed, rep),
            record_timing=True,
        )

    def call(self, rep: int, traced: bool):
        """One run_experiment call; returns its trials, or None if it raised."""
        import tracing
        from tracing import instrument

        guard = instrument(self.tracer) if traced else contextlib.nullcontext()
        first = self.tracer.trials if traced else 0
        self.attempted += self.trials
        started = time.perf_counter()
        try:
            with guard:
                _, trials = self.harness.run_experiment(self.config(rep))
        except Exception:  # a failed call must not stop the run
            traceback.print_exc(file=sys.stderr)
            self.failed += self.trials
            self.errors.append(f"repeat {rep} ({'traced' if traced else 'untraced'}) raised")
            return None
        if traced:
            for problem in tracing.check_wall(self.tracer.spans, first, trials):
                self.failed += 1
                self.errors.append(f"repeat {rep}: {problem}")
        else:
            seconds = time.perf_counter() - started
            self.timed.append(
                (len(self.kernel.gaps) - 1, seconds, [t.wall_ms / 1000.0 for t in trials])
            )
        for t in trials:
            problems = trial_problems(t, self.sizes)
            if problems:
                self.failed += 1
                self.errors.append(f"repeat {rep} trial {t.trial}: {'; '.join(problems)}")
        return trials

    def measure(self) -> None:
        import workloads
        from tracing import Tracer

        if self.trace:
            self.tracer = Tracer()
        started = time.perf_counter()
        repeat_seconds = []
        for rep in range(2**workloads.REP_BITS):
            self.kernel.gap()
            t0 = time.perf_counter()
            # traced first on odd repeats, so the overhead estimate is not
            # biased by always running the traced call second
            traced = None
            if self.trace and rep % 2:
                traced = self.call(rep, traced=True)
            plain = self.call(rep, traced=False)
            if plain is not None:
                self.plain += plain
                if rep < ACCURACY_REPEATS:
                    self.fixed += plain
                if rep == 0:
                    text = csv_zeroed(self.harness, plain)
                    self.csv_digest = hashlib.sha256(text.encode()).hexdigest()
            if self.trace:
                if not rep % 2:
                    traced = self.call(rep, traced=True)
                if traced is not None:
                    self.traced += traced
                    if plain is not None and csv_zeroed(
                        self.harness, plain
                    ) != csv_zeroed(self.harness, traced):
                        self.failed += len(traced)
                        self.errors.append(
                            f"repeat {rep}: traced trial CSV differs from untraced"
                        )
            repeat_seconds.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(repeat_seconds) > self.seconds and (
                self.trace or rep + 1 >= ACCURACY_REPEATS
            ):
                break
        self.kernel.gap()  # closes the last call

    # -- reports -----------------------------------------------------------

    def timings(self) -> tuple[dict, dict]:
        """Raw and drift-corrected seconds of every untraced set-up, trial
        and call; each is corrected at the midpoint of its span in the call."""
        raw = {"setup_s": [], "trial_s": [], "experiment_s": []}
        corrected = {key: [] for key in raw}

        def add(key, seconds, gap, start, call_s):
            raw[key].append(seconds)
            at = (start + seconds / 2.0) / call_s
            corrected[key].append(self.kernel.corrected(seconds, gap, at))

        for gap, call_s, trial_s in self.timed:
            setup = call_s - sum(trial_s)  # the parse, plus a little glue
            add("setup_s", setup, gap, 0.0, call_s)
            start = setup
            for seconds in trial_s:
                add("trial_s", seconds, gap, start, call_s)
                start += seconds
            add("experiment_s", call_s, gap, 0.0, call_s)
        return raw, corrected

    def end_to_end(self) -> tuple[dict, list[str]]:
        raw, corrected = self.timings()
        metrics = {
            **{
                key: metric(statistics.median(values), "s")
                for key, values in corrected.items()
            },
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "accuracy": metric(
                statistics.fmean(t.accuracy for t in self.fixed), "share"
            ),
            "eps_spent": metric(
                statistics.fmean(t.eps_ex_post for t in self.fixed), "eps"
            ),
        }
        drift = {
            key: f"drift-corrected median, {tail_note(corrected[key])}" for key in raw
        }
        notes = {
            "setup_s": f"per call: call time minus its trials' wall_ms; {drift['setup_s']}",
            "trial_s": f"per trial (wall_ms); {drift['trial_s']}",
            "experiment_s": (
                f"per call of {self.trials} trial(s); {drift['experiment_s']}"
            ),
            "peak_rss_mb": "peak resident memory of this process",
            "accuracy": (
                f"mean student test accuracy over the {len(self.fixed)} trials "
                f"of repeats 0-{ACCURACY_REPEATS - 1}"
            ),
            "eps_spent": (
                f"mean eps_ex_post over the {len(self.fixed)} trials "
                f"of repeats 0-{ACCURACY_REPEATS - 1}"
            ),
        }
        lines = [
            f"{self.wl.name} {k} {v['value']!r} {v['unit']}  [{notes[k]}]"
            for k, v in metrics.items()
        ]
        raw_medians = {key: statistics.median(values) for key, values in raw.items()}
        lines.append(
            f"# {self.wl.name} raw_wall_median_s {json.dumps(raw_medians)} "
            "(not drift-corrected)"
        )
        ratio = self.failed / self.attempted
        lines.append(
            f"{self.wl.name} trial_fail_ratio {ratio!r} ratio  "
            f"[{self.failed} of {self.attempted} trials raised or failed a check]"
        )
        return metrics, lines

    def per_layer(self) -> tuple[dict, list[str], dict]:
        import tracing
        from tracing import median

        spans = self.tracer.spans
        rows = tracing.per_trial(spans)
        # counts come from repeat 0, whose seeds are fixed, so they repeat
        # exactly; timings are medians over every traced trial
        first = [rows[i] for i in range(self.trials) if i in rows] or [{}]
        every = list(rows.values())

        def count(key):
            return statistics.fmean(r.get(key, 0.0) for r in first)

        def seconds(*keys):
            return median(sum(r.get(k, 0.0) for k in keys) for r in every)

        def per(num, den):
            return median(r.get(num, 0.0) / r[den] for r in every if r.get(den))

        root = tracing.TRIAL_SPAN
        erm = "learners.train_erm"
        dis = "pipelines.LinearClassDescriptor.disagreement"
        refit = "pipelines.LinearClassDescriptor.refit"
        answer = "aggregation.GaussianSession.answer"
        parse = median(s.seconds for s in spans if s.name == "harness.parse_libsvm")
        plain_s = median(t.wall_ms / 1000.0 for t in self.plain)
        traced_s = median(t.wall_ms / 1000.0 for t in self.traced)
        dis_calls = count(f"{dis}.calls")
        values = {
            ("harness.parse_libsvm.s", "s"): parse,
            ("harness.parse_libsvm.mb_per_s", "MB/s"): self.file_mb / parse,
            ("harness.split_protocol.s", "s"): seconds("harness.split_protocol.s"),
            ("learners.train_committee.s", "s"): seconds("learners.train_committee.s"),
            ("learners.train_committee.teachers", "count"): count(
                "learners.train_committee.teachers"
            ),
            (f"{erm}.committee.calls", "count"): count(f"{erm}.committee.calls"),
            (f"{erm}.committee.s_per_fit", "s"): per(
                f"{erm}.committee.s", f"{erm}.committee.calls"
            ),
            (f"{erm}.student.s", "s"): seconds(f"{erm}.student.s"),
            ("learners.Ensemble.vote_ones.s", "s"): seconds("learners.Ensemble.vote_ones.s"),
            (f"{dis}.calls", "count"): dis_calls,
            (f"{dis}.s", "s"): seconds(f"{dis}.s"),
            (f"{dis}.self_s", "s"): seconds(f"{dis}.self_s"),
            ("pipelines.disagreement.query_ratio", "ratio"): (
                count(f"{answer}.calls") / dis_calls if dis_calls else 0.0
            ),
            (f"{erm}.probe.calls", "count"): count(f"{erm}.probe.calls"),
            (f"{erm}.probe.s", "s"): seconds(f"{erm}.probe.s"),
            (f"{refit}.calls", "count"): count(f"{refit}.calls"),
            (f"{refit}.s", "s"): seconds(f"{refit}.s"),
            (f"{answer}.calls", "count"): count(f"{answer}.calls"),
            (f"{answer}.us_per_call", "us"): 1e6 * per(f"{answer}.s", f"{answer}.calls"),
            ("learners.empirical_error.s", "s"): seconds("learners.empirical_error.s"),
            ("pipelines.pate.self_s", "s"): seconds(
                "pipelines.pate_psq.self_s", "pipelines.pate_asq.self_s"
            ),
            (f"{root}.s", "s"): seconds(f"{root}.s"),
            ("trace.span_coverage", "share"): 1.0 - per(f"{root}.self_s", f"{root}.s"),
            ("trace.overhead_s", "s"): traced_s - plain_s,
        }
        metrics = {name: metric(v, unit) for (name, unit), v in values.items()}

        # every layer, with its share of the trial
        layers = sorted({k[: -len(".calls")] for r in every for k in r if k.endswith(".calls")})
        table = {
            key: {
                "calls": count(f"{key}.calls"),
                "s": seconds(f"{key}.s"),
                "self_s": seconds(f"{key}.self_s"),
                "share": per(f"{key}.s", f"{root}.s"),
            }
            for key in layers
        }
        lines = [f"{self.wl.name} layer <name> calls/trial s/trial self_s/trial share"]
        lines += [
            f"{self.wl.name} layer {key} {e['calls']:.6g} {e['s']:.6g} "
            f"{e['self_s']:.6g} {e['share']:.4f}"
            for key, e in table.items()
        ]
        lines += [
            f"{self.wl.name} {k} {v['value']!r} {v['unit']}" for k, v in metrics.items()
        ]
        lines.append(
            f"{self.wl.name} trace untraced trial_s {plain_s!r} s, traced {traced_s!r} s "
            f"({len(self.plain)} and {len(self.traced)} trials)"
        )
        return metrics, lines, table


def run_one(args) -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import privote
    except ImportError as exc:
        print(f"perfbench: cannot import privote from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(privote.__file__).resolve().is_relative_to(src):
        print(f"perfbench: privote comes from {privote.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    os.chdir(ROOT)
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    run = Run(wl, args.seed, args.seconds, bool(args.trace))
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        props = run.setup(workdir)
        print(f"# workload {wl.name} {json.dumps(props, sort_keys=True)}")
        run.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# {wl.name} csv_sha256 {run.csv_digest} (repeat 0, wall_ms zeroed)")
    print(f"# reference_kernel_s {run.kernel.summary()}")

    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace}
    metrics = {}
    if run.trace:
        import tracing

        run.errors += tracing.check_spans(run.tracer.spans)[:10]
        if run.traced:
            metrics, lines, report["layers"] = run.per_layer()
            print("\n".join(lines))
        _write_spans(run, wl.name, args.seed)
    elif run.fixed:
        metrics, lines = run.end_to_end()
        print("\n".join(lines))
    for error in run.errors:
        print(f"# FAILED {wl.name}: {error}", file=sys.stderr)
    correct = not run.errors and bool(run.fixed)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    report.update(result, errors=run.errors, csv_sha256=run.csv_digest)
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


def _write_spans(run: Run, name: str, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(run.tracer.spans):
            fh.write(
                json.dumps(
                    {
                        "id": i,
                        "name": s.name,
                        "parent": s.parent,
                        "trial": s.trial,
                        "start_ns": s.start,
                        "end_ns": s.end,
                        **s.attrs,
                    }
                )
                + "\n"
            )


def run_all(args, names) -> int:
    """Every workload, each in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
            print("\n".join(lines[:-1]))
        except json.JSONDecodeError:
            print(proc.stdout, end="")
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    if combined["attempted"] == 0:
        return status or 1
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # leave the checkout as it was
    pin_threads()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*workloads.WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**workloads.SEED_BITS:
        parser.error(f"--seed must lie in [0, 2**{workloads.SEED_BITS})")
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: calibrate (noise scales and committee sizes for a budget),
psq / asq (experiment protocol on a dataset or generator, one
ExperimentConfig per run: its setting flags are `_FLAG_FIELDS`, and
--config sets any field), rates (ERM excess-risk rates on the threshold
family), margins (vote-margin histograms), examples (the two voting
fixtures). Everything honoring --seed is byte-deterministic across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .dp_core import (
    PrivacyBudget,
    calibrate_gaussian_sigma,
    calibrate_svt_lambda,
    make_rng,
    svt_threshold_w,
)
from .harness import (
    ExperimentConfig,
    _GENERATORS,
    _load_source,
    emit_report,
    render_report,
    run_experiment,
)
from .learners import margin_distribution_report
from .pipelines import compute_k_for_gaussian, compute_svt_params
from .synthdata import TncGenerator, VotingFailsFixture, gen_voting_wins

_CONFIG_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
# the ExperimentConfig fields that psq and asq also take as flags, each
# typed as its field, and winning over the --config file's value
_FLAG_FIELDS = ("dataset", "method", "epsilon", "delta", "trials", "seed")
_FLAG_TYPES = {"str": str, "int": int, "float": float}

# the generator flags of `privote margins`, with their defaults
_MARGIN_DEFAULTS = {"n": 2000, **_GENERATORS["massart"][1], "tau": 0.5, "xi": 0.1}
# the flags each distribution reads; realizable and massart read --n and
# their generator parameters, and a LIBSVM file reads none
_MARGIN_FLAGS = {"tnc": ("tau",), "voting_fails": (), "voting_wins": ("xi",)}


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"))


def _add_experiment(sub: argparse.ArgumentParser) -> None:
    for name in _FLAG_FIELDS:
        kind = _FLAG_TYPES[_CONFIG_TYPES[name].split(" | ")[0]]
        sub.add_argument(f"--{name}", type=kind, help=f"ExperimentConfig.{name}")
    _add_output(sub)
    sub.add_argument("--config", help="JSON file mirroring ExperimentConfig")
    sub.add_argument(
        "--timing",
        action="store_true",
        help="record wall-clock times (breaks byte determinism)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privote",
        description="Private teacher-committee labeling experiments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    cal = subs.add_parser(
        "calibrate", help="print noise scales and committee sizes for a budget"
    )
    cal.add_argument("--epsilon", type=float, default=1.0)
    cal.add_argument("--delta", type=float, default=1e-5)
    cal.add_argument("--ell", type=int, default=100, help="query count")
    cal.add_argument("--cutoff", type=int, help="unstable cutoff T")
    cal.add_argument(
        "--teacher-n", type=int, default=100, help="per-teacher sample size"
    )
    cal.add_argument("--out")
    cal.set_defaults(func=cmd_calibrate)

    psq = subs.add_parser("psq", help="passive pipeline experiment")
    _add_experiment(psq)
    psq.set_defaults(
        func=cmd_experiment,
        default_method="PsqGaussian",
        allowed={"PsqGaussian", "PsqSvt", "PsqNoPrivacy"},
    )

    asq = subs.add_parser("asq", help="active pipeline experiment")
    _add_experiment(asq)
    asq.set_defaults(
        func=cmd_experiment,
        default_method="Asq",
        allowed={"Asq", "AsqNoPrivacy"},
    )

    rat = subs.add_parser(
        "rates", help="ERM excess-risk rates for the threshold family"
    )
    rat.add_argument("--tau", type=float, help="noise exponent (default: 1.0, 0.5)")
    rat.add_argument("--c", type=float, default=0.5, help="margin constant")
    rat.add_argument("--reps", type=int, default=20)
    rat.add_argument("--seed", type=int, default=0)
    rat.add_argument("--out")
    rat.set_defaults(func=cmd_rates)

    mar = subs.add_parser("margins", help="per-probe vote-margin estimates")
    mar.add_argument("--dataset", help="LIBSVM file or source name")
    mar.add_argument("--seed", type=int)
    _add_output(mar)
    mar.add_argument("--teachers", type=int, default=10, help="committee size")
    mar.add_argument("--probes", type=int, default=200)
    mar.add_argument("--reps", type=int, default=30)
    mar.add_argument("--n-per-teacher", type=int, default=100)
    for flag, default in _MARGIN_DEFAULTS.items():
        mar.add_argument(
            f"--{flag}",
            type=type(default),
            help=f"default {default}; only for the sources that read it",
        )
    mar.set_defaults(
        func=cmd_margins, dataset="realizable", seed=0, usage_error=mar.error
    )

    exa = subs.add_parser("examples", help="the voting-fails and voting-wins fixtures")
    exa.add_argument("--seed", type=int, default=0)
    exa.add_argument("--reps", type=int, default=50)
    exa.add_argument("--xi", type=float, default=0.1)
    exa.add_argument("--domain", type=int, default=10000)
    exa.add_argument("--out")
    exa.set_defaults(func=cmd_examples)

    return parser


def _write_lines(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def cmd_calibrate(args) -> int:
    budget = PrivacyBudget(args.epsilon, args.delta)
    sigma = calibrate_gaussian_sigma(args.ell, budget)
    lines = [
        f"epsilon={budget.epsilon!r}",
        f"delta={budget.delta!r}",
        f"ell={args.ell}",
        f"sigma={sigma!r}",
        f"k_gaussian={compute_k_for_gaussian(args.ell, budget, args.teacher_n)}",
    ]
    if args.cutoff is not None:
        lam = calibrate_svt_lambda(args.cutoff, budget)
        w = svt_threshold_w(lam, args.ell, args.cutoff, budget.delta)
        T, K = compute_svt_params(args.ell, 0.0, 0.05, budget)
        lines += [
            f"cutoff={args.cutoff}",
            f"lambda={lam!r}",
            f"threshold_w={w!r}",
            f"suggested_T={T}",
            f"k_svt={K}",
        ]
    _write_lines(lines, args.out)
    return 0


def _build_config(args) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config} does not hold a JSON object")
        unknown = set(data) - set(_CONFIG_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if args.timing:
        data["record_timing"] = True
    for name in _FLAG_FIELDS:
        if getattr(args, name) is not None:
            data[name] = getattr(args, name)
    data.setdefault("method", args.default_method)
    if "fractions" in data:
        data["fractions"] = tuple(data["fractions"])
    if "dataset" not in data:
        raise ValueError("--dataset (or a config file naming one) is required")
    config = ExperimentConfig(**data)
    if config.method not in args.allowed:
        raise ValueError(
            f"method {config.method} is not valid here; "
            f"choose from {sorted(args.allowed)}"
        )
    return config


def _summary_line(summary) -> str:
    return (
        f"{summary.method} on {summary.dataset}: "
        f"accuracy {summary.mean_accuracy:.4f} ± {summary.accuracy_halfwidth:.4f}, "
        f"queries {summary.mean_queries:.1f} ± {summary.queries_halfwidth:.1f} "
        f"({summary.trials} trials)"
    )


def _emit_rows(rows, args) -> None:
    fmt = args.format or "csv"
    if args.out:
        emit_report(rows, fmt, args.out)
    else:
        sys.stdout.write(render_report(rows, fmt))


def cmd_experiment(args) -> int:
    config = _build_config(args)
    summary, trials = run_experiment(config)
    _emit_rows(trials, args)
    print(_summary_line(summary), file=sys.stderr)
    return 0


def cmd_rates(args) -> int:
    taus = [args.tau] if args.tau is not None else [1.0, 0.5]
    ns = [2**k for k in range(7, 14)]
    rng = make_rng(args.seed)
    rows = []
    for tau in taus:
        gen = TncGenerator(tau, args.c)
        means = []
        for n in ns:
            excess = [
                gen.excess_error(gen.fit_threshold(*gen.sample_xy(n, rng)))
                for _ in range(args.reps)
            ]
            means.append(float(np.mean(excess)))
            rows.append(f"{tau!r},{n},{means[-1]!r}")
        slope = np.polyfit(np.log(ns), np.log(means), 1)[0]
        print(f"tau={tau}: log-log excess-risk slope {slope:.3f}", file=sys.stderr)
    _write_lines(["tau,n,mean_excess"] + rows, args.out)
    return 0


def cmd_margins(args) -> int:
    name = args.dataset
    if name in _MARGIN_FLAGS:
        reads = _MARGIN_FLAGS[name]
    else:
        reads = ("n", *_GENERATORS[name][1]) if name in _GENERATORS else ()
    given = {f: getattr(args, f) for f in _MARGIN_DEFAULTS}
    given = {f: v for f, v in given.items() if v is not None}
    ignored = [f"--{f}" for f in given if f not in reads]
    if ignored:
        args.usage_error(f"source {name!r} does not read {', '.join(ignored)}")
    value = {**_MARGIN_DEFAULTS, **given}
    rng = make_rng(args.seed)
    if name == "tnc":
        source = TncGenerator(value["tau"])
    elif name == "voting_fails":
        source = VotingFailsFixture()
    elif name == "voting_wins":
        source = gen_voting_wins(value["xi"], 1000, rng)
    else:
        params = {f: v for f, v in given.items() if f != "n"}
        source = _load_source(name, value["n"], params)(rng)
    rows = margin_distribution_report(
        source,
        args.teachers,
        args.probes,
        args.reps,
        rng,
        n_per_teacher=args.n_per_teacher,
    )
    _emit_rows(rows, args)
    return 0


def cmd_examples(args) -> int:
    rng = make_rng(args.seed)
    fx = VotingFailsFixture()
    lines = ["[voting fails]"]
    for i in range(3):
        lines.append(f"member {i + 1} error: {fx.member_error(i)!r}")
    lines.append(f"exact majority labels: {fx.exact_majority().tolist()}")
    lines.append(f"exact majority error: {fx.majority_error()!r}")
    mc = fx.aggregate_error_mc(999, 100, args.reps, rng)
    lines.append(f"monte-carlo K=999 aggregate error: {mc!r}")

    lines.append("[voting wins]")
    vw = gen_voting_wins(args.xi, args.domain, rng)
    for K in (50, 100, 200):
        err = vw.aggregate_error(K, rng)
        bound = math.exp(-2.0 * K * args.xi**2)
        lines.append(
            f"K={K}: aggregate error {err!r} (chernoff bound {bound!r})"
        )
    _write_lines(lines, args.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # argparse handles its own usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

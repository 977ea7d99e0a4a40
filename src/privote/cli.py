"""Command-line front end to the labeler and its data sources.

Subcommands: calibrate (noise scales and committee sizes for a budget),
psq / asq (experiment protocol on a dataset or generator, one
ExperimentConfig per run: its setting flags are `_FLAG_FIELDS`, and
--config sets any field), margins (per-probe vote margins of committees
trained on a dataset or generator sample). Everything honoring --seed is
byte-deterministic across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .dp_core import (
    PrivacyBudget,
    calibrate_gaussian_sigma,
    calibrate_svt,
    make_rng,
)
from .harness import (
    METHODS,
    ExperimentConfig,
    _GENERATORS,
    _load_source,
    emit_report,
    render_report,
    run_experiment,
)
from .learners import margin_distribution_report
from .pipelines import (
    _svt_committee_size,
    compute_k_for_gaussian,
    compute_svt_params,
)

_CONFIG_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
# the ExperimentConfig fields that psq and asq also take as flags, each
# typed as its field, and winning over the --config file's value
_FLAG_FIELDS = ("dataset", "method", "epsilon", "delta", "trials", "seed")
_FLAG_TYPES = {"str": str, "int": int, "float": float}

# the generator flags of `privote margins`: every generator parameter,
# typed as its default, but the sample size n 2000 by default, not psq's
# and asq's 4000; a generator reads its own parameters, and a LIBSVM
# file none
_MARGIN_PARAMS = {
    name: value for _, params in _GENERATORS.values() for name, value in params.items()
} | {"n": 2000}


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

    for command, kind in (("psq", "passive"), ("asq", "active")):
        sub = subs.add_parser(command, help=f"{kind} pipeline experiment")
        _add_experiment(sub)
        # the pipeline's methods, its default first
        methods = [m for m, (pipeline, _) in METHODS.items() if pipeline == command]
        sub.set_defaults(func=cmd_experiment, methods=methods)

    mar = subs.add_parser("margins", help="per-probe vote-margin estimates")
    mar.add_argument("--dataset", help="LIBSVM file or generator name")
    mar.add_argument("--seed", type=int)
    _add_output(mar)
    mar.add_argument("--teachers", type=int, default=10, help="committee size")
    mar.add_argument("--probes", type=int, default=200)
    mar.add_argument("--reps", type=int, default=30)
    for flag, default in _MARGIN_PARAMS.items():
        mar.add_argument(
            f"--{flag}",
            type=type(default),
            help=f"default {default}; only for the generators that read it",
        )
    mar.set_defaults(
        func=cmd_margins, dataset="realizable", seed=0, usage_error=mar.error
    )

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
        lam, w = calibrate_svt(args.ell, args.cutoff, budget)
        lines += [
            f"cutoff={args.cutoff}",
            f"lambda={lam!r}",
            f"threshold_w={w!r}",
            f"suggested_T={compute_svt_params(args.ell, budget)[0]}",
            f"k_svt={_svt_committee_size(args.ell, args.cutoff, budget)}",
        ]
    _write_lines(lines, args.out)
    return 0


def _build_config(args) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"config file {args.config}: {exc}") from exc
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
    data.setdefault("method", args.methods[0])
    if "dataset" not in data:
        raise ValueError("--dataset (or a config file naming one) is required")
    config = ExperimentConfig(**data)
    if config.method not in args.methods:
        raise ValueError(
            f"method {config.method} is not valid here; "
            f"choose from {sorted(args.methods)}"
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


def cmd_margins(args) -> int:
    name = args.dataset
    reads = _GENERATORS[name][1] if name in _GENERATORS else {}
    given = {f: getattr(args, f) for f in _MARGIN_PARAMS}
    given = {f: v for f, v in given.items() if v is not None}
    ignored = [f"--{f}" for f in given if f not in reads]
    if ignored:
        args.usage_error(f"source {name!r} does not read {', '.join(ignored)}")
    if reads:
        given.setdefault("n", _MARGIN_PARAMS["n"])
    rng = make_rng(args.seed)
    data = _load_source(name, given)(rng)
    rows = margin_distribution_report(
        data, args.teachers, args.probes, args.reps, rng
    )
    _emit_rows(rows, args)
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

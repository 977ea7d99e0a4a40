#!/usr/bin/env python3
"""Accuracy table over the downloaded LIBSVM datasets.

Runs the passive (noisy-majority) and active labeling pipelines at their
benchmark budgets on every dataset found under data/, writing one CSV of
trial rows per pair into the output directory and a summary table to
stdout. Missing datasets are reported and skipped, so this is runnable
at any stage of scripts/fetch_datasets.sh.
"""

import argparse
import sys
from pathlib import Path

from privote import ExperimentConfig, emit_report, run_experiment

REPO = Path(__file__).resolve().parent.parent

# (dataset, method, epsilon) per the benchmark protocol
RUNS = [
    ("mushrooms", "PsqGaussian", 2.0),
    ("mushrooms", "Asq", 1.0),
    ("a9a", "PsqGaussian", 2.0),
    ("a9a", "Asq", 2.0),
    ("real-sim", "PsqGaussian", 2.0),
    ("real-sim", "Asq", 1.0),
]


def find_dataset(name: str) -> Path | None:
    for suffix in ("", ".bz2", ".gz"):
        candidate = REPO / "data" / f"{name}{suffix}"
        if candidate.exists():
            return candidate
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out-dir", type=Path, default=REPO / "results")
    parser.add_argument("--timing", action="store_true")
    args = parser.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: find_dataset(name) for name, _, _ in RUNS}
    for name, path in paths.items():
        if path is None:
            print(
                f"# data/{name} not found, skipping (see docs/datasets.md)",
                file=sys.stderr,
            )
    print("dataset,method,epsilon,mean_accuracy,halfwidth,mean_queries")
    for name, method, epsilon in RUNS:
        path = paths[name]
        if path is None:
            continue
        config = ExperimentConfig(
            dataset=str(path),
            method=method,
            epsilon=epsilon,
            trials=args.trials,
            seed=args.seed,
            record_timing=args.timing,
        )
        summary, trials = run_experiment(config)
        out = args.out_dir / f"{name}_{method}_eps{epsilon}.csv"
        emit_report(trials, "csv", out)
        print(
            f"{name},{method},{epsilon!r},{summary.mean_accuracy!r},"
            f"{summary.accuracy_halfwidth!r},{summary.mean_queries!r}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

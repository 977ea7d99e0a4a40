#!/usr/bin/env python3
"""Privacy-utility frontier: accuracy as the budget tightens.

Sweeps epsilon over a grid for one dataset (file path or generator name)
and both labeling pipelines, printing one summary row per point. Useful
for eyeballing where the noisy-majority margins stop clearing the noise.
"""

import argparse
import sys

from privote import ExperimentConfig, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="realizable")
    parser.add_argument(
        "--epsilons", type=float, nargs="+",
        default=[0.5, 1.0, 2.0, 4.0, 8.0],
    )
    parser.add_argument(
        "--methods", nargs="+", default=["PsqGaussian", "Asq"]
    )
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--synth-n", dest="n", type=int,
        help="a generator's sample size (default: the generator's); a file takes none",
    )
    args = parser.parse_args(argv)
    params = {} if args.n is None else {"n": args.n}

    print("dataset,method,epsilon,mean_accuracy,halfwidth,mean_queries")
    for method in args.methods:
        for epsilon in args.epsilons:
            summary, _ = run_experiment(
                ExperimentConfig(
                    dataset=args.dataset,
                    method=method,
                    epsilon=epsilon,
                    trials=args.trials,
                    seed=args.seed,
                    generator_params=params,
                )
            )
            print(
                f"{args.dataset},{method},{epsilon!r},"
                f"{summary.mean_accuracy!r},{summary.accuracy_halfwidth!r},"
                f"{summary.mean_queries!r}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

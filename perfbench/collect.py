#!/usr/bin/env python3
"""Run the benchmark over many seeds and record medians and spreads.

    python3 perfbench/collect.py --seeds 1-10 --seconds 55 --out perfbench/BENCH_seed.json

Each workload (by default those in BENCHMARK.json) runs once per seed
with tracing off, then once with tracing on (the first seed). For every
end-to-end metric the file records the values, their median, quartiles
(statistics.quantiles, n=4) and the quartile spread as a share of the
median; for the traced run it records the per-layer metrics. A later
change compares its own file against this one, workload by workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1]), [ln for ln in lines if ln.startswith("# ")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "values": values,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float, default=55)
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]
    parser.add_argument(
        "--workloads",
        nargs="*",
        default=[w["name"] for w in listed],
        choices=list(workloads.WORKLOADS),
    )
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        context = []
        for seed in args.seeds:
            result, notes = run(name, seed, args.seconds, 0)
            context.append(notes)
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced, _ = run(name, args.seeds[0], args.seconds, 1)
        report["workloads"][name] = {
            "end_to_end": {k: summarize(v) for k, v in values.items()},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "context": context,
        }
        for key, s in report["workloads"][name]["end_to_end"].items():
            print(f"{name} {key} median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

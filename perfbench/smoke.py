#!/usr/bin/env python3
"""Fast self-check of the benchmark at tiny sizes (well under a minute).

    python3 perfbench/smoke.py

For every workload shape it runs a two-trial experiment untraced and twice
traced, then checks that:
- the trial CSVs (wall_ms zeroed) are byte-identical across the three calls;
- every trial passes the benchmark's output checks;
- spans nest: each child lies inside its parent, siblings do not overlap,
  and a child carries its parent's trial;
- the self times of each traced trial's spans add up to the wall_ms that
  privote itself reported for that trial;
- per-layer call counts repeat exactly between the two traced calls;
- psq trials make no disagreement calls, and asq trials make some;
- no two benchmark seeds or repeats share a trial seed.
Exits non-zero, naming each failure, if any check fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

import run

TINY = {
    "psq-a9a": {"n": 2000},
    "asq-mushrooms": {"n": 1500, "prototypes": 300},
    "asq-realsim": {"n": 1000, "d": 3000},
}


def check_seeds(workloads, derive_seed) -> list[str]:
    """Trial seeds of 256 benchmark seeds x 4 repeats x 64 trials are distinct."""
    seen: dict[int, tuple] = {}
    failures = []
    for seed in range(256):
        for rep in range(4):
            master = workloads.master_seed(seed, rep)
            for trial in range(64):
                trial_seed = derive_seed(master, trial)
                other = seen.setdefault(trial_seed, (seed, rep, trial))
                if other != (seed, rep, trial):
                    failures.append(f"trial seed shared by {other} and {(seed, rep, trial)}")
    return failures


def layer_counts(rows) -> dict:
    return {
        trial: {k: v for k, v in row.items() if k.endswith(".calls")}
        for trial, row in rows.items()
    }


def check_workload(name, params, workdir: Path) -> list[str]:
    import tracing
    import workloads
    from privote import ExperimentConfig, harness, run_experiment
    from privote.learners import Dataset

    wl = workloads.WORKLOADS[name]
    X, y = wl.generate(workloads.data_rng(7, name), **params)
    path = workdir / f"{name}.libsvm"
    harness.write_libsvm(Dataset(X, y), path)
    config = ExperimentConfig(
        dataset=str(path),
        method=wl.method,
        epsilon=wl.epsilon,
        trials=2,
        seed=workloads.master_seed(7, 0),
        record_timing=True,
    )
    sizes = wl.sizes(X.shape[0])
    failures = []

    _, plain = run_experiment(config)
    expected = run.csv_zeroed(harness, plain)
    counts = []
    for attempt in range(2):
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            _, traced = run_experiment(config)
        if run.csv_zeroed(harness, traced) != expected:
            failures.append(f"traced call {attempt} changed the trial CSV")
        failures += tracing.check_spans(tracer.spans)
        failures += tracing.check_wall(tracer.spans, 0, traced)
        rows = tracing.per_trial(tracer.spans)
        if sorted(rows) != [0, 1]:
            failures.append(f"traced call {attempt} saw trials {sorted(rows)}")
        for trial, row in rows.items():
            if row["learners.train_erm.committee.calls"] != sizes["K"]:
                failures.append(f"trial {trial}: committee fits differ from K={sizes['K']}")
            active = row.get("pipelines.LinearClassDescriptor.disagreement.calls", 0)
            if (active > 0) != (wl.method == "Asq"):
                failures.append(f"trial {trial}: {active} disagreement calls for {wl.method}")
        counts.append(layer_counts(rows))
    if counts[0] != counts[1]:
        failures.append("call counts differ between two traced runs")
    for t in plain:
        failures += [f"trial {t.trial}: {p}" for p in run.trial_problems(t, sizes)]
    return [f"{name}: {f}" for f in failures]


def main() -> int:
    run.pin_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads
    from privote.dp_core import derive_seed

    failures = check_seeds(workloads, derive_seed)
    workdir = run.OUT / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, params in TINY.items():
            failures += check_workload(name, params, workdir)
            print(f"smoke {name} done", flush=True)
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print("smoke ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

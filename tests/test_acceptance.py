"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single verdict line of the
form ``[criterion N] PASS - detail`` so a plain-text run reads as a
checklist. Tolerances are stated inline next to each assertion.

The real-dataset reproductions (criterion 6) need LIBSVM files under
``data/``; see docs/datasets.md. They skip, loudly, when the files are
absent so the rest of the gate stays runnable offline.
"""

import itertools
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import oracles
from finite import FiniteClassDescriptor, threshold_class
from voting import VotingFailsFixture, gen_voting_wins
from privote import (
    ExperimentConfig,
    PrivacyBudget,
    SvtSession,
    TncGenerator,
    VoteCount,
    calibrate_gaussian_sigma,
    make_rng,
    run_active_learning,
    run_experiment,
)
from privote.dp_core import sample_gaussian, sample_laplace
from privote.pipelines import compute_k_for_gaussian

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _find_dataset(name: str) -> Path | None:
    for suffix in ("", ".bz2", ".gz"):
        candidate = DATA_DIR / f"{name}{suffix}"
        if candidate.exists():
            return candidate
    return None


def _require_dataset(criterion: str, name: str) -> Path:
    path = _find_dataset(name)
    if path is None:
        print(
            f"[criterion {criterion}] SKIP - data/{name} not present; "
            "download per docs/datasets.md"
        )
        pytest.skip(f"data/{name} missing (see docs/datasets.md)")
    return path


# ---------------------------------------------------------------------------
# 1. Noise calibration inverts the composition bound exactly


def test_criterion_1_calibration_round_trip():
    started = time.perf_counter()
    worst = 0.0
    worst_k = 0.0
    for ell, eps, delta in itertools.product(
        (1, 10, 100, 1000), (0.1, 0.5, 1.0, 2.0), (1e-5, 1e-8)
    ):
        budget = PrivacyBudget(eps, delta)
        sigma = calibrate_gaussian_sigma(ell, budget)
        achieved = oracles.gaussian_session_epsilon(sigma, ell, delta)
        worst = max(worst, abs(achieved - eps) / eps)
        for n in (100, 6499):
            k = compute_k_for_gaussian(ell, budget, n)
            closed = 6.0 * sigma * math.sqrt(2.0 * math.log(2.0 * n))
            worst_k = max(worst_k, abs(k - closed))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and worst_k <= 1.0 and elapsed < 1.0
    _verdict(
        "1",
        ok,
        f"32-point grid: max relative residual {worst:.2e} (tol 1e-9), "
        f"committee-size gap {worst_k:.2f} (tol 1, ceil rounding), "
        f"{elapsed:.2f}s (budget 1s)",
    )


# ---------------------------------------------------------------------------
# 2. The three-classifier counterexample: majority voting loses to each member


def test_criterion_2_majority_failure_fixture():
    fixture = VotingFailsFixture()
    exact = fixture.majority_error()
    members = [fixture.member_error(k) for k in range(3)]
    mc = fixture.aggregate_error_mc(999, 100, 200, make_rng(11))
    ok = (
        exact == 0.75
        and members == [0.5, 0.5, 0.5]
        and 0.73 <= mc <= 0.77
    )
    _verdict(
        "2",
        ok,
        f"exact majority error {exact} (want 0.75), member errors {members}, "
        f"999-teacher monte carlo {mc:.4f} (band [0.73, 0.77])",
    )


# ---------------------------------------------------------------------------
# 3. With uniform per-point margin xi the aggregate error decays like
#    exp(-2 K xi^2)


def test_criterion_3_majority_concentration():
    xi, points = 0.1, 10_000
    rng = make_rng(12)
    gen = gen_voting_wins(xi, points, rng)
    rows = []
    ok = True
    for K in (50, 100, 200):
        err = gen.aggregate_error(K, rng)
        bound = math.exp(-2.0 * K * xi**2)
        se = math.sqrt(max(err * (1 - err), bound * (1 - bound)) / points)
        ok &= err <= bound + 3.0 * se
        rows.append(f"K={K}: {err:.4f} <= {bound:.4f}+3*{se:.4f}")
    _verdict("3", ok, "; ".join(rows))


# ---------------------------------------------------------------------------
# 4. Counting bound: if every teacher makes <= B mistakes, at most 3B points
#    can have >= K/3 wrong teachers


def test_criterion_4_pigeonhole_bound():
    started = time.perf_counter()

    # Both sides of the bound (heavy-column count, max row sum) are
    # invariant under column permutation, so enumerating multisets of
    # column types covers every 0/1 matrix exactly once up to that
    # symmetry. 2.8M multisets stand in for 2^30 raw matrices.
    checked = 0
    tight = math.inf
    for K in range(1, 6):
        ntypes = 2**K
        popcnt = np.array(
            [bin(t).count("1") for t in range(ntypes)], dtype=np.int64
        )
        bits = np.array(
            [[(t >> k) & 1 for t in range(ntypes)] for k in range(K)],
            dtype=np.int64,
        )
        for m in range(1, 7):
            count = math.comb(ntypes + m - 1, m)
            cols = np.fromiter(
                itertools.chain.from_iterable(
                    itertools.combinations_with_replacement(range(ntypes), m)
                ),
                dtype=np.int16,
                count=count * m,
            ).reshape(count, m)
            heavy = (3 * popcnt[cols] >= K).sum(axis=1)
            B = np.max(
                np.stack([bits[k][cols].sum(axis=1) for k in range(K)]),
                axis=0,
            )
            assert not np.any(heavy > 3 * B), f"violation at K={K} m={m}"
            checked += count
            tight = min(tight, float(np.min(3 * B - heavy)))

    # randomized matrices at the next sizes up, mixed densities so sparse
    # (small B) cases are actually exercised
    rng = make_rng(4)
    sampled = 0
    for K, m in itertools.product((6, 7), (7, 8)):
        for density in (0.05, 0.15, 0.5):
            mats = (rng.random((40_000, K, m)) < density).astype(np.int64)
            heavy = (3 * mats.sum(axis=1) >= K).sum(axis=1)
            B = mats.sum(axis=2).max(axis=1)
            assert not np.any(heavy > 3 * B), f"violation at K={K} m={m}"
            sampled += len(mats)

    # spot-check the vectorized counting against the direct per-matrix rule
    for _ in range(200):
        mat = (rng.random((5, 6)) < rng.uniform(0.05, 0.6)).astype(int)
        assert not oracles.pigeonhole_violated(mat.tolist())

    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    _verdict(
        "4",
        ok,
        f"exhaustive {checked} column-multiset matrices (K<=5, m<=6) plus "
        f"{sampled} sampled (K<=7, m<=8): zero violations, bound tight "
        f"(min slack {tight:.0f}), {elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# 5. Stable-release session: engineered 1000-query stream finishes and
#    reproduces the exact majority on every high-margin point


def test_criterion_5_svt_session_contract():
    ell, cutoff = 1000, 20
    budget = PrivacyBudget(1.0, 1e-5)
    beta = 0.05
    # committee sized from the cutoff so that margins >= K/3 clear the
    # noisy threshold on all ell queries simultaneously
    K = math.ceil(
        136.0
        * math.log(4.0 * ell * cutoff / min(budget.delta, beta / 2.0))
        * math.sqrt(cutoff * math.log(2.0 / budget.delta))
        / budget.epsilon
    )
    high_ones = math.ceil((K + math.ceil(K / 3.0)) / 2.0)
    low_idx = set(make_rng(0).choice(ell, size=15, replace=False).tolist())

    def ones_at(i: int) -> int:
        if i in low_idx:
            return K // 2  # margin 0 or 1: deliberately unstable
        # alternate majority-1 and majority-0 high-margin points
        return high_ones if i % 2 == 0 else K - high_ones

    clean_trials = 0
    for trial in range(100):
        session = SvtSession.for_budget(ell, cutoff, budget, make_rng(500 + trial))
        clean = True
        try:
            for i in range(ell):
                ones = ones_at(i)
                label = session.answer(VoteCount(ones, K))
                if i not in low_idx:
                    want = 1 if 2 * ones >= K else 0
                    if label != want:  # None (bottom) never equals a label
                        clean = False
        except Exception:
            clean = False  # ran out of cutoff: did not finish the stream
        clean_trials += clean

    few = SvtSession.for_budget(ell, cutoff, budget, make_rng(7))
    many = SvtSession.for_budget(ell, cutoff, budget, make_rng(8))
    for i in range(10):
        few.answer(VoteCount(high_ones, K))
    for i in range(ell):
        many.answer(VoteCount(high_ones, K))
    same_report = few.privacy_report() == many.privacy_report()

    ok = clean_trials >= 95 and same_report
    _verdict(
        "5",
        ok,
        f"K={K}, lambda={few.lam:.1f}, w={few.w:.0f}: {clean_trials}/100 "
        f"trials finished with exact majorities on all 985 stable points "
        f"(need 95); report invariant to 10 vs 1000 answers: {same_report}",
    )


# ---------------------------------------------------------------------------
# 6. Desk-scale reproductions on the real datasets (skip when not downloaded)


def test_criterion_6a_mushroom_psq():
    path = _require_dataset("6a", "mushrooms")
    summary, _ = run_experiment(
        ExperimentConfig(dataset=str(path), method="PsqGaussian", epsilon=2.0,
                         trials=30, seed=1)
    )
    ok = abs(summary.mean_accuracy - 0.8974) <= 0.05
    _verdict(
        "6a",
        ok,
        f"mushrooms noisy-majority labeling at eps=2: mean accuracy "
        f"{summary.mean_accuracy:.4f} (want 0.8974 +- 0.05)",
    )


def test_criterion_6b_mushroom_asq():
    path = _require_dataset("6b", "mushrooms")
    summary, trials = run_experiment(
        ExperimentConfig(dataset=str(path), method="Asq", epsilon=1.0,
                         trials=30, seed=1)
    )
    mean_eps = float(np.mean([t.eps_ex_post for t in trials]))
    ok = (
        abs(summary.mean_accuracy - 0.7727) <= 0.06
        and 38.0 <= summary.mean_queries <= 48.0
        and mean_eps < 1.0
    )
    _verdict(
        "6b",
        ok,
        f"mushrooms active labeling at eps=1: accuracy "
        f"{summary.mean_accuracy:.4f} (want 0.7727 +- 0.06), queries "
        f"{summary.mean_queries:.1f} (band [38, 48]), realized epsilon "
        f"{mean_eps:.3f} (< 1.0)",
    )


def test_criterion_6c_a9a_active_beats_passive():
    path = _require_dataset("6c", "a9a")
    asq, _ = run_experiment(
        ExperimentConfig(dataset=str(path), method="Asq", epsilon=2.0,
                         trials=30, seed=1)
    )
    psq, _ = run_experiment(
        ExperimentConfig(dataset=str(path), method="PsqGaussian", epsilon=2.0,
                         trials=30, seed=1)
    )
    ok = asq.mean_accuracy >= psq.mean_accuracy
    _verdict(
        "6c",
        ok,
        f"a9a at eps=2 over the same 30 master-seeded trials: active "
        f"{asq.mean_accuracy:.4f} >= passive {psq.mean_accuracy:.4f}",
    )


def test_criterion_6d_realsim_optional():
    path = _require_dataset("6d", "real-sim")
    psq, _ = run_experiment(
        ExperimentConfig(dataset=str(path), method="PsqGaussian", epsilon=2.0,
                         trials=30, seed=1)
    )
    asq, _ = run_experiment(
        ExperimentConfig(dataset=str(path), method="Asq", epsilon=1.0,
                         trials=30, seed=1)
    )
    ok = (
        abs(psq.mean_accuracy - 0.8231) <= 0.05
        and abs(asq.mean_accuracy - 0.8025) <= 0.05
    )
    _verdict(
        "6d",
        ok,
        f"real-sim: passive {psq.mean_accuracy:.4f} (want 0.8231 +- 0.05), "
        f"active {asq.mean_accuracy:.4f} (want 0.8025 +- 0.05)",
    )


# ---------------------------------------------------------------------------
# 7. Learning-rate separation across noise regimes: bounded noise trains
#    near 1/n, heavier boundary mass visibly slower


def test_criterion_7_noise_rate_separation():
    rng = make_rng(0)
    ns = [2**k for k in range(7, 14)]
    slopes = {}
    for tau in (1.0, 0.5):
        gen = TncGenerator(tau, 0.5)
        means = []
        for n in ns:
            excess = [
                gen.excess_error(gen.fit_threshold(*gen.sample_xy(n, rng)))
                for _ in range(50)
            ]
            means.append(float(np.mean(excess)))
        slopes[tau] = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
    gap = slopes[0.5] - slopes[1.0]
    ok = -1.2 <= slopes[1.0] <= -0.7 and gap >= 0.15
    _verdict(
        "7",
        ok,
        f"log-log excess-risk slopes: tau=1 {slopes[1.0]:.3f} (band "
        f"[-1.2, -0.7]), tau=0.5 {slopes[0.5]:.3f}, separation {gap:.3f} "
        f"(need >= 0.15)",
    )


# ---------------------------------------------------------------------------
# 8. Disagreement-driven querying matches passive accuracy with a tiny
#    fraction of the labels


def test_criterion_8_label_savings():
    m = 4096
    good = 0
    worst_queries = 0
    worst_gap = 0.0
    for seed in range(100):
        rng = make_rng(10_000 + seed)
        points = rng.random(m)
        cut = rng.uniform(0.1, 0.9)
        labels = (points >= cut).astype(np.int64)
        hclass = threshold_class(points)
        descriptor = FiniteClassDescriptor(hclass, gamma=0.25)
        state = run_active_learning(
            descriptor, range(m), lambda x, i: int(labels[i]), m
        )
        order = np.sort(points)

        def cut_of(member: int) -> float:
            # member k fires iff x is at least the k-th smallest point
            if member == 0:
                return -math.inf
            if member >= m:
                return math.inf
            return float(order[member])

        test_x = rng.random(2048)
        test_y = (test_x >= cut).astype(np.int64)
        passive = int(
            np.argmin(hclass.mistake_counts(list(range(m)), list(labels)))
        )
        err_active = float(
            np.mean((test_x >= cut_of(state.hypothesis)) != test_y)
        )
        err_passive = float(np.mean((test_x >= cut_of(passive)) != test_y))
        gap = abs(err_active - err_passive)
        worst_queries = max(worst_queries, len(state.xs))
        worst_gap = max(worst_gap, gap)
        good += len(state.xs) <= 150 and gap <= 0.02
    ok = good >= 95
    _verdict(
        "8",
        ok,
        f"{good}/100 seeds used <= 150 of {m} labels while matching the "
        f"all-labels fit within 0.02 (need 95); worst: {worst_queries} "
        f"queries, gap {worst_gap:.4f}",
    )


# ---------------------------------------------------------------------------
# 9. Sampler distributions and bit-for-bit CLI reproducibility


def test_criterion_9a_sampler_distributions():
    worst_p = 1.0
    for seed in range(5):
        rng = make_rng(9_000 + seed)
        lap = sample_laplace(3.0, rng, size=4000)
        gau = sample_gaussian(2.0, rng, size=4000)
        p_lap = scipy.stats.kstest(lap, "laplace", args=(0.0, 3.0)).pvalue
        p_gau = scipy.stats.kstest(gau, "norm", args=(0.0, 2.0)).pvalue
        worst_p = min(worst_p, p_lap, p_gau)
    ok = worst_p >= 0.01
    _verdict(
        "9a",
        ok,
        f"KS tests over 5 seeds x 2 samplers: min p-value {worst_p:.3f} "
        f"(alpha 0.01)",
    )


def test_criterion_9b_cli_runs_are_byte_identical(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"generator_params": {"n": 400}}')
    outs = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for out in outs:
        proc = subprocess.run(
            [
                sys.executable, "-m", "privote.cli", "psq",
                "--dataset", "realizable", "--config", str(config),
                "--trials", "2", "--seed", "9", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    same_files = outs[0].read_bytes() == outs[1].read_bytes()

    mixed = Path(__file__).resolve().parent / "data" / "mixed.libsvm.gz"
    margin_runs = [
        subprocess.run(
            [
                sys.executable, "-m", "privote.cli", "margins",
                "--dataset", str(mixed), "--teachers", "3", "--probes", "8",
                "--reps", "2", "--seed", "4",
            ],
            capture_output=True,
        ).stdout
        for _ in range(2)
    ]
    same_stdout = margin_runs[0] == margin_runs[1]
    ok = same_files and same_stdout
    _verdict(
        "9b",
        ok,
        f"seeded reruns byte-identical: experiment CSV {same_files}, "
        f"margin-report stdout {same_stdout}",
    )

"""The scripts under scripts/, run in process."""

import importlib.util
from pathlib import Path

import pytest

from privote import gen_realizable, make_rng, write_libsvm

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_benchmarks_reports_each_missing_dataset_once(tmp_path, monkeypatch, capsys):
    script = _load("run_benchmarks")
    (tmp_path / "data").mkdir()
    write_libsvm(gen_realizable(4, 1000, make_rng(2))[0], tmp_path / "data" / "a9a")
    monkeypatch.setattr(script, "REPO", tmp_path)
    assert script.main(["--trials", "1", "--out-dir", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    skips = [line for line in captured.err.splitlines() if "skipping" in line]
    assert skips == [
        f"# data/{name} not found, skipping (see docs/datasets.md)"
        for name in ("mushrooms", "real-sim")
    ]
    rows = captured.out.splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [
        ["a9a", "PsqGaussian"],
        ["a9a", "Asq"],
    ]


def test_sweep_epsilon_passes_a_sample_size_only_when_given(tmp_path, capsys):
    script = _load("sweep_epsilon")
    path = tmp_path / "d.svm"
    write_libsvm(gen_realizable(4, 400, make_rng(2))[0], path)
    common = ["--epsilons", "2", "--trials", "1", "--methods", "PsqGaussian"]
    # a file reads no sample size, so it runs only without --synth-n
    assert script.main(["--dataset", str(path), *common]) == 0
    assert script.main(["--synth-n", "400", *common]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[:2] for row in rows] == [
        ["dataset", "method"],
        [str(path), "PsqGaussian"],
        ["dataset", "method"],
        ["realizable", "PsqGaussian"],
    ]
    with pytest.raises(ValueError, match=r"\['n'\] are not read"):
        script.main(["--dataset", str(path), "--synth-n", "400", *common])

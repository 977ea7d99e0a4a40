"""The scripts under scripts/, run in process."""

import importlib.util
from pathlib import Path

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

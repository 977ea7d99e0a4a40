"""Command-line entry points, exercised in-process through main(argv)."""

import argparse
import json
from dataclasses import fields
from pathlib import Path

import pytest

from privote import (
    ExperimentConfig,
    PrivacyBudget,
    calibrate_gaussian_sigma,
    gen_massart,
    gen_realizable,
    gen_tnc,
    make_rng,
    margin_distribution_report,
    parse_libsvm,
    write_libsvm,
)
from privote.cli import _FLAG_FIELDS, build_parser, main
from privote.harness import METHODS, render_report
from privote.pipelines import _svt_committee_size


def test_calibrate_prints_sigma_and_k(capsys):
    code = main(
        ["calibrate", "--epsilon", "2", "--delta", "1e-5", "--ell", "163",
         "--teacher-n", "100"]
    )
    assert code == 0
    out = capsys.readouterr().out
    fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
    expected = calibrate_gaussian_sigma(163, PrivacyBudget(2.0, 1e-5))
    assert float(fields["sigma"]) == pytest.approx(expected, rel=1e-12)
    assert fields["ell"] == "163"
    assert int(fields["k_gaussian"]) > 0
    assert "cutoff" not in fields


def test_calibrate_with_cutoff(capsys):
    code = main(
        ["calibrate", "--epsilon", "1", "--delta", "1e-5", "--ell", "1000",
         "--cutoff", "20"]
    )
    assert code == 0
    out = capsys.readouterr().out
    fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert float(fields["lambda"]) > 0
    assert float(fields["threshold_w"]) > 0
    assert int(fields["suggested_T"]) >= 1
    # the committee size for the cutoff given, not for suggested_T
    budget = PrivacyBudget(1.0, 1e-5)
    assert int(fields["k_svt"]) == _svt_committee_size(1000, 20, budget)


def test_calibrate_writes_file(tmp_path):
    out = tmp_path / "cal.txt"
    assert main(["calibrate", "--ell", "10", "--out", str(out)]) == 0
    assert "sigma=" in out.read_text()


def test_psq_runs_to_csv_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    settings = {"generator_params": {"n": 400}, "trials": 2, "epsilon": 4.0}
    cfg.write_text(json.dumps(settings))
    out = tmp_path / "rows.csv"
    argv = [
        "psq", "--dataset", "realizable", "--config", str(cfg),
        "--seed", "3", "--out", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("dataset,method,")
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "PsqGaussian"

    rerun = tmp_path / "rows2.csv"
    assert main(argv[:-1] + [str(rerun)]) == 0
    assert out.read_bytes() == rerun.read_bytes()


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    settings = {"generator_params": {"n": 400}, "trials": 4, "epsilon": 4.0}
    cfg.write_text(json.dumps(settings))
    argv = [
        "psq", "--dataset", "realizable", "--config", str(cfg),
        "--trials", "1", "--format", "json",
    ]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["epsilon"] == 4.0


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # "mystery" never existed; the others are removed fields, and the
    # split and Asq's query share are fixed, so even the old default
    # fractions and query_fraction fail; the sample size is the generator
    # parameter n
    for key, value in [
        ("mystery", 1), ("bot_policy", 1), ("svt_beta", 1), ("gamma", 1),
        ("fractions", 3), ("fractions", [0.8, 0.02, 0.18]),
        ("query_fraction", 0.3), ("query_fraction", 0.5), ("synth_n", 400),
    ]:
        cfg.write_text(json.dumps({"generator_params": {"n": 400}, key: value}))
        code = main(["psq", "--dataset", "realizable", "--config", str(cfg)])
        assert code == 1
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


def test_bad_config_setting_fails_naming_its_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cases = [
        ({"svt_T": 3}, [], "svt_T"),  # the default PsqGaussian takes no cutoff
        ({"svt_T": 0}, ["--method", "PsqSvt"], "svt_T"),
        ({"K": 0}, [], "K"),
        ({"epsilon": -1}, [], "epsilon"),
        ({"delta": 2}, [], "delta"),
        ({"K": 2.5}, [], "K"),  # fails here, not inside trial 0
        ({"record_timing": "no"}, [], "record_timing"),  # not read as true
        # each fails here, not inside trial 0
        ({"generator_params": "d"}, [], "generator_params"),
        ({"generator_params": {"d": 2.5}}, [], "generator_params"),
        ({"generator_params": {"flip": "0.1"}}, ["--dataset", "massart"],
         "generator_params"),
        ({"generator_params": {"n": 9}}, [], "generator_params"),
        ({"delta": 1e-5}, ["--method", "PsqNoPrivacy"], "delta"),
    ]
    for settings, flags, field in cases:
        cfg.write_text(json.dumps({"generator_params": {"n": 400}, **settings}))
        argv = ["psq", "--dataset", "realizable", "--config", str(cfg), *flags]
        assert main(argv) == 1
        assert f"error: {field} " in capsys.readouterr().err


def test_config_that_is_not_a_json_object_fails(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for text in ('["dataset"]', '"x"', "3"):
        cfg.write_text(text)
        code = main(["psq", "--dataset", "realizable", "--config", str(cfg)])
        assert code == 1
        assert f"config file {cfg} does not hold a JSON object" in capsys.readouterr().err
    # text that is not JSON, and bytes that are not UTF-8, name the file too
    for raw, reason in ((b"{", "Expecting property"), (b"\xff", "can't decode")):
        cfg.write_bytes(raw)
        code = main(["psq", "--dataset", "realizable", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: ") and reason in err


def test_psq_rejects_a_parameter_the_generator_ignores(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator_params": {"n": 400, "d": 3}}))
    code = main(["psq", "--dataset", "tnc", "--config", str(cfg)])
    assert code == 1
    assert "['d'] are not read by dataset 'tnc'" in capsys.readouterr().err


def test_psq_rejects_active_method(capsys):
    code = main(["psq", "--dataset", "realizable", "--method", "Asq"])
    assert code == 1
    assert "not valid here" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["psq", "asq"])
def test_each_command_runs_the_methods_of_its_pipeline(tmp_path, capsys, command):
    """A command takes the methods that `METHODS` gives its pipeline,
    the first of them by default, and rejects every other."""
    ours = [m for m, (pipeline, _) in METHODS.items() if pipeline == command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator_params": {"n": 400}, "trials": 1}))
    argv = [command, "--dataset", "realizable", "--config", str(cfg)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[1] == ours[0]
    for method in METHODS:
        if method not in ours:
            assert main([*argv, "--method", method]) == 1
            assert f"choose from {sorted(ours)}" in capsys.readouterr().err


def test_asq_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    settings = {"generator_params": {"n": 400}, "trials": 1, "epsilon": 1.0}
    cfg.write_text(json.dumps(settings))
    code = main(["asq", "--dataset", "realizable", "--config", str(cfg)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("dataset,method,")
    assert "Asq on realizable" in captured.err


def test_missing_dataset_is_an_error(capsys):
    code = main(["psq"])
    assert code == 1
    assert "--dataset" in capsys.readouterr().err


def test_margins_subcommand(capsys):
    code = main(
        ["margins", "--dataset", "tnc", "--probes", "6", "--reps", "2",
         "--teachers", "5", "--n", "300"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "probe_id,delta_hat,delta_hstar"
    assert len(lines) == 7


def test_margins_honors_explicit_zero_flip(capsys):
    base = ["margins", "--dataset", "massart", "--probes", "6", "--reps", "3",
            "--teachers", "5", "--n", "300"]
    outputs = []
    for flip in ("0", "0.1"):
        assert main(base + ["--flip", flip]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]
    assert main(base) == 0  # the default flip rate is 0.1
    assert capsys.readouterr().out == outputs[1]


_MARGIN_FLAGS = ["--probes", "6", "--reps", "2", "--teachers", "3", "--seed", "5"]


def _direct_margins(source_of):
    """The margins CSV from a source built straight from the generator."""
    rng = make_rng(5)
    rows = margin_distribution_report(source_of(rng), 3, 6, 2, rng)
    return render_report(rows, "csv")


def test_margins_dataset_sources_match_their_generators(tmp_path, capsys):
    libsvm = tmp_path / "d.svm"
    write_libsvm(gen_realizable(4, 300, make_rng(8))[0], libsvm)
    cases = [
        (["--dataset", "realizable"], lambda rng: gen_realizable(5, 2000, rng)[0]),
        (["--dataset", "realizable", "--d", "3", "--n", "400"],
         lambda rng: gen_realizable(3, 400, rng)[0]),
        (["--dataset", "massart"], lambda rng: gen_massart(5, 2000, 0.1, rng)[0]),
        (["--dataset", "massart", "--flip", "0", "--n", "400"],
         lambda rng: gen_massart(5, 400, 0.0, rng)[0]),
        # tnc is a sample like the others, at psq's and asq's defaults
        (["--dataset", "tnc"], lambda rng: gen_tnc(1.0, 2000, rng)[0]),
        (["--dataset", "tnc", "--tau", "0.5", "--c", "0.3", "--n", "400"],
         lambda rng: gen_tnc(0.5, 400, rng, c=0.3)[0]),
        (["--dataset", str(libsvm)], lambda rng: parse_libsvm(libsvm)),
    ]
    for flags, source_of in cases:
        assert main(["margins", *flags, *_MARGIN_FLAGS]) == 0
        assert capsys.readouterr().out == _direct_margins(source_of), flags


def test_margins_missing_file_names_the_path(tmp_path, capsys):
    missing = tmp_path / "no-such-file.svm"
    assert main(["margins", "--dataset", str(missing)]) == 1
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("name", ["voting_wins", "voting_fails"])
def test_margins_fails_on_a_source_that_is_no_dataset(capsys, name):
    assert main(["margins", "--dataset", name]) == 1
    err = capsys.readouterr().err
    assert f"dataset {name!r} is neither a readable file nor a generator" in err


@pytest.mark.parametrize("flag, parameter", [("--reps", "reps"), ("--probes", "probe_count")])
def test_margins_rejects_a_zero_count_naming_it(capsys, flag, parameter):
    assert main(["margins", flag, "0", "--n", "300"]) == 1
    assert f"{parameter} must be positive, got 0" in capsys.readouterr().err


def test_margins_rejects_experiment_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["margins", "--epsilon", "1"])
    assert exc.value.code == 2
    assert "--epsilon" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, ignored",
    [
        ("realizable", ["--flip", "0.4", "--tau", "0.9", "--c", "0.3"]),
        ("massart", ["--tau", "0.9"]),
        ("tnc", ["--d", "3", "--flip", "0.2"]),
        # a name that is not a generator is a file path, which reads none
        ("voting_wins", ["--tau", "0.9"]),
        ("voting_fails", ["--d", "3"]),
        ("file", ["--n", "300", "--d", "3"]),
    ],
)
def test_margins_rejects_flags_the_source_ignores(tmp_path, capsys, source, ignored):
    if source == "file":
        source = str(tmp_path / "d.svm")
        write_libsvm(gen_realizable(4, 300, make_rng(8))[0], source)
    with pytest.raises(SystemExit) as exc:
        main(["margins", "--dataset", source, *ignored, *_MARGIN_FLAGS])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert repr(source) in err
    assert all(flag in err for flag in ignored[::2]), err


def test_margins_rejects_zero_dimension(capsys):
    assert main(["margins", "--d", "0"]) == 1
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rates", "examples"])
def test_removed_commands_are_usage_errors(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert f"invalid choice: {command!r}" in capsys.readouterr().err


def _subparser(command: str) -> argparse.ArgumentParser:
    parser = build_parser()
    subs = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return subs.choices[command]


# a value of each setting flag that differs from the config's default
_FLAG_VALUES = {
    "dataset": "massart",
    "epsilon": 3.0,
    "delta": 1e-4,
    "trials": 2,
    "seed": 11,
}


@pytest.mark.parametrize("command", ["psq", "asq"])
def test_setting_flags_are_config_fields_of_their_types(command):
    types = {f.name: f.type.split(" | ")[0] for f in fields(ExperimentConfig)}
    options = {
        action.dest: action
        for action in _subparser(command)._actions
        if action.dest not in ("help", "out", "format", "config", "timing")
    }
    assert set(options) == set(_FLAG_FIELDS)
    for name, action in options.items():
        assert action.option_strings == [f"--{name}"]
        assert action.type.__name__ == types[name], name


@pytest.mark.parametrize(
    "command, method", [("psq", "PsqNoPrivacy"), ("asq", "AsqNoPrivacy")]
)
def test_setting_flags_and_config_keys_agree(tmp_path, capsys, command, method):
    """`--field v` and a config file holding `{"field": v}` print the same
    trial CSV, byte for byte, for every setting flag."""
    base = {"dataset": "realizable", "generator_params": {"n": 400}, "trials": 1}
    cfg = tmp_path / "cfg.json"

    def run(flags, settings):
        cfg.write_text(json.dumps(settings))
        assert main([command, "--config", str(cfg), *flags]) == 0, flags
        return capsys.readouterr().out

    default = run([], base)
    values = {**_FLAG_VALUES, "method": method}
    assert set(values) == set(_FLAG_FIELDS)
    for name, value in values.items():
        by_flag = run([f"--{name}", str(value)], base)
        assert by_flag == run([], {**base, name: value}), name
        assert by_flag != default, name  # the setting was read


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_non_private_json_is_strict(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator_params": {"n": 400}, "trials": 2}))
    argv = [
        "psq", "--dataset", "realizable", "--config", str(cfg),
        "--method", "PsqNoPrivacy", "--format", "json",
    ]
    assert main(argv) == 0
    printed = _strict_json(capsys.readouterr().out)
    out = tmp_path / "rows.json"
    assert main(argv + ["--out", str(out)]) == 0
    written = _strict_json(out.read_text())
    assert printed == written
    assert [row["epsilon"] for row in written] == ["inf", "inf"]
    assert all(row["method"] == "PsqNoPrivacy" for row in written)


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "argv, name",
    [
        ("psq --dataset realizable --trials 2 --seed 7",
         "psq_realizable_trials2_seed7.csv"),
        ("asq --dataset massart --trials 2 --seed 7",
         "asq_massart_trials2_seed7.csv"),
        ("psq --dataset realizable --method PsqSvt --trials 2 --seed 7",
         "psq_svt_realizable_trials2_seed7.csv"),
        ("psq --dataset tests/data/mixed.libsvm.gz --trials 2 --seed 7",
         "psq_mixed_trials2_seed7.csv"),
        ("margins --dataset tests/data/mixed.libsvm.gz --teachers 3 --probes 8 "
         "--reps 2 --seed 4",
         "margins_mixed_teachers3_probes8_reps2_seed4.csv"),
        ("calibrate --epsilon 2 --delta 1e-5 --ell 163 --cutoff 10",
         "calibrate_eps2_delta1e-5_ell163_cutoff10.txt"),
    ],
)
def test_seeded_runs_print_the_committed_csv(capsys, monkeypatch, argv, name):
    """Seeded runs print their committed trial and margin CSVs, and
    `privote calibrate` its committed noise scales, byte for byte.

    The files under tests/data are the output of `privote <argv>`, run
    from the repository root, as a trial's dataset column holds the path. A
    change that alters seeded outputs on purpose regenerates them with
    those commands and says so in CHANGES.md; no other change may.
    """
    monkeypatch.chdir(GOLDEN.parent.parent)
    assert main(argv.split()) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()

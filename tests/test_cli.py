import argparse
import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppratios import cli


def run_cli(*args):
    return cli.run(list(args))


def read_csv_body(path):
    lines = path.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    return lines[:header_idx], lines[header_idx], lines[header_idx + 1 :]


def test_verify_wlaw_example(tmp_path):
    code = run_cli("verify", "--tail", "pareto", "--alpha", "1", "--r", "1",
                   "--n", "1", "--target", "wlaw", "--trials", "100000",
                   "--seed", "7", "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["pass"] is True
    assert doc["parameters"]["seed"] == 7
    assert (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--target", "ratio_tail_n1", "--r", "1", "--n", "1", "--t", "0.1"],
    ["--target", "wlaw", "--r", "2", "--n", "3", "--t-grid", "1e-1:1e-3:2"],
], ids=["ratio_tail_n1", "wlaw"])
def test_one_line_sweeps_pass_at_small_alpha(tmp_path, capsys, argv):
    # at alpha = 0.001 about half the above-1 ratios exceed float64 and about
    # 64% of the pivot ratios underflow to 0; the sweeps score their logs
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli("verify", "--tail", "pareto", "--alpha", "0.001", *argv,
                       "--trials", "10000", "--out-dir", str(tmp_path))
    assert code == 0
    assert capsys.readouterr().err == ""


def test_z_insensitivity_scores_small_alpha_from_the_log_ratio(tmp_path, capsys):
    # at alpha = 0.001 most pivot ratios underflow to 0: scored as W itself,
    # every bin read KS 0.64-0.66 and the spread between them still passed;
    # scored as exp(alpha * log W), each bin is within its noise level
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli("verify", "--target", "z_insensitivity", "--tail", "pareto",
                       "--alpha", "0.001", "--r", "2", "--n", "3", "--t", "0.01",
                       "--trials", "40000", "--seed", "5", "--out-dir", str(tmp_path))
    assert code == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "report.json").read_text())
    assert max(rec["ks"] for rec in doc["statistics"]) < doc["details"]["per_bin_noise"]
    assert doc["details"]["pooled_ks"] < 1.63 / 200  # the 1% KS level at 40000 trials


@pytest.mark.parametrize("argv", [
    ["--target", "successive_ratios", "--r", "1", "--n", "2", "--trials", "10000"],
    ["--target", "independence", "--r", "1", "--n", "3", "--trials", "20000"],
], ids=["successive_ratios", "independence"])
def test_successive_ratio_targets_pass_at_small_alpha(tmp_path, capsys, argv):
    # at alpha = 0.001 about 47% of R_1 and 23% of R_2 underflow to 0: scored
    # as R_k itself, the sweep failed (per-coordinate KS 0.46 and 0.23) and
    # independence divided 0 by 0; scored as exp(alpha * log R_k) both pass
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli("verify", "--tail", "pareto", "--alpha", "0.001", "--t", "0.1",
                       *argv, "--seed", "3", "--out-dir", str(tmp_path))
    assert code == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "report.json").read_text())
    assert all(v is not None for v in doc["details"].values())


def test_missing_field_exits_2(tmp_path, capsys):
    code = run_cli("verify", "--tail", "pareto", "--alpha", "1", "--r", "1",
                   "--target", "wlaw", "--trials", "100000",
                   "--out-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    doc = json.loads(err)
    assert doc["reason"] == "missing field: n"


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--bogus", "1")
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "config"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_exits_2(tmp_path, capsys, seed):
    code = run_cli("simulate", "--tail", "pareto", "--alpha", "1", "--t", "0.5",
                   "--r", "1", "--n", "2", "--trials", "10", "--seed", seed,
                   "--out-dir", str(tmp_path))
    assert code == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "domain"
    assert "[0, 2**64)" in doc["reason"]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_nonpositive_threads_exit_2(tmp_path, capsys, threads):
    # the identities target shows that --threads reaches identity_checks
    for target in (["--target", "wlaw", "--tail", "pareto", "--n", "1", "--trials", "10000"],
                   ["--target", "identities", "--n", "2", "--trials", "100000"]):
        code = run_cli("verify", "--alpha", "1", "--r", "1", *target,
                       "--threads", threads, "--out-dir", str(tmp_path))
        assert code == 2
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc == {"error": "domain", "reason": "threads must be >= 1"}


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("experiment", ["simulate", "estimate"])
def test_nonpositive_trials_exit_2(tmp_path, capsys, experiment, trials):
    n = ["--n", "2"] if experiment == "simulate" else []
    code = run_cli(experiment, "--tail", "pareto", "--alpha", "1", "--t", "0.5",
                   "--r", "1", *n, "--trials", trials,
                   "--out-dir", str(tmp_path))
    assert code == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc == {"error": "domain", "reason": "trials must be >= 1"}


def test_simulate_deep_small_time_pareto_log(tmp_path):
    # t = 1e-200 puts the ordered points near x = 1e-200, far below any
    # fixed search bracket
    code = run_cli("simulate", "--tail", "pareto_log", "--alpha", "1", "--beta", "1",
                   "--t", "1e-200", "--r", "1", "--n", "2", "--epsilon", "0.5",
                   "--trials", "10", "--out-dir", str(tmp_path))
    assert code == 0
    _, _, body = read_csv_body(tmp_path / "trials.csv")
    assert len(body) == 10


def test_subnormal_t_exits_2(tmp_path, capsys):
    # arrivals / 1e-320 overflow to inf, which used to write nan cells
    code = run_cli("simulate", "--tail", "pareto", "--alpha", "1", "--t", "1e-320",
                   "--r", "1", "--n", "2", "--epsilon", "0.5", "--trials", "5",
                   "--out-dir", str(tmp_path))
    assert code == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "domain"
    assert "t=1e-320" in doc["reason"]
    assert not (tmp_path / "trials.csv").exists()


def test_rapid_zero_past_the_cap_exits_2_without_a_warning(tmp_path, capsys):
    # the rows' arrival bound t * tail(epsilon * pivot) overflows to inf, so
    # every row's count is inf, past the cap; the tail is not saturated and
    # does not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("simulate", "--tail", "rapid_zero", "--t", "0.5", "--r", "1",
                       "--n", "2", "--epsilon", "1e-3", "--cap", "1000", "--trials", "200",
                       "--out-dir", str(tmp_path))
    assert code == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "domain"
    assert doc["reason"] == ("more than cap=1000 arrivals before the epsilon crossing in "
                             "200 of 200 rows (epsilon or cap too small)")
    assert not (tmp_path / "trials.csv").exists()


def test_inversion_error_exits_2(tmp_path, capsys, monkeypatch):
    from ppratios import tail_models as tm

    monkeypatch.setattr(tm, "_NEWTON_MAX_ITER", 1)
    code = run_cli("simulate", "--tail", "pareto_log", "--alpha", "1", "--beta", "-0.5",
                   "--t", "0.5", "--r", "1", "--n", "2", "--trials", "10",
                   "--out-dir", str(tmp_path))
    assert code == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "domain"
    assert "Newton" in doc["reason"]


def test_laws_density_normalization(tmp_path):
    code = run_cli("laws", "--law", "w", "--alpha", "2", "--r", "1", "--n", "2",
                   "--grid", "0.01:0.99:99", "--out-dir", str(tmp_path))
    assert code == 0
    meta, header, body = read_csv_body(tmp_path / "law_table.csv")
    cols = header.split(",")
    x = np.array([float(row.split(",")[cols.index("x")]) for row in body])
    dens = np.array([float(row.split(",")[cols.index("density")]) for row in body])
    assert abs(np.trapezoid(dens, x) - 1.0) < 1e-3


def test_simulate_csv_shape(tmp_path):
    code = run_cli("simulate", "--tail", "pareto", "--alpha", "1", "--t", "0.5",
                   "--r", "1", "--n", "3", "--trials", "20", "--epsilon", "0.3",
                   "--seed", "4", "--out-dir", str(tmp_path))
    assert code == 0
    meta, header, body = read_csv_body(tmp_path / "trials.csv")
    assert header.split(",") == ["trial_index", "w_rn", "count_below", "above_1", "above_2"]
    assert len(body) == 20
    for line in ("# seed=4", "# epsilon=0.3", "# trials=20", "# t=0.5", "# r=1", "# n=3"):
        assert line in meta


def test_estimate_and_classify_outputs(tmp_path):
    code = run_cli("estimate", "--tail", "pareto", "--alpha", "2", "--t", "1",
                   "--r", "1", "--trials", "50000", "--seed", "9",
                   "--out-dir", str(tmp_path / "est"))
    assert code == 0
    doc = json.loads((tmp_path / "est" / "estimate.json").read_text())
    assert abs(doc["alpha_hat"] - 2.0) < 4 * doc["stderr"]

    code = run_cli("classify", "--tail", "slow_zero", "--t", "1e-4", "--r", "1",
                   "--trials", "20000", "--seed", "3",
                   "--out-dir", str(tmp_path / "cls"))
    assert code == 0
    doc = json.loads((tmp_path / "cls" / "classification.json").read_text())
    assert doc["verdict"] == "slowly_varying"


def test_estimate_takes_the_log_sample_of_a_slowly_varying_tail(tmp_path):
    # the above-1 ratios of slow_zero at t = 1e-4 exceed float64; their logs
    # do not, so the index estimate is finite (near 0) and nothing warns
    code, err, caught = _run_captured(["estimate", "--tail", "slow_zero", "--t", "1e-4",
                                       "--r", "1", "--trials", "1000",
                                       "--out-dir", str(tmp_path)])
    assert code == 0 and err == "" and not caught
    doc = json.loads((tmp_path / "estimate.json").read_text())
    assert 0.0 < doc["alpha_hat"] < 1e-3 and np.isfinite(doc["stderr"])


def test_classify_conflicting_evidence_exits_1(tmp_path):
    # alpha 0.05 at t = 1e-4: the median ratio lies beyond CLASSIFY_BIG_M,
    # but too little mass does for a slowly varying verdict
    code, err, caught = _run_captured(["classify", "--tail", "pareto", "--alpha", "0.05",
                                       "--t", "1e-4", "--r", "1", "--trials", "1000",
                                       "--out-dir", str(tmp_path)])
    assert code == 1 and not caught
    assert json.loads(err.splitlines()[-1])["error"] == "classification"
    doc = json.loads((tmp_path / "classification.json").read_text())
    assert sorted(doc) == ["alpha_hat", "error", "evidence", "r", "seed", "t", "tail",
                           "trials", "verdict"]
    assert doc["verdict"] is None and doc["alpha_hat"] is None
    assert doc["evidence"]["median_ratio"] > 1e3 and "t not small enough" in doc["error"]


@pytest.mark.parametrize("argv", [
    ["--target", "gamma_nc", "--tail", "pareto", "--alpha", "1", "--r", "1", "--n", "3",
     "--t-grid", "0.1,0.01", "--trials", "10000"],
    ["--target", "successive_ratios", "--tail", "pareto", "--alpha", "1", "--r", "1",
     "--n", "3", "--t", "0.1", "--trials", "10000"],
    ["--target", "independence", "--tail", "pareto", "--alpha", "1", "--r", "1",
     "--n", "3", "--t", "0.1", "--trials", "10000"],
    ["--target", "identities", "--alpha", "1", "--r", "1", "--n", "3",
     "--trials", "100000"],
], ids=["gamma_nc", "successive_ratios", "independence", "identities"])
def test_sweep_csv_rows_have_the_header_width(tmp_path, argv):
    # list-valued statistics (ks_per_k, ks_per_coordinate, pair, bin) are
    # one cell, their items separated by a space; report.json keeps the lists
    assert run_cli("verify", *argv, "--out-dir", str(tmp_path)) in (0, 1)
    lines = [l for l in (tmp_path / "sweep.csv").read_text().splitlines()
             if not l.startswith("#")]
    header, *rows = csv.reader(lines)
    assert rows and all(len(row) == len(header) for row in rows)
    report = json.loads((tmp_path / "report.json").read_text())
    listed = [(i, k, v) for i, rec in enumerate(report["statistics"])
              for k, v in rec.items() if isinstance(v, list)]
    assert listed
    for i, key, items in listed:
        assert [float(v) for v in rows[i][header.index(key)].split(" ")] == items


def test_verify_failure_exit_code(tmp_path):
    # a perturbed tail at large t cannot meet the absolute threshold
    code = run_cli("verify", "--tail", "pareto_perturbed", "--alpha", "1",
                   "--c", "1", "--gamma", "1", "--r", "1", "--n", "1",
                   "--target", "wlaw", "--trials", "20000", "--t", "0.5",
                   "--seed", "5", "--out-dir", str(tmp_path))
    assert code == 1
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["pass"] is False


def test_byte_identical_reruns(tmp_path):
    args = ("verify", "--tail", "pareto", "--alpha", "1", "--r", "1", "--n", "1",
            "--target", "wlaw", "--trials", "20000", "--seed", "7",
            "--out-dir", str(tmp_path))
    assert run_cli(*args) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run_cli(*args) == 0
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


def test_config_file_merge_and_conflict_warning(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tail=pareto\nalpha=1\nr=1\nn=1\ntarget=wlaw\n"
                   "trials=20000\nseed=11\n")
    out = tmp_path / "out"
    code = run_cli("verify", "--config", str(cfg), "--seed", "12",
                   "--out-dir", str(out))
    assert code == 0
    err = capsys.readouterr().err
    assert "overridden by flag" in err
    doc = json.loads((out / "report.json").read_text())
    assert doc["parameters"]["seed"] == 12  # flag wins


def test_config_file_bad_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tail pareto\n")
    code = run_cli("verify", "--config", str(cfg), "--target", "wlaw",
                   "--trials", "20000", "--out-dir", str(tmp_path / "o"))
    assert code == 2


@pytest.mark.parametrize("experiment,line,flags", [
    ("simulate", "trials=abc", ["--tail", "pareto", "--alpha", "1", "--t", "0.5",
                                "--r", "1", "--n", "2"]),
    ("laws", "u=abc", ["--law", "j", "--alpha", "1", "--grid", "1.0:2.0:3"]),
])
def test_config_bad_value_names_the_key(tmp_path, capsys, experiment, line, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code = run_cli(experiment, "--config", str(cfg), *flags,
                   "--out-dir", str(tmp_path / "o"))
    assert code == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "config"
    assert doc["reason"].startswith(f"config value {line.split('=')[0]}='abc' is not")


def test_config_and_flags_give_same_verify_artifacts(tmp_path):
    common = ["--target", "conditional_gamma", "--tail", "pareto", "--alpha", "1",
              "--r", "1", "--n", "1", "--t", "1e-3", "--trials", "50000", "--seed", "2"]
    assert run_cli("verify", *common, "--w", "0.5", "--half-width", "0.05",
                   "--out-dir", str(tmp_path / "flags")) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("w=0.5\nhalf-width=0.05\n")
    assert run_cli("verify", *common, "--config", str(cfg),
                   "--out-dir", str(tmp_path / "config")) == 0
    for name in ("report.json", "sweep.csv"):
        flags, config = (tmp_path / d / name for d in ("flags", "config"))
        assert flags.read_bytes() == config.read_bytes()
    params = json.loads((tmp_path / "config" / "report.json").read_text())["parameters"]
    assert (params["w"], params["half_width"]) == (0.5, 0.05)


@pytest.mark.parametrize("experiment,line,flags", [
    ("verify", "trails=20000", ["--target", "wlaw", "--tail", "pareto", "--alpha", "1",
                                "--r", "1", "--n", "1", "--trials", "10000"]),
    ("verify", "target=bogus", ["--tail", "pareto", "--alpha", "1", "--r", "1", "--n", "1",
                                "--t", "1e-3", "--w", "0.5", "--trials", "50000"]),
    ("laws", "law=bogus", ["--alpha", "1", "--r", "1", "--n", "2", "--w", "0.5",
                           "--grid", "0.1:10:5"]),
])
def test_config_key_and_choice_checked_as_flags_are(tmp_path, capsys, experiment, line,
                                                    flags):
    # a misspelt key or a value outside the flag's choices used to run anyway
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code = run_cli(experiment, "--config", str(cfg), *flags,
                   "--out-dir", str(tmp_path / "o"))
    assert code == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "config"
    assert line.split("=")[0] in doc["reason"]
    assert not (tmp_path / "o").exists()


def test_config_value_equal_to_its_flag_does_not_warn(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=1\n")
    code = run_cli("laws", "--law", "l", "--alpha", "1", "--grid", "1.0:9.0:9",
                   "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["laws", "--threads", "1"],
    ["simulate", "--target", "wlaw"],
    ["verify", "--cap", "5"],
    ["estimate", "--n", "2"],
    ["classify", "--probe-a", "0.2"],
])
def test_subcommand_rejects_a_flag_it_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "config"
    assert argv[1] in doc["reason"]


def test_abbreviated_flag_exits_2(tmp_path, capsys):
    # argparse used to read --alp as --alpha, while the config key alp exits 2
    with pytest.raises(SystemExit) as exc:
        run_cli("laws", "--law", "w", "--alp", "1.5", "--r", "1", "--n", "2",
                "--grid", "0.1:0.9:2", "--out-dir", str(tmp_path / "o"))
    assert exc.value.code == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "config"
    assert "--alp" in doc["reason"]
    assert not (tmp_path / "o").exists()


def test_subcommand_options_pinned():
    # each subcommand takes exactly the options it reads, and each verify
    # target and each law reads only its own; a new knob has to change
    # these lists
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {a.dest for a in p._actions if a.dest != "help"}
               for name, p in sub.choices.items()}
    common = {"config", "out_dir"}
    tail = {"tail", "alpha", "beta", "c", "gamma"}
    seeded = {"trials", "seed", "threads"}
    local = tail | {"t", "r", "n"}
    targets = {
        **{name: tail | {"r", "n", "t", "t_grid"} for name in
           ("wlaw", "ratio_tail_n1", "successive_ratios", "gamma_nc")},
        "independence": local,
        "z_insensitivity": local,
        "identities": {"alpha", "r", "n"},
        "nb_functional": {"alpha", "n", "epsilon", "method", "probe_form",
                          "probe_amplitude", "probe_a", "probe_b"},
        "conditional_gamma": local | {"w", "half_width"},
    }
    laws = {
        "w": {"alpha", "r", "n"},
        "j": {"alpha", "u"},
        "l": {"alpha"},
        "k_orderstat": {"alpha", "r", "n"},
        "successive": {"alpha", "r"},
        "ratio_tail": {"alpha", "r"},
        "phi": {"alpha", "u"},
        "conditional_gamma": {"alpha", "r", "n", "w"},
    }
    assert {k: set(opts) for k, (opts, _) in cli._TARGETS.items()} == targets
    assert {k: set(opts) for k, (opts, _) in cli._LAWS.items()} == laws
    assert options == {
        "simulate": common | local | seeded | {"epsilon", "cap"},
        "laws": common | {"law", "grid"} | set().union(*laws.values()),
        "verify": common | {"target"} | seeded | set().union(*targets.values()),
        "estimate": common | tail | seeded | {"t", "r"},
        "classify": common | tail | seeded | {"t", "r"},
    }
    assert sum(map(len, options.values())) == 71
    # (target, option) pairs verify accepts, config, out_dir and target included
    assert sum(len(common | {"target"} | seeded | v) for v in targets.values()) == 127
    # (law, option) pairs laws accepts, config, out_dir, law and grid included
    assert sum(len(common | {"law", "grid"} | v) for v in laws.values()) == 51


_W_LAW = ["laws", "--law", "w", "--alpha", "2", "--r", "1", "--n", "2", "--grid", "0.1:0.9:3"]
_WLAW = ["verify", "--target", "wlaw", "--tail", "pareto", "--alpha", "1", "--r", "1",
         "--n", "2", "--trials", "10000"]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("argv,key,value", [
    (_W_LAW, "z", "1"),
    (_W_LAW, "lam", "1"),
    (_W_LAW, "seed", "1"),
    (_W_LAW + ["--w", "3"], "u", "7"),
    (["estimate", "--tail", "pareto", "--alpha", "1", "--t", "0.1", "--r", "1",
      "--trials", "200"], "epsilon", "0.5"),
    (["classify", "--tail", "pareto", "--alpha", "1", "--t", "1e-4", "--r", "1",
      "--trials", "1000"], "epsilon", "0.5"),
    (_WLAW, "method", "mixed_poisson"),
    (["verify", "--target", "identities", "--alpha", "1", "--r", "1", "--n", "2",
      "--trials", "100000"], "tail", "pareto"),
    (["verify", "--target", "nb_functional", "--alpha", "1", "--n", "2",
      "--epsilon", "0.3", "--trials", "1000"], "t", "0.1"),
    (_WLAW + ["--t-grid", "1e-1:1e-2:2"], "t", "0.1"),
], ids=["laws-z", "laws-lam", "laws-seed", "laws_w-u-and-w", "estimate-epsilon",
        "classify-epsilon",
        "wlaw-method", "identities-tail", "nb_functional-t", "wlaw-t-and-t_grid"])
def test_option_the_run_does_not_read_exits_2(tmp_path, argv, key, value, via):
    # each of these used to run and echo a value nothing read
    if via == "flag":
        extra = ["--" + key.replace("_", "-"), value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        extra = ["--config", str(cfg)]
    code, err, _ = _run_captured(argv + extra + ["--out-dir", str(tmp_path / "o")])
    assert code == 2
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"] == "config"
    assert f"'{key}'" in doc["reason"] or f"--{key} " in doc["reason"], doc
    if "--t-grid" in argv:
        assert "'t_grid'" in doc["reason"]
    assert not (tmp_path / "o").exists()


class _Reads(cli._Config):
    """A merged config that records each key its runner looks up."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


_TAIL_ARGS = ["--tail", "pareto", "--alpha", "1"]

# a valid invocation of each law
_LAW_ARGV = {
    "w": _W_LAW,
    "j": ["laws", "--law", "j", "--alpha", "1.5", "--u", "0.5", "--grid", "0.5:3:3"],
    "l": ["laws", "--law", "l", "--alpha", "1.5", "--grid", "1:9:3"],
    "k_orderstat": ["laws", "--law", "k_orderstat", "--alpha", "1", "--r", "1", "--n", "3",
                    "--grid", "0.05:0.95:3"],
    "successive": ["laws", "--law", "successive", "--alpha", "1", "--r", "2",
                   "--grid", "0.05:0.95:3"],
    "ratio_tail": ["laws", "--law", "ratio_tail", "--alpha", "1", "--r", "1",
                   "--grid", "1.5:9:3"],
    "phi": ["laws", "--law", "phi", "--alpha", "1", "--u", "0.5", "--grid", "0.1:10:3"],
    "conditional_gamma": ["laws", "--law", "conditional_gamma", "--alpha", "1", "--r", "1",
                          "--n", "2", "--w", "0.5", "--grid", "0.1:10:3"],
}


@pytest.mark.parametrize("argv", [
    ["simulate", *_TAIL_ARGS, "--t", "0.5", "--r", "1", "--n", "2", "--trials", "20"],
    *_LAW_ARGV.values(),
    ["estimate", *_TAIL_ARGS, "--t", "0.1", "--r", "1", "--trials", "200"],
    ["classify", *_TAIL_ARGS, "--t", "1e-4", "--r", "1", "--trials", "1000"],
    *(["verify", "--target", target, *_TAIL_ARGS, "--r", "1", "--n", "2",
       "--trials", "10000"] for target in ("wlaw", "ratio_tail_n1", "successive_ratios",
                                           "gamma_nc")),
    *(["verify", "--target", target, *_TAIL_ARGS, "--t", "0.01", "--r", "1", "--n", "2",
       "--trials", "10000"] for target in ("independence", "z_insensitivity")),
    ["verify", "--target", "identities", "--alpha", "1", "--r", "1", "--n", "2",
     "--trials", "100000"],
    ["verify", "--target", "nb_functional", "--alpha", "1", "--n", "2",
     "--epsilon", "0.3", "--trials", "1000"],
    ["verify", "--target", "conditional_gamma", *_TAIL_ARGS, "--t", "1e-3", "--r", "1",
     "--n", "1", "--w", "0.5", "--trials", "10000"],
], ids=lambda argv: {"verify": argv[2], "laws": f"laws-{argv[2]}"}.get(argv[0], argv[0]))
def test_every_option_a_run_takes_is_read(monkeypatch, tmp_path, argv):
    # each option a subcommand, a verify target or a law takes is looked up
    # by its runner, so none is only accepted and ignored
    cfg = _Reads()
    merge = cli._merge

    def recording_merge(args):
        cfg.update(merge(args))
        return cfg

    monkeypatch.setattr(cli, "_merge", recording_merge)
    assert cli.run(argv + ["--out-dir", str(tmp_path)]) in (0, 1)
    if argv[0] in cli._PICKS:
        _, every, table = cli._PICKS[argv[0]]
        taken = every + table[argv[2]][0]
    else:
        taken = cli._SUBCOMMANDS[argv[0]][1]
    assert set(taken) | {"out_dir"} <= cfg.read


def test_lf_line_endings_and_roundtrip_floats(tmp_path):
    run_cli("laws", "--law", "l", "--alpha", "1.5", "--grid", "1.0:9.0:9",
            "--out-dir", str(tmp_path))
    raw = (tmp_path / "law_table.csv").read_bytes()
    assert b"\r" not in raw
    _, header, body = read_csv_body(tmp_path / "law_table.csv")
    cols = header.split(",")
    cdf = [float(row.split(",")[cols.index("cdf")]) for row in body]
    # round-trip: the printed text reparses to the exact double
    row0 = body[0].split(",")[cols.index("cdf")]
    assert float(row0) == cdf[0]


def test_nb_functional_target(tmp_path):
    code = run_cli("verify", "--target", "nb_functional", "--alpha", "1",
                   "--n", "2", "--trials", "50000", "--epsilon", "0.5",
                   "--probe-a", "0.5", "--probe-b", "1.0",
                   "--probe-amplitude", "1.0", "--seed", "6",
                   "--out-dir", str(tmp_path))
    assert code == 0


def test_conditional_gamma_target(tmp_path):
    code = run_cli("verify", "--target", "conditional_gamma", "--tail", "pareto",
                   "--alpha", "1", "--r", "1", "--n", "1", "--t", "1e-3",
                   "--w", "0.5", "--trials", "50000", "--seed", "2",
                   "--out-dir", str(tmp_path))
    assert code == 0


def test_gamma_nc_target_reads_no_tail_index(tmp_path):
    # t*tail(k-th point) ~ Gamma(k, 1) holds for every tail, slowly varying too
    code = run_cli("verify", "--target", "gamma_nc", "--tail", "slow_zero", "--r", "1",
                   "--n", "2", "--t-grid", "1e-3", "--trials", "100000",
                   "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["pass"] is True and doc["statistics"][-1]["ks"] <= doc["threshold"]


def test_t_grid_parsing(tmp_path):
    code = run_cli("verify", "--tail", "pareto", "--alpha", "1", "--r", "1",
                   "--n", "1", "--target", "wlaw", "--trials", "20000",
                   "--t-grid", "1e-1:1e-3:3", "--seed", "7",
                   "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert [rec["t"] for rec in doc["statistics"]] == [1e-1, 1e-2, 1e-3]


def test_config_file_missing_exits_2(tmp_path, capsys):
    code = run_cli("simulate", "--config", str(tmp_path / "absent" / "x.cfg"),
                   "--tail", "pareto", "--alpha", "1", "--t", "0.5", "--r", "1",
                   "--n", "2", "--trials", "10", "--out-dir", str(tmp_path / "o"))
    assert code == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "io"
    assert "x.cfg" in doc["reason"]


def test_out_dir_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    code = run_cli("simulate", "--tail", "pareto", "--alpha", "1", "--t", "0.5",
                   "--r", "1", "--n", "2", "--trials", "10", "--out-dir", str(taken))
    assert code == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "io"
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("grid", ["0.1:0.9", "0.1:0.9:5:7", "0.1:x:5", "0.1:0.9:2.5",
                                  "0.1,x"])
def test_malformed_grid_names_the_expected_form(tmp_path, capsys, grid):
    code = run_cli("laws", "--law", "w", "--alpha", "2", "--r", "1", "--n", "2",
                   "--grid", grid, "--out-dir", str(tmp_path))
    assert code == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "config"
    assert repr(grid) in doc["reason"] and "lo:hi:count" in doc["reason"]


# --- the column writer ------------------------------------------------------


def _reference_write_csv(path, meta, header, rows):
    """The per-row writer the column writer replaced: ``_fmt`` on every cell."""
    with open(path, "w", newline="\n") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={cli._fmt(meta[key])}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cli._fmt(v) for v in row) + "\n")


def _cell(column, i):
    if isinstance(column, (list, np.ndarray)):
        return column[i]
    return column


def _assert_same_bytes(tmp_path, header, columns, rows):
    meta = {"seed": 3, "t": 1e-05, "pass": True, "note": "", "missing": None}
    _reference_write_csv(tmp_path / "ref.csv", meta, header,
                         ([_cell(c, i) for c in columns] for i in range(rows)))
    cli._write_csv(tmp_path / "new.csv", meta, header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


EDGE_FLOATS = [5e-324, 2.2250738585072014e-308, 1e16, 9.999999999999999e15, 1e-05,
               -0.0, float("nan"), float("inf"), -float("inf"), 0.1, 1.0, 123456789.0,
               1e-4, float(np.nextafter(1e-4, 0)), float(np.nextafter(1e-4, 1)), 0.5, 2.0,
               1024.0, 1234567890123456.75, float(np.nextafter(1e16, 0))]


def test_column_writer_edge_values_match_per_cell_writer(tmp_path):
    m = len(EDGE_FLOATS)
    f64 = np.array(EDGE_FLOATS)
    uint64 = np.arange(m, dtype=np.uint64) * np.uint64(2**61)
    uint64[-1] = 2**64 - 1
    mixed = [None, "", 1, True, np.float64(2.5), np.int64(7), "x", False,
             np.bool_(True), 3.0, -0.0, None]
    columns = [
        np.r_[-2**63, 2**63 - 1, np.arange(m - 2)],     # int64
        f64,                                            # float64 edge values
        f64.astype(np.float32),                         # float32 widened exactly
        np.arange(m) % 3 == 0,                          # bool
        uint64,
        np.stack([f64, -f64], axis=1)[:, 1],            # strided view
        list(EDGE_FLOATS),                              # list of floats
        (mixed * 2)[:m],                                # mixed list cells
        1e16,                                           # scalar float
        "",                                             # empty scalar
        None,                                           # missing scalar
        np.bool_(False),                                # scalar bool
    ]
    header = [f"c{j}" for j in range(len(columns))]
    _assert_same_bytes(tmp_path, header, columns, m)


# the first block's edges, and a later block's, where earlier blocks are written whole
@pytest.mark.parametrize("rows", [0, 1, cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1,
                                  4 * cli._BLOCK - 1, 4 * cli._BLOCK, 4 * cli._BLOCK + 1])
def test_column_writer_block_edges_match_per_cell_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
    singles = rng.standard_normal(rows) * 10.0 ** rng.integers(-45, 38, rows)
    singles = singles.astype(np.float32)
    columns = [np.arange(rows), 0.01, 1, "", floats, rng.integers(0, 50, rows),
               floats[::-1] > 0, singles]
    header = ["i", "t", "r", "w", "x", "count", "flag", "x32"]
    _assert_same_bytes(tmp_path, header, columns, rows)


def test_column_writer_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        cli._write_csv(tmp_path / "x.csv", {}, ["a", "b"], [np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError):
        cli._write_csv(tmp_path / "x.csv", {}, ["a", "b"], [np.zeros(3)])
    with pytest.raises(ValueError):
        cli._write_csv(tmp_path / "x.csv", {}, ["a"], [1.0])


def test_simulate_without_pivot_leaves_w_rn_empty(tmp_path):
    code = run_cli("simulate", "--tail", "pareto", "--alpha", "1", "--t", "0.1",
                   "--r", "0", "--n", "3", "--trials", "50", "--epsilon", "0.3",
                   "--seed", "4", "--out-dir", str(tmp_path))
    assert code == 0
    meta, header, body = read_csv_body(tmp_path / "trials.csv")
    cols = header.split(",")
    assert cols == ["trial_index", "w_rn", "count_below", "above_1", "above_2"]
    cells = [row.split(",") for row in body]
    assert len(cells) == 50
    assert [row[0] for row in cells] == [str(i) for i in range(50)]
    assert all(row[cols.index("w_rn")] == "" for row in cells)
    for line in ("# t=0.1", "# r=0", "# n=3"):
        assert line in meta
    assert all(float(row[-1]) > 0 for row in cells)


# --- the CLI contract as a property ------------------------------------------

_EDGE = ("0", "-1", "nan", "inf", "1e-320", "1e308", str(2**64), "")
_GRIDS = _EDGE + ("1:2", "a:b:3", "1:2:0", "1:2:-1", "1e-320:1e308:3", "nan:inf:2",
                  "2:1:3", "1:1:2", ",", "1,,2", "0.5,nan", f"1:2:{2**64}")
# Work-bounding options draw from smaller sets, so that no example runs long
# or asks for much memory: trials that run never exceed 2000 (20 for verify,
# whose nb_functional rows may run to the 10^6 cap),
# simulate's cap stays finite, and threads is 1 or 2.  The two huge trial
# counts run one row block and then fail to allocate the output: 2**64
# exceeds numpy's dimension limit, and 2**50 rows of float64 (8 PiB) exceed
# the address space, so no page is touched.
_HUGE_TRIALS = (str(2**64), str(2**50))
_BOUNDED = {
    "trials": ("0", "-1", "nan", "1e308", "", "20", "2000") + _HUGE_TRIALS,
    "cap": ("0", "-1", "nan", "1e308", "", "1000"),
    "threads": ("1", "2"),
}
_VERIFY_TRIALS = ("0", "-1", "nan", "1e308", "", "20") + _HUGE_TRIALS

# a valid, quick invocation of each subcommand, as option -> flag text
_BASE = {
    "simulate": {"tail": "pareto", "alpha": "1", "t": "0.5", "r": "1", "n": "2",
                 "epsilon": "0.2", "cap": "1000", "trials": "20"},
    "laws": {"law": "w", "alpha": "1", "r": "1", "n": "2", "grid": "0.1:0.9:5"},
    "verify": {"target": "nb_functional", "alpha": "1", "n": "2", "epsilon": "0.3",
               "trials": "20"},
    "estimate": {"tail": "pareto", "alpha": "1", "t": "0.1", "r": "1", "trials": "200"},
    "classify": {"tail": "pareto", "alpha": "1", "t": "1e-4", "r": "1", "trials": "1000"},
}
# valid values of the law options that law w does not read
_LAW_VALUES = {"u": "0.5", "w": "0.5"}


def _edge_values(sub, key):
    if sub == "verify" and key == "trials":
        return _VERIFY_TRIALS
    if key in _BOUNDED:
        return _BOUNDED[key]
    choices = cli._OPTIONS[key].choices
    if choices is not None:
        return tuple(choices) + ("", "bogus")
    if key in ("grid", "t_grid"):
        return _GRIDS
    return _EDGE


@st.composite
def _invocations(draw):
    """A subcommand, its flags with up to three set to edge values, and a config line.

    The options are the subcommand's, for verify those nb_functional reads,
    and for laws those of a drawn law.  The config line (or None) sets one
    more option, or a key that is none, to an edge value through ``--config``.
    """
    sub = draw(st.sampled_from(sorted(_BASE)))
    values = dict(_BASE[sub])
    if sub == "laws":
        law = draw(st.sampled_from(sorted(cli._LAWS)))
        keys = sorted(cli._PICKS["laws"][1] + cli._LAWS[law][0])
        values = {k: {**values, **_LAW_VALUES, "law": law}[k] for k in keys}
    elif sub == "verify":
        keys = sorted(cli._PICKS["verify"][1] + cli._TARGETS[values["target"]][0])
    else:
        keys = sorted(cli._SUBCOMMANDS[sub][1])
    for key in draw(st.sets(st.sampled_from(keys), max_size=3)):
        values[key] = draw(st.sampled_from(_edge_values(sub, key)))
    config = None
    if draw(st.booleans()):
        key = draw(st.sampled_from(keys + ["bogus"]))
        text = draw(st.sampled_from(_edge_values(sub, key) if key in keys else _EDGE))
        config = f"{key}={text}"
    return sub, values, config


def _run_captured(argv):
    """Exit code, stderr text and the warnings issued by one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse's exit, after its JSON line
            code = exc.code
    return code, err.getvalue(), caught


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_invocations())
def test_every_input_exits_0_1_or_2_with_a_json_diagnostic(invocation):
    sub, values, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        argv = [sub, "--out-dir", tmp]
        for key, text in values.items():
            argv += ["--" + key.replace("_", "-"), text]
        if config is not None:
            path = Path(tmp) / "edge.cfg"
            path.write_text(config + "\n")
            argv += ["--config", str(path)]
        code, err, _ = _run_captured(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code != 0:
        json.loads(err.strip().splitlines()[-1])


@pytest.mark.parametrize("trials", _HUGE_TRIALS, ids=["2**64", "2**50"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--tail", "pareto", "--alpha", "1", "--t", "0.1", "--r", "1", "--n", "2",
     "--epsilon", "0.3"],
    ["estimate", "--tail", "pareto", "--alpha", "1", "--t", "0.1", "--r", "1"],
    ["verify", "--target", "wlaw", "--tail", "pareto", "--alpha", "1", "--r", "1",
     "--n", "2"],
], ids=lambda argv: argv[0])
def test_huge_trial_counts_exit_2(tmp_path, argv, trials):
    # the output allocation fails after one row block: 2**64 rows exceed
    # numpy's dimension limit (a domain error), 2**50 rows the address space
    code, err, _ = _run_captured(argv + ["--trials", trials, "--out-dir", str(tmp_path)])
    assert code == 2
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"] == ("domain" if trials == str(2**64) else "memory"), doc
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    # epsilon**-alpha overflowed a float (OverflowError)
    ["verify", "--target", "nb_functional", "--alpha", "1", "--n", "2",
     "--epsilon", "1e-320", "--trials", "20"],
    ["verify", "--target", "nb_functional", "--alpha", "1e308", "--n", "2",
     "--epsilon", "0.3", "--trials", "20"],
    # w**-alpha overflowed a float (OverflowError)
    ["laws", "--law", "conditional_gamma", "--alpha", str(2**64), "--r", "1", "--n", "2",
     "--w", "0.5", "--grid", "0:1:3"],
    # a binomial coefficient overflowed a float (OverflowError), and the sum
    # had 2**64 terms
    ["laws", "--law", "k_orderstat", "--alpha", "1", "--r", "1", "--n", str(2**64)],
    # an infinite alpha left phi's integrand nan: quad warned, then QuadratureError
    ["laws", "--law", "phi", "--alpha", "inf", "--u", "0.5", "--grid", "0.1:0.9:5"],
    # n < 1 left no pivot column (IndexError) or, for n = 0, gave W = 1
    ["verify", "--target", "wlaw", "--tail", "pareto", "--alpha", "1", "--r", "1",
     "--n", "-1", "--trials", "10000"],
    ["verify", "--target", "z_insensitivity", "--tail", "pareto", "--alpha", "1",
     "--r", "1", "--n", "0", "--t", "0.1", "--trials", "100000"],
    ["verify", "--target", "gamma_nc", "--tail", "pareto", "--alpha", "1", "--r", "1",
     "--n", "-1", "--trials", "10000"],
    # fails before any artifact, so no output directory may be left behind
    ["classify", "--tail", "pareto", "--alpha", "1", "--t", "0", "--r", "1",
     "--trials", "1000"],
    # a tail without a finite positive index degenerates the pivot law: the
    # z check passed vacuously (KS 1.0 in every bin), the conditional one failed
    ["verify", "--target", "z_insensitivity", "--tail", "rapid_zero", "--t", "0.01",
     "--r", "1", "--n", "2", "--trials", "20000"],
    ["verify", "--target", "conditional_gamma", "--tail", "rapid_zero", "--t", "0.01",
     "--r", "1", "--n", "2", "--w", "0.5", "--trials", "20000"],
    # slow_zero's above ratios exp((gamma_p - gamma_k) / t) exceed float64:
    # exp warned and inf cells were written
    ["simulate", "--tail", "slow_zero", "--t", "1e-3", "--r", "1", "--n", "3",
     "--epsilon", "0.5", "--trials", "1000"],
], ids=["nb_small_epsilon", "nb_large_alpha", "conditional_gamma_large_alpha",
        "k_orderstat_large_n", "phi_infinite_alpha", "wlaw_negative_n",
        "z_insensitivity_zero_n", "gamma_nc_negative_n", "classify_zero_t",
        "z_insensitivity_rapid_zero", "conditional_gamma_rapid_zero",
        "simulate_slow_zero_overflow"])
def test_overflowing_or_empty_inputs_exit_2(tmp_path, argv):
    out = tmp_path / "out"
    code, err, caught = _run_captured(argv + ["--out-dir", str(out)])
    assert code == 2
    assert not caught, [str(w.message) for w in caught]
    assert len(err.splitlines()) == 1, err  # the JSON diagnostic alone
    assert json.loads(err)["error"] == "domain"
    assert not out.exists()

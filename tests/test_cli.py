import csv
import dataclasses
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ucal
from ucal import cli, engine, losses, minimax
from ucal.cli import main
from ucal.core import format_float
from ucal.losses import VALIDATION_RANDOM_POINTS


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_ftl_alternating_exact_quarter(self, capsys, tmp_path):
        out_path = tmp_path / "out.csv"
        code, out, err = run_cli([
            "run", "--forecaster", "ftl", "--adversary", "alternating",
            "--loss", "vshaped", "--K", "2", "--T", "10000", "--trials", "1",
            "--seed", "1", "--output", str(out_path)], capsys)
        assert code == 0
        body = out_path.read_text().strip().split("\n")
        assert body[0] == "experiment,forecaster,adversary,loss,K,T,trial,seed,regret"
        assert len(body) == 2
        assert body[1].split(",")[-1] == "2500"
        assert "pucal=2500" in out

    def test_static_mean_zero_regret(self, capsys):
        code, out, err = run_cli([
            "run", "--forecaster", "static:0.5,0.5", "--adversary", "alternating",
            "--loss", "squared", "--K", "2", "--T", "100", "--trials", "1"], capsys)
        assert code == 0
        regret = float(out.strip().split("\n")[-1].split(",")[-1])
        assert regret == pytest.approx(0.0, abs=1e-9)

    def test_missing_required_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--forecaster", "ftl", "--adversary", "alternating",
                  "--loss", "vshaped", "--T", "10"])
        assert err.value.code == 2

    def test_unknown_forecaster(self, capsys):
        code, out, err = run_cli([
            "run", "--forecaster", "nope", "--adversary", "alternating",
            "--loss", "vshaped", "--K", "2", "--T", "10"], capsys)
        assert code == 2
        assert "unknown forecaster" in err

    def test_unknown_loss(self, capsys):
        code, out, err = run_cli([
            "run", "--forecaster", "ftl", "--adversary", "alternating",
            "--loss", "nope", "--K", "2", "--T", "10"], capsys)
        assert code == 2

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            args = ["run", "--forecaster", "ftpl-geometric", "--adversary", "iid-uniform",
                    "--loss", "vshaped", "--loss", "squared:0.5", "--K", "3",
                    "--T", "64", "--trials", "5", "--seed", "9", "--output", str(path)]
            assert run_cli(args, capsys)[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_workers_do_not_change_bytes(self, capsys, tmp_path):
        base = ["run", "--forecaster", "ftpl-geometric", "--adversary", "iid-uniform",
                "--loss", "vshaped", "--K", "2", "--T", "32", "--trials", "4", "--seed", "3"]
        serial = tmp_path / "serial.csv"
        assert run_cli(base + ["--output", str(serial)], capsys)[0] == 0
        parallel = tmp_path / "parallel.csv"
        assert run_cli(base + ["--workers", "4", "--output", str(parallel)], capsys)[0] == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("command", [
        ["run", "--adversary", "greedy:vshaped", "--T", "50"],
        ["sweep", "--adversary", "greedy:squared", "--T-start", "16", "--T-stop", "64"],
    ])
    def test_adaptive_workers_do_not_change_bytes(self, command, capsys, tmp_path):
        base = command + ["--forecaster", "ftpl-uniform", "--loss", "vshaped;squared:0.5",
                          "--K", "3", "--trials", "3", "--seed", "5"]
        bodies = []
        for workers in ("1", "2", "4"):
            path = tmp_path / f"w{workers}.csv"
            assert run_cli(base + ["--workers", workers, "--output", str(path)], capsys)[0] == 0
            bodies.append(path.read_bytes())
        assert len(set(bodies)) == 1
        assert bodies[0].count(b"\n") == 1 + 3 * 2 * (1 if command[0] == "run" else 3)

    def test_summary_names_both_error_bars(self, capsys):
        code, out, err = run_cli([
            "run", "--forecaster", "ftpl-geometric", "--adversary", "iid-uniform",
            "--loss", "vshaped;squared:0.5", "--K", "2", "--T", "64", "--trials", "4"], capsys)
        assert code == 0
        fields = dict(item.split("=") for item in err.split())
        assert list(fields) == ["pucal", "ucal", "pucal_se", "ucal_se", "trials"]
        assert float(fields["pucal_se"]) > 0 and float(fields["ucal_se"]) > 0

    @pytest.mark.parametrize("command", [
        ["run", "--T", str(10 ** 15)],
        ["sweep", "--T-start", "64", "--T-stop", str(10 ** 15)],
    ])
    def test_oversized_game_fails_before_any_trial(self, command, capsys, tmp_path):
        path = tmp_path / "out.csv"
        start = time.perf_counter()
        code, _, err = run_cli(command + [
            "--forecaster", "ftpl-geometric", "--adversary", "greedy:vshaped",
            "--loss", "vshaped", "--K", "2", "--trials", "2", "--output", str(path)], capsys)
        assert code == 2
        assert "above the cap" in err
        assert not path.exists()
        assert time.perf_counter() - start < 1.0

    def test_zero_trials_usage_error(self, capsys):
        code, _, err = run_cli([
            "run", "--forecaster", "ftl", "--adversary", "alternating",
            "--loss", "vshaped", "--K", "2", "--T", "10", "--trials", "0"], capsys)
        assert code == 2 and "--trials" in err

    @pytest.mark.parametrize("seed", ["18446744073709551616", "9223372036854775808",
                                      "-9223372036854775809"])
    @pytest.mark.parametrize("command", [
        ["run", "--forecaster", "ftl", "--adversary", "alternating", "--loss", "vshaped",
         "--K", "2", "--T", "4"],
        ["sweep", "--forecaster", "ftl", "--adversary", "greedy:squared", "--loss", "vshaped",
         "--K", "2", "--T-start", "2", "--T-stop", "8"],
        ["validate", "--loss", "vshaped", "--samples", "10"]], ids=["run", "sweep", "validate"])
    def test_seed_outside_the_stream_range_usage_error(self, capsys, tmp_path, command, seed):
        # 2^64 would replay --seed 0, as -1 would replay 2^64 - 1
        output = ["--output", str(tmp_path / "out.csv")] if command[0] != "validate" else []
        code, out, err = run_cli(command + ["--seed", seed] + output, capsys)
        assert code == 2 and out == "" and "seed must lie in [-2^63, 2^63)" in err
        assert not (tmp_path / "out.csv").exists()

    def test_seed_range_ends_accepted(self, capsys):
        for seed in ("-9223372036854775808", "9223372036854775807"):
            code, out, _ = run_cli(["run", "--forecaster", "ftl", "--adversary", "iid-uniform",
                                    "--loss", "vshaped", "--K", "2", "--T", "4",
                                    "--seed", seed], capsys)
            assert code == 0 and out.splitlines()[1].split(",")[-2] == seed

    def test_fixed_adversary_from_file(self, capsys, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text("1 2 1 2\n")
        code, out, err = run_cli([
            "run", "--forecaster", "ftl", "--adversary", f"fixed:{seq}",
            "--loss", "vshaped", "--K", "2", "--T", "4", "--trials", "1"], capsys)
        assert code == 0
        assert out.strip().split("\n")[-1].split(",")[-1] == "1"

    def test_fixed_adversary_too_short(self, capsys, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text("1 2\n")
        code, _, err = run_cli([
            "run", "--forecaster", "ftl", "--adversary", f"fixed:{seq}",
            "--loss", "vshaped", "--K", "2", "--T", "10", "--trials", "1"], capsys)
        assert code == 2

    def test_fixed_adversary_workers_do_not_change_bytes(self, capsys, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text(" ".join(str(1 + (i * 7) % 3) for i in range(40)))
        bodies = []
        for workers in ("1", "2"):
            path = tmp_path / f"w{workers}.csv"
            assert run_cli([
                "run", "--forecaster", "ftpl-geometric", "--adversary", f"fixed:{seq}",
                "--loss", "vshaped;squared:0.5", "--K", "3", "--T", "40", "--trials", "4",
                "--seed", "2", "--workers", workers, "--output", str(path)], capsys)[0] == 0
            bodies.append(path.read_bytes())
        assert bodies[0] == bodies[1]
        assert bodies[0].count(b"\n") == 1 + 4 * 2

    def test_greedy_adversary_with_loss_param(self, capsys):
        code, out, _ = run_cli([
            "run", "--forecaster", "ftl", "--adversary", "greedy:tsallis:1.5",
            "--loss", "squared:0.5", "--K", "2", "--T", "50", "--trials", "1"], capsys)
        assert code == 0

    def test_config_file_defaults_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("forecaster=ftl\nadversary=alternating\nloss=vshaped\nK=2\nT=8\ntrials=1\n")
        code, out, _ = run_cli(["run", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[-1] == "2"
        # flag overrides config value
        code, out, _ = run_cli(["run", "--config", str(cfg), "--T", "100"], capsys)
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[-1] == "25"


    def test_config_equals_form_is_loaded(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("forecaster=ftl\nadversary=alternating\nloss=vshaped\nK=2\nT=8\n")
        spaced = run_cli(["run", "--config", str(cfg)], capsys)
        joined = run_cli(["run", f"--config={cfg}"], capsys)
        assert spaced[0] == joined[0] == 0
        assert spaced[1] == joined[1] and spaced[1].count("\n") == 2

    @pytest.mark.parametrize("flags", [["--loss", "squared"], ["--loss=squared"]])
    def test_explicit_loss_replaces_config_loss(self, capsys, tmp_path, flags):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("forecaster=ftl\nadversary=alternating\nloss=vshaped;spherical\n"
                       "K=2\nT=8\ntrials=2\n")
        code, out, _ = run_cli(["run", "--config", str(cfg), *flags], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[3] for row in rows] == ["squared:1", "squared:1"]

    @pytest.mark.parametrize("command, line", [
        (["run"], "trails=100"),
        (["run"], "K=abc"),
        (["run"], "T"),
        (["run"], "config=other.cfg"),
        (["minimax", "--T", "16", "--mode", "closed"], "check_bounds=true"),
    ])
    def test_bad_config_is_usage_error(self, capsys, tmp_path, command, line):
        cfg = tmp_path / "exp.cfg"
        base = "" if command[0] == "minimax" else (
            "forecaster=ftl\nadversary=alternating\nloss=vshaped\nK=2\nT=8\n")
        cfg.write_text(base + line + "\n")
        path = tmp_path / "out.csv"
        code, out, err = run_cli(command + ["--config", str(cfg), "--output", str(path)], capsys)
        assert code == 2 and out == "" and err
        assert not path.exists()

    @pytest.mark.parametrize("line, flags", [
        ("trial=3", []), ("work=1", []), ("", ["--tri", "2"]), ("", ["--work=2"]),
    ], ids=["config-trial", "config-work", "flag-tri", "flag-work"])
    def test_abbreviated_key_or_flag_is_usage_error(self, capsys, tmp_path, line, flags):
        # argparse would otherwise read a unique prefix as the whole flag
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("forecaster=ftl\nadversary=alternating\nloss=vshaped\nK=2\nT=8\n"
                       + line + "\n")
        path = tmp_path / "out.csv"
        code, out, err = run_cli(["run", "--config", str(cfg), "--output", str(path), *flags],
                                 capsys)
        assert code == 2 and out == "" and "unrecognized arguments" in err
        assert not path.exists()

    def test_abbreviated_config_flag_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("forecaster=ftl\nadversary=alternating\nloss=vshaped\nK=2\nT=8\n")
        code, out, err = run_cli(["run", f"--conf={cfg}"], capsys)
        assert code == 2 and out == "" and err

    def test_missing_config_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(["run", "--config", str(tmp_path / "none.cfg")], capsys)
        assert code == 2 and out == "" and "config" in err

    def test_specs_resolved_once_per_command(self, capsys, monkeypatch):
        calls = []
        for name in ("make_loss", "make_adversary", "make_forecaster"):
            real = getattr(cli, name)

            def counting(*args, _real=real, _name=name):
                calls.append((_name, *args))
                return _real(*args)

            monkeypatch.setattr(cli, name, counting)
        code, _, _ = run_cli([
            "sweep", "--forecaster", "ftpl-geometric", "--adversary", "iid-uniform",
            "--loss", "vshaped;squared:0.5", "--K", "2", "--T-start", "8", "--T-stop", "32",
            "--trials", "3", "--workers", "1"], capsys)
        assert code == 0
        assert sorted(calls) == sorted([
            ("make_loss", "vshaped"), ("make_loss", "squared:0.5"),
            ("make_adversary", "iid-uniform", 2),
            ("make_forecaster", "ftpl-geometric", 2, 8),
            ("make_forecaster", "ftpl-geometric", 2, 16),
            ("make_forecaster", "ftpl-geometric", 2, 32)])


# a check of `minimax` made to fail: (function patched, how its result is corrupted, FAIL line)
MINIMAX_FAILURES = {
    "dp-outside-the-interior": ("dp_value",
                                lambda table: dataclasses.replace(table, outer_branch_states=1),
                                "FAIL: a backward step left the interior branch"),
    "dp-gap-above-two": ("dp_value", lambda table: dataclasses.replace(table, max_abs_gap=2.5),
                         "FAIL: a backward step left the interior branch"),
    "dp-and-closed-form-disagree": ("closed_form",
                                    lambda seqs: dataclasses.replace(seqs, value=seqs.value + 1e-6),
                                    "FAIL: dp and closed form disagree by 1.000e-06"),
    "a-above-its-upper-bound": ("check_a_bounds", lambda bounds: (1e-9, 0.0),
                                "FAIL: sandwich bounds violated"),
    "a-below-its-lower-bound": ("check_a_bounds", lambda bounds: (0.0, 1e-9),
                                "FAIL: sandwich bounds violated"),
    "value-below-its-floor": ("value_lower_bound", lambda floor: floor + 10.0,
                              "FAIL: sandwich bounds violated"),
}


class TestMinimaxCmd:
    def test_single_round_both(self, capsys):
        code, out, _ = run_cli(["minimax", "--T", "1", "--mode", "both"], capsys)
        assert code == 0
        assert "0.5" in out

    def test_agreement_at_512(self, capsys):
        assert run_cli(["minimax", "--T", "512", "--mode", "both"], capsys)[0] == 0

    def test_closed_with_bounds_large(self, capsys):
        code, out, _ = run_cli(["minimax", "--T", "1000000", "--mode", "closed",
                                "--check-bounds"], capsys)
        assert code == 0

    def test_dp_rejects_huge_horizon(self, capsys):
        code, out, err = run_cli(["minimax", "--T", "100000", "--mode", "both"], capsys)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("mode", ["dp", "both"])
    def test_dp_limit_is_usage_error_before_any_output(self, capsys, tmp_path, monkeypatch, mode):
        monkeypatch.setattr(minimax, "dp_value", _never_called)
        monkeypatch.setattr(minimax, "closed_form", _never_called)
        path = tmp_path / "seqs.csv"
        code, out, err = run_cli(["minimax", "--T", str(minimax.DP_MAX_HORIZON + 1), "--mode", mode,
                                  "--output", str(path)], capsys)
        assert code == 2
        assert out == "" and f"DP's limit of {minimax.DP_MAX_HORIZON}" in err
        assert not path.exists()

    def test_dp_limit_is_inclusive(self, capsys):
        code, out, _ = run_cli(["minimax", "--T", str(minimax.DP_MAX_HORIZON), "--mode", "dp"],
                               capsys)
        assert code == 0 and out.startswith(f"dp value V(T={minimax.DP_MAX_HORIZON})")

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "seqs.csv"
        code, _, _ = run_cli(["minimax", "--T", "16", "--mode", "closed",
                              "--output", str(path)], capsys)
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "r,u_r,v_r,a_r,upper_bound,lower_bound"
        assert len(lines) == 17
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0
        assert float(first[3]) == pytest.approx(1 / 16)

    @pytest.mark.parametrize("horizon", [1, 2, minimax._TEXT_ROWS + 1, minimax.CHUNK_ROWS,
                                         3 * minimax.CHUNK_ROWS + 5])
    def test_csv_equals_row_by_row_rendering(self, capsys, tmp_path, horizon):
        path = tmp_path / "seqs.csv"
        code, _, _ = run_cli(["minimax", "--T", str(horizon), "--mode", "closed",
                              "--output", str(path)], capsys)
        assert code == 0
        seqs = minimax.closed_form(horizon)
        log_t = math.log(horizon)
        expected = ["r,u_r,v_r,a_r,upper_bound,lower_bound\n"]
        for i in range(horizon):
            expected.append(",".join([
                str(i),
                format_float(float(seqs.u[i])),
                format_float(float(seqs.v[i])),
                format_float(float(seqs.a[i])),
                format_float(1.0 / (horizon - i)),
                format_float(1.0 / (horizon - i + log_t)),
            ]) + "\n")
        assert path.read_text().splitlines(keepends=True) == expected

    def test_closed_form_runs_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = minimax.closed_form

        def counting(horizon):
            calls.append(horizon)
            return real(horizon)

        monkeypatch.setattr(minimax, "closed_form", counting)
        code, out, _ = run_cli(["minimax", "--T", "64", "--mode", "both", "--check-bounds",
                                "--output", str(tmp_path / "seqs.csv")], capsys)
        assert code == 0 and "sandwich violations" in out
        assert calls == [64]

    @pytest.mark.parametrize("mode", ["dp", "closed", "both"])
    def test_check_bounds_needs_two_rounds(self, capsys, tmp_path, mode):
        path = tmp_path / "seqs.csv"
        code, out, err = run_cli(["minimax", "--T", "1", "--mode", mode, "--check-bounds",
                                  "--output", str(path)], capsys)
        assert code == 2
        assert out == "" and "--check-bounds" in err
        assert not path.exists()

    @pytest.mark.parametrize("flags", [["--mode", "closed"], ["--mode", "both"],
                                       ["--mode", "dp", "--check-bounds"],
                                       ["--mode", "dp", "--output", "seqs.csv"]])
    def test_closed_form_cap(self, capsys, tmp_path, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        code, out, err = run_cli(["minimax", "--T", str(minimax.CLOSED_FORM_MAX_HORIZON + 1),
                                  *flags], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == "" and "cap" in err
        assert not (tmp_path / "seqs.csv").exists()

    @pytest.mark.parametrize("name", sorted(MINIMAX_FAILURES))
    def test_failed_check_exits_one_without_output(self, capsys, tmp_path, monkeypatch, name):
        function, corrupt, message = MINIMAX_FAILURES[name]
        real = getattr(minimax, function)
        monkeypatch.setattr(minimax, function, lambda *args: corrupt(real(*args)))
        path = tmp_path / "seqs.csv"
        code, _, err = run_cli(["minimax", "--T", "64", "--mode", "both", "--check-bounds",
                                "--output", str(path)], capsys)
        assert code == 1
        assert err.startswith(message)
        assert not path.exists()

    def test_dp_alone_ignores_closed_form_cap(self, capsys):
        code, out, err = run_cli(["minimax", "--T", str(minimax.CLOSED_FORM_MAX_HORIZON + 1),
                                  "--mode", "dp"], capsys)
        assert code == 2 and out == ""  # the DP's own horizon limit
        assert "DP's limit" in err and "closed form's cap" not in err


class TestValidateCmd:
    def test_config_sets_loss_spec(self, capsys, tmp_path):
        cfg = tmp_path / "val.cfg"
        cfg.write_text("loss=tsallis:1.5\nK=3\nsamples=2000\n")
        code, out, _ = run_cli(["validate", "--config", str(cfg)], capsys)
        assert code == 0
        assert "hessian growth" in out and "ok" in out

    def test_tsallis_ok(self, capsys):
        code, out, _ = run_cli(["validate", "--loss", "tsallis:1.5",
                                "--K", "3", "--samples", "2000"], capsys)
        assert code == 0
        assert "hessian growth" in out and "ok" in out

    @pytest.mark.parametrize("argv, config", [
        (["--loss", "squared", "--scale", "0.5"], ""),
        (["--loss", "tsallis:1.5", "--alpha", "2"], ""),
        ([], "loss=tsallis\nalpha=1.5\n"),
    ], ids=["scale-flag", "alpha-flag", "alpha-config-line"])
    def test_loss_parameters_only_in_the_spec(self, capsys, tmp_path, argv, config):
        # a loss's parameters are spelt only in its spec, e.g. tsallis:1.5
        cfg = tmp_path / "val.cfg"
        cfg.write_text(config)
        code, out, err = run_cli(["validate", "--config", str(cfg), *argv], capsys)
        assert code == 2 and out == "" and "unrecognized arguments" in err

    def test_spherical_reports_lipschitz(self, capsys):
        code, out, _ = run_cli(["validate", "--loss", "spherical", "--K", "4",
                                "--samples", "5000"], capsys)
        assert code == 0
        line = next(l for l in out.split("\n") if l.startswith("lipschitz"))
        assert float(line.split(":")[1]) <= 2.0 + 1e-5

    @pytest.mark.parametrize("spec, hessian", [("tsallis:3", False), ("tsallis:2.5,0.2", False),
                                               ("tsallis:2", True), ("tsallis:1.5,0.5", True)])
    def test_hessian_check_only_where_alpha_at_most_two(self, capsys, spec, hessian):
        # check_hessian_growth refuses alpha > 2; validate once ran it there and exited 1
        code, out, err = run_cli(["validate", "--loss", spec, "--K", "3", "--samples", "500"],
                                 capsys)
        assert code == 0 and err == "" and out.splitlines()[-1] == "ok"
        assert ("hessian growth" in out) == hessian

    def test_scaled_tsallis_range_flagged_not_failed(self, capsys):
        # its values reach scale * [-1, alpha - 1] = [-2, 1]; declared scale * [-alpha, alpha]
        code, out, err = run_cli(["validate", "--loss", "tsallis:1.5,2", "--K", "3",
                                  "--samples", "500"], capsys)
        assert code == 0 and err == ""
        assert "within declared [-3, 3]: True" in out
        assert "flag: declared range [-3, 3] exceeds [-1, 1]" in out

    def test_tsallis_bad_alpha_usage_error(self, capsys):
        code, _, err = run_cli(["validate", "--loss", "tsallis:0.5"], capsys)
        assert code == 2
        assert "alpha" in err

    def test_vshaped_extremes_checked(self, capsys):
        code, out, _ = run_cli(["validate", "--loss", "vshaped", "--K", "4",
                                "--samples", "2000"], capsys)
        assert code == 0
        assert "extremes" in out

    def test_unscaled_squared_flagged_not_failed(self, capsys):
        code, out, _ = run_cli(["validate", "--loss", "squared", "--K", "2",
                                "--samples", "2000"], capsys)
        assert code == 0
        assert "flag" in out

    @pytest.mark.parametrize("spec, patch, failures", [
        # a convex univariate form ||p||^2: improper, not concave, and outside [0, 0.5]
        ("custom", (cli, "make_loss", lambda spec: ucal.CustomLoss(
            lambda p: (p * p).sum(axis=-1), lambda p: 2.0 * p, name=spec, range_bound=(0.0, 0.5))),
         ["properness", "concavity", "range"]),
        ("tsallis:1.5", (losses, "check_hessian_growth", lambda loss, grid, c: False),
         ["hessian-growth"]),
        # the barycenter in place of the vertex e_0, where the v-shaped loss is 0, not -(K-1)/K
        ("vshaped", (cli, "one_hot", lambda index, k: np.full(k, 1.0 / k)), ["extremes"]),
    ], ids=["convex-form", "hessian-growth", "extremes"])
    def test_failed_checks_are_named_and_exit_one(self, capsys, monkeypatch, spec, patch,
                                                  failures):
        # cli imports the losses module when validate runs, and calls its checks through it
        monkeypatch.setattr(*patch)
        code, out, err = run_cli(["validate", "--loss", spec, "--K", "3", "--samples", "2000"],
                                 capsys)
        assert code == 1
        assert err == f"FAIL: {', '.join(failures)}\n"
        assert "ok" not in out.splitlines()

    @pytest.mark.parametrize("flags, points, k", [
        (["--K", "1678"], VALIDATION_RANDOM_POINTS, 1678),
        (["--samples", "8388609", "--K", "2"], 8388609, 2),
    ], ids=["grid-times-K", "samples-times-K"])
    def test_draw_above_the_cell_cap_refused_before_drawing(self, capsys, monkeypatch, flags,
                                                            points, k):
        for name in ("random_simplex_points", "validation_points"):
            monkeypatch.setattr(losses, name, _never_called)
        code, out, err = run_cli(["validate", "--loss", "squared", *flags], capsys)
        assert code == 2 and out == ""
        assert (f"a draw of {points} points at K={k} has {points * k} cells, above the cap of "
                f"{engine.MAX_GAME_CELLS} (2^24) cells") in err

    def test_draw_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(engine, "MAX_GAME_CELLS", 2 * VALIDATION_RANDOM_POINTS)
        assert run_cli(["validate", "--loss", "squared", "--K", "2", "--samples", "2000"],
                       capsys)[0] == 0
        code, out, _ = run_cli(["validate", "--loss", "squared", "--K", "2",
                                "--samples", str(VALIDATION_RANDOM_POINTS + 1)], capsys)
        assert code == 2 and out == ""


class TestSweepCmd:
    def test_geometric_horizon_grid(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli([
            "sweep", "--forecaster", "ftl", "--adversary", "alternating",
            "--loss", "vshaped", "--K", "2", "--T-start", "8", "--T-stop", "64",
            "--T-factor", "2", "--trials", "1", "--output", str(path)], capsys)
        assert code == 0
        lines = path.read_text().strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[5]) for r in rows] == [8, 16, 32, 64]
        assert [float(r[-1]) for r in rows] == [2.0, 4.0, 8.0, 16.0]
        assert all(r[0] == "sweep" for r in rows)

    @pytest.mark.parametrize("k, t_start, t_stop, message", [
        ("2", "1", "1000000000000", "above the cap"),
        ("0", "1", "1000000000000", "need at least 2 outcomes"),
        ("1", "1", str(1 << 24), "need at least 2 outcomes"),
        ("2", "-100000000", "8", "--T-start must be >= 1"),
        ("2", "0", "8", "--T-start must be >= 1"),
    ])
    def test_runaway_grid_refused_up_front(self, capsys, tmp_path, k, t_start, t_stop, message):
        path = tmp_path / "out.csv"
        start = time.perf_counter()
        code, out, err = run_cli(["sweep", *GAME, "--K", k, "--T-start", t_start,
                                  "--T-stop", t_stop, "--T-factor", "1",
                                  "--output", str(path)], capsys)
        assert code == 2
        assert out == "" and message in err
        assert not path.exists()
        assert time.perf_counter() - start < 1.0

    def test_fractional_factor_rounds_each_step(self, capsys):
        code, _, err = run_cli(["sweep", *GAME, "--K", "2", "--T-start", "4", "--T-stop", "9",
                                "--T-factor", "1.5"], capsys)
        assert code == 0
        assert "swept T=[4, 6, 9]" in err

    def test_huge_factor_ends_the_grid(self, capsys):
        code, _, err = run_cli([
            "sweep", "--forecaster", "ftl", "--adversary", "alternating", "--loss", "vshaped",
            "--K", "2", "--T-start", "8", "--T-stop", "64", "--T-factor", "1e308"], capsys)
        assert code == 0
        assert "swept T=[8]" in err

GAME = ["--forecaster", "ftl", "--adversary", "alternating", "--loss", "vshaped"]


@pytest.mark.parametrize("flag, spec", [
    ("--loss", "squared:1,2"),
    ("--loss", "tsallis:1.5,0.5,9"),
    ("--loss", "vshaped:banana"),
    ("--loss", "spherical:1"),
    ("--loss", "tsallis"),
    ("--forecaster", "ftl:7"),
    ("--adversary", "alternating:3"),
    ("--adversary", "fixed"),
    ("--adversary", "greedy"),
    ("--adversary", "banana"),
])
def test_spec_with_wrong_arity_is_usage_error(capsys, tmp_path, monkeypatch, flag, spec):
    monkeypatch.chdir(tmp_path)
    game = {"--forecaster": "ftl", "--adversary": "alternating", "--loss": "vshaped", flag: spec}
    argv = ["run", *[tok for pair in game.items() for tok in pair], "--K", "2", "--T", "8",
            "--output", "out.csv"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and spec in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, message", [
    (["run", *GAME, "--K", "1", "--T", "10"], "outcomes"),
    (["sweep", *GAME, "--K", "1", "--T-start", "4", "--T-stop", "8"], "outcomes"),
    (["sweep", *GAME, "--K", "2", "--T-start", "4", "--T-stop", "8", "--T-factor", "nan"],
     "--T-factor"),
    (["sweep", *GAME, "--K", "2", "--T-start", "4", "--T-stop", "8", "--T-factor", "inf"],
     "--T-factor"),
    *[(["sweep", *GAME, "--K", "2", "--T-start", "4", "--T-stop", "8", "--T-factor", factor],
       "--T-factor must be finite and above 1") for factor in ("-3", "0", "0.5", "1")],
    (["validate", "--loss", "vshaped", "--K", "1"], "--K"),
    (["validate", "--loss", "spherical", "--K", "1"], "--K"),
    (["validate", "--loss", "squared", "--samples", "0"], "--samples"),
    (["validate", "--loss", "vshaped", "--tol", "nan"], "--tol"),
    (["validate", "--loss", "vshaped", "--tol", "-1"], "--tol"),
    (["validate", "--loss", "vshaped", "--tol", "inf"], "--tol"),
    (["minimax", "--T", "0", "--mode", "closed"], "--T"),
    (["minimax", "--T", "0", "--mode", "dp"], "--T"),
    (["minimax", "--T", "-3", "--mode", "both"], "--T"),
    (["run", *GAME, "--K", "2", "--T", "10", "--workers", "0"], "--workers must be >= 1"),
    (["run", *GAME, "--K", "2", "--T", "10", "--workers", "-3"], "--workers must be >= 1"),
    (["sweep", *GAME, "--K", "2", "--T-start", "4", "--T-stop", "8", "--workers", "0"],
     "--workers must be >= 1"),
    (["run", *GAME, "--loss", "squared:nan", "--K", "2", "--T", "8"], "scale must be finite"),
    (["run", *GAME, "--loss", "squared:inf", "--K", "2", "--T", "8"], "scale must be finite"),
    (["run", *GAME, "--loss", "tsallis:1.5,nan", "--K", "2", "--T", "8"],
     "scale must be finite"),
    (["run", *GAME, "--loss", "tsallis:1.5,inf", "--K", "2", "--T", "8"],
     "scale must be finite"),
    (["run", *GAME, "--loss", "tsallis:inf", "--K", "2", "--T", "8"], "alpha must be finite"),
    (["run", *GAME, "--adversary", "greedy:squared:nan", "--K", "2", "--T", "8"],
     "scale must be finite"),
    (["run", *GAME, "--forecaster", "static:0.5", "--K", "3", "--T", "8"],
     "static forecaster needs 3 probabilities, got 1"),
    (["run", *GAME, "--adversary", "fixed:missing.txt", "--K", "2", "--T", "8"],
     "cannot load fixed sequence: [Errno 2] No such file or directory: 'missing.txt'"),
    (["run", *GAME, "--loss", "squared:abc", "--K", "2", "--T", "8"],
     "bad numeric arguments 'abc'"),
    (["run", "--forecaster", "ftl", "--adversary", "alternating", "--loss", ";", "--K", "2",
      "--T", "8"], "need at least one --loss"),
    (["sweep", *GAME, "--K", "2", "--T-start", "16", "--T-stop", "8"], "empty horizon grid"),
])
def test_out_of_range_number_is_usage_error(capsys, tmp_path, monkeypatch, command, message):
    monkeypatch.chdir(tmp_path)
    output = [] if command[0] == "validate" else ["--output", "out.csv"]
    code, out, err = run_cli(command + output, capsys)
    assert code == 2
    assert out == "" and message in err
    assert not (tmp_path / "out.csv").exists()


def _never_called(*args, **kwargs):
    raise AssertionError("ran although the command should have been refused")


OUTPUT_COMMANDS = {
    "run": ["run", *GAME, "--K", "2", "--T", "8"],
    "sweep": ["sweep", *GAME, "--K", "2", "--T-start", "4", "--T-stop", "8"],
    "minimax": ["minimax", "--T", "16", "--mode", "both"],
}


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
@pytest.mark.parametrize("where", ["missing-directory", "directory", "read-only-directory",
                                   "read-only-file"])
def test_unwritable_output_refused_up_front(capsys, tmp_path, monkeypatch, command, where):
    monkeypatch.setattr(engine, "run_experiment", _never_called)
    for name in ("dp_value", "closed_form"):
        monkeypatch.setattr(minimax, name, _never_called)
    path = {"missing-directory": tmp_path / "missing" / "x.csv",
            "directory": tmp_path}.get(where, tmp_path / "x.csv")
    if where == "read-only-file":
        path.write_text("kept\n")
    if where.startswith("read-only"):
        # a root process writes whatever the file modes say, so the denial is os.access's
        denied, access = str(path if where == "read-only-file" else tmp_path), os.access
        monkeypatch.setattr(os, "access", lambda target, mode, **kwargs: (
            os.fspath(target) != denied and access(target, mode, **kwargs)))
    code, out, err = run_cli(OUTPUT_COMMANDS[command] + ["--output", str(path)], capsys)
    assert code == 2
    assert out == "" and err.startswith(f"error: cannot write --output {path}: ")
    kept = {"x.csv": "kept\n"} if where == "read-only-file" else {}
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == kept


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_failed_write_exits_one_with_a_message(capsys, command):
    code, _, err = run_cli(OUTPUT_COMMANDS[command] + ["--output", "/dev/full"], capsys)
    assert code == 1
    assert err.startswith("error: cannot write --output /dev/full") and "Traceback" not in err


# FTL vs i.i.d. at K=2, T=2, a trial of 4 cells; under a budget of 4 cells each trial is a
# block of its own, so n trials are n jobs
POOL_GAME = ["--forecaster", "ftl", "--adversary", "iid-uniform", "--loss", "vshaped",
             "--K", "2", "--T", "2"]


@pytest.mark.parametrize("cpus, trials, pool", [
    (3, 1000, 3),
    (3, 2, 2),
    (1, 1000, None),
    (None, 1000, None),
])
def test_pool_capped_at_machine(capsys, monkeypatch, pool_sizes, cpus, trials, pool):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(engine, "SCORE_CELLS", 4)
    code, out, _ = run_cli(["run", *POOL_GAME, "--trials", str(trials), "--workers", "1000"],
                           capsys)
    assert code == 0 and out.count("\n") == 1 + trials
    assert pool_sizes == ([] if pool is None else [pool])


def test_pool_ignores_ucal_threads(capsys, monkeypatch, pool_sizes):
    # the pool is min(--workers, CPU count, jobs); no environment variable caps it
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(engine, "SCORE_CELLS", 4)
    monkeypatch.setenv("UCAL_THREADS", "1")
    code, _, _ = run_cli(["run", *POOL_GAME, "--trials", "3", "--workers", "1000"], capsys)
    assert code == 0 and pool_sizes == [3]


def test_one_lockstep_block_starts_no_pool(capsys, monkeypatch, pool_sizes):
    # K=2, T=4 holds all 40 greedy trials in one block, more games than rounds, which plays
    # whole in this process at any worker count
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    base = ["run", "--forecaster", "ftpl-uniform", "--adversary", "greedy:squared",
            "--loss", "squared", "--K", "2", "--T", "4", "--trials", "40", "--seed", "3"]
    code, serial, _ = run_cli(base, capsys)
    assert code == 0
    code, out, _ = run_cli(base + ["--workers", "2"], capsys)
    assert code == 0 and out == serial
    assert pool_sizes == []


@pytest.mark.parametrize("adversary", ["greedy:squared", "iid-uniform"])
def test_block_cuts_do_not_change_bytes(capsys, monkeypatch, adversary):
    base = ["sweep", "--forecaster", "ftpl-uniform", "--adversary", adversary,
            "--loss", "vshaped;squared:0.5", "--K", "3", "--T-start", "16", "--T-stop", "64",
            "--trials", "7", "--seed", "5"]
    code, serial, _ = run_cli(base, capsys)
    assert code == 0
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    # unpatched, greedy plays one staircase of all three horizons, whole, and iid-uniform one
    # block of all 7 trials; then each horizon is its own group, in 1-trial blocks at T=64
    # and T=32 and 2-trial ones at T=16
    budget = "SCORE_CELLS" if adversary == "iid-uniform" else "BLOCK_CELLS"
    for cells in (getattr(engine, budget), 2 * 16 * 3):
        monkeypatch.setattr(engine, budget, cells)
        for workers in ("1", "2", "4"):
            code, out, _ = run_cli(base + ["--workers", workers], capsys)
            assert code == 0 and out == serial
    assert len(engine.trial_jobs(cli.make_adversary(adversary, 3), [16, 32, 64], 7)) >= 4


CSV_DIGESTS = {
    "ftpl-geometric-iid": (
        ["run", "--forecaster", "ftpl-geometric", "--adversary", "iid-uniform",
         "--loss", "vshaped;squared:0.5;spherical;tsallis:1.5", "--K", "5", "--T", "256",
         "--trials", "8", "--seed", "3"],
        "02e33692ddad18f923f6cd181cbdcb8193d1a034eceb53eccbdab9dc0876b225"),
    "ftpl-uniform-greedy-sweep": (
        ["sweep", "--forecaster", "ftpl-uniform", "--adversary", "greedy:squared",
         "--loss", "vshaped;squared:0.5;spherical", "--K", "3", "--T-start", "16",
         "--T-stop", "256", "--trials", "4", "--seed", "3"],
        "39f03b18b42243b2dea01987d2e55a19285165184353d977dac98046d4f08b1e"),
    "ftl-alternating": (
        ["run", "--forecaster", "ftl", "--adversary", "alternating",
         "--loss", "vshaped;squared;spherical", "--K", "3", "--T", "101", "--trials", "2",
         "--seed", "3"],
        "caad2592bb436673091692fb4536d4963b6452f882f9e3b30cca24081a4cf49d"),
    "static-greedy": (
        ["run", "--forecaster", "static:0.2,0.3,0.5", "--adversary", "greedy:vshaped",
         "--loss", "vshaped;squared;tsallis:1.5", "--K", "3", "--T", "64", "--trials", "3",
         "--seed", "3"],
        "db8945c89875308a1cf1e28aa2a2dc07e0d6adaebaebc39ee812b76b34b1b813"),
    # K = 10: the K axis summed by numpy's pairwise reduce, not row_sum's column adds
    "ftpl-geometric-iid-k10": (
        ["run", "--forecaster", "ftpl-geometric", "--adversary", "iid-uniform",
         "--loss", "vshaped;squared:0.5;spherical;tsallis:1.5", "--K", "10", "--T", "256",
         "--trials", "6", "--seed", "3"],
        "8a1a21e9cfd67e459fdf8d134f15fe7af89c8e0a51cf10a6a5724a31d65b8baf"),
    # q = sqrt(5/16) >= 1/3: geometric noise by numpy's search, not by inversion
    "ftpl-geometric-iid-search": (
        ["run", "--forecaster", "ftpl-geometric", "--adversary", "iid-uniform",
         "--loss", "vshaped;squared:0.5;spherical;tsallis:1.5", "--K", "5", "--T", "16",
         "--trials", "8", "--seed", "3"],
        "58e99b19015548d10369b2578669b2796a27cd33d83e8a609f90a3b86b2a11d3"),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CSV_DIGESTS))
def test_csv_bytes_pinned(capsys, tmp_path, monkeypatch, name, workers):
    """The CSV bytes of six small command lines, as sha256 digests.

    A change that should leave every game and score as it is must leave
    these digests as they are.  They also pin the streams of numpy's
    ``Generator`` (recorded with numpy 2.4.6): a numpy whose geometric or
    integer draws differ changes them, and then they must be re-recorded.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv, digest = CSV_DIGESTS[name]
    path = tmp_path / "out.csv"
    code, _, _ = run_cli(argv + ["--workers", workers, "--output", str(path)], capsys)
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_fields_with_commas_are_quoted(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, _, _ = run_cli(["run", "--forecaster", "static:0.2,0.3,0.5",
                          "--adversary", "alternating", "--loss", "tsallis:1.5,0.5;vshaped",
                          "--experiment", "a,b", "--K", "3", "--T", "8", "--trials", "2",
                          "--output", str(path)], capsys)
    assert code == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 and all(len(row) == 9 and None not in row for row in rows)
    assert {(row["experiment"], row["forecaster"], row["adversary"], row["K"], row["T"],
             row["seed"]) for row in rows} == {("a,b", "static:0.2,0.3,0.5", "alternating",
                                                "3", "8", "0")}
    assert [(row["trial"], row["loss"]) for row in rows] == [
        ("0", "tsallis:1.5,0.5"), ("0", "vshaped"), ("1", "tsallis:1.5,0.5"), ("1", "vshaped")]
    assert all(math.isfinite(float(row["regret"])) for row in rows)


REGRET_DIGESTS = {
    "ftl-alternating": "8b19e07426d27fdeb2f4a4d164d8355fd6be61d1bbfeac2c5dc37d04ef65b58c",
    "ftpl-geometric-iid": "27128a4391a21ef0fe17b6652f1069485121be24af6d158c146e8dcda8940076",
    "ftpl-geometric-iid-k10":
        "1efa528d8a539c8f69a0869833618874ab438687d81989684e51ce8f3e800635",
    "ftpl-geometric-iid-search":
        "4c03228149224ea60692fe7c33921a21c48a1cee82749443c7f4d666b7949cd2",
    "ftpl-uniform-greedy-sweep":
        "c77d4eca4d29df81527905bc874574655c49e027279d569ddff4129ae9bfcbb2",
    "static-greedy": "37b4796776352b6d0296885ed7c1f40c8c973ca87496bc03eb96b27cf9388501",
}


@pytest.mark.parametrize("name", sorted(REGRET_DIGESTS))
def test_regrets_pinned_at_full_precision(name):
    """The regret matrices of ``CSV_DIGESTS``' command lines, every bit, as sha256 digests.

    The CSV rounds regrets to 12 significant digits, so a last-bit change in
    the loss or game arithmetic can leave its bytes as they are; this pin
    hashes the float64 bytes of each horizon's ``run_trials`` matrix, in
    horizon order.
    """
    args = cli.build_parser().parse_args(CSV_DIGESTS[name][0])
    horizons = [args.T] if args.command == "run" else [16, 32, 64, 128, 256]
    losses, adversary, forecasters = cli._resolve(args, horizons)
    digest = hashlib.sha256()
    for horizon, forecaster in zip(horizons, forecasters):
        digest.update(engine.run_trials(forecaster, adversary, losses, args.trials,
                                        args.seed).tobytes())
    assert digest.hexdigest() == REGRET_DIGESTS[name]


VALIDATE_DIGESTS = {
    ("brier", 3): "ea98acbcd92d7e4b646af132c38ed4433bd3692461b6e465d2da15859760b9db",
    ("brier", 10): "bb16fe1c3ccc38558c8d8debb26fb1aa3ccfc10455b0eb15f419171e40e2108a",
    ("spherical", 3): "1156cc55894f5a1588b3526fc48532b3176c3ac26aaea8fbc0f98879656b867b",
    ("spherical", 10): "c52efbfd019087fbcf91af8754c002b5d459c2f687341f04790a709a86c9c313",
    ("squared", 3): "1df5e8d6da8e6a61884ab74d0caca5e6776d39ce6c60cb54e083a1043e4ac46a",
    ("squared", 10): "50f146bfb55922eaa48d9cb5c4170604faabe3581829eb3759238118ee7044f3",
    ("tsallis:1.5", 3): "7799a64095c80f23e0e895241d1a58aabded05096419b6c814d97d009eed312b",
    ("tsallis:1.5", 10): "91792eb34b2fea0773afb238452a92ce29077efa012d2c2b74435d9cc6e2cb2d",
    ("vshaped", 3): "235a567e8e52e5010e6e79844bbfea0309a97a80ed6712b6588c57f961b16cb3",
    ("vshaped", 10): "cd367ce1bf9081448f37e297ca70f8c8cea8da7d9673519bcfc87caf1f6d4022",
}


@pytest.mark.parametrize("loss, k", sorted(VALIDATE_DIGESTS))
def test_validate_output_pinned(capsys, loss, k):
    """The printed report of ``validate --K k --samples 2000``, as sha256 digests.

    Every number in it comes from the loss tables (properness, range,
    Lipschitz estimate, extremes), so a change that should leave the losses
    as they are must leave these digests as they are.  At K = 10 the tables'
    sums over the K axis are numpy's pairwise ones, not ``row_sum``'s column adds.
    """
    code, out, _ = run_cli(["validate", "--loss", loss, "--K", str(k), "--samples", "2000"],
                           capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VALIDATE_DIGESTS[loss, k]


def _import_ucal(module="ucal", **env):
    """``import <module>`` in a fresh interpreter: its thread count and OPENBLAS_NUM_THREADS."""
    probe = (f"import os, {module}; "
             "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
             "else 0, os.environ['OPENBLAS_NUM_THREADS'])")
    env = dict({key: value for key, value in os.environ.items()
                if key != "OPENBLAS_NUM_THREADS"}, **env)
    env["PYTHONPATH"] = str(Path(ucal.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


def _numpy_blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy without mode="dicts"
        return ""


def test_import_defaults_blas_threads_to_one():
    assert _import_ucal()[1] == "1"
    assert _import_ucal(OPENBLAS_NUM_THREADS="2")[1] == "2"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
@pytest.mark.skipif("openblas" not in _numpy_blas().lower(), reason="numpy's BLAS is not OpenBLAS")
def test_import_starts_no_blas_threads():
    assert _import_ucal()[0] == "1"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
@pytest.mark.skipif("openblas" not in _numpy_blas().lower(), reason="numpy's BLAS is not OpenBLAS")
def test_numpy_through_ucal_starts_no_blas_threads():
    # `import ucal` alone loads no numpy; the engine loads it, after ucal set the variable
    assert _import_ucal("ucal.engine") == ["1", "1"]


def test_import_leaves_the_process_pool_out():
    # the pool module is imported only by a run that starts workers
    probe = "import sys, ucal.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(ucal.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.split() == ["False"]


def _fresh(*argv):
    """A fresh interpreter's run of ``argv``, with this ucal importable; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(ucal.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result


def test_only_the_minimax_command_loads_minimax(tmp_path):
    # importing the CLI and playing games never compiles the exact solver
    probe = "import sys, ucal.cli; print('ucal.minimax' in sys.modules)"
    assert _fresh("-c", probe).stdout == "False\n"
    as_main = ("import runpy, sys\ntry:\n    runpy.run_module('ucal.cli', run_name='__main__')\n"
               "except SystemExit as exit:\n"
               "    print(exit.code, 'ucal.minimax' in sys.modules, file=sys.stderr)")
    run = ["run", "--forecaster", "ftl", "--adversary", "iid-uniform", "--loss", "squared",
           "--K", "3", "--T", "8", "--trials", "2", "--output", str(tmp_path / "run.csv")]
    assert _fresh("-c", as_main, *run).stderr.split() == ["0", "False"]
    assert _fresh("-c", as_main, "minimax", "--T", "8").stderr.split() == ["0", "True"]


GAME_MODULES = ["ucal.adversaries", "ucal.engine", "ucal.forecasters", "ucal.losses"]


@pytest.mark.parametrize("argv", [
    ["minimax", "--T", "8"],
    ["run", "--forecaster", "ftl", "--adversary", "iid-uniform", "--loss", "squared", "--K", "3",
     "--T", "8", "--trials", "2"],
    ["sweep", "--forecaster", "ftl", "--adversary", "greedy:vshaped", "--loss", "squared",
     "--K", "3", "--T-start", "2", "--T-stop", "8", "--trials", "2"],
    ["validate", "--loss", "tsallis:1.5", "--K", "3", "--samples", "200"],
], ids=lambda argv: argv[0])
def test_each_command_loads_only_the_modules_it_runs(argv, tmp_path):
    # `python -m ucal.cli`: the exact game needs no game module, and a game no exact solver
    if argv[0] in ("run", "sweep"):  # its summary then goes to stdout, not stderr
        argv = argv + ["--output", str(tmp_path / "out.csv")]
    as_main = ("import runpy, sys\ntry:\n    runpy.run_module('ucal.cli', run_name='__main__')\n"
               "except SystemExit as exit:\n"
               "    print(exit.code, *sorted(name for name in sys.modules\n"
               "                             if name.startswith('ucal.')), file=sys.stderr)")
    code, *loaded = _fresh("-c", as_main, *argv).stderr.split()
    assert code == "0"
    if argv[0] == "minimax":
        assert set(loaded) <= {"ucal.cli", "ucal.core", "ucal.minimax"}
        assert "ucal.minimax" in loaded
    else:
        assert "ucal.minimax" not in loaded
        assert set(GAME_MODULES) <= set(loaded)


def test_import_ucal_loads_no_submodule():
    probe = "import sys, ucal; print(sorted(name for name in sys.modules if 'ucal' in name))"
    assert _fresh("-c", probe).stdout == "['ucal']\n"


@pytest.mark.parametrize("first", ["ucal.minimax", "ucal.dp_value", "dir(ucal)",
                                   "exec('from ucal import *', {})"])
def test_minimax_names_served_on_first_use(first):
    # whichever use comes first loads the module, and then every name of __all__ is there
    probe = (f"import sys, ucal; loaded = 'ucal.minimax' in sys.modules; {first}; star = {{}}; "
             "exec('from ucal import *', star); "
             "print(loaded, sorted(set(ucal.__all__) - (set(star) & set(dir(ucal)))), "
             "'minimax' in dir(ucal), ucal.dp_value is ucal.minimax.dp_value is star['dp_value'])")
    assert _fresh("-c", probe).stdout.split() == ["False", "[]", "True", "True"]


def test_benchmark_probe_resolves_the_mc_oblivious_command(tmp_path, monkeypatch):
    # the benchmark times its set-up with this probe; a CLI name it calls that goes away
    # would end every benchmark run with no result
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    argv = importlib.import_module("workloads").mc_oblivious(0, "full", tmp_path).commands[0].argv
    env = dict(os.environ, PYTHONPATH=str(Path(ucal.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, str(bench / "probe.py"), *argv], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    timing = json.loads(result.stdout.strip().splitlines()[-1])
    assert sorted(timing) == ["import_s", "resolve_s"]
    assert all(value >= 0 for value in timing.values())
    assert list(tmp_path.iterdir()) == []  # the probe plays no round and writes no CSV

import math
import time

import pytest

from ucal import engine, minimax
from ucal.cli import main


def run_cli(args, capsys):
    code = main(args)
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

    def test_workers_do_not_change_bytes(self, capsys, tmp_path, monkeypatch):
        base = ["run", "--forecaster", "ftpl-geometric", "--adversary", "iid-uniform",
                "--loss", "vshaped", "--K", "2", "--T", "32", "--trials", "4", "--seed", "3"]
        serial = tmp_path / "serial.csv"
        assert run_cli(base + ["--output", str(serial)], capsys)[0] == 0
        parallel = tmp_path / "parallel.csv"
        assert run_cli(base + ["--workers", "4", "--output", str(parallel)], capsys)[0] == 0
        capped = tmp_path / "capped.csv"
        monkeypatch.setenv("UCAL_THREADS", "1")
        assert run_cli(base + ["--workers", "4", "--output", str(capped)], capsys)[0] == 0
        assert serial.read_bytes() == parallel.read_bytes() == capped.read_bytes()

    @pytest.mark.parametrize("command", [
        ["run", "--adversary", "greedy:vshaped", "--T", "50"],
        ["sweep", "--adversary", "greedy:squared", "--T-start", "16", "--T-stop", "64"],
    ])
    def test_adaptive_workers_do_not_change_bytes(self, command, capsys, tmp_path,
                                                  monkeypatch):
        base = command + ["--forecaster", "ftpl-uniform", "--loss", "vshaped;squared:0.5",
                          "--K", "3", "--trials", "3", "--seed", "5"]
        bodies = []
        for workers in ("1", "2", "4"):
            path = tmp_path / f"w{workers}.csv"
            assert run_cli(base + ["--workers", workers, "--output", str(path)], capsys)[0] == 0
            bodies.append(path.read_bytes())
        monkeypatch.setenv("UCAL_THREADS", "1")
        capped = tmp_path / "capped.csv"
        assert run_cli(base + ["--workers", "4", "--output", str(capped)], capsys)[0] == 0
        bodies.append(capped.read_bytes())
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
        code, _, err = run_cli(["minimax", "--T", "100000", "--mode", "both"], capsys)
        assert code == 1

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

    @pytest.mark.parametrize("horizon", [1, 2, 3 * minimax.CSV_CHUNK_ROWS + 5])
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
                engine.format_float(float(seqs.u[i])),
                engine.format_float(float(seqs.v[i])),
                engine.format_float(float(seqs.a[i])),
                engine.format_float(1.0 / (horizon - i)),
                engine.format_float(1.0 / (horizon - i + log_t)),
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

    def test_dp_alone_ignores_closed_form_cap(self, capsys):
        code, out, _ = run_cli(["minimax", "--T", str(minimax.CLOSED_FORM_MAX_HORIZON + 1),
                                "--mode", "dp"], capsys)
        assert code == 1 and out == ""  # dp_value's own horizon limit


class TestValidateCmd:
    def test_tsallis_ok(self, capsys):
        code, out, _ = run_cli(["validate", "--loss", "tsallis", "--alpha", "1.5",
                                "--K", "3", "--samples", "2000"], capsys)
        assert code == 0
        assert "hessian growth" in out and "ok" in out

    def test_spherical_reports_lipschitz(self, capsys):
        code, out, _ = run_cli(["validate", "--loss", "spherical", "--K", "4",
                                "--samples", "5000"], capsys)
        assert code == 0
        line = next(l for l in out.split("\n") if l.startswith("lipschitz"))
        assert float(line.split(":")[1]) <= 2.0 + 1e-5

    def test_tsallis_bad_alpha_usage_error(self, capsys):
        code, _, err = run_cli(["validate", "--loss", "tsallis", "--alpha", "0.5"], capsys)
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

"""End-to-end command-line checks through real subprocesses."""

import json
import subprocess
import sys

import numpy as np
import pytest

from packdim import DiscreteMeasure, write_measure_csv

CLI = [sys.executable, "-m", "packdim.cli"]


def run_cli(*argv, check=False):
    proc = subprocess.run(
        CLI + [str(a) for a in argv], capture_output=True, text=True
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


@pytest.fixture
def measure_csv(tmp_path):
    n = 256
    atoms = ((np.arange(n) + 0.5) / n).reshape(-1, 1)
    mu = DiscreteMeasure(atoms, np.full(n, 1.0 / n))
    path = tmp_path / "uniform.csv"
    write_measure_csv(mu, str(path))
    return str(path)


class TestSimulate:
    def test_csv_with_sidecar(self, tmp_path):
        out = tmp_path / "path.csv"
        proc = run_cli(
            "--seed", 3, "--out", out, "simulate", "--alpha", 0.5,
            "--points", 65, check=True,
        )
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "t1,x1"
        assert len(lines) == 67
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0  # the field vanishes at the origin
        sidecar = json.loads((tmp_path / "path.csv.json").read_text())
        assert sidecar["alpha"] == 0.5
        assert sidecar["seed"] == 3
        assert "config_hash" in sidecar

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli(
                "--seed", 11, "--out", out, "simulate", "--alpha", 0.4,
                "--points", 33, check=True,
            )
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("--seed", 1, "--out", a, "simulate", "--alpha", 0.4, check=True)
        run_cli("--seed", 2, "--out", b, "simulate", "--alpha", 0.4, check=True)
        assert a.read_bytes() != b.read_bytes()

    def test_json_format(self):
        proc = run_cli(
            "--seed", 3, "--format", "json", "simulate", "--alpha", 0.5,
            "--points", 17, check=True,
        )
        payload = json.loads(proc.stdout)
        assert payload["points"][0] == [0.0]
        assert payload["values"][0] == [0.0]
        assert len(payload["values"]) == 17

    def test_constant_drift_shifts_values(self):
        base = json.loads(
            run_cli(
                "--seed", 3, "--format", "json", "simulate", "--alpha", 0.5,
                "--points", 9, check=True,
            ).stdout
        )
        moved = json.loads(
            run_cli(
                "--seed", 3, "--format", "json", "simulate", "--alpha", 0.5,
                "--points", 9, "--drift", "constant:2.0", check=True,
            ).stdout
        )
        for u, v in zip(base["values"], moved["values"]):
            assert v[0] == pytest.approx(u[0] + 2.0, abs=1e-12)


    @pytest.mark.parametrize("drift", ["constant:abc", "power:x:1", "power:1.5:"])
    def test_malformed_drift_exits_two(self, drift):
        proc = run_cli("simulate", "--alpha", 0.5, "--points", 8, "--drift", drift)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot parse drift {drift!r}")
        assert "Traceback" not in proc.stderr


class TestDimAndProfile:
    def test_dim_json_estimate(self, measure_csv):
        proc = run_cli(
            "--format", "json", "dim", measure_csv, "--j-min", 2, "--j-max", 6,
            check=True,
        )
        payload = json.loads(proc.stdout)
        assert payload["guard_status"] == "ok"
        assert payload["estimate"] == pytest.approx(1.0, abs=0.05)

    def test_dim_csv_table(self, measure_csv):
        proc = run_cli("dim", measure_csv, "--j-min", 2, "--j-max", 6, check=True)
        lines = proc.stdout.splitlines()
        assert lines[1] == "scale,V,ratio"
        assert len(lines) == 7  # stamp + header + five scales

    def test_resolution_guard_exits_one(self, measure_csv):
        proc = run_cli(
            "--format", "json", "dim", measure_csv, "--j-min", 3, "--j-max", 12
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["estimate"] is None
        assert payload["guard_status"] != "ok"

    def test_profile(self, measure_csv):
        proc = run_cli(
            "--format", "json", "profile", measure_csv, "--beta", 0.25,
            "--j-min", 2, "--j-max", 6, check=True,
        )
        payload = json.loads(proc.stdout)
        # five coarse scales only, so the exponent sits a bit under beta
        assert 0.15 < payload["estimate"] < 0.30

    def test_missing_measure_file_exits_two(self, tmp_path):
        proc = run_cli("dim", str(tmp_path / "nope.csv"))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_non_numeric_cell_exits_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,weight\n0.5,0.5\n0.25,abc\n")
        proc = run_cli("profile", bad, "--beta", 0.5)
        assert proc.returncode == 2
        assert proc.stderr == "error: row 3, column weight: 'abc' is not a number\n"


class TestTxset:
    def test_table_ratios(self):
        proc = run_cli(
            "--format", "json", "txset", "--beta", 0.5, "--levels", 12, check=True
        )
        payload = json.loads(proc.stdout)
        rows = payload["rows"]
        assert len(rows) == 12
        assert rows[0]["ratio_at_eta"] == pytest.approx(0.5, abs=1e-12)
        assert rows[0]["log_inv_eta"] == pytest.approx(np.log(64.0), rel=1e-12)
        # the covering ratio at the eta scales settles back onto beta
        assert rows[-1]["ratio_at_eta"] == pytest.approx(0.5, abs=1e-3)

    def test_csv_shape(self):
        proc = run_cli("txset", "--beta", 0.5, "--levels", 4, check=True)
        lines = proc.stdout.splitlines()
        assert lines[1] == "k,log_inv_delta,log_inv_eta,log_m,ratio_at_eta,ratio_at_delta"
        assert len(lines) == 6


class TestPredict:
    def test_half_half_values(self):
        proc = run_cli(
            "--format", "json", "predict", "--alpha", 0.5, "-d", 1,
            "--beta", 0.5, check=True,
        )
        payload = json.loads(proc.stdout)
        assert payload["image"] == pytest.approx(1.0, rel=1e-15)
        assert payload["graph_upper"] == pytest.approx(1.0, rel=1e-15)
        assert payload["tx_lower"] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert payload["graph_lower"] == pytest.approx(0.75, rel=1e-12)
        assert payload["crossing_x"] == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert payload["crossing_value"] == pytest.approx(0.75, rel=1e-12)

    def test_supercritical_drops_lower_bounds(self):
        proc = run_cli(
            "--format", "json", "predict", "--alpha", 0.6, "-d", 2,
            "--beta", 0.5, check=True,
        )
        payload = json.loads(proc.stdout)
        assert "image" in payload
        assert "tx_lower" not in payload
        assert "graph_lower" not in payload

    def test_csv_lists_sorted_names(self):
        proc = run_cli("predict", "--alpha", 0.5, "-d", 1, "--beta", 0.5, check=True)
        names = [line.split(",")[0] for line in proc.stdout.splitlines()[2:]]
        assert names == sorted(names)


class TestVerify:
    def test_doubling_check_passes(self):
        proc = run_cli("verify", "--check", "doubling", check=True)
        assert proc.returncode == 0

    def test_interval_bound_json_lines(self):
        proc = run_cli(
            "--format", "json", "verify", "--check", "interval-bound", check=True
        )
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 3  # one report per scanned beta
        for line in lines:
            rep = json.loads(line)
            assert rep["violations"] == 0
            assert rep["worst_ratio"] <= 0.91

    def test_csv_report(self):
        proc = run_cli("verify", "--check", "parts", check=True)
        lines = proc.stdout.splitlines()
        assert lines[1] == "name,trials,violations,worst_ratio"
        assert all(",0," in line for line in lines[2:])


class TestExperiment:
    CONFIG = {
        "name": "cli-thirds",
        "alpha": 0.3,
        "d": 1,
        "seed": 3,
        "set": {"kind": "cantor", "branches": 2, "ratio": 1.0 / 3.0, "level": 7},
        "grid": {"j_min": 2, "j_max": 5},
        "replicas": 2,
        "mode": "image",
        "tolerance": 0.3,
    }

    def write_config(self, directory, payload=None):
        payload = payload or self.CONFIG
        path = directory / f"{payload['name']}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return path

    def test_run_writes_reports(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "results"
        proc = run_cli("--out", out, "experiment", "run", cfg, check=True)
        payload = json.loads(proc.stdout)
        assert payload["pass"] is True
        assert (out / "cli-thirds.csv").exists()
        assert (out / "cli-thirds.json").exists()

    def test_threads_flag_is_gone(self, tmp_path):
        proc = run_cli("--threads", 2, "experiment", "run", self.write_config(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: packdim")

    def test_run_exit_one_on_failed_comparison(self, tmp_path):
        cfg = self.write_config(tmp_path, {**self.CONFIG, "tolerance": 0.01})
        proc = run_cli("experiment", "run", cfg)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["pass"] is False

    def test_run_exit_two_on_bad_config(self, tmp_path):
        cfg = self.write_config(tmp_path, {**self.CONFIG, "mode": "shadow"})
        proc = run_cli("experiment", "run", cfg)
        assert proc.returncode == 2
        assert "error" in proc.stderr

    @pytest.mark.parametrize("text", ['{"name": "x", "alpha": "abc", "d": 1, "seed": 1}', "{"])
    def test_run_exit_two_on_malformed_config(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        proc = run_cli("experiment", "run", bad)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {bad}: ")
        assert "Traceback" not in proc.stderr

    def test_run_exit_two_on_stage_error(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {"name": "undersampled", "alpha": 0.5, "d": 1, "seed": 1, "resolution": 64,
             "grid": {"j_min": 2, "j_max": 9}},
        )
        proc = run_cli("experiment", "run", cfg)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: kernel stage: finest scale")

    def test_suite_reports_rows(self, tmp_path):
        self.write_config(tmp_path)
        proc = run_cli("experiment", "suite", tmp_path, check=True)
        assert "cli-thirds: pass=True" in proc.stdout
        assert (tmp_path / "summary.csv").exists()

    def test_suite_exit_one_when_a_row_errors(self, tmp_path):
        self.write_config(tmp_path)
        self.write_config(
            tmp_path,
            {
                "name": "unbuildable",
                "alpha": 0.5,
                "d": 1,
                "seed": 1,
                "set": {"kind": "txset", "beta": 0.5, "level": 3},
                "grid": {"j_min": 2, "j_max": 5},
            },
        )
        proc = run_cli("experiment", "suite", tmp_path)
        assert proc.returncode == 1
        assert "unbuildable: pass=error:ScaleUnrepresentableError" in proc.stdout

"""End-to-end command-line checks through real subprocesses."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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

    @pytest.mark.parametrize("argv", [("--points", -5), ("-n", 0, "--points", 8)])
    def test_empty_mesh_exits_two(self, argv):
        proc = run_cli("simulate", "--alpha", 0.5, *argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: a mesh needs at least one point")
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

    def test_hash_names_the_measure_not_its_path(self, tmp_path, measure_csv):
        # three spellings of one file stamp one hash; another measure, at the
        # same kind of path, stamps another
        other = tmp_path / "other.csv"
        other.write_text("x1,weight\n0.25,0.5\n0.75,0.5\n")

        src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": src}

        def stamp(path):
            proc = subprocess.run(
                CLI + ["dim", path, "--j-min", "2", "--j-max", "5"],
                capture_output=True, text=True, cwd=tmp_path, env=env,
            )
            assert proc.returncode in (0, 1), proc.stderr
            return proc.stdout.splitlines()[0]

        name = Path(measure_csv).name
        spellings = {stamp(p) for p in (name, os.path.join(".", name), measure_csv)}
        assert len(spellings) == 1
        assert stamp(other.name) not in spellings

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

    def test_json_lines_carry_the_csv_stamp(self):
        stamp = run_cli("verify", "--check", "parts", check=True).stdout.splitlines()[0]
        proc = run_cli("--format", "json", "verify", "--check", "parts", check=True)
        for line in proc.stdout.splitlines():
            rep = json.loads(line)
            assert stamp == f"# config_hash={rep['config_hash']} version={rep['version']}"

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
        # refused at load: level 3 branches past 2^53
        assert "unbuildable: pass=error:ConfigError" in proc.stdout

    def test_suite_runs_past_an_unreadable_entry(self, tmp_path):
        self.write_config(tmp_path)
        (tmp_path / "d.json").mkdir()
        proc = run_cli("experiment", "suite", tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert proc.stdout == "cli-thirds: pass=True\nd: pass=error:IsADirectoryError\n"
        assert (tmp_path / "summary.csv").exists()


# ---------------------------------------------------------------------------
# Golden bytes: the sha256 of every output form, stdout and each file written
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent

# 128 equal atoms at the odd multiples of 1/256: every number is dyadic
GOLDEN_MEASURE = "x1,weight\n" + "".join(
    f"{(2 * i + 1) / 256!r},{1 / 128!r}\n" for i in range(128)
)
# on the line from 256 interval points the sampler takes the fft, so no
# output hangs on a Cholesky factor
GOLDEN_CONFIG = {
    "name": "line", "alpha": 0.5, "d": 1, "seed": 7, "set": {"kind": "interval"},
    "resolution": 256, "grid": {"j_min": 2, "j_max": 5}, "replicas": 2,
    "mode": "graph", "tolerance": 0.35,
}
SIM = ["simulate", "--alpha", "0.5", "--points", "256", "--method", "fft"]
GRID = ["--j-min", "2", "--j-max", "5"]
PROFILE = ["profile", "measure.csv", "--beta", "0.5", *GRID]

# name: (argv, files written besides stdout)
GOLDEN_CASES = {
    "simulate-csv": (["--seed", "5", *SIM], []),
    "simulate-json": (["--seed", "5", "--format", "json", *SIM], []),
    "simulate-out": (
        ["--seed", "5", "--out", "path.csv", *SIM, "--drift", "power:1.5:2.0"],
        ["path.csv", "path.csv.json"],
    ),
    "dim-csv": (["dim", "measure.csv", *GRID], []),
    "dim-json": (["--format", "json", "dim", "measure.csv", *GRID], []),
    "dim-out": (["--out", "est", "dim", "measure.csv", *GRID], ["est.csv", "est.json"]),
    "dim-refused": (
        ["--out", "est", "dim", "measure.csv", "--j-min", "3", "--j-max", "9"],
        ["est.csv", "est.json"],
    ),
    "profile-csv": (PROFILE, []),
    "profile-json": (["--format", "json", *PROFILE], []),
    "profile-out": (["--out", "est", *PROFILE], ["est.csv", "est.json"]),
    "txset-csv": (["txset", "--beta", "0.5", "--levels", "6"], []),
    "txset-json": (["--format", "json", "txset", "--beta", "0.5", "--levels", "6"], []),
    "predict-csv": (["predict", "--alpha", "0.5", "-d", "1", "--beta", "0.5"], []),
    "predict-json": (
        ["--format", "json", "predict", "--alpha", "0.5", "-d", "1", "--beta", "0.5"], [],
    ),
    "verify-csv": (["--seed", "4", "verify"], []),
    "verify-json": (["--seed", "4", "--format", "json", "verify"], []),
    "experiment-run": (
        ["--out", "results", "experiment", "run", "line.json"],
        ["results/line.csv", "results/line.json"],
    ),
    "experiment-suite": (["experiment", "suite", "suite"], ["suite/summary.csv"]),
}


def golden_digests(tmp_path, argv, files) -> dict:
    """Exit status and the sha256 of stdout and of each file, for the CLI
    run in ``tmp_path`` on the golden inputs; stderr must stay empty."""
    (tmp_path / "measure.csv").write_text(GOLDEN_MEASURE)
    (tmp_path / "line.json").write_text(json.dumps(GOLDEN_CONFIG))
    (tmp_path / "suite").mkdir()
    (tmp_path / "suite" / "line.json").write_text(json.dumps(GOLDEN_CONFIG))
    (tmp_path / "suite" / "bad,name.json").write_text("{")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(CLI + argv, capture_output=True, cwd=tmp_path, env=env)
    assert proc.stderr == b""
    digests = {"exit": proc.returncode, "stdout": hashlib.sha256(proc.stdout).hexdigest()}
    for name in files:
        digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    return digests


# as the CLI wrote them when this test was added: a moved output byte shows here
GOLDEN = {
    "dim-csv": {
        "exit": 0,
        "stdout": "d9fefef8460c6e6800af2e547f70510ea609cd10c87fb6e6c726aa20bc4a4b0c",
    },
    "dim-json": {
        "exit": 0,
        "stdout": "c8573934aa1c19b84798b7145a7902faccabff0633f3cad45ede9211edd83c4a",
    },
    "dim-out": {
        "exit": 0,
        "stdout": "c8573934aa1c19b84798b7145a7902faccabff0633f3cad45ede9211edd83c4a",
        "est.csv": "d9fefef8460c6e6800af2e547f70510ea609cd10c87fb6e6c726aa20bc4a4b0c",
        "est.json": "c8573934aa1c19b84798b7145a7902faccabff0633f3cad45ede9211edd83c4a",
    },
    "dim-refused": {
        "exit": 1,
        "stdout": "fdf49030e155965346f450941d529df25099a2fe002c1b34ed7eaedac07e3704",
        "est.csv": "5d948d94e29e482b1b47fe2aa2ae2b0396dfda4f8ccb8a78bbd292fde9e4552f",
        "est.json": "fdf49030e155965346f450941d529df25099a2fe002c1b34ed7eaedac07e3704",
    },
    "experiment-run": {
        "exit": 0,
        "stdout": "1efc53f23976082ef6e7eb68edb40a0e95a210ebb4cae46b4b783513b7a52b7e",
        "results/line.csv": "3511565c879671a202a11cb95774ab06961bee7e6ef5eeb34c76082ef0a9112b",
        "results/line.json": "1efc53f23976082ef6e7eb68edb40a0e95a210ebb4cae46b4b783513b7a52b7e",
    },
    "experiment-suite": {
        "exit": 1,
        "stdout": "ea4e7f4e36f482667a72a014251e12bd54bb06a3f89f8adb0b9929295c0a2a4c",
        "suite/summary.csv": "66ade493b96c6f234bb6629fc37f1a61a848bd62c07b4031a3f5b77cf43fd1b9",
    },
    "predict-csv": {
        "exit": 0,
        "stdout": "1cc1a846a63ad52a9ce3ef33a743d25b1f165cb78c225935471ee2413df4cdea",
    },
    "predict-json": {
        "exit": 0,
        "stdout": "fe4eaf593ffd550b7f6d0ddb17c9cbd5edca8689c447ad22c5b7d64770f39ef1",
    },
    "profile-csv": {
        "exit": 0,
        "stdout": "adf05182447a776610f6ec2410c627133c34ba1707ecfe27d8eaf1a926d660e9",
    },
    "profile-json": {
        "exit": 0,
        "stdout": "84dc79abd4143c6178771666c7cb3d2c2d46da1b4080663114cd28979cbb6178",
    },
    "profile-out": {
        "exit": 0,
        "stdout": "84dc79abd4143c6178771666c7cb3d2c2d46da1b4080663114cd28979cbb6178",
        "est.csv": "adf05182447a776610f6ec2410c627133c34ba1707ecfe27d8eaf1a926d660e9",
        "est.json": "84dc79abd4143c6178771666c7cb3d2c2d46da1b4080663114cd28979cbb6178",
    },
    "simulate-csv": {
        "exit": 0,
        "stdout": "ae4099a00242da345e067356d10f9cfb3d3eb1947cbf32d6c1cf095bd0078208",
    },
    "simulate-json": {
        "exit": 0,
        "stdout": "b4bdf0b3f03262f76828ba847121f7c453b0ecfd6cb9da4761770f397a83aa8c",
    },
    "simulate-out": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "path.csv": "a80306087e540838742505aaaf1035db6b195b60b6e25117eb2a66139289c591",
        "path.csv.json": "cf12959917b92f56454b030e2c9531d6f183de83e9de39251063ef7f24101dfd",
    },
    "txset-csv": {
        "exit": 0,
        "stdout": "2c10f41168352a232748eb2654136ba4f895e847110b9aab6142b33a650d4c0e",
    },
    "txset-json": {
        "exit": 0,
        "stdout": "e87a964b78cc2732401eca65cfd5ec94b233542e6d871efbb7d8889147cfc18f",
    },
    "verify-csv": {
        "exit": 0,
        "stdout": "3936f3a5540cfa9876db325a5c72cce4028b39bf577c19fe8e769dc387879438",
    },
    "verify-json": {
        "exit": 0,
        "stdout": "3210583c2225775a7e7c5b00864a5819ae1b62421e3f2ad50d27db34505aa7fb",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_bytes(tmp_path, case):
    assert golden_digests(tmp_path, *GOLDEN_CASES[case]) == GOLDEN[case]

"""The benchmark's three workloads.

Each workload is a fixed list of ops built from the workload seed; every
seed inside a workload is derived from it.  An op calls packdim through
module attributes (``experiment.run_experiment``, ``estimators.dim_profile``)
so a traced run sees the calls.  ``run`` returns the raw output,
``summarize`` turns it into the op's fingerprint values, its verdict (None
for ops without one) and a list of sanity problems, and ``work`` gives the
work counts of one execution, computed from the op's inputs alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from packdim import cli, estimators, experiment, fields, fractals, measures, theory
from packdim.estimators import ScaleGrid
from packdim.numerics import Seed

@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    summarize: Callable[[Any], tuple[dict, bool | None, list[str]]]
    work: Callable[[], dict]


def derive(seed: int, index: int) -> int:
    """Seed of the index-th random input of a workload."""
    return (seed * 1009 + index) % 2**63


def _finite_problems(values: dict) -> list[str]:
    return [
        f"{key} is not finite: {v!r}"
        for key, v in values.items()
        if isinstance(v, float) and not math.isfinite(v)
    ]


def _range_problem(label: str, value: float, upper: float) -> list[str]:
    # A dimension estimate outside [0, ambient + 1] is broken, not imprecise.
    if not (0.0 <= value <= upper):
        return [f"{label} = {value!r} outside [0, {upper}]"]
    return []


def _window_pairs(t: np.ndarray, radii: np.ndarray) -> int:
    """Pairs (i, k) with |t_i - t_k| <= r, summed over the radii: the pairs
    a graph-mode kernel table restricted to the domain window contributes."""
    total = 0
    for lo in range(0, len(t), 512):
        dom = np.abs(t[lo:lo + 512, None] - t[None, :])
        total += sum(int(np.count_nonzero(dom <= r)) for r in radii)
    return total


# ---------------------------------------------------------------------------
# Experiment ops (line-graph, sets-and-checks)
# ---------------------------------------------------------------------------


def _set_points(cfg: experiment.ExperimentConfig) -> np.ndarray:
    """The point set run_experiment samples on, rebuilt from the config with
    the public constructors."""
    spec = cfg.set_spec
    if spec["kind"] == "interval":
        return np.linspace(0.0, 1.0, cfg.resolution)
    if spec["kind"] == "cantor":
        system = fractals.build_uniform_cantor(spec["branches"], spec["ratio"], spec["level"])
        return fractals.natural_measure(system, spec["level"]).atoms[:, 0]
    symbolic = fractals.build_tx_system(spec["beta"], spec.get("delta0", 0.25), levels=spec["level"])
    system = fractals.realize_explicit(symbolic, spec["level"])
    return fractals.natural_measure(system, spec["level"]).atoms[:, 0]


def _experiment_op(raw: dict) -> Op:
    cfg = experiment.ExperimentConfig.from_dict(raw)
    ambient = cfg.d + (cfg.n if cfg.mode == "graph" else 0)

    def run():
        return experiment.run_experiment(cfg)

    def summarize(rep):
        values = {}
        for i, v in enumerate(rep.estimated["box"]["replicas_values"]):
            values[f"box.replica{i}"] = v
        values["box"] = rep.estimated["box"]["value"]
        values["kernel"] = rep.estimated["kernel"]["value"]
        for key, v in rep.predicted.items():
            values[f"predicted.{key}"] = v
        for key, v in rep.gaps.items():
            values[f"gap.{key}"] = v
        values["pass"] = bool(rep.passed)
        problems = _finite_problems(values)
        problems += _range_problem(f"{cfg.name} box", values["box"], ambient + 1)
        problems += _range_problem(f"{cfg.name} kernel", values["kernel"], ambient + 1)
        return values, bool(rep.passed), problems

    def work():
        t = _set_points(cfg)
        k = len(t)
        radii = cfg.scale_grid().radii
        pairs = k * k * len(radii)
        useful = _window_pairs(t, radii) if cfg.mode == "graph" else pairs
        connect = cfg.set_spec["kind"] == "interval"
        return {
            "pairs": pairs,
            "useful_pairs": useful,
            "segments": (k - 1) * len(radii) * cfg.replicas if connect else 0,
            "values_drawn": k * cfg.d * cfg.replicas,
            "fractal_atoms": 0 if cfg.set_spec["kind"] == "interval" else k,
        }

    return Op(cfg.name, run, summarize, work)


def _line_graph(seed: int, size: str, scratch: str) -> list[Op]:
    res, big, j_max = (2048, 4096, 7) if size == "full" else (800, 1000, 6)
    base = {
        "d": 1,
        "set": {"kind": "interval"},
        "resolution": res,
        "grid": {"j_min": 3, "j_max": j_max},
        "replicas": 2,
        "mode": "graph",
        "method": "regression",
        "tolerance": 0.35,
    }
    variants = [
        ("graph-line-a0.3", {"alpha": 0.3}),
        ("graph-line-a0.5", {"alpha": 0.5}),
        ("graph-line-a0.7", {"alpha": 0.7}),
        ("graph-line-power", {"alpha": 0.5, "drift": {"kind": "power", "direction": [1.0], "exponent": 1.5}}),
        (f"graph-line-{big}", {"alpha": 0.5, "resolution": big}),
    ]
    return [
        _experiment_op({**base, **extra, "name": name, "seed": derive(seed, i)})
        for i, (name, extra) in enumerate(variants)
    ]


# ---------------------------------------------------------------------------
# path-boxes: the README quick start, repeated
# ---------------------------------------------------------------------------


def _path_op(name: str, seed: int, k: int, grid: ScaleGrid, d: int) -> Op:
    # d = 1: graph of the path, regression (criterion 07); d = 2: image of
    # the path at the critical regime, tail-max (criterion 06).  The
    # tolerances are the ones the repo's own configs declare for these
    # regimes (graph-line 0.35, image-critical 0.6).
    points = np.linspace(0.0, 1.0, k).reshape(-1, 1)
    spec = fields.FieldSpec(0.5, 1, d)
    regime = theory.Regime(0.5, d, 1.0)
    if d == 1:
        predicted, tolerance, method = theory.predict_graph_upper(regime), 0.35, "regression"
    else:
        predicted, tolerance, method = theory.predict_image(regime), 0.6, "tail-max"

    def run():
        path = fields.sample(spec, points, Seed(seed))
        cloud = fields.graph_points(path) if d == 1 else path.values
        return estimators.box_counting_dim(cloud, grid, connect=True, method=method)

    def summarize(est):
        values = {"estimate": est.value, "predicted": predicted}
        for r, count, _ in est.per_scale:
            values[f"count@{r!r}"] = int(count)
        verdict = abs(est.value - predicted) <= tolerance
        problems = _finite_problems(values) + _range_problem(name, est.value, d + 2)
        return values, verdict, problems

    def work():
        return {"segments": (k - 1) * len(grid.radii), "values_drawn": k * d}

    return Op(name, run, summarize, work)


def _path_boxes(seed: int, size: str, scratch: str) -> list[Op]:
    k, grid = (2**13, ScaleGrid(4, 9)) if size == "full" else (2**10, ScaleGrid(3, 6))
    ops = []
    for i in range(4):
        d = 1 if i % 2 == 0 else 2
        label = "graph" if d == 1 else "image"
        ops.append(_path_op(f"path-{label}-{i // 2}", derive(seed, i), k, grid, d))
    return ops


# ---------------------------------------------------------------------------
# sets-and-checks: fractal sets, measure estimators, exact checks
# ---------------------------------------------------------------------------


def _estimate_values(est) -> dict:
    values = {"estimate": est.value}
    for r, v, _ in est.per_scale:
        values[f"V@{r!r}"] = v
    return values


def _csv_dim_op(name: str, csv_path: str, estimate) -> Op:
    def run():
        mu = measures.read_measure_csv(csv_path)
        return estimate(mu)

    def summarize(est):
        values = _estimate_values(est)
        return values, None, _finite_problems(values) + _range_problem(name, est.value, 2.0)

    return Op(name, run, summarize, dict)


def _slice_op(mu, grid: ScaleGrid) -> Op:
    def run():
        return estimators.dim_slice_kernel(mu, 1, 1, grid)

    def summarize(est):
        values = _estimate_values(est)
        return values, None, _finite_problems(values) + _range_problem("slice-kernel", est.value, 3.0)

    return Op("slice-kernel", run, summarize, dict)


def _verify_op(seed: int) -> Op:
    argv = ["--seed", str(seed), "--format", "json", "verify", "--check", "all"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def summarize(raw):
        code, text = raw
        reports = [json.loads(line) for line in text.splitlines() if line.strip()]
        values = {"exit_code": code}
        problems = []
        for i, rep in enumerate(reports):
            tag = f"{i:02d}.{rep['name']}"
            values[f"{tag}.trials"] = rep["trials"]
            values[f"{tag}.violations"] = rep["violations"]
            values[f"{tag}.worst_ratio"] = rep["worst_ratio"]
            values[f"{tag}.passed"] = rep["violations"] == 0
            if rep["trials"] < 1 or rep["violations"] < 0 or not rep["worst_ratio"] >= 0:
                problems.append(f"check report {tag} is malformed: {rep!r}")
        if not reports:
            problems.append("verify printed no check reports")
        problems += _finite_problems(values)
        passed = code == 0 and all(r["violations"] == 0 for r in reports)
        return values, passed, problems

    return Op("verify-all", run, summarize, dict)


def _sets_and_checks(seed: int, size: str, scratch: str) -> list[Op]:
    full = size == "full"
    cantor_level, measure_level, path_k = (11, 12, 1024) if full else (7, 8, 400)
    # 2048 atoms at full size, 192 tiny
    tx = {"kind": "txset", "beta": 0.5 if full else 0.45, "delta0": 0.45, "level": 2}
    ops = [
        _experiment_op({
            "name": "cantor-image-power", "alpha": 0.5, "d": 1, "seed": derive(seed, 0),
            "set": {"kind": "cantor", "branches": 2, "ratio": 1.0 / 3.0, "level": cantor_level},
            "drift": {"kind": "power", "direction": [1.0], "exponent": 1.5},
            "grid": {"j_min": 2, "j_max": 6}, "replicas": 2, "mode": "image",
            "tolerance": 0.3,
        }),
        _experiment_op({
            "name": "txset-graph", "alpha": 0.5, "d": 1, "seed": derive(seed, 1),
            "set": tx, "grid": {"j_min": 2, "j_max": 6}, "replicas": 2, "mode": "graph",
        }),
    ]
    system = fractals.build_uniform_cantor(2, 1.0 / 3.0, measure_level)
    csv_path = os.path.join(scratch, f"cantor-{size}.csv")
    measures.write_measure_csv(fractals.natural_measure(system, measure_level), csv_path)
    grid = ScaleGrid(2, 9)
    ops.append(_csv_dim_op("ball-mass", csv_path, lambda mu: estimators.dim_ball_mass(mu, grid)))
    ops.append(_csv_dim_op("profile", csv_path, lambda mu: estimators.dim_profile(mu, 0.5, grid)))
    path = fields.sample(
        fields.FieldSpec(0.5), np.linspace(0.0, 1.0, path_k)[:, None], Seed(derive(seed, 2))
    )
    ops.append(_slice_op(fields.graph_measure(path), ScaleGrid(3, 7) if full else ScaleGrid(3, 6)))
    ops.append(_verify_op(derive(seed, 3)))
    return ops


_BUILDERS = {
    "line-graph": _line_graph,
    "path-boxes": _path_boxes,
    "sets-and-checks": _sets_and_checks,
}


def build(workload: str, seed: int, size: str, scratch: str) -> list[Op]:
    """The workload's op list; ``scratch`` receives any input files."""
    return _BUILDERS[workload](seed, size, scratch)

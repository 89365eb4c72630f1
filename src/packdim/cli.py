"""Command-line front end.

Subcommands: simulate, dim, profile, txset, predict, verify,
experiment run / experiment suite.  Global flags --seed, --out,
--format apply before the subcommand name.  A CSV output opens with a
``# config_hash=... version=...`` line; a JSON output, each of verify's
JSON lines included, carries ``config_hash`` and ``version`` keys; dim
and profile hash the measure they read, not its path.  --out
adds a JSON sidecar <out>.json only to a csv simulate, and dim and
profile write the pair <out>.csv and <out>.json; txset, predict and
verify write just the table.  Exit status is 0 only
when every invoked check or comparison passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .errors import DegenerateRegimeError, InvalidArgumentError, PackdimError, ResolutionError
from .estimators import ScaleGrid, dim_ball_mass, dim_profile
from .fields import DriftSpec, FieldSpec, _mesh_points, sample
from .fractals import build_tx_system, build_uniform_cantor, covering_count, extract_subsystem
from .measures import DiscreteMeasure, _uniform, read_measure_csv
from .numerics import Seed
from .theory import Regime, graph_lower, predict_graph_upper, predict_image, solve_crossing, tx_lower
from .verify import (
    check_doubling,
    check_gaussian_interval_bound,
    check_graph_expectation_bound,
    check_parts,
    check_scale_doubling,
)
from .experiment import (
    ExperimentConfig,
    _config_hash,
    _csv_text,
    _json_text,
    _stamped,
    _write,
    run_experiment,
    run_suite,
)

__all__ = ["main"]


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _emit(fmt: str, out: str | None, params: dict, columns, rows, payload: dict) -> None:
    """A command's result to ``out`` or stdout: the CSV table of ``rows``,
    or ``payload`` as JSON, either stamped with the hash of ``params``."""
    if fmt == "json":
        _write_or_print(_json_text(_stamped(_config_hash(params), payload)), out)
    else:
        _write_or_print(_csv_text(_config_hash(params), columns, rows), out)


def _parse_drift(text: str | None, d: int) -> DriftSpec | None:
    """zero | constant:c1,...,cd | power:exponent:u1,...,ud"""
    if text is None:
        return None
    parts = text.split(":")
    kind = parts[0]
    if kind == "zero" and len(parts) == 1:
        return DriftSpec.zero(d)
    try:
        if kind == "constant" and len(parts) == 2:
            return DriftSpec.constant([float(v) for v in parts[1].split(",")])
        if kind == "power" and len(parts) == 3:
            return DriftSpec.power([float(v) for v in parts[2].split(",")], float(parts[1]))
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse drift {text!r}: {exc}") from exc
    raise InvalidArgumentError(f"cannot parse drift {text!r}")


# ---------------------------------------------------------------------------
# Subcommand bodies (each returns a process exit code)
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    n, d = args.domain_dim, args.range_dim
    pts = _mesh_points(args.points, n, args.t_max)
    field = FieldSpec(args.alpha, domain_dim=n, range_dim=d)
    drift = _parse_drift(args.drift, d)
    path = sample(field, pts, Seed(args.seed), drift=drift, method=args.method)
    sidecar = {
        "alpha": args.alpha, "domain_dim": n, "range_dim": d,
        "drift": args.drift, "seed": args.seed, "method": args.method,
    }
    params = {"cmd": "simulate", **sidecar, "points": args.points, "t_max": args.t_max}
    points, values = path.points.tolist(), path.values.tolist()
    _emit(
        args.format, args.out, params,
        [f"t{i + 1}" for i in range(n)] + [f"x{i + 1}" for i in range(d)],
        ([*t, *x] for t, x in zip(points, values)),
        {**sidecar, "points": points, "values": values},
    )
    if args.out and args.format == "csv":
        _emit("json", args.out + ".json", params, (), (), sidecar)
    return 0


def _estimate_command(args, estimator, params_extra) -> int:
    mu = read_measure_csv(args.measure)
    grid = ScaleGrid(args.j_min, args.j_max, args.base)
    params = {
        "cmd": args.command, "j_min": args.j_min,
        # the measure read, not the path it was read from
        "measure": _config_hash({"atoms": mu.atoms.tolist(), "weights": mu.weights.tolist()}),
        "j_max": args.j_max, "base": args.base, "method": args.method,
        **params_extra,
    }
    try:
        est, guard = estimator(mu, grid), "ok"
    except ResolutionError as exc:
        est, guard = None, str(exc)
    summary = {
        "estimate": None if est is None else est.value,
        "method": args.method,
        "window": None if est is None else list(est.window),
        "guard_status": guard,
    }
    table = (params, ("scale", "V", "ratio"), [] if est is None else est.per_scale, summary)
    if args.out:
        _emit("csv", args.out + ".csv", *table)
        _emit("json", args.out + ".json", *table)
    _emit("json" if args.out else args.format, None, *table)
    return 0 if est is not None else 1


def _cmd_dim(args) -> int:
    return _estimate_command(
        args,
        lambda mu, grid: dim_ball_mass(mu, grid, method=args.method, reduce=args.reduce),
        {"reduce": args.reduce},
    )


def _cmd_profile(args) -> int:
    return _estimate_command(
        args,
        lambda mu, grid: dim_profile(
            mu, args.beta, grid, method=args.method, reduce=args.reduce
        ),
        {"beta": args.beta, "reduce": args.reduce},
    )


def _cmd_txset(args) -> int:
    system = build_tx_system(args.beta, args.delta0, levels=args.levels)
    columns = ("k", "log_inv_delta", "log_inv_eta", "log_m", "ratio_at_eta", "ratio_at_delta")
    params = {
        "cmd": "txset", "beta": args.beta, "delta0": args.delta0, "levels": args.levels,
    }
    rows = []
    for k in range(1, args.levels + 1):
        log_inv_delta, log_inv_eta = system.L[k], system.H[k - 1]
        rows.append((
            k, log_inv_delta, log_inv_eta, system.logm[k - 1],
            covering_count(system, log_inv_eta) / log_inv_eta,
            covering_count(system, log_inv_delta) / log_inv_delta,
        ))
    payload = {"rows": [dict(zip(columns, row)) for row in rows]}
    _emit(args.format, args.out, params, columns, rows, payload)
    return 0


def _cmd_predict(args) -> int:
    regime = Regime(args.alpha, args.range_dim, args.beta)
    values = {
        "image": predict_image(regime),
        "graph_upper": predict_graph_upper(regime),
    }
    try:
        values["tx_lower"] = tx_lower(regime)
        values["graph_lower"] = graph_lower(regime)
        x_star, crossing = solve_crossing(regime)
        values["crossing_x"] = x_star
        values["crossing_value"] = crossing
    except DegenerateRegimeError:
        pass
    params = {"cmd": "predict", "alpha": args.alpha, "d": args.range_dim, "beta": args.beta}
    _emit(args.format, args.out, params, ("name", "value"), sorted(values.items()), values)
    return 0


def _default_checks(seed: int, names: set[str]) -> list:
    reports = []
    gen = Seed(seed, stream=9).generator()
    if "doubling" in names:
        for d in (1, 2):
            for trial in range(5):
                k = 40
                atoms = gen.random((k, d))
                w = gen.random(k) + 0.1
                nu = DiscreteMeasure(atoms, w / w.sum())
                reports.append(check_doubling(nu, 0.05, [2.0] * d, 4.0))
    if "scale-doubling" in names:
        grid = np.arange(256, dtype=float)[:, None] / 256.0
        nu = _uniform(grid)
        reports.append(check_scale_doubling(nu, 0.5, 0.5, 0.125))
    if "parts" in names:
        for d, f_name in ((1, "exp"), (2, "gauss")):
            atoms = gen.random((8, d)) * 3.0 + 0.01
            w = gen.random(8) + 0.1
            mu = DiscreteMeasure(atoms, w / w.sum())
            reports.append(check_parts(mu, f_name))
    if "interval-bound" in names:
        for beta in (0.3, 0.5, 0.7):
            reports.append(check_gaussian_interval_bound(beta))
    if "graph-bound" in names:
        base = build_uniform_cantor(2, 1.0 / 3.0, 12)
        sub = extract_subsystem(base, gamma=0.3, theta=2.0 / 3.0)
        field = FieldSpec(0.5, domain_dim=1, range_dim=1)
        reports.append(check_graph_expectation_bound(sub, field))
    return reports


_CHECK_NAMES = ("doubling", "scale-doubling", "parts", "interval-bound", "graph-bound")


def _cmd_verify(args) -> int:
    names = set(_CHECK_NAMES) if args.check == "all" else {args.check}
    reports = _default_checks(args.seed, names)
    params = {"cmd": "verify", "check": args.check, "seed": args.seed}
    if args.format == "csv":
        rows = [(rep.name, rep.trials, rep.violations, rep.worst_ratio) for rep in reports]
        _emit("csv", args.out, params, ("name", "trials", "violations", "worst_ratio"), rows, {})
    else:
        stamp = _config_hash(params)
        lines = [json.dumps(_stamped(stamp, asdict(rep)), sort_keys=True) for rep in reports]
        _write_or_print("\n".join(lines) + "\n", args.out)
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_experiment(args) -> int:
    if args.action == "run":
        cfg = ExperimentConfig.from_json(args.path)
        report = run_experiment(cfg, out_dir=args.out)
        sys.stdout.write(_json_text(report.to_dict()))
        return 0 if report.passed else 1
    rows = run_suite(args.path, out_path=args.out)
    for row in rows:
        sys.stdout.write(f"{row['name']}: pass={row['pass']}\n")
    return 0 if all(row["pass"] is True for row in rows) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_grid_flags(sub) -> None:
    sub.add_argument("--j-min", type=int, default=2)
    sub.add_argument("--j-max", type=int, default=9)
    sub.add_argument("--base", type=float, default=2.0)
    sub.add_argument("--method", choices=("regression", "tail-max"), default="regression")
    sub.add_argument("--reduce", choices=("median", "min"), default="median")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packdim",
        description="Dimension estimates and exact checks for fractional "
        "Gaussian images and graphs.",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", default=None, help="output file or directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample a field on a grid")
    sim.add_argument("--alpha", type=float, required=True)
    sim.add_argument("-d", "--range-dim", type=int, default=1)
    sim.add_argument("-n", "--domain-dim", type=int, default=1)
    sim.add_argument("--points", type=int, default=1024)
    sim.add_argument("--t-max", type=float, default=1.0)
    sim.add_argument("--drift", default=None, help="zero | constant:c,.. | power:p:u,..")
    sim.add_argument("--method", choices=("auto", "fft", "cholesky"), default="auto")
    sim.set_defaults(func=_cmd_simulate)

    dim = sub.add_parser("dim", help="ball-mass dimension of a measure CSV")
    dim.add_argument("measure")
    _add_grid_flags(dim)
    dim.set_defaults(func=_cmd_dim)

    prof = sub.add_parser("profile", help="profile dimension of a measure CSV")
    prof.add_argument("measure")
    prof.add_argument("--beta", type=float, required=True)
    _add_grid_flags(prof)
    prof.set_defaults(func=_cmd_profile)

    tx = sub.add_parser("txset", help="multi-scale system table")
    tx.add_argument("--beta", type=float, required=True)
    tx.add_argument("--delta0", type=float, default=0.25)
    tx.add_argument("--levels", type=int, default=12)
    tx.set_defaults(func=_cmd_txset)

    pred = sub.add_parser("predict", help="closed-form dimension predictions")
    pred.add_argument("--alpha", type=float, required=True)
    pred.add_argument("-d", "--range-dim", type=int, required=True)
    pred.add_argument("--beta", type=float, required=True)
    pred.set_defaults(func=_cmd_predict)

    ver = sub.add_parser("verify", help="run the exact inequality checkers")
    ver.add_argument("--check", choices=("all",) + _CHECK_NAMES, default="all")
    ver.set_defaults(func=_cmd_verify)

    exp = sub.add_parser("experiment", help="run experiment configs")
    exp.add_argument("action", choices=("run", "suite"))
    exp.add_argument("path")
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PackdimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Reproducible experiments: simulate, estimate, predict, compare.

A single JSON config fully determines an experiment; there is no
user-supplied code.  Reruns with the same config produce byte-identical
outputs, replica aggregation is in fixed index order, and every output
file embeds the config hash and package version.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._version import __version__
from .errors import ConfigError, InvalidArgumentError, PackdimError
from .estimators import _METHODS as _EST_METHODS
from .estimators import ScaleGrid, box_counting_dim, dim_field
from .fields import (
    DriftSpec,
    FieldSpec,
    _check_cholesky_budget,
    _mesh_per_axis,
    _mesh_points,
    graph_points,
    sample_many,
)
from .fractals import build_tx_system, build_uniform_cantor, natural_measure, realize_explicit
from .kernels import KernelContext
from .measures import DiscreteMeasure
from .numerics import Seed
from .theory import Regime, graph_lower, predict_graph_upper, predict_image

__all__ = ["ExperimentConfig", "PredictionReport", "run_experiment", "run_suite"]

# the parameters each set kind takes besides its kind, with their defaults
# (... where the key is required)
_SET_KEYS = {
    "interval": {}, "cantor": {"branches": ..., "ratio": ..., "level": ...},
    "txset": {"beta": ..., "level": ..., "delta0": 0.25},
}
# the parameters each drift kind takes besides its kind
_DRIFT_KEYS = {
    "zero": set(), "constant": {"values"}, "power": {"direction", "exponent"}, "polynomial": {"rows"},
}
_MODES = ("image", "graph")
_KNOWN_KEYS = {
    "name", "alpha", "d", "n", "set", "drift", "resolution",
    "grid", "replicas", "seed", "mode", "method", "box_method", "tolerance",
}


def _read(table: dict, key: str, convert, default=..., within: str = "config"):
    """table[key], or the default where it is absent, through convert; a key
    without a default is required.  A missing key or a value convert refuses
    is a ConfigError naming the key."""
    if key not in table and default is ...:
        raise ConfigError(f"{within} needs key {key!r}")
    value = table.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{within} key {key!r}: {exc}") from exc


def _refuse_unknown(table: dict, known, what: str) -> None:
    unknown = set(table) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def _real(value) -> float:
    """A JSON number as float; a boolean is refused, not read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """An integral JSON number as int; a fraction is refused, not truncated."""
    if not _real(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {value!r}")
    return dict(value)


# the conversion of each grid and set parameter
_GRID_PARAMS = {"j_min": _integer, "j_max": _integer, "base": _real}
_SET_PARAMS = {
    "level": _integer, "branches": _integer, "ratio": _real, "beta": _real, "delta0": _real,
}


def _table(params: dict, within: str, value) -> dict:
    """A grid or set table with the parameters it holds converted by
    ``params``, so that tables equal in value hash alike.  Absent keys stay
    absent and unknown keys stay for validate to refuse."""
    table = _object(value)
    for key, convert in params.items():
        if key in table:
            table[key] = _read(table, key, convert, within=within)
    return table


def _config_hash(params: dict) -> str:
    """The config hash stamped on outputs: sha256 of the canonical JSON, cut to 12 hex."""
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one simulation-vs-theory comparison.

    The canonical serialized form is sorted-key JSON; the config hash is
    the sha256 of that form, so any byte of the config changes the hash.
    """

    name: str
    alpha: float
    d: int
    n: int
    set_spec: dict
    drift: dict | None
    resolution: int
    grid: dict
    replicas: int
    seed: int
    mode: str
    method: str
    box_method: str
    tolerance: float

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _refuse_unknown(raw, _KNOWN_KEYS, "config")
        name = _read(raw, "name", _string)
        if not name or any(ch in name for ch in ",\n\r"):
            raise ConfigError("name must be nonempty and free of commas/newlines")
        cfg = cls(
            name=name,
            alpha=_read(raw, "alpha", _real),
            d=_read(raw, "d", _integer),
            n=_read(raw, "n", _integer, 1),
            set_spec=_read(raw, "set", partial(_table, _SET_PARAMS, "set"), {"kind": "interval"}),
            drift=None if raw.get("drift") is None else _read(raw, "drift", _object),
            resolution=_read(raw, "resolution", _integer, 4096),
            grid=_read(
                raw, "grid", partial(_table, _GRID_PARAMS, "grid"),
                {"j_min": 4, "j_max": 9, "base": 2.0},
            ),
            replicas=_read(raw, "replicas", _integer, 1),
            seed=_read(raw, "seed", _integer),
            mode=str(raw.get("mode", "image")),
            method=str(raw.get("method", "regression")),
            box_method=str(raw.get("box_method", raw.get("method", "regression"))),
            tolerance=_read(raw, "tolerance", _real, 0.25),
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(_object(json.load(fh)))
            except ValueError as exc:  # not JSON, not an object, or a bad config
                raise ConfigError(f"{path}: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "alpha": self.alpha,
            "d": self.d,
            "n": self.n,
            "set": self.set_spec,
            "drift": self.drift,
            "resolution": self.resolution,
            "grid": self.grid,
            "replicas": self.replicas,
            "seed": self.seed,
            "mode": self.mode,
            "method": self.method,
            "box_method": self.box_method,
            "tolerance": self.tolerance,
        }

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def config_hash(self) -> str:
        return _config_hash(self.to_dict())

    def validate(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError("alpha must lie in (0, 1)")
        if self.d < 1 or self.n < 1:
            raise ConfigError("d and n must be positive")
        if self.replicas < 1:
            raise ConfigError("need at least one replica")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}")
        if self.mode == "graph" and self.n != 1:
            raise ConfigError("graph experiments need a one-dimensional domain")
        kind = self.set_spec.get("kind")
        if not isinstance(kind, str) or kind not in _SET_KEYS:
            raise ConfigError(f"set kind must be one of {tuple(_SET_KEYS)}")
        _refuse_unknown(self.set_spec, [*_SET_KEYS[kind], "kind"], f"{kind} set")
        self.set_params()
        if kind != "interval" and self.n != 1:
            raise ConfigError(f"{kind} sets live on the line; set n = 1")
        if not (1 <= self.resolution <= 2**14):
            raise ConfigError("resolution must lie in [1, 2^14]")
        if kind == "interval" and self.n > 1:
            # a cube mesh is sampled by Cholesky on every point but the
            # origin; on the line, fft takes over from 256 points
            count = _mesh_per_axis(self.resolution, self.n) ** self.n
            try:
                _check_cholesky_budget(count - 1)
            except InvalidArgumentError as exc:
                raise ConfigError(f"interval mesh of {count} points: {exc}") from exc
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        for field_name, value in (("method", self.method), ("box_method", self.box_method)):
            if value not in _EST_METHODS:
                raise ConfigError(f"{field_name} must be one of {_EST_METHODS}")
        # Constructing the grid validates j_min/j_max/base.
        self.scale_grid()
        if self.drift is not None:
            self.drift_spec()

    def set_params(self) -> dict:
        """The set's parameters besides its kind, defaults filled in; a
        missing required one is a ConfigError naming it."""
        kind = self.set_spec["kind"]
        return {
            key: _read(self.set_spec, key, _SET_PARAMS[key], default, kind)
            for key, default in _SET_KEYS[kind].items()
        }

    def scale_grid(self) -> ScaleGrid:
        g = self.grid
        _refuse_unknown(g, _GRID_PARAMS, "grid")
        try:
            return ScaleGrid(
                _read(g, "j_min", _integer, 4, "grid"),
                _read(g, "j_max", _integer, 9, "grid"),
                _read(g, "base", _real, 2.0, "grid"),
            )
        except PackdimError as exc:
            raise ConfigError(f"bad scale grid: {exc}") from exc

    def field_spec(self) -> FieldSpec:
        return FieldSpec(self.alpha, domain_dim=self.n, range_dim=self.d)

    def drift_spec(self) -> DriftSpec | None:
        if self.drift is None:
            return None
        spec = dict(self.drift)
        kind = spec.pop("kind", None)
        if not isinstance(kind, str) or kind not in _DRIFT_KEYS:
            raise ConfigError(f"unknown drift kind {kind!r}")
        _refuse_unknown(spec, _DRIFT_KEYS[kind], f"{kind} drift")
        try:
            if kind == "zero":
                return DriftSpec.zero(self.d)
            if kind == "constant":
                return DriftSpec.constant(spec["values"])
            if kind == "power":
                return DriftSpec.power(spec["direction"], spec["exponent"])
            return DriftSpec.polynomial(spec["rows"])
        except (KeyError, TypeError, ValueError, PackdimError) as exc:
            raise ConfigError(f"bad drift spec: {exc}") from exc


def _build_set(cfg: ExperimentConfig) -> tuple[np.ndarray, DiscreteMeasure, float, bool]:
    """Sample points, sampling measure, packing dimension of the set, and
    whether consecutive points trace a curve (so box counting may connect
    them)."""
    kind = cfg.set_spec["kind"]
    if kind == "interval":
        pts = _mesh_points(cfg.resolution, cfg.n, 1.0)
        k = len(pts)
        mu = DiscreteMeasure(pts, np.full(k, 1.0 / k))
        return pts, mu, float(cfg.n), cfg.n == 1
    params = cfg.set_params()
    level = params["level"]
    if kind == "cantor":
        system = build_uniform_cantor(params["branches"], params["ratio"], level)
        mu = natural_measure(system, level)
        return mu.atoms, mu, system.params["similarity_dimension"], False
    symbolic = build_tx_system(params["beta"], params["delta0"], levels=max(level, 1))
    system = realize_explicit(symbolic, level)
    mu = natural_measure(system, level)
    return mu.atoms, mu, params["beta"], False


def _predictions(cfg: ExperimentConfig, beta_set: float) -> dict[str, float]:
    if cfg.n > 1:
        # Cube domain: the image prediction generalizes directly; the
        # one-parameter Regime type stays out of the way.
        return {"dimension": min(float(cfg.d), beta_set / cfg.alpha)}
    regime = Regime(cfg.alpha, cfg.d, beta_set)
    if cfg.mode == "image":
        return {"dimension": predict_image(regime)}
    out = {"dimension": predict_graph_upper(regime)}
    if regime.alpha * regime.d < 1.0 and 0.0 < beta_set < 1.0:
        out["graph_floor"] = graph_lower(regime)
    return out


@dataclass(frozen=True)
class PredictionReport:
    """Closed-form predictions against empirical estimates.

    ``estimated`` maps estimator name to a summary dict that names the
    grid, method, replicas, and seed behind the number, so the table is
    auditable without the config file."""

    name: str
    config_hash: str
    predicted: dict
    estimated: dict
    gaps: dict
    passed: bool

    def summary_row(self) -> dict:
        return {
            "name": self.name,
            "predicted": self.predicted["dimension"],
            "estimate_box": self.estimated["box"]["value"],
            "estimate_kernel": self.estimated["kernel"]["value"],
            "gap": max(self.gaps.values()),
            "pass": self.passed,
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "config_hash": self.config_hash,
            "version": __version__,
            "predicted": self.predicted,
            "estimated": self.estimated,
            "gaps": self.gaps,
            "pass": self.passed,
        }


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_report_files(report: PredictionReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    stamp = f"# config_hash={report.config_hash} version={__version__}\n"
    csv_path = os.path.join(out_dir, f"{report.name}.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(stamp)
        fh.write("field,replica,value\n")
        for i, v in enumerate(report.estimated["box"]["replicas_values"]):
            fh.write(f"estimate_box,{i},{_fmt(v)}\n")
        fh.write(f"estimate_box_mean,,{_fmt(report.estimated['box']['value'])}\n")
        fh.write(f"estimate_kernel,,{_fmt(report.estimated['kernel']['value'])}\n")
        for key in sorted(report.predicted):
            fh.write(f"predicted_{key},,{_fmt(report.predicted[key])}\n")
        for key in sorted(report.gaps):
            fh.write(f"gap_{key},,{_fmt(report.gaps[key])}\n")
        fh.write(f"pass,,{int(report.passed)}\n")
    json_path = os.path.join(out_dir, f"{report.name}.json")
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _stage(label: str):
    """Prefix the message of a PackdimError raised inside with the stage
    label; the exception keeps its class and attributes."""
    try:
        yield
    except PackdimError as exc:
        exc.args = (f"{label} stage: {exc}",)
        raise


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> PredictionReport:
    """Simulate, estimate by box counting and by kernel scaling, compare to
    the closed-form prediction.  Deterministic given the seed: replicas
    draw from indexed substreams and aggregate in index order.  With
    ``out_dir`` set, writes <name>.csv and <name>.json there."""
    config.validate()
    pts, mu, beta_set, connect = _build_set(config)
    grid = config.scale_grid()
    field = config.field_spec()
    drift = config.drift_spec()
    predicted = _predictions(config, beta_set)

    with _stage("simulation"):
        paths = sample_many(field, pts, Seed(config.seed), config.replicas, drift=drift)

    with _stage("box-count"):
        box_values = [
            box_counting_dim(
                path.values if config.mode == "image" else graph_points(path),
                grid, connect=connect, method=config.box_method,
            ).value
            for path in paths
        ]
    box_mean = float(np.mean(box_values))

    with _stage("kernel"):
        ctx = KernelContext(field, drift, mu, config.mode)
        kernel_est = dim_field(ctx, grid, method=config.method)

    estimated = {
        "box": {
            "value": box_mean,
            "replicas_values": [float(v) for v in box_values],
            "grid": [grid.j_min, grid.j_max, grid.base],
            "method": config.box_method,
            "replicas": config.replicas,
            "seed": config.seed,
            "connect": connect,
        },
        "kernel": {
            "value": kernel_est.value,
            "grid": [grid.j_min, grid.j_max, grid.base],
            "method": kernel_est.method,
            "replicas": 1,
            "seed": config.seed,
        },
    }
    target = predicted["dimension"]
    gaps = {
        "box": abs(box_mean - target),
        "kernel": abs(kernel_est.value - target),
    }
    passed = all(g <= config.tolerance for g in gaps.values())
    report = PredictionReport(
        config.name, config.config_hash(), predicted, estimated, gaps, passed
    )
    if out_dir is not None:
        _write_report_files(report, out_dir)
    return report


def run_suite(config_dir: str, out_path: str | None = None) -> list[dict]:
    """Run every *.json config in ``config_dir`` (sorted by filename) and
    write one summary.csv row per experiment.  A failing experiment does
    not stop the suite; its row records the error."""
    files = sorted(
        f for f in os.listdir(config_dir) if f.endswith(".json")
    )
    if not files:
        raise ConfigError(f"no .json configs in {config_dir!r}")
    rows = []
    hashes = []
    for fname in files:
        path = os.path.join(config_dir, fname)
        try:
            cfg = ExperimentConfig.from_json(path)
            hashes.append(cfg.config_hash())
            report = run_experiment(cfg)
            row = report.summary_row()
        except PackdimError as exc:
            row = {
                "name": os.path.splitext(fname)[0],
                "predicted": math.nan,
                "estimate_box": math.nan,
                "estimate_kernel": math.nan,
                "gap": math.nan,
                "pass": f"error:{type(exc).__name__}",
            }
        rows.append(row)
    suite_hash = hashlib.sha256("".join(hashes).encode()).hexdigest()[:12]
    if out_path is None:
        out_path = os.path.join(config_dir, "summary.csv")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={suite_hash} version={__version__}\n")
        fh.write("name,predicted,estimate_box,estimate_kernel,gap,pass\n")
        for row in rows:
            passes = row["pass"]
            cell = passes if isinstance(passes, str) else str(bool(passes)).lower()
            fh.write(
                f"{row['name']},{_fmt(row['predicted'])},{_fmt(row['estimate_box'])},"
                f"{_fmt(row['estimate_kernel'])},{_fmt(row['gap'])},{cell}\n"
            )
    return rows

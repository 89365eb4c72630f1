"""Refusals the other tests leave unexercised.  Each case names the exact
error class and the whole message the refusal raises."""

import math

import numpy as np
import pytest

from packdim import (
    ConfigError,
    DiscreteMeasure,
    DriftSpec,
    ExperimentConfig,
    FieldSpec,
    GeometryError,
    InvalidArgumentError,
    KernelContext,
    NestedIntervalSystem,
    SamplePath,
    SubMeasure,
    SymbolicScaleSystem,
    build_uniform_cantor,
    check_graph_expectation_bound,
    check_parts,
    check_scale_doubling,
    extract_subsystem,
    read_measure_csv,
    scaling_exponent,
)
from packdim import fields, measures
from packdim.fractals import LevelSpec
from packdim.numerics import _check_matrix, gaussian_interval_prob

DYADIC = [2.0**-j for j in range(1, 7)]
LINE = DiscreteMeasure(np.array([[0.0], [0.5]]), np.array([0.5, 0.5]))
ROOT = LevelSpec(np.array([0.0]), 1.0, None, 1)
LOG2 = math.log(2.0)


def refusal(call):
    """The exception ``call`` raises, as (class, message)."""
    with pytest.raises(Exception) as info:
        call()
    return info.type, str(info.value)


def system(*children, uniform=True):
    return lambda: NestedIntervalSystem((ROOT, *children), uniform=uniform)


def level(lefts, length, gap, branching):
    return LevelSpec(np.array(lefts, dtype=float), length, gap, branching)


def symbolic(L, H, logm):
    """A one-level SymbolicScaleSystem at beta 1/2, built by hand."""
    return SymbolicScaleSystem(0.5, 0.25, L, (H,), (logm,), (None,)).check_invariants


CASES = {
    "scaling_exponent shapes": (
        lambda: scaling_exponent(DYADIC, DYADIC[:-1], "regression"),
        InvalidArgumentError, "radii and values must be matching 1-D arrays",
    ),
    "scaling_exponent scale range": (
        lambda: scaling_exponent([1.0, *DYADIC], [1.0, *DYADIC], "regression"),
        InvalidArgumentError, "scales must lie in (0, 1)",
    ),
    "scaling_exponent scale order": (
        lambda: scaling_exponent(DYADIC[::-1], DYADIC, "regression"),
        InvalidArgumentError, "scales must be strictly decreasing",
    ),
    "scaling_exponent value range": (
        lambda: scaling_exponent(DYADIC, [2.0, *DYADIC[1:]], "regression"),
        InvalidArgumentError, "values must lie in [0, 1]",
    ),
    # a NaN value was dropped as a zero scale, a NaN radius gave a NaN estimate
    "scaling_exponent NaN value": (
        lambda: scaling_exponent(DYADIC, [math.nan, *DYADIC[1:]], "regression"),
        InvalidArgumentError, "values must lie in [0, 1]",
    ),
    "scaling_exponent NaN radius": (
        lambda: scaling_exponent([*DYADIC[:2], math.nan, *DYADIC[3:]], DYADIC, "regression"),
        InvalidArgumentError, "scales must lie in (0, 1)",
    ),
    "config d below 1": (
        lambda: ExperimentConfig.from_dict({"name": "t", "alpha": 0.5, "d": 0, "seed": 1}),
        ConfigError, "d and n must be positive",
    ),
    "config n below 1": (
        lambda: ExperimentConfig.from_dict({"name": "t", "alpha": 0.5, "d": 1, "n": 0, "seed": 1}),
        ConfigError, "d and n must be positive",
    ),
    "sample points dimension": (
        lambda: fields._check_sample_points(np.zeros((3, 2)), FieldSpec(0.5, 1, 1)),
        InvalidArgumentError, "points do not match the field's domain dimension",
    ),
    "sample path points": (
        lambda: SamplePath(np.zeros((3, 2)), np.zeros((3, 1)), FieldSpec(0.5, 1, 1)),
        InvalidArgumentError, "points do not match the field's domain dimension",
    ),
    "sample path values": (
        lambda: SamplePath(np.zeros((3, 1)), np.zeros((3, 2)), FieldSpec(0.5, 1, 1)),
        InvalidArgumentError, "values must have shape (len(points), range_dim)",
    ),
    "kernel context measure": (
        lambda: KernelContext(FieldSpec(0.5, 2, 1), None, LINE),
        InvalidArgumentError, "measure lives on the wrong domain dimension",
    ),
    "kernel context drift": (
        lambda: KernelContext(FieldSpec(0.5, 1, 2), DriftSpec.zero(1), LINE),
        InvalidArgumentError, "drift and field range dimensions differ",
    ),
    "measure weights shape": (
        lambda: DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.0])),
        InvalidArgumentError, "weights must be a (k,) array matching atoms",
    ),
    # a probability measure has an atom; a sub-probability measure may not
    "measure without atoms": (
        lambda: DiscreteMeasure(np.zeros((0, 1)), np.zeros(0)),
        InvalidArgumentError, "points must form a nonempty (k, n) array, n >= 1",
    ),
    "submeasure without atoms": (
        lambda: SubMeasure(np.zeros((0, 1)), np.array([1.0])),
        InvalidArgumentError, "empty support needs empty weights",
    ),
    "interval prob negative rho": (
        lambda: gaussian_interval_prob(-1.0, 0.0, 1.0),
        InvalidArgumentError, "rho must be nonnegative",
    ),
    "interval prob negative r": (
        lambda: gaussian_interval_prob(1.0, 0.0, [1.0, -1.0]),
        InvalidArgumentError, "r must be nonnegative",
    ),
    "matrix not square": (
        lambda: _check_matrix(np.zeros((2, 3))),
        InvalidArgumentError, "matrix must be square",
    ),
    "system without levels": (
        lambda: NestedIntervalSystem(()),
        GeometryError, "a system needs at least the root level",
    ),
    "system root length": (
        lambda: NestedIntervalSystem((level([0.0], math.inf, None, 1),)),
        GeometryError, "root length must be positive and finite",
    ),
    "system level length": (
        system(level([0.0, 0.5], 1.0, 0.1, 2)),
        GeometryError, "level 1 length must shrink strictly",
    ),
    "system level gap": (
        system(level([0.0, 0.6], 0.4, None, 2)),
        GeometryError, "level 1 needs a positive sibling gap",
    ),
    "system level branching": (
        system(level([], 0.4, 0.2, 0)),
        GeometryError, "level 1 branching must be >= 1",
    ),
    "system level count": (
        system(level([0.0, 0.3, 0.6], 0.2, 0.1, 2)),
        GeometryError, "level 1 interval count mismatch",
    ),
    "system escape left": (
        system(level([-0.1, 0.6], 0.4, 0.3, 2)),
        GeometryError, "level 1 child escapes its parent on the left",
    ),
    "system gap bound": (
        system(level([0.0, 0.5], 0.25, 0.5, 2), uniform=False),
        GeometryError, "level 1 sibling gap below the stored bound",
    ),
    "symbolic H beyond L": (
        symbolic((0.5, 1.0), 2.0, 0.0),
        GeometryError, "level 1: need 0 < H < L in log domain",
    ),
    "symbolic link": (
        symbolic((1.0, 5.0), 2.0, 0.0),
        GeometryError, "level 1: two-scale link broken",
    ),
    "symbolic mass cap": (
        symbolic((1.0 - LOG2, 5.0), 2.0, 2.0),
        GeometryError, "level 1: mass cap exceeded",
    ),
    "scale doubling scales": (
        lambda: check_scale_doubling(LINE, 0.5, 0.1, 0.25, n_scales=1),
        InvalidArgumentError, "need at least two scanned scales",
    ),
    "parts in three dimensions": (
        lambda: check_parts(DiscreteMeasure(np.array([[0.1, 0.2, 0.3]]), np.array([1.0]))),
        InvalidArgumentError, "the checker covers d in {1, 2}",
    ),
    "graph bound domain": (
        lambda: check_graph_expectation_bound(
            extract_subsystem(build_uniform_cantor(2, 1.0 / 3.0, 8), 0.3, 2.0 / 3.0),
            FieldSpec(0.5, 2, 1),
        ),
        InvalidArgumentError, "subsystems live on the line",
    ),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=list(CASES))
def test_refusal(call, error, message):
    assert refusal(call) == (error, message)


def test_sample_point_budget(monkeypatch):
    monkeypatch.setattr(fields, "_MAX_POINTS", 2)
    points = np.array([[0.0], [0.5], [1.0]])
    assert refusal(lambda: fields._check_sample_points(points, FieldSpec(0.5, 1, 1))) == (
        InvalidArgumentError, "at most 2 points are supported",
    )


def test_atom_budget(monkeypatch):
    monkeypatch.setattr(measures, "_MAX_ATOMS", 2)
    atoms = np.array([[0.0], [0.5], [1.0]])
    assert refusal(lambda: DiscreteMeasure(atoms, np.full(3, 1.0 / 3.0))) == (
        InvalidArgumentError, "atom count 3 exceeds the supported 2",
    )


@pytest.mark.parametrize(
    "text",
    ["", "weight\n1.0\n", "x1,mass\n0.5,1.0\n", "y1,weight\n0.5,1.0\n", "x2,x1,weight\n"],
    ids=["empty", "weight only", "no weight", "misnamed", "out of order"],
)
def test_measure_csv_header(tmp_path, text):
    path = tmp_path / "mu.csv"
    path.write_text(text)
    assert refusal(lambda: read_measure_csv(path)) == (
        InvalidArgumentError, "expected header x1,...,xm,weight",
    )


def test_measure_csv_row_width(tmp_path):
    path = tmp_path / "mu.csv"
    path.write_text("x1,weight\n0.5,0.5,1.0\n")
    assert refusal(lambda: read_measure_csv(path)) == (
        InvalidArgumentError, "row width 3 does not match header",
    )


def test_measure_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "mu.csv"
    path.write_text("x1,weight\n\n0.25,0.5\n\n0.75,0.5\n\n")
    mu = read_measure_csv(path)
    assert mu.atoms.tolist() == [[0.25], [0.75]]
    assert mu.weights.tolist() == [0.5, 0.5]

"""The public surface and cold start: every exported name exists once,
importing packdim and the CLI, a closed-form prediction and box counting of
sampled paths load no scipy, and every function that imports scipy on first
use works on that first call."""

import dataclasses
import importlib
import inspect
import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import packdim

SUBMODULES = (
    "errors", "numerics", "measures", "fractals", "fields", "kernels",
    "estimators", "theory", "verify", "experiment", "cli",
)
# helpers that named no object of the model and that no library code called,
# and the Euclidean ball option of the field kernels
SWEPT = (
    "LogValue", "gaussian_cdf", "increment_kernel", "kahane_dims", "add_drift",
    "_euclid_ball_prob", "_NORMS",
)
# the field kernels measure balls in the maximum norm only
MAX_NORM_ONLY = ("field_tables", "ball_mass_profile", "expected_ball_mass", "dim_field")


@pytest.mark.parametrize("module", ("packdim",) + tuple(f"packdim.{m}" for m in SUBMODULES))
def test_public_surface(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert [name for name in SWEPT if hasattr(mod, name)] == []
    assert [
        name for name in MAX_NORM_ONLY
        if hasattr(mod, name) and "norm" in inspect.signature(getattr(mod, name)).parameters
    ] == []


def test_submeasure_fields():
    assert [f.name for f in dataclasses.fields(packdim.SubMeasure)] == ["atoms", "weights"]


SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def run_fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quick_start_path_loads_no_scipy():
    code = f"""
    import contextlib, io, json, sys
    loaded = {{}}
    import packdim
    loaded["import packdim"] = {SCIPY_LOADED}
    import packdim.cli
    loaded["import packdim.cli"] = {SCIPY_LOADED}
    with contextlib.redirect_stdout(io.StringIO()):
        assert packdim.cli.main(["predict", "--alpha", "0.5", "-d", "1", "--beta", "0.5"]) == 0
    loaded["packdim predict"] = {SCIPY_LOADED}
    import numpy as np
    from packdim import FieldSpec, ScaleGrid, Seed, box_counting_dim, graph_points, sample
    pts = np.linspace(0.0, 1.0, 2**13).reshape(-1, 1)
    for spec in (FieldSpec(0.5), FieldSpec(0.5, range_dim=2)):
        path = sample(spec, pts, Seed(7))
        box_counting_dim(graph_points(path), ScaleGrid(4, 9), connect=True)
        box_counting_dim(path.values, ScaleGrid(4, 9), connect=True, method="tail-max")
    loaded["box_counting_dim(connect=True)"] = {SCIPY_LOADED}
    print(json.dumps(loaded))
    """
    loaded = json.loads(run_fresh(code))
    assert len(loaded) == 4
    assert loaded == {stage: [] for stage in loaded}


# Each site's first call.
LAZY_SITES = {
    "numerics.gaussian_interval_prob": "packdim.gaussian_interval_prob(0.7, 0.2, 0.5)",
    "numerics.cholesky_psd": "packdim.cholesky_psd([[4.0, 2.0], [2.0, 5.0]]).tolist()",
}


@pytest.mark.parametrize("site", sorted(LAZY_SITES))
def test_first_call_of_a_lazy_import(site):
    expression = LAZY_SITES[site]
    code = f"""
    import sys
    import numpy as np
    import packdim
    assert not {SCIPY_LOADED}
    print(repr({expression}))
    assert {SCIPY_LOADED}
    """
    expected = eval(expression, {"packdim": packdim, "np": np})
    assert run_fresh(code).strip() == repr(expected)

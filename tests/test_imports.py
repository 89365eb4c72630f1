"""The public surface and cold start: every exported name exists once, the
package re-exports each library module's names and loses none it had,
importing packdim loads no CLI, importing packdim and the CLI, a
closed-form prediction, box counting of sampled paths and a measure CSV
write beside an fft sample load no scipy, and every function that imports
scipy on first use works on that first call.  The version is written once,
in packdim._version, and pyproject.toml reads it from there."""

import dataclasses
import importlib
import inspect
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import packdim

# the library modules packdim re-exports, in import order, and the CLI
LIBRARY = (
    "errors", "numerics", "measures", "fractals", "fields", "kernels",
    "estimators", "theory", "verify", "experiment",
)
SUBMODULES = LIBRARY + ("cli",)
# the package's names when __init__.py listed them by hand; each stays
SURFACE_BEFORE = (
    "CheckReport", "ConfigError", "DegenerateRegimeError", "DepthExhaustedError",
    "DiscreteMeasure", "DriftSpec", "ExperimentConfig", "ExponentEstimate",
    "ExtractedSubsystem", "FieldSpec", "GeometryError", "InsufficientScalesError",
    "InvalidArgumentError", "KernelContext", "MinkowskiBounds", "NestedIntervalSystem",
    "NotPositiveSemidefiniteError", "PackdimError", "PredictionReport", "Regime",
    "ResolutionError", "SamplePath", "ScaleGrid", "ScaleUnrepresentableError", "Seed",
    "SubMeasure", "SymbolicScaleSystem", "__version__", "ball_mass", "ball_mass_profile",
    "box_count", "box_count_curve", "box_counting_dim", "build_tx_system",
    "build_uniform_cantor", "canonical_metric", "check_doubling",
    "check_gaussian_interval_bound", "check_graph_expectation_bound", "check_parts",
    "check_regularity_conditions", "check_scale_doubling", "cholesky_psd", "covering_count",
    "dim_ball_mass", "dim_field", "dim_profile", "dim_slice_kernel", "expected_ball_mass",
    "extract_subsystem", "fbm_covariance", "gaussian_interval_prob", "graph_lower",
    "graph_measure", "graph_points", "image_measure", "increment_prob", "minkowski_bounds",
    "natural_measure", "predict_graph_upper", "predict_image", "profile_kernel",
    "read_measure_csv", "realize_explicit", "rect_mass", "run_experiment", "run_suite",
    "sample", "sample_many", "scaling_exponent", "slice_kernel", "slice_measure",
    "solve_crossing", "tx_lower", "write_measure_csv",
)
# helpers that named no object of the model and that no library code called,
# the Euclidean ball option of the field kernels, public names that only
# their own tests reached, the second uniform-grid test beside _mesh_axes,
# and the mesh-only expected-mass shortcut that kernels._coded_masses became
SWEPT = (
    "LogValue", "gaussian_cdf", "increment_kernel", "kahane_dims", "add_drift",
    "_euclid_ball_prob", "_NORMS",
    "pushforward", "InvalidMapError", "product_kernel", "predict_image_profile",
    "_is_uniform_grid_from_zero", "_mesh_masses",
)
# options no caller changed, each now fixed at its old default: the field
# kernels measure balls in the maximum norm only, ball_mass in the Euclidean
# norm only
FIXED_OPTIONS = (
    ("field_tables", "norm"),
    ("ball_mass_profile", "norm"),
    ("expected_ball_mass", "norm"),
    ("dim_field", "norm"),
    ("ball_mass", "norm"),
    ("slice_measure", "n"),
    ("extract_subsystem", "tight"),
    ("ExtractedSubsystem.measure", "level"),
    ("SymbolicScaleSystem.check_invariants", "rtol"),
    ("check_graph_expectation_bound", "bound"),
    ("check_gaussian_interval_bound", "n"),
)


def lookup(mod, dotted: str):
    """The object a dotted name reaches from ``mod``, or None."""
    for part in dotted.split("."):
        mod = getattr(mod, part, None)
    return mod


@pytest.mark.parametrize("module", ("packdim",) + tuple(f"packdim.{m}" for m in SUBMODULES))
def test_public_surface(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert [name for name in SWEPT if hasattr(mod, name)] == []
    assert [
        (name, option) for name, option in FIXED_OPTIONS
        if lookup(mod, name) is not None
        and option in inspect.signature(lookup(mod, name)).parameters
    ] == []


def test_package_exports_each_library_module():
    lists = [importlib.import_module(f"packdim.{m}").__all__ for m in LIBRARY]
    assert packdim.__all__ == ["__version__"] + [name for names in lists for name in names]
    assert len(packdim.__all__) == len(set(packdim.__all__))


def test_no_exported_name_is_lost():
    assert len(SURFACE_BEFORE) == 75
    assert [name for name in SURFACE_BEFORE if name not in packdim.__all__] == []
    # the names the modules listed that the package did not re-export by hand
    assert sorted(set(packdim.__all__) - set(SURFACE_BEFORE)) == [
        "LevelSpec", "ball_tables", "field_tables", "profile_tables", "slice_tables",
    ]


def test_submeasure_fields():
    assert [f.name for f in dataclasses.fields(packdim.SubMeasure)] == ["atoms", "weights"]
    # a probability measure is a sub-probability measure with no field of its own
    assert issubclass(packdim.DiscreteMeasure, packdim.SubMeasure)
    assert dataclasses.fields(packdim.DiscreteMeasure) == dataclasses.fields(packdim.SubMeasure)


def test_one_version_string():
    # the build reads the version from packdim._version, the one place it is written
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" not in pyproject["project"]
    assert pyproject["project"]["dynamic"] == ["version"]
    attr = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    module, name = attr.rsplit(".", 1)
    assert getattr(importlib.import_module(module), name) == packdim.__version__


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


def test_benchmark_setup_path_loads_no_scipy(tmp_path):
    # the library calls a sets-and-checks benchmark set-up times: a Cantor
    # measure written to CSV, a 1024-point fft path and its graph measure
    code = f"""
    import json, sys
    import numpy as np
    from packdim import (
        FieldSpec, Seed, build_uniform_cantor, graph_measure, natural_measure, sample,
        write_measure_csv,
    )
    loaded = {{}}
    system = build_uniform_cantor(2, 1.0 / 3.0, 12)
    write_measure_csv(natural_measure(system, 12), {str(tmp_path / "cantor.csv")!r})
    loaded["write_measure_csv"] = {SCIPY_LOADED}
    path = sample(FieldSpec(0.5), np.linspace(0.0, 1.0, 1024)[:, None], Seed(5))
    assert len(path.values) == 1024
    graph_measure(path)
    loaded["graph_measure(sample)"] = {SCIPY_LOADED}
    print(json.dumps(loaded))
    """
    loaded = json.loads(run_fresh(code))
    assert len(loaded) == 2
    assert loaded == {stage: [] for stage in loaded}
    assert (tmp_path / "cantor.csv").read_text().count("\n") == 1 + 2**12


def test_import_loads_no_cli():
    code = """
    import json, sys
    import packdim
    print(json.dumps(sorted(m for m in sys.modules if m in ("argparse", "packdim.cli"))))
    """
    assert json.loads(run_fresh(code)) == []


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

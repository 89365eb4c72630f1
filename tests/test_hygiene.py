"""Source hygiene: no module under src/, tests/ or demos/ imports a name it
never uses.  The scan is a stdlib AST walk, so it needs no linter.  An
import is kept unread only when bench/worker.py still wraps its name and
its line says so with ``# noqa: F401``, so a binding goes when the
benchmark stops wrapping it.

The package also keeps one pairwise distance formula,
numerics._pair_distances: no function under src/packdim takes
np.linalg.norm of a broadcast rows-against-atoms difference, or an
np.einsum sum of squares.  And it builds equal weights in one place: only
measures._uniform calls np.full with a fill value 1 / k.  And no
scipy.special function is called with where=, which scipy 1.17
mishandles.  And it writes
the drift case split of the field kernel once: only kernels.field_tables
and its coded-set shortcut kernels._coded_masses call _drift_cancels(), and
only estimators._field_masses, the one expected-mass table, passes
field_tables to _mass_table.  And it factors a matrix in one place: only
numerics._cholesky_in_place calls LAPACK's dpotrf.  And kernels reaches the Gaussian interval probability
only by calling its module-level name gaussian_interval_prob, the binding
the benchmark wraps, and only in field_tables.  And it orders box-counting
cells on single keys: np.lexsort is called only by numerics._distinct_rows,
and a row-wise np.unique(..., axis=...) only where its inverse is read.
And it stamps its outputs in one place each: only experiment._csv_text
calls _stamp, the comment line that opens every CSV output, and only
experiment._stamped writes a "config_hash" key.  And it builds estimates
in one place: only estimators._estimate calls ExponentEstimate.  And it
turns a refusal into a ConfigError in one place: no except handler but
experiment._refused's calls ConfigError.  And an experiment config builds
its set in one place: in experiment.py only ExperimentConfig._set_system
calls build_uniform_cantor, build_tx_system or realize_explicit.  And the
run reads what the load built: in experiment.py only validate and
_set_system call scale_grid, drift_spec, _mesh_points or natural_measure.
And verify weighs closed boxes around atoms in one place: in verify.py
only _box_masses takes a difference of atoms against atoms.  And only
numerics._run_masses finds closed runs of sorted keys (a right-sided
bisection) and weighs them by prefix-sum differences.

Every name packdim exports, its own __all__ and that of each module it
star-imports, and every public method and property of the classes among
them, is read somewhere outside the tests: in the package's own modules, a
demo or the benchmark, unless UNREACHED lists it with the reason it
stays."""

import ast
import re
from pathlib import Path

import pytest

import packdim

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
PACKAGE = sorted((ROOT / "src" / "packdim").rglob("*.py"))
# the attributes bench/worker.py wraps by a literal name
WRAPPED = set(
    re.findall(r'tracer\.wrap\(\w+, "(\w+)"', (ROOT / "bench" / "worker.py").read_text())
)


def _exported(tree: ast.Module) -> set[str]:
    """The strings listed in __all__ assignments."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


def unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = (alias.asname or alias.name).split(".")[0]
            kept = "noqa: F401" in lines[alias.lineno - 1] and bound in WRAPPED
            if bound == "*" or bound in used or kept:
                continue
            unused.append(f"{alias.lineno}: {bound}")
    return unused


def test_scan_sees_the_tree():
    assert any(p.name == "kernels.py" for p in FILES)
    assert any(p.parent.name == "demos" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_flags_an_unused_import(tmp_path):
    wrapped = sorted(WRAPPED)[0]
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\nimport os  # noqa: F401\nfrom json import dumps, loads\n"
        f"from json import load as {wrapped}  # noqa: F401\n"
        "__all__ = ['loads']\nprint(dumps)\n",
        encoding="utf-8",
    )
    assert unused_imports(probe) == ["1: math", "2: os"]


def _none_at(side: ast.expr, i: int) -> bool:
    return (
        isinstance(side, ast.Subscript)
        and isinstance(side.slice, ast.Tuple)
        and len(side.slice.elts) > i
        and isinstance(side.slice.elts[i], ast.Constant)
        and side.slice.elts[i].value is None
    )


def _is_pairwise_difference(node: ast.AST) -> bool:
    """x[:, None, ...] - y[None, :, ...]: every row against every atom."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and _none_at(node.left, 1)
        and _none_at(node.right, 0)
    )


def _is_norm(node: ast.AST) -> bool:
    f = node.func if isinstance(node, ast.Call) else None
    return (
        isinstance(f, ast.Attribute)
        and f.attr == "norm"
        and isinstance(f.value, ast.Attribute)
        and f.value.attr == "linalg"
    )


def pairwise_norms(path: Path) -> list[str]:
    """The functions that take np.linalg.norm of a pairwise difference, in
    its arguments or through a name the function binds to one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {
            target.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign)
            and any(_is_pairwise_difference(n) for n in ast.walk(node.value))
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for call in ast.walk(fn):
            if _is_norm(call) and any(
                _is_pairwise_difference(n) or (isinstance(n, ast.Name) and n.id in bound)
                for arg in call.args
                for n in ast.walk(arg)
            ):
                hits.add(f"{fn.lineno}: {fn.name}")
    return sorted(hits)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_one_pairwise_distance_formula(path):
    assert pairwise_norms(path) == []
    # from 3 coordinates on, an einsum sum of squares rounds otherwise
    assert owners(path, _squares) == []


def test_scan_flags_a_pairwise_norm(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "def direct(x, y):\n"
        "    return np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)\n"
        "def through_a_name(x, y):\n"
        "    diff = x[:, None, :] - y[None, :, :]\n"
        "    return np.linalg.norm(diff, axis=-1)\n"
        "def one_point(t, s):\n"
        "    return np.linalg.norm(t - s)\n",
        encoding="utf-8",
    )
    assert pairwise_norms(probe) == ["2: direct", "4: through_a_name"]


def owners(path: Path, matches) -> list[str]:
    """The innermost functions that hold a node for which ``matches`` is
    true; a node outside every function is reported as <module>."""
    hits = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{node.lineno}: {node.name}"
        if matches(node):
            hits.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sorted(hits)


def _calls(node: ast.AST, name: str) -> bool:
    """A call of ``name``, bare or as an attribute."""
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None)
    )


def _squares(node: ast.AST) -> bool:
    """An einsum with one operand twice, a sum of squares such as
    einsum("ij,ij->i", diff, diff)."""
    operands = [ast.dump(arg) for arg in node.args[1:]] if _calls(node, "einsum") else []
    return len(set(operands)) < len(operands)


def test_scan_flags_a_squared_einsum(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "def norms(x, y):\n"
        "    diff = x - y\n"
        "    return np.sqrt(np.einsum('ij,ij->i', diff, diff))\n"
        "def product(a, b):\n"
        "    return np.einsum('ij,jk->ik', a, b)\n"
        "sq = einsum('i,i', v[0], v[0])\n",
        encoding="utf-8",
    )
    assert owners(probe, _squares) == ["2: norms", "<module>"]


def callers(path: Path, name: str, keyword: str | None = None) -> list[str]:
    """The innermost functions that call ``name``, bare or as an attribute,
    and, if ``keyword`` is given, pass that keyword argument; a call outside
    every function is reported as <module>."""
    return owners(
        path,
        lambda node: _calls(node, name)
        and (keyword is None or any(k.arg == keyword for k in node.keywords)),
    )


def _package_callers(name: str, keyword: str | None = None) -> set[tuple[str, str]]:
    return {
        (path.name, hit.split(": ")[-1])
        for path in PACKAGE
        for hit in callers(path, name, keyword)
    }


def test_one_drift_case_split():
    assert _package_callers("_drift_cancels") == {
        ("kernels.py", "field_tables"),
        ("kernels.py", "_coded_masses"),
    }


def test_scan_flags_a_stray_drift_split(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def field_tables(ctx):\n"
        "    return ctx._drift_cancels()\n"
        "def stray(ctx):\n"
        "    def inner():\n"
        "        return ctx._drift_cancels()\n"
        "    return inner\n"
        "def reads_the_name(ctx):\n"
        "    return ctx._drift_cancels\n"
        "flag = KernelContext._drift_cancels(None)\n",
        encoding="utf-8",
    )
    assert callers(probe, "_drift_cancels") == ["1: field_tables", "4: inner", "<module>"]


def _field_walk(node: ast.AST) -> bool:
    """A call of _mass_table with field_tables anywhere in its arguments."""
    return _calls(node, "_mass_table") and any(
        "field_tables" in (getattr(n, "id", None), getattr(n, "attr", None))
        for arg in [*node.args, *(k.value for k in node.keywords)]
        for n in ast.walk(arg)
    )


def test_one_expected_mass_table():
    assert {
        (path.name, hit.split(": ")[-1])
        for path in PACKAGE
        for hit in owners(path, _field_walk)
    } == {("estimators.py", "_field_masses")}


def test_scan_flags_a_stray_field_walk(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _field_masses(ctx, radii):\n"
        "    return _mass_table(ctx.measure, partial(field_tables, ctx), radii)\n"
        "def stray(mu, ctx, radii):\n"
        "    return estimators._mass_table(mu, partial(kernels.field_tables, ctx), radii)\n"
        "def balls(mu, radii):\n"
        "    return _mass_table(mu, ball_tables, radii)\n"
        "V = _mass_table(mu, tables=lambda r, a, x: field_tables(ctx, r, a, x), radii=radii)\n",
        encoding="utf-8",
    )
    assert owners(probe, _field_walk) == ["1: _field_masses", "3: stray", "<module>"]


def test_one_factorization_site():
    assert _package_callers("dpotrf") == {("numerics.py", "_cholesky_in_place")}


def test_scan_flags_a_stray_factorization(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from scipy.linalg import lapack\n"
        "from scipy.linalg.lapack import dpotrf\n"
        "def _cholesky_in_place(work):\n"
        "    return dpotrf(work.T, lower=1)\n"
        "def stray(m):\n"
        "    return lapack.dpotrf(m)\n"
        "def reads_the_name():\n"
        "    return dpotrf\n"
        "c, info = dpotrf([[1.0]])\n",
        encoding="utf-8",
    )
    assert callers(probe, "dpotrf") == ["3: _cholesky_in_place", "5: stray", "<module>"]


def test_cells_are_sorted_on_single_keys():
    # box counting orders cells and the walk's crossings by packed int64
    # keys; the one lexsort left is _distinct_rows' fallback for float rows
    # and wide spans (test_estimators checks that packed rows take none)
    assert _package_callers("lexsort") == {("numerics.py", "_distinct_rows")}
    # the distinct-point checks of sample points and measure atoms go
    # through numerics._rows_are_distinct; a row-wise np.unique is left only
    # where its inverse is read
    assert _package_callers("unique", keyword="axis") == {
        ("estimators.py", "_fit"),
        ("measures.py", "_merge_equal"),
    }


def test_scan_flags_a_stray_lexsort_and_row_unique(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "def _distinct_rows(rows):\n"
        "    return rows[np.lexsort(rows.T[::-1])]\n"
        "def stray(a, b):\n"
        "    return np.lexsort((a, b))\n"
        "def distinct(p):\n"
        "    return len(np.unique(p, axis=0)) == len(p)\n"
        "def flat(p):\n"
        "    return np.unique(p)\n"
        "rows = np.unique([[1, 2]], return_counts=True, axis=1)\n",
        encoding="utf-8",
    )
    assert callers(probe, "lexsort") == ["2: _distinct_rows", "4: stray"]
    assert callers(probe, "unique", keyword="axis") == ["6: distinct", "<module>"]
    assert callers(probe, "unique") == ["6: distinct", "8: flat", "<module>"]


def _uniform_weights(node: ast.AST) -> bool:
    """A call of full with a fill value 1 / x, positional or by keyword."""
    fill = []
    if _calls(node, "full"):
        fill = node.args[1:2] + [k.value for k in node.keywords if k.arg == "fill_value"]
    return any(
        isinstance(f, ast.BinOp)
        and isinstance(f.op, ast.Div)
        and getattr(f.left, "value", None) == 1
        for f in fill
    )


def test_one_uniform_measure():
    assert {
        (path.name, hit.split(": ")[-1])
        for path in PACKAGE
        for hit in owners(path, _uniform_weights)
    } == {("measures.py", "_uniform")}


def test_scan_flags_a_stray_uniform_weight(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "def _uniform(points):\n"
        "    return np.full(len(points), 1.0 / len(points))\n"
        "def by_keyword(k):\n"
        "    return np.full(k, fill_value=1 / k)\n"
        "def other_fill(k, h):\n"
        "    return np.full(k, 2.0 / h), np.full(k, h)\n"
        "w = full(8, 1.0 / 8)\n",
        encoding="utf-8",
    )
    assert owners(probe, _uniform_weights) == ["2: _uniform", "4: by_keyword", "<module>"]


def special_calls_with_where(path: Path) -> list[int]:
    """The lines that call a scipy.special function with where=: a name
    imported from scipy.special, or an attribute of scipy.special or of a
    name bound to it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.special":
            names |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            modules |= {a.asname or a.name for a in node.names if a.name == "special"}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names if alias.name == "scipy.special"}
    modules.discard(None)
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not any(k.arg == "where" for k in node.keywords):
            continue
        f = node.func
        special = isinstance(f, ast.Name) and f.id in names
        if isinstance(f, ast.Attribute):
            owner = f.value
            special = (isinstance(owner, ast.Name) and owner.id in modules) or (
                isinstance(owner, ast.Attribute)
                and owner.attr == "special"
                and getattr(owner.value, "id", None) == "scipy"
            )
        if special:
            hits.append(node.lineno)
    return sorted(hits)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_special_function_takes_where(path):
    # scipy 1.17's special ufuncs mishandle where= (wrong values, or a
    # crash): gaussian_interval_prob gathers its lanes instead
    assert special_calls_with_where(path) == []


def test_scan_flags_a_special_function_with_where(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "import scipy.special\n"
        "import scipy.special as sp\n"
        "from scipy import special\n"
        "from scipy.special import erf, erfc as c\n"
        "def masked(x, m):\n"
        "    erf(x, out=x, where=m)\n"
        "    c(x, where=m)\n"
        "    special.ndtr(x, where=m)\n"
        "    sp.erf(x, where=m)\n"
        "    scipy.special.erfc(x, where=m)\n"
        "    erf(x, out=x)\n"
        "    np.copyto(x, 0.0, where=m)\n"
        "    return np.sqrt(x, where=m)\n",
        encoding="utf-8",
    )
    assert special_calls_with_where(probe) == [7, 8, 9, 10, 11]


def key_writers(path: Path, key: str) -> list[str]:
    """The innermost functions that write the string ``key`` into a dict, as
    a key of a dict display, a keyword of dict() or a subscript assigned
    to; a write outside every function is reported as <module>."""

    def writes(node: ast.AST) -> bool:
        if isinstance(node, ast.Dict):
            return key in [k.value for k in node.keys if isinstance(k, ast.Constant)]
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            return getattr(node.slice, "value", None) == key
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            return key in [k.arg for k in node.keywords]
        return False

    return owners(path, writes)


def test_one_csv_writer_and_one_json_stamp():
    assert _package_callers("_stamp") == {("experiment.py", "_csv_text")}
    assert {
        (path.name, hit.split(": ")[-1])
        for path in PACKAGE
        for hit in key_writers(path, "config_hash")
    } == {("experiment.py", "_stamped")}


def test_scan_flags_a_stray_stamp(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _csv_text(h):\n"
        "    return _stamp(h)\n"
        "def by_hand(h, payload):\n"
        "    payload['config_hash'] = h\n"
        "    return {'config_hash': h}\n"
        "def as_keyword(h):\n"
        "    return dict(config_hash=h)\n"
        "def reads_it(payload):\n"
        "    return payload['config_hash'], {'hash': 'config_hash'}\n"
        "text = _stamp('0')\n",
        encoding="utf-8",
    )
    assert callers(probe, "_stamp") == ["1: _csv_text", "<module>"]
    assert key_writers(probe, "config_hash") == ["3: by_hand", "6: as_keyword"]


def test_one_estimate_builder():
    assert _package_callers("ExponentEstimate") == {("estimators.py", "_estimate")}


def test_scan_flags_a_stray_estimate(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _estimate(radii, column, logv, method):\n"
        "    return ExponentEstimate(0.0, (), method, ())\n"
        "def stray(value):\n"
        "    return estimators.ExponentEstimate(value, (), 'regression', ())\n"
        "def tagged(est):\n"
        "    return replace(est, atom_index=0), ExponentEstimate\n"
        "EMPTY = ExponentEstimate(0.0, (), 'regression', ())\n",
        encoding="utf-8",
    )
    assert callers(probe, "ExponentEstimate") == ["1: _estimate", "3: stray", "<module>"]


def _config_refusal(node: ast.AST) -> bool:
    """An except handler that calls ConfigError anywhere in its body."""
    return isinstance(node, ast.ExceptHandler) and any(
        _calls(n, "ConfigError") for n in ast.walk(node)
    )


def test_one_config_refusal():
    assert {
        (path.name, hit.split(": ")[-1])
        for path in PACKAGE
        for hit in owners(path, _config_refusal)
    } == {("experiment.py", "_refused")}


def test_scan_flags_a_stray_config_refusal(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _refused(label, errors):\n"
        "    try:\n"
        "        yield\n"
        "    except errors as exc:\n"
        "        raise ConfigError(f'{label}: {exc}') from exc\n"
        "def stray(seed):\n"
        "    try:\n"
        "        Seed(seed)\n"
        "    except InvalidArgumentError as exc:\n"
        "        raise errors.ConfigError(f'seed: {exc}') from exc\n"
        "def plain(d):\n"
        "    if d < 1:\n"
        "        raise ConfigError('d must be positive')\n"
        "def passes_on(text):\n"
        "    try:\n"
        "        return int(text)\n"
        "    except ValueError:\n"
        "        raise\n"
        "try:\n"
        "    import tomllib\n"
        "except ImportError as exc:\n"
        "    error = ConfigError(str(exc))\n",
        encoding="utf-8",
    )
    assert owners(probe, _config_refusal) == ["1: _refused", "6: stray", "<module>"]


# the builders of an experiment's Cantor and txset sets
_SET_BUILDERS = ("build_uniform_cantor", "build_tx_system", "realize_explicit")


def _set_build(node: ast.AST) -> bool:
    return any(_calls(node, name) for name in _SET_BUILDERS)


def test_one_set_builder():
    # a config counts, budget-checks and builds its set in one place, once
    experiment = ROOT / "src" / "packdim" / "experiment.py"
    assert [hit.split(": ")[-1] for hit in owners(experiment, _set_build)] == ["_set_system"]


def test_scan_flags_a_stray_set_build(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _set_system(kind, params):\n"
        "    symbolic = build_tx_system(params['beta'], levels=2)\n"
        "    return realize_explicit(symbolic, 2)\n"
        "def _build_set(cfg):\n"
        "    return fractals.build_uniform_cantor(2, 1 / 3, 7)\n"
        "def reads_it(cfg):\n"
        "    return cfg._system, build_tx_system\n"
        "SYSTEM = realize_explicit(build_tx_system(0.5), 1)\n",
        encoding="utf-8",
    )
    assert owners(probe, _set_build) == ["1: _set_system", "4: _build_set", "<module>"]


# what an experiment's grid, drift, points and measure are built with
_INPUT_BUILDERS = ("scale_grid", "drift_spec", "_mesh_points", "natural_measure")


def _input_build(node: ast.AST) -> bool:
    return any(_calls(node, name) for name in _INPUT_BUILDERS)


def test_the_run_reads_what_the_load_built():
    # validate builds a config's grid and drift and _set_system its points
    # and measure; run_experiment reads what they hold
    experiment = ROOT / "src" / "packdim" / "experiment.py"
    hits = {hit.split(": ")[-1] for hit in owners(experiment, _input_build)}
    assert hits == {"_set_system", "validate"}


def test_scan_flags_a_stray_input_build(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def validate(self):\n"
        "    self._grid = self.scale_grid()\n"
        "def run_experiment(config):\n"
        "    grid, drift = config._grid, config.drift_spec()\n"
        "    return fields.natural_measure(system, 2), _mesh_points(8, 1, 1.0)\n"
        "def reads_it(config):\n"
        "    return config._grid, config.scale_grid\n",
        encoding="utf-8",
    )
    assert owners(probe, _input_build) == ["1: validate", "3: run_experiment"]


def _root(side: ast.expr) -> str:
    while isinstance(side, ast.Subscript):
        side = side.value
    return ast.dump(side)


def _atom_difference(node: ast.AST) -> bool:
    """A difference of atoms against atoms, the offsets a box mask compares
    with its half-widths: one array minus itself up to subscripts, as in
    nu.atoms - nu.atoms[i], or two rows read at one loop index, as in
    p[j] - center[j]."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    indices = [
        side.slice.id
        for side in (node.left, node.right)
        if isinstance(side, ast.Subscript) and isinstance(side.slice, ast.Name)
    ]
    return _root(node.left) == _root(node.right) or (len(indices) == 2 and len(set(indices)) == 1)


def _root_name(node: ast.expr) -> str | None:
    """The name an array expression reads, through subscripts and
    attributes: ``cum`` for cum[1:] and for cum[1:].T."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def closed_runs(path: Path) -> list[str]:
    """The functions that find a closed run of sorted keys, by a
    searchsorted(..., side="right") or a bisect_right, or that take a
    prefix-sum difference: one array read at two subscripts and subtracted,
    where the function binds that array to a cumsum or an accumulate, or
    has a cumsum write into it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        prefix = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and any(
                _calls(n, "cumsum") or _calls(n, "accumulate") for n in ast.walk(node.value)
            ):
                prefix |= {_root_name(t) for t in node.targets}
            if _calls(node, "cumsum"):
                prefix |= {_root_name(k.value) for k in node.keywords if k.arg == "out"}
        prefix.discard(None)
        for node in ast.walk(fn):
            closed = _calls(node, "bisect_right") or _calls(node, "searchsorted") and any(
                k.arg == "side" and getattr(k.value, "value", None) == "right" for k in node.keywords
            )
            difference = (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Sub)
                and all(
                    isinstance(side, ast.Subscript) and _root_name(side) in prefix
                    for side in (node.left, node.right)
                )
            )
            if closed or difference:
                hits.add(f"{fn.lineno}: {fn.name}")
    return sorted(hits)


def test_one_box_mass_table():
    # both doubling checks read their box masses from _box_masses, or on
    # the line from numerics._run_masses, the one place that finds closed
    # runs of sorted keys and weighs them by prefix sums
    verify = ROOT / "src" / "packdim" / "verify.py"
    assert [hit.split(": ")[-1] for hit in owners(verify, _atom_difference)] == ["_box_masses"]
    runs = {(path.name, hit.split(": ")[-1]) for path in PACKAGE for hit in closed_runs(path)}
    assert runs == {("numerics.py", "_run_masses")}


def test_scan_flags_a_stray_closed_run(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import bisect, itertools\n"
        "import numpy as np\n"
        "def _run_masses(keys, weights, halves):\n"
        "    prefix = np.zeros(len(keys) + 1)\n"
        "    np.cumsum(weights, out=prefix[1:])\n"
        "    return prefix[end] - prefix[first]\n"
        "def check_doubling(line, cum, keys, h):\n"
        "    hi = np.searchsorted(line, keys + h, side='right')\n"
        "    return hi\n"
        "def inline_sums(line, w, lo, hi):\n"
        "    cum = np.concatenate([[0.0], np.cumsum(w)])\n"
        "    return cum[hi] - cum[lo]\n"
        "def python_runs(line, w, x, h):\n"
        "    sums = list(itertools.accumulate(w, initial=0))\n"
        "    return sums[bisect.bisect_left(line, x + h)] - sums[0]\n"
        "def pure_bisect(line, x, h):\n"
        "    return bisect.bisect_right(line, x + h)\n"
        "def median(w, order):\n"
        "    cum = np.cumsum(w[order])\n"
        "    return order[np.searchsorted(cum, 0.5)], cum[-1], np.diff(cum), w[1] - w[0]\n",
        encoding="utf-8",
    )
    assert closed_runs(probe) == [
        "10: inline_sums", "13: python_runs", "16: pure_bisect", "3: _run_masses", "7: check_doubling",
    ]


def test_scan_flags_a_stray_box_mask(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _box_masses(keys, weights, halves):\n"
        "    return np.abs(keys[None, :, :] - keys[:4, None, :])\n"
        "def stray(nu, i, h):\n"
        "    return np.all(np.abs(nu.atoms - nu.atoms[i]) <= h, axis=1) @ nu.weights\n"
        "def pairs(coords, center, j):\n"
        "    return [abs(p[j] - center[j]) for p in coords]\n"
        "def scalars(a, b, phi):\n"
        "    return abs(a - b), phi(a)[0] - phi(b)[0], a[1:] + a[:-1], a[0] - b[1]\n",
        encoding="utf-8",
    )
    assert owners(probe, _atom_difference) == ["1: _box_masses", "3: stray", "5: pairs"]


# what the probability is computed with below gaussian_interval_prob
_PROBABILITY_PARTS = {"erf", "erfc", "ndtr", "_erf_form", "_erfc_form"}


def probability_routes(path: Path) -> list[str]:
    """The places where ``path`` reaches the Gaussian interval probability
    other than by calling its module-level name gaussian_interval_prob, as
    imported once at the top of the module: an aliased or nested import of
    it, a rebinding of the name, a read of it that is not a call (a stored
    or partially applied function keeps the binding it saw), an attribute
    such as numerics.gaussian_interval_prob, and the special functions and
    helpers under it.  A benchmark that wraps the module attribute sees
    every call of the bare name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    called = {
        id(node.func) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    top = set(tree.body)
    hits = set()
    for node in ast.walk(tree):
        where = f"{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "gaussian_interval_prob" and (alias.asname or node not in top):
                    hits.add(f"{where}: import")
                if alias.name in _PROBABILITY_PARTS:
                    hits.add(f"{where}: {alias.name}")
        elif isinstance(node, ast.Name) and node.id == "gaussian_interval_prob":
            if not isinstance(node.ctx, ast.Load) or id(node) not in called:
                hits.add(f"{where}: gaussian_interval_prob")
        elif isinstance(node, ast.arg) and node.arg == "gaussian_interval_prob":
            hits.add(f"{where}: argument")
        elif isinstance(node, ast.Attribute) and (
            node.attr == "gaussian_interval_prob" or node.attr in _PROBABILITY_PARTS
        ):
            hits.add(f"{where}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in _PROBABILITY_PARTS:
            hits.add(f"{where}: {node.id}")
    return sorted(hits, key=lambda h: int(h.split(":")[0]))


def test_kernels_reach_the_probability_through_one_name():
    # bench/worker.py wraps kernels.gaussian_interval_prob for its
    # numerics.gaussian_interval_prob spans; any other route bypasses them
    kernels = ROOT / "src" / "packdim" / "kernels.py"
    assert probability_routes(kernels) == []
    # and field_tables alone calls it: the lattice shortcut reads its row
    assert {hit.split(": ")[-1] for hit in callers(kernels, "gaussian_interval_prob")} == {
        "field_tables"
    }


def test_scan_flags_a_stray_probability_route(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .numerics import gaussian_interval_prob\n"
        "from . import numerics\n"
        "def table(rho, a, r):\n"
        "    return gaussian_interval_prob(rho, a, r)\n"
        "def stored(rho):\n"
        "    g = gaussian_interval_prob\n"
        "    return g(rho, 0.0, 1.0)\n"
        "def direct(rho):\n"
        "    return numerics.gaussian_interval_prob(rho, 0.0, 1.0)\n"
        "def nested(rho):\n"
        "    from .numerics import gaussian_interval_prob as gip\n"
        "    return gip(rho, 0.0, 1.0)\n"
        "def special(x):\n"
        "    from scipy.special import erf\n"
        "    return erf(x)\n",
        encoding="utf-8",
    )
    assert probability_routes(probe) == [
        "6: gaussian_interval_prob", "9: .gaussian_interval_prob", "11: import",
        "14: erf", "15: erf",
    ]


# public names that no module outside the tests reads, each with why it stays
UNREACHED = (
    ("ball_mass", "the first term of criterion 01's kernel chain"),
    ("profile_kernel", "the middle term of criterion 01's kernel chain"),
    ("fbm_covariance", "the reference the Cholesky sampler's covariance is tested against"),
    ("canonical_metric", "the paper's canonical metric |t - s|^alpha"),
    ("image_measure", "the paper's image measure, beside graph_measure"),
    (
        "ExperimentConfig.to_json",
        "from_json's inverse: it writes the canonical JSON the config hash is taken over",
    ),
)


def _reads(node: ast.AST, inside: frozenset, names: set[str]) -> None:
    """Add to ``names`` each name and attribute ``node`` reads, except those
    read inside the definition that binds them."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
        read = node.id if isinstance(node, ast.Name) else node.attr
        if read not in inside:
            names.add(read)
    for child in ast.iter_child_nodes(node):
        _reads(child, inside, names)


def public_names(package: Path) -> set[str]:
    """The names packdim exports: the strings in __init__.py's own __all__
    and in the __all__ of each module it star-imports."""
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    public = _exported(init)
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]:
            source = package / f"{node.module}.py"
            public |= _exported(ast.parse(source.read_text(encoding="utf-8")))
    return public


def _members(tree: ast.Module, public: set[str]) -> dict[str, str]:
    """Class.member -> member for each public method and property of the
    classes in ``public`` that ``tree`` defines."""
    return {
        f"{node.name}.{item.name}": item.name
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in public
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    }


def unreached(root: Path) -> list[str]:
    """The names packdim exports, and the public methods and properties of
    its exported classes as Class.member, that nothing outside the tests
    reads.  A read is a name or attribute in src/packdim (not __init__.py,
    not inside its own definition), demos/ or bench/, or a dotted part of a
    string in bench/, since the benchmark tracer binds by name.  A member
    is read when its name is: the scan cannot tell the class of the object
    an attribute is read from."""
    package = root / "src" / "packdim"
    public = public_names(package)
    sources = [p for p in package.rglob("*.py") if p.name != "__init__.py"]
    sources += [p for d in ("demos", "bench") for p in (root / d).rglob("*.py")]
    names: set[str] = set()
    members: dict[str, str] = {}
    for path in sources:
        if path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _reads(tree, frozenset(), names)
        if path.parent == package:
            members |= _members(tree, public)
        if path.parent.name == "bench":
            names |= {
                part
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                for part in node.value.split(".")
            }
    return sorted([*(public - names), *(m for m, name in members.items() if name not in names)])


def test_every_public_name_is_reached():
    assert unreached(ROOT) == sorted(name for name, _ in UNREACHED)


def test_scan_sees_every_exported_name():
    assert public_names(ROOT / "src" / "packdim") == set(packdim.__all__)


def test_scan_flags_an_unreached_name(tmp_path):
    files = {
        "src/packdim/__init__.py": "from .core import *\nfrom .extra import *\n"
        "from .hidden import lonely\n_ = lonely\n__all__ = ['own']\n"
        "for m in (core, extra):\n    __all__ += m.__all__\n",
        "src/packdim/core.py":
        "__all__ = ['used', 'attr', 'traced', 'demoed', 'lonely', 'Shape']\n"
        "def used(): return 1\n"
        "class Shape:\n"
        "    def called(self): return 1\n"
        "    @property\n"
        "    def size(self): return self.size\n"
        "    def spare(self): return self.called()\n"
        "    def _private(self): return 0\n"
        "class Internal:\n"
        "    def unseen(self): return 0\n"
        "def lonely(): return 2\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "stored = 3\n"
        "def caller(): return used() + np.attr\n",
        "src/packdim/extra.py": "__all__ = ['recursive', 'tested', 'stored']\n",
        "src/packdim/hidden.py": "__all__ = ['hidden']\n",
        "demos/show.py": "import packdim\npackdim.demoed()\npackdim.Shape()\n",
        "bench/worker.py": "wrap(core, 'core.traced')\n",
        "bench/test_smoke.py": "import packdim\npackdim.tested()\n",
        "tests/test_core.py": "from packdim import lonely\nlonely()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert unreached(tmp_path) == [
        "Shape.size", "Shape.spare", "lonely", "own", "recursive", "stored", "tested",
    ]

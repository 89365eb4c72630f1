"""Source hygiene: no module under src/, tests/ or demos/ imports a name it
never uses.  The scan is a stdlib AST walk, so it needs no linter.  An
import kept on purpose, such as a binding the benchmark tracer wraps, says
so with ``# noqa: F401`` on its line.

The package also keeps one pairwise distance formula,
numerics._pair_distances: no function under src/packdim takes
np.linalg.norm of a broadcast rows-against-atoms difference.  And it writes
the drift case split of the field kernel once: only kernels.field_tables
and its lattice shortcut kernels._mesh_masses call _drift_cancels().  And
it factors a matrix in one place: only numerics._cholesky_in_place calls
LAPACK's dpotrf.  And kernels reaches the Gaussian interval probability
only by calling its module-level name gaussian_interval_prob, the binding
the benchmark wraps.  And it orders box-counting cells on single keys: np.lexsort
is called only by numerics._distinct_rows, and a row-wise
np.unique(..., axis=...) only where its inverse is read.

Every name in packdim.__all__ is read somewhere outside the tests: in the
package's own modules, a demo or the benchmark, unless UNREACHED lists it
with the reason it stays."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
PACKAGE = sorted((ROOT / "src" / "packdim").rglob("*.py"))


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
            if bound == "*" or bound in used or "noqa: F401" in lines[alias.lineno - 1]:
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
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\nimport os  # noqa: F401\nfrom json import dumps, loads\n"
        "__all__ = ['loads']\nprint(dumps)\n",
        encoding="utf-8",
    )
    assert unused_imports(probe) == ["1: math"]


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


def callers(path: Path, name: str, keyword: str | None = None) -> list[str]:
    """The innermost functions that call ``name``, bare or as an attribute,
    and, if ``keyword`` is given, pass that keyword argument; a call outside
    every function is reported as <module>."""
    hits = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{node.lineno}: {node.name}"
        if (
            isinstance(node, ast.Call)
            and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
            and (keyword is None or any(k.arg == keyword for k in node.keywords))
        ):
            hits.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sorted(hits)


def _package_callers(name: str, keyword: str | None = None) -> set[tuple[str, str]]:
    return {
        (path.name, hit.split(": ")[-1])
        for path in PACKAGE
        for hit in callers(path, name, keyword)
    }


def test_one_drift_case_split():
    assert _package_callers("_drift_cancels") == {
        ("kernels.py", "field_tables"),
        ("kernels.py", "_mesh_masses"),
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
    assert "gaussian_interval_prob(" in kernels.read_text(encoding="utf-8")


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


def unreached(root: Path) -> list[str]:
    """The names in packdim.__all__ that nothing outside the tests reads.  A
    read is a name or attribute in src/packdim (not __init__.py, not inside
    its own definition), demos/ or bench/, or a dotted part of a string in
    bench/, since the benchmark tracer binds by name."""
    package = root / "src" / "packdim"
    public = _exported(ast.parse((package / "__init__.py").read_text(encoding="utf-8")))
    sources = [p for p in package.rglob("*.py") if p.name != "__init__.py"]
    sources += [p for d in ("demos", "bench") for p in (root / d).rglob("*.py")]
    names: set[str] = set()
    for path in sources:
        if path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _reads(tree, frozenset(), names)
        if path.parent.name == "bench":
            names |= {
                part
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                for part in node.value.split(".")
            }
    return sorted(public - names)


def test_every_public_name_is_reached():
    assert unreached(ROOT) == sorted(name for name, _ in UNREACHED)


def test_scan_flags_an_unreached_name(tmp_path):
    files = {
        "src/packdim/__init__.py": "from .core import *\n_ = lonely\n__all__ = "
        "['used', 'attr', 'traced', 'demoed', 'lonely', 'recursive', 'tested', 'stored']\n",
        "src/packdim/core.py": "__all__ = ['lonely']\n"
        "def used(): return 1\n"
        "def lonely(): return 2\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "stored = 3\n"
        "def caller(): return used() + np.attr\n",
        "demos/show.py": "import packdim\npackdim.demoed()\n",
        "bench/worker.py": "wrap(core, 'core.traced')\n",
        "bench/test_smoke.py": "import packdim\npackdim.tested()\n",
        "tests/test_core.py": "from packdim import lonely\nlonely()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert unreached(tmp_path) == ["lonely", "recursive", "stored", "tested"]

"""Call-graph audit: the identification-free modules must stay that way.

The Riesz maps exist only as test oracles in the spaces tests; no module
of the library may define or call them.  The multiscale
module does not turn a functional into a primal vector either: it measures
a functional g only through its restrictions E_j^T g and their level L^2
dual norms.

Only the spaces module tells a primal vector from a dual one: every other
module reads a vector through ``spaces.entries``, so the primal/dual check
has one owner.

Dense LAPACK work runs in numpy's OpenBLAS, the one that also runs ``@``:
scipy loads a second OpenBLAS with its own thread pool, and the two pools
fight over the cores.  Only the ``scipy.linalg`` names below may appear.
"""

import ast
import pathlib

import pytest

import framekit

PACKAGE_DIR = pathlib.Path(framekit.__file__).parent
TESTS_DIR = pathlib.Path(__file__).parent

FORBIDDEN = ("riesz_image", "riesz_preimage")

SCIPY_LINALG_ALLOWED = {
    "cholesky_banded": "banded Cholesky of a Tridiagonal: O(n), an unthreaded level-2 routine",
    "cho_solve_banded": "the solve with that banded factor, also unthreaded level-2",
    "eigh": "the generalized pencil in generalized_eig_pairs; moving it to numpy moves seeded dual reports",
    "LinAlgError": "numpy's own exception class, re-exported; catching it calls no LAPACK",
}


def scipy_linalg_names(tree):
    """Every scipy.linalg name a module uses, as scipy.linalg.X or from scipy.linalg import X.

    Any other way to reach the module (an alias, ``from scipy import linalg``)
    yields a name outside the allowlist, so it is reported too.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            base = node.value
            if base.attr == "linalg" and isinstance(base.value, ast.Name) and base.value.id == "scipy":
                yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy.linalg":
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            yield from (f"from scipy import {a.name}" for a in node.names if a.name == "linalg")
        elif isinstance(node, ast.Import):
            yield from (f"import {a.name} as {a.asname}" for a in node.names
                        if a.name == "scipy.linalg" and a.asname)


def test_core_modules_never_call_the_riesz_maps():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert {"frames.py", "operator_repr.py", "multiscale.py", "cli.py", "spaces.py"} <= {p.name for p in modules}
    for path in modules:
        source = path.read_text(encoding="utf-8")
        for symbol in FORBIDDEN:
            assert symbol not in source, f"{path.name} references {symbol}"


def test_oracles_live_in_spaces():
    # the oracles are defined next to their tests, in the spaces test module
    source = (TESTS_DIR / "test_spaces.py").read_text(encoding="utf-8")
    for symbol in FORBIDDEN:
        assert f"def {symbol}(" in source


def test_vector_types_do_not_interconvert():
    # PrimalVector/DualVector expose no conversion methods at all
    assert not hasattr(framekit.PrimalVector([1.0]), "to_dual")
    assert not hasattr(framekit.DualVector([1.0]), "to_primal")


def test_scipy_linalg_use_stays_inside_the_allowlist():
    used = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in scipy_linalg_names(tree):
            assert name in SCIPY_LINALG_ALLOWED, f"{path.name} uses scipy.linalg {name}"
            used.add(name)
    # an entry must not outlive its use
    assert set(SCIPY_LINALG_ALLOWED) <= used, f"allowed but unused: {sorted(set(SCIPY_LINALG_ALLOWED) - used)}"


@pytest.mark.parametrize("source", [
    "scipy.linalg.cho_factor(a, lower=True)",
    "values = [scipy.linalg.eigvalsh(b) for b in blocks]",
    "from scipy.linalg import lu_factor",
    "from scipy import linalg",
    "import scipy.linalg as sla",
])
def test_the_allowlist_scan_sees_each_way_in(source):
    assert any(name not in SCIPY_LINALG_ALLOWED for name in scipy_linalg_names(ast.parse(source)))


VECTOR_TYPES = {"PrimalVector", "DualVector"}


def vector_type_tests(tree):
    """Each ``isinstance`` call whose type argument names PrimalVector or DualVector, by line.

    The type argument is searched whole, so a tuple of types or an
    attribute such as ``spaces.DualVector`` counts as well.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for arg in node.args[1:] for n in ast.walk(arg) if isinstance(n, (ast.Name, ast.Attribute))}
            if names & VECTOR_TYPES:
                yield node.lineno


def test_only_spaces_tells_the_vector_sides_apart():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name != "spaces.py":
            lines = list(vector_type_tests(ast.parse(path.read_text(encoding="utf-8"))))
            assert not lines, f"{path.name} tests a vector's side on lines {lines}; use spaces.entries"


@pytest.mark.parametrize("source", [
    "isinstance(vec, PrimalVector)",
    "if not isinstance(g, DualVector): raise TypeError",
    "ok = isinstance(v, (PrimalVector, DualVector))",
    "isinstance(v, spaces.DualVector)",
])
def test_the_vector_side_scan_sees_each_way_in(source):
    assert list(vector_type_tests(ast.parse(source)))

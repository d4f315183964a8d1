"""Call-graph audit: the identification-free modules must stay that way.

The Riesz maps exist only as test oracles in the spaces module; the frame
calculus and the operator pipeline must never touch them.  The multiscale
module does not turn a functional into a primal vector either: it measures
a functional g only through its restrictions E_j^T g and their level L^2
dual norms.

Dense LAPACK work runs in numpy's OpenBLAS, the one that also runs ``@``:
scipy loads a second OpenBLAS with its own thread pool, and the two pools
fight over the cores.  Only the ``scipy.linalg`` names below may appear.
"""

import ast
import pathlib

import pytest

import framekit

PACKAGE_DIR = pathlib.Path(framekit.__file__).parent

FORBIDDEN = ("riesz_image", "riesz_preimage")
AUDITED = ("frames.py", "operator_repr.py", "multiscale.py", "cli.py")

SCIPY_LINALG_ALLOWED = {
    "cholesky_banded": "banded Cholesky of a Tridiagonal: O(n), an unthreaded level-2 routine",
    "cho_solve_banded": "the solve with that banded factor, also unthreaded level-2",
    "eigh": "the generalized pencil in generalized_eig_pairs; moving it to numpy moves seeded dual reports",
    "LinAlgError": "numpy's own exception class, re-exported; catching it calls no LAPACK",
    "toeplitz": "builds an array from a vector, no BLAS",
    "hankel": "builds an array from a vector, no BLAS",
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
    for name in AUDITED:
        source = (PACKAGE_DIR / name).read_text(encoding="utf-8")
        for symbol in FORBIDDEN:
            assert symbol not in source, f"{name} references {symbol}"


def test_oracles_live_in_spaces():
    source = (PACKAGE_DIR / "spaces.py").read_text(encoding="utf-8")
    for symbol in FORBIDDEN:
        assert f"def {symbol}(" in source


def test_vector_types_do_not_interconvert():
    # PrimalVector/DualVector expose no conversion methods at all
    assert not hasattr(framekit.PrimalVector([1.0]), "to_dual")
    assert not hasattr(framekit.DualVector([1.0]), "to_primal")


def test_scipy_linalg_use_stays_inside_the_allowlist():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in scipy_linalg_names(tree):
            assert name in SCIPY_LINALG_ALLOWED, f"{path.name} uses scipy.linalg {name}"


@pytest.mark.parametrize("source", [
    "scipy.linalg.cho_factor(a, lower=True)",
    "values = [scipy.linalg.eigvalsh(b) for b in blocks]",
    "from scipy.linalg import lu_factor",
    "from scipy import linalg",
    "import scipy.linalg as sla",
])
def test_the_allowlist_scan_sees_each_way_in(source):
    assert any(name not in SCIPY_LINALG_ALLOWED for name in scipy_linalg_names(ast.parse(source)))

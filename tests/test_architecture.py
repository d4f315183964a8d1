"""Call-graph audit: the identification-free modules must stay that way.

The Riesz maps exist only as test oracles in the spaces module; the frame
calculus and the operator pipeline must never touch them.  The multiscale
module does not turn a functional into a primal vector either: it measures
a functional g only through its restrictions E_j^T g and their level L^2
dual norms.
"""

import pathlib

import framekit

PACKAGE_DIR = pathlib.Path(framekit.__file__).parent

FORBIDDEN = ("riesz_image", "riesz_preimage")
AUDITED = ("frames.py", "operator_repr.py", "multiscale.py", "cli.py")


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

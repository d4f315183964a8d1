"""Closed-form grid pencil against the dense eigensolver oracles.

Grid triples fill their H^q Gram matrix from a DCT-I of the pencil
eigenvalues; the pencil spectrum (``grid_spectrum``) and the stiffness
condition number are formulas.  Every one of these is compared here with
the dense path it replaces: ``spectral_inner_matrix``, ``generalized_eigs``
and ``eigvalsh``.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import framekit
from framekit import cli, spaces
from framekit.errors import DomainError
from framekit.multiscale import FIT_LO, bernstein_rate, build_hierarchy
from framekit.numerics import generalized_eigs
from framekit.operator_repr import conditioning_row
from framekit.spaces import (
    build_triple,
    grid_hq_eigenvalues,
    grid_spectrum,
    sine_congruence,
    spectral_inner_matrix,
    stiffness_condition_number,
)

FRACTIONAL_Q = (0.25, 0.5, 0.75, 1.25, 1.4)
J_FINE = (1, 2, 3, 5, 8)


def relative_max_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("q", FRACTIONAL_Q)
@pytest.mark.parametrize("j_fine", J_FINE)
def test_inner_matches_dense_spectral_construction(j_fine, q):
    t = build_triple(j_fine, q)
    oracle = spectral_inner_matrix(t.stiffness, t.mass, q)
    assert relative_max_error(t.inner.a, oracle.a) <= 1e-12


@pytest.mark.parametrize("q", (0.0, 1.0))
@pytest.mark.parametrize("j_fine", J_FINE)
def test_hq_eigenvalues_diagonalize_mass_and_stiffness(j_fine, q):
    t = build_triple(j_fine, q)  # inner is the tridiagonal mass or stiffness, built without the eigenvalues
    assert relative_max_error(sine_congruence(grid_hq_eigenvalues(t.n, q)), t.inner.a) <= 1e-12


@pytest.mark.parametrize("q", (0.0, 1.0) + FRACTIONAL_Q)
@pytest.mark.parametrize("j_fine", J_FINE)
def test_recorded_spectrum_matches_pencil_solve(j_fine, q):
    t = build_triple(j_fine, q)
    oracle = generalized_eigs(t.inner, t.mass)
    closed = grid_spectrum(t.n, q)
    assert relative_max_error(closed.eigenvalues, oracle.eigenvalues) <= 1e-12
    assert closed.rank == oracle.rank
    assert np.all(np.diff(closed.eigenvalues) >= 0.0)


@pytest.mark.parametrize("j_fine", range(1, 9))
def test_stiffness_condition_number_matches_eigvalsh(j_fine):
    w = np.linalg.eigvalsh(build_triple(j_fine, 1.0).stiffness.a)
    assert stiffness_condition_number(2**j_fine - 1) == pytest.approx(w[-1] / w[0], rel=1e-10)


def test_bpx_and_conditioning_row_report_the_closed_form_kappa(tmp_path):
    out = tmp_path / "bpx.json"
    assert cli.main(["bpx", "--J", "3", "--output", str(out)]) == 0
    (row,) = json.loads(out.read_text())["results"]["rows"]
    assert row["kappa_single"] == stiffness_condition_number(15)
    assert conditioning_row(3).kappa_single == stiffness_condition_number(15)


def test_bernstein_rate_builds_no_fractional_triple(monkeypatch):
    def no_fill(*args):
        raise AssertionError("bernstein_rate filled a fractional H^q Gram matrix")

    monkeypatch.setattr(spaces, "sine_congruence", no_fill)
    hy = build_hierarchy(6)
    values = bernstein_rate(hy, 0.5).values
    assert values == tuple(grid_spectrum(n, 0.5).max for n in hy.dims)
    assert not any(key[0] == "triple" for key in hy._cache)


@pytest.mark.parametrize("q", (0.0, 1.0) + FRACTIONAL_Q)
@pytest.mark.parametrize("j_max", (1, 2, 3, 6))
def test_bernstein_values_match_dense_pencil_maxima(j_max, q):
    hy = build_hierarchy(j_max)
    if j_max < FIT_LO + 1:  # the fit window [FIT_LO, j_max] holds fewer than two levels
        with pytest.raises(DomainError):
            bernstein_rate(hy, q)
        return
    values = bernstein_rate(hy, q).values
    for j, value in zip(hy.levels, values):
        t = build_triple(j + 1, q)
        inner = spectral_inner_matrix(t.stiffness, t.mass, q)
        assert value == pytest.approx(generalized_eigs(inner, t.mass).max, rel=1e-12)


@seed(20260101)
@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=40)
)
def test_sine_congruence_equals_dense_product(d):
    d = np.asarray(d)
    n = d.size
    idx = np.arange(1, n + 1)
    q = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(idx, idx) * np.pi / (n + 1))
    dense = (q * d) @ q.T
    assert np.abs(sine_congruence(d) - dense).max() <= 1e-12 * d.max()


def test_building_a_fractional_triple_does_not_load_scipy_fft():
    # The CLI's import cost is its start-up cost: neither a fractional triple,
    # a banded Poisson solve nor the sine-basis dual norms of norm-equiv may
    # pull in another scipy subpackage.
    code = (
        "import os, sys\n"
        "import framekit.cli\n"
        "from framekit.spaces import build_triple\n"
        "build_triple(5, 0.5)\n"
        "assert framekit.cli.main(['solve-poisson', '--J', '4', '--output', os.devnull]) == 0\n"
        "assert framekit.cli.main(['norm-equiv', '--q', '0.5', '--J', '5', '--output', os.devnull]) == 0\n"
        "unwanted = ('scipy.fft', 'scipy.sparse.linalg', 'scipy.io')\n"
        "loaded = [m for m in unwanted if m in sys.modules]\n"
        "assert not loaded, f'{loaded} imported'\n"
    )
    src = str(pathlib.Path(framekit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr

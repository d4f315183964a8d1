import os
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from framekit import cli, spaces
from framekit.errors import DimensionMismatch, DomainError, IncompatiblePairing
from framekit.frames import (
    analysis,
    dual_frame,
    equivalent_inner_product,
    frame_operator_apply,
    min_norm_coefficients,
    reconstruct_dual,
    reconstruct_primal,
)
from framekit.multiscale import bpx_frame, build_hierarchy, l2_project, norm_equivalence_ratio, prolong_to_fine
from framekit.operator_repr import direct_solution, galerkin_solve, operator_from_matrix, poisson_operator
from framekit.spaces import (
    DualVector,
    PrimalVector,
    build_triple,
    dual_norm,
    grid_dual_norms_sq,
    grid_spectrum,
    pairing,
    primal_norm,
    spectral_inner_matrix,
    synthetic_triple,
)


def riesz_image(t, f: PrimalVector) -> DualVector:
    """TEST ORACLE: the H-Riesz image of a primal element, the action inner @ c.

    The library never identifies H with H'; the tests use this map to
    contrast the identification-free calculus with the identified one.
    """
    return DualVector(t.inner @ spaces.entries(f, PrimalVector, t.n))


def riesz_preimage(t, g: DualVector) -> PrimalVector:
    """TEST ORACLE: inverse of riesz_image."""
    return PrimalVector(t.inner_solve(spaces.entries(g, DualVector, t.n)))


def hat_value(x, center, width):
    """Evaluate the tent function of a node at points x (quadrature oracle)."""
    return np.maximum(0.0, 1.0 - np.abs(x - center) / width)


class TestBuildTriple:
    def test_single_interior_hat(self):
        t = build_triple(1, 1.0)
        assert t.n == 1
        assert t.h == 0.5
        assert_allclose(t.mass.a, [[1.0 / 3.0]])
        assert_allclose(t.stiffness.a, [[4.0]])

    def test_mass_entries_match_quadrature_oracle(self):
        # trapezoid quadrature of hat products on a 10^5-point grid
        t = build_triple(2, 0.0)
        xs = np.linspace(0.0, 1.0, 100_001)
        for i in range(t.n):
            for j in range(t.n):
                prod = hat_value(xs, t.nodes[i], t.h) * hat_value(xs, t.nodes[j], t.h)
                assert t.mass.a[i, j] == pytest.approx(np.trapezoid(prod, xs), abs=1e-9)

    def test_tridiagonal_patterns(self):
        t = build_triple(4, 1.0)
        h = t.h
        assert_allclose(np.diag(t.mass.a), np.full(t.n, 2 * h / 3))
        assert_allclose(np.diag(t.mass.a, 1), np.full(t.n - 1, h / 6))
        assert_allclose(np.diag(t.stiffness.a), np.full(t.n, 2 / h))
        assert_allclose(np.diag(t.stiffness.a, 1), np.full(t.n - 1, -1 / h))
        assert np.abs(np.triu(t.mass.a, 2)).max() == 0.0

    def test_inner_is_stiffness_at_q1_and_mass_at_q0(self):
        t1 = build_triple(3, 1.0)
        assert np.array_equal(t1.inner.a, t1.stiffness.a)
        t0 = build_triple(3, 0.0)
        assert np.array_equal(t0.inner.a, t0.mass.a)

    def test_spectral_construction_reproduces_endpoints(self):
        t = build_triple(4, 1.0)
        m0 = spectral_inner_matrix(t.stiffness, t.mass, 0.0)
        m1 = spectral_inner_matrix(t.stiffness, t.mass, 1.0)
        assert np.abs(m0.a - t.mass.a).max() <= 1e-10
        assert np.abs(m1.a - t.stiffness.a).max() <= 1e-10

    def test_half_space_interpolation_inequality(self):
        t = build_triple(4, 0.5)
        t0 = build_triple(4, 0.0)
        t1 = build_triple(4, 1.0)
        w = np.linalg.eigvalsh(t.inner.a)
        assert w[0] > 0.0  # SPD
        rng = np.random.default_rng(15)
        for _ in range(50):
            f = PrimalVector(rng.standard_normal(t.n))
            half = primal_norm(t, f) ** 2
            product = primal_norm(t0, f) * primal_norm(t1, f)
            assert half <= product * (1.0 + 1e-8)

    @pytest.mark.parametrize("j_fine", [0, 15, 3.0, pytest.param(np.float64(3.0), id="np.float64(3.0)"), True])
    def test_depth_that_is_not_an_integer_in_range_is_refused(self, j_fine):
        with pytest.raises(DomainError, match="j_fine must be an integer in"):
            build_triple(j_fine, 1.0)

    def test_numpy_integer_depth_is_a_depth(self):
        assert build_triple(np.int64(3), 1.0).n == 7

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            build_triple(3, 1.5)
        with pytest.raises(DomainError):
            build_triple(3, -0.1)

    def test_fractional_q_above_one(self):
        t = build_triple(3, 1.25)
        assert np.linalg.eigvalsh(t.inner.a)[0] > 0.0

    def test_grid_too_large_for_physical_memory_is_a_domain_error(self):
        # j_fine = 14: three 16383^2 dense matrices, 2 GiB each
        n = 2**14 - 1
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if physical >= spaces.DENSE_ARRAYS * 8 * n * n:
            pytest.skip("this machine can hold the j_fine = 14 matrices")
        with pytest.raises(DomainError, match="physical memory"):
            build_triple(14, 0.5)

    def test_memory_guard_runs_before_assembly_and_is_a_cli_usage_error(self, monkeypatch, capsys):
        # pretend to have 1 MiB: a 63-node triple fits; a 511-node one does
        # not, and neither does a single dense 511 x 511 array (2 MiB)
        pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        assert build_triple(6, 0.5).n == 63
        with pytest.raises(DomainError, match="physical memory"):
            build_triple(9, 0.5)
        # the Gramian of the q = 0.5 multilevel frame still builds a dense 511-node H^q Gram matrix
        assert cli.main(["gramian", "--J", "8", "--q", "0.5"]) == 1
        assert "physical memory" in capsys.readouterr().err
        # rates at q = 1 and norm-equiv at q = 0.5 build no dense n x n array at all
        assert cli.main(["rates", "--J", "8", "--output", os.devnull]) == 0
        assert cli.main(["norm-equiv", "--q", "0.5", "--J", "8", "--output", os.devnull]) == 0


class TestNorms:
    def test_primal_norm_zero(self):
        t = build_triple(2, 1.0)
        assert primal_norm(t, PrimalVector(np.zeros(t.n))) == 0.0

    def test_primal_norm_single_hat(self):
        t = build_triple(1, 1.0)
        assert primal_norm(t, PrimalVector([1.0])) == pytest.approx(2.0)

    def test_primal_norm_squared_is_riesz_pairing(self):
        t = build_triple(4, 0.5)
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = PrimalVector(rng.standard_normal(t.n))
            lhs = primal_norm(t, f) ** 2
            rhs = pairing(riesz_image(t, f), f)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(lhs, 1.0))

    def test_dual_norm_zero(self):
        t = build_triple(2, 1.0)
        assert dual_norm(t, DualVector(np.zeros(t.n))) == 0.0

    def test_riesz_image_preserves_norm(self):
        t = build_triple(4, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = PrimalVector(rng.standard_normal(t.n))
            assert dual_norm(t, riesz_image(t, c)) == pytest.approx(
                primal_norm(t, c), abs=1e-10
            )

    def test_dual_norm_against_random_search_oracle(self):
        # sup_v <g, v>/||v||_H approached from below by 10^4 random directions
        t = build_triple(2, 1.0)
        rng = np.random.default_rng(3)
        g = DualVector(rng.standard_normal(t.n))
        exact = dual_norm(t, g)
        best = 0.0
        for _ in range(10_000):
            v = PrimalVector(rng.standard_normal(t.n))
            best = max(best, abs(pairing(g, v)) / primal_norm(t, v))
        assert best <= exact * (1.0 + 1e-10)
        assert best >= exact * 0.98

    def test_dual_norm_dominates_every_rayleigh_quotient(self):
        t = build_triple(4, 1.0)
        rng = np.random.default_rng(4)
        g = DualVector(rng.standard_normal(t.n))
        dn2 = dual_norm(t, g) ** 2
        for _ in range(1000):
            v = PrimalVector(rng.standard_normal(t.n))
            quotient = pairing(g, v) ** 2 / primal_norm(t, v) ** 2
            assert dn2 - quotient >= -1e-10


# the dense fractional oracle stops at j = 9 (511 nodes); the banded q = 0 and q = 1 ones go on
GRID_DUAL_CASES = [(j, q) for j in range(1, 10) for q in (0.0, 0.25, 0.5, 1.0, 1.25)]
GRID_DUAL_CASES += [(j, q) for j in (10, 11) for q in (0.0, 1.0)]


class TestGridDualNorms:
    @pytest.mark.parametrize("j_fine, q", GRID_DUAL_CASES)
    def test_matches_dual_norm_of_the_triple(self, j_fine, q):
        # the oracle solves with the assembled H^q Gram matrix: banded for q = 0 and 1, dense
        # (Cholesky) otherwise, whose rounding grows with cond(H^q) = max d / min d
        t = build_triple(j_fine, q)
        spectrum = grid_spectrum(t.n, q)  # (kappa/mu)^q; d = mu (kappa/mu)^q with 1/3 <= mu/h <= 1
        cond = 3.0 * spectrum.max / spectrum.min
        rtol = 1e-12 if q <= 1.0 else max(1e-12, 100 * np.finfo(float).eps * cond)
        block = np.random.default_rng(j_fine).standard_normal((t.n, 6)) * np.logspace(-3, 3, 6)
        want = np.array([dual_norm(t, DualVector(a)) ** 2 for a in block.T])
        assert_allclose(grid_dual_norms_sq(block, q), want, rtol=rtol, atol=0.0)
        assert_allclose(grid_dual_norms_sq(block[:, 2], q), want[2], rtol=rtol, atol=0.0)


class TestPairing:
    def test_zero_cases(self):
        t = build_triple(2, 1.0)
        z = np.zeros(t.n)
        rng = np.random.default_rng(5)
        assert pairing(DualVector(z), PrimalVector(rng.standard_normal(t.n))) == 0.0
        assert pairing(DualVector(rng.standard_normal(t.n)), PrimalVector(z)) == 0.0

    def test_unit_vectors(self):
        e0 = [1.0, 0.0, 0.0]
        assert pairing(DualVector(e0), PrimalVector(e0)) == 1.0

    def test_cauchy_schwarz_bound(self):
        t = build_triple(3, 1.0)
        rng = np.random.default_rng(6)
        for _ in range(1000):
            g = DualVector(rng.standard_normal(t.n))
            f = PrimalVector(rng.standard_normal(t.n))
            bound = dual_norm(t, g) * primal_norm(t, f)
            assert abs(pairing(g, f)) <= bound * (1.0 + 1e-12)

    def test_type_discipline(self):
        t = build_triple(2, 1.0)
        v = np.ones(t.n)
        with pytest.raises(TypeError):
            pairing(PrimalVector(v), PrimalVector(v))
        with pytest.raises(TypeError):
            pairing(DualVector(v), DualVector(v))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pairing(DualVector([1.0, 2.0]), PrimalVector([1.0, 2.0, 3.0]))


class TestEntries:
    def test_returns_the_stored_values(self):
        f, g = PrimalVector([1.0, 2.0]), DualVector([3.0, 4.0])
        assert spaces.entries(f, PrimalVector, 2) is f.coeffs
        assert spaces.entries(g, DualVector, 2) is g.action

    @pytest.mark.parametrize("vec, kind", [
        (DualVector([1.0, 2.0]), PrimalVector),
        (PrimalVector([1.0, 2.0]), DualVector),
        (np.ones(2), PrimalVector),
    ])
    def test_a_vector_of_another_kind_is_refused(self, vec, kind):
        with pytest.raises(IncompatiblePairing, match=f"expected a {kind.__name__}"):
            spaces.entries(vec, kind, 2)

    def test_a_wrong_size_is_refused(self):
        with pytest.raises(DimensionMismatch, match="size 2, expected 3"):
            spaces.entries(DualVector([1.0, 2.0]), DualVector, 3)


def wrong_side_world():
    """Everything on the 3-node fine grid of a depth-1 hierarchy, with one vector of each side."""
    hy = build_hierarchy(1)
    triple = hy.fine_triple(1.0)
    frame = bpx_frame(hy, 1.0)
    dual = dual_frame(frame)
    return SimpleNamespace(
        hy=hy, triple=triple, frame=frame, dual=dual, op=poisson_operator(triple),
        rep=operator_from_matrix(frame, frame, np.eye(frame.k)),
        primal=PrimalVector([1.0, 2.0, 3.0]), dual_vec=DualVector([1.0, 2.0, 3.0]),
    )


# Every public entry point that takes a vector, called with a vector from the other side.
WRONG_SIDE_CALLS = {
    "analysis(primal frame)": lambda w: analysis(w.frame, w.primal),
    "analysis(dual frame)": lambda w: analysis(w.dual, w.dual_vec),
    "min_norm_coefficients(primal frame)": lambda w: min_norm_coefficients(w.frame, w.dual_vec),
    "min_norm_coefficients(dual frame)": lambda w: min_norm_coefficients(w.dual, w.primal),
    "reconstruct_primal": lambda w: reconstruct_primal(w.frame, w.dual, w.dual_vec),
    "reconstruct_dual": lambda w: reconstruct_dual(w.frame, w.dual, w.primal),
    "frame_operator_apply": lambda w: frame_operator_apply(w.frame, w.primal),
    "equivalent_inner_product(f)": lambda w: equivalent_inner_product(w.frame, w.primal, w.dual_vec),
    "equivalent_inner_product(g)": lambda w: equivalent_inner_product(w.frame, w.dual_vec, w.primal),
    "primal_norm": lambda w: primal_norm(w.triple, w.dual_vec),
    "dual_norm": lambda w: dual_norm(w.triple, w.primal),
    "pairing(g)": lambda w: pairing(w.primal, w.primal),
    "pairing(f)": lambda w: pairing(w.dual_vec, w.dual_vec),
    "OperatorSpec.apply": lambda w: w.op.apply(w.dual_vec),
    "RepresentedOperator.__call__": lambda w: w.rep(w.primal),
    "galerkin_solve": lambda w: galerkin_solve(w.frame, w.op, w.primal),
    "direct_solution": lambda w: direct_solution(w.op, w.primal),
    "l2_project": lambda w: l2_project(w.hy, 0, w.dual_vec),
    "prolong_to_fine": lambda w: prolong_to_fine(w.hy, 1, w.dual_vec),
    "norm_equivalence_ratio": lambda w: norm_equivalence_ratio(w.hy, 0.5, w.primal),
}


@pytest.mark.parametrize("call", WRONG_SIDE_CALLS.values(), ids=WRONG_SIDE_CALLS.keys())
def test_a_vector_from_the_other_side_is_refused_everywhere(call):
    with pytest.raises(IncompatiblePairing) as refused:
        call(wrong_side_world())
    assert isinstance(refused.value, TypeError)


class TestVectorConstruction:
    def test_nan_dual_vector_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DualVector([1.0, np.nan, 3.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_primal_vector_is_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PrimalVector([0.0, bad])


class TestRieszMaps:
    def test_round_trip(self):
        t = build_triple(4, 0.5)
        rng = np.random.default_rng(7)
        f = PrimalVector(rng.standard_normal(t.n))
        back = riesz_preimage(t, riesz_image(t, f))
        assert np.linalg.norm(back.coeffs - f.coeffs) <= 1e-12 * np.linalg.norm(f.coeffs)

    def test_riesz_map_is_not_the_identity_on_arrays(self):
        # the whole point of keeping the two representations apart
        t = build_triple(2, 1.0)
        f = PrimalVector([1.0, 0.0, 0.0])
        g = riesz_image(t, f)
        assert np.linalg.norm(g.action - f.coeffs) > 1.0

    def test_dimension_checks(self):
        t = build_triple(2, 1.0)
        with pytest.raises(DimensionMismatch):
            riesz_image(t, PrimalVector([1.0]))
        with pytest.raises(DimensionMismatch):
            riesz_preimage(t, DualVector([1.0]))


class TestSyntheticTriple:
    def test_defaults_to_euclidean(self):
        t = synthetic_triple(np.eye(2))
        assert t.n == 2
        assert t.j_fine is None and t.q is None
        assert_allclose(t.mass.a, np.eye(2))

    def test_nodes_unavailable(self):
        t = synthetic_triple(np.eye(2))
        with pytest.raises(DomainError):
            t.nodes

    def test_weighted_inner(self):
        t = synthetic_triple(np.diag([2.0, 1.0]))
        assert primal_norm(t, PrimalVector([1.0, 0.0])) == pytest.approx(np.sqrt(2.0))
        assert dual_norm(t, DualVector([1.0, 0.0])) == pytest.approx(1.0 / np.sqrt(2.0))


class TestVectors:
    def test_vectors_read_only(self):
        f = PrimalVector([1.0, 2.0])
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0
        g = DualVector([1.0, 2.0])
        with pytest.raises(ValueError):
            g.action[0] = 5.0

    def test_rejects_matrices(self):
        with pytest.raises(ValueError):
            PrimalVector(np.eye(2))

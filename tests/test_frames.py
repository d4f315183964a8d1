import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import subspace_angles

from framekit.errors import DimensionMismatch, DomainError, IncompatiblePairing, NotAFrame
from framekit.fixtures import (
    by_name,
    fixture_f1,
    fixture_f2,
    fixture_f3,
    fixture_f4,
    random_spanning_frame,
)
from framekit.frames import (
    DualFrameSpec,
    FrameSpec,
    analysis,
    cross_gramian,
    dual_frame,
    equivalent_inner_product,
    frame_bounds,
    frame_operator_apply,
    frame_operator_matrix,
    min_norm_coefficients,
    reconstruct_dual,
    reconstruct_primal,
    reference_frame,
    riesz_check,
    synthesis,
)
from framekit.multiscale import bpx_frame, build_hierarchy
from framekit.numerics import min_norm_solve, null_space
from framekit.spaces import (
    DualVector,
    PrimalVector,
    build_triple,
    dual_norm,
    pairing,
    primal_norm,
    synthetic_triple,
)


def random_frame(rng, triple, k):
    for _ in range(20):
        spec = FrameSpec(triple, rng.standard_normal((triple.n, k)))
        if spec.spans:
            return spec
    raise AssertionError("no spanning draw")


class TestFixtureBounds:
    def test_f1(self):
        b = frame_bounds(fixture_f1())
        assert b.lower == pytest.approx(1.0, abs=1e-12)
        assert b.upper == pytest.approx(2.0, abs=1e-12)

    def test_f2_tight(self):
        b = frame_bounds(fixture_f2())
        assert b.lower == pytest.approx(2.0, abs=1e-12)
        assert b.upper == pytest.approx(2.0, abs=1e-12)
        assert b.tight

    def test_f3_reweighted(self):
        # duplicated weighted pairs: frame operator diag(8, 1/2), ratio 16
        b = frame_bounds(fixture_f3())
        assert b.lower == pytest.approx(0.5, abs=1e-10)
        assert b.upper == pytest.approx(8.0, abs=1e-10)
        assert b.ratio == pytest.approx(16.0, abs=1e-9)

    def test_f4_weighted_space(self):
        b = frame_bounds(fixture_f4())
        assert b.lower == pytest.approx(1.0, abs=1e-10)
        assert b.upper == pytest.approx(2.0, abs=1e-10)

    def test_reweighting_changes_ratio(self):
        assert frame_bounds(fixture_f2()).ratio == pytest.approx(1.0, abs=1e-12)
        assert frame_bounds(fixture_f3()).ratio > 1.0


class TestAnalysisSynthesis:
    def test_analysis_zero(self):
        f1 = fixture_f1()
        assert_allclose(analysis(f1, DualVector([0.0, 0.0])), np.zeros(3))

    def test_analysis_f1_example(self):
        f1 = fixture_f1()
        assert_allclose(analysis(f1, DualVector([1.0, 0.0])), [1.0, 1.0, 0.0])

    def test_analysis_norm_between_frame_bounds(self):
        triple = build_triple(3, 1.0)
        rng = np.random.default_rng(0)
        spec = random_frame(rng, triple, 12)
        b = frame_bounds(spec)
        for _ in range(50):
            g = DualVector(rng.standard_normal(triple.n))
            value = np.linalg.norm(analysis(spec, g)) ** 2
            dn2 = dual_norm(triple, g) ** 2
            assert b.lower * dn2 * (1 - 1e-9) <= value <= b.upper * dn2 * (1 + 1e-9)

    def test_synthesis_unit_coefficients(self):
        f1 = fixture_f1()
        for k in range(f1.k):
            e = np.zeros(f1.k)
            e[k] = 1.0
            assert_allclose(synthesis(f1, e).coeffs, f1.elements[:, k])

    def test_synthesis_cancellation(self):
        f1 = fixture_f1()
        assert_allclose(synthesis(f1, [1.0, -1.0, 0.0]).coeffs, np.zeros(2))

    def test_adjoint_identity(self):
        triple = build_triple(3, 0.5)
        rng = np.random.default_rng(1)
        spec = random_frame(rng, triple, 11)
        for _ in range(1000):
            g = DualVector(rng.standard_normal(triple.n))
            c = rng.standard_normal(spec.k)
            lhs = analysis(spec, g) @ c
            rhs = pairing(g, synthesis(spec, c))
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(abs(lhs), 1.0))

    def test_wrong_vector_kind_rejected(self):
        f1 = fixture_f1()
        with pytest.raises(IncompatiblePairing):
            analysis(f1, PrimalVector([1.0, 0.0]))
        d1 = dual_frame(f1)
        with pytest.raises(IncompatiblePairing):
            analysis(d1, DualVector([1.0, 0.0]))

    def test_dimension_mismatch(self):
        f1 = fixture_f1()
        with pytest.raises(DimensionMismatch):
            synthesis(f1, [1.0, 2.0])


class TestFrameOperator:
    def test_f2_is_twice_identity(self):
        f2 = fixture_f2()
        out = frame_operator_apply(f2, DualVector([3.0, -1.0]))
        assert_allclose(out.coeffs, [6.0, -2.0])

    def test_f1_is_diag_2_1(self):
        f1 = fixture_f1()
        out = frame_operator_apply(f1, DualVector([1.0, 1.0]))
        assert_allclose(out.coeffs, [2.0, 1.0])

    def test_quadratic_form_equals_analysis_norm(self):
        triple = build_triple(3, 1.0)
        rng = np.random.default_rng(2)
        spec = random_frame(rng, triple, 10)
        for _ in range(100):
            g = DualVector(rng.standard_normal(triple.n))
            lhs = pairing(g, frame_operator_apply(spec, g))
            rhs = np.linalg.norm(analysis(spec, g)) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(rhs, 1.0))

    def test_norm_sandwich_and_inverse_sandwich(self):
        triple = build_triple(3, 1.0)
        rng = np.random.default_rng(3)
        spec = random_frame(rng, triple, 12)
        b = frame_bounds(spec)
        dual = dual_frame(spec)
        for _ in range(100):
            g = DualVector(rng.standard_normal(triple.n))
            sg = frame_operator_apply(spec, g)
            dn = dual_norm(triple, g)
            pn = primal_norm(triple, sg)
            assert b.lower * dn * (1 - 1e-9) <= pn <= b.upper * dn * (1 + 1e-9)
            f = PrimalVector(rng.standard_normal(triple.n))
            sf = frame_operator_apply(dual, f)
            fn = primal_norm(triple, f)
            dfn = dual_norm(triple, sf)
            assert fn / b.upper * (1 - 1e-9) <= dfn <= fn / b.lower * (1 + 1e-9)


class TestNotAFrame:
    def test_too_few_columns(self):
        triple = synthetic_triple(np.eye(3))
        spec = FrameSpec(triple, np.array([[1.0], [0.0], [0.0]]))
        assert not spec.spans
        with pytest.raises(NotAFrame):
            frame_bounds(spec)

    def test_rank_deficient_square(self):
        triple = synthetic_triple(np.eye(2))
        spec = FrameSpec(triple, np.array([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(NotAFrame):
            dual_frame(spec)
        with pytest.raises(NotAFrame):
            min_norm_coefficients(spec, PrimalVector([1.0, 0.5]))


class TestDualFrame:
    def test_f2_dual_is_halved(self):
        f2 = fixture_f2()
        d = dual_frame(f2)
        assert isinstance(d, DualFrameSpec)
        assert_allclose(d.elements, f2.elements / 2.0)
        db = frame_bounds(d)
        assert db.lower == pytest.approx(0.5, abs=1e-12)
        assert db.upper == pytest.approx(0.5, abs=1e-12)

    def test_f4_dual_bounds_hand_pencil(self):
        # S = I, inner = diag(2, 1): dual pencil (I, inner) has eigenvalues 1/2, 1
        f4 = fixture_f4()
        db = frame_bounds(dual_frame(f4))
        assert db.lower == pytest.approx(0.5, abs=1e-10)
        assert db.upper == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_dual_bounds_reciprocal_random(self, q):
        triple = build_triple(3, q)
        rng = np.random.default_rng(17)
        for _ in range(5):
            spec = random_frame(rng, triple, 13)
            b = frame_bounds(spec)
            db = frame_bounds(dual_frame(spec))
            assert db.lower == pytest.approx(1.0 / b.upper, abs=1e-8)
            assert db.upper == pytest.approx(1.0 / b.lower, abs=1e-8)

    def test_dual_of_dual_returns_frame(self):
        triple = build_triple(3, 1.0)
        rng = np.random.default_rng(4)
        spec = random_frame(rng, triple, 10)
        again = dual_frame(dual_frame(spec))
        assert isinstance(again, FrameSpec)
        assert np.abs(again.elements - spec.elements).max() <= 1e-10 * np.abs(
            spec.elements
        ).max()

    def test_dual_frame_operator_is_inverse(self):
        triple = build_triple(3, 0.5)
        rng = np.random.default_rng(5)
        spec = random_frame(rng, triple, 9)
        s = frame_operator_matrix(spec)
        s_dual = frame_operator_matrix(dual_frame(spec))
        resid = np.linalg.norm(s_dual @ s - np.eye(spec.n))
        assert resid <= 1e-10 * np.linalg.norm(s)

    def test_range_equality_principal_angles(self):
        triple = build_triple(3, 1.0)
        rng = np.random.default_rng(6)
        spec = random_frame(rng, triple, 11)
        dual = dual_frame(spec)
        angles = subspace_angles(spec.elements.T, dual.elements.T)
        assert angles.max() <= 1e-8


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 4]),
    st.floats(min_value=0.0, max_value=1.4),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dual_frame_identities_on_random_spanning_frames(j_fine, q, extra, draw):
    # Each residual is a rounding error, so its tolerance scales with
    # eps * cond(S).  The bounds come from the pencil (H S H, H), whose
    # rounding also carries cond(H); over 3,000 draws the reciprocal-bound
    # deviation reached 47 eps cond(S) cond(H) and the others 1.2 eps cond(S).
    rng = np.random.default_rng(draw)
    n = 2**j_fine - 1
    frame = random_spanning_frame(rng, j_fine, q, n + extra)
    dual = dual_frame(frame)
    eps = np.finfo(float).eps
    tol = 100 * eps * np.linalg.cond(frame_operator_matrix(frame))
    bounds_tol = 10 * tol * np.linalg.cond(frame.triple.inner.a)

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    again = dual_frame(dual)
    assert isinstance(again, FrameSpec)
    assert rel(again.elements, frame.elements) <= tol
    f = PrimalVector(rng.standard_normal(n))
    g = DualVector(rng.standard_normal(n))
    assert rel(reconstruct_primal(frame, dual, f).coeffs, f.coeffs) <= tol
    assert rel(reconstruct_dual(frame, dual, g).action, g.action) <= tol
    projector = cross_gramian(frame, dual)
    assert rel(projector @ projector, projector) <= tol
    b = frame_bounds(frame)
    db = frame_bounds(dual)
    assert max(abs(db.lower * b.upper - 1.0), abs(db.upper * b.lower - 1.0)) <= bounds_tol


class TestReconstruction:
    def test_zero(self):
        f1 = fixture_f1()
        d1 = dual_frame(f1)
        out = reconstruct_primal(f1, d1, PrimalVector([0.0, 0.0]))
        assert_allclose(out.coeffs, np.zeros(2))

    def test_f2_exact(self):
        f2 = fixture_f2()
        d2 = dual_frame(f2)
        out = reconstruct_primal(f2, d2, PrimalVector([1.0, 2.0]))
        assert_allclose(out.coeffs, [1.0, 2.0])

    def test_bpx_round_trip(self):
        # multilevel frame on the fine grid of level 5
        hy = build_hierarchy(4)
        spec = bpx_frame(hy, 1.0)
        dual = dual_frame(spec)
        rng = np.random.default_rng(7)
        f = PrimalVector(rng.standard_normal(spec.n))
        g = DualVector(rng.standard_normal(spec.n))
        rf = reconstruct_primal(spec, dual, f)
        rg = reconstruct_dual(spec, dual, g)
        assert np.linalg.norm(rf.coeffs - f.coeffs) <= 1e-10 * np.linalg.norm(f.coeffs)
        assert np.linalg.norm(rg.action - g.action) <= 1e-10 * np.linalg.norm(g.action)


class TestCrossGramian:
    def test_f1_projector_by_hand(self):
        f1 = fixture_f1()
        g = cross_gramian(f1, dual_frame(f1))
        expected = np.array(
            [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
        )  # Psi^T (Psi Psi^T)^-1 Psi by hand
        assert_allclose(g, expected, atol=1e-12)

    def test_riesz_basis_gives_identity(self):
        f4 = fixture_f4()
        assert_allclose(cross_gramian(f4, dual_frame(f4)), np.eye(2), atol=1e-12)

    def test_projector_properties_and_svd_oracle(self):
        triple = build_triple(3, 1.0)
        rng = np.random.default_rng(8)
        spec = random_frame(rng, triple, 12)
        dual = dual_frame(spec)
        g = cross_gramian(spec, dual)
        g_rev = cross_gramian(dual, spec)
        gn = np.linalg.norm(g)
        assert np.linalg.norm(g @ g - g) <= 1e-10 * gn
        assert np.linalg.norm(g - g.T) <= 1e-10 * gn
        assert np.abs(g - g_rev).max() <= 1e-12 * np.abs(g).max()
        u, s, _ = np.linalg.svd(spec.elements.T, full_matrices=False)
        p_svd = u[:, s > s[0] * 1e-10] @ u[:, s > s[0] * 1e-10].T
        assert np.linalg.norm(g - p_svd) <= 1e-10 * gn

    def test_orthogonal_splitting(self):
        triple = build_triple(3, 0.5)
        rng = np.random.default_rng(9)
        spec = random_frame(rng, triple, 11)
        p = cross_gramian(spec, dual_frame(spec))
        for _ in range(100):
            c = rng.standard_normal(spec.k)
            range_part = p @ c
            kernel_part = c - range_part
            assert np.linalg.norm(spec.elements @ kernel_part) <= 1e-10 * np.linalg.norm(c)
            assert np.linalg.norm(p @ range_part - range_part) <= 1e-10 * np.linalg.norm(c)

    def test_two_primal_collections_use_h_inner_product(self):
        f4 = fixture_f4()
        g = cross_gramian(f4, f4)
        assert_allclose(g, np.diag([2.0, 1.0]))

    def test_two_dual_collections_rejected(self):
        f1 = fixture_f1()
        d1 = dual_frame(f1)
        with pytest.raises(IncompatiblePairing):
            cross_gramian(d1, d1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cross_gramian(fixture_f1(), dual_frame(random_frame(
                np.random.default_rng(0), build_triple(2, 0.0), 5)))


class TestMinNormCoefficients:
    def test_f1_even_split_and_svd_oracle(self):
        f1 = fixture_f1()
        c = min_norm_coefficients(f1, PrimalVector([1.0, 0.0]))
        assert_allclose(c, [0.5, 0.5, 0.0], atol=1e-12)
        oracle = min_norm_solve(f1.elements, [1.0, 0.0])
        assert_allclose(c, oracle, atol=1e-12)

    def test_riesz_basis_unique_coefficients(self):
        f4 = fixture_f4()
        f = PrimalVector([3.0, -2.0])
        c = min_norm_coefficients(f4, f)
        assert_allclose(c, np.linalg.solve(f4.elements, f.coeffs), atol=1e-12)

    def test_minimality_under_kernel_perturbations(self):
        triple = build_triple(3, 1.0)
        rng = np.random.default_rng(10)
        spec = random_frame(rng, triple, 12)
        kernel = null_space(spec.elements)
        f = PrimalVector(rng.standard_normal(spec.n))
        c = min_norm_coefficients(spec, f)
        assert np.linalg.norm(spec.elements @ c - f.coeffs) <= 1e-10 * np.linalg.norm(
            f.coeffs
        )
        for _ in range(100):
            d = c + kernel @ rng.standard_normal(kernel.shape[1])
            assert np.linalg.norm(c) <= np.linalg.norm(d) + 1e-12

    def test_matches_analysis_with_dual(self):
        triple = build_triple(3, 0.5)
        rng = np.random.default_rng(11)
        spec = random_frame(rng, triple, 10)
        f = PrimalVector(rng.standard_normal(spec.n))
        assert_allclose(
            min_norm_coefficients(spec, f),
            analysis(dual_frame(spec), f),
            atol=1e-12,
        )


class TestRieszCheck:
    def test_f1_is_not_riesz(self):
        assert riesz_check(fixture_f1()).is_riesz is False

    def test_hat_basis_is_riesz(self):
        triple = build_triple(3, 1.0)
        result = riesz_check(reference_frame(triple))
        assert result.is_riesz
        w = np.linalg.eigvalsh(triple.inner.a)
        assert result.lower == pytest.approx(w[0], rel=1e-12)
        assert result.upper == pytest.approx(w[-1], rel=1e-12)

    def test_bpx_frame_is_redundant(self):
        hy = build_hierarchy(2)
        assert riesz_check(bpx_frame(hy, 1.0)).is_riesz is False

    @pytest.mark.parametrize(
        "basis", [fixture_f4(), reference_frame(build_triple(3, 0.5))], ids=["F4", "hat-q0.5"]
    )
    def test_riesz_bounds_equal_frame_bounds_on_both_sides(self, basis):
        # a dual collection is measured in the H' norm, a primal one in the H norm
        for spec in (basis, dual_frame(basis)):
            result = riesz_check(spec)
            bounds = frame_bounds(spec)
            assert result.is_riesz
            assert result.lower == pytest.approx(bounds.lower, rel=1e-10)
            assert result.upper == pytest.approx(bounds.upper, rel=1e-10)


class TestEquivalentInnerProduct:
    def test_f2_doubles_the_euclidean_product(self):
        f2 = fixture_f2()
        value = equivalent_inner_product(f2, DualVector([1.0, 2.0]), DualVector([3.0, 1.0]))
        assert value == pytest.approx(2.0 * (1.0 * 3.0 + 2.0 * 1.0))

    def test_symmetry(self):
        triple = build_triple(3, 1.0)
        rng = np.random.default_rng(12)
        spec = random_frame(rng, triple, 9)
        for _ in range(50):
            f = DualVector(rng.standard_normal(triple.n))
            g = DualVector(rng.standard_normal(triple.n))
            a = equivalent_inner_product(spec, f, g)
            b = equivalent_inner_product(spec, g, f)
            assert a == pytest.approx(b, abs=1e-12 * max(abs(a), 1.0))

    def test_norm_sandwich(self):
        triple = build_triple(3, 0.5)
        rng = np.random.default_rng(13)
        spec = random_frame(rng, triple, 10)
        b = frame_bounds(spec)
        for _ in range(1000):
            f = DualVector(rng.standard_normal(triple.n))
            induced = np.sqrt(equivalent_inner_product(spec, f, f))
            dn = dual_norm(triple, f)
            assert np.sqrt(b.lower) * dn * (1 - 1e-9) <= induced
            assert induced <= np.sqrt(b.upper) * dn * (1 + 1e-9)


class TestFixtureRegistry:
    def test_lookup_by_name(self):
        assert by_name("f2").k == 4
        with pytest.raises(DomainError):
            by_name("F9")

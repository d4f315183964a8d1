import numpy as np
import pytest
from numpy.testing import assert_allclose

from framekit.errors import (
    DimensionMismatch,
    DomainError,
    IncompatiblePairing,
    NoConvergence,
    NotAFrame,
    SingularOperator,
)
from framekit.fixtures import fixture_f1
from framekit.frames import (
    FrameSpec,
    analysis,
    cross_gramian,
    dual_frame,
    frame_bounds,
    min_norm_coefficients,
    reference_frame,
)
from framekit.multiscale import bpx_frame, build_hierarchy
from framekit.operator_repr import (
    composition_check,
    conditioning_study,
    direct_solution,
    galerkin_solve,
    gram_identity_check,
    inverse_representation,
    make_operator,
    manufactured_sine_load,
    manufactured_sine_solution,
    matrix_representation,
    operator_from_matrix,
    poisson_operator,
    pseudo_inverse_identity_check,
    representation_identities,
)
from framekit.spaces import (
    DualVector,
    PrimalVector,
    build_triple,
    pairing,
    primal_norm,
    synthetic_triple,
)


def bpx_setup(j_max):
    hy = build_hierarchy(j_max)
    triple = hy.fine_triple(1.0)
    return bpx_frame(hy, 1.0), poisson_operator(triple), triple


class TestPoissonOperator:
    def test_single_hat_matrix(self):
        op = poisson_operator(build_triple(1, 1.0))
        assert_allclose(op.matrix, [[4.0]])

    def test_energy_norm_constants_are_one(self):
        op = poisson_operator(build_triple(5, 1.0))
        assert op.continuity == pytest.approx(1.0, abs=1e-10)
        assert op.ellipticity == pytest.approx(1.0, abs=1e-10)
        assert op.symmetric and op.elliptic

    def test_positivity(self):
        t = build_triple(4, 1.0)
        op = poisson_operator(t)
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = PrimalVector(rng.standard_normal(t.n))
            assert pairing(op.apply(u), u) > 0.0

    def test_requires_q_one(self):
        with pytest.raises(DomainError):
            poisson_operator(build_triple(3, 0.5))


# For a symmetric elliptic operator, ||O|| = continuity and ||O^-1|| = 1 / ellipticity.
class TestOperatorNorms:
    def test_poisson_norms_in_energy_space(self):
        t = build_triple(4, 1.0)
        measured = make_operator(t, t.stiffness.a)  # the pencil path, against the closed form
        assert measured.continuity == pytest.approx(poisson_operator(t).continuity, abs=1e-10)
        assert 1.0 / measured.ellipticity == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_map_on_euclidean_triple(self):
        t = synthetic_triple(np.eye(2))
        op = make_operator(t, np.diag([3.0, 5.0]))
        assert op.continuity == pytest.approx(5.0, abs=1e-12)
        assert 1.0 / op.ellipticity == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_singular_matrix_has_no_inverse_norm(self):
        t = synthetic_triple(np.eye(2))
        op = make_operator(t, np.diag([1.0, 0.0]))
        assert op.elliptic is False

    def test_a_non_finite_matrix_is_refused(self):
        t = build_triple(7, 1.0)  # 127 nodes
        one_inf = t.stiffness.a.copy()
        one_inf[3, 3] = np.inf
        for mat in (np.full((t.n, t.n), np.nan), one_inf):
            with pytest.raises(ValueError, match="finite"):
                make_operator(t, mat)


class TestMatrixRepresentation:
    def test_reference_basis_reproduces_stiffness(self):
        t = build_triple(3, 1.0)
        op = poisson_operator(t)
        m = matrix_representation(reference_frame(t), reference_frame(t), op)
        assert np.array_equal(m, t.stiffness.a)

    def test_duplicated_columns_duplicate_rows_and_columns(self):
        f1 = fixture_f1()
        op = make_operator(f1.triple, np.diag([3.0, 5.0]))
        m = matrix_representation(f1, f1, op)
        assert_allclose(m, [[3.0, 3.0, 0.0], [3.0, 3.0, 0.0], [0.0, 0.0, 5.0]])

    def test_symmetry_preserved(self):
        frame, op, _ = bpx_setup(3)
        m = matrix_representation(frame, frame, op)
        assert np.abs(m - m.T).max() <= 1e-13 * np.abs(m).max()

    def test_non_negativity_preserved(self):
        frame, op, _ = bpx_setup(3)
        m = matrix_representation(frame, frame, op)
        w = np.linalg.eigvalsh(0.5 * (m + m.T))
        assert w[0] >= -1e-10 * max(w[-1], 1.0)

    def test_operator_norm_bound_same_frame(self):
        frame, op, _ = bpx_setup(3)
        b = frame_bounds(frame)
        m = matrix_representation(frame, frame, op)
        norm_m = np.linalg.norm(m, 2)
        assert norm_m <= b.upper * op.continuity * (1.0 + 1e-8)

    def test_operator_norm_bound_two_frames(self):
        hy = build_hierarchy(3)
        t = hy.fine_triple(1.0)
        op = poisson_operator(t)
        frame = bpx_frame(hy, 1.0)
        hats = reference_frame(t)
        m = matrix_representation(hats, frame, op)
        bound = np.sqrt(frame_bounds(hats).upper * frame_bounds(frame).upper)
        assert np.linalg.norm(m, 2) <= bound * op.continuity * (1.0 + 1e-8)

    def test_smallest_nonzero_singular_value_lower_bound(self):
        frame, op, _ = bpx_setup(3)
        m = matrix_representation(frame, frame, op)
        s = np.linalg.svd(m, compute_uv=False)
        s_pos = s[s > s[0] * 1e-10]
        lower = frame_bounds(frame).lower * op.ellipticity
        assert s_pos[-1] >= lower * 0.95

    def test_dimension_mismatch(self):
        f1 = fixture_f1()
        op = poisson_operator(build_triple(3, 1.0))
        with pytest.raises(DimensionMismatch):
            matrix_representation(f1, f1, op)

    def test_a_dual_collection_is_refused(self):
        t = build_triple(3, 1.0)
        hats = reference_frame(t)
        with pytest.raises(IncompatiblePairing):
            matrix_representation(dual_frame(hats), hats, poisson_operator(t))


class TestOperatorFromMatrix:
    def test_identity_matrix_with_riesz_pair_is_identity_map(self):
        t = build_triple(3, 1.0)
        hats = reference_frame(t)
        dual = dual_frame(hats)
        rep = operator_from_matrix(hats, dual, np.eye(t.n))
        assert rep.input_kind is PrimalVector and rep.output_kind is PrimalVector
        assert_allclose(rep.matrix, np.eye(t.n), atol=1e-10)

    def test_zero_matrix_is_zero_operator(self):
        f1 = fixture_f1()
        rep = operator_from_matrix(f1, f1, np.zeros((3, 3)))
        assert np.abs(rep.matrix).max() == 0.0

    def test_reconstruct_inverse_from_dual_matrix(self):
        # synthesize with the primal frame around the dual matrix of the
        # inverse: recovers the inverse operator matrix
        frame, op, t = bpx_setup(4)
        m_inv = inverse_representation(frame, op)
        rep = operator_from_matrix(frame, frame, m_inv)
        assert rep.input_kind is DualVector and rep.output_kind is PrimalVector
        expected = np.linalg.inv(op.matrix)
        assert np.linalg.norm(rep.matrix - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_reconstruct_operator_with_dual_synthesis(self):
        frame, op, t = bpx_setup(4)
        dual = dual_frame(frame)
        m = matrix_representation(frame, frame, op)
        rep = operator_from_matrix(dual, dual, m)
        assert rep.input_kind is PrimalVector and rep.output_kind is DualVector
        assert np.linalg.norm(rep.matrix - op.matrix) <= 1e-9 * np.linalg.norm(op.matrix)

    def test_apply_respects_types(self):
        f1 = fixture_f1()
        rep = operator_from_matrix(f1, f1, np.eye(3))
        out = rep(DualVector([1.0, 2.0]))
        assert isinstance(out, PrimalVector)
        with pytest.raises(TypeError):
            rep(PrimalVector([1.0, 2.0]))

    def test_shape_mismatch(self):
        f1 = fixture_f1()
        with pytest.raises(DimensionMismatch):
            operator_from_matrix(f1, f1, np.eye(2))


class TestComposition:
    def test_riesz_basis_insertion_exact(self):
        t = build_triple(3, 1.0)
        hats = reference_frame(t)
        op = poisson_operator(t)
        assert composition_check(hats, hats, op, op) <= 1e-12

    def test_redundant_frame_insertion(self):
        frame, op, _ = bpx_setup(3)
        assert composition_check(frame, frame, op, op) <= 1e-9

    def test_zero_inner_operator(self):
        frame, op, t = bpx_setup(2)
        zero = make_operator(t, np.zeros((t.n, t.n)))
        assert composition_check(frame, frame, op, zero) == 0.0


class TestGramIdentity:
    def test_riesz_basis_products_are_identity(self):
        t = build_triple(3, 1.0)
        hats = reference_frame(t)
        op = poisson_operator(t)
        m = matrix_representation(hats, hats, op)
        m_inv = inverse_representation(hats, op)
        assert_allclose(m_inv @ m, np.eye(t.n), atol=1e-10)
        report = gram_identity_check(hats, op)
        assert report.left_residual <= 1e-9
        assert report.right_residual <= 1e-9
        assert report.kernel_angle <= 1e-8

    def test_f1_product_is_the_projector(self):
        f1 = fixture_f1()
        op = make_operator(f1.triple, np.eye(2))
        m = matrix_representation(f1, f1, op)
        m_inv = inverse_representation(f1, op)
        expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        assert_allclose(m_inv @ m, expected, atol=1e-12)

    def test_bpx_poisson(self):
        frame, op, _ = bpx_setup(3)
        report = gram_identity_check(frame, op)
        assert report.left_residual <= 1e-9
        assert report.right_residual <= 1e-9
        assert report.kernel_angle <= 1e-8

    def test_singular_operator_rejected(self):
        f1 = fixture_f1()
        op = make_operator(f1.triple, np.diag([1.0, 0.0]))
        for check in (gram_identity_check, pseudo_inverse_identity_check, representation_identities):
            with pytest.raises(SingularOperator):
                check(f1, op)

    @pytest.mark.parametrize("tiny", [1e-16, 1e-15])
    def test_numerically_singular_operator_rejected(self, tiny):
        # sigma_min <= 1e-14 sigma_max counts as singular, not only an exact zero
        f1 = fixture_f1()
        op = make_operator(f1.triple, np.diag([1.0, tiny]))
        for check in (inverse_representation, representation_identities):
            with pytest.raises(SingularOperator):
                check(f1, op)

    def test_operator_just_above_the_singular_cutoff_is_inverted(self):
        f1 = fixture_f1()
        op = make_operator(f1.triple, np.diag([1.0, 1e-13]))
        m_inv = inverse_representation(f1, op)
        assert np.all(np.isfinite(m_inv))


class TestRepresentationIdentities:
    def test_the_single_checks_read_its_values(self):
        frame, op, _ = bpx_setup(3)
        values = representation_identities(frame, op)
        assert list(values) == [
            "symmetry", "ritz_min", "gram_left", "gram_right", "kernel_angle",
            "composition", "pseudo_inverse", "reconstruct_inverse", "reconstruct_forward",
        ]
        gram = gram_identity_check(frame, op)
        assert (gram.left_residual, gram.right_residual, gram.kernel_angle) == (
            values["gram_left"], values["gram_right"], values["kernel_angle"]
        )
        assert pseudo_inverse_identity_check(frame, op) == values["pseudo_inverse"]
        assert values["composition"] == composition_check(frame, frame, op, op)


class TestPseudoInverseIdentity:
    def test_riesz_basis_plain_inverse(self):
        t = build_triple(3, 1.0)
        hats = reference_frame(t)
        op = poisson_operator(t)
        assert pseudo_inverse_identity_check(hats, op) <= 1e-8

    def test_f1_diagonal_map(self):
        f1 = fixture_f1()
        op = make_operator(f1.triple, np.diag([3.0, 5.0]))
        assert pseudo_inverse_identity_check(f1, op) <= 1e-8
        # the dual matrix IS the Moore-Penrose inverse here, projector and all
        m = matrix_representation(f1, f1, op)
        m_inv = inverse_representation(f1, op)
        assert_allclose(m_inv, np.linalg.pinv(m), atol=1e-12)

    def test_bpx_poisson(self):
        frame, op, _ = bpx_setup(3)
        assert pseudo_inverse_identity_check(frame, op) <= 1e-8


class TestGalerkinSolve:
    def test_a_frame_of_another_size_is_refused(self):
        t = build_triple(3, 1.0)
        with pytest.raises(DimensionMismatch):
            galerkin_solve(fixture_f1(), poisson_operator(t), manufactured_sine_load(t))

    def test_direct_solution_needs_an_elliptic_operator(self):
        t = build_triple(3, 1.0)
        op = make_operator(t, -t.stiffness.a)
        assert not op.elliptic
        with pytest.raises(DomainError, match="elliptic"):
            direct_solution(op, manufactured_sine_load(t))

    def test_reference_basis_matches_direct(self):
        t = build_triple(5, 1.0)
        op = poisson_operator(t)
        b = manufactured_sine_load(t)
        sol = galerkin_solve(reference_frame(t), op, b, tol=1e-12)
        direct = direct_solution(op, b)
        err = primal_norm(t, PrimalVector(sol.solution.coeffs - direct.coeffs))
        assert err <= 1e-10 * primal_norm(t, direct)

    def test_manufactured_solution_on_multilevel_frame(self):
        hy = build_hierarchy(6)
        t = hy.fine_triple(1.0)
        frame = bpx_frame(hy, 1.0)
        op = poisson_operator(t)
        b = manufactured_sine_load(t)
        sol = galerkin_solve(frame, op, b, tol=1e-8)
        assert sol.residual <= 1e-8
        direct = direct_solution(op, b)
        scale = primal_norm(t, direct)
        err = primal_norm(t, PrimalVector(sol.solution.coeffs - direct.coeffs)) / scale
        assert err <= 1e-7  # tol * 10
        interp = manufactured_sine_solution(t)
        h1_err = primal_norm(t, PrimalVector(sol.solution.coeffs - interp.coeffs))
        h1_err /= primal_norm(t, interp)
        assert h1_err <= 2.0**-6.0

    def test_cg_coefficients_are_min_norm(self):
        hy = build_hierarchy(5)
        t = hy.fine_triple(1.0)
        frame = bpx_frame(hy, 1.0)
        op = poisson_operator(t)
        b = manufactured_sine_load(t)
        sol = galerkin_solve(frame, op, b, tol=1e-8)
        oracle = min_norm_coefficients(frame, direct_solution(op, b))
        diff = np.linalg.norm(sol.coefficients - oracle) / np.linalg.norm(oracle)
        assert diff <= 1e-7

    def test_solution_invariant_under_redundant_columns(self):
        hy = build_hierarchy(4)
        t = hy.fine_triple(1.0)
        frame = bpx_frame(hy, 1.0)
        op = poisson_operator(t)
        b = manufactured_sine_load(t)
        base = galerkin_solve(frame, op, b, tol=1e-9).solution
        padded = FrameSpec(t, np.hstack([frame.elements, frame.elements[:, :5]]))
        again = galerkin_solve(padded, op, b, tol=1e-9).solution
        diff = primal_norm(t, PrimalVector(base.coeffs - again.coeffs))
        assert diff <= 1e-7 * primal_norm(t, base)

    def test_a_zero_tolerance_is_refused_before_any_iteration(self):
        frame, op, t = bpx_setup(3)
        with pytest.raises(DomainError, match="tolerance"):
            galerkin_solve(frame, op, manufactured_sine_load(t), tol=0.0)

    def test_nan_load_is_rejected_before_any_iteration(self):
        # the load must fail at construction, not after maxit CG iterations
        frame, op, t = bpx_setup(3)
        action = manufactured_sine_load(t).action.copy()
        action[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            galerkin_solve(frame, op, DualVector(action))

    def test_galerkin_orthogonality(self):
        hy = build_hierarchy(4)
        t = hy.fine_triple(1.0)
        frame = bpx_frame(hy, 1.0)
        op = poisson_operator(t)
        b = manufactured_sine_load(t)
        sol = galerkin_solve(frame, op, b, tol=1e-10)
        direct = direct_solution(op, b)
        gap = DualVector(op.matrix @ (sol.solution.coeffs - direct.coeffs))
        residuals = analysis(frame, gap)
        assert np.abs(residuals).max() <= 1e-9

    def test_unreachable_tolerance_raises_well_before_maxit(self):
        # the attainable relative true residual at J = 10 is about 7.4e-16, reached in 217 iterations
        frame, op, t = bpx_setup(10)
        with pytest.raises(NoConvergence) as err:
            galerkin_solve(frame, op, manufactured_sine_load(t), tol=2.3e-16)
        assert err.value.iterations < 300
        assert 2.3e-16 < err.value.residual < 1e-14  # the true residual reached

    def test_tolerance_1e_14_is_reached_at_depth_10(self):
        # the matrix-free E^T A E product stalled near 2.9e-13; the exact Gram has no cancelled entries
        frame, op, t = bpx_setup(10)
        sol = galerkin_solve(frame, op, manufactured_sine_load(t), tol=1e-14)
        assert sol.residual <= 1e-14

    def test_rejects_nonsymmetric_operator(self):
        t = synthetic_triple(np.eye(2))
        frame = reference_frame(t)
        bad = make_operator(t, np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert not bad.symmetric
        with pytest.raises(DomainError):
            galerkin_solve(frame, bad, DualVector(np.ones(t.n)))

    def test_rejects_semi_frame(self):
        t = build_triple(2, 1.0)
        op = poisson_operator(t)
        thin = FrameSpec(t, np.ones((t.n, 1)))
        with pytest.raises(NotAFrame):
            galerkin_solve(thin, op, DualVector(np.ones(t.n)))


class TestConditioningStudy:
    def test_multilevel_stays_flat_while_single_level_grows(self):
        rows = conditioning_study(range(2, 6))
        ratios = [r.ratio for r in rows]
        kappas = [r.kappa_single for r in rows]
        assert max(ratios) <= 60.0
        for a, b in zip(kappas, kappas[1:]):
            assert b / a == pytest.approx(4.0, rel=0.2)
        singles = [r.iterations_single for r in rows]
        for a, b in zip(singles, singles[1:]):
            assert b / a == pytest.approx(2.0, rel=0.25)

    def test_iteration_counts_are_pinned(self):
        # criterion 09b reads these counts; no true-residual restart changes them
        rows = conditioning_study(range(2, 8))
        assert [r.iterations_multilevel for r in rows] == [4, 10, 14, 17, 18, 19]
        assert [r.iterations_single for r in rows] == [7, 15, 31, 63, 127, 255]

    def test_ratio_equals_effective_condition_number_at_q1(self):
        hy = build_hierarchy(3)
        frame = bpx_frame(hy, 1.0)
        op = poisson_operator(hy.fine_triple(1.0))
        m = matrix_representation(frame, frame, op)
        b = frame_bounds(frame)
        w = np.linalg.eigvalsh(0.5 * (m + m.T))
        nonzero = w[w > w[-1] * 1e-10]
        assert nonzero[-1] / nonzero[0] == pytest.approx(b.ratio, rel=1e-9)


class TestManufacturedProblem:
    @pytest.mark.parametrize("build", [manufactured_sine_load, manufactured_sine_solution])
    def test_a_synthetic_triple_has_no_grid(self, build):
        with pytest.raises(DomainError, match="grid triple"):
            build(synthetic_triple(np.eye(2)))

    def test_load_matches_quadrature_oracle(self):
        t = build_triple(4, 1.0)
        b = manufactured_sine_load(t)
        xs = np.linspace(0.0, 1.0, 200_001)
        for i in (0, t.n // 2, t.n - 1):
            hat = np.maximum(0.0, 1.0 - np.abs(xs - t.nodes[i]) / t.h)
            oracle = np.pi**2 * np.trapezoid(np.sin(np.pi * xs) * hat, xs)
            assert b.action[i] == pytest.approx(oracle, abs=1e-9)

    def test_exact_load_gives_nodally_exact_solution(self):
        # classical 1D property: with exact load integrals the discrete
        # solution interpolates the true solution at the nodes
        t = build_triple(5, 1.0)
        op = poisson_operator(t)
        u = direct_solution(op, manufactured_sine_load(t))
        assert_allclose(u.coeffs, np.sin(np.pi * t.nodes), atol=1e-12)

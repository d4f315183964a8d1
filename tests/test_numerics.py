import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from framekit.errors import (
    DimensionMismatch,
    DomainError,
    Inconsistent,
    NoConvergence,
    NotPositiveDefinite,
)
from framekit.numerics import (
    PencilSpectrum,
    SymMatrix,
    Tridiagonal,
    cg_solve,
    generalized_eig_pairs,
    generalized_eigs,
    largest_principal_angle,
    min_norm_solve,
    null_space,
    pseudo_inverse,
    solve_spd,
    spd_solver,
)
from framekit.spaces import build_triple, grid_dual_norms_sq


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestSymMatrix:
    def test_storage_is_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 6)
        a[0, 1] += 1e-12  # assembly-level noise is tolerated and removed
        m = SymMatrix(a)
        assert np.array_equal(m.a, m.a.T)
        assert m.n == 6

    def test_exact_input_is_stored_bit_for_bit_as_a_copy(self):
        a = random_spd(np.random.default_rng(1), 5)
        a = a + a.T  # exactly symmetric
        before = a.copy()
        m = SymMatrix(a)
        assert np.array_equal(m.a, before)
        a[0, 0] += 1.0  # the caller's array stays writable and is not the storage
        assert np.array_equal(m.a, before)

    def test_rejects_asymmetric_input(self):
        a = np.eye(3)
        a[0, 2] = 0.5
        with pytest.raises(ValueError):
            SymMatrix(a)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_entries_read_only(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.a[0, 0] = 2.0

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("where", ((1, 1), (0, 2)))
    def test_rejects_non_finite_entries(self, bad, where):
        # a symmetric NaN fails the exact-symmetry test and passes the noise test
        a = np.eye(3)
        a[where] = a[where[::-1]] = bad
        with pytest.raises(ValueError, match="finite"):
            SymMatrix(a)


class TestNonFiniteMatrices:
    @pytest.mark.parametrize("values", ((np.nan, 1.0), (2.0, np.inf), (-np.inf, np.nan)))
    def test_tridiagonal_rejects_non_finite_values(self, values):
        with pytest.raises(ValueError, match="finite"):
            Tridiagonal(5, *values)

    @pytest.mark.parametrize("n", (-3, 0, 2.5, "4", True, None))
    def test_tridiagonal_refuses_a_size_that_is_not_a_positive_integer(self, n):
        with pytest.raises(DomainError, match="size"):
            Tridiagonal(n, 1.0, 0.0)

    def test_tridiagonal_of_size_zero_fails_before_its_factor(self):
        with pytest.raises(DomainError):
            spd_solver(Tridiagonal(0, 1.0, 0.0))
        assert Tridiagonal(np.int64(1), 2.0, 0.0).shape == (1, 1)  # numpy integers are sizes too

    @pytest.mark.parametrize("x", (np.ones(3), np.ones(6), np.ones((3, 2)), np.ones((6, 5)), 1.0))
    def test_tridiagonal_refuses_an_operand_whose_leading_size_is_not_n(self, x):
        # Tridiagonal(5, 2.0, -1.0) @ np.ones(3) returned [1, 0, 1]
        with pytest.raises(DimensionMismatch, match="size 5"):
            Tridiagonal(5, 2.0, -1.0) @ x
        t = Tridiagonal(5, 2.0, -1.0)
        assert np.array_equal(t @ np.ones(5), [1.0, 0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(t @ np.ones((5, 2)), t.a @ np.ones((5, 2)))

    @pytest.mark.parametrize(
        "solve",
        (
            lambda a: spd_solver(a),
            lambda a: solve_spd(a, np.ones(3)),
            lambda a: generalized_eig_pairs(a, np.eye(3)),
            lambda a: generalized_eig_pairs(np.eye(3), a),
        ),
        ids=("spd_solver", "solve_spd", "pencil_a", "pencil_b"),
    )
    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_raw_arrays_are_refused(self, solve, bad):
        a = 4.0 * np.eye(3)
        a[2, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(a)


class TestSolveSpd:
    def test_identity(self):
        assert_allclose(solve_spd(np.eye(2), [3.0, 4.0]), [3.0, 4.0])

    def test_diagonal(self):
        assert_allclose(solve_spd(np.diag([2.0, 4.0]), [2.0, 8.0]), [1.0, 2.0])

    @pytest.mark.parametrize("n", [8, 50, 200])
    def test_random_spd_residual(self, n):
        rng = np.random.default_rng(n)
        a = random_spd(rng, n)
        b = rng.standard_normal(n)
        x = solve_spd(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_ill_conditioned_stiffness_still_meets_contract(self):
        # 1D Laplacian on a 255-node mesh: condition number ~ 1e5
        n, h = 255, 1.0 / 256
        a = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
             + np.diag(np.full(n - 1, -1.0), -1)) / h
        b = np.random.default_rng(7).standard_normal(n)
        x = solve_spd(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd(np.diag([1.0, -1.0]), [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_spd(np.eye(3), [1.0, 2.0])

    def test_matrix_rhs(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 5)
        b = rng.standard_normal((5, 4))
        x = solve_spd(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


class TestDenseSpdSolverOracle:
    """The dense branch (numpy Cholesky, kept inverse factor) against scipy's cho_solve."""

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e7, 1e10])
    @pytest.mark.parametrize("cols", [None, 5])
    def test_matches_scipy_cho_solve(self, cond, cols):
        rng = np.random.default_rng(int(np.log10(cond)) + 17 * (cols or 0))
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        a = (q * np.logspace(0.0, -np.log10(cond), 40)) @ q.T  # eigenvalues 1 down to 1/cond
        a = 0.5 * (a + a.T)
        b = a @ rng.standard_normal(40 if cols is None else (40, cols))
        x = spd_solver(a)(b)
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b)
        assert x.shape == b.shape
        nb = np.linalg.norm(b, axis=0)
        # for b = A x0 both residuals sit near eps ||b||: they agree to 1e-12 relative in the
        # image of A, and forward to eps times the condition number
        assert np.all(np.linalg.norm(a @ (x - ref), axis=0) <= 1e-12 * nb)
        assert np.all(np.linalg.norm(x - ref, axis=0) <= 1e-14 * cond * np.linalg.norm(ref, axis=0))

    def test_symmatrix_input(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 12)
        b = rng.standard_normal((12, 3))
        assert_allclose(spd_solver(SymMatrix(a))(b), scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b),
                        rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [2, 30])
    def test_indefinite_raises(self, n):
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * np.r_[-1e-3, np.ones(n - 1)]) @ q.T
        with pytest.raises(NotPositiveDefinite):
            spd_solver(0.5 * (a + a.T))


class TestBandedRefinement:
    @pytest.mark.parametrize("j_fine", [12, 13])
    def test_block_columns_are_refined_on_their_own_scale(self, j_fine):
        # beside a column 1e10 times larger, which meets its goal at once, each rough column
        # must still be refined on its own scale: its (H^1)' norm a^T K^-1 a matches the
        # closed form to 5e-13 (judged on the whole block, it stays at up to 8e-12)
        t = build_triple(j_fine, 1.0)
        rng = np.random.default_rng(j_fine)
        big = 1e10 * (t.inner @ rng.standard_normal(t.n))
        block = np.column_stack([big, rng.standard_normal((t.n, 4))])
        got = np.einsum("ik,ik->k", block, spd_solver(t.inner)(block))
        assert_allclose(got, grid_dual_norms_sq(block, 1.0), rtol=5e-13, atol=0.0)

    @pytest.mark.parametrize("j_fine", [10, 12, 13])
    @pytest.mark.parametrize("which", ["stiffness", "mass"])
    def test_a_block_solve_equals_its_column_solves(self, which, j_fine):
        # a column's answer must not depend on the other columns of its block
        t = build_triple(j_fine, 1.0)
        m = t.inner if which == "stiffness" else t.mass
        rng = np.random.default_rng(j_fine)
        sine = np.sin(np.pi * np.arange(1, t.n + 1) / (t.n + 1))
        block = np.column_stack([1e10 * (m @ rng.standard_normal(t.n)), rng.standard_normal((t.n, 4)), sine])
        solve = spd_solver(m)
        columns = np.column_stack([solve(col) for col in block.T])
        assert np.array_equal(solve(block), columns)


class TestLargestPrincipalAngle:
    @staticmethod
    def bases(theta, n=12, k=3, seed=0):
        """Orthonormal A, B of dimension k whose principal angles are theta * (1, 1/2, 1/4)."""
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        angles = theta * np.array([1.0, 0.5, 0.25])[:k]
        return q[:, :k], q[:, :k] * np.cos(angles) + q[:, k : 2 * k] * np.sin(angles)

    @pytest.mark.parametrize("theta", [1e-12, 1e-9, 1e-6, 1e-3, 0.3, 1.2])
    def test_matches_scipy_subspace_angles(self, theta):
        a, b = self.bases(theta)
        angle = largest_principal_angle(a, b)
        assert abs(angle - float(np.max(scipy.linalg.subspace_angles(a, b)))) <= 1e-12
        assert abs(angle - theta) <= 1e-12

    def test_small_angles_are_out_of_reach_of_the_arccos_route(self):
        a, b = self.bases(1e-9)
        arccos_route = float(np.arccos(min(1.0, np.linalg.svd(a.T @ b, compute_uv=False).min())))
        assert abs(arccos_route - 1e-9) > 1e-12
        assert abs(largest_principal_angle(a, b) - 1e-9) <= 1e-12

    def test_unequal_and_empty_spans(self):
        a, b = self.bases(0.1)
        assert largest_principal_angle(a, b[:, :2]) == pytest.approx(np.pi / 2)
        assert largest_principal_angle(a[:, :0], b[:, :0]) == 0.0


class TestGeneralizedEigs:
    def test_mismatched_shapes_are_refused(self):
        with pytest.raises(DimensionMismatch):
            generalized_eig_pairs(np.eye(3), np.eye(2))

    def test_diagonal_against_identity(self):
        s = generalized_eigs(np.diag([2.0, 1.0]), np.eye(2))
        assert_allclose(s.eigenvalues, [1.0, 2.0])
        assert s.rank == 2

    def test_identical_pencil_is_all_ones(self):
        rng = np.random.default_rng(1)
        m = random_spd(rng, 7)
        s = generalized_eigs(m, m)
        assert_allclose(s.eigenvalues, np.ones(7), atol=1e-12)

    def test_against_characteristic_polynomial_oracle(self):
        # independent oracle: roots of det(A - lambda I) for A = diag(8, 1/2)
        a = np.diag([8.0, 0.5])
        oracle = np.sort(np.roots([1.0, -np.trace(a), np.linalg.det(a)]))
        s = generalized_eigs(a, np.eye(2))
        assert_allclose(s.eigenvalues, oracle, atol=1e-12)
        assert_allclose(s.eigenvalues, [0.5, 8.0], atol=1e-12)

    def test_congruence_invariance(self):
        # eigenvalues of (A, B) equal those of (C^T A C, C^T B C) for invertible C
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = 6
            r = rng.standard_normal((n, n))
            a = r @ r.T  # PSD
            b = random_spd(rng, n)
            c = rng.standard_normal((n, n)) + n * np.eye(n)
            w1, _ = generalized_eig_pairs(a, b)
            w2, _ = generalized_eig_pairs(c.T @ a @ c, c.T @ b @ c)
            assert_allclose(w1, w2, rtol=1e-8, atol=1e-10)

    def test_eigenvectors_are_b_orthonormal(self):
        rng = np.random.default_rng(9)
        a = random_spd(rng, 6)
        b = random_spd(rng, 6)
        _, v = generalized_eig_pairs(a, b)
        assert_allclose(v.T @ b @ v, np.eye(6), atol=1e-10)

    def test_indefinite_b_raises(self):
        with pytest.raises(NotPositiveDefinite):
            generalized_eigs(np.eye(2), np.diag([1.0, -1.0]))

    def test_rank_uses_relative_cutoff(self):
        s = generalized_eigs(np.diag([1.0, 1e-15, 0.0]), np.eye(3))
        assert s.rank == 1
        assert s.min_nonzero == pytest.approx(1.0)

    def test_spectrum_sorted(self):
        rng = np.random.default_rng(5)
        s = generalized_eigs(random_spd(rng, 8), random_spd(rng, 8))
        assert np.all(np.diff(s.eigenvalues) >= 0)


class TestCgSolve:
    def test_identity_one_iteration(self):
        x, its = cg_solve(lambda v: v, np.array([1.0, 1.0]), tol=1e-10)
        assert_allclose(x, [1.0, 1.0])
        assert its == 1

    def test_zero_rhs(self):
        x, its = cg_solve(lambda v: v, np.zeros(3))
        assert its == 0
        assert_allclose(x, np.zeros(3))

    def test_singular_consistent_matches_min_norm_oracle(self):
        a = np.diag([1.0, 2.0, 0.0])
        b = np.array([1.0, 2.0, 0.0])
        x, _ = cg_solve(lambda v: a @ v, b, tol=1e-12)
        oracle = min_norm_solve(a, b)
        assert_allclose(x, oracle, atol=1e-10)
        assert_allclose(x, [1.0, 1.0, 0.0], atol=1e-10)

    def test_random_singular_consistent_matches_min_norm(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n, r = 12, 7
            base = rng.standard_normal((n, r))
            a = base @ base.T  # PSD, rank r
            b = a @ rng.standard_normal(n)  # consistent by construction
            x, _ = cg_solve(lambda v: a @ v, b, tol=1e-12)
            oracle = min_norm_solve(a, b)
            assert np.linalg.norm(x - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1.0)

    def test_agrees_with_direct_solve(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 20)
        b = rng.standard_normal(20)
        x, _ = cg_solve(lambda v: a @ v, b, tol=1e-12)
        assert_allclose(x, solve_spd(a, b), atol=1e-9)

    def test_no_convergence_raises_with_state(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 30) + np.diag(np.logspace(0, 8, 30))
        b = rng.standard_normal(30)
        with pytest.raises(NoConvergence) as err:
            cg_solve(lambda v: a @ v, b, tol=1e-14, maxit=2)
        assert err.value.iterations == 2
        assert err.value.residual > 0

    @pytest.mark.parametrize(
        "b, tol, error",
        (
            ([1.0, np.nan, 0.0], 1e-10, ValueError),
            ([1.0, np.inf, 0.0], 1e-10, ValueError),
            ([1.0, 1.0, 1.0], 0.0, DomainError),
            ([1.0, 1.0, 1.0], -1e-10, DomainError),
            ([1.0, 1.0, 1.0], np.nan, DomainError),
            ([1.0, 1.0, 1.0], np.inf, DomainError),
            ([0.0, 0.0, 0.0], 0.0, DomainError),
        ),
        ids=("nan b", "inf b", "tol 0", "negative tol", "nan tol", "inf tol", "tol 0 and b 0"),
    )
    def test_bad_input_is_refused_before_the_first_apply(self, b, tol, error):
        calls = []

        def counted(v):
            calls.append(1)
            return 2.0 * v

        with pytest.raises(error):
            cg_solve(counted, np.array(b), tol=tol)
        assert calls == []

    def test_tol_zero_on_the_stiffness_matrix_is_refused_at_once(self):
        stiffness = build_triple(7, 1.0).stiffness  # 127 nodes
        calls = []

        def counted(v):
            calls.append(1)
            return stiffness @ v

        with pytest.raises(DomainError):
            cg_solve(counted, np.ones(127), tol=0.0)
        assert calls == []

    def test_a_nan_curvature_is_a_breakdown(self):
        calls = []

        def nan_map(v):
            calls.append(1)
            return np.full_like(v, np.nan)

        with pytest.raises(NoConvergence) as err:
            cg_solve(nan_map, np.ones(4))
        assert err.value.iterations == 0
        assert len(calls) == 2  # the first direction, then the true residual of the zero start

    def test_a_huge_finite_rhs_does_not_overflow(self):
        with np.errstate(over="raise", invalid="raise"):
            x, its = cg_solve(lambda v: 2 * v, np.array([1e200, 1e200, 3.0]))
        assert its == 1
        assert np.array_equal(x, [5e199, 5e199, 1.5])

    @pytest.mark.parametrize("tol", (1e-8, 1e-12))
    def test_power_of_two_scaling_of_b_scales_x_bit_for_bit(self, tol):
        stiffness = build_triple(6, 1.0).stiffness  # 63 nodes
        b = np.random.default_rng(5).standard_normal(63)
        x, its = cg_solve(lambda v: stiffness @ v, b, tol=tol)
        x_big, its_big = cg_solve(lambda v: stiffness @ v, 2.0**40 * b, tol=tol)
        assert its_big == its
        assert np.array_equal(x_big, 2.0**40 * x)

    def test_power_of_two_scaling_keeps_a_no_convergence_residual(self):
        a = random_spd(np.random.default_rng(4), 30) + np.diag(np.logspace(0, 8, 30))
        b = np.random.default_rng(6).standard_normal(30)
        residuals = []
        for scale in (1.0, 2.0**-30, 2.0**40):
            with pytest.raises(NoConvergence) as err:
                cg_solve(lambda v: a @ v, scale * b, tol=1e-14, maxit=3)
            residuals.append((err.value.iterations, err.value.residual))
        assert residuals[0] == residuals[1] == residuals[2]

    def test_restart_that_lowers_the_true_residual_is_kept(self):
        # the first k0 products use a perturbed matrix, so the recursion meets
        # tol on the wrong system; one restart from the true residual recovers
        rng = np.random.default_rng(3)
        a = random_spd(rng, 10)
        perturbed = a + 1e-3 * np.eye(10)
        b = rng.standard_normal(10)
        _, k0 = cg_solve(lambda v: perturbed @ v, b, tol=1e-12)
        calls = []

        def drifting(v):
            calls.append(1)
            return (perturbed if len(calls) <= k0 else a) @ v

        x, its = cg_solve(drifting, b, tol=1e-12)
        assert its > k0
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


class TestMinNormSolve:
    def test_wide_symmetric_split(self):
        assert_allclose(min_norm_solve(np.array([[1.0, 1.0]]), [2.0]), [1.0, 1.0])

    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert_allclose(min_norm_solve(np.eye(3), b), b)

    def test_duplicated_column_splits_evenly(self):
        # matrix of the {e1, e1, e2} fixture: pinv sends e1 to (1/2, 1/2, 0)
        a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert_allclose(min_norm_solve(a, [1.0, 0.0]), [0.5, 0.5, 0.0], atol=1e-14)

    def test_minimality_against_perturbations(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 9))
        x = min_norm_solve(a, a @ rng.standard_normal(9))
        kernel = null_space(a)
        for _ in range(50):
            d = x + kernel @ rng.standard_normal(kernel.shape[1])
            assert np.linalg.norm(x) <= np.linalg.norm(d) + 1e-12

    def test_inconsistent_raises(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(Inconsistent):
            min_norm_solve(a, [1.0, 1.0])

    def test_wrong_size_rhs_is_refused(self):
        with pytest.raises(DimensionMismatch):
            min_norm_solve(np.eye(3), [1.0, 2.0])


class TestHelpers:
    def test_pseudo_inverse_penrose_conditions(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((4, 7))
        p = pseudo_inverse(a)
        assert_allclose(a @ p @ a, a, atol=1e-12)
        assert_allclose(p @ a @ p, p, atol=1e-12)
        assert_allclose((a @ p).T, a @ p, atol=1e-12)
        assert_allclose((p @ a).T, p @ a, atol=1e-12)

    def test_null_space_and_rank(self):
        a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        k = null_space(a)
        assert k.shape == (3, 1)
        assert np.linalg.norm(a @ k) <= 1e-12

    def test_pencil_spectrum_invariants(self):
        s = PencilSpectrum(eigenvalues=np.array([0.0, 1.0, 2.0]), rank=2)
        assert s.n == 3
        assert s.min == 0.0
        assert s.max == 2.0
        assert s.min_nonzero == 1.0

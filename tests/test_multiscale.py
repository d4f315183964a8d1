import numpy as np
import pytest
from numpy.testing import assert_allclose

import framekit.frames as frames
import framekit.multiscale as multiscale
from framekit.errors import DimensionMismatch, DomainError
from framekit.frames import frame_bounds, riesz_check
from framekit.multiscale import (
    bernstein_rate,
    bpx_bounds,
    bpx_frame,
    build_hierarchy,
    jackson_rate,
    l2_project,
    norm_equivalence_ratio,
    prolong_to_fine,
    sample_on_fine_grid,
    telescope,
)
from framekit.spaces import DualVector, PrimalVector, _grid_pencil, build_triple, dual_norm


def hat_value(x, center, width):
    return np.maximum(0.0, 1.0 - np.abs(x - center) / width)


def l2_norm(hy, coeffs):
    m = hy.fine_triple().mass.a
    return float(np.sqrt(max(coeffs @ (m @ coeffs), 0.0)))


class TestHierarchy:
    def test_dims_small(self):
        assert build_hierarchy(1).dims == (1, 3)

    def test_dims_j3(self):
        assert build_hierarchy(3).dims == (1, 3, 7, 15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            build_hierarchy(0)
        with pytest.raises(DomainError):
            build_hierarchy(11)

    def test_nesting_exact_against_analytic_hats(self):
        # the embedded coarse hat must equal the tent function sampled on
        # the fine nodes, with no interpolation error at all
        hy = build_hierarchy(6)
        fine = hy.fine_triple()
        for j in hy.levels:
            e = hy.embed_matrix(j)
            h_j = hy.level_h(j)
            centers = h_j * np.arange(1, hy.dims[j] + 1)
            for k in (0, hy.dims[j] // 2, hy.dims[j] - 1):
                exact = hat_value(fine.nodes, centers[k], h_j)
                assert np.abs(e[:, k] - exact).max() == 0.0

    def test_prolongation_column_rank(self):
        hy = build_hierarchy(4)
        for j in hy.levels:
            e = hy.embed_matrix(j)
            assert np.linalg.matrix_rank(e) == hy.dims[j]


class TestL2Project:
    def test_idempotent_on_coarse_functions(self):
        hy = build_hierarchy(5)
        rng = np.random.default_rng(0)
        for j in (0, 2, 4):
            v = PrimalVector(rng.standard_normal(hy.dims[j]))
            f = prolong_to_fine(hy, j, v)
            back = l2_project(hy, j, f)
            assert np.linalg.norm(back.coeffs - v.coeffs) <= 1e-12 * np.linalg.norm(v.coeffs)

    def test_center_hat_against_quadrature_oracle(self):
        # project the central fine hat onto the single coarse hat; the
        # best-fit coefficient <f, phi> / ||phi||^2 comes from a
        # 10^5-point trapezoid rule on the actual tent functions
        hy = build_hierarchy(3)
        fine = hy.fine_triple()
        center = fine.n // 2
        f = np.zeros(fine.n)
        f[center] = 1.0
        projected = l2_project(hy, 0, PrimalVector(f))
        xs = np.linspace(0.0, 1.0, 100_001)
        fine_hat = hat_value(xs, fine.nodes[center], fine.h)
        coarse_hat = hat_value(xs, 0.5, 0.5)
        oracle = np.trapezoid(fine_hat * coarse_hat, xs) / np.trapezoid(coarse_hat**2, xs)
        assert projected.coeffs[0] == pytest.approx(oracle, abs=1e-8)

    def test_galerkin_orthogonality(self):
        hy = build_hierarchy(4)
        rng = np.random.default_rng(1)
        f = PrimalVector(rng.standard_normal(hy.fine_triple().n))
        mass = hy.fine_triple().mass.a
        for j in (0, 1, 3):
            residual = f.coeffs - prolong_to_fine(hy, j, l2_project(hy, j, f)).coeffs
            e = hy.embed_matrix(j)
            assert np.abs(e.T @ (mass @ residual)).max() <= 1e-12

    def test_dimension_mismatch(self):
        hy = build_hierarchy(2)
        with pytest.raises(DimensionMismatch):
            l2_project(hy, 0, PrimalVector([1.0]))


class TestTelescope:
    def test_increments_sum_to_projection(self):
        hy = build_hierarchy(5)
        rng = np.random.default_rng(2)
        f = PrimalVector(rng.standard_normal(hy.fine_triple().n))
        total = sum(p.coeffs for p in telescope(hy, f))
        assert np.linalg.norm(total - f.coeffs) <= 1e-12 * np.linalg.norm(f.coeffs)

    def test_increments_are_l2_orthogonal(self):
        hy = build_hierarchy(4)
        rng = np.random.default_rng(3)
        f = PrimalVector(rng.standard_normal(hy.fine_triple().n))
        pieces = telescope(hy, f)
        mass = hy.fine_triple().mass.a
        for a in range(len(pieces)):
            for b in range(a + 1, len(pieces)):
                inner = pieces[a].coeffs @ (mass @ pieces[b].coeffs)
                assert abs(inner) <= 1e-12

    def test_projection_norms_monotone(self):
        hy = build_hierarchy(5)
        rng = np.random.default_rng(4)
        f = PrimalVector(rng.standard_normal(hy.fine_triple().n))
        norms = [
            l2_norm(hy, prolong_to_fine(hy, j, l2_project(hy, j, f)).coeffs)
            for j in hy.levels
        ]
        full = l2_norm(hy, f.coeffs)
        for a, b in zip(norms, norms[1:]):
            assert a <= b + 1e-10
        assert norms[-1] <= full + 1e-10

    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_partial_sum_reordering_with_geometric_tail(self, q):
        # sum_j w^j ||P_j f||^2 reorders into increment terms with the
        # geometric factor; truncating the tail at the top level leaves
        # exactly ||P_J f||^2 * w^(J+1) / (1 - w), bounded by 4^(-qJ)||f||^2 c_q
        hy = build_hierarchy(5)
        rng = np.random.default_rng(5)
        f = PrimalVector(rng.standard_normal(hy.fine_triple().n))
        w = 4.0**-q
        projections = [
            prolong_to_fine(hy, j, l2_project(hy, j, f)).coeffs for j in hy.levels
        ]
        direct = sum(w**j * l2_norm(hy, p) ** 2 for j, p in enumerate(projections))
        increments = telescope(hy, f)
        reordered = sum(
            (w**j / (1.0 - w)) * l2_norm(hy, d.coeffs) ** 2
            for j, d in enumerate(increments)
        )
        diff = reordered - direct
        exact_tail = l2_norm(hy, projections[-1]) ** 2 * w ** (hy.j_max + 1) / (1.0 - w)
        assert diff == pytest.approx(exact_tail, rel=1e-10)
        c_q = w / (1.0 - w)
        assert diff <= 4.0 ** (-q * hy.j_max) * l2_norm(hy, f.coeffs) ** 2 * c_q * (1 + 1e-12)


class TestJackson:
    def test_smooth_sine_rate(self):
        hy = build_hierarchy(8)  # fine grid level 9
        report = jackson_rate(hy, lambda x: np.sin(np.pi * x))
        assert report.fit_window == (2, 6)
        assert report.slope == pytest.approx(-2.0, abs=0.15)

    def test_coarse_function_projects_exactly(self):
        hy = build_hierarchy(5)
        v = PrimalVector(np.array([1.0]))
        fine_v = prolong_to_fine(hy, 0, v)
        report = jackson_rate(hy, lambda x: fine_v.coeffs)
        assert max(report.values) <= 1e-12

    def test_rough_spike_has_shallow_slope(self):
        hy = build_hierarchy(8)
        n = hy.fine_triple().n
        spike = np.zeros(n)
        spike[n // 2] = 1.0
        report = jackson_rate(hy, lambda x: spike)
        assert report.slope > -1.0  # far shallower than the smooth rate -2


class TestBernstein:
    def test_flat_at_q_zero(self):
        report = bernstein_rate(build_hierarchy(5), 0.0)
        assert max(abs(v - 1.0) for v in report.values) <= 1e-12

    def test_growth_factor_q1(self):
        report = bernstein_rate(build_hierarchy(6), 1.0)
        values = report.values
        for j in range(3, len(values) - 1):
            assert values[j + 1] / values[j] == pytest.approx(4.0, rel=0.2)
        assert report.slope == pytest.approx(2.0, abs=0.2)

    def test_growth_factor_q_half(self):
        report = bernstein_rate(build_hierarchy(6), 0.5)
        values = report.values
        for j in range(3, len(values) - 1):
            assert values[j + 1] / values[j] == pytest.approx(2.0, rel=0.2)
        assert report.slope == pytest.approx(1.0, abs=0.2)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bernstein_rate(build_hierarchy(3), 1.5)


def level_blocks(hy):
    """Dense level blocks of bpx_frame(hy, 0): the L^2-normalized level hats, undamped."""
    columns = bpx_frame(hy, 0.0).columns
    ends = np.cumsum(hy.dims)
    return [columns[:, end - dim : end].toarray() for dim, end in zip(hy.dims, ends)]


def level_gramians(hy):
    mass = hy.fine_triple().mass
    return [e.T @ (mass @ e) for e in level_blocks(hy)]


def stability(gram):
    w = np.linalg.eigvalsh(gram)
    return w[0], w[-1]


class TestSingleScale:
    def test_stability_interval_level_independent(self):
        # normalized level Gramian is tridiag(1/4, 1, 1/4): eigenvalues in (1/2, 3/2)
        hy = build_hierarchy(6)
        for j, gram in zip(hy.levels, level_gramians(hy)):
            n = hy.dims[j]
            want = np.eye(n) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1))
            assert_allclose(gram, want, atol=1e-12)
            lo, hi = stability(gram)
            assert 0.49 <= lo <= hi <= 1.51

    def test_bounds_settle_for_deep_levels(self):
        hy = build_hierarchy(6)
        intervals = [stability(gram) for gram in level_gramians(hy)]
        for j in range(3, hy.j_max):
            lo_a, hi_a = intervals[j]
            lo_b, hi_b = intervals[j + 1]
            assert abs(lo_b - lo_a) <= 0.05 * lo_a
            assert abs(hi_b - hi_a) <= 0.05 * hi_a

    def test_single_hat_level_is_tight(self):
        lo, hi = stability(level_gramians(build_hierarchy(2))[0])
        assert lo == pytest.approx(hi)
        assert lo == pytest.approx(1.0)

    def test_columns_are_l2_normalized(self):
        hy = build_hierarchy(4)
        e = level_blocks(hy)[2]
        mass = hy.fine_triple().mass.a
        norms = np.sqrt(np.einsum("ij,ij->j", e, mass @ e))
        assert_allclose(norms, np.ones(e.shape[1]), atol=1e-12)


class TestNormEquivalence:
    def test_ratios_within_fixed_interval(self):
        hy = build_hierarchy(6)
        rng = np.random.default_rng(20240901)
        n = hy.fine_triple().n
        ratios = [
            norm_equivalence_ratio(hy, 1.0, DualVector(rng.standard_normal(n)))
            for _ in range(200)
        ]
        spread = max(ratios) / min(ratios)
        assert spread <= 20.0

    def test_coarse_functional_single_term_cross_check(self):
        # g whose pivot preimage lies in V_0: every projection equals f,
        # so only the j = 0 increment survives
        hy = build_hierarchy(4)
        fine = hy.fine_triple()
        q = 1.0
        f0 = prolong_to_fine(hy, 0, PrimalVector([1.0]))
        g = DualVector(fine.mass.a @ f0.coeffs)
        ratio = norm_equivalence_ratio(hy, q, g)
        direct = l2_norm(hy, f0.coeffs) ** 2 / dual_norm(hy.fine_triple(q), g) ** 2
        assert ratio == pytest.approx(direct, rel=1e-10)

    def test_homogeneity(self):
        hy = build_hierarchy(5)
        rng = np.random.default_rng(6)
        g = DualVector(rng.standard_normal(hy.fine_triple().n))
        r1 = norm_equivalence_ratio(hy, 1.0, g)
        r2 = norm_equivalence_ratio(hy, 1.0, DualVector(2.0 * g.action))
        assert abs(r2 - r1) <= 1e-12 * r1

    def test_q_zero_rejected(self):
        hy = build_hierarchy(2)
        with pytest.raises(DomainError):
            norm_equivalence_ratio(hy, 0.0, DualVector(np.ones(hy.fine_triple().n)))


class TestBpxFrame:
    def test_small_instance_column_count(self):
        hy = build_hierarchy(1)
        spec = bpx_frame(hy, 1.0)
        assert spec.k == 4  # dims 1 + 3
        b = frame_bounds(spec)
        assert b.lower > 0.0 and np.isfinite(b.upper)

    def test_weights_follow_levels(self):
        # level block j (hy.dims[j] columns, in level order) has L^2 column norms 2^(-jq)
        hy = build_hierarchy(3)
        mass = hy.fine_triple().mass.a
        starts = np.cumsum((0,) + hy.dims)
        for q in (0.5, 1.0):
            spec = bpx_frame(hy, q)
            assert spec.k == starts[-1]
            norms = np.sqrt(np.einsum("ij,ij->j", spec.elements, mass @ spec.elements))
            for j in hy.levels:
                assert_allclose(norms[starts[j]:starts[j + 1]], 2.0 ** (-j * q), rtol=1e-12)

    def test_redundant_but_spanning(self):
        spec = bpx_frame(build_hierarchy(3), 1.0)
        assert spec.spans
        assert not riesz_check(spec).is_riesz

    def test_ratio_bounded_for_positive_q(self):
        ratios = []
        for j in range(2, 5):
            b = frame_bounds(bpx_frame(build_hierarchy(j), 1.0))
            ratios.append(b.ratio)
        assert max(ratios) <= 60.0

    def test_negative_control_ratio_grows_at_q_zero(self):
        ratios = []
        for j in range(2, 6):
            b = frame_bounds(bpx_frame(build_hierarchy(j), 0.0))
            ratios.append(b.ratio)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bpx_frame(build_hierarchy(2), 1.5)


def relative_max_error(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


class TestBpxBounds:
    @pytest.mark.parametrize("q", (0.0, 0.5, 1.0, 1.25))
    def test_full_spectrum_matches_the_dense_pencil(self, q):
        # Dense frame_bounds is the oracle, within 1e-10 relative.  At q = 1.25
        # the dense pencil (H E E^T H, H) itself loses about eps * cond(H^q) on
        # its small eigenvalues (5.7e-10 on the lower bound at J = 9), so that
        # exponent is held to 1e-8.
        rtol = 1e-8 if q == 1.25 else 1e-10
        for j in range(1, 10):
            hy = build_hierarchy(j)
            got = bpx_bounds(hy, q)
            want = frame_bounds(bpx_frame(hy, q))
            assert got.spectrum.n == want.spectrum.n == hy.fine_triple().n
            assert relative_max_error(got.spectrum.eigenvalues, want.spectrum.eigenvalues) <= rtol
            assert got.spectrum.rank == want.spectrum.rank
            assert np.all(np.diff(got.spectrum.eigenvalues) >= 0.0)
            assert (got.lower, got.upper) == (got.spectrum.min, got.spectrum.max)

    @pytest.mark.parametrize("j", (6, 8))
    def test_sine_basis_operator_is_block_diagonal_over_2adic_classes(self, j):
        # T = B B^T with B = diag(sqrt d) Q^T E, whose eigenvalues are the frame bounds'
        hy = build_hierarchy(j)
        q = 0.5
        n = hy.fine_triple().n
        modes = np.arange(1, n + 1)
        sines = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(modes, modes) / (n + 1))
        kappa, mu = _grid_pencil(n)
        d = mu ** (1.0 - q) * kappa**q
        assert_allclose((sines * d) @ sines.T, hy.fine_triple(q).inner.a, rtol=0, atol=1e-12 * d.max())
        b = np.sqrt(d)[:, None] * (sines.T @ bpx_frame(hy, q).elements)
        t = b @ b.T
        cls = modes & -modes
        off_class = cls[:, None] != cls[None, :]
        assert np.count_nonzero(off_class) > 0
        assert np.abs(t[off_class]).max() <= 1e-11 * np.abs(t).max()

    def test_builds_no_triple_and_solves_no_pencil(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense route taken")

        monkeypatch.setattr(multiscale, "build_triple", refuse)
        monkeypatch.setattr(frames, "generalized_eigs", refuse)
        hy = build_hierarchy(5)
        assert bpx_bounds(hy, 0.5).lower > 0.0
        assert not [key for key in hy._cache if key[0] in ("fine", "level")]  # no triple cached

    @pytest.mark.parametrize("q", (-0.1, 1.5, 2.0))
    def test_domain_error_outside_the_hat_range(self, q):
        with pytest.raises(DomainError):
            bpx_bounds(build_hierarchy(2), q)


class TestSampling:
    def test_sample_on_fine_grid_matches_nodes(self):
        hy = build_hierarchy(3)
        f = sample_on_fine_grid(hy, lambda x: x**2)
        assert_allclose(f.coeffs, hy.fine_triple().nodes ** 2)

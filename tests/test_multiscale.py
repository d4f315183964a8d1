import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framekit.cli as cli
import framekit.frames as frames
import framekit.multiscale as multiscale
import framekit.spaces as spaces
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
)
from framekit.spaces import DualVector, PrimalVector, build_triple, dual_norm, grid_hq_eigenvalues


def dense_projector_ratio(hy, q):
    """Oracle for one functional's norm-equivalence ratio, from dense projectors and solves.

    sum_j 4^(-jq) ||(P_j - P_{j-1}) M^-1 g||_M^2 / g^T H_q^-1 g, with the
    M-orthogonal projectors P_j = E_j (E_j^T M E_j)^-1 E_j^T M formed densely.
    """
    t = build_triple(hy.j_max + 1, q)
    m = t.mass.a
    projectors = []
    for j in hy.levels:
        e = hy.embed_matrix(j)
        projectors.append(e @ np.linalg.solve(e.T @ m @ e, e.T @ m))

    def ratio(g):
        f = np.linalg.solve(m, g)
        numerator, prev = 0.0, np.zeros(t.n)
        for j, p in enumerate(projectors):
            d = p @ f - prev
            numerator += 4.0 ** (-j * q) * float(d @ m @ d)
            prev = p @ f
        return numerator / float(g @ np.linalg.solve(t.inner.a, g))

    return ratio


def hat_value(x, center, width):
    return np.maximum(0.0, 1.0 - np.abs(x - center) / width)


def l2_norm(hy, coeffs):
    m = hy.fine_triple().mass.a
    return float(np.sqrt(max(coeffs @ (m @ coeffs), 0.0)))


def increments(hy, f):
    """(P_j - P_{j-1}) f on the fine grid for j = 0..j_max, with P_{-1} = 0."""
    projections = [prolong_to_fine(hy, j, l2_project(hy, j, f)).coeffs for j in hy.levels]
    return [p - prev for p, prev in zip(projections, [0.0] + projections[:-1])]


class TestHierarchy:
    def test_dims_small(self):
        assert build_hierarchy(1).dims == (1, 3)

    def test_dims_j3(self):
        assert build_hierarchy(3).dims == (1, 3, 7, 15)

    @pytest.mark.parametrize("j_max", [0, 11, 3.0, pytest.param(np.float64(3.0), id="np.float64(3.0)"), True])
    def test_domain_errors(self, j_max):
        with pytest.raises(DomainError, match="j_max must be an integer in"):
            build_hierarchy(j_max)

    def test_numpy_integer_depth_is_a_depth(self):
        assert build_hierarchy(np.int64(3)).dims == (1, 3, 7, 15)

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

    def test_one_triple_per_grid(self):
        hy = build_hierarchy(3)
        assert hy.level_triple(hy.j_max) is hy.fine_triple()
        assert [key for key in hy._cache if key[0] == "triple"] == [("triple", 4, 0.0)]

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

    @pytest.mark.parametrize("level", [-1, 3])
    def test_a_level_outside_the_hierarchy_is_refused(self, level):
        hy = build_hierarchy(2)
        with pytest.raises(DomainError, match="outside 0..2"):
            l2_project(hy, level, PrimalVector(np.ones(hy.dims[2])))


class TestTelescope:
    def test_increments_sum_to_projection(self):
        hy = build_hierarchy(5)
        rng = np.random.default_rng(2)
        f = PrimalVector(rng.standard_normal(hy.fine_triple().n))
        total = sum(increments(hy, f))
        assert np.linalg.norm(total - f.coeffs) <= 1e-12 * np.linalg.norm(f.coeffs)

    def test_increments_are_l2_orthogonal(self):
        hy = build_hierarchy(4)
        rng = np.random.default_rng(3)
        f = PrimalVector(rng.standard_normal(hy.fine_triple().n))
        pieces = increments(hy, f)
        mass = hy.fine_triple().mass.a
        for a in range(len(pieces)):
            for b in range(a + 1, len(pieces)):
                inner = pieces[a] @ (mass @ pieces[b])
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
        reordered = sum(
            (w**j / (1.0 - w)) * l2_norm(hy, d) ** 2 for j, d in enumerate(increments(hy, f))
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

    @pytest.mark.parametrize("j_max", (1, 2, 3, 4))
    def test_window_without_two_levels_is_domain_error(self, j_max):
        # the window [2, j_max - 2] must hold two levels; no fallback to all levels
        with pytest.raises(DomainError):
            jackson_rate(build_hierarchy(j_max), lambda x: np.sin(np.pi * x))


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
        r2 = norm_equivalence_ratio(hy, 1.0, DualVector(3.0 * g.action))  # scaling by 2 is exact
        assert abs(r2 - r1) <= 1e-12 * r1

    @pytest.mark.parametrize("q", (0.5, 1.0))
    @pytest.mark.parametrize("j_max", (3, 5))
    def test_matches_dense_projector_oracle(self, j_max, q):
        hy = build_hierarchy(j_max)
        oracle = dense_projector_ratio(hy, q)
        rng = np.random.default_rng(11)
        for _ in range(3):
            g = rng.standard_normal(hy.dims[j_max])
            assert norm_equivalence_ratio(hy, q, DualVector(g)) == pytest.approx(oracle(g), rel=1e-12)

    @pytest.mark.parametrize("q", (0.5, 1.0, 1.25))
    def test_block_equals_one_functional_at_a_time(self, q):
        hy = build_hierarchy(6)
        block = np.random.default_rng(13).standard_normal((hy.dims[6], 9)) * np.logspace(-4, 4, 9)
        one_by_one = [norm_equivalence_ratio(hy, q, DualVector(g)) for g in block.T]
        assert_allclose(multiscale.norm_equivalence_ratios(hy, q, block), one_by_one, rtol=1e-14, atol=0.0)

    def test_block_shape_is_checked(self):
        hy = build_hierarchy(3)
        for shape in ((hy.dims[3],), (hy.dims[3] - 1, 2)):
            with pytest.raises(DimensionMismatch):
                multiscale.norm_equivalence_ratios(hy, 0.5, np.ones(shape))

    def test_seeded_report_matches_the_dense_oracle_sample_by_sample(self, tmp_path):
        # the report draws every sample in one call; a draw per sample gives the same numbers
        out = tmp_path / "r.json"
        assert cli.main(["norm-equiv", "--q", "0.5", "--J", "5", "--samples", "12", "--seed", "5",
                         "--output", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        hy = build_hierarchy(5)
        oracle = dense_projector_ratio(hy, 0.5)
        rng = np.random.default_rng(5)
        ratios = [oracle(rng.standard_normal(hy.dims[5])) for _ in range(12)]
        assert results["r_min"] == pytest.approx(min(ratios), rel=1e-12)
        assert results["r_max"] == pytest.approx(max(ratios), rel=1e-12)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_a_non_finite_entry_is_refused(self, bad):
        hy = build_hierarchy(3)
        block = np.ones((hy.dims[3], 2))
        block[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            multiscale.norm_equivalence_ratios(hy, 0.5, block)

    def test_a_zero_functional_is_refused(self):
        # its ratio is 0/0
        hy = build_hierarchy(3)
        block = np.ones((hy.dims[3], 3))
        block[:, 1] = 0.0
        with pytest.raises(DomainError, match="zero"):
            multiscale.norm_equivalence_ratios(hy, 0.5, block)

    def test_cli_builds_no_fractional_triple(self, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("a dense H^q Gram matrix was sized")

        monkeypatch.setattr(spaces, "check_dense_fits", refuse)
        assert cli.main(["norm-equiv", "--q", "0.5", "--J", "8", "--output", str(tmp_path / "r.json")]) == 0

    def test_cli_forms_no_n_by_n_array_at_depth(self, tmp_path):
        # an n x n float64 array at J = 10 (n = 2047) alone takes 33.5 MB
        tracemalloc.start()
        try:
            argv = ["norm-equiv", "--q", "0.5", "--J", "10", "--samples", "50", "--output", str(tmp_path / "r.json")]
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_forms_no_primal_vector_and_prolongs_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a primal vector was formed from g")

        monkeypatch.setattr(multiscale, "prolong_to_fine", refuse)
        monkeypatch.setattr(multiscale, "PrimalVector", refuse)
        hy = build_hierarchy(4)
        g = DualVector(np.random.default_rng(12).standard_normal(hy.dims[hy.j_max]))
        assert norm_equivalence_ratio(hy, 0.5, g) > 0.0

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
        d = grid_hq_eigenvalues(n, q)
        assert_allclose((sines * d) @ sines.T, hy.fine_triple(q).inner.a, rtol=0, atol=1e-12 * d.max())
        b = np.sqrt(d)[:, None] * (sines.T @ bpx_frame(hy, q).elements)
        t = b @ b.T
        cls = modes & -modes
        off_class = cls[:, None] != cls[None, :]
        assert np.count_nonzero(off_class) > 0
        assert np.abs(t[off_class]).max() <= 1e-11 * np.abs(t).max()

    @pytest.mark.parametrize("q", (0.0, 0.5, 1.0))
    @pytest.mark.parametrize("j", (5, 8))
    def test_closed_form_class_blocks_equal_the_gram_of_the_frame_columns(self, j, q):
        # the frame-column route: B_c^T = E^T Q_c diag(sqrt d_c), one block per 2-adic class
        hy = build_hierarchy(j)
        columns = bpx_frame(hy, q).columns
        n = columns.shape[0]
        d = grid_hq_eigenvalues(n, q)
        nodes = np.arange(1, n + 1)
        seen = []
        for k, block in multiscale._bpx_class_blocks(j, q):
            assert np.array_equal(k & -k, np.full(len(k), k[0]))  # one 2-adic class
            # sine rows at arguments reduced modulo the period 2(n+1), exactly, in integers
            sines = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(nodes, k) % (2 * n + 2)) / (n + 1))
            b = (columns.T @ sines) * np.sqrt(d[k - 1])
            want = b.T @ b
            assert block.shape == want.shape
            assert np.abs(block - want).max() <= 1e-13 * np.abs(want).max()
            seen.extend(k)
        assert sorted(seen) == list(nodes)  # the classes partition the modes

    def test_reads_no_embedding(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("frame columns read")

        monkeypatch.setattr(multiscale.MultiscaleHierarchy, "restriction", refuse)
        assert bpx_bounds(build_hierarchy(6), 0.5).lower > 0.0

    def test_lower_bound_is_12_to_the_q_only_for_some_exponents(self):
        # 12^q is always an eigenvalue: the lone mode k = 2^J, where the finest
        # level alone gives (3/2)(n+1) 4^(-Jq) d_k = 12^q.  It is the smallest
        # one for q in {0.5, 0.75, 1}, not for every q > 0: at q = 0.25 the
        # lower bound tends to 12^q / sqrt(2).
        for q in (0.5, 0.75, 1.0):
            for j in range(1, 10):
                dense = frame_bounds(bpx_frame(build_hierarchy(j), q)).lower
                assert abs(dense - 12.0**q) <= 1e-12 * 12.0**q
            assert abs(bpx_bounds(build_hierarchy(10), q).lower - 12.0**q) <= 1e-12 * 12.0**q
        for j in (4, 8):
            dense = frame_bounds(bpx_frame(build_hierarchy(j), 0.25)).lower
            assert dense < 0.9 * 12.0**0.25

    def test_builds_no_triple_and_solves_no_pencil(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense route taken")

        monkeypatch.setattr(multiscale, "build_triple", refuse)
        monkeypatch.setattr(frames, "generalized_eigs", refuse)
        hy = build_hierarchy(5)
        assert bpx_bounds(hy, 0.5).lower > 0.0
        assert not [key for key in hy._cache if key[0] == "triple"]  # no triple cached

    @pytest.mark.parametrize("q", (-0.1, 1.5, 2.0))
    def test_domain_error_outside_the_hat_range(self, q):
        with pytest.raises(DomainError):
            bpx_bounds(build_hierarchy(2), q)


class TestSampling:
    def test_sample_on_fine_grid_matches_nodes(self):
        hy = build_hierarchy(3)
        f = sample_on_fine_grid(hy, lambda x: x**2)
        assert_allclose(f.coeffs, hy.fine_triple().nodes ** 2)

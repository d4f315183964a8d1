"""Dense oracles for the sparse multilevel core (depths J <= 8; the frame's CSR also at J = 9 and 10).

The level restrictions E_j^T (built from the closed form of the level
hats), whose transposes are the level embeddings, the multilevel frame
columns, the grid mass and stiffness matrices (``Tridiagonal``), the
Poisson operator's stored form and banded solve, the frame-Galerkin action
and the CG minimal-norm coefficients are sparse.  Each test rebuilds the quantity
the dense way (level embeddings as the product chain of dense
interpolation matrices) and compares.  The frame's CSR, assembled in one
step, is also compared bit for bit with the scaled level blocks stacked by
``sp.hstack``, and the H^1 Gram E^T A E it records with the dense product.
"""

import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from framekit import cli, frames, operator_repr
from framekit.errors import NotPositiveDefinite
from framekit.frames import (
    FrameSpec,
    analysis,
    frame_operator_matrix,
    min_norm_coefficients,
    synthesis,
)
from framekit.multiscale import MultiscaleHierarchy, bpx_frame, build_hierarchy
from framekit.numerics import SymMatrix, Tridiagonal, cg_solve, solve_spd, spd_solver
from framekit.operator_repr import (
    direct_solution,
    galerkin_solve,
    make_operator,
    manufactured_sine_load,
    manufactured_sine_solution,
    matrix_representation,
    poisson_operator,
)
from framekit.spaces import DualVector, PrimalVector, build_triple

DEPTHS = (1, 2, 5, 8)


def dense_prolongation(coarse_dim):
    p = np.zeros((2 * coarse_dim + 1, coarse_dim))
    for k in range(coarse_dim):
        p[2 * k, k] = 0.5
        p[2 * k + 1, k] = 1.0
        p[2 * k + 2, k] = 0.5
    return p


def dense_embedding(hy, j):
    e = np.eye(hy.dims[hy.j_max])
    for level in range(hy.j_max - 1, j - 1, -1):
        e = e @ dense_prolongation(hy.dims[level])
    return e


def dense_bpx_elements(hy, q):
    blocks = []
    for j in hy.levels:
        scale = (2.0 * hy.level_h(j) / 3.0) ** -0.5
        blocks.append(2.0 ** (-j * q) * (scale * dense_embedding(hy, j)))
    return np.hstack(blocks)


@pytest.mark.parametrize("j_max", DEPTHS)
def test_csr_embeddings_equal_the_dense_chain_bit_for_bit(j_max):
    hy = build_hierarchy(j_max)
    for j in hy.levels:
        e = hy.embed_matrix(j)
        assert isinstance(e, np.ndarray)
        assert np.array_equal(e, dense_embedding(hy, j))


@pytest.mark.parametrize("j_max", DEPTHS)
def test_restriction_is_the_cached_csr_transpose_of_the_embedding(j_max):
    hy = build_hierarchy(j_max)
    for j in hy.levels:
        r = hy.restriction(j)
        assert isinstance(r, sp.csr_array)
        assert r is hy.restriction(j)
        assert np.array_equal(r.toarray(), dense_embedding(hy, j).T)
        assert r.has_sorted_indices and r.nnz == np.count_nonzero(r.toarray())


@pytest.mark.parametrize("j_max", DEPTHS)
def test_embedding_is_a_view_of_the_restriction(j_max):
    hy = build_hierarchy(j_max)
    for j in hy.levels:
        hy.embed_matrix(j)  # E_j is read as restriction(j).T
    assert {key[0] for key in hy._cache} == {"restrict"}  # one stored form per level


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("j_max", DEPTHS)
def test_bpx_elements_unchanged(j_max, q):
    hy = build_hierarchy(j_max)
    frame = bpx_frame(hy, q)
    assert isinstance(frame.elements, np.ndarray)
    assert not frame.elements.flags.writeable
    assert np.array_equal(frame.elements, dense_bpx_elements(hy, q))
    assert sp.issparse(frame.columns)  # a frame built sparse keeps its CSR
    assert np.array_equal(frame.columns.toarray(), frame.elements)


def stacked_bpx_columns(hy, q):
    """Oracle of the one-step build: the scaled ``restriction(j).T`` blocks stacked by ``sp.hstack``."""
    blocks = [2.0 ** (-j * q) * ((2.0 * hy.level_h(j) / 3.0) ** -0.5 * hy.restriction(j).T) for j in hy.levels]
    return sp.hstack(blocks, format="csr")


def assert_same_csr(got, want):
    assert got.format == want.format == "csr" and got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 1.25])
@pytest.mark.parametrize("j_max", [1, 2, 5, 8, 9, 10])
def test_bpx_csr_equals_the_stacked_level_blocks_bit_for_bit(j_max, q):
    hy = build_hierarchy(j_max)
    frame = bpx_frame(hy, q)
    assert_same_csr(frame.columns, stacked_bpx_columns(hy, q))
    assert frame.columns.has_sorted_indices
    assert frame.columns.nnz == np.count_nonzero(frame.elements)  # no stored zeros


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
def test_bpx_frame_builds_no_level_block(monkeypatch, q):
    hy = build_hierarchy(6)
    want = stacked_bpx_columns(hy, q)

    def refuse(self, j):
        raise AssertionError("bpx_frame read a level restriction")

    monkeypatch.setattr(MultiscaleHierarchy, "restriction", refuse)
    assert_same_csr(bpx_frame(build_hierarchy(6), q).columns, want)


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("j_max", DEPTHS)
def test_recorded_spans_verdict_equals_the_svd_rank_test(j_max, q):
    hy = build_hierarchy(j_max)
    frame = bpx_frame(hy, q)
    assert frame.spans
    assert "sv" not in frame._cache  # the verdict was recorded, not measured
    svd_verdict = FrameSpec(frame.triple, frame.elements).spans
    assert frame.spans == svd_verdict


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("j_max", [1, 2, 5, 8, 9])
def test_recorded_h1_gram_equals_the_dense_product(j_max, q):
    frame = bpx_frame(build_hierarchy(j_max), q)
    stiffness, gram = frame._cache["gram"]
    assert stiffness is frame.triple.stiffness
    dense = frame.elements.T @ (stiffness.a @ frame.elements)
    scale = np.abs(dense).max()
    # the dense product's rounding grows with the stiffness's condition, ~ eps (n + 1) / 13 at q = 1
    assert np.abs(gram.toarray() - dense).max() <= np.finfo(float).eps * (frame.n + 1) * scale
    assert gram.nnz == np.count_nonzero(np.abs(dense) > 1e-10 * scale)  # no cancelled entry is stored
    assert (gram != gram.T).nnz == 0  # exactly symmetric
    assert gram.has_sorted_indices


class CountingGram:
    """Stands in for a frame's recorded Gram and counts its products."""

    def __init__(self, gram):
        self.gram, self.products = gram, 0

    def __matmul__(self, v):
        self.products += 1
        return self.gram @ v


def record_gram_products(frame):
    stiffness, gram = frame._cache["gram"]
    frame._cache["gram"] = (stiffness, CountingGram(gram))
    return frame._cache["gram"][1]


def spy_cg_applies(monkeypatch, module, counter):
    """Count ``module.cg_solve``'s applies, asserting that each is exactly one product on the Gram."""
    real, applies = module.cg_solve, []

    def cg(apply_op, b, **keywords):
        def counted(v):
            before = counter.products
            out = apply_op(v)
            assert counter.products == before + 1
            applies.append(v.shape)
            return out

        return real(counted, b, **keywords)

    monkeypatch.setattr(module, "cg_solve", cg)
    return applies


@pytest.mark.parametrize("separate", [False, True])
def test_cg_on_a_q1_multilevel_frame_applies_the_gram_not_the_columns(monkeypatch, separate):
    hy = build_hierarchy(6)
    frame = bpx_frame(hy, 1.0)
    # a stiffness built apart from the frame's, with the same size and values, takes the same path
    triple = build_triple(hy.j_max + 1, 1.0) if separate else hy.fine_triple(1.0)
    assert (triple.stiffness is frame.triple.stiffness) != separate
    op = poisson_operator(triple)
    b = manufactured_sine_load(triple)
    counter = record_gram_products(frame)
    solves = spy_cg_applies(monkeypatch, operator_repr, counter)
    sol = galerkin_solve(frame, op, b)
    assert len(solves) > sol.iterations > 0 and set(solves) == {(frame.k,)}
    min_norm = spy_cg_applies(monkeypatch, frames, counter)
    coeffs = min_norm_coefficients(frame, direct_solution(op, b))  # the q = 1 inner is the stiffness
    assert len(min_norm) > 0
    assert np.linalg.norm(coeffs - sol.coefficients) <= 1e-7 * np.linalg.norm(coeffs)


@pytest.mark.parametrize("q", [0.0, 0.5])
def test_other_inner_matrices_apply_the_columns(q):
    frame = bpx_frame(build_hierarchy(5), q)
    counter = record_gram_products(frame)
    f = PrimalVector(np.random.default_rng(7).standard_normal(frame.n))
    c = min_norm_coefficients(frame, f)  # inner is the mass (q = 0) or dense (q = 0.5): E^T H E
    scaled = make_operator(frame.triple, 2.0 * frame.triple.stiffness.a)  # not the recorded stiffness
    galerkin_solve(frame, scaled, manufactured_sine_load(frame.triple))
    assert counter.products == 0
    assert np.linalg.norm(synthesis(frame, c).coeffs - f.coeffs) <= 1e-10 * np.linalg.norm(f.coeffs)


@pytest.mark.parametrize("j_max", DEPTHS)
def test_frame_operator_from_csr_matches_the_dense_product(j_max):
    frame = bpx_frame(build_hierarchy(j_max), 1.0)
    dense = FrameSpec(frame.triple, frame.elements)
    assert dense.columns is dense.elements  # a frame built dense stores one dense array
    s_sparse = frame_operator_matrix(frame)
    s_dense = frame_operator_matrix(dense)
    assert isinstance(s_sparse, np.ndarray)
    assert np.abs(s_sparse - s_dense).max() <= 1e-14 * np.abs(s_dense).max()
    # a frame built dense keeps the BLAS product bit for bit
    assert np.array_equal(s_dense, dense.elements @ dense.elements.T)


@pytest.mark.parametrize("j_fine", [1, 2, 6, 9])
def test_poisson_constants_match_the_measured_ones(j_fine):
    triple = build_triple(j_fine, 1.0)
    op = poisson_operator(triple)
    measured = make_operator(triple, triple.stiffness.a)
    assert abs(op.continuity - measured.continuity) <= 1e-10
    assert abs(op.ellipticity - measured.ellipticity) <= 1e-10
    assert (op.symmetric, op.elliptic) == (measured.symmetric, measured.elliptic)
    assert np.array_equal(op.matrix, measured.matrix)
    assert op.form is triple.stiffness


@pytest.mark.parametrize("j_max", [1, 2, 3, 5, 8])
def test_galerkin_solve_matches_dense_matrix_cg(j_max):
    hy = build_hierarchy(j_max)
    triple = hy.fine_triple(1.0)
    frame = bpx_frame(hy, 1.0)
    op = poisson_operator(triple)
    m = matrix_representation(frame, frame, op)
    rng = np.random.default_rng(1000 + j_max)
    loads = [manufactured_sine_load(triple), DualVector(rng.standard_normal(triple.n))]
    for b in loads:
        sol = galerkin_solve(frame, op, b, tol=1e-8)
        rhs = frame.elements.T @ b.action
        coeffs, iterations = cg_solve(lambda v: m @ v, rhs, tol=1e-8)
        assert sol.iterations == iterations
        rel = np.linalg.norm(sol.coefficients - coeffs) / np.linalg.norm(coeffs)
        assert rel <= 1e-12
        assert sol.residual <= 1e-8


def test_galerkin_solve_on_a_dense_built_frame():
    # a dense frame and a dense operator apply in their dense forms
    sparse_frame = bpx_frame(build_hierarchy(4), 1.0)
    frame = FrameSpec(sparse_frame.triple, sparse_frame.elements)
    op = make_operator(frame.triple, frame.triple.stiffness.a)
    b = manufactured_sine_load(frame.triple)
    first = galerkin_solve(frame, op, b)
    assert isinstance(frame.columns, np.ndarray) and isinstance(op.form, np.ndarray)
    again = galerkin_solve(frame, op, b)
    assert np.array_equal(first.coefficients, again.coefficients)
    reference = galerkin_solve(sparse_frame, poisson_operator(frame.triple), b)
    assert first.iterations == reference.iterations
    rel = np.linalg.norm(first.coefficients - reference.coefficients)
    assert rel <= 1e-10 * np.linalg.norm(reference.coefficients)


def dense_tridiagonal(n, diag, off):
    band = np.full(n - 1, off)
    return np.diag(np.full(n, diag)) + np.diag(band, 1) + np.diag(band, -1)


@pytest.mark.parametrize("j_fine", [1, 2, 5, 9])
def test_lazy_dense_views_are_read_only_and_unchanged(j_fine):
    t = build_triple(j_fine, 1.0)
    h = t.h
    assert "dense" not in t.stiffness._cache  # nothing dense until asked
    for m, diag, off in ((t.mass, 2.0 * h / 3.0, h / 6.0), (t.stiffness, 2.0 / h, -1.0 / h)):
        assert isinstance(m, Tridiagonal)
        assert not m.a.flags.writeable
        assert m.a is m.a  # built once, then cached
        assert np.array_equal(m.a, dense_tridiagonal(t.n, diag, off))
        assert np.array_equal(m @ np.eye(t.n), m.a)
    op = poisson_operator(t)
    assert not op.matrix.flags.writeable
    assert np.array_equal(op.matrix, dense_tridiagonal(t.n, 2.0 / h, -1.0 / h))


@pytest.mark.parametrize("j_fine", [1, 2, 5, 9])
def test_tridiagonal_products_and_banded_solves_match_dense(j_fine):
    t = build_triple(j_fine, 1.0)
    rng = np.random.default_rng(50 + j_fine)
    for m in (t.mass, t.stiffness):
        for x in (rng.standard_normal(t.n), rng.standard_normal((t.n, 3))):
            dense = m.a @ x
            assert np.abs(m @ x - dense).max() <= 1e-14 * np.abs(dense).max()
            sol = spd_solver(m)(x)
            assert np.linalg.norm(m.a @ sol - x) <= 1e-12 * np.linalg.norm(x)
            ref = solve_spd(SymMatrix(m.a), x)
            assert np.linalg.norm(sol - ref) <= 1e-12 * np.linalg.norm(ref)


def test_banded_factor_refuses_an_indefinite_tridiagonal():
    with pytest.raises(NotPositiveDefinite):
        spd_solver(Tridiagonal(5, 1.0, -1.0))


@pytest.mark.parametrize("j_max", DEPTHS)
def test_banded_direct_solution_matches_dense_solve_spd(j_max):
    triple = build_hierarchy(j_max).fine_triple(1.0)
    op = poisson_operator(triple)
    rng = np.random.default_rng(j_max)
    loads = [manufactured_sine_load(triple), DualVector(rng.standard_normal(triple.n))]
    for b in loads:
        u = direct_solution(op, b).coeffs
        dense = solve_spd(SymMatrix(op.matrix), b.action)
        assert np.linalg.norm(u - dense) <= 1e-12 * np.linalg.norm(dense)
    assert isinstance(op.form, Tridiagonal)


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("j_max", DEPTHS)
def test_cg_min_norm_coefficients_match_the_cholesky_path(j_max, q):
    hy = build_hierarchy(j_max)
    frame = bpx_frame(hy, q)
    dense = FrameSpec(frame.triple, frame.elements)
    rng = np.random.default_rng(200 + j_max)
    triple_1 = hy.fine_triple(1.0)
    for f in (manufactured_sine_solution(triple_1), PrimalVector(rng.standard_normal(frame.n))):
        c = min_norm_coefficients(frame, f)
        oracle = min_norm_coefficients(dense, f)
        assert "sop" not in frame._cache and "sop" in dense._cache  # CG, not Cholesky
        assert np.linalg.norm(c - oracle) <= 1e-10 * np.linalg.norm(oracle)


@pytest.mark.parametrize("j_max", DEPTHS)
def test_sparse_analysis_and_synthesis_match_the_dense_columns(j_max):
    frame = bpx_frame(build_hierarchy(j_max), 1.0)
    rng = np.random.default_rng(300 + j_max)
    g = DualVector(rng.standard_normal(frame.n))
    c = rng.standard_normal(frame.k)
    a = analysis(frame, g)
    s = synthesis(frame, c).coeffs
    assert "elements" not in frame._cache  # the products ran on the CSR columns
    ref_a = frame.elements.T @ g.action
    ref_s = frame.elements @ c
    assert np.abs(a - ref_a).max() <= 1e-14 * np.abs(ref_a).max()
    assert np.abs(s - ref_s).max() <= 1e-14 * np.abs(ref_s).max()


def test_solve_poisson_builds_no_dense_n_by_n_array():
    # one 2047 x 2047 float64 array is 33.5 MB; the whole J = 10 run stays below it
    limit = 8 * 2047**2
    tracemalloc.start()
    try:
        code = cli.main(["solve-poisson", "--J", "10", "--output", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < limit, f"peak {peak / 1e6:.1f} MB"

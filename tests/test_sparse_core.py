"""Dense oracles for the sparse multilevel core (depths J <= 8).

The prolongations, level embeddings, multilevel frame columns, the
Poisson operator's CSR form and the frame-Galerkin action are sparse.
Each test rebuilds the quantity the dense way and compares.
"""

import numpy as np
import pytest

from framekit.frames import FrameSpec, csr_columns, frame_operator_matrix
from framekit.multiscale import bpx_frame, build_hierarchy
from framekit.numerics import cg_solve
from framekit.operator_repr import (
    galerkin_solve,
    make_operator,
    manufactured_sine_load,
    matrix_representation,
    poisson_operator,
)
from framekit.spaces import DualVector, build_triple

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
    for j in range(j_max):
        assert np.array_equal(hy.prolongations[j].toarray(), dense_prolongation(hy.dims[j]))
    for j in hy.levels:
        e = hy.embed_matrix(j)
        assert isinstance(e, np.ndarray)
        assert np.array_equal(e, dense_embedding(hy, j))


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("j_max", DEPTHS)
def test_bpx_elements_unchanged(j_max, q):
    hy = build_hierarchy(j_max)
    frame = bpx_frame(hy, q)
    assert isinstance(frame.elements, np.ndarray)
    assert not frame.elements.flags.writeable
    assert np.array_equal(frame.elements, dense_bpx_elements(hy, q))
    assert np.array_equal(csr_columns(frame).toarray(), frame.elements)


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("j_max", DEPTHS)
def test_recorded_spans_verdict_equals_the_svd_rank_test(j_max, q):
    hy = build_hierarchy(j_max)
    frame = bpx_frame(hy, q)
    assert frame.spans
    assert "sv" not in frame._cache  # the verdict was recorded, not measured
    svd_verdict = FrameSpec(frame.triple, frame.elements, frame.labels).spans
    assert frame.spans == svd_verdict


@pytest.mark.parametrize("j_max", DEPTHS)
def test_frame_operator_from_csr_matches_the_dense_product(j_max):
    frame = bpx_frame(build_hierarchy(j_max), 1.0)
    dense = FrameSpec(frame.triple, frame.elements, frame.labels)
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
    assert np.array_equal(op._cache["csr"].toarray(), op.matrix)


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
    # a frame built from a dense array is converted to CSR once and cached
    sparse_frame = bpx_frame(build_hierarchy(4), 1.0)
    frame = FrameSpec(sparse_frame.triple, sparse_frame.elements, sparse_frame.labels)
    op = make_operator(frame.triple, frame.triple.stiffness.a)
    b = manufactured_sine_load(frame.triple)
    first = galerkin_solve(frame, op, b)
    assert "csr" in frame._cache and "csr" in op._cache
    again = galerkin_solve(frame, op, b)
    assert np.array_equal(first.coefficients, again.coefficients)
    reference = galerkin_solve(sparse_frame, poisson_operator(frame.triple), b)
    assert first.iterations == reference.iterations

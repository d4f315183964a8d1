"""Symmetric linear-algebra kernels used by every other module.

Two matrix types carry the triples' Gram matrices.  ``SymMatrix`` is a
dense symmetric array; ``Tridiagonal`` is a symmetric tridiagonal
Toeplitz matrix stored by its two values, whose products and banded
Cholesky factor cost O(n) and whose dense view is built only when a
dense consumer asks for it.  Each applies with ``@`` in its stored form.
``spd_solver`` factors either (banded Cholesky, refined, or dense
Cholesky), and ``cg_solve`` takes the operator as a callable, so it serves
the sparse layers above: the minimal-norm coefficients of CSR frames
(frames) and the matrix-free frame-Galerkin action on the multilevel
frame's CSR columns (operator_repr).  The eigen- and SVD kernels stay
dense: problem sizes stay at desk scale, and transparent kernels are
easier to cross-check.  A grid triple's own (inner, mass) pencil is
closed-form (``spaces.grid_spectrum``); these kernels solve it only as
its oracle.  All operations are pure functions of immutable inputs and
are safe to call concurrently.

Dense factorizations and eigensolves use ``numpy.linalg``, whose OpenBLAS
also runs ``@``: scipy loads a second OpenBLAS, whose thread pool fights
numpy's still-spinning threads for the cores after a threaded call (2 vCPUs:
an SVD and a Cholesky solve at 63 x 120 took 8.0 ms mixed, 1.6 ms in one
library).  numpy has no triangular solve, so the dense ``spd_solver`` keeps
the inverse Cholesky factor, unrefined: at the rounding floor a refinement
step swaps the factor's error, common to all columns, for per-column noise
amplified by the condition number, which broke the reconstruction identities
of ill-conditioned frames.  scipy keeps the banded Cholesky and pencil ``eigh``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, DomainError, Inconsistent, NoConvergence, NotPositiveDefinite

# Relative cutoffs used throughout: an eigenvalue or singular value counts
# as nonzero above max * RANK_RTOL; the pseudo-inverse drops singular
# values below sigma_max * PINV_CUTOFF.
RANK_RTOL = 1e-10
PINV_CUTOFF = 1e-12


def as_dense(a) -> np.ndarray:
    """Plain float ndarray view of a matrix-like object (SymMatrix, Tridiagonal or array)."""
    if isinstance(a, (SymMatrix, Tridiagonal)):
        return a.a
    return np.asarray(a, dtype=float)


def check_dense_fits(n: int, arrays: int) -> None:
    """Raise DomainError when ``arrays`` dense n x n float64 arrays exceed physical memory."""
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf: nothing to compare against
        return
    needed = arrays * 8 * n * n
    if needed > physical:
        raise DomainError(
            f"{arrays} dense {n} x {n} matrices need about {needed / 2**30:.1f} GiB, "
            f"more than the {physical / 2**30:.1f} GiB of physical memory"
        )


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense symmetric matrix; storage is symmetrized exactly on construction.

    Stores a read-only copy of an exactly symmetric input as it is.  Any
    other input is rejected when its asymmetry exceeds assembly noise (1e-8
    relative), else stored as (A + A^T)/2, so a_ij == a_ji bit for bit.
    """

    a: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("SymMatrix requires a square 2-d array")
        if not np.array_equal(a, a.T):
            scale = max(1.0, float(np.abs(a).max()))
            if float(np.abs(a - a.T).max()) > 1e-8 * scale:
                raise ValueError("input matrix is not symmetric")
            a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def __matmul__(self, x) -> np.ndarray:
        return self.a @ x


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """Symmetric tridiagonal Toeplitz matrix: ``diag`` on the diagonal, ``off`` beside it.

    Stored by its two values.  ``t @ x`` runs as three numpy slices (x may
    be a vector or a block of columns).  The dense view ``a`` is built on
    first use and cached; it is read-only, and building it first checks
    that it fits in memory.
    """

    n: int
    diag: float
    off: float
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def a(self) -> np.ndarray:
        if "dense" not in self._cache:
            check_dense_fits(self.n, 1)
            a = np.zeros(self.shape)
            np.fill_diagonal(a, self.diag)
            idx = np.arange(self.n - 1)
            a[idx, idx + 1] = self.off
            a[idx + 1, idx] = self.off
            a.setflags(write=False)
            self._cache["dense"] = a
        return self._cache["dense"]

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = self.diag * x
        y[1:] += self.off * x[:-1]
        y[:-1] += self.off * x[1:]
        return y

    def banded_lower(self) -> np.ndarray:
        """The lower band in LAPACK's layout: row 0 the diagonal, row 1 the subdiagonal."""
        ab = np.zeros((2, self.n))
        ab[0] = self.diag
        ab[1, :-1] = self.off
        return ab


@dataclass(frozen=True, eq=False)
class PencilSpectrum:
    """Eigenvalues of a symmetric-definite pencil A x = lambda B x.

    Eigenvalues are ascending; ``rank`` counts those above
    lambda_max * RANK_RTOL (a scale-invariant cutoff).
    """

    eigenvalues: np.ndarray
    rank: int

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)

    @classmethod
    def from_eigenvalues(cls, eigenvalues) -> "PencilSpectrum":
        """Spectrum of ascending eigenvalues, its rank counted with the cutoff above."""
        w = np.asarray(eigenvalues, dtype=float)
        wmax = float(w[-1]) if w.size else 0.0
        rank = int(np.count_nonzero(w > max(wmax, 0.0) * RANK_RTOL))
        return cls(eigenvalues=w, rank=rank)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def min_nonzero(self) -> float:
        """Smallest eigenvalue above the rank cutoff."""
        if self.rank == 0:
            raise ValueError("spectrum has rank 0, no nonzero eigenvalue")
        return float(self.eigenvalues[self.n - self.rank])


def spd_solver(a) -> Callable[[np.ndarray], np.ndarray]:
    """Factor an SPD matrix once and return the solve closure.

    A dense matrix is factored A = L L^T by numpy; the closure keeps L^-1,
    and a solve is the two products L^-T (L^-1 b), unrefined (see the module
    docstring).  A Tridiagonal is factored banded (O(n)), and each solve
    applies up to four steps of iterative refinement, each column of a block
    judged on its own residual, which pushes every column's relative residual
    to ~1e-13 even for the stiffest grids.  Raises NotPositiveDefinite when
    a pivot fails.
    """
    try:
        if not isinstance(a, Tridiagonal):
            li = np.linalg.inv(np.linalg.cholesky(as_dense(a)))
            return lambda rhs: li.T @ (li @ np.asarray(rhs, dtype=float))
        band = scipy.linalg.cholesky_banded(a.banded_lower(), lower=True, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NotPositiveDefinite(str(exc)) from None

    def direct(b: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve_banded((band, True), b, check_finite=False)

    def solve(rhs: np.ndarray) -> np.ndarray:
        b = np.asarray(rhs, dtype=float)
        goal = 1e-13 * np.linalg.norm(b, axis=0)  # per column of a block
        x = direct(b)
        r = b - a @ x
        best_x, best_r = x, np.linalg.norm(r, axis=0)
        live = best_r > goal
        for _ in range(4):
            if not np.any(live):
                break
            x = x + direct(r)
            r = b - a @ x
            res = np.linalg.norm(r, axis=0)
            best_x = np.where(res < best_r, x, best_x)
            # a column stops once it meets the goal or stagnates at the precision floor
            live &= (res > goal) & (res < 0.5 * best_r)
            best_r = np.minimum(res, best_r)
        return best_x

    return solve


def solve_spd(a, b) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A via Cholesky.

    Accepts a vector or a matrix right-hand side; a Tridiagonal is solved
    banded; the residual is as ``spd_solver`` describes.
    """
    mat = a if isinstance(a, Tridiagonal) else as_dense(a)
    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != mat.shape[0]:
        raise DimensionMismatch(
            f"matrix is {mat.shape[0]}x{mat.shape[1]}, rhs has leading size {rhs.shape[0]}"
        )
    return spd_solver(mat)(rhs)


def generalized_eig_pairs(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the pencil A x = lambda B x with B symmetric positive definite.

    Solved by Cholesky of B plus a symmetric eigendecomposition of the
    congruence-transformed A.  Eigenvalues come back ascending; the
    eigenvector columns are B-orthonormal (V^T B V = I).
    """
    am = as_dense(a)
    bm = as_dense(b)
    if am.shape != bm.shape:
        raise DimensionMismatch(f"pencil shapes differ: {am.shape} vs {bm.shape}")
    try:
        w, v = scipy.linalg.eigh(am, bm, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"pencil B-factor failed: {exc}") from None
    return w, v


def generalized_eigs(a, b) -> PencilSpectrum:
    """Spectrum of the pencil A x = lambda B x (see generalized_eig_pairs)."""
    w, _ = generalized_eig_pairs(a, b)
    return PencilSpectrum.from_eigenvalues(w)


def cg_solve(
    apply_op: Callable[[np.ndarray], np.ndarray],
    b,
    tol: float = 1e-10,
    maxit: int = 10_000,
) -> tuple[np.ndarray, int]:
    """Plain conjugate gradients from the zero vector.

    ``apply_op`` must realize a symmetric positive semidefinite map and
    ``b`` must be in its range (a consistent system).  Starting from zero
    keeps every iterate inside the range of the map, so singular but
    consistent systems converge to the minimal-norm solution.

    Returns (x, iterations) with ||apply_op(x) - b|| <= tol * ||b||.  When
    the recursive residual meets tol but the true one does not, CG restarts
    from the true residual.  If the next such check finds it no lower, tol
    is below the attainable accuracy.  NoConvergence is raised then, on
    breakdown and after maxit, with a true relative residual, as the recursive
    one may drift: the lower of the last (re)start's and the best iterate's.
    """
    rhs = np.asarray(b, dtype=float)
    nb = float(np.linalg.norm(rhs))
    x = np.zeros_like(rhs)
    if nb == 0.0:
        return x, 0
    r = rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    restart_norm = nb  # true residual norm at the last (re)start: the smallest seen
    best, best_rs = x.copy(), rs  # the best iterate: the one of least recursive residual

    def no_convergence(k):
        return NoConvergence(k, min(restart_norm, float(np.linalg.norm(rhs - apply_op(best)))) / nb)

    for k in range(1, maxit + 1):
        ap = apply_op(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            # breakdown: direction fell into the numerical kernel
            if np.sqrt(rs) <= tol * nb:
                return x, k - 1
            raise no_convergence(k - 1)
        alpha = rs / pap
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        if rs_new < best_rs:
            np.copyto(best, x)
            best_rs = rs_new
        if np.sqrt(rs_new) <= tol * nb:
            true_r = rhs - apply_op(x)
            true_norm = float(np.linalg.norm(true_r))
            if true_norm <= tol * nb:
                return x, k
            if true_norm >= restart_norm:
                raise no_convergence(k)
            # recursion drifted from the true residual: restart from it
            r, restart_norm = true_r, true_norm
            rs = float(r @ r)
            p = r.copy()
            continue
        beta = rs_new / rs
        p = r + beta * p
        rs = rs_new
    raise no_convergence(maxit)


def min_norm_solve(a, b) -> np.ndarray:
    """Minimal-l2-norm solution of a consistent system A x = b via SVD.

    Singular values below sigma_max * 1e-12 are treated as zero.  Serves
    as the pseudo-inverse oracle for the rest of the library.  Raises
    Inconsistent when the post-solve residual exceeds 1e-8 * ||b||.
    """
    mat = np.atleast_2d(np.asarray(a, dtype=float))
    rhs = np.asarray(b, dtype=float)
    if mat.shape[0] != rhs.shape[0]:
        raise DimensionMismatch(
            f"matrix has {mat.shape[0]} rows, rhs has size {rhs.shape[0]}"
        )
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    if s.size and s[0] > 0.0:
        keep = s > s[0] * PINV_CUTOFF
        x = vt[keep].T @ ((u[:, keep].T @ rhs) / s[keep])
    else:
        x = np.zeros(mat.shape[1])
    nb = float(np.linalg.norm(rhs))
    if nb > 0.0 and float(np.linalg.norm(mat @ x - rhs)) > 1e-8 * nb:
        raise Inconsistent(
            f"rhs not in range: residual {np.linalg.norm(mat @ x - rhs):.3e} vs ||b|| {nb:.3e}"
        )
    return x


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose inverse; singular values below sigma_max * PINV_CUTOFF count as zero."""
    mat = np.atleast_2d(np.asarray(a, dtype=float))
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    if not s.size or s[0] == 0.0:
        return np.zeros((mat.shape[1], mat.shape[0]))
    keep = s > s[0] * PINV_CUTOFF
    return vt[keep].T @ (u[:, keep] / s[keep]).T


def null_space(a) -> np.ndarray:
    """Orthonormal basis of the numerical null space (columns), cut at RANK_RTOL."""
    mat = np.atleast_2d(np.asarray(a, dtype=float))
    _, s, vt = np.linalg.svd(mat)
    cutoff = (s[0] * RANK_RTOL) if s.size else 0.0
    num_rank = int(np.count_nonzero(s > cutoff))
    return vt[num_rank:].T


def largest_principal_angle(a, b) -> float:
    """Largest principal angle between the spans of two orthonormal bases (pi/2 if sizes differ).

    arcsin ||(I - A A^T) B||_2 keeps the small angles that arccos of the cosines rounds to 0.
    """
    if a.shape[1] != b.shape[1]:
        return float(np.pi / 2)
    return float(np.arcsin(min(1.0, np.linalg.norm(b - a @ (a.T @ b), 2))))

"""Matrix representation of operators in frame coordinates and the
frame-Galerkin solution pipeline.

An operator O : H -> H' is stored as the matrix mapping primal
coefficients to dual actions, entry (i, j) = <O b_j, b_i>.  Its
representation in a frame is M = E_test^T L E_ansatz; solving the
(possibly singular but consistent) system M u = C_Psi b by zero-start
conjugate gradients recovers the minimal-norm coefficient vector, i.e.
the analysis of the solution with the canonical dual frame.  The solver
never assembles M: it applies E^T L E with the frame's stored columns
and the operator's stored form.  The Poisson operator stores the grid
stiffness as a ``Tridiagonal``, so its products are O(n), its direct
solve is banded and its dense matrix is built only for the dense
consumers (matrix identities, direct solves, measured constants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionMismatch, DomainError, NotAFrame, SingularOperator
from .frames import (
    AnySpec,
    FrameSpec,
    analysis,
    cross_gramian,
    dual_frame,
    frame_operator_matrix,
    synthesis,
)
from .multiscale import bpx_bounds, bpx_frame, build_hierarchy
from .numerics import (
    RANK_RTOL,
    SymMatrix,
    Tridiagonal,
    as_dense,
    cg_solve,
    generalized_eigs,
    largest_principal_angle,
    null_space,
    pseudo_inverse,
    solve_spd,
)
from .spaces import DiscreteGelfandTriple, DualVector, PrimalVector, stiffness_condition_number


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """Discretized operator O : H -> H' with its form constants.

    ``form`` is the coefficient-to-action matrix as stored: a read-only
    dense array, or the grid stiffness ``Tridiagonal`` for the Poisson
    operator; ``matrix`` is its dense view.  ``continuity`` is the best
    constant in a(u, v) <= C ||u|| ||v||, ``ellipticity`` the best
    constant in a(u, u) >= C ||u||^2, both measured against the triple's
    H^q norm.
    """

    triple: DiscreteGelfandTriple
    form: Union[np.ndarray, Tridiagonal]
    symmetric: bool
    elliptic: bool
    continuity: float
    ellipticity: float

    @property
    def matrix(self) -> np.ndarray:
        """The dense read-only matrix (built on first access for a Tridiagonal form)."""
        return as_dense(self.form)

    def apply(self, f: PrimalVector) -> DualVector:
        if len(f) != self.triple.n:
            raise DimensionMismatch(f"vector has size {len(f)}, operator has {self.triple.n}")
        return DualVector(self.form @ f.coeffs)


def make_operator(triple: DiscreteGelfandTriple, matrix) -> OperatorSpec:
    """Wrap a coefficient-to-action matrix, measuring its form constants.

    For a symmetric matrix the constants are the extreme eigenvalues of
    the (L, inner) pencil; the ellipticity flag requires the smallest one
    to be positive.
    """
    mat = np.array(matrix, dtype=float)
    if mat.shape != (triple.n, triple.n):
        raise DimensionMismatch(
            f"operator matrix {mat.shape} does not match triple dimension {triple.n}"
        )
    mat.setflags(write=False)
    scale = max(1.0, float(np.abs(mat).max()))
    symmetric = float(np.abs(mat - mat.T).max()) <= 1e-12 * scale
    if symmetric:
        spectrum = generalized_eigs(SymMatrix(mat), triple.inner)
        low, high = spectrum.min, spectrum.max
        continuity = max(abs(low), abs(high))
        ellipticity = low
        elliptic = low > RANK_RTOL * max(abs(high), 1.0)
    else:
        hinv_l = np.linalg.solve(triple.inner.a, mat)
        sq = generalized_eigs(SymMatrix(mat.T @ hinv_l), triple.inner)
        continuity = float(np.sqrt(max(sq.max, 0.0)))
        sym_part = 0.5 * (mat + mat.T)
        low = generalized_eigs(SymMatrix(sym_part), triple.inner).min
        ellipticity = low
        elliptic = low > 0.0
    return OperatorSpec(
        triple=triple,
        form=mat,
        symmetric=symmetric,
        elliptic=elliptic,
        continuity=float(continuity),
        ellipticity=float(ellipticity),
    )


def poisson_operator(triple: DiscreteGelfandTriple) -> OperatorSpec:
    """The Dirichlet Laplacian as an operator H^1_0 -> H^-1.

    Requires a triple built with q = 1 so that the energy norm is the
    space norm; then continuity and ellipticity are both exactly 1: the
    inner matrix is the stiffness matrix itself, so every eigenvalue of
    the (L, inner) pencil is 1 and no eigensolve is needed.  The operator
    stores the stiffness ``Tridiagonal`` (-1, 2, -1)/h, so the dense
    matrix is built only if a dense consumer asks for it.
    """
    if triple.q != 1.0:
        raise DomainError(f"poisson_operator needs a q = 1 triple, got q = {triple.q}")
    return OperatorSpec(
        triple=triple,
        form=triple.stiffness,
        symmetric=True,
        elliptic=True,
        continuity=1.0,
        ellipticity=1.0,
    )


def matrix_representation(
    f_test: FrameSpec, f_ansatz: FrameSpec, op: OperatorSpec
) -> np.ndarray:
    """Frame matrix M[m, n] = <O psi_n, phi_m> = Phi^T L Psi.

    Symmetric operators give symmetric matrices when the same frame is
    used on both sides, and non-negative operators give non-negative
    matrices; the operator norm of M is at most sqrt(B_Phi B_Psi) ||O||.
    """
    if not isinstance(f_test, FrameSpec) or not isinstance(f_ansatz, FrameSpec):
        raise TypeError("matrix_representation pairs two primal frames around O : H -> H'")
    if f_test.n != op.triple.n or f_ansatz.n != op.triple.n:
        raise DimensionMismatch("frames and operator live on different dimensions")
    return f_test.elements.T @ (op.matrix @ f_ansatz.elements)


def inverse_representation(f: FrameSpec, op: OperatorSpec) -> np.ndarray:
    """Dual-frame matrix of the inverse: entries <O^-1 dual_j, dual_k>.

    This is the matrix that multiplies the primal representation of O to
    the cross-Gramian projector, and it coincides with the Moore-Penrose
    inverse of that primal representation.  Raises SingularOperator when
    the operator's sigma_min <= 1e-14 sigma_max.
    """
    s = np.linalg.svd(op.matrix, compute_uv=False)
    if s[-1] <= 1e-14 * s[0]:
        raise SingularOperator("operator matrix is numerically singular")
    dual = dual_frame(f)
    return dual.elements.T @ np.linalg.solve(op.matrix, dual.elements)


@dataclass(frozen=True, eq=False)
class RepresentedOperator:
    """Operator D_syn M C_ana rebuilt from a coefficient-space matrix.

    The analysis side fixes the input representation (a primal frame
    analyzes dual actions, a dual frame analyzes primal coefficients),
    the synthesis side fixes the output; ``matrix`` maps input
    representation to output representation.
    """

    matrix: np.ndarray
    input_kind: str  # "dual" or "primal"
    output_kind: str

    def __call__(self, vec):
        if self.input_kind == "dual":
            if not isinstance(vec, DualVector):
                raise TypeError(f"expected DualVector, got {type(vec).__name__}")
            data = vec.action
        else:
            if not isinstance(vec, PrimalVector):
                raise TypeError(f"expected PrimalVector, got {type(vec).__name__}")
            data = vec.coeffs
        out = self.matrix @ data
        return PrimalVector(out) if self.output_kind == "primal" else DualVector(out)


def operator_from_matrix(f_syn: AnySpec, f_ana: AnySpec, m) -> RepresentedOperator:
    """Rebuild an operator from its frame matrix: h -> D_syn (M (C_ana h)).

    With a frame and its canonical dual around the identity matrix this
    reproduces the identity map; with the dual frame on both sides around
    the primal representation of O it reconstructs O itself.
    """
    mat = np.asarray(m, dtype=float)
    if mat.shape != (f_syn.k, f_ana.k):
        raise DimensionMismatch(
            f"matrix shape {mat.shape} does not match frame sizes ({f_syn.k}, {f_ana.k})"
        )
    full = f_syn.elements @ (mat @ f_ana.elements.T)
    return RepresentedOperator(
        matrix=full,
        input_kind="dual" if isinstance(f_ana, FrameSpec) else "primal",
        output_kind="primal" if isinstance(f_syn, FrameSpec) else "dual",
    )


def composition_check(
    f: FrameSpec, xi: FrameSpec, op_outer: OperatorSpec, op_inner: OperatorSpec
) -> float:
    """Relative residual of the frame-insertion composition rule.

    Two coefficient-to-action operators cannot be chained directly, so
    the inner one is carried back into the primal space through the
    frame operator of the inserted frame: T = S_Xi O_inner maps H -> H.
    The rule under test is then

        M^(F,F)(O_outer T)  =  M^(F,Xi)(O_outer) * M^(dual Xi,F)(T),

    whose two sides agree up to rounding because synthesis against Xi
    followed by analysis with its canonical dual is the identity on H.
    """
    s_xi = frame_operator_matrix(xi)
    t_matrix = s_xi @ op_inner.matrix  # primal coeffs -> primal coeffs
    lhs = f.elements.T @ (op_outer.matrix @ (t_matrix @ f.elements))
    xi_dual = dual_frame(xi)
    m_outer = f.elements.T @ (op_outer.matrix @ xi.elements)
    m_inner = xi_dual.elements.T @ (t_matrix @ f.elements)
    rhs = m_outer @ m_inner
    scale = max(float(np.linalg.norm(lhs)), 1e-300)
    return float(np.linalg.norm(lhs - rhs)) / scale


@dataclass(frozen=True)
class GramIdentityReport:
    """Residuals of the inverse-representation product identities."""

    left_residual: float   # || M(O^-1)_dual M(O) - G || / ||G||
    right_residual: float  # || M(O) M(O^-1)_dual - G || / ||G||
    kernel_angle: float    # largest principal angle between ker M(O^-1)_dual and ker D_Psi


def gram_identity_check(f: FrameSpec, op: OperatorSpec) -> GramIdentityReport:
    """Check that the inverse's dual matrix undoes the primal matrix.

    Both orderings of the product must reproduce the cross-Gramian of the
    dual pair, and the kernel of the dual-represented operator must equal
    the synthesis kernel.
    """
    m = matrix_representation(f, f, op)
    m_inv = inverse_representation(f, op)
    g = cross_gramian(dual_frame(f), f)
    gn = max(float(np.linalg.norm(g)), 1e-300)
    left = float(np.linalg.norm(m_inv @ m - g)) / gn
    right = float(np.linalg.norm(m @ m_inv - g)) / gn
    angle = largest_principal_angle(null_space(m_inv), null_space(f.elements))
    return GramIdentityReport(left_residual=left, right_residual=right, kernel_angle=angle)


def pseudo_inverse_identity_check(f: FrameSpec, op: OperatorSpec) -> float:
    """Residual of pinv(M(O)) == dual matrix of O^-1, compared on the range.

    Both sides are projected by the cross-Gramian projector before the
    comparison so that noise in the numerical kernel cannot contribute.
    """
    m = matrix_representation(f, f, op)
    p = pseudo_inverse(m)
    m_inv = inverse_representation(f, op)
    g = cross_gramian(f, dual_frame(f))
    lhs = g @ p @ g
    rhs = g @ m_inv @ g
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    return float(np.linalg.norm(lhs - rhs)) / scale


@dataclass(frozen=True, eq=False)
class GalerkinSolution:
    """Solution of O u = b in frame coordinates."""

    coefficients: np.ndarray
    solution: PrimalVector
    iterations: int
    residual: float


def galerkin_solve(
    f: FrameSpec, op: OperatorSpec, b: DualVector, tol: float = 1e-8
) -> GalerkinSolution:
    """Solve O u = b by testing and expanding in the same frame.

    Forms the load vector C_Psi b and runs zero-start conjugate gradients
    on M = Psi^T L Psi, applied matrix-free as v -> E^T (L (E v)) with
    the frame's ``columns`` and the operator's ``form``.  The system is
    singular whenever the frame is redundant, but it is consistent, and
    the zero start makes CG converge to the minimal-norm coefficients
    <u, dual_k>.
    """
    if not (op.symmetric and op.elliptic):
        raise DomainError("galerkin_solve requires a symmetric elliptic operator")
    if not f.spans:
        raise NotAFrame(f"collection has rank {f.rank} < dimension {f.n}")
    if f.n != op.triple.n:
        raise DimensionMismatch("frame and operator live on different dimensions")
    e = f.columns
    e_t = e.T
    lmat = op.form

    def apply_m(v: np.ndarray) -> np.ndarray:
        return e_t @ (lmat @ (e @ v))

    rhs = analysis(f, b)
    coeffs, iterations = cg_solve(apply_m, rhs, tol=tol)
    nb = float(np.linalg.norm(rhs))
    residual = float(np.linalg.norm(apply_m(coeffs) - rhs)) / nb if nb > 0 else 0.0
    u = synthesis(f, coeffs)
    return GalerkinSolution(
        coefficients=coeffs, solution=u, iterations=iterations, residual=residual
    )


# -- manufactured Poisson problem ---------------------------------------------


def manufactured_sine_load(triple: DiscreteGelfandTriple) -> DualVector:
    """Exact load actions for -u'' = pi^2 sin(pi x): <f, b_i> in closed form."""
    if triple.h is None:
        raise DomainError("manufactured load needs a grid triple")
    x = triple.nodes
    h = triple.h
    coeff = 2.0 * (1.0 - np.cos(np.pi * h)) / h
    return DualVector(coeff * np.sin(np.pi * x))


def manufactured_sine_solution(triple: DiscreteGelfandTriple) -> PrimalVector:
    """Nodal interpolant of the exact solution u = sin(pi x)."""
    if triple.h is None:
        raise DomainError("manufactured solution needs a grid triple")
    return PrimalVector(np.sin(np.pi * triple.nodes))


# -- conditioning study --------------------------------------------------------


@dataclass(frozen=True)
class ConditioningRow:
    level: int
    fine_dim: int
    columns: int
    lower: float
    upper: float
    ratio: float
    kappa_single: float
    iterations_multilevel: int
    iterations_single: int


# Iteration counts are probed with a seeded Gaussian load: a smooth load can
# be (nearly) an eigenvector of the discrete Laplacian, collapsing the
# single-level count to 1 and telling us nothing about conditioning.  Both
# CG runs stop at the relative residual PROBE_TOL.
PROBE_SEED = 2718281
PROBE_TOL = 1e-8


def conditioning_row(j_max: int) -> ConditioningRow:
    """One study row: bounds and CG counts at a single hierarchy depth, with q = 1."""
    hy = build_hierarchy(j_max)
    frame = bpx_frame(hy, 1.0)
    triple = hy.fine_triple(1.0)
    op = poisson_operator(triple)
    bounds = bpx_bounds(hy, 1.0)
    probe = DualVector(
        np.random.default_rng(PROBE_SEED + j_max).standard_normal(triple.n)
    )
    sol = galerkin_solve(frame, op, probe, tol=PROBE_TOL)
    _, iters_single = cg_solve(lambda v: triple.stiffness @ v, probe.action, tol=PROBE_TOL)
    return ConditioningRow(
        level=j_max,
        fine_dim=triple.n,
        columns=frame.k,
        lower=bounds.lower,
        upper=bounds.upper,
        ratio=bounds.ratio,
        kappa_single=stiffness_condition_number(triple.n),
        iterations_multilevel=sol.iterations,
        iterations_single=iters_single,
    )


def conditioning_study(j_values) -> tuple[ConditioningRow, ...]:
    """Conditioning and iteration-count sequences over hierarchy depths, with q = 1.

    The ratio column equals the effective condition number of the
    multilevel system matrix (largest over smallest nonzero eigenvalue)
    and stays bounded, while kappa of the single-level stiffness grows by
    a factor of about 4 per level.
    """
    return tuple(conditioning_row(j) for j in j_values)


def direct_solution(op: OperatorSpec, b: DualVector) -> PrimalVector:
    """Reference fine-grid solve of O u = b (SPD path).

    The stored matrix goes to the Cholesky solve as it is: banded for a
    Tridiagonal, dense otherwise.  Its symmetry was established when the
    operator was built, and Cholesky reads one triangle.
    """
    if not (op.symmetric and op.elliptic):
        raise DomainError("direct_solution requires a symmetric elliptic operator")
    return PrimalVector(solve_spd(op.form, b.action))

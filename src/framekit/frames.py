"""Frame calculus across the primal/dual divide.

A frame here is a finite collection Psi = (psi_k) of primal elements whose
analysis coefficients <f, psi_k> bound the dual norm from above and below:

    A * ||f||_{H'}^2  <=  sum_k |<f, psi_k>|^2  <=  B * ||f||_{H'}^2.

Analysis eats functionals, synthesis produces primal elements, and the
frame operator S = D C maps H' to H.  The canonical dual frame S^-1 psi_k
lives on the dual side; applying the same machinery to it swaps the roles
of H and H'.  No Riesz identification is used anywhere in this module.

A collection stores its column matrix E once, in the form it was built
from (``columns``): CSR for the multilevel frames, a dense array
otherwise.  Analysis, synthesis, E E^T and the minimal-norm coefficients
run on that form; for a CSR frame the minimal-norm coefficients come
from zero-start CG on E^T H E, with no factorization.  The dense
``elements`` of a CSR frame are built only for the dense consumers
(frame bounds, dual frames, Gramians).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, IncompatiblePairing, NotAFrame
from .numerics import (
    RANK_RTOL,
    PencilSpectrum,
    SymMatrix,
    cg_solve,
    generalized_eigs,
    spd_solver,
)
from .spaces import DiscreteGelfandTriple, DualVector, PrimalVector


class _ElementCollection:
    """Shared storage for primal and dual collections: an n x k column matrix.

    ``columns`` holds the matrix in the form it was built from: CSR for a
    scipy.sparse input, otherwise a read-only dense array.  ``elements``
    is the dense matrix: ``columns`` itself when that is dense, else a
    read-only view built on first access and cached.
    """

    def __init__(self, triple: DiscreteGelfandTriple, elements):
        self.triple = triple
        self._cache: dict = {}
        if sp.issparse(elements):
            columns = sp.csr_array(elements, dtype=float)
            values = columns.data
        else:
            columns = np.array(elements, dtype=float)
            if columns.ndim != 2:
                raise ValueError("elements must be a 2-d array (columns are members)")
            columns.setflags(write=False)
            values = columns
        if columns.shape[0] != triple.n:
            raise DimensionMismatch(
                f"elements have {columns.shape[0]} rows, triple has dimension {triple.n}"
            )
        if columns.shape[1] < 1:
            raise ValueError("a collection needs at least one column")
        if not np.all(np.isfinite(values)):
            raise ValueError("elements must be finite")
        self.columns = columns

    @property
    def elements(self) -> np.ndarray:
        if not sp.issparse(self.columns):
            return self.columns
        if "elements" not in self._cache:
            e = self.columns.toarray()
            e.setflags(write=False)
            self._cache["elements"] = e
        return self._cache["elements"]

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def k(self) -> int:
        return self.columns.shape[1]

    def singular_values(self) -> np.ndarray:
        if "sv" not in self._cache:
            self._cache["sv"] = np.linalg.svd(self.elements, compute_uv=False)
        return self._cache["sv"]

    @property
    def rank(self) -> int:
        s = self.singular_values()
        if not s.size or s[0] == 0.0:
            return 0
        return int(np.count_nonzero(s > s[0] * RANK_RTOL))

    @property
    def spans(self) -> bool:
        """True when the columns span R^n.

        A verdict recorded at construction, for collections that span by
        construction, is returned as is; otherwise the SVD rank test decides.
        """
        if "spans" not in self._cache:
            self._cache["spans"] = self.rank == self.n
        return self._cache["spans"]


class FrameSpec(_ElementCollection):
    """Collection of primal elements; column k holds the coefficients of psi_k."""


class DualFrameSpec(_ElementCollection):
    """Collection of dual elements; column k holds the action of psi_k."""


@dataclass(frozen=True, eq=False)
class FrameBounds:
    """Optimal (attained) frame bounds together with the full pencil spectrum."""

    lower: float
    upper: float
    spectrum: PencilSpectrum

    @property
    def ratio(self) -> float:
        return self.upper / self.lower

    @property
    def tight(self) -> bool:
        return self.upper - self.lower <= 1e-10 * self.upper


@dataclass(frozen=True)
class RieszCheck:
    """Outcome of the Riesz-sequence test: independence plus Gramian extremes."""

    is_riesz: bool
    lower: Optional[float] = None
    upper: Optional[float] = None


AnySpec = Union[FrameSpec, DualFrameSpec]


def reference_frame(triple: DiscreteGelfandTriple) -> FrameSpec:
    """The reference hat basis itself as a (Riesz basis) frame."""
    return FrameSpec(triple, np.eye(triple.n))


def _require_spans(spec: AnySpec) -> None:
    if not spec.spans:
        raise NotAFrame(
            f"collection has rank {spec.rank} < dimension {spec.n}: "
            "only an upper semi-frame, lower bound would be 0"
        )


def analysis(spec: AnySpec, vec) -> np.ndarray:
    """Analysis coefficients (<f, psi_k>)_k as an l2 vector of length k.

    A primal frame analyzes DualVectors, a dual frame analyzes
    PrimalVectors; anything else does not pair.
    """
    if isinstance(spec, FrameSpec):
        if not isinstance(vec, DualVector):
            raise IncompatiblePairing(
                f"a primal frame analyzes DualVectors, got {type(vec).__name__}"
            )
        data = vec.action
    elif isinstance(spec, DualFrameSpec):
        if not isinstance(vec, PrimalVector):
            raise IncompatiblePairing(
                f"a dual frame analyzes PrimalVectors, got {type(vec).__name__}"
            )
        data = vec.coeffs
    else:
        raise TypeError(f"not a frame spec: {type(spec).__name__}")
    if data.shape[0] != spec.n:
        raise DimensionMismatch(f"vector has size {data.shape[0]}, frame rows {spec.n}")
    return spec.columns.T @ data


def synthesis(spec: AnySpec, coefficients) -> Union[PrimalVector, DualVector]:
    """Linear combination sum_k c_k psi_k; adjoint of analysis."""
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (spec.k,):
        raise DimensionMismatch(f"expected {spec.k} coefficients, got shape {c.shape}")
    out = spec.columns @ c
    if isinstance(spec, FrameSpec):
        return PrimalVector(out)
    return DualVector(out)


def frame_operator_matrix(spec: AnySpec) -> np.ndarray:
    """Matrix of S = D C in the triple's representations (E E^T), formed from ``columns``."""
    if "smat" not in spec._cache:
        e = spec.columns
        s = e @ e.T
        spec._cache["smat"] = s.toarray() if sp.issparse(s) else s
    return spec._cache["smat"]


def _frame_operator_solver(spec: AnySpec):
    """Cached solver for S = E E^T (the factorization travels with the collection)."""
    if "sop" not in spec._cache:
        spec._cache["sop"] = spd_solver(frame_operator_matrix(spec))
    return spec._cache["sop"]


def frame_operator_apply(spec: AnySpec, vec) -> Union[PrimalVector, DualVector]:
    """Apply S = D C.  Maps H' to H for a primal frame, H to H' for a dual one."""
    return synthesis(spec, analysis(spec, vec))


def frame_bounds(spec: AnySpec) -> FrameBounds:
    """Optimal frame bounds as extreme eigenvalues of an n x n pencil.

    For a primal frame the test elements f range over H', so the bounds
    are the extremes of a^T (E E^T) a / a^T inner^-1 a; the congruence by
    the inner matrix turns that into the SPD pencil
    (inner * E E^T * inner, inner).  For a dual frame the test elements
    range over H and the pencil is (E E^T, inner) directly.  Raises
    NotAFrame when the collection does not span.
    """
    _require_spans(spec)
    h = spec.triple.inner.a
    s = frame_operator_matrix(spec)
    if isinstance(spec, FrameSpec):
        lhs = h @ s @ h
        spectrum = generalized_eigs(SymMatrix(lhs), spec.triple.inner)
    else:
        spectrum = generalized_eigs(SymMatrix(s), spec.triple.inner)
    return FrameBounds(lower=spectrum.min, upper=spectrum.max, spectrum=spectrum)


def dual_frame(spec: AnySpec) -> AnySpec:
    """Canonical dual collection S^-1 psi_k, living on the other side.

    For a primal frame the dual columns are the actions solving
    (E E^T) x = psi_k; the dual of a canonical dual returns the original
    frame.  Raises NotAFrame when the collection does not span.
    """
    _require_spans(spec)
    solver = _frame_operator_solver(spec)
    dual_elements = solver(spec.elements)
    if isinstance(spec, FrameSpec):
        return DualFrameSpec(spec.triple, dual_elements)
    return FrameSpec(spec.triple, dual_elements)


def reconstruct_primal(frame: FrameSpec, dual: DualFrameSpec, f: PrimalVector) -> PrimalVector:
    """Reconstruction f = sum_k <f, dual_k> psi_k."""
    return synthesis(frame, analysis(dual, f))


def reconstruct_dual(frame: FrameSpec, dual: DualFrameSpec, g: DualVector) -> DualVector:
    """Reconstruction g = sum_k <g, psi_k> dual_k."""
    return synthesis(dual, analysis(frame, g))


def cross_gramian(fa: AnySpec, fb: AnySpec) -> np.ndarray:
    """Matrix of pairings G[k, l] = <(fb)_l, (fa)_k>.

    Between a primal and a dual collection this is the duality pairing;
    between two primal collections the H inner product steps in.  Two
    dual collections do not pair.  For a frame and its canonical dual the
    result is the orthogonal projector onto the analysis range.
    """
    if fa.n != fb.n:
        raise DimensionMismatch(f"row counts differ: {fa.n} vs {fb.n}")
    a_primal = isinstance(fa, FrameSpec)
    b_primal = isinstance(fb, FrameSpec)
    if a_primal != b_primal:
        return fa.elements.T @ fb.elements
    if a_primal and b_primal:
        return fa.elements.T @ fa.triple.inner.a @ fb.elements
    raise IncompatiblePairing("two dual-side collections cannot be paired")


# Relative residual to which zero-start CG solves the minimal-norm system
# of a CSR frame.  At J = 10 (q = 1) the result lies within 4e-13
# relative of the dense Cholesky path; at 1e-13 the residual stalls near
# 1.1e-13 and CG runs out of iterations.
MIN_NORM_TOL = 1e-12


def min_norm_coefficients(frame: FrameSpec, f: PrimalVector) -> np.ndarray:
    """Coefficients <f, dual_k>: the minimal-l2-norm d with synthesis(d) = f.

    A frame with dense columns solves E E^T x = f by Cholesky and returns
    E^T x.  A CSR frame runs zero-start CG on E^T H E d = E^T H f, with
    H the triple's inner matrix: E has full row rank and H is SPD, so the
    system holds exactly when E d = f, and the zero start keeps every
    iterate in range(E^T), which makes the limit the minimal-norm d.
    """
    _require_spans(frame)
    if not isinstance(f, PrimalVector):
        raise IncompatiblePairing(f"expected PrimalVector, got {type(f).__name__}")
    if len(f) != frame.n:
        raise DimensionMismatch(f"vector has size {len(f)}, frame rows {frame.n}")
    e = frame.columns
    if sp.issparse(e):
        e_t = e.T
        h = frame.triple.inner
        rhs = e_t @ (h @ f.coeffs)
        coeffs, _ = cg_solve(lambda d: e_t @ (h @ (e @ d)), rhs, tol=MIN_NORM_TOL)
        return coeffs
    solver = _frame_operator_solver(frame)
    return e.T @ solver(f.coeffs)


def riesz_check(frame: AnySpec) -> RieszCheck:
    """Riesz-sequence test: true iff synthesis is injective (rank == k).

    When true, also reports the Riesz bounds: the extreme eigenvalues of
    the Gramian in the elements' own norm, E^T inner E for a primal
    collection and E^T inner^-1 E for a dual one.
    """
    if frame.rank < frame.k:
        return RieszCheck(is_riesz=False)
    if isinstance(frame, FrameSpec):
        gram = frame.elements.T @ frame.triple.inner.a @ frame.elements
    else:
        gram = frame.elements.T @ frame.triple.inner_solve(frame.elements)
    w = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    return RieszCheck(is_riesz=True, lower=float(w[0]), upper=float(w[-1]))


def equivalent_inner_product(frame: FrameSpec, f: DualVector, g: DualVector) -> float:
    """The inner product <f, S g> that turns H' into a Hilbert space.

    Its norm is sandwiched between sqrt(A) and sqrt(B) times the dual
    norm, so reweighting the frame changes the geometry of H' even though
    the topology stays the same.
    """
    _require_spans(frame)
    fa = analysis(frame, f)
    ga = analysis(frame, g)
    return float(fa @ ga)

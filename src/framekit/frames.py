"""Frame calculus across the primal/dual divide.

A frame here is a finite collection Psi = (psi_k) of primal elements whose
analysis coefficients <f, psi_k> bound the dual norm from above and below:

    A * ||f||_{H'}^2  <=  sum_k |<f, psi_k>|^2  <=  B * ||f||_{H'}^2.

Analysis eats functionals, synthesis produces primal elements, and the
frame operator S = D C maps H' to H.  The canonical dual frame S^-1 psi_k
lives on the dual side; applying the same machinery to it swaps the roles
of H and H'.  No Riesz identification is used anywhere in this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, IncompatiblePairing, NotAFrame
from .numerics import (
    RANK_RTOL,
    PencilSpectrum,
    SymMatrix,
    generalized_eigs,
    spd_solver,
)
from .spaces import (
    DiscreteGelfandTriple,
    DualVector,
    PrimalVector,
    build_triple,
    synthetic_triple,
)


@dataclass(frozen=True)
class ColumnLabel:
    """Per-column metadata: multiscale level, position within it, weight."""

    level: int
    position: int
    weight: float


@dataclass(frozen=True, eq=False)
class _ElementCollection:
    """Shared storage for primal and dual collections: an n x k column matrix.

    ``elements`` is always a dense read-only array.  A collection built
    from a scipy.sparse matrix also keeps its columns as CSR, and the
    products E v and E E^T then run sparse (see ``csr_columns``).
    """

    triple: DiscreteGelfandTriple
    elements: np.ndarray
    labels: Optional[tuple[ColumnLabel, ...]] = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if sp.issparse(self.elements):
            self._cache["built_csr"] = sp.csr_array(self.elements, dtype=float)
            e = self._cache["built_csr"].toarray()
        else:
            e = np.array(self.elements, dtype=float)
        if e.ndim != 2:
            raise ValueError("elements must be a 2-d array (columns are members)")
        if e.shape[0] != self.triple.n:
            raise DimensionMismatch(
                f"elements have {e.shape[0]} rows, triple has dimension {self.triple.n}"
            )
        if e.shape[1] < 1:
            raise ValueError("a collection needs at least one column")
        if not np.all(np.isfinite(e)):
            raise ValueError("elements must be finite")
        if self.labels is not None and len(self.labels) != e.shape[1]:
            raise DimensionMismatch("one label per column required")
        e.setflags(write=False)
        object.__setattr__(self, "elements", e)

    @property
    def n(self) -> int:
        return self.elements.shape[0]

    @property
    def k(self) -> int:
        return self.elements.shape[1]

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
    labels = tuple(
        ColumnLabel(level=triple.j_fine if triple.j_fine is not None else 0, position=i, weight=1.0)
        for i in range(triple.n)
    )
    return FrameSpec(triple, np.eye(triple.n), labels)


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
    return spec.elements.T @ data


def synthesis(spec: AnySpec, coefficients) -> Union[PrimalVector, DualVector]:
    """Linear combination sum_k c_k psi_k; adjoint of analysis."""
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (spec.k,):
        raise DimensionMismatch(f"expected {spec.k} coefficients, got shape {c.shape}")
    out = spec.elements @ c
    if isinstance(spec, FrameSpec):
        return PrimalVector(out)
    return DualVector(out)


def csr_columns(spec: AnySpec) -> sp.csr_array:
    """The column matrix E as CSR.

    A collection built sparse returns the columns it was built from; any
    other is converted once and the conversion is cached.
    """
    cache = spec._cache
    if "built_csr" in cache:
        return cache["built_csr"]
    if "csr" not in cache:
        cache["csr"] = sp.csr_array(spec.elements)
    return cache["csr"]


def frame_operator_matrix(spec: AnySpec) -> np.ndarray:
    """Matrix of S = D C in the triple's representations (E E^T).

    Formed from the CSR columns when the collection was built sparse;
    a collection built from a dense array keeps the dense BLAS product.
    """
    if "smat" not in spec._cache:
        if "built_csr" in spec._cache:
            e = spec._cache["built_csr"]
            spec._cache["smat"] = (e @ e.T).toarray()
        else:
            spec._cache["smat"] = spec.elements @ spec.elements.T
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
        return DualFrameSpec(spec.triple, dual_elements, spec.labels)
    return FrameSpec(spec.triple, dual_elements, spec.labels)


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


def min_norm_coefficients(frame: FrameSpec, f: PrimalVector) -> np.ndarray:
    """Coefficients <f, dual_k>: the minimal-l2-norm d with synthesis(d) = f."""
    _require_spans(frame)
    if not isinstance(f, PrimalVector):
        raise IncompatiblePairing(f"expected PrimalVector, got {type(f).__name__}")
    if len(f) != frame.n:
        raise DimensionMismatch(f"vector has size {len(f)}, frame rows {frame.n}")
    solver = _frame_operator_solver(frame)
    return frame.elements.T @ solver(f.coeffs)


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


# -- JSON serialization -------------------------------------------------------

_KINDS = {"primal": FrameSpec, "dual": DualFrameSpec}


def frame_to_json(spec: AnySpec) -> str:
    """Serialize a frame to a JSON descriptor (deterministic byte layout)."""
    t = spec.triple
    if t.j_fine is not None:
        triple_doc = {"J_fine": t.j_fine, "q": t.q}
    else:
        triple_doc = {
            "inner": t.inner.a.tolist(),
            "mass": t.mass.a.tolist(),
        }
    doc = {
        "kind": "primal" if isinstance(spec, FrameSpec) else "dual",
        "triple": triple_doc,
        "labels": None
        if spec.labels is None
        else [
            {"level": l.level, "position": l.position, "weight": l.weight}
            for l in spec.labels
        ],
        "elements": spec.elements.tolist(),
    }
    return json.dumps(doc, sort_keys=True)


def frame_from_json(text: str) -> AnySpec:
    """Rebuild a frame from its JSON descriptor."""
    doc = json.loads(text)
    cls = _KINDS[doc["kind"]]
    td = doc["triple"]
    if "J_fine" in td:
        triple = build_triple(td["J_fine"], td["q"])
    else:
        triple = synthetic_triple(np.asarray(td["inner"]), np.asarray(td["mass"]))
    labels = None
    if doc["labels"] is not None:
        labels = tuple(
            ColumnLabel(level=l["level"], position=l["position"], weight=l["weight"])
            for l in doc["labels"]
        )
    return cls(triple, np.asarray(doc["elements"], dtype=float), labels)

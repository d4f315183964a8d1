"""Nested dyadic hat spaces on (0,1) and the scaled multilevel frame.

Level j of a hierarchy holds the interior hats on the mesh of width
2^-(j+1), so dim V_j = 2^(j+1) - 1 and V_0 is the single hat at 1/2.
Prolongation is exact linear interpolation (stencil 1/2, 1, 1/2), which
makes the nesting V_j subset V_{j+1} hold without discretization error.

Prolongations, level embeddings and the multilevel frame columns are
sparse (CSR): a fine node lies in at most two hats of any level, so E_j
has at most two nonzeros per row.  The multilevel frame stores only these
CSR columns, one block per level in level order.  Their entries are exact
dyadic values, and the dense views (``embed_matrix``,
``FrameSpec.elements``) equal the dense product chain bit for bit.  The
grid mass matrices are ``Tridiagonal`` (spaces): L^2 projections, Jackson
errors and the telescoped norms multiply by them in O(n), restrict with
each level's cached CSR transpose E_j^T and solve the level mass systems
banded.  The Bernstein rates read the closed-form level spectra
(``spaces.grid_spectrum``) and build no level triple.  The multilevel
frame's bounds (``bpx_bounds``) are reduced in the sine basis, where they
split into one small symmetric eigenproblem per 2-adic class of mode
indices; no n x n grid matrix is formed.
``frames.frame_bounds`` stays the generic dense pencil and their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import DimensionMismatch, DomainError
from .frames import FrameBounds, FrameSpec
from .numerics import PencilSpectrum
from .spaces import (
    GAMMA,
    DiscreteGelfandTriple,
    DualVector,
    PrimalVector,
    _grid_pencil,
    build_triple,
    dual_norm,
    grid_spectrum,
)


@dataclass(frozen=True, eq=False)
class MultiscaleHierarchy:
    """Levels 0..j_max of nested hat spaces with their prolongations."""

    j_max: int
    dims: tuple[int, ...]
    prolongations: tuple[sp.csr_array, ...]  # prolongations[j]: V_j -> V_{j+1}
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def levels(self) -> range:
        return range(self.j_max + 1)

    def level_fine_index(self, j: int) -> int:
        """Grid level of V_j (mesh width 2^-(j+1))."""
        return j + 1

    def level_h(self, j: int) -> float:
        return 2.0 ** -(j + 1)

    def fine_triple(self, q: float = 0.0) -> DiscreteGelfandTriple:
        """Triple on the finest grid, memoized per Sobolev exponent."""
        key = ("fine", float(q))
        if key not in self._cache:
            self._cache[key] = build_triple(self.level_fine_index(self.j_max), q)
        return self._cache[key]

    def level_triple(self, j: int, q: float = 0.0) -> DiscreteGelfandTriple:
        self._check_level(j)
        key = ("level", j, float(q))
        if key not in self._cache:
            self._cache[key] = build_triple(self.level_fine_index(j), q)
        return self._cache[key]

    def embedding(self, j: int) -> sp.csr_array:
        """Composite prolongation E_j taking V_j coefficients to the fine grid (CSR).

        Built as the product chain E_j = E_{j+1} P_j from the fine grid
        down, each link cached, so all levels together cost one sweep.
        """
        self._check_level(j)
        key = ("embed", j)
        if key not in self._cache:
            if j == self.j_max:
                e = sp.eye_array(self.dims[j], format="csr")
            else:
                e = (self.embedding(j + 1) @ self.prolongations[j]).tocsr()
            self._cache[key] = e
        return self._cache[key]

    def restriction(self, j: int) -> sp.csr_array:
        """Transposed embedding E_j^T as CSR, built once per level and cached."""
        key = ("restrict", j)
        if key not in self._cache:
            self._cache[key] = self.embedding(j).T.tocsr()
        return self._cache[key]

    def embed_matrix(self, j: int) -> np.ndarray:
        """Dense view of the composite prolongation E_j (a fresh array per call)."""
        return self.embedding(j).toarray()

    def _check_level(self, j: int) -> None:
        if not 0 <= j <= self.j_max:
            raise DomainError(f"level {j} outside 0..{self.j_max}")


def prolongation_matrix(coarse_dim: int) -> sp.csr_array:
    """Interpolation from a dyadic hat space into its refinement (CSR).

    Coarse hat k is centred on fine node 2k + 1 (0-based); its column puts
    1 there and 1/2 on the two fine neighbours.
    """
    fine_dim = 2 * coarse_dim + 1
    rows = np.repeat(np.arange(coarse_dim), 3) * 2 + np.tile([0, 1, 2], coarse_dim)
    cols = np.repeat(np.arange(coarse_dim), 3)
    vals = np.tile([0.5, 1.0, 0.5], coarse_dim)
    return sp.csr_array((vals, (rows, cols)), shape=(fine_dim, coarse_dim))


def build_hierarchy(j_max: int) -> MultiscaleHierarchy:
    """Assemble levels 0..j_max (dims 1, 3, ..., 2^(j_max+1) - 1)."""
    if not 1 <= int(j_max) == j_max <= 10:
        raise DomainError(f"j_max must be an integer in [1, 10], got {j_max}")
    dims = tuple(2 ** (j + 1) - 1 for j in range(j_max + 1))
    prolongations = tuple(prolongation_matrix(dims[j]) for j in range(j_max))
    return MultiscaleHierarchy(j_max=j_max, dims=dims, prolongations=prolongations)


def l2_project(hy: MultiscaleHierarchy, j: int, f: PrimalVector) -> PrimalVector:
    """L^2-orthogonal projection of a fine-grid function onto V_j.

    Solves the level-j mass system M_j c = E_j^T M_fine f.  Projecting a
    function already in V_j returns it (idempotence up to rounding).
    """
    hy._check_level(j)
    fine = hy.fine_triple()
    if len(f) != fine.n:
        raise DimensionMismatch(f"vector has size {len(f)}, fine grid has {fine.n}")
    rhs = hy.restriction(j) @ (fine.mass @ f.coeffs)
    return PrimalVector(hy.level_triple(j).mass_solve(rhs))


def prolong_to_fine(hy: MultiscaleHierarchy, j: int, v: PrimalVector) -> PrimalVector:
    """Exact fine-grid representation of a level-j function."""
    e = hy.embedding(j)
    if len(v) != e.shape[1]:
        raise DimensionMismatch(f"vector has size {len(v)}, level {j} has {e.shape[1]}")
    return PrimalVector(e @ v.coeffs)


def sample_on_fine_grid(hy: MultiscaleHierarchy, f: Callable[[np.ndarray], np.ndarray]) -> PrimalVector:
    """Nodal interpolation of a function onto the fine grid."""
    return PrimalVector(np.asarray(f(hy.fine_triple().nodes), dtype=float))


def telescope(hy: MultiscaleHierarchy, f: PrimalVector) -> list[PrimalVector]:
    """Increments (P_j - P_{j-1}) f on the fine grid, with P_{-1} = 0.

    The increments are mutually L^2-orthogonal and sum to P_{j_max} f.
    """
    pieces = []
    prev = np.zeros(hy.fine_triple().n)
    for j in hy.levels:
        proj = prolong_to_fine(hy, j, l2_project(hy, j, f)).coeffs
        pieces.append(PrimalVector(proj - prev))
        prev = proj
    return pieces


@dataclass(frozen=True, eq=False)
class RateReport:
    """Per-level quantities with a least-squares log2 slope over a fit window."""

    levels: tuple[int, ...]
    values: tuple[float, ...]
    slope: float
    constant: float
    fit_window: tuple[int, int]

    def to_json_dict(self) -> dict:
        return {
            "levels": list(self.levels),
            "values": list(self.values),
            "slope": self.slope,
            "constant": self.constant,
            "fit_window": list(self.fit_window),
        }


def _fit_report(levels, values, fit_lo: int, fit_hi: int) -> RateReport:
    levels = tuple(int(j) for j in levels)
    values = tuple(float(v) for v in values)
    window = [(j, v) for j, v in zip(levels, values) if fit_lo <= j <= fit_hi]
    if len(window) < 2:
        window = list(zip(levels, values))
    xs = np.array([j for j, _ in window], dtype=float)
    ys = np.log2([max(v, 1e-300) for _, v in window])
    slope, intercept = np.polyfit(xs, ys, 1)
    return RateReport(
        levels=levels,
        values=values,
        slope=float(slope),
        constant=float(2.0**intercept),
        fit_window=(fit_lo, fit_hi),
    )


def jackson_rate(
    hy: MultiscaleHierarchy,
    f: Callable[[np.ndarray], np.ndarray],
    fit_lo: int = 2,
    fit_hi: Optional[int] = None,
) -> RateReport:
    """Measured projection errors ||f - P_j f||_{L^2} per level.

    For f with two square-integrable derivatives the errors decay like
    2^(-2j), i.e. the fitted slope is -2 (the approximation order of the
    hats).  The fit window keeps a buffer of two levels below the fine
    grid so the measured rate is not polluted by saturation.
    """
    if fit_hi is None:
        fit_hi = hy.j_max - 2
    fine = hy.fine_triple()
    fv = sample_on_fine_grid(hy, f)
    mass = fine.mass
    values = []
    for j in hy.levels:
        err = fv.coeffs - prolong_to_fine(hy, j, l2_project(hy, j, fv)).coeffs
        values.append(float(np.sqrt(max(err @ (mass @ err), 0.0))))
    return _fit_report(hy.levels, values, fit_lo, fit_hi)


def bernstein_rate(hy: MultiscaleHierarchy, q: float, fit_lo: int = 2) -> RateReport:
    """Largest Rayleigh quotient ||v||_{H^q}^2 / ||v||_{L^2}^2 over V_j, per level.

    Grows like 2^(2jq): factor 4 per level for q = 1, factor 2 for
    q = 1/2, and identically 1 for q = 0.  The value is the largest
    eigenvalue of level j's (H^q Gram, mass) pencil, read from its closed
    form (``grid_spectrum``); no level triple is built.
    """
    if not 0.0 <= q < GAMMA:
        raise DomainError(f"q must lie in [0, {GAMMA}), got {q}")
    values = [grid_spectrum(hy.dims[j], q).max for j in hy.levels]
    return _fit_report(hy.levels, values, fit_lo, hy.j_max)


def _normalized_level(hy: MultiscaleHierarchy, j: int) -> sp.csr_array:
    """E_j scaled so that every level-j hat has unit L^2 norm (CSR)."""
    scale = (2.0 * hy.level_h(j) / 3.0) ** -0.5
    return scale * hy.embedding(j)


def norm_equivalence_ratio(hy: MultiscaleHierarchy, q: float, g: DualVector) -> float:
    """Telescoped-sum-to-dual-norm ratio for a functional g.

    Numerator: sum_j 2^(-2jq) ||(P_j - P_{j-1}) f||_{L^2}^2, where f is
    obtained from g by the pivot identification on L^2 (a mass solve;
    functionals cannot be projected directly, and the pivot identification
    is the one identification the calculus allows).  Denominator: the
    squared (H^q)' norm of g.  The ratio stays inside a fixed interval
    over all g; degree-2 homogeneity makes it invariant under scaling g.
    """
    if not 0.0 < q < GAMMA:
        raise DomainError(f"q must lie in (0, {GAMMA}), got {q}")
    fine_q = hy.fine_triple(q)
    fine_l2 = hy.fine_triple()
    if len(g) != fine_l2.n:
        raise DimensionMismatch(f"vector has size {len(g)}, fine grid has {fine_l2.n}")
    f = PrimalVector(fine_l2.mass_solve(g.action))
    mass = fine_l2.mass
    numerator = 0.0
    for j, piece in enumerate(telescope(hy, f)):
        d = piece.coeffs
        numerator += 4.0 ** (-j * q) * float(d @ (mass @ d))
    denominator = dual_norm(fine_q, g) ** 2
    return numerator / denominator


def bpx_frame(hy: MultiscaleHierarchy, q: float) -> FrameSpec:
    """The scaled multilevel collection {2^(-jq) phi_{j,k} : j = 0..j_max}.

    Columns are the L^2-normalized level hats embedded into the fine grid
    and damped by 2^(-jq).  For 0 < q < 3/2 the bound ratio of the
    resulting frame stays bounded as j_max grows; at q = 0 it does not
    (the collection is kept available as a negative control).

    The frame is built from its CSR level blocks and keeps them.  It
    spans by construction: the finest block is a positive multiple of the
    identity for every q, so the verdict is recorded instead of measured.
    """
    frame = FrameSpec(hy.fine_triple(q), _bpx_columns(hy, q))
    frame._cache["spans"] = True
    return frame


def _bpx_columns(hy: MultiscaleHierarchy, q: float) -> sp.csr_array:
    """Column matrix E of the scaled multilevel frame: its level blocks side by side (CSR)."""
    if not 0.0 <= q < GAMMA:
        raise DomainError(f"q must lie in [0, {GAMMA}), got {q}")
    blocks = [2.0 ** (-j * q) * _normalized_level(hy, j) for j in hy.levels]
    return sp.hstack(blocks, format="csr")


def bpx_bounds(hy: MultiscaleHierarchy, q: float) -> FrameBounds:
    """``frame_bounds(bpx_frame(hy, q))``, full spectrum included, with no n x n grid matrix.

    With H^q = Q diag(d) Q^T on the sine basis Q (d = mu^(1-q) kappa^q),
    the pencil (H^q E E^T H^q, H^q) has the eigenvalues of T = B B^T,
    B = diag(sqrt d) Q^T E.  For this frame T is block diagonal over the
    2-adic class k & -k of the mode index k: level j's E_j E_j^T couples
    mode k only with the modes congruent to +-k modulo 2^(j+2), which
    share k's 2-adic valuation, and a mode divisible by 2^(j+1) is odd
    about every level-j node, so no level-j hat sees it.  Each class
    (k = 2^v * odd, sizes n/2, n/4, ..., 1) is one small symmetric
    eigenproblem; its rows of Q are read from one sine table.  The split
    needs complete, uniformly scaled dyadic levels, so it serves this
    frame only; ``frame_bounds`` stays the generic dense path.
    """
    e_t = _bpx_columns(hy, q).T.tocsr()
    n = e_t.shape[1]
    kappa, mu = _grid_pencil(n)
    root_d = np.sqrt(mu ** (1.0 - q) * kappa**q)
    period = 2 * (n + 1)
    table = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.arange(period) / (n + 1))
    nodes = np.arange(1, n + 1)
    values = []
    step = 1
    while step <= n:  # class of the modes k = step * odd
        k = np.arange(step, n + 1, 2 * step)
        b = (e_t @ table[np.outer(nodes, k) % period]) * root_d[k - 1]  # B_c^T, K x n_c
        values.append(scipy.linalg.eigvalsh(b.T @ b, check_finite=False))
        step *= 2
    spectrum = PencilSpectrum.from_eigenvalues(np.sort(np.concatenate(values)))
    return FrameBounds(lower=spectrum.min, upper=spectrum.max, spectrum=spectrum)

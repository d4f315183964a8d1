"""Nested dyadic hat spaces on (0,1) and the scaled multilevel frame.

Level j of a hierarchy holds the interior hats on the mesh of width
2^-(j+1), so dim V_j = 2^(j+1) - 1 and V_0 is the single hat at 1/2.
The nesting V_j subset V_{j+1} holds without discretization error: on
the fine grid of level J, a level-j hat is the hat of half-width
r = 2^(J-j) fine cells, with the exact dyadic values 1 - |m|/r at its
2r - 1 nodes (Oswald 1994), which is r-fold linear interpolation.

Each level stores one sparse form, its restriction E_j^T (CSR), built
from that closed form (``_hat``) and cached; the embedding E_j is read
as ``restriction(j).T``.  The multilevel frame's CSR is assembled from
the same closed form in one step, row by row: a fine node lies in at most two hats of any
level; so is the H^1 Gram E^T A E (``_h1_gram``) its CG solves run on.  The dense views (``embed_matrix``,
``FrameSpec.elements``) equal the dense product of interpolation
matrices bit for bit.  The grid mass matrices are ``Tridiagonal``
(spaces): L^2 projections and Jackson errors multiply by them in O(n),
restrict with E_j^T and solve the level mass systems banded.  The
multilevel norm of functionals g reads their restrictions E_j^T g and, as
the (H^q)' norm does, their sine-basis dual norms: no primal vector or
triple is formed.  A hierarchy keeps one triple per grid and exponent.
The Bernstein rates read the closed-form level spectra (``grid_spectrum``)
and build no level triple.  The multilevel frame's bounds (``bpx_bounds``) split,
in the sine basis, into one symmetric eigenproblem per 2-adic class of
mode indices, assembled from closed-form entries (Fejer kernels of the
level hats): no frame column, sine table or n x n grid matrix is formed.
``frames.frame_bounds`` stays the generic dense pencil and their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, DomainError
from .frames import FrameBounds, FrameSpec
from .numerics import PencilSpectrum, require_finite
from .spaces import (
    GAMMA,
    DiscreteGelfandTriple,
    DualVector,
    PrimalVector,
    build_triple,
    entries,
    grid_dual_norms_sq,
    grid_hq_eigenvalues,
    grid_spectrum,
)


@dataclass(frozen=True, eq=False)
class MultiscaleHierarchy:
    """Levels 0..j_max of nested hat spaces; each level stores only its restriction E_j^T."""

    j_max: int
    dims: tuple[int, ...]
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def levels(self) -> range:
        return range(self.j_max + 1)

    def level_h(self, j: int) -> float:
        return 2.0 ** -(j + 1)

    def fine_triple(self, q: float = 0.0) -> DiscreteGelfandTriple:
        """Triple on the finest grid, memoized per Sobolev exponent."""
        return self._triple(self.j_max + 1, q)

    def level_triple(self, j: int) -> DiscreteGelfandTriple:
        """L^2 triple on the grid of V_j (grid level j + 1); the finest level's is ``fine_triple()`` itself."""
        self._check_level(j)
        return self._triple(j + 1, 0.0)

    def _triple(self, j_fine: int, q: float) -> DiscreteGelfandTriple:
        key = ("triple", j_fine, float(q))
        if key not in self._cache:
            self._cache[key] = build_triple(j_fine, q)
        return self._cache[key]

    def restriction(self, j: int) -> sp.csr_array:
        """E_j^T as CSR, the one stored form of level j, cached: row k holds hat k's values ``_hat(m, r)``."""
        self._check_level(j)
        key = ("restrict", j)
        if key not in self._cache:
            dim, r = self.dims[j], 2 ** (self.j_max - j)
            m = np.arange(1 - r, r)
            cols = (r * np.arange(1, dim + 1)[:, None] - 1 + m).ravel()
            indptr = (2 * r - 1) * np.arange(dim + 1)
            self._cache[key] = sp.csr_array((np.tile(_hat(m, r), dim), cols, indptr), shape=(dim, self.dims[-1]))
        return self._cache[key]

    def embed_matrix(self, j: int) -> np.ndarray:
        """Dense view of the level embedding E_j = ``restriction(j).T`` (a fresh array per call)."""
        return self.restriction(j).T.toarray()

    def _check_level(self, j: int) -> None:
        if not 0 <= j <= self.j_max:
            raise DomainError(f"level {j} outside 0..{self.j_max}")


def _hat(m, r):
    """The level hats' closed form: at r = 2^(J-j), hat k of level j is 1 - |m|/r at fine node r k - 1 + m."""
    return 1.0 - np.abs(m) / r


def build_hierarchy(j_max: int) -> MultiscaleHierarchy:
    """Levels 0..j_max (dims 1, 3, ..., 2^(j_max+1) - 1); level restrictions are built on first use."""
    if not 1 <= int(j_max) == j_max <= 10:
        raise DomainError(f"j_max must be an integer in [1, 10], got {j_max}")
    return MultiscaleHierarchy(j_max=j_max, dims=tuple(2 ** (j + 1) - 1 for j in range(j_max + 1)))


def l2_project(hy: MultiscaleHierarchy, j: int, f: PrimalVector) -> PrimalVector:
    """L^2-orthogonal projection of a fine-grid function onto V_j.

    Solves the level-j mass system M_j c = E_j^T M_fine f.  Projecting a
    function already in V_j returns it (idempotence up to rounding).
    """
    fine = hy.fine_triple()
    rhs = hy.restriction(j) @ (fine.mass @ entries(f, PrimalVector, fine.n))
    return PrimalVector(hy.level_triple(j).mass_solve(rhs))


def prolong_to_fine(hy: MultiscaleHierarchy, j: int, v: PrimalVector) -> PrimalVector:
    """Exact fine-grid representation of a level-j function."""
    return PrimalVector(hy.restriction(j).T @ entries(v, PrimalVector, hy.dims[j]))


def sample_on_fine_grid(hy: MultiscaleHierarchy, f: Callable[[np.ndarray], np.ndarray]) -> PrimalVector:
    """Nodal interpolation of a function onto the fine grid."""
    return PrimalVector(np.asarray(f(hy.fine_triple().nodes), dtype=float))


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


# Lowest level of every rate fit: the coarsest levels are not yet in the asymptotic regime.
FIT_LO = 2


def _fit_report(levels, values, fit_hi: int) -> RateReport:
    levels = tuple(int(j) for j in levels)
    values = tuple(float(v) for v in values)
    window = [(j, v) for j, v in zip(levels, values) if FIT_LO <= j <= fit_hi]
    if len(window) < 2:
        raise DomainError(f"a rate needs two levels in its fit window [{FIT_LO}, {fit_hi}]")
    xs = np.array([j for j, _ in window], dtype=float)
    ys = np.log2([max(v, 1e-300) for _, v in window])
    slope, intercept = np.polyfit(xs, ys, 1)
    return RateReport(
        levels=levels,
        values=values,
        slope=float(slope),
        constant=float(2.0**intercept),
        fit_window=(FIT_LO, fit_hi),
    )


def jackson_rate(hy: MultiscaleHierarchy, f: Callable[[np.ndarray], np.ndarray]) -> RateReport:
    """Measured projection errors ||f - P_j f||_{L^2} per level.

    For f with two square-integrable derivatives the errors decay like
    2^(-2j), i.e. the fitted slope is -2 (the approximation order of the
    hats).  The fit window [FIT_LO, j_max - 2] keeps a buffer of two levels
    below the fine grid so the measured rate is not polluted by
    saturation; a hierarchy too shallow for two levels in it is a
    DomainError.
    """
    fine = hy.fine_triple()
    fv = sample_on_fine_grid(hy, f)
    mass = fine.mass
    values = []
    for j in hy.levels:
        err = fv.coeffs - prolong_to_fine(hy, j, l2_project(hy, j, fv)).coeffs
        values.append(float(np.sqrt(max(err @ (mass @ err), 0.0))))
    return _fit_report(hy.levels, values, hy.j_max - 2)


def bernstein_rate(hy: MultiscaleHierarchy, q: float) -> RateReport:
    """Largest Rayleigh quotient ||v||_{H^q}^2 / ||v||_{L^2}^2 over V_j, per level.

    Grows like 2^(2jq): factor 4 per level for q = 1, factor 2 for
    q = 1/2, and identically 1 for q = 0.  The value is the largest
    eigenvalue of level j's (H^q Gram, mass) pencil, read from its closed
    form (``grid_spectrum``); no level triple is built.  The slope is
    fitted over [FIT_LO, j_max].
    """
    if not 0.0 <= q < GAMMA:
        raise DomainError(f"q must lie in [0, {GAMMA}), got {q}")
    values = [grid_spectrum(hy.dims[j], q).max for j in hy.levels]
    return _fit_report(hy.levels, values, hy.j_max)


def norm_equivalence_ratios(hy: MultiscaleHierarchy, q: float, actions) -> np.ndarray:
    """Multilevel-to-dual-norm ratio of each column of an n x s block of functional actions.

    Numerator: sum_j 4^(-jq) ||(P_j - P_{j-1}) M^-1 g||_{L^2}^2 with
    P_{-1} = 0, computed from the restrictions r_j = E_j^T g alone.  With
    a_j = r_j^T M_j^-1 r_j = ||P_j M^-1 g||^2, the L^2-orthogonality of the
    increments turns the sum into sum_j (4^(-jq) - 4^(-(j+1)q)) a_j, the
    last weight being 4^(-Jq); every weight is positive, so nothing
    cancels.  Denominator: the squared (H^q)' norm of g.  Both are sine-basis
    dual norms (``grid_dual_norms_sq``): no triple is built, nothing is
    solved.  The ratio stays inside a fixed interval over all g; degree-2
    homogeneity makes it invariant under scaling g.  A non-finite entry is a
    ValueError and a zero column, whose ratio is 0/0, a DomainError.
    """
    if not 0.0 < q < GAMMA:
        raise DomainError(f"q must lie in (0, {GAMMA}), got {q}")
    g = np.asarray(actions, dtype=float)
    if g.ndim != 2 or g.shape[0] != hy.dims[hy.j_max]:
        raise DimensionMismatch(f"actions have shape {g.shape}, fine grid has {hy.dims[hy.j_max]} nodes")
    require_finite(g, "functional actions")
    if not g.any(axis=0).all():
        raise DomainError("a zero functional has no norm ratio (0/0)")
    numerator = 0.0
    for j in hy.levels:
        weight = 4.0 ** (-j * q) - (4.0 ** (-(j + 1) * q) if j < hy.j_max else 0.0)
        numerator += weight * grid_dual_norms_sq(hy.restriction(j) @ g, 0.0)
    return numerator / grid_dual_norms_sq(g, q)


def norm_equivalence_ratio(hy: MultiscaleHierarchy, q: float, g: DualVector) -> float:
    """``norm_equivalence_ratios`` of the single functional g."""
    return float(norm_equivalence_ratios(hy, q, entries(g, DualVector, hy.dims[hy.j_max])[:, None])[0])


def bpx_frame(hy: MultiscaleHierarchy, q: float) -> FrameSpec:
    """The scaled multilevel collection {2^(-jq) phi_{j,k} : j = 0..j_max}.

    Columns are the L^2-normalized level hats embedded into the fine grid
    and damped by 2^(-jq).  For 0 < q < 3/2 the bound ratio of the
    resulting frame stays bounded as j_max grows; at q = 0 it does not
    (the collection is kept available as a negative control).

    The CSR columns are assembled row by row from ``_hat``.  They span by
    construction: the finest block is a positive multiple of the identity
    for every q, so the verdict is recorded instead of measured, and so is
    the H^1 Gram ``_h1_gram`` with its stiffness.  An exponent outside
    [0, 3/2) fails in ``fine_triple``.
    """
    n, dims = hy.dims[-1], np.array(hy.dims)
    data = np.empty((n + 1, hy.j_max + 1, 2))  # [node p = 0..n (0 pads), level j, hat k or k + 1 of p = r k + m]
    cols = np.empty(data.shape, dtype=np.int32)
    for j, base in zip(hy.levels, np.cumsum(dims) - dims - 1):  # hat k of level j is column base + k
        r = 2 ** (hy.j_max - j)  # 0 <= m < r: splitting the node axis into (k, m) is a reshape
        tent = _hat(np.arange(r)[:, None] - [0, r], r)  # node p lies m and m - r from hats k and k + 1
        data[:, j].reshape(-1, r, 2)[:] = 2.0 ** (-j * q) * ((2.0 * hy.level_h(j) / 3.0) ** -0.5 * tent)
        cols[:, j].reshape(-1, r, 2)[:] = np.arange(base, base + dims[j] + 1)[:, None, None] + [0, 1]
        data[:r, j, 0] = data[-r:, j, 1] = 0.0  # hats 0 and dim_j + 1 do not exist
    keep = data[1:] != 0.0
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(keep.reshape(n, -1), axis=1))))
    frame = FrameSpec(hy.fine_triple(q), sp.csr_array((data[1:][keep], cols[1:][keep], indptr), shape=(n, dims.sum())))
    frame._cache["spans"] = True
    frame._cache["gram"] = (frame.triple.stiffness, _h1_gram(hy, q))
    return frame


def _h1_gram(hy: MultiscaleHierarchy, q: float) -> sp.csr_array:
    """E^T A E for the columns E of ``bpx_frame(hy, q)`` and the fine stiffness A, as CSR from its closed form.

    A takes the level-l hat of half-width r = 2^(J-l) centred at fine node c to (-1, 2, -1)/(r h) at its kinks
    c - r, c, c + r, where a hat of the same or a finer level is 1 if centred there, else 0.  So hats of levels
    i, l couple only when the finer is centred on a kink of the coarser, with the entry s_i s_l (-1, 2, -1)/(r h)
    (r the coarser half-width; nothing cancels).  Node c centres the hats of levels J - nu_2(c)..J.
    """
    j, n, dims = hy.j_max, hy.dims[-1], np.array(hy.dims)
    levels = np.arange(j + 1)
    base = np.cumsum(dims) - dims - 1  # hat k of level l is column base[l] + k
    lev = np.repeat(levels, dims)
    c = (np.arange(dims.sum()) - base[lev]) << (j - lev)  # each column's centre node
    count = np.frexp(c & -c)[1]  # levels J - nu_2(c)..J: nu_2(c) + 1 of them
    row = np.repeat(np.arange(c.size), count)  # one (row, level l) pair per coupled level
    l = np.arange(row.size) - np.repeat(np.cumsum(count) - j - 1, count)
    r = 1 << (j - np.minimum(lev[row], l))  # the coarser half-width
    nodes = np.empty((row.size, 3), np.int32)  # centres of the level-l hats that couple, if interior
    nodes[:, 0], nodes[:, 1], nodes[:, 2] = c[row] - r, c[row], c[row] + r
    keep = (nodes > 0) & (nodes <= n)
    nodes >>= (j - l)[:, None]
    nodes += base[l][:, None]  # their columns
    s = 2.0 ** (-levels * q) * (2.0 * hy.level_h(levels) / 3.0) ** -0.5  # the level scalings
    v = s[lev[row]] * s[l] * ((n + 1) / r)
    vals = np.empty(nodes.shape)
    vals[:, 0], vals[:, 1], vals[:, 2] = -v, 2.0 * v, -v
    counts = 3 * count - np.bincount(row[np.flatnonzero(~keep) // 3], minlength=c.size)
    indptr = np.cumsum(np.concatenate(([0], counts)), dtype=np.int32)  # int32 like the nodes: no index copy
    return sp.csr_array((vals[keep], nodes[keep], indptr), shape=(c.size, c.size))


def bpx_bounds(hy: MultiscaleHierarchy, q: float) -> FrameBounds:
    """``frame_bounds(bpx_frame(hy, q))``, full spectrum included, from closed-form class blocks.

    With H^q = Q diag(d) Q^T on the sine basis Q (d = mu^(1-q) kappa^q),
    the pencil (H^q E E^T H^q, H^q) has the eigenvalues of T = B B^T,
    B = diag(sqrt d) Q^T E.  With n = 2^(J+1) - 1, theta_k = k pi/(n+1),
    P_j = 2^(j+1), r_j = 2^(J-j) and the Fejer kernel F_j(k) =
    sin^2(r_j theta_k/2) / (r_j sin^2(theta_k/2)) of the level-j hats,

        T[k,k'] = sqrt(d_k d_k') sum_j 4^(-jq) (3/2) P_j^2/(n+1)
                  F_j(k) F_j(k') ([k = k'] - [k = -k'] mod 2 P_j).

    Both congruences keep the 2-adic class k & -k, so T splits into one
    symmetric eigenproblem per class (k = 2^v * odd, sizes n/2, ..., 1).
    The split needs complete, uniformly scaled dyadic levels, so it serves
    this frame only; ``frame_bounds`` stays the generic dense oracle.
    """
    if not 0.0 <= q < GAMMA:
        raise DomainError(f"q must lie in [0, {GAMMA}), got {q}")
    values = [np.linalg.eigvalsh(b) for _, b in _bpx_class_blocks(hy.j_max, q)]
    spectrum = PencilSpectrum.from_eigenvalues(np.sort(np.concatenate(values)))
    return FrameBounds(lower=spectrum.min, upper=spectrum.max, spectrum=spectrum)


def _bpx_class_blocks(j_max: int, q: float):
    """Yield (modes k, T_c) for each 2-adic class k = 2^v (2i + 1) of ``bpx_bounds``' T.

    In class v, level j < v cancels itself and the finest (E_J = I) is diagonal;
    the others' congruences read i = i' and i + i' + 1 = 0 modulo w = 2^(j+1-v),
    so level j adds the outer products of its residue slices a = i mod w to the
    pairs (a, a) and (a, w-1-a).
    """
    n = 2 ** (j_max + 1) - 1
    d = grid_hq_eigenvalues(n, q)
    for v in range(j_max + 1):
        k = np.arange(2**v, n + 1, 2 ** (v + 1))
        block = np.diag(1.5 * (n + 1) * 4.0 ** (-j_max * q) * d[k - 1])
        for j in range(v, j_max):
            p, w, m = 2 ** (j + 1), 2 ** (j + 1 - v), 2 ** (j_max - j - 1)  # m = r_j / 2 = n_c / w
            fejer = np.sin(0.5 * np.pi * k / p) ** 2 / (2 * m * np.sin(0.5 * np.pi * k / (n + 1)) ** 2)
            g = (np.sqrt(1.5 * p * p / (n + 1) * 4.0 ** (-j * q) * d[k - 1]) * fejer).reshape(m, w).T
            pairs = block.reshape(m, w, m, w).transpose(1, 3, 0, 2)  # pairs[a, a', t, t'], a view
            a = np.arange(w)  # g[a, t] and pairs index i = t w + a
            pairs[a, a] += g[:, :, None] * g[:, None, :]
            pairs[a, a[::-1]] -= g[:, :, None] * g[::-1, None, :]
        yield k, block

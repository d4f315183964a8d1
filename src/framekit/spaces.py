"""Uniform-grid realization of the chain H^q subset L^2 subset (H^q)' on (0,1).

The fine grid carries the interior hat basis b_1..b_N with homogeneous
Dirichlet ends.  Primal elements are stored by coefficients in that basis,
dual elements by their action <f, b_i> on it.  The two representations are
deliberately never interconverted: converting requires the H^q Riesz
map, which the library does not provide (the tests keep it as an oracle).

Grid triples are diagonalized in closed form: the hat mass and stiffness
matrices are tridiagonal Toeplitz, so the discrete sine transform is the
common eigenbasis of the (stiffness, mass) pencil.  They are kept as
``Tridiagonal`` objects (O(n) products and banded solves, a dense view
only on request), and for q = 0 or 1 the H^q Gram matrix is one of them,
so such a triple holds no n x n array.  For fractional q the Gram matrix
is dense, filled from one DCT-I of its eigenvalues.  The pencil spectrum,
the stiffness condition number and the (H^q)' norms of functionals (one
DST-I) are formulas in n and q: none builds a triple or runs a solve.
``spectral_inner_matrix`` is the generic dense path for any pencil and
the oracle the closed forms are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, DomainError, IncompatiblePairing
from .numerics import (
    PencilSpectrum,
    SymMatrix,
    Tridiagonal,
    as_dense,
    check_dense_fits,
    generalized_eig_pairs,
    require_finite,
    spd_solver,
)

# Piecewise-linear hats belong to H^t only for t < 3/2.
GAMMA = 1.5


def _frozen_vector(values) -> np.ndarray:
    v = np.array(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-d array of values")
    require_finite(v, "vector entries")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class PrimalVector:
    """Element of H, stored by coefficients in the reference hat basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_vector(self.coeffs))

    def __len__(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True, eq=False)
class DualVector:
    """Element of H', stored by its action on the reference hat basis.

    action_i = <f, b_i>, the duality pairing extended from the L^2 inner
    product.  This is the only representation of a functional computable
    without a Riesz map.
    """

    action: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "action", _frozen_vector(self.action))

    def __len__(self) -> int:
        return self.action.shape[0]


@dataclass(frozen=True, eq=False)
class DiscreteGelfandTriple:
    """Fine-grid model of H^q subset L^2 subset (H^q)'.

    ``mass`` is the L^2 Gram matrix of the hats, ``stiffness`` the H^1
    seminorm matrix, ``inner`` the Gram matrix of the H^q inner product
    actually used for primal/dual norms.  Each applies with ``@`` and
    has a dense view ``.a``.  Synthetic triples (used by hand-checkable
    fixtures) carry explicit matrices and leave the grid metadata unset.
    """

    n: int
    mass: Union[SymMatrix, Tridiagonal]
    inner: Union[SymMatrix, Tridiagonal]
    stiffness: Optional[Tridiagonal] = None
    j_fine: Optional[int] = None
    h: Optional[float] = None
    q: Optional[float] = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates (grid triples only)."""
        if self.h is None:
            raise DomainError("synthetic triple has no grid")
        return self.h * np.arange(1, self.n + 1)

    def inner_solve(self, rhs: np.ndarray) -> np.ndarray:
        if "inner" not in self._cache:
            self._cache["inner"] = spd_solver(self.inner)
        return self._cache["inner"](rhs)

    def mass_solve(self, rhs: np.ndarray) -> np.ndarray:
        if "mass" not in self._cache:
            self._cache["mass"] = spd_solver(self.mass)
        return self._cache["mass"](rhs)


def spectral_inner_matrix(stiffness, mass, q: float) -> SymMatrix:
    """H^q Gram matrix built from the (stiffness, mass) pencil.

    With W the mass-orthonormal eigenvectors and lambda the pencil
    eigenvalues, the matrix is M W diag(lambda^q) W^T M.  For q = 0 this
    reproduces the mass matrix, for q = 1 the stiffness matrix, and the
    interpolation inequality between the three norms is exact per
    eigenvector.
    """
    lam, w = generalized_eig_pairs(stiffness, mass)
    lam = np.maximum(lam, 0.0)
    mw = as_dense(mass) @ w
    return SymMatrix((mw * lam**q) @ mw.T)


def sine_congruence(d) -> np.ndarray:
    """Q diag(d) Q^T for the sine basis Q_ik = sqrt(2/(n+1)) sin(i k pi/(n+1)).

    Q is the common eigenbasis of every symmetric tridiagonal Toeplitz
    matrix of size n.  The product is Toeplitz minus Hankel: entry (i, j),
    1-based, is c[|i - j|] - c[i + j] with
    c[m] = 1/(n+1) sum_k d_k cos(m k pi/(n+1)), one DCT-I of d, taken as
    the real FFT of its even extension.  Both parts are read-only sliding
    windows over c, so the O(n^2) fill allocates only the result.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    ext = np.zeros(2 * (n + 1))
    ext[1 : n + 1] = d
    ext[n + 2 :] = d[::-1]
    head = np.fft.rfft(ext).real / (2 * (n + 1))  # c[0..n+1]
    c = np.concatenate((head, head[-2:0:-1]))  # c[m] = c[2(n+1) - m]
    toeplitz = sliding_window_view(np.concatenate((c[n - 1 : 0 : -1], c[:n])), n)[::-1]  # c[|i - j|]
    return toeplitz - sliding_window_view(c[2 : 2 * n + 1], n)  # minus c[i + j], 1-based


def _grid_pencil(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the grid stiffness and mass matrices, both on the sine basis.

    With h = 1/(n+1) and theta_k = k pi h: kappa_k = (4/h) sin^2(theta_k/2)
    and mu_k = (h/3)(2 + cos theta_k), so kappa_k / mu_k ascends in k.
    """
    h = 1.0 / (n + 1)
    theta = np.pi * h * np.arange(1, n + 1)
    return (4.0 / h) * np.sin(0.5 * theta) ** 2, (h / 3.0) * (2.0 + np.cos(theta))


def grid_hq_eigenvalues(n: int, q: float) -> np.ndarray:
    """Eigenvalues d = mu^(1-q) kappa^q of the H^q Gram matrix Q diag(d) Q^T on n interior nodes."""
    kappa, mu = _grid_pencil(n)
    return mu ** (1.0 - q) * kappa**q


def grid_dual_norms_sq(actions, q: float) -> np.ndarray:
    """Squared (H^q)' norms a^T inner^-1 a of the columns of an n x s block, on n interior nodes.

    sum_k (Q^T a)_k^2 / d_k with d = mu^(1-q) kappa^q: the real FFT of the odd extension of a
    has imaginary part -sqrt(2(n+1)) Q^T a (one DST-I along axis 0).  No triple is built.
    """
    a = np.asarray(actions, dtype=float)
    n = a.shape[0]
    ext = np.zeros((2 * (n + 1),) + a.shape[1:])
    ext[1 : n + 1], ext[n + 2 :] = a, -a[::-1]
    d = (2 * (n + 1)) * grid_hq_eigenvalues(n, q)
    return np.einsum("k...,k->...", np.fft.rfft(ext, axis=0).imag[1 : n + 1] ** 2, 1.0 / d)


def grid_spectrum(n: int, q: float) -> PencilSpectrum:
    """Spectrum (kappa/mu)^q of the (H^q Gram, mass) pencil on n interior nodes, in closed form.

    Its eigenvalues are ||v||_{H^q}^2 / ||v||_{L^2}^2 at the sine modes,
    ascending; no triple is built and no pencil is solved.
    """
    kappa, mu = _grid_pencil(n)
    return PencilSpectrum.from_eigenvalues((kappa / mu) ** q)


def stiffness_condition_number(n: int) -> float:
    """kappa_n / kappa_1 = cot^2(pi / (2(n+1))) of the stiffness matrix on n interior nodes."""
    return float(np.tan(0.5 * np.pi / (n + 1)) ** -2)


# A fractional-q triple holds its H^q Gram matrix as a dense n x n float64
# array; building it peaks at about 2 such arrays (the fill allocates one,
# and ``SymMatrix`` stores a copy of it; measured with tracemalloc).  The
# guard counts 5 to leave room for the dense consumers of the Gram matrix
# (the generic ``frames.frame_bounds`` forms inner * E E^T * inner and
# solves its pencil; dual frames and Gramians multiply by it); with 2,
# a j_fine = 14 triple would start a 4.3 GB fill on an 8 GB machine.
# The multilevel frame's bounds (``multiscale.bpx_bounds``) need no triple.
DENSE_ARRAYS = 5


def build_triple(j_fine: int, q: float) -> DiscreteGelfandTriple:
    """Assemble the triple on the dyadic grid of level ``j_fine``.

    N = 2^j_fine - 1 interior nodes, mesh width h = 2^-j_fine.  The hat
    matrices have the exact closed-form tridiagonal entries
    mass = h * (1/6, 2/3, 1/6) and stiffness = (-1, 2, -1)/h.  The H^q
    Gram matrix is the mass matrix for q = 0, the stiffness matrix for
    q = 1, and otherwise Q diag(d) Q^T with d = ``grid_hq_eigenvalues(n, q)``
    on the shared sine eigenbasis (``sine_congruence``), which is what
    ``spectral_inner_matrix`` computes densely.  Mass and stiffness are
    ``Tridiagonal`` objects; only a fractional-q Gram matrix is dense.  The
    (inner, mass) pencil spectrum is ``grid_spectrum(n, q)``.
    Raises DomainError when a fractional-q triple's dense matrices would
    not fit in physical memory.
    """
    if isinstance(j_fine, bool) or not isinstance(j_fine, (int, np.integer)) or not 1 <= j_fine <= 14:
        raise DomainError(f"j_fine must be an integer in [1, 14], got {j_fine}")
    if not 0.0 <= q < GAMMA:
        raise DomainError(f"q must lie in [0, 3/2) for piecewise-linear hats, got {q}")
    n = 2**j_fine - 1
    h = 2.0**-j_fine
    mass = Tridiagonal(n, 2.0 * h / 3.0, h / 6.0)
    stiffness = Tridiagonal(n, 2.0 / h, -1.0 / h)
    if q == 0.0:
        inner = mass
    elif q == 1.0:
        inner = stiffness
    else:
        check_dense_fits(n, DENSE_ARRAYS)
        inner = SymMatrix(sine_congruence(grid_hq_eigenvalues(n, q)))
    return DiscreteGelfandTriple(
        n=n, mass=mass, inner=inner, stiffness=stiffness, j_fine=j_fine, h=h, q=float(q)
    )


def synthetic_triple(inner) -> DiscreteGelfandTriple:
    """Triple from an explicit inner-product Gram matrix, with identity mass (no grid attached).

    Used by the hand-checkable fixtures: the pairing is the plain
    Euclidean one.
    """
    inner_m = inner if isinstance(inner, SymMatrix) else SymMatrix(inner)
    return DiscreteGelfandTriple(n=inner_m.n, mass=SymMatrix(np.eye(inner_m.n)), inner=inner_m)


def entries(vec, kind: type, n: int) -> np.ndarray:
    """The stored values of a ``kind`` vector of size n: a PrimalVector's coeffs, a DualVector's action.

    The one owner of the primal/dual divide: every entry point that takes
    a vector reads it here.  Anything but a ``kind`` (a vector from the
    other side above all) raises IncompatiblePairing, a wrong size
    DimensionMismatch.
    """
    if not isinstance(vec, kind):
        raise IncompatiblePairing(f"expected a {kind.__name__}, got {type(vec).__name__}")
    values = vec.coeffs if kind is PrimalVector else vec.action
    if values.shape[0] != n:
        raise DimensionMismatch(f"{kind.__name__} has size {values.shape[0]}, expected {n}")
    return values


def primal_norm(t: DiscreteGelfandTriple, f: PrimalVector) -> float:
    """H-norm of a primal element: sqrt(c^T inner c)."""
    c = entries(f, PrimalVector, t.n)
    return float(np.sqrt(max(c @ (t.inner @ c), 0.0)))


def dual_norm(t: DiscreteGelfandTriple, g: DualVector) -> float:
    """H'-norm of a functional: sqrt(a^T inner^-1 a).

    This is the discrete version of the sup characterization
    sup_v <g, v> / ||v||_H, attained at v = inner^-1 a.
    """
    a = entries(g, DualVector, t.n)
    return float(np.sqrt(max(a @ t.inner_solve(a), 0.0)))


def pairing(g: DualVector, f: PrimalVector) -> float:
    """Duality pairing <g, f>; plain dot of action against coefficients."""
    a = entries(g, DualVector, len(f))
    return float(a @ entries(f, PrimalVector, len(a)))

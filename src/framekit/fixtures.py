"""Hand-checkable frame instances shared by tests, docs, and the CLI.

Each fixture is small enough that every number around it (bounds, duals,
Gramians, minimal-norm coefficients) can be verified by hand.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .frames import FrameSpec
from .spaces import build_triple, synthetic_triple


def fixture_f1() -> FrameSpec:
    """{e1, e1, e2} on the Euclidean plane: redundant, bounds (1, 2).

    The duplicated first element makes the frame operator diag(2, 1);
    minimal-norm coefficients split e1 evenly as (1/2, 1/2, 0).
    """
    triple = synthetic_triple(np.eye(2))
    elements = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return FrameSpec(triple, elements)


def fixture_f2() -> FrameSpec:
    """{e1, e1, e2, e2}: a tight frame with both bounds equal to 2."""
    triple = synthetic_triple(np.eye(2))
    elements = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    return FrameSpec(triple, elements)


def fixture_f3() -> FrameSpec:
    """{2e1, 2e1, e2/2, e2/2}: reweighting the tight pair destroys tightness.

    With the duplicates, the action sums pick up the squared weights twice:
    the frame operator is diag(8, 1/2), so the computed bounds are
    (1/2, 8) with ratio 16 -- not the single-copy values (1/4, 4) and not
    the weight range (1, 4).  Reported as computed.
    """
    triple = synthetic_triple(np.eye(2))
    elements = np.array([[2.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
    return FrameSpec(triple, elements)


def fixture_f4() -> FrameSpec:
    """{e1, e2} under the weighted inner product diag(2, 1).

    A Riesz basis whose frame bounds (1, 2) come entirely from the
    geometry of the space; the dual bounds are (1/2, 1).
    """
    triple = synthetic_triple(np.diag([2.0, 1.0]))
    elements = np.eye(2)
    return FrameSpec(triple, elements)


FIXTURES = {
    "F1": fixture_f1,
    "F2": fixture_f2,
    "F3": fixture_f3,
    "F4": fixture_f4,
}

FIXTURE_NOTES = {
    "F1": "duplicated e1: frame operator diag(2, 1)",
    "F2": "tight frame, both bounds 2",
    "F3": "reweighted duplicated pairs: computed bounds (1/2, 8), tightness lost",
    "F4": "Riesz basis under the diag(2, 1) inner product",
}


def by_name(name: str) -> FrameSpec:
    """The fixture of that name (any case); an unknown name is a DomainError."""
    if name.upper() not in FIXTURES:
        raise DomainError(f"unknown fixture {name!r}; available: {sorted(FIXTURES)}")
    return FIXTURES[name.upper()]()


def random_spanning_frame(rng: np.random.Generator, j_fine: int, q: float, k: int) -> FrameSpec:
    """Random Gaussian frame on a grid triple, redrawn until it spans."""
    triple = build_triple(j_fine, q)
    if k < triple.n:
        raise ValueError(f"need at least {triple.n} columns to span, got {k}")
    for _ in range(50):
        spec = FrameSpec(triple, rng.standard_normal((triple.n, k)))
        if spec.spans:
            return spec
    raise RuntimeError("could not draw a spanning frame (vanishing probability)")

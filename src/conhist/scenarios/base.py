"""Scenario plumbing: packaged models with named states, projectors,
families, spacetime events, and a registry of expected results.

Each built-in scenario exposes everything the engine needs to reproduce its
model's analytic numbers as executable checks: the dynamics, the named
kets/projectors, the families, tagged spacetime events for the geometric
checks, and an ``expected`` list whose entries re-derive each number through
the public API and compare against the registered value.  The queries that
more than one entry asks are built here from family names and labels.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from ..dynamics import PropagatorSet
from ..framework import CLASS_KINEMATIC, common_refinement
from ..hilbert import DecompositionOfIdentity, Ket, Operator, Projector
from ..histories import (
    Family,
    conditional_probability,
    consistency_check,
    event_probability,
    histories_with_slots,
    probabilities,
    support,
)
from ..relativistic import TaggedEvent

PROVENANCE_PAPER = "paper"
PROVENANCE_DERIVED = "derived"
PROVENANCE_TRIVIAL = "trivial"


@dataclass(frozen=True)
class ExpectationResult:
    description: str
    provenance: str
    expected: float
    measured: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class Expectation:
    """One registered result: a query against the scenario plus its value.

    ``kind`` is "equals" (|measured - expected| <= tolerance) or "greater"
    (measured > expected, used for noncommutation/violation thresholds).
    """

    description: str
    provenance: str
    query: Callable[["Scenario"], float]
    expected: float
    tolerance: float = 1e-9
    kind: str = "equals"

    def run(self, scn: "Scenario") -> ExpectationResult:
        measured = float(self.query(scn))
        if self.kind == "equals":
            passed = abs(measured - self.expected) <= self.tolerance
        elif self.kind == "greater":
            passed = measured > self.expected
        else:
            raise ValueError(f"unknown expectation kind {self.kind!r}")
        return ExpectationResult(
            self.description, self.provenance, self.expected, measured,
            self.tolerance, passed,
        )


@dataclass(frozen=True, eq=False)
class Scenario:
    """A packaged model: dynamics, named objects, families, events, and the
    registry of expected results."""

    name: str
    propagators: PropagatorSet
    kets: Mapping[str, Ket]
    projectors: Mapping[str, Projector]
    families: Mapping[str, Family]
    events: Mapping[str, TaggedEvent]
    expected: tuple[Expectation, ...]
    description: str = ""

    def __post_init__(self):
        # read-only views of copies: a built scenario is shared by every caller
        for name in ("kets", "projectors", "families", "events"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @property
    def dim(self) -> int:
        return self.propagators.dim

    def family(self, name: str) -> Family:
        try:
            return self.families[name]
        except KeyError:
            raise KeyError(
                f"scenario {self.name!r} has no family {name!r}; "
                f"available: {sorted(self.families)}"
            ) from None

    def run_expected(self) -> list[ExpectationResult]:
        return [e.run(self) for e in self.expected]


def kron(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of factors of one rank, leftmost factor most significant.

    Each step multiplies the same views that ``np.kron`` multiplies (for matrices
    ``a[:, None, :, None]`` and ``b[None, :, None, :]``, same shapes and strides),
    so numpy runs the same inner loop over the same products ``a_ij * b_kl``: the
    result equals ``functools.reduce(np.kron, mats)`` bit for bit.
    """
    return functools.reduce(_kron2, mats)


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    prod = a[(slice(None), None) * a.ndim] * b[(None, slice(None)) * b.ndim]
    return prod.reshape([m * p for m, p in zip(a.shape, b.shape)])


def proj(vec: np.ndarray) -> np.ndarray:
    """Outer product ``|vec><vec|``: a projector matrix for a unit vector."""
    return np.outer(vec, vec.conj())


def with_rest(*members: tuple[str, Projector]) -> DecompositionOfIdentity:
    """The members, plus a ``"rest"`` member when they do not sum to I."""
    rest = np.eye(members[0][1].dim, dtype=np.complex128) - sum(p.mat for _, p in members)
    if np.linalg.norm(rest) > 1e-12:
        members += (("rest", Projector(Operator(rest))),)
    return DecompositionOfIdentity(members)


def dec(projectors: Mapping[str, Projector], *labels: str) -> DecompositionOfIdentity:
    """The named projectors, plus a ``"rest"`` member when they do not sum to I."""
    return with_rest(*((lab, projectors[lab]) for lab in labels))


# -- the queries that expectations share: each takes family names and labels --

Query = Callable[[Scenario], float]


def prob(fam: str, *alpha: str) -> Query:
    """Probability of the history ``alpha``."""
    return lambda s: probabilities(s.family(fam)).probability(alpha)


def cond(fam: str, target: Mapping[str, str], given: Mapping[str, str]) -> Query:
    """``Pr(target | given)``, each a ``{time label: member label}`` map."""
    return lambda s: conditional_probability(s.family(fam), target, given)


def joint(fam: str, *labels: str) -> Query:
    """Probability of the histories that carry every one of ``labels``."""
    return lambda s: event_probability(
        s.family(fam), histories_with_slots(s.family(fam), labels)
    )


def support_size(fam: str) -> Query:
    """Number of histories of probability above ``EPS_SUPPORT``."""
    return lambda s: float(len(support(s.family(fam))))


def consistent(fam: str) -> Query:
    """1.0 for a consistent family, 0.0 otherwise."""
    return lambda s: float(consistency_check(s.family(fam)).consistent)


def max_overlap(fam: str) -> Query:
    """The family's largest normalized off-diagonal overlap."""
    return lambda s: consistency_check(s.family(fam)).max_normalized_overlap


def kinematic(f: str, g: str) -> Query:
    """1.0 when the two families are kinematically incompatible, 0.0 otherwise."""
    return lambda s: float(
        common_refinement(s.family(f), s.family(g)).classification == CLASS_KINEMATIC
    )

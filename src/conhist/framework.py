"""Refinement, extension, and compatibility classification of families.

Two consistent families are compatible when they possess a common refinement
that is itself consistent.  Failure comes in two flavors: kinematic (some
pair of projectors at a shared time fails to commute, so no common refinement
exists as a family at all) and dynamic (the slotwise product family exists
but violates the consistency conditions).

The "coarsest" candidate refinement used here is the slotwise product
decomposition.  When all slotwise pairs commute the product decomposition
exists and any common refinement refines it, and refining an inconsistent
family can never restore consistency, so a failed product family certifies
dynamic incompatibility.  Families built over different dynamics are rejected
rather than compared: all descriptions must concern one closed system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .hilbert import DecompositionOfIdentity, Operator, Projector, TOL_PROJ, _product, _products
from .histories import (
    ConsistencyReport,
    Family,
    MixedInitial,
    PureInitial,
    consistency_check,
)

# Threshold on ||[P, Q]||_F for the slotwise commutation (kinematic) test.
COMMUTE_TOL = 1e-9

CLASS_IDENTICAL = "identical"
CLASS_REFINEMENT = "refinement"
CLASS_COMMON = "common-refinement-found"
CLASS_KINEMATIC = "kinematic-incompatible"
CLASS_DYNAMIC = "dynamic-incompatible"

_COMPATIBLE_CLASSES = frozenset({CLASS_IDENTICAL, CLASS_REFINEMENT, CLASS_COMMON})


class FamilyMismatchError(ValueError):
    """Families do not share dynamics (or initial condition) and cannot be
    compared."""


@dataclass(frozen=True)
class KinematicWitness:
    """A noncommuting projector pair at a shared time."""

    time_label: str
    label_a: str
    label_b: str
    commutator_norm: float

    def to_dict(self) -> dict:
        return {
            "time": self.time_label,
            "projector_a": self.label_a,
            "projector_b": self.label_b,
            "commutator_norm": self.commutator_norm,
        }


@dataclass(frozen=True, eq=False)
class CompatibilityVerdict:
    """Outcome of a compatibility query between two families.

    A dynamic-incompatible verdict records that the slotwise product
    refinement is inconsistent; the witness report lets callers distinguish
    this certificate from the (unimplemented) exhaustive search over all
    refinements, which the product result subsumes: any common refinement
    refines the product, and refinements of inconsistent families stay
    inconsistent.
    """

    compatible: bool
    classification: str
    witness: KinematicWitness | ConsistencyReport | None = None
    refinement: Family | None = None

    def __post_init__(self):
        assert self.compatible == (self.classification in _COMPATIBLE_CLASSES)

    def to_dict(self) -> dict:
        out: dict = {
            "compatible": self.compatible,
            "classification": self.classification,
        }
        if isinstance(self.witness, KinematicWitness):
            out["witness"] = self.witness.to_dict()
        elif isinstance(self.witness, ConsistencyReport):
            out["witness"] = self.witness.to_dict()
        return out


def _check_comparable(f: Family, g: Family) -> None:
    if not f.propagators.same_dynamics(g.propagators):
        raise FamilyMismatchError("families are built over different dynamics")
    fi, gi = f.initial, g.initial
    if (fi is None) != (gi is None) or type(fi) is not type(gi):
        raise FamilyMismatchError("families must share the same initial condition")
    if isinstance(fi, PureInitial):
        same_time = (
            f.time_indices[f.initial_slot] == g.time_indices[g.initial_slot]
        )
        same_ket = abs(abs(complex(fi.ket.dagger_apply(gi.ket))) - 1.0) < 1e-9
        if not (same_time and same_ket):
            raise FamilyMismatchError("families must share the same initial state")
    elif isinstance(fi, MixedInitial):
        if not fi.rho.op.allclose(gi.rho.op):
            raise FamilyMismatchError("families must share the same initial density operator")


def extend(f: Family, extra_times: list[float]) -> Family:
    """Automatic extension: add times carrying the trivial {I} decomposition.

    The added times must exist on the family's master grid (the dynamics at a
    time the propagator set does not know cannot be invented) and must not
    already belong to the family.  Weights and the consistency verdict are
    unchanged.
    """
    grid = f.propagators.grid
    new_indices = []
    for t in extra_times:
        idx = grid.index_of_value(t)
        if idx in f.time_indices or idx in new_indices:
            raise ValueError(f"time {t} already present in the family")
        new_indices.append(idx)
    if isinstance(f.initial, PureInitial):
        anchor_master = f.time_indices[f.initial_slot]
        if any(idx < anchor_master for idx in new_indices):
            raise ValueError(
                "cannot extend a family with a fixed initial state to times "
                "before that state"
            )
    merged, columns = _aligned((f,), new_indices)
    slot = 0
    if f.initial is not None:
        anchor_master = f.time_indices[f.initial_slot]
        slot = merged.index(anchor_master)
    return Family(
        f.propagators, tuple(merged), tuple(dec for (dec,) in columns), f.initial, slot, f.name
    )


def _aligned(
    fams: Sequence[Family], extra: Iterable[int] = ()
) -> tuple[list[int], list[tuple[DecompositionOfIdentity, ...]]]:
    """The union of the families' grid indices (and ``extra``), and at each
    index every family's decomposition: its own where it has that time, else
    the trivial {I}, which is built once and only when some family lacks a time.
    """
    union = sorted(set(extra).union(*(f.time_indices for f in fams)))
    if all(len(f.time_indices) == len(union) for f in fams):
        return union, list(zip(*(f.decompositions for f in fams)))
    trivial = DecompositionOfIdentity.trivial(fams[0].dim)
    by_index = [dict(zip(f.time_indices, f.decompositions)) for f in fams]
    return union, [tuple(d.get(idx, trivial) for d in by_index) for idx in union]


def _member_is_sum(coarse: Projector, fine: DecompositionOfIdentity) -> bool:
    """Does some subset of ``fine`` members sum to ``coarse``?

    Uses that fine members are orthogonal: each either lies under the coarse
    member (QP = Q) or is orthogonal to it (QP = 0); anything else rules the
    sum out.
    """
    total = None
    for _, q in fine.members:
        qp = _product(q.mat, coarse.mat)
        if np.linalg.norm(qp - q.mat) < TOL_PROJ:
            total = q.mat if total is None else total + q.mat
        elif np.linalg.norm(qp) < TOL_PROJ:
            continue
        else:
            return False
    if total is None:
        return coarse.rank == 0
    return bool(np.linalg.norm(total - coarse.mat) < TOL_PROJ)


def is_refinement(coarse: Family, fine: Family) -> bool:
    """True iff, after automatic extension to the union of their times, every
    coarse decomposition member equals a sum of fine members.

    Every family is a refinement of itself.
    """
    _check_comparable(coarse, fine)
    return _refines(_aligned((coarse, fine))[1])


def _refines(columns: Iterable[tuple[DecompositionOfIdentity, ...]]) -> bool:
    """Every member of each column's first decomposition is a sum of members
    of its second."""
    return all(
        _member_is_sum(p, fine) for coarse, fine in columns for _, p in coarse.members
    )


def _same_decomposition(a: DecompositionOfIdentity, b: DecompositionOfIdentity) -> bool:
    if len(a) != len(b):
        return False
    used = set()
    for _, p in a.members:
        hit = None
        for j, (_, q) in enumerate(b.members):
            if j not in used and p.op.allclose(q.op):
                hit = j
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def _families_identical(f: Family, g: Family) -> bool:
    if f.time_indices != g.time_indices:
        return False
    return all(
        _same_decomposition(df, dg)
        for df, dg in zip(f.decompositions, g.decompositions)
    )


def common_refinement(f: Family, g: Family) -> CompatibilityVerdict:
    """Attempt the coarsest common refinement: the slotwise product family.

    Classification, in order: identical, refinement (one family refines the
    other and the finer one is consistent), kinematic-incompatible (a
    noncommuting slotwise pair, with the offending time and labels as
    witness), dynamic-incompatible (product family fails the consistency
    conditions; the report is attached), or common-refinement-found.
    """
    _check_comparable(f, g)

    if _families_identical(f, g):
        return CompatibilityVerdict(True, CLASS_IDENTICAL, refinement=f)

    union, columns = _aligned((f, g))
    finer = None
    if _refines(columns):
        finer = g
    elif _refines((dec_g, dec_f) for dec_f, dec_g in columns):
        finer = f
    if finer is not None:
        report = consistency_check(finer)
        if report.consistent:
            return CompatibilityVerdict(True, CLASS_REFINEMENT, refinement=finer)
        return CompatibilityVerdict(False, CLASS_DYNAMIC, witness=report)

    grid = f.propagators.grid
    product_decs = []
    for idx, (dec_f, dec_g) in zip(union, columns):
        if _same_decomposition(dec_f, dec_g):
            product_decs.append(dec_f)
            continue
        if len(dec_f) == 1 and dec_f.members[0][1].rank == f.dim:
            product_decs.append(dec_g)
            continue
        if len(dec_g) == 1 and dec_g.members[0][1].rank == g.dim:
            product_decs.append(dec_f)
            continue
        members = []
        for la, p in dec_f.members:
            for lb, q in dec_g.members:
                pq, qp = _products(p.mat, q.mat)
                comm = np.linalg.norm(pq - qp)
                if comm >= COMMUTE_TOL:
                    witness = KinematicWitness(grid.labels[idx], la, lb, float(comm))
                    return CompatibilityVerdict(False, CLASS_KINEMATIC, witness=witness)
                prod = (pq + pq.conj().T) / 2.0
                if np.linalg.norm(prod) < TOL_PROJ:
                    continue
                members.append((f"{la}&{lb}", Projector(Operator(prod))))
        product_decs.append(DecompositionOfIdentity(tuple(members)))

    slot = 0
    initial = f.initial
    if initial is not None:
        anchor_master = f.time_indices[f.initial_slot]
        slot = union.index(anchor_master)
        # The anchored slot keeps its canonical {initial, complement} form so
        # the product family can carry the same initial condition.
        anchored = columns[slot][0]
        if not _same_decomposition(product_decs[slot], anchored):
            product_decs[slot] = anchored

    name = None
    if f.name and g.name:
        name = f"{f.name}*{g.name}"
    product = Family(
        f.propagators, tuple(union), tuple(product_decs), initial, slot, name
    )
    report = consistency_check(product)
    if report.consistent:
        return CompatibilityVerdict(True, CLASS_COMMON, refinement=product)
    return CompatibilityVerdict(False, CLASS_DYNAMIC, witness=report)

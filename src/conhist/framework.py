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
from typing import Iterable, NamedTuple, Sequence

from .hilbert import DecompositionOfIdentity, Operator, Projector, TOL_PROJ, _frob, _products
from .histories import ConsistencyReport, Family, MixedInitial, PureInitial, consistency_check

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
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        return out


def _check_comparable(f: Family, g: Family) -> None:
    if not f.propagators.same_dynamics(g.propagators):
        raise FamilyMismatchError("families are built over different dynamics")
    fi, gi = f.initial, g.initial
    if (fi is None) != (gi is None) or type(fi) is not type(gi):
        raise FamilyMismatchError("families must share the same initial condition")
    if isinstance(fi, PureInitial):
        # the same state is the same anchored projector, within the tolerance
        # that decides equal decompositions
        same_time = f.time_indices[f.initial_slot] == g.time_indices[g.initial_slot]
        pf = f.decompositions[f.initial_slot].projector(fi.label)
        pg = g.decompositions[g.initial_slot].projector(gi.label)
        if not (same_time and pf.op.allclose(pg.op)):
            raise FamilyMismatchError("families must share the same initial state")
    elif isinstance(fi, MixedInitial):
        if not fi.rho.op.allclose(gi.rho.op):
            raise FamilyMismatchError("families must share the same initial density operator")


def extend(f: Family, extra_times: list[float]) -> Family:
    """Automatic extension: add times carrying the trivial {I} decomposition.

    The added times must exist on the family's master grid (the dynamics at a
    time the propagator set does not know cannot be invented), must be new to
    the family, and may not pass a fixed state: before an initial one, after a
    final one.  Weights and the consistency verdict are unchanged.
    """
    grid = f.propagators.grid
    new_indices = []
    for t in extra_times:
        idx = grid.index_of_value(t)
        if idx in f.time_indices or idx in new_indices:
            raise ValueError(f"time {t} already present in the family")
        new_indices.append(idx)
    anchor = f.time_indices[f.initial_slot]
    if isinstance(f.initial, PureInitial):
        # the state sits first, or after time reversal last of several (the
        # slot _analyze walks backward from); no added time may pass it
        last = f.initial_slot == len(f) - 1 and len(f) > 1
        if any(idx > anchor if last else idx < anchor for idx in new_indices):
            side = "final state to times after" if last else "initial state to times before"
            raise ValueError(f"cannot extend a family with a fixed {side} that state")
    merged, columns = _aligned((f,), new_indices)
    slot = merged.index(anchor) if f.initial is not None else 0
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


class _Product(NamedTuple):
    """The slotwise product of two families f and g over their union of times."""

    times: list[int]
    # per time: a decomposition (a shortcut), else the nonzero (label, P Q) projectors
    columns: list
    same: bool  # every column is one decomposition on both sides
    f_finer: bool  # the product is f's column at every time: f refines g
    g_finer: bool  # the product is g's column at every time: g refines f


def _slotwise_product(f: Family, g: Family) -> _Product | KinematicWitness:
    """The product of ``f`` and ``g``, in one pass over each aligned column's
    projector pairs, or the first pair that does not commute.

    Where the two columns are the same decomposition the product is f's, and
    where one is the trivial {I} it is the other's; every other column makes
    one ``P Q``, ``Q P`` pair of products per member pair.  A column of g
    refines f's exactly when each nonzero ``P Q`` is its ``Q``, so a zero
    member counts for nothing.
    """
    times, aligned = _aligned((f, g))
    labels = f.propagators.grid.labels
    columns, same, f_finer, g_finer = [], True, True, True
    for idx, (dec_f, dec_g) in zip(times, aligned):
        if _same_decomposition(dec_f, dec_g):
            columns.append(dec_f)
            continue
        same = False
        if dec_f.is_trivial:
            # {I} refines the other column only if that is I and zero members
            columns.append(dec_g)
            f_finer = f_finer and max(q.rank for _, q in dec_g.members) == f.dim
        elif dec_g.is_trivial:
            columns.append(dec_f)
            g_finer = g_finer and max(p.rank for _, p in dec_f.members) == f.dim
        else:
            members = []
            for la, p in dec_f.members:
                for lb, q in dec_g.members:
                    pq, qp = _products(p.op, q.op)
                    comm = _frob(pq - qp)
                    if comm >= COMMUTE_TOL:
                        return KinematicWitness(labels[idx], la, lb, comm)
                    prod = (pq + pq.conj().T) / 2.0
                    if _frob(prod) < TOL_PROJ:
                        continue
                    f_finer = f_finer and _frob(prod - p.mat) < TOL_PROJ
                    g_finer = g_finer and _frob(prod - q.mat) < TOL_PROJ
                    members.append((f"{la}&{lb}", Projector(Operator(prod))))
            columns.append(members)
    return _Product(times, columns, same, f_finer, g_finer)


def is_refinement(coarse: Family, fine: Family) -> bool:
    """True iff, after automatic extension to the union of their times, the
    slotwise product of the two families is ``fine``: every coarse member is
    a sum of fine members.

    Every family is a refinement of itself.
    """
    _check_comparable(coarse, fine)
    product = _slotwise_product(coarse, fine)
    return isinstance(product, _Product) and product.g_finer


def _same_decomposition(a: DecompositionOfIdentity, b: DecompositionOfIdentity) -> bool:
    """Equal length, and each member of ``a`` close to its own member of ``b``."""
    if len(a) != len(b):
        return False
    left = [q for _, q in b.members]
    for _, p in a.members:
        hit = next((j for j, q in enumerate(left) if p.op.allclose(q.op)), None)
        if hit is None:
            return False
        del left[hit]
    return True


def common_refinement(f: Family, g: Family) -> CompatibilityVerdict:
    """Attempt the coarsest common refinement: the slotwise product family.

    Classification: identical (the same times and decompositions, and that
    family is consistent), kinematic-incompatible (a noncommuting slotwise
    pair, with the offending time and labels as witness), refinement (the
    product is one of the two families, g when it is both, and that finer
    family is consistent), dynamic-incompatible (the shared family, the
    finer family or the product family fails the consistency conditions;
    the report is attached), or common-refinement-found.
    """
    _check_comparable(f, g)
    product = _slotwise_product(f, g)
    if isinstance(product, KinematicWitness):
        return CompatibilityVerdict(False, CLASS_KINEMATIC, witness=product)
    if product.same and f.time_indices == g.time_indices:
        finer, classification = f, CLASS_IDENTICAL
    elif product.g_finer or product.f_finer:
        finer, classification = (g if product.g_finer else f), CLASS_REFINEMENT
    else:
        finer, classification = _product_family(f, g, product), CLASS_COMMON
    report = consistency_check(finer)
    if report.consistent:
        return CompatibilityVerdict(True, classification, refinement=finer)
    return CompatibilityVerdict(False, CLASS_DYNAMIC, witness=report)


def _product_family(f: Family, g: Family, product: _Product) -> Family:
    """The product as a family with f's initial condition.  A pure state's
    anchored slot keeps f's {initial, complement} pair, whatever the labels
    of the product there."""
    decs = [
        col if isinstance(col, DecompositionOfIdentity) else DecompositionOfIdentity(tuple(col))
        for col in product.columns
    ]
    slot = 0
    if f.initial is not None:
        slot = product.times.index(f.time_indices[f.initial_slot])
        if isinstance(f.initial, PureInitial):
            decs[slot] = f.decompositions[f.initial_slot]
    name = f"{f.name}*{g.name}" if f.name and g.name else None
    return Family(f.propagators, tuple(product.times), tuple(decs), f.initial, slot, name)

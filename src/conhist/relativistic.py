"""1+1-D spacetime geometry for relativistic history families.

Spacelike hypersurfaces over a cell lattice (c = 1 cell/step), Lorentz
boosts, causal ordering of finite regions, embedding of tagged events into
nonintersecting foliations, spacelike commutation checks on Heisenberg
projectors, and verification that a relabeled (boosted) description carries
the same physics: transformed propagators, identical weight tables and
consistency verdicts.

Hypersurfaces are piecewise linear and extend flat beyond their breakpoints.
A ``Region`` refuses a surface that is not spacelike (a slope of magnitude 1
or more).  Entangled events are atomic: every region of an entangled event
must land on a single hypersurface, which is exactly what makes some event
collections impossible to embed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from graphlib import CycleError, TopologicalSorter
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .dynamics import PropagatorSet, TOL_UNITARY
from .hilbert import (
    DecompositionOfIdentity, DensityOperator, Ket, Operator, Projector, _product,
    unitarity_defect,
)
from .histories import (
    EPS_ABS, EPS_REL, Family, MixedInitial, PureInitial, _analyze, _report,
)

if TYPE_CHECKING:  # only for type checkers; scenarios are duck-typed here
    from .scenarios.base import Scenario

TIMELIKE = "timelike"
SPACELIKE = "spacelike"
LIGHTLIKE = "lightlike"

# Width of the numerical band treated as lying on the light cone.
LIGHTCONE_BAND = 1e-12


class CyclicCausalityError(ValueError):
    """The causal precedence relation contains a cycle (malformed regions)."""

    def __init__(self, cycle: Sequence[str]):
        self.cycle = tuple(cycle)
        super().__init__(f"causal precedence is cyclic through {self.cycle}")


class EmbeddingImpossibleError(ValueError):
    """No nonintersecting time-ordered foliation can realize the events."""

    def __init__(self, witness: str, detail: str):
        self.witness = witness
        self.detail = detail
        super().__init__(f"cannot embed events: {detail} (witness: {witness})")


class SpacetimePoint(NamedTuple):
    """A point (x, t) on the lattice, with c = 1 cell/step."""

    x: float
    t: float


def classify_interval(p: SpacetimePoint, q: SpacetimePoint) -> str:
    """Sign of the Minkowski interval (dt^2 - dx^2) between two points."""
    dt = q.t - p.t
    dx = q.x - p.x
    s2 = dt * dt - dx * dx
    if abs(s2) < LIGHTCONE_BAND:
        return LIGHTLIKE
    return TIMELIKE if s2 > 0 else SPACELIKE


def boost(p: SpacetimePoint, v: float) -> SpacetimePoint:
    """Standard Lorentz boost with velocity v (|v| < 1, c = 1)."""
    if abs(v) >= 1.0:
        raise ValueError(f"boost velocity must satisfy |v| < 1, got {v}")
    gamma = 1.0 / np.sqrt(1.0 - v * v)
    return SpacetimePoint(gamma * (p.x - v * p.t), gamma * (p.t - v * p.x))


@dataclass(frozen=True, eq=False)
class Hypersurface:
    """Piecewise-linear surface t = tau(x) over breakpoints, flat beyond them."""

    xs: tuple[float, ...]
    ts: tuple[float, ...]

    def __post_init__(self):
        for v in (*self.xs, *self.ts):
            # float() would read True as 1.0 and "0" as 0.0
            if isinstance(v, (bool, np.bool_, str)):
                raise ValueError(f"breakpoint coordinate {v!r} is not a number")
        try:
            xs = tuple(float(v) for v in self.xs)
            ts = tuple(float(v) for v in self.ts)
        except OverflowError:  # an int beyond float range
            raise ValueError("breakpoints must be finite") from None
        if len(xs) != len(ts) or not xs:
            raise ValueError("need matching, nonempty breakpoint coordinates")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoint x coordinates must be strictly increasing")
        if not all(np.isfinite(v) for v in xs + ts):
            raise ValueError("breakpoints must be finite")
        # tau divides by the x spans: one overflowing to inf would read t0 across it
        if not all(np.isfinite(b - a) for v in (xs, ts) for a, b in zip(v, v[1:])):
            raise ValueError("consecutive breakpoints must differ by a finite amount")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ts", ts)

    @classmethod
    def flat(cls, t: float, x_min: float, x_max: float) -> "Hypersurface":
        return cls((float(x_min), float(x_max)), (float(t), float(t)))

    @classmethod
    def line(cls, t0: float, slope: float, x_min: float, x_max: float) -> "Hypersurface":
        """Straight surface t = t0 + slope * x between the given bounds."""
        return cls(
            (float(x_min), float(x_max)),
            (t0 + slope * x_min, t0 + slope * x_max),
        )

    def tau(self, x: float) -> float:
        return float(np.interp(x, self.xs, self.ts))

    def slopes(self) -> tuple[float, ...]:
        xs, ts = self.xs, self.ts
        return tuple((ts[i + 1] - ts[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))

    def is_spacelike(self) -> bool:
        return all(abs(s) < 1.0 for s in self.slopes())


@dataclass(frozen=True, eq=False)
class Foliation:
    """An ordered collection of nonintersecting spacelike hypersurfaces."""

    surfaces: tuple[Hypersurface, ...]

    def __len__(self) -> int:
        return len(self.surfaces)

    def to_dict(self) -> dict:
        return {
            "surfaces": [
                {"xs": list(s.xs), "ts": list(s.ts)} for s in self.surfaces
            ]
        }


@dataclass(frozen=True)
class FoliationReport:
    """Validation outcome: slope (spacelike) and ordering (nonintersection)."""

    valid: bool
    slope_violations: tuple[tuple[int, int, float], ...]  # (surface, piece, slope)
    ordering_violations: tuple[tuple[int, float, float, float], ...]  # (lower idx, x, tau_j, tau_j+1)


def validate_foliation(f: Foliation) -> FoliationReport:
    """Report non-spacelike pieces and ordering violations between neighbors.

    Ordering is evaluated on the union of breakpoints of each consecutive
    pair (piecewise-linear surfaces attain extrema there).
    """
    slope_violations = []
    for i, s in enumerate(f.surfaces):
        for j, slope in enumerate(s.slopes()):
            if abs(slope) >= 1.0:
                slope_violations.append((i, j, float(slope)))
    ordering_violations = []
    for i in range(len(f.surfaces) - 1):
        lo, hi = f.surfaces[i], f.surfaces[i + 1]
        for x in sorted(set(lo.xs) | set(hi.xs)):
            a, b = lo.tau(x), hi.tau(x)
            if a >= b:
                ordering_violations.append((i, float(x), float(a), float(b)))
    return FoliationReport(
        valid=not slope_violations and not ordering_violations,
        slope_violations=tuple(slope_violations),
        ordering_violations=tuple(ordering_violations),
    )


@dataclass(frozen=True, eq=False)
class Region:
    """A finite set of lattice cells on a spacelike hypersurface."""

    cells: frozenset[int]
    surface: Hypersurface

    def __post_init__(self):
        cells = tuple(self.cells)
        for c in cells:
            # int() would truncate 1.5 to 1 and read True as 1
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                raise ValueError(f"cell {c!r} is not an integer")
            try:
                float(c)  # corner_points reads cells as coordinates
            except OverflowError:
                raise ValueError("a cell lies beyond float range") from None
        cells = frozenset(int(c) for c in cells)
        if not cells:
            raise ValueError("a region needs at least one cell")
        if not self.surface.is_spacelike():
            raise ValueError("a region's surface must be spacelike: every slope below 1 in magnitude")
        object.__setattr__(self, "cells", cells)

    @classmethod
    def at(cls, cells: Iterable[int], surface: Hypersurface) -> "Region":
        # the cells are checked before a set could merge True into 1
        return cls(tuple(cells), surface)

    def corner_points(self) -> tuple[SpacetimePoint, ...]:
        """Extremal cells at the surface time; sufficient for convex regions."""
        lo, hi = min(self.cells), max(self.cells)
        pts = [SpacetimePoint(float(lo), self.surface.tau(lo))]
        if hi != lo:
            pts.append(SpacetimePoint(float(hi), self.surface.tau(hi)))
        return tuple(pts)


@dataclass(frozen=True, eq=False)
class TaggedEvent:
    """A history event placed in spacetime.

    Local events occupy a single region; entangled events span two or more
    pairwise-disjoint regions and must be embedded on a single hypersurface.
    ``projector`` optionally names an operator in a scenario's registry, and
    ``time_index`` ties the event to a grid time of that scenario's dynamics.
    """

    id: str
    regions: tuple[Region, ...]
    projector: str | None = None
    time_index: int | None = None

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ValueError(f"event id {self.id!r} is not a string")
        if self.projector is not None and not isinstance(self.projector, str):
            raise ValueError(f"projector {self.projector!r} is not a string")
        index = self.time_index
        if isinstance(index, bool) or not isinstance(index, (int, np.integer, type(None))):
            raise ValueError(f"time index {index!r} is not an integer")
        regions = tuple(self.regions)
        if not regions:
            raise ValueError("an event needs at least one region")
        if len(regions) > 1:
            seen: set[int] = set()
            for r in regions:
                if seen & r.cells:
                    raise ValueError(f"entangled event {self.id!r} has overlapping regions")
                seen |= r.cells
        object.__setattr__(self, "regions", regions)

    @classmethod
    def local(
        cls,
        event_id: str,
        region: Region,
        projector: str | None = None,
        time_index: int | None = None,
    ) -> "TaggedEvent":
        return cls(event_id, (region,), projector, time_index)

    @classmethod
    def entangled(
        cls,
        event_id: str,
        regions: Sequence[Region],
        projector: str | None = None,
        time_index: int | None = None,
    ) -> "TaggedEvent":
        if len(regions) < 2:
            raise ValueError("an entangled event spans at least two regions")
        return cls(event_id, tuple(regions), projector, time_index)

    @property
    def is_local(self) -> bool:
        return len(self.regions) == 1

    @property
    def is_entangled(self) -> bool:
        return len(self.regions) > 1

    def points(self) -> tuple[SpacetimePoint, ...]:
        out: list[SpacetimePoint] = []
        for r in self.regions:
            out.extend(r.corner_points())
        return tuple(out)


def _point_precedes(p: SpacetimePoint, q: SpacetimePoint) -> bool:
    """p causally precedes q: timelike or lightlike with p strictly earlier."""
    kind = classify_interval(p, q)
    return kind in (TIMELIKE, LIGHTLIKE) and p.t < q.t


@dataclass(frozen=True, eq=False)
class CausalGraph:
    """Directed precedence between events."""

    edges: frozenset[tuple[str, str]]

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self.edges


def _precedence(nodes: Sequence, points: Mapping, same) -> tuple[set, TopologicalSorter]:
    """Edges a -> b wherever some point of a causally precedes some point of
    b, for every pair with ``not same(a, b)``, and their sorter."""
    edges = {
        (a, b) for a in nodes for b in nodes
        if not same(a, b) and any(_point_precedes(p, q) for p in points[a] for q in points[b])
    }
    return edges, _sorter(nodes, edges)


def _sorter(nodes: Sequence, edges: Iterable) -> TopologicalSorter:
    """Nodes in input order, each one's successors in sorted order, so that
    ``prepare()`` reports the cycle a depth-first search in that order meets
    first (``CycleError.args[1]``, its first node repeated at the end)."""
    sorter = TopologicalSorter()
    for n in nodes:
        sorter.add(n)
    for a, b in sorted(edges):
        sorter.add(b, a)
    return sorter


def _cycle(sorter: TopologicalSorter) -> list | None:
    try:
        sorter.prepare()
    except CycleError as exc:
        return exc.args[1]
    return None


def causal_precedence(events: Sequence[TaggedEvent]) -> CausalGraph:
    """Directed graph with an edge e -> e' when some point of e causally
    precedes some point of e'.

    Raises :class:`CyclicCausalityError` when the relation is cyclic, which
    signals input regions that no time ordering can accommodate.
    """
    ids = [e.id for e in events]
    if len(set(ids)) != len(ids):
        raise ValueError("event ids must be unique")
    edges, sorter = _precedence(ids, {e.id: e.points() for e in events}, lambda a, b: a == b)
    cycle = _cycle(sorter)
    if cycle is not None:
        raise CyclicCausalityError(cycle)
    return CausalGraph(frozenset(edges))


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    """A nonintersecting foliation realizing a causal layering of events."""

    foliation: Foliation
    layer_of: dict
    layers: tuple[tuple[str, ...], ...]

    def to_dict(self) -> dict:
        return {
            "layers": [list(layer) for layer in self.layers],
            "foliation": self.foliation.to_dict(),
        }


# Largest vertical margin inserted between consecutive emitted surfaces; the
# actual margin shrinks adaptively so constrained points are never displaced.
_EMBED_GAP = 0.25


def embed_events(events: Sequence[TaggedEvent]) -> EmbeddingResult:
    """Embed events into nonintersecting spacelike hypersurfaces.

    Precedence is computed between individual regions; each entangled event
    then pins all of its regions to a single layer.  If that atomicity forces
    an event both before and after another (a cycle through an entangled
    event), embedding is impossible and the entangled event is named as the
    witness.  A cycle among purely local regions signals malformed input
    instead (:class:`CyclicCausalityError`).

    On success a concrete piecewise-linear foliation is emitted: constrained
    segments take the slopes their points demand (always strictly below 1
    because same-layer points are pairwise spacelike); unconstrained parts
    stay at gentle slopes.
    """
    ids = [e.id for e in events]
    if len(set(ids)) != len(ids):
        raise ValueError("event ids must be unique")
    if not events:
        raise ValueError("need at least one event")

    # Region-level precedence.
    rpoints = {(e.id, i): r.corner_points() for e in events for i, r in enumerate(e.regions)}
    redges, rsorter = _precedence(list(rpoints), rpoints, lambda a, b: a[0] == b[0])
    rcycle = _cycle(rsorter)
    if rcycle is not None:
        raise CyclicCausalityError([f"{eid}[{i}]" for eid, i in rcycle])

    # Quotient by event atomicity: all regions of an event share a node.  A
    # local event is one region, so a quotient cycle passes an entangled one.
    qsorter = _sorter(ids, {(ea, eb) for (ea, _), (eb, _) in redges})
    qcycle = _cycle(qsorter)
    if qcycle is not None:
        witness = next(e.id for e in events if e.is_entangled and e.id in qcycle)
        raise EmbeddingImpossibleError(
            witness,
            "an entangled event's regions are forced both before and after "
            f"another event (cycle {qcycle})",
        )

    # Layer k is the k-th round of ready events, each round done whole: the
    # longest chain into an event of layer k has k edges.
    rounds: list[tuple[str, ...]] = []
    while qsorter.is_active():
        rounds.append(qsorter.get_ready())
        qsorter.done(*rounds[-1])
    layer = {eid: k for k, ready in enumerate(rounds) for eid in ready}
    grouped: list[list[str]] = [[] for _ in rounds]
    for eid in ids:
        grouped[layer[eid]].append(eid)

    # A layer's constrained points are the sorted set of its events' points.
    # No two share an x at different times: cells are integers, one event's
    # regions have disjoint cells, and two points at one x and different times
    # are timelike or lightlike, so a precedence edge puts them in two layers.
    points = {e.id: e.points() for e in events}
    layer_points = [sorted({p for eid in group for p in points[eid]}) for group in grouped]

    all_x = sorted({p.x for pts in layer_points for p in pts})
    x_lo, x_hi = all_x[0] - 1.0, all_x[-1] + 1.0
    breakpoints = [x_lo, *all_x, x_hi]

    surfaces: list[Hypersurface] = []
    prev: np.ndarray | None = None
    xs = np.array(breakpoints)
    for k, pts in enumerate(layer_points):
        px = [p.x for p in pts]
        pt = [p.t for p in pts]
        base = np.interp(xs, px, pt)
        if prev is not None:
            # For all-local inputs every event has a causal ancestor in each
            # lower layer, and surfaces climb strictly slower than light, so
            # each lower surface stays strictly below this layer's points;
            # the adaptive margin then never displaces a constrained point.
            headroom = min(
                p.t - float(np.interp(p.x, xs, prev)) for p in pts
            )
            if headroom <= 0.0:
                raise EmbeddingImpossibleError(
                    grouped[k][0],
                    f"layer {k} cannot pass through its events without "
                    "crossing an earlier surface",
                )
            base = np.maximum(base, prev + min(_EMBED_GAP, headroom / 2.0))
        surf = Hypersurface(tuple(float(x) for x in xs), tuple(float(t) for t in base))
        if not surf.is_spacelike():
            raise EmbeddingImpossibleError(
                grouped[k][0], f"layer {k} would need a non-spacelike surface"
            )
        surfaces.append(surf)
        prev = base

    return EmbeddingResult(
        foliation=Foliation(tuple(surfaces)),
        layer_of={eid: layer[eid] for eid in ids},
        layers=tuple(tuple(g) for g in grouped),
    )


# -- spacelike commutation and covariance -------------------------------------


@dataclass(frozen=True)
class CommutationResult:
    """Heisenberg commutator norm for a pair of tagged events."""

    spacelike: bool
    norm: float


def commutation_check(scn: "Scenario", e: TaggedEvent, g: TaggedEvent) -> CommutationResult:
    """``||[P, Q]||_F`` for the events' Heisenberg projectors at time index 0.

    The causality requirement constrains spacelike-separated events only;
    for pairs that are not spacelike the norm is still reported for
    diagnostics.
    """
    for ev in (e, g):
        if ev.projector is None or ev.projector not in scn.projectors:
            raise KeyError(f"event {ev.id!r} does not resolve to a scenario projector")
        if ev.time_index is None:
            raise ValueError(f"event {ev.id!r} carries no grid time")
    pairs = [(p, q) for p in e.points() for q in g.points()]
    spacelike = all(classify_interval(p, q) == SPACELIKE for p, q in pairs)
    ps = scn.propagators
    p_mat = ps.heisenberg_matrix(scn.projectors[e.projector].mat, e.time_index)
    q_mat = ps.heisenberg_matrix(scn.projectors[g.projector].mat, g.time_index)
    return CommutationResult(spacelike, Operator(p_mat).commutator_norm(Operator(q_mat)))


@dataclass(frozen=True, eq=False)
class CovarianceMap:
    """Per-time unitaries L_j relating one frame's spaces to another's.

    Relabeling conjugates an operator at time j by ``L_j``, a step
    ``T_{j+1,j}`` by ``L_{j+1} . L_j^dag`` and a ket at time j by ``L_j``.
    """

    unitaries: tuple[Operator, ...]

    def __post_init__(self):
        us = tuple(self.unitaries)
        if not us:
            raise ValueError("need at least one unitary")
        for j, u in enumerate(us):
            defect = unitarity_defect(u)
            if defect >= TOL_UNITARY:
                raise ValueError(f"map {j} is not unitary: defect {defect:.3e}")
        object.__setattr__(self, "unitaries", us)

    def __len__(self) -> int:
        return len(self.unitaries)

    @classmethod
    def seeded(cls, ps: PropagatorSet, seed: int = 7) -> "CovarianceMap":
        """One permutation-times-phases unitary per grid time, drawn from
        ``seed``: different maps at different times exercise the full
        transformation law, not just a global change of basis."""
        rng = np.random.default_rng(seed)
        maps = []
        for _ in range(len(ps.grid)):
            perm = rng.permutation(ps.dim)
            mat = np.zeros((ps.dim, ps.dim), dtype=np.complex128)
            mat[perm, np.arange(ps.dim)] = np.exp(2j * np.pi * rng.random(ps.dim))
            maps.append(Operator(mat))
        return cls(tuple(maps))

    def conjugate(self, op: Operator, j: int, k: int | None = None) -> np.ndarray:
        """``L_j op L_k^dag``; ``k`` defaults to ``j``."""
        lj = self.unitaries[j]
        lk = lj if k is None else self.unitaries[k]
        return _product(_product(lj, op), lk.dagger())

    def relabel_propagators(self, ps: PropagatorSet) -> PropagatorSet:
        """The same dynamics in the relabeled bases, step by step."""
        if len(self) != len(ps.grid):
            raise ValueError(f"need one map per grid time ({len(ps.grid)}), got {len(self)}")
        steps = tuple(Operator(self.conjugate(u, j + 1, j)) for j, u in enumerate(ps.steps))
        return PropagatorSet(ps.grid, steps, space_dim=ps.dim)

    def relabel_family(self, fam: Family, primed: PropagatorSet) -> Family:
        """Every projector and the initial condition conjugated at its time,
        rebased onto the primed dynamics."""
        decs = tuple(
            DecompositionOfIdentity(tuple(
                (label, Projector(Operator(self.conjugate(proj.op, j))))
                for label, proj in dec.members
            ))
            for j, dec in zip(fam.time_indices, fam.decompositions)
        )
        initial = fam.initial
        if initial is not None:
            j0 = fam.time_indices[fam.initial_slot]
            if isinstance(initial, PureInitial):
                ket = Ket(self.unitaries[j0].mat @ initial.ket.amps, initial.ket.label)
                initial = PureInitial(ket, initial.label)
            else:
                rho = DensityOperator(Operator(self.conjugate(initial.rho.op, j0)))
                initial = MixedInitial(rho)
        return Family(primed, fam.time_indices, decs, initial, fam.initial_slot, fam.name)


def transform_scenario(scn: "Scenario", maps: CovarianceMap, seed: int = 7) -> "Scenario":
    """The relabeled twin of a scenario: its dynamics and its families, every
    per-time basis conjugated.  It carries nothing else.

    Families on the scenario's own dynamics are relabeled with ``maps``.
    Families on another propagator set (another frame ordering) get maps of
    their own, seeded ``seed + 1``, ``seed + 2``, ... in order of first use.
    """
    master = scn.propagators
    relabeled = {id(master): (maps, maps.relabel_propagators(master))}
    families = {}
    for name, fam in scn.families.items():
        ps = master if fam.propagators.same_dynamics(master) else fam.propagators
        if id(ps) not in relabeled:
            aux = CovarianceMap.seeded(ps, seed=seed + len(relabeled))
            relabeled[id(ps)] = (aux, aux.relabel_propagators(ps))
        m, primed = relabeled[id(ps)]
        families[name] = m.relabel_family(fam, primed)
    return replace(
        scn, name=f"{scn.name}-relabeled", propagators=relabeled[id(master)][1],
        kets={}, projectors={}, families=families, events={}, expected=(),
    )


@dataclass(frozen=True)
class CovarianceReport:
    """Frame-equivalence check: transformed dynamics and families agree."""

    passed: bool
    propagator_residual: float
    family_results: tuple[tuple[str, float, bool], ...]  # (name, max |dW|, verdicts agree)


def covariance_check(scn: "Scenario", maps: CovarianceMap, primed: "Scenario") -> CovarianceReport:
    """Verify that the primed description is the same physics relabeled.

    Checks ``T'_{j+1,j} = L_{j+1} T_{j+1,j} L_j^dag`` on the n - 1 steps
    (Frobenius residual below 1e-10), which gives ``T'_{jk} = L_j T_{jk}
    L_k^dag`` for every pair since each propagator is a product of steps on
    both sides.  Then checks that every named family has the same weights
    (within 1e-9) and consistency verdict as the same-named family of
    ``primed``.
    """
    ps, pps = scn.propagators, primed.propagators
    n = len(ps.grid)
    if len(maps) != n:
        raise ValueError(f"need one map per grid time ({n}), got {len(maps)}")
    if len(pps.grid) != n or ps.dim != pps.dim:
        raise ValueError("primed dynamics must match grid length and dimension")
    residual = max(
        (float(np.linalg.norm(pps.steps[j].mat - maps.conjugate(u, j + 1, j)))
         for j, u in enumerate(ps.steps)),
        default=0.0,
    )

    family_results = []
    for name in sorted(scn.families):
        # one pass per side serves both the weights and the verdict
        a0, a1 = _analyze(scn.families[name]), _analyze(primed.families[name])
        agree = (_report(a0, EPS_ABS, EPS_REL).consistent
                 == _report(a1, EPS_ABS, EPS_REL).consistent)
        family_results.append((name, float(np.abs(a0.weights - a1.weights).max()), agree))
    passed = residual < 1e-10 and all(d < 1e-9 and ok for _, d, ok in family_results)
    return CovarianceReport(passed, residual, tuple(family_results))

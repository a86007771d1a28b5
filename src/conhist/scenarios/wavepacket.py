"""One-dimensional wave-packet collapse scenario with two detectors.

A single particle leaves a source cell in an equal superposition of a
left-moving and a right-moving packet; detector A sits to the left (closer),
detector B to the right.  Packets are single-cell occupations moving one
cell per step (c = 1), so trajectories are exact and the interval
coarse-graining carries the physics.

State space: particle ((cell, direction) pairs plus one absorbed marker)
tensor detector A (ready/triggered) tensor detector B.  Detection is a
basis swap |det_cell, dir>|ready> <-> |absorbed>|triggered> applied exactly
at the step where the packet reaches the detector; before and after that
step both particle and detectors evolve trivially (identity apart from the
shift).  Every step permutes the basis, so locality holds exactly: every
Heisenberg projector of a lattice-diagonal property stays diagonal.

Interval projectors sum the cell projectors over each member of a disjoint
partition of the cells; the per-time decomposition adds the absorbed marker
as its own member.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..dynamics import PropagatorSet, TimeGrid
from ..hilbert import DecompositionOfIdentity, Ket, Operator, Projector
from ..histories import Family, pure_families
from ..relativistic import Hypersurface, Region, TaggedEvent, commutation_check
from .base import (
    Expectation,
    PROVENANCE_DERIVED,
    PROVENANCE_PAPER,
    PROVENANCE_TRIVIAL,
    Scenario,
    cond,
    consistent,
    kinematic,
    kron,
    max_overlap,
    pick,
    prob,
    support_size,
    with_rest,
)

_LEFT, _RIGHT = 0, 1


def default_intervals(n_cells: int, width: int = 3) -> tuple[tuple[int, ...], ...]:
    """Contiguous intervals of the given width partitioning the cells."""
    if n_cells % width:
        raise ValueError(f"{width} does not divide {n_cells}")
    return tuple(
        tuple(range(k, k + width)) for k in range(0, n_cells, width)
    )


def build_wavepacket(
    n_cells: int = 24,
    source: int = 12,
    det_a: int = 6,
    det_b: int = 21,
    intervals: tuple[tuple[int, ...], ...] | None = None,
    families: Sequence[str] | None = None,
) -> Scenario | dict[str, Family]:
    if intervals is None:
        intervals = default_intervals(n_cells)
    cells = sorted(c for interval in intervals for c in interval)
    if cells != list(range(n_cells)):
        raise ValueError("intervals must partition the cells disjointly")
    if not (0 <= det_a < source < det_b <= n_cells - 1):
        raise ValueError("need det_a < source < det_b inside the lattice")
    t_a = source - det_a
    t_b = det_b - source
    if t_a >= t_b:
        raise ValueError("detector A must be strictly closer to the source than B")
    if t_a < 4:
        raise ValueError("detector A must be at least 4 cells from the source")
    if t_b < t_a + 2:
        raise ValueError("detector B must trail detector A by at least 2 steps")

    n_part = 2 * n_cells + 1
    absorbed = 2 * n_cells
    dim = n_part * 4

    def p_idx(cell: int, direction: int) -> int:
        return 2 * cell + direction

    # Every lattice step permutes the basis, held as an index map: back[i] is
    # the basis state the step sends to state i, so the step's matrix is the
    # identity's rows in that order and a ket evolves as v[back].  A basis
    # state's index is 4 * particle + 2 * A + B, a detector 0 ready and 1
    # triggered.
    hop = np.arange(n_part)
    for c in range(n_cells):  # one cell per step in the packet's direction
        hop[p_idx((c - 1) % n_cells, _LEFT)] = p_idx(c, _LEFT)
        hop[p_idx((c + 1) % n_cells, _RIGHT)] = p_idx(c, _RIGHT)
    shift = (4 * hop[:, None] + np.arange(4)).ravel()

    def detector_step(
        det_cell: int, direction: int, ready: tuple[int, int], fired: tuple[int, int]
    ) -> np.ndarray:
        """The shift after swapping |det_cell, dir>|ready> with |absorbed>|triggered>,
        where ``ready`` and ``fired`` list the detector pair's states (2 * A + B) with
        this detector ready and triggered, one for each state of the other."""
        swap = np.arange(dim)
        src = 4 * p_idx(det_cell, direction) + np.array(ready)
        dst = 4 * absorbed + np.array(fired)
        swap[src], swap[dst] = dst, src
        return shift[swap]

    # the detector steps at the step the packet reaches each detector
    lattice = [shift] * (t_b + 1)
    lattice[t_a - 1] = detector_step(det_a, _LEFT, (0, 1), (2, 3))
    lattice[t_b - 1] = detector_step(det_b, _RIGHT, (0, 2), (1, 3))

    mid = (1 + (t_a - 1)) // 2
    f_times = (0, 1, mid, t_a - 1)
    g_times = (0, mid, t_a + 1, t_b + 1)
    master_values = sorted(set(f_times) | set(g_times))
    grid = TimeGrid(tuple(float(v) for v in master_values))

    steps = []
    for v0, v1 in zip(master_values, master_values[1:]):
        back = lattice[v0]
        for t in range(v0 + 1, v1):
            back = back[lattice[t]]
        steps.append(Operator(np.eye(dim, dtype=np.complex128)[back]))
    ps = PropagatorSet(grid, tuple(steps))

    midx = {v: i for i, v in enumerate(master_values)}
    tlab = {v: grid.labels[midx[v]] for v in master_values}

    # -- families: each one's times and, per slot after the first, the piece
    # that decomposes it, where a time v names {Psi.v, rest} ---------------------

    recipes = {
        "F0": (f_times, f_times[1:]),
        "F1": (f_times, ("int",) * 3),
        "F2": (f_times, (f_times[1], "int", "int")),
        "F2-remerge": (f_times, (f_times[1], "int", f_times[3])),
        "G0": (g_times, g_times[1:]),
        "G1": (g_times, ("g1", "det", "det")),
        "G2": (g_times, (g_times[1], "g2", "det")),
    }
    if families is not None:  # then build only these and the pieces they use
        recipes = pick(recipes, families)
    used = {p for _, pieces in recipes.values() for p in pieces}

    # -- named kets, projectors and the pieces -----------------------------------

    psi0_vec = np.zeros(dim, dtype=np.complex128)  # both detectors ready
    psi0_vec[[4 * p_idx(source, _LEFT), 4 * p_idx(source, _RIGHT)]] = 1 / np.sqrt(2)
    psi0 = Ket(psi0_vec, "Psi0")

    evolved = [psi0_vec]
    for back in lattice:
        evolved.append(evolved[-1][back])

    interval_of = {c: k for k, interval in enumerate(intervals) for c in interval}

    # 0/1 diagonal projectors, from the diagonals of their particle, detector
    # A and detector B factors; a detector's e2[0] is ready, e2[1] triggered
    def diagonal(particle, a, b) -> Projector:
        return Projector(Operator(np.diag(kron(particle, a, b))))

    P: dict[str, Projector] = {}
    piece = {}
    e2, ones2, ones_p = np.eye(2), np.ones(2), np.ones(n_part)
    part = np.arange(n_part)
    interval_diags = [np.zeros(n_part) for _ in intervals]
    for c, k in interval_of.items():
        interval_diags[k][p_idx(c, _LEFT)] = interval_diags[k][p_idx(c, _RIGHT)] = 1.0
    if "int" in used:  # the intervals, plus the absorbed marker as its own member
        for k, diag in enumerate(interval_diags):
            P[f"int{k}"] = diagonal(diag, ones2, ones2)
        P["abs"] = diagonal((part == absorbed) * 1.0, ones2, ones2)
        piece["int"] = DecompositionOfIdentity(
            tuple((f"int{k}", P[f"int{k}"]) for k in range(len(intervals))) + (("abs", P["abs"]),)
        )

    if used & {"det", "g2"}:
        for lab, a_state, b_state in (
            ("AB", 0, 0), ("A*B", 1, 0), ("AB*", 0, 1), ("A*B*", 1, 1),
        ):
            P[lab] = diagonal(ones_p, e2[a_state], e2[b_state])
        piece["det"] = DecompositionOfIdentity(
            tuple((lab, P[lab]) for lab in ("A*B", "AB", "AB*", "A*B*"))
        )
    if families is None:  # no family uses the single-detector projectors
        P["A"] = diagonal(ones_p, e2[0], ones2)
        P["A*"] = diagonal(ones_p, e2[1], ones2)
        P["B"] = diagonal(ones_p, ones2, e2[0])
        P["B*"] = diagonal(ones_p, ones2, e2[1])

    # {Psi.v, rest} at every time after the first that a family uses
    kets = {"Psi0": psi0}
    for v in master_values:
        name = f"Psi.{v}"
        if families is None or v in used:
            kets[name] = Ket(evolved[v], name)
            P[name] = kets[name].projector()
        if v in used:
            piece[v] = with_rest((name, P[name]))

    if "g1" in used:  # the intervals of the two packets at time mid, both detectors ready
        piece["g1"] = with_rest(
            ("a1.AB", diagonal(interval_diags[interval_of[source - mid]], e2[0], e2[0])),
            ("b1.AB", diagonal(interval_diags[interval_of[source + mid]], e2[0], e2[0])),
        )
    if "g2" in used:  # the B-bound packet at time t_a + 1, both detectors ready
        phib = (part == p_idx(source + (t_a + 1), _RIGHT)) * 1.0
        P["phib.AB"] = diagonal(phib, e2[0], e2[0])
        piece["g2"] = with_rest(("A*B", P["A*B"]), ("phib.AB", P["phib.AB"]))

    pure = pure_families(psi0)
    fam = {
        name: pure(ps, tuple(midx[v] for v in times), [piece[p] for p in pieces], name=name)
        for name, (times, pieces) in recipes.items()
    }
    if families is not None:
        return fam

    # -- spacetime events -------------------------------------------------------

    dom = (-1.0, float(n_cells))
    events: dict[str, TaggedEvent] = {}
    for v in master_values[1:]:
        surface = Hypersurface.flat(float(v), *dom)
        for k, interval in enumerate(intervals):
            eid = f"int{k}-t{v}"
            events[eid] = TaggedEvent.local(
                eid, Region.at(interval, surface), projector=f"int{k}", time_index=midx[v]
            )
        for lab, cell in (("A", det_a), ("A*", det_a), ("B", det_b), ("B*", det_b)):
            eid = f"{lab}-t{v}"
            events[eid] = TaggedEvent.local(
                eid, Region.at([cell], surface), projector=lab, time_index=midx[v]
            )

    # Entangled wave-function events: the flat one at t = 1 and a steeply
    # boosted one whose arm regions straddle it; embedding both is impossible.
    flat1 = Hypersurface.flat(1.0, *dom)
    events["psi-t1"] = TaggedEvent.entangled(
        "psi-t1",
        (Region.at([source - 1], flat1), Region.at([source + 1], flat1)),
        projector="Psi.1" if 1 in master_values else None,
        time_index=midx.get(1),
    )
    tilt = Hypersurface.line(
        -0.2 - 0.8 * (source - 2), 0.8, dom[0], dom[1]
    )  # passes (source-2, -0.2) with slope 0.8
    events["psi-boosted"] = TaggedEvent.entangled(
        "psi-boosted",
        (Region.at([source - 2], tilt), Region.at([source + 2], tilt)),
    )

    # Local trajectory events in a second frame: b-side packets on tilted
    # surfaces, for the interleaved-foliation construction.
    for j, (cell, t) in enumerate(
        ((source + 2, 2.0), (source + 4, 4.0)), start=1
    ):
        surf = Hypersurface.line(t - (cell / 3.0), 1.0 / 3.0, dom[0], dom[1])
        eid = f"bp{j}"
        events[eid] = TaggedEvent.local(eid, Region.at([cell], surf))

    # -- expected results --------------------------------------------------------

    a_branch = ("Psi0",) + tuple(
        f"int{interval_of[source - v]}" for v in f_times[1:]
    )
    b_branch = ("Psi0",) + tuple(
        f"int{interval_of[source + v]}" for v in f_times[1:]
    )
    g1_a = ("Psi0", "a1.AB", "A*B", "A*B")
    g1_b = ("Psi0", "b1.AB", "AB", "AB*")

    expected = (
        Expectation("F1 support holds exactly the two trajectory histories",
                    PROVENANCE_PAPER, support_size("F1"), 2.0),
        Expectation("F1: the A-bound trajectory has probability 1/2",
                    PROVENANCE_PAPER, prob("F1", *a_branch), 0.5),
        Expectation("F1: the B-bound trajectory has probability 1/2",
                    PROVENANCE_PAPER, prob("F1", *b_branch), 0.5),
        Expectation("F0: the unitary history has probability one",
                    PROVENANCE_TRIVIAL,
                    prob("F0", "Psi0", *(f"Psi.{v}" for v in f_times[1:])), 1.0),
        Expectation("F2: delayed split into trajectories, 1/2 each",
                    PROVENANCE_PAPER,
                    prob("F2", "Psi0", f"Psi.{f_times[1]}", a_branch[2], a_branch[3]), 0.5),
        Expectation("re-merging the trajectories onto the superposition is inconsistent",
                    PROVENANCE_PAPER, consistent("F2-remerge"), 0.0, tolerance=0.0),
        Expectation("F2-remerge: normalized off-diagonal overlap is maximal",
                    PROVENANCE_DERIVED, max_overlap("F2-remerge"), 1.0),
        Expectation("G0: unitary evolution through both MQS states has probability one",
                    PROVENANCE_TRIVIAL,
                    prob("G0", "Psi0", *(f"Psi.{v}" for v in g_times[1:])), 1.0),
        Expectation("G1: detection by A caps the A-bound trajectory, probability 1/2",
                    PROVENANCE_DERIVED, prob("G1", *g1_a), 0.5),
        Expectation("G1: detection by B caps the B-bound trajectory, probability 1/2",
                    PROVENANCE_DERIVED, prob("G1", *g1_b), 0.5),
        Expectation("G1 inference: A untriggered implies the particle headed to B",
                    PROVENANCE_PAPER,
                    cond("G1", {tlab[g_times[1]]: "b1.AB"}, {tlab[g_times[2]]: "AB"}), 1.0),
        Expectation("G1 retrodiction: A triggered implies the particle came from the a side",
                    PROVENANCE_PAPER,
                    cond("G1", {tlab[g_times[1]]: "a1.AB"}, {tlab[g_times[2]]: "A*B"}), 1.0),
        Expectation("G2: collapse-style branches are equiprobable",
                    PROVENANCE_DERIVED,
                    prob("G2", "Psi0", f"Psi.{g_times[1]}", "A*B", "A*B"), 0.5),
        Expectation("F0 and F1 are kinematically incompatible",
                    PROVENANCE_PAPER, kinematic("F0", "F1"), 1.0, tolerance=0.0),
        Expectation(
            "spacelike interval vs detector-ready Heisenberg projectors commute",
            PROVENANCE_DERIVED,
            lambda s: commutation_check(
                s,
                s.events[f"int{interval_of[source - mid]}-t{mid}"],
                s.events[f"B-t{mid}"],
            ).norm,
            0.0,
            tolerance=1e-12,
        ),
    )

    return Scenario(
        name="wavepacket",
        propagators=ps,
        kets=kets,
        projectors=P,
        families=fam,
        events=events,
        expected=expected,
        description=(
            "A single particle in a left/right superposition on a cell lattice "
            "with two absorbing detectors: trajectory families, unitary MQS "
            "families, collapse-style families, and detection inferences."
        ),
    )

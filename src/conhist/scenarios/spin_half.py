"""Spin-half particle with a nondestructive x-spin measuring device.

The system is spin (dimension 2) tensor apparatus (dimension 3: ready X,
outcomes X+ and X-).  The measurement step maps |x+>|X> -> |x+>|X+> and
|x->|X> -> |x->|X->; it is completed to a unitary on the full space by
cycling the unused apparatus states within each x sector:

    x+ sector: X -> X+ -> X- -> X        x- sector: X -> X- -> X+ -> X

Any completion agreeing on the physical subspace yields the same family
weights; no family here ever probes the completion sector.

Master grid: times 0..5 with identity steps except the measurement firing
between times 3 and 4.  The no-apparatus families (F0, F1, F2 and the
inconsistent re-merge variant) live on times 0..3 where the dynamics is
trivial; the measurement families (G0, G1, G2) straddle the measurement
step.
"""

from __future__ import annotations

import numpy as np

from ..dynamics import PropagatorSet, TimeGrid
from ..hilbert import Ket, Operator, Projector
from ..histories import pure_families
from .base import (
    Expectation,
    PROVENANCE_DERIVED,
    PROVENANCE_PAPER,
    PROVENANCE_TRIVIAL,
    Scenario,
    cond,
    consistent,
    dec,
    kinematic,
    kron,
    max_overlap,
    prob,
    proj,
    support_size,
)

# Apparatus basis order: ready, plus outcome, minus outcome.
_X_READY, _X_PLUS, _X_MINUS = 0, 1, 2


def build_spin_half() -> Scenario:
    i2 = np.eye(2, dtype=np.complex128)
    i3 = np.eye(3, dtype=np.complex128)

    z_plus = np.array([1, 0], dtype=np.complex128)
    z_minus = np.array([0, 1], dtype=np.complex128)
    x_plus = np.array([1, 1], dtype=np.complex128) / np.sqrt(2)
    x_minus = np.array([1, -1], dtype=np.complex128) / np.sqrt(2)
    app = np.eye(3, dtype=np.complex128)  # columns: X, X+, X-

    # Spin projectors on the full space.
    P = {
        "z+": Projector(Operator(kron(proj(z_plus), i3))),
        "z-": Projector(Operator(kron(proj(z_minus), i3))),
        "x+": Projector(Operator(kron(proj(x_plus), i3))),
        "x-": Projector(Operator(kron(proj(x_minus), i3))),
        "X": Projector(Operator(kron(i2, proj(app[:, _X_READY])))),
        "X+": Projector(Operator(kron(i2, proj(app[:, _X_PLUS])))),
        "X-": Projector(Operator(kron(i2, proj(app[:, _X_MINUS])))),
    }
    for spin in ("z+", "z-", "x+", "x-"):
        for out in ("X", "X+", "X-"):
            P[spin + out] = Projector(Operator(P[spin].mat @ P[out].mat))

    psi0 = Ket(kron(z_plus, app[:, _X_READY]), "z+X")
    s_mqs = Ket(
        (kron(x_plus, app[:, _X_PLUS]) + kron(x_minus, app[:, _X_MINUS])) / np.sqrt(2),
        "S",
    )
    P["S"] = s_mqs.projector()

    # Measurement unitary: apparatus 3-cycles conditioned on the x sector.
    cyc_plus = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.complex128)
    cyc_minus = cyc_plus.T
    measure = kron(proj(x_plus), cyc_plus) + kron(proj(x_minus), cyc_minus)

    grid = TimeGrid((0, 1, 2, 3, 4, 5))
    ident = Operator(np.eye(6, dtype=np.complex128))
    ps = PropagatorSet(grid, (ident, ident, ident, Operator(measure), ident))

    z_spin = dec(P, "z+", "z-")
    x_spin = dec(P, "x+", "x-")
    g_ready = dec(P, "x+X", "x-X")
    g_outcome = dec(P, "x+X+", "x-X-")

    pure = pure_families(psi0)
    fam = {
        "F0": pure(ps, (0, 1, 2, 3), [z_spin] * 3, name="F0"),
        "F1": pure(ps, (0, 1, 2, 3), [x_spin] * 3, name="F1"),
        "F2": pure(ps, (0, 1, 2, 3), [z_spin, x_spin, x_spin], name="F2"),
        "F1-remerge": pure(ps, (0, 1, 2, 3), [x_spin, x_spin, z_spin], name="F1-remerge"),
        "G0": pure(ps, (0, 3, 4, 5), [dec(P, "z+X"), dec(P, "S"), dec(P, "S")], name="G0"),
        "G1": pure(ps, (0, 3, 4, 5), [g_ready, g_outcome, g_outcome], name="G1"),
        "G2": pure(ps, (0, 2, 3, 4), [dec(P, "z+X"), g_ready, g_outcome], name="G2"),
    }

    expected = (
        Expectation("F1: the x+ branch has probability 1/2",
                    PROVENANCE_PAPER, prob("F1", "z+X", "x+", "x+", "x+"), 0.5),
        Expectation("F1: the x- branch has probability 1/2",
                    PROVENANCE_PAPER, prob("F1", "z+X", "x-", "x-", "x-"), 0.5),
        Expectation("F1 support holds exactly two histories",
                    PROVENANCE_TRIVIAL, support_size("F1"), 2.0),
        Expectation("re-merging the split branches onto the z basis violates consistency",
                    PROVENANCE_PAPER, consistent("F1-remerge"), 0.0, tolerance=0.0),
        Expectation("re-merge family: normalized off-diagonal overlap is maximal",
                    PROVENANCE_DERIVED, max_overlap("F1-remerge"), 1.0),
        Expectation("G1 retrodiction: outcome X+ implies x+ before the measurement",
                    PROVENANCE_PAPER, cond("G1", {"t3": "x+X"}, {"t5": "x+X+"}), 1.0),
        Expectation("F0: the unitary history has probability one",
                    PROVENANCE_PAPER, prob("F0", "z+X", "z+", "z+", "z+"), 1.0),
        Expectation("G0: unitary evolution into the MQS state has probability one",
                    PROVENANCE_TRIVIAL, prob("G0", "z+X", "z+X", "S", "S"), 1.0),
        Expectation("G1 branches are equiprobable",
                    PROVENANCE_DERIVED, prob("G1", "z+X", "x+X", "x+X+", "x+X+"), 0.5),
        Expectation("G2 collapse-style branches are equiprobable",
                    PROVENANCE_DERIVED, prob("G2", "z+X", "z+X", "x+X", "x+X+"), 0.5),
        Expectation("F2 split at the later time: branches are equiprobable",
                    PROVENANCE_PAPER, prob("F2", "z+X", "z+", "x+", "x+"), 0.5),
        Expectation(
            "the MQS projector does not commute with the X+ outcome projector",
            PROVENANCE_DERIVED,
            lambda s: s.projectors["S"].op.commutator_norm(s.projectors["X+"].op),
            0.1,
            kind="greater",
        ),
        Expectation("F0 and F1 are kinematically incompatible",
                    PROVENANCE_DERIVED, kinematic("F0", "F1"), 1.0, tolerance=0.0),
        Expectation("F1 and F2 are kinematically incompatible",
                    PROVENANCE_DERIVED, kinematic("F1", "F2"), 1.0, tolerance=0.0),
    )

    return Scenario(
        name="spin-half",
        propagators=ps,
        kets={"z+X": psi0, "S": s_mqs},
        projectors=P,
        families=fam,
        events={},
        expected=expected,
        description=(
            "Spin-half particle with trivial free dynamics and a nondestructive "
            "x-spin measurement; stochastic vs unitary descriptions, the "
            "forbidden branch re-merge, and measurement retrodiction."
        ),
    )

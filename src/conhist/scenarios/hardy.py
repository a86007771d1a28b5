"""Hardy's two-interferometer paradox.

Particles a and b enter the arms of two interferometers in a joint state
with no amplitude on (d, dbar).  Each beam splitter rotates its particle
from the arm basis {c, d} (resp. {cbar, dbar}) to the outcome basis {e, f}
(resp. {ebar, fbar}) with real phases:

    |c> -> (|e> + |f>)/sqrt(2)       |d> -> (-|e> + |f>)/sqrt(2)

Three frames differ only in which side's beam splitter fires first:

    L   : both splitters in one step          (grid 0..4, split at 2->3)
    L'  : b's splitter first, then a's        (grid 0..3)
    L'' : a's splitter first, then b's        (grid 0..3)

Frames are separate dynamics; families from different frames are
deliberately not comparable through the framework machinery.  The paradox
lives in the two single-frame inference families (detection on one side
pins the other particle's arm) and in the blocker family, which shows that
an arm event and that same particle's later outcome event cannot coexist in
one consistent description.
"""

from __future__ import annotations

import numpy as np

from ..dynamics import PropagatorSet, TimeGrid
from ..hilbert import Ket, Operator, Projector
from ..histories import pure_families
from ..relativistic import Hypersurface, Region, TaggedEvent, causal_precedence
from .base import (
    Expectation,
    PROVENANCE_DERIVED,
    PROVENANCE_PAPER,
    PROVENANCE_TRIVIAL,
    Scenario,
    cond,
    consistent,
    dec,
    joint,
    kron,
    max_overlap,
    proj,
    support_size,
)

_SPLITTER = np.array([[1, -1], [1, 1]], dtype=np.complex128) / np.sqrt(2)


def build_hardy() -> Scenario:
    i2 = np.eye(2, dtype=np.complex128)
    basis = np.eye(2, dtype=np.complex128)

    # Arm/outcome bases share coordinates; the labels encode which side of
    # the beam splitter a projector is read in.
    P = {
        "c": Projector(Operator(kron(proj(basis[:, 0]), i2))),
        "d": Projector(Operator(kron(proj(basis[:, 1]), i2))),
        "e": Projector(Operator(kron(proj(basis[:, 0]), i2))),
        "f": Projector(Operator(kron(proj(basis[:, 1]), i2))),
        "cbar": Projector(Operator(kron(i2, proj(basis[:, 0])))),
        "dbar": Projector(Operator(kron(i2, proj(basis[:, 1])))),
        "ebar": Projector(Operator(kron(i2, proj(basis[:, 0])))),
        "fbar": Projector(Operator(kron(i2, proj(basis[:, 1])))),
    }

    psi0 = Ket(np.array([1, 1, 1, 0], dtype=np.complex128) / np.sqrt(3), "psi0")
    psi1_bfirst = Ket(np.array([0, 2, 1, 1], dtype=np.complex128) / np.sqrt(6), "psi1'")
    psi1_afirst = Ket(np.array([0, 1, 2, 1], dtype=np.complex128) / np.sqrt(6), "psi1''")
    psi2 = Ket(np.array([-1, 1, 1, 3], dtype=np.complex128) / np.sqrt(12), "psi2")

    ident = Operator(np.eye(4, dtype=np.complex128))
    bs_a = Operator(kron(_SPLITTER, i2))
    bs_b = Operator(kron(i2, _SPLITTER))
    bs_both = Operator(kron(_SPLITTER, _SPLITTER))

    ps_l = PropagatorSet(TimeGrid((0, 1, 2, 3, 4)), (ident, ident, bs_both, ident))
    ps_bfirst = PropagatorSet(TimeGrid((0, 1, 2, 3)), (bs_b, ident, bs_a))
    ps_afirst = PropagatorSet(TimeGrid((0, 1, 2, 3)), (bs_a, ident, bs_b))

    arm_a = dec(P, "c", "d")
    arm_b = dec(P, "cbar", "dbar")
    out_a = dec(P, "e", "f")
    out_b = dec(P, "ebar", "fbar")

    pure = pure_families(psi0)
    fam = {
        "unitary-output": pure(ps_l, (0, 3, 4), [out_a, out_b], name="unitary-output"),
        "arm-pair": pure(ps_l, (0, 1, 2), [arm_a, arm_b], name="arm-pair"),
        "blocker": pure(ps_l, (0, 1, 3), [arm_a, out_a], name="blocker"),
        "b-first-inference": pure(
            ps_bfirst, (0, 1, 2), [out_b, arm_a], name="b-first-inference"
        ),
        "a-first-inference": pure(
            ps_afirst, (0, 1, 2), [out_a, arm_b], name="a-first-inference"
        ),
    }

    # Fig-style geometry in frame L: a flies left (x = -t), b right (x = +t);
    # splitters sit at |x| = 2.5, final detectors around |x| = 3.
    dom = (-6.0, 6.0)
    flat = {t: Hypersurface.flat(float(t), *dom) for t in (1, 2, 3, 4)}
    events = {
        "d1": TaggedEvent.local("d1", Region.at([-1], flat[1]), projector="d", time_index=1),
        "dbar1": TaggedEvent.local(
            "dbar1", Region.at([1], flat[1]), projector="dbar", time_index=1
        ),
        "E2": TaggedEvent.local("E2", Region.at([-3], flat[3]), projector="e", time_index=3),
        "Ebar2": TaggedEvent.local(
            "Ebar2", Region.at([3], flat[3]), projector="ebar", time_index=3
        ),
    }

    def precedence_flags(s: Scenario) -> float:
        g = causal_precedence([s.events["d1"], s.events["E2"], s.events["Ebar2"]])
        ordered = g.has_edge("d1", "E2")
        unordered = not g.has_edge("d1", "Ebar2") and not g.has_edge("Ebar2", "d1")
        return float(ordered and unordered)

    expected = (
        Expectation("joint detection (e, ebar) occurs with probability 1/12",
                    PROVENANCE_PAPER, joint("unitary-output", "e", "ebar"), 1.0 / 12.0),
        Expectation("if b is detected in ebar early, a is in the d arm",
                    PROVENANCE_PAPER,
                    cond("b-first-inference", {"t2": "d"}, {"t1": "ebar"}), 1.0),
        Expectation("if a is detected in e early, b is in the dbar arm",
                    PROVENANCE_PAPER,
                    cond("a-first-inference", {"t2": "dbar"}, {"t1": "e"}), 1.0),
        Expectation("the joint arm event (d, dbar) never occurs",
                    PROVENANCE_PAPER, joint("arm-pair", "d", "dbar"), 0.0, tolerance=1e-12),
        Expectation("an arm event plus that particle's later outcome event is inconsistent",
                    PROVENANCE_PAPER, consistent("blocker"), 0.0, tolerance=0.0),
        Expectation("blocker family: normalized overlap is far above threshold",
                    PROVENANCE_DERIVED, max_overlap("blocker"), 0.1, kind="greater"),
        Expectation("joint detection (e, fbar) occurs with probability 1/12",
                    PROVENANCE_DERIVED, joint("unitary-output", "e", "fbar"), 1.0 / 12.0),
        Expectation("joint detection (f, fbar) occurs with probability 3/4",
                    PROVENANCE_DERIVED, joint("unitary-output", "f", "fbar"), 0.75),
        Expectation("unitary-output support holds all four outcome pairs",
                    PROVENANCE_TRIVIAL, support_size("unitary-output"), 4.0),
        Expectation(
            "state after b's splitter matches the b-first amplitudes",
            PROVENANCE_PAPER,
            lambda s: float(
                np.linalg.norm(
                    s.family("b-first-inference").propagators.propagator(1, 0).mat
                    @ s.kets["psi0"].amps
                    - s.kets["psi1'"].amps
                )
            ),
            0.0,
        ),
        Expectation(
            "state after a's splitter matches the a-first amplitudes",
            PROVENANCE_PAPER,
            lambda s: float(
                np.linalg.norm(
                    s.family("a-first-inference").propagators.propagator(1, 0).mat
                    @ s.kets["psi0"].amps
                    - s.kets["psi1''"].amps
                )
            ),
            0.0,
        ),
        Expectation(
            "state after both splitters matches the joint amplitudes",
            PROVENANCE_PAPER,
            lambda s: float(
                np.linalg.norm(
                    s.propagators.propagator(3, 0).mat @ s.kets["psi0"].amps
                    - s.kets["psi2"].amps
                )
            ),
            0.0,
        ),
        Expectation(
            "d1 precedes E2 while d1 and Ebar2 stay unordered",
            PROVENANCE_PAPER,
            precedence_flags,
            1.0,
            tolerance=0.0,
        ),
    )

    return Scenario(
        name="hardy",
        propagators=ps_l,
        kets={"psi0": psi0, "psi1'": psi1_bfirst, "psi1''": psi1_afirst, "psi2": psi2},
        projectors=P,
        families=fam,
        events=events,
        expected=expected,
        description=(
            "Two interferometers fed by a joint state with no (d, dbar) "
            "amplitude; three beam-splitter orderings, the two single-frame "
            "inferences, and the consistency blocker that stops their "
            "combination."
        ),
    )

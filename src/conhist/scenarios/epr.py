"""EPR-Bohm pair: two spin-half particles in a singlet state, with a z-spin
measuring device on particle a.

System: spin_a (2) x spin_b (2) x apparatus (3: ready Z, outcomes Z+, Z-).
The spatial wave packets factor out of every family considered here and are
dropped from the Hilbert space; the flight geometry survives in the tagged
spacetime events (particle a at x = -t, particle b at x = +t, c = 1).

The measurement step maps |z+_a>|Z> -> |z+_a>|Z+> and |z-_a>|Z> ->
|z-_a>|Z->, completed to a unitary by cycling the unused apparatus states
within each z_a sector (as in the spin-half scenario); particle b is
untouched.  Master grid: times 0..5, measurement firing between 3 and 4, so
the measurement-free families (F0..F4) live on times 0..3.
"""

from __future__ import annotations

import numpy as np

from ..dynamics import PropagatorSet, TimeGrid
from ..hilbert import DecompositionOfIdentity, Ket, Operator, Projector
from ..histories import pure_families, event_probability, support
from ..relativistic import Hypersurface, Region, TaggedEvent, commutation_check
from .base import (
    Expectation,
    PROVENANCE_DERIVED,
    PROVENANCE_PAPER,
    PROVENANCE_TRIVIAL,
    Scenario,
    cond,
    dec,
    kinematic,
    kron,
    prob,
    proj,
    support_size,
)


def build_epr() -> Scenario:
    i2 = np.eye(2, dtype=np.complex128)
    i3 = np.eye(3, dtype=np.complex128)
    z_plus = np.array([1, 0], dtype=np.complex128)
    z_minus = np.array([0, 1], dtype=np.complex128)
    x_plus = np.array([1, 1], dtype=np.complex128) / np.sqrt(2)
    x_minus = np.array([1, -1], dtype=np.complex128) / np.sqrt(2)
    app = np.eye(3, dtype=np.complex128)  # columns: Z, Z+, Z-

    spins = {"z+": z_plus, "z-": z_minus, "x+": x_plus, "x-": x_minus}
    P: dict[str, Projector] = {}
    for lab, vec in spins.items():
        P[lab + "a"] = Projector(Operator(kron(proj(vec), i2, i3)))
        P[lab + "b"] = Projector(Operator(kron(i2, proj(vec), i3)))
    for lab, col in (("Z", 0), ("Z+", 1), ("Z-", 2)):
        P[lab] = Projector(Operator(kron(i2, i2, proj(app[:, col]))))

    # Pair projectors: a-label followed by b-label, e.g. "z+z-".
    for la in ("z+", "z-"):
        for lb in ("z+", "z-", "x+", "x-"):
            P[la + lb] = Projector(Operator(P[la + "a"].mat @ P[lb + "b"].mat))

    singlet = (kron(z_plus, z_minus) - kron(z_minus, z_plus)) / np.sqrt(2)
    P["s0"] = Projector(Operator(kron(proj(singlet), i3)))
    psi0 = Ket(kron(singlet, app[:, 0]), "Psi0")
    psi2 = Ket(
        (kron(z_plus, z_minus, app[:, 1]) - kron(z_minus, z_plus, app[:, 2]))
        / np.sqrt(2),
        "Psi2",
    )
    P["Psi2"] = psi2.projector()
    for la in ("z+", "z-"):
        for lb in ("z+", "z-", "x+", "x-"):
            for lz in ("Z", "Z+", "Z-"):
                P[la + lb + lz] = Projector(
                    Operator(P[la + lb].mat @ P[lz].mat)
                )
    P["s0Z"] = Projector(Operator(P["s0"].mat @ P["Z"].mat))

    cyc_plus = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.complex128)
    measure = kron(proj(z_plus), i2, cyc_plus) + kron(proj(z_minus), i2, cyc_plus.T)

    grid = TimeGrid((0, 1, 2, 3, 4, 5))
    ident = Operator(np.eye(12, dtype=np.complex128))
    ps = PropagatorSet(grid, (ident, ident, ident, Operator(measure), ident))

    zz = dec(P, "z+z+", "z+z-", "z-z+", "z-z-")
    zx = dec(P, "z+x+", "z+x-", "z-x+", "z-x-")
    s0d = dec(P, "s0")
    g1_ready = dec(P, "z+z-Z", "z-z+Z")
    g_out = dec(P, "z+z-Z+", "z-z+Z-")
    g4_out = dec(P, "z+x+Z+", "z+x-Z+", "z-x+Z-", "z-x-Z-")

    xx_members = []
    for la in ("x+", "x-"):
        for lb in ("x+", "x-"):
            xx_members.append(
                (la + lb, Projector(Operator(P[la + "a"].mat @ P[lb + "b"].mat)))
            )
    xx = DecompositionOfIdentity(tuple(xx_members))

    pure = pure_families(psi0)
    fam = {
        "F0": pure(ps, (0, 1, 2, 3), [s0d] * 3, name="F0"),
        "F1": pure(ps, (0, 1, 2, 3), [zz] * 3, name="F1"),
        "F2": pure(ps, (0, 1, 2, 3), [s0d, zz, zz], name="F2"),
        "F3": pure(ps, (0, 1, 2, 3), [xx] * 3, name="F3"),
        "F4": pure(ps, (0, 1, 2, 3), [zx] * 3, name="F4"),
        "G1": pure(ps, (0, 3, 4, 5), [g1_ready, g_out, g_out], name="G1"),
        "G2": pure(ps, (0, 3, 4, 5), [dec(P, "s0Z"), g_out, g_out], name="G2"),
        "G4": pure(ps, (0, 3, 4, 5), [dec(P, "s0Z"), g4_out, g4_out], name="G4"),
    }

    # Flight geometry: particle a at x = -t, particle b at x = +t; the
    # apparatus sits on a's worldline around the measurement step.
    domain = (-8.0, 8.0)
    events: dict[str, TaggedEvent] = {}
    for j in (1, 2, 3):
        surface = Hypersurface.flat(float(j), *domain)
        for lab in ("z+", "z-", "x+", "x-"):
            events[f"a-{lab}-t{j}"] = TaggedEvent.local(
                f"a-{lab}-t{j}", Region.at([-j], surface),
                projector=lab + "a", time_index=j,
            )
            events[f"b-{lab}-t{j}"] = TaggedEvent.local(
                f"b-{lab}-t{j}", Region.at([j], surface),
                projector=lab + "b", time_index=j,
            )
    s4 = Hypersurface.flat(4.0, *domain)
    events["Za-out-t4"] = TaggedEvent.local(
        "Za-out-t4", Region.at([-4], s4), projector="Z+", time_index=4
    )
    events["s0-t1"] = TaggedEvent.entangled(
        "s0-t1",
        (Region.at([-1], Hypersurface.flat(1.0, *domain)),
         Region.at([1], Hypersurface.flat(1.0, *domain))),
        projector="s0",
        time_index=1,
    )

    anticorrelated = lambda s: event_probability(
        s.family("F1"),
        [a for a in s.family("F1").alphas() if a[1] in ("z+z-", "z-z+") and a[1] == a[2] == a[3]],
    )

    expected = (
        Expectation(
            "F1: anticorrelated z branches carry all the probability",
            PROVENANCE_PAPER,
            anticorrelated,
            1.0,
        ),
        Expectation("F1: the (z+a, z-b) history has probability 1/2",
                    PROVENANCE_PAPER, prob("F1", "Psi0", "z+z-", "z+z-", "z+z-"), 0.5),
        Expectation("F4 support holds exactly four histories",
                    PROVENANCE_PAPER, support_size("F4"), 4.0),
        Expectation(
            "F4: every joint history has probability 1/4",
            PROVENANCE_PAPER,
            lambda s: max(abs(p - 0.25) for _, p in support(s.family("F4"))),
            0.0,
        ),
        Expectation("F4: S_bx is uncorrelated with S_az",
                    PROVENANCE_PAPER,
                    cond("F4", {"t1": "z+x+"}, {"t1": "z+x+|z+x-"}), 0.5),
        Expectation("F3: x-basis anticorrelation mirrors the z-basis one",
                    PROVENANCE_PAPER, prob("F3", "Psi0", "x+x-", "x+x-", "x+x-"), 0.5),
        Expectation("F0: the singlet unitary history has probability one",
                    PROVENANCE_TRIVIAL, prob("F0", "Psi0", "s0", "s0", "s0"), 1.0),
        Expectation("G1: outcome Z+ pairs with (z+a, z-b) at probability 1/2",
                    PROVENANCE_PAPER,
                    prob("G1", "Psi0", "z+z-Z", "z+z-Z+", "z+z-Z+"), 0.5),
        Expectation("G2: collapse-style branches are equiprobable",
                    PROVENANCE_PAPER,
                    prob("G2", "Psi0", "s0Z", "z+z-Z+", "z+z-Z+"), 0.5),
        Expectation("G4: outcome-correlated x_b histories carry 1/4 each",
                    PROVENANCE_PAPER,
                    prob("G4", "Psi0", "s0Z", "z+x+Z+", "z+x+Z+"), 0.25),
        Expectation("G1 retrodiction: outcome Z+ implies z+a before the measurement",
                    PROVENANCE_DERIVED,
                    cond("G1", {"t3": "z+z-Z"}, {"t5": "z+z-Z+"}), 1.0),
        Expectation("F1 and F3 are kinematically incompatible",
                    PROVENANCE_DERIVED, kinematic("F1", "F3"), 1.0, tolerance=0.0),
        Expectation("F0 and F1 are kinematically incompatible",
                    PROVENANCE_DERIVED, kinematic("F0", "F1"), 1.0, tolerance=0.0),
        Expectation(
            "the post-measurement MQS state does not commute with the Z+ projector",
            PROVENANCE_DERIVED,
            lambda s: s.projectors["Psi2"].op.commutator_norm(s.projectors["Z+"].op),
            0.1,
            kind="greater",
        ),
        Expectation(
            "spacelike a-side z vs b-side x Heisenberg projectors commute",
            PROVENANCE_DERIVED,
            lambda s: commutation_check(s, s.events["a-z+-t1"], s.events["b-x+-t2"]).norm,
            0.0,
            tolerance=1e-12,
        ),
    )

    return Scenario(
        name="epr",
        propagators=ps,
        kets={"Psi0": psi0, "Psi2": psi2},
        projectors=P,
        families=fam,
        events=events,
        expected=expected,
        description=(
            "Singlet pair flying apart with a z-spin measurement on particle a: "
            "perfect anticorrelation, uncorrelated mixed-axis descriptions, and "
            "measurement families in one incompatible collection."
        ),
    )

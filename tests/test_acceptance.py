"""Acceptance suite: every headline claim of the engine, one test per
criterion, each printing its own pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random

import numpy as np

from conhist.famspec import parse, scenario_to_famspec, serialize, try_parse
from conhist.framework import (
    CLASS_DYNAMIC,
    CLASS_KINEMATIC,
    common_refinement,
    extend,
)
from conhist.hilbert import DecompositionOfIdentity, Ket
from conhist.histories import (
    Family,
    InconsistentFamilyError,
    conditional_probability,
    consistency_check,
    event_probability,
    histories_with_slots,
    probabilities,
    support,
    time_reverse,
    weight_table,
)
from conhist.relativistic import (
    CovarianceMap,
    EmbeddingImpossibleError,
    boost,
    classify_interval,
    commutation_check,
    covariance_check,
    embed_events,
    transform_scenario,
    validate_foliation,
    SpacetimePoint,
)
from conhist.scenarios import BUILDERS

SCN = {name: builder() for name, builder in BUILDERS.items()}


def _report(criterion: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {criterion:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {criterion}: {text}"


def test_criterion_01_hardy_joint_detection():
    fam = SCN["hardy"].family("unitary-output")
    p = event_probability(fam, histories_with_slots(fam, ["e", "ebar"]))
    _report(1, abs(p - 1 / 12) <= 1e-9, f"joint (e, ebar) detection = {p!r} vs 1/12")


def test_criterion_02_hardy_inferences():
    scn = SCN["hardy"]
    p1 = conditional_probability(
        scn.family("b-first-inference"), {"t2": "d"}, {"t1": "ebar"}
    )
    p2 = conditional_probability(
        scn.family("a-first-inference"), {"t2": "dbar"}, {"t1": "e"}
    )
    fam = scn.family("arm-pair")
    p3 = event_probability(fam, histories_with_slots(fam, ["d", "dbar"]))
    ok = abs(p1 - 1) <= 1e-9 and abs(p2 - 1) <= 1e-9 and abs(p3) <= 1e-12
    _report(2, ok, f"inferences {p1!r}, {p2!r}; Pr(d and dbar) = {p3!r}")


def test_criterion_03_hardy_blocker():
    fam = SCN["hardy"].family("blocker")
    report = consistency_check(fam)
    refused = False
    try:
        probabilities(fam)
    except InconsistentFamilyError:
        refused = True
    ok = (not report.consistent) and report.max_normalized_overlap > 0.1 and refused
    _report(
        3, ok,
        "arm-event + later outcome-event family is inconsistent "
        f"(max normalized overlap {report.max_normalized_overlap:.3f}) and refused",
    )


def test_criterion_04_spin_half():
    scn = SCN["spin-half"]
    table = probabilities(scn.family("F1"))
    p_plus = table.probability(("z+X", "x+", "x+", "x+"))
    p_minus = table.probability(("z+X", "x-", "x-", "x-"))
    remerge = consistency_check(scn.family("F1-remerge"))
    retro = conditional_probability(scn.family("G1"), {"t3": "x+X"}, {"t5": "x+X+"})
    ok = (
        abs(p_plus - 0.5) <= 1e-9
        and abs(p_minus - 0.5) <= 1e-9
        and not remerge.consistent
        and abs(retro - 1.0) <= 1e-9
    )
    _report(
        4, ok,
        f"F1 = ({p_plus:.9f}, {p_minus:.9f}); re-merge inconsistent; "
        f"G1 retrodiction = {retro!r}",
    )


def test_criterion_05_epr():
    scn = SCN["epr"]
    f1 = scn.family("F1")
    anti = event_probability(
        f1,
        [a for a in f1.alphas() if a[1] in ("z+z-", "z-z+") and a[1] == a[2] == a[3]],
    )
    f4 = scn.family("F4")
    sup = support(f4)
    four_equal = len(sup) == 4 and all(abs(p - 0.25) <= 1e-9 for _, p in sup)
    cond = conditional_probability(f4, {"t1": "z+x+"}, {"t1": "z+x+|z+x-"})
    ok = abs(anti - 1.0) <= 1e-9 and four_equal and abs(cond - 0.5) <= 1e-9
    _report(
        5, ok,
        f"anticorrelation = {anti!r}; F4 four equal quarters; "
        f"Pr(S_bx | S_az) = {cond!r}",
    )


def test_criterion_06_wavepacket():
    scn = SCN["wavepacket"]
    sup = support(scn.family("F1"))
    two_equal = len(sup) == 2 and all(abs(p - 0.5) <= 1e-9 for _, p in sup)
    g_times = scn.family("G1").time_labels
    cond = conditional_probability(
        scn.family("G1"), {g_times[1]: "b1.AB"}, {g_times[2]: "AB"}
    )
    ok = two_equal and abs(cond - 1.0) <= 1e-9
    _report(
        6, ok,
        f"F1 support = two equal-weight trajectories; "
        f"Pr(b-trajectory | A untriggered) = {cond!r}",
    )


def test_criterion_07_compatibility_classifications():
    scn = SCN["spin-half"]
    fams = [scn.family(n) for n in ("F0", "F1", "F2")]
    pairwise = all(
        common_refinement(a, b).classification == CLASS_KINEMATIC
        for i, a in enumerate(fams)
        for b in fams[i + 1:]
    )
    # three-time dynamic example: slotwise-commuting but jointly inconsistent
    from conhist.dynamics import PropagatorSet, TimeGrid

    ps = PropagatorSet.trivial(TimeGrid((0, 1, 2)), 2)
    z = Ket(np.array([1, 0]), "z+")
    x_dec = DecompositionOfIdentity.from_basis(
        [Ket(np.array([1, 1]) / np.sqrt(2)), Ket(np.array([1, -1]) / np.sqrt(2))],
        ["x+", "x-"],
    )
    z_dec = DecompositionOfIdentity.from_basis(
        [Ket(np.array([1, 0])), Ket(np.array([0, 1]))], ["z+", "z-"]
    )
    ident = DecompositionOfIdentity.trivial(2)
    f = Family.pure(ps, (0, 1, 2), z, [x_dec, ident])
    g = Family.pure(ps, (0, 1, 2), z, [ident, z_dec])
    dynamic = common_refinement(f, g).classification == CLASS_DYNAMIC
    f1 = scn.family("F1")
    ext = common_refinement(f1, extend(f1, [4.0]))
    ok = pairwise and dynamic and ext.compatible
    _report(
        7, ok,
        "F0/F1/F2 pairwise kinematic-incompatible; constructed pair "
        "dynamic-incompatible; F vs extend(F) compatible",
    )


def test_criterion_08_spacelike_commutators(spacelike_local_event_pairs):
    worst = 0.0
    total = 0
    for name, count in (("epr", 100), ("wavepacket", 100)):
        scn = SCN[name]
        pairs = spacelike_local_event_pairs(scn, count, seed=808)
        assert len(pairs) == count
        for e, g in pairs:
            result = commutation_check(scn, e, g)
            assert result.spacelike
            worst = max(worst, result.norm)
            total += 1
    _report(
        8, total == 200 and worst < 1e-12,
        f"{total} spacelike Heisenberg commutators, worst norm {worst:.3e}",
    )


def test_criterion_09_relativistic_geometry():
    rng = np.random.default_rng(909)
    sign_ok = True
    for _ in range(1000):
        p = SpacetimePoint(*rng.uniform(-10, 10, size=2))
        q = SpacetimePoint(*rng.uniform(-10, 10, size=2))
        v = rng.uniform(-0.9, 0.9)
        if classify_interval(p, q) != classify_interval(boost(p, v), boost(q, v)):
            sign_ok = False
            break
    scn = SCN["wavepacket"]
    mid = int(scn.propagators.grid.values[2])
    embedded = embed_events(
        [
            scn.events["int3-t1"],
            scn.events[f"int3-t{mid}"],
            scn.events["bp1"],
            scn.events["bp2"],
        ]
    )
    fol_ok = validate_foliation(embedded.foliation).valid
    witness = None
    try:
        embed_events([scn.events["psi-t1"], scn.events["psi-boosted"]])
    except EmbeddingImpossibleError as exc:
        witness = exc.witness
    ok = sign_ok and fol_ok and witness in ("psi-t1", "psi-boosted")
    _report(
        9, ok,
        f"interval signs invariant; interleaved embedding valid; "
        f"crossing entangled events rejected (witness {witness})",
    )


def test_criterion_10_covariance():
    all_ok = True
    details = []
    for name in sorted(BUILDERS):
        scn = SCN[name]
        maps = CovarianceMap.seeded(scn.propagators, seed=10)
        primed = transform_scenario(scn, maps, seed=10)
        report = covariance_check(scn, maps, primed)
        all_ok &= report.passed and report.propagator_residual < 1e-10
        details.append(f"{name}: residual {report.propagator_residual:.2e}")
    _report(10, all_ok, "; ".join(details))


def test_criterion_11_structural_properties(heisenberg_chains):
    # weight normalization + time reversal + reference independence
    norm_ok = reversal_ok = ref_ok = True
    for scn in SCN.values():
        for fam in scn.families.values():
            if consistency_check(fam).consistent:
                if abs(probabilities(fam).normalization - 1.0) > 1e-9:
                    norm_ok = False
            rev = time_reverse(fam)
            fwd = dict(weight_table(fam).entries)
            bwd = dict(weight_table(rev).entries)
            for alpha, w in fwd.items():
                if abs(bwd[tuple(reversed(alpha))] - w) > 1e-9:
                    reversal_ok = False
            last = len(fam.propagators.grid) - 1
            for ref in (0, last):
                for w, adj in zip(fwd.values(), heisenberg_chains(fam, fwd, ref), strict=True):
                    if abs(np.linalg.norm(adj) ** 2 - w) > 1e-9:
                        ref_ok = False

    # famspec round trip on the exported corpus
    from conhist.scenarios.wavepacket import build_wavepacket, default_intervals

    corpus = [
        SCN["spin-half"], SCN["epr"], SCN["hardy"],
        build_wavepacket(14, 6, 2, 12, default_intervals(14, 2)),
    ]
    round_trip_ok = True
    for scn in corpus:
        text = scenario_to_famspec(scn)
        doc = parse(text)
        s1 = serialize(doc)
        if serialize(parse(s1)) != s1:
            round_trip_ok = False
        doc2 = parse(s1)
        for name, fam in doc.families.items():
            w1 = weight_table(fam).entries
            w2 = weight_table(doc2.families[name]).entries
            for (a1, v1), (a2, v2) in zip(w1, w2):
                if a1 != a2 or abs(v1 - v2) > 1e-15:
                    round_trip_ok = False

    # parser totality on 10^4 random inputs
    rng = random.Random(1111)
    fuzz_ok = True
    for _ in range(10_000):
        n = rng.randint(0, 64)
        text = "".join(chr(rng.randint(1, 0x24F)) for _ in range(n))
        try:
            try_parse(text)
        except Exception:  # noqa: BLE001 - totality means no escape at all
            fuzz_ok = False
            break

    ok = norm_ok and reversal_ok and ref_ok and round_trip_ok and fuzz_ok
    _report(
        11, ok,
        f"normalization {norm_ok}, time reversal {reversal_ok}, reference "
        f"independence {ref_ok}, famspec round trip {round_trip_ok}, "
        f"fuzz totality {fuzz_ok}",
    )

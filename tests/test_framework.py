import collections
from pathlib import Path

import numpy as np
import pytest

from conhist import framework, hilbert
from conhist.dynamics import PropagatorSet, TimeGrid
from conhist.famspec import parse
from conhist.framework import (
    CLASS_COMMON,
    CLASS_DYNAMIC,
    CLASS_IDENTICAL,
    CLASS_KINEMATIC,
    CLASS_REFINEMENT,
    FamilyMismatchError,
    KinematicWitness,
    common_refinement,
    extend,
    is_refinement,
)
from conhist.hilbert import (
    DecompositionOfIdentity, DensityOperator, Ket, Operator, Projector, projector_onto_span,
)
from conhist.histories import Family, consistency_check, time_reverse, weight_table
from conhist.relativistic import CovarianceMap
from conhist.scenarios import build

DATA = Path(__file__).parent / "data"

Z_PLUS = Ket(np.array([1, 0]), "z+")
Z_MINUS = Ket(np.array([0, 1]), "z-")
X_PLUS = Ket(np.array([1, 1]) / np.sqrt(2), "x+")
X_MINUS = Ket(np.array([1, -1]) / np.sqrt(2), "x-")

Z_DEC = DecompositionOfIdentity.from_basis([Z_PLUS, Z_MINUS], ["z+", "z-"])
X_DEC = DecompositionOfIdentity.from_basis([X_PLUS, X_MINUS], ["x+", "x-"])
IDENT = DecompositionOfIdentity.trivial(2)


@pytest.fixture
def ps():
    return PropagatorSet.trivial(TimeGrid((0, 1, 2, 3)), 2)


def density(ket):
    return DensityOperator.from_projector(ket.projector())


def same_weights(a, b):
    def stripped(fam):
        out = {}
        for alpha, w in weight_table(fam).entries:
            if w > 1e-12:
                out[tuple(x for x in alpha if x != "I")] = w
        return out

    ta, tb = stripped(a), stripped(b)
    return set(ta) == set(tb) and all(abs(ta[k] - tb[k]) < 1e-12 for k in ta)


class TestExtend:
    def test_identity_insertion_preserves_weights(self, ps):
        fam = Family.pure(ps, (0, 1, 3), Z_PLUS, [X_DEC, X_DEC], name="F")
        ext = extend(fam, [2.0])
        assert ext.time_indices == (0, 1, 2, 3)
        assert same_weights(fam, ext)

    def test_extend_picks_the_nearest_grid_time(self):
        # grid times 1 and 1.0000000001 are both within 1e-9 of the time asked
        # for; the nearer is the one meant, so the family gains a new time
        doc = parse((DATA / "near_grid_times.fam").read_text())
        fam = doc.family("F")
        ext = extend(fam, [1.0000000001])
        assert ext.time_indices == (0, 1, 2)
        with pytest.raises(ValueError, match="already present"):
            extend(fam, [1.0])

    def test_extend_unitary_family_support_unchanged(self, ps):
        zdec = DecompositionOfIdentity.from_projector(Z_PLUS.projector(), "z+")
        fam = Family.pure(ps, (0, 1), Z_PLUS, [zdec])
        ext = extend(fam, [2.0, 3.0])
        from conhist.histories import support

        sup = support(ext)
        assert len(sup) == 1
        assert sup[0][1] == pytest.approx(1.0)

    def test_duplicate_time_rejected(self, ps):
        fam = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        with pytest.raises(ValueError):
            extend(fam, [1.0])

    def test_unknown_time_rejected(self, ps):
        fam = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        with pytest.raises(KeyError):
            extend(fam, [1.5])

    def test_extend_commutes(self, ps):
        fam = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        ab = extend(extend(fam, [2.0]), [3.0])
        ba = extend(extend(fam, [3.0]), [2.0])
        assert ab.time_indices == ba.time_indices
        assert same_weights(ab, ba)

    def test_extend_before_pure_initial_rejected(self, ps):
        fam = Family.pure(ps, (1, 2), Z_PLUS, [X_DEC])
        with pytest.raises(ValueError):
            extend(fam, [0.0])

    @pytest.mark.parametrize("name", ["F1", "G1"])
    def test_extend_reversed_family_before_its_final_state(self, name):
        # after time reversal the state sits at the last slot, so the free
        # times before it may be added and the weights stay put
        rev = time_reverse(build("spin-half").families[name])
        grid, anchor = rev.propagators.grid, rev.time_indices[-1]
        free = [j for j in range(anchor) if j not in rev.time_indices]
        assert free
        ext = extend(rev, [grid.values[j] for j in free])
        assert ext.initial_slot == len(ext) - 1
        kept = [ext.time_indices.index(j) for j in rev.time_indices]
        weights = dict(weight_table(rev).entries)
        for alpha, w in weight_table(ext).entries:
            assert abs(w - weights[tuple(alpha[k] for k in kept)]) < 1e-12

    def test_extend_reversed_family_after_its_final_state_rejected(self, ps):
        rev = time_reverse(Family.pure(ps, (1, 2), Z_PLUS, [X_DEC]))
        assert extend(rev, [rev.propagators.grid.values[0]]).initial_slot == 2
        with pytest.raises(ValueError, match="fixed final state to times after that state"):
            extend(rev, [rev.propagators.grid.values[-1]])

    def test_splitting_zero_weight_member_preserves_probabilities(self):
        # the member orthogonal to the initial state carries no weight, so
        # splitting it must leave every positive probability unchanged
        from conhist.hilbert import projector_onto_span
        from conhist.histories import consistency_check, probabilities

        dim3 = PropagatorSet.trivial(TimeGrid((0, 1, 2)), 3)
        e = [Ket(np.eye(3)[:, k]) for k in range(3)]
        psi = Ket(np.eye(3)[:, 0], "psi")
        coarse_dec = DecompositionOfIdentity(
            (("occupied", e[0].projector()), ("empty", projector_onto_span(e[1:]))),
        )
        fine_dec = DecompositionOfIdentity(
            (("occupied", e[0].projector()), ("e1", e[1].projector()), ("e2", e[2].projector())),
        )
        fam_c = Family.pure(dim3, (0, 1, 2), psi, [coarse_dec, coarse_dec])
        fam_f = Family.pure(dim3, (0, 1, 2), psi, [fine_dec, fine_dec])
        assert is_refinement(fam_c, fam_f)
        assert consistency_check(fam_c).consistent
        assert consistency_check(fam_f).consistent
        pc = {a: p for a, p in probabilities(fam_c).items() if p > 1e-12}
        pf = {a: p for a, p in probabilities(fam_f).items() if p > 1e-12}
        assert pc == {("psi", "occupied", "occupied"): pytest.approx(1.0)}
        assert pf == {("psi", "occupied", "occupied"): pytest.approx(1.0)}

    def test_extend_then_refine_reproduces_delayed_split(self, ps):
        # extending the split family and refining the new identity slot with
        # the x basis rebuilds the delayed-split structure
        f1 = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        ext = extend(f1, [2.0])
        refined = Family.pure(ps, (0, 1, 2), Z_PLUS, [X_DEC, X_DEC])
        assert is_refinement(ext, refined)


class TestIsRefinement:
    def test_reflexive(self, ps):
        fam = Family.pure(ps, (0, 1, 2), Z_PLUS, [X_DEC, Z_DEC])
        assert is_refinement(fam, fam)

    def test_identity_refined_by_basis(self, ps):
        coarse = Family.pure(ps, (0, 1), Z_PLUS, [IDENT])
        fine = Family.pure(ps, (0, 1), Z_PLUS, [Z_DEC])
        assert is_refinement(coarse, fine)
        assert not is_refinement(fine, coarse)

    def test_incompatible_bases_are_not_refinements(self, ps):
        f = Family.pure(ps, (0, 1), Z_PLUS, [Z_DEC])
        g = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        assert not is_refinement(f, g)
        assert not is_refinement(g, f)

    def test_transitive(self, ps):
        dim4 = PropagatorSet.trivial(TimeGrid((0, 1)), 4)
        basis = [Ket(np.eye(4)[:, k]) for k in range(4)]
        full = DecompositionOfIdentity.from_basis(basis, ["a", "b", "c", "d"])
        halves = DecompositionOfIdentity(
            (
                ("ab", projector_onto_span(basis[:2])),
                ("cd", projector_onto_span(basis[2:])),
            )
        )
        ident4 = DecompositionOfIdentity.trivial(4)
        psi = Ket(np.eye(4)[:, 0])
        f_coarse = Family.pure(dim4, (0, 1), psi, [ident4])
        f_mid = Family.pure(dim4, (0, 1), psi, [halves])
        f_fine = Family.pure(dim4, (0, 1), psi, [full])
        assert is_refinement(f_coarse, f_mid)
        assert is_refinement(f_mid, f_fine)
        assert is_refinement(f_coarse, f_fine)

    def test_requires_shared_dynamics(self, ps):
        other = PropagatorSet(
            TimeGrid((0, 1, 2, 3)),
            tuple(Operator(np.array([[0, 1], [1, 0]], dtype=complex)) for _ in range(3)),
        )
        f = Family.pure(ps, (0, 1), Z_PLUS, [Z_DEC])
        g = Family.pure(other, (0, 1), Z_PLUS, [Z_DEC])
        with pytest.raises(FamilyMismatchError):
            is_refinement(f, g)


class TestCommonRefinement:
    def test_self_is_identical(self, ps):
        fam = Family.pure(ps, (0, 1, 2), Z_PLUS, [X_DEC, X_DEC], name="F1")
        verdict = common_refinement(fam, fam)
        assert verdict.classification == CLASS_IDENTICAL
        assert verdict.compatible

    @pytest.mark.parametrize(
        "scenario,name",
        [("spin-half", "F1-remerge"), ("wavepacket", "F2-remerge"), ("hardy", "blocker")],
    )
    def test_inconsistent_family_with_itself_is_dynamic(self, scenario, name):
        # compatibility is defined for consistent families only, so a family
        # that fails the consistency conditions is not compatible even with
        # itself; the verdict carries the family's own report
        fam = build(scenario).families[name]
        verdict = common_refinement(fam, fam)
        assert verdict.classification == CLASS_DYNAMIC and not verdict.compatible
        assert verdict.witness.to_dict() == consistency_check(fam).to_dict()
        assert not verdict.witness.consistent

    def test_extension_is_refinement_classified(self, ps):
        fam = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        verdict = common_refinement(fam, extend(fam, [2.0]))
        assert verdict.classification == CLASS_REFINEMENT
        assert verdict.compatible

    def test_kinematic_incompatibility(self, ps):
        # delayed split vs immediate split disagree at t1: [x, z] != 0
        f1 = Family.pure(ps, (0, 1, 2), Z_PLUS, [X_DEC, X_DEC], name="F1")
        f2 = Family.pure(ps, (0, 1, 2), Z_PLUS, [Z_DEC, X_DEC], name="F2")
        verdict = common_refinement(f1, f2)
        assert verdict.classification == CLASS_KINEMATIC
        assert isinstance(verdict.witness, KinematicWitness)
        assert verdict.witness.time_label == "t1"
        # ||[x+, z+]||_F = 1/sqrt(2)
        assert verdict.witness.commutator_norm == pytest.approx(1 / np.sqrt(2))
        assert not verdict.compatible

    def test_dynamic_incompatibility(self, ps):
        # slotwise-commuting pair whose product family is inconsistent:
        # F = z+ (.) {x+-} (.) {I},  G = z+ (.) {I} (.) {z+-}, trivial dynamics.
        # The product z+ (.) {x+-} (.) {z+-} has |<K1, K2>| = 1/4 for the
        # (x+ z+), (x- z+) pair.
        f = Family.pure(ps, (0, 1, 2), Z_PLUS, [X_DEC, IDENT], name="F")
        g = Family.pure(ps, (0, 1, 2), Z_PLUS, [IDENT, Z_DEC], name="G")
        verdict = common_refinement(f, g)
        assert verdict.classification == CLASS_DYNAMIC
        assert not verdict.compatible
        overlaps = {
            (a[1], a[2], b[1], b[2]): o for a, b, o in verdict.witness.violations
        }
        assert overlaps[("x+", "z+", "x-", "z+")] == pytest.approx(0.25)

    def test_common_refinement_found(self, ps):
        # families splitting at different times in the same basis combine
        f = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC], name="F")
        g = Family.pure(ps, (0, 2), Z_PLUS, [X_DEC], name="G")
        verdict = common_refinement(f, g)
        assert verdict.classification == CLASS_COMMON
        assert verdict.compatible
        assert verdict.refinement is not None
        from conhist.histories import consistency_check

        assert consistency_check(verdict.refinement).consistent

    def test_verdict_symmetric(self, ps):
        cases = []
        f1 = Family.pure(ps, (0, 1, 2), Z_PLUS, [X_DEC, X_DEC])
        f2 = Family.pure(ps, (0, 1, 2), Z_PLUS, [Z_DEC, X_DEC])
        cases.append((f1, f2))
        f = Family.pure(ps, (0, 1, 2), Z_PLUS, [X_DEC, IDENT])
        g = Family.pure(ps, (0, 1, 2), Z_PLUS, [IDENT, Z_DEC])
        cases.append((f, g))
        cases.append((f1, extend(f1, [3.0])))
        for a, b in cases:
            assert (
                common_refinement(a, b).classification
                == common_refinement(b, a).classification
            )

    def test_consistent_refinement_of_compatible_pair(self, ps):
        f = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        g = Family.pure(ps, (0, 1, 2), Z_PLUS, [X_DEC, X_DEC])
        verdict = common_refinement(f, g)
        assert verdict.compatible
        assert verdict.classification == CLASS_REFINEMENT

    def test_finer_family_first_is_refinement_classified(self, ps):
        f = Family.pure(ps, (0, 1, 2), Z_PLUS, [X_DEC, X_DEC])
        g = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        verdict = common_refinement(f, g)
        assert verdict.classification == CLASS_REFINEMENT
        assert verdict.refinement is f

    @pytest.mark.parametrize("finer_first", [False, True])
    def test_inconsistent_finer_family_is_dynamic_incompatible(self, finer_first):
        # F1-remerge refines the family that keeps only its anchor, but is
        # inconsistent: the verdict carries F1-remerge's own report
        remerge = build("spin-half").family("F1-remerge")
        trivial = (DecompositionOfIdentity.trivial(remerge.dim),) * (len(remerge) - 1)
        anchor_only = Family(remerge.propagators, remerge.time_indices,
                             remerge.decompositions[:1] + trivial, remerge.initial, 0, "anchor")
        pair = (remerge, anchor_only) if finer_first else (anchor_only, remerge)
        verdict = common_refinement(*pair)
        assert verdict.classification == CLASS_DYNAMIC
        assert not verdict.compatible and verdict.refinement is None
        assert not verdict.witness.consistent
        assert verdict.witness == consistency_check(remerge)

    def test_same_density_operator_is_comparable(self, ps):
        # two equal density operators built apart from each other
        f = Family.general(ps, (0, 1), [IDENT, X_DEC], rho=density(Z_PLUS))
        g = Family.general(ps, (0, 2), [IDENT, X_DEC], rho=density(Z_PLUS))
        verdict = common_refinement(f, g)
        assert verdict.classification == CLASS_COMMON
        assert verdict.refinement.initial is f.initial

    def test_different_density_operator_rejected(self, ps):
        f = Family.general(ps, (0, 1), [IDENT, X_DEC], rho=density(Z_PLUS))
        g = Family.general(ps, (0, 1), [IDENT, X_DEC], rho=density(X_PLUS))
        with pytest.raises(FamilyMismatchError, match="same initial density operator"):
            common_refinement(f, g)

    def test_initial_mismatch_rejected(self, ps):
        f = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        g = Family.pure(ps, (0, 1), X_PLUS, [X_DEC])
        with pytest.raises(FamilyMismatchError):
            common_refinement(f, g)

    def test_near_initial_states_rejected(self):
        # |<up|tilt>| is 1 within 1e-9, yet the anchored projectors differ by
        # 1.4e-5 in Frobenius norm: two initial states, not one that fails to
        # commute with itself
        doc = parse((DATA / "near_initial_states.fam").read_text())
        f, g = doc.family("F"), doc.family("G")
        for a, b in ((f, g), (g, f)):
            with pytest.raises(FamilyMismatchError, match="same initial state"):
                common_refinement(a, b)

    def test_initial_state_up_to_a_phase_is_comparable(self, ps):
        f = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        g = Family.pure(ps, (0, 1), Ket(1j * Z_PLUS.amps, "z+"), [X_DEC])
        assert common_refinement(f, g).classification == CLASS_IDENTICAL

    def test_pure_and_density_operator_families_rejected(self, ps):
        f = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        g = Family.general(ps, (0, 1), [Z_DEC, X_DEC], rho=density(Z_PLUS))
        for a, b in ((f, g), (g, f)):
            with pytest.raises(FamilyMismatchError, match="same initial condition"):
                common_refinement(a, b)

    @pytest.mark.parametrize("state,classification", [
        (Z_PLUS, CLASS_COMMON), (X_PLUS, CLASS_DYNAMIC),
    ])
    def test_density_operator_product_keeps_both_anchor_columns(self, ps, state, classification):
        # z at the anchored time in one family, x at the next in the other: the
        # product keeps z at the anchored time whichever family comes first, so
        # it refines both and the verdict does not depend on the order
        rho = density(state)
        f = Family.general(ps, (0, 1), [Z_DEC, IDENT], rho=rho, name="F")
        g = Family.general(ps, (0, 1), [IDENT, X_DEC], rho=rho, name="G")
        for a, b in ((f, g), (g, f)):
            verdict = common_refinement(a, b)
            assert verdict.classification == classification
            if verdict.compatible:
                labels = [dec.labels for dec in verdict.refinement.decompositions]
                assert labels == [("z+", "z-"), ("x+", "x-")]
                assert is_refinement(f, verdict.refinement)
                assert is_refinement(g, verdict.refinement)

    def test_trivial_decomposition_built_once_and_only_for_missing_times(self, ps, monkeypatch):
        built = []
        real = DecompositionOfIdentity.trivial
        monkeypatch.setattr(DecompositionOfIdentity, "trivial", staticmethod(
            lambda dim: built.append(dim) or real(dim)))
        f = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC], name="F")
        g = Family.pure(ps, (0, 2), Z_PLUS, [X_DEC], name="G")
        assert common_refinement(f, g).classification == CLASS_COMMON
        assert built == [2]
        built.clear()
        f = Family.pure(ps, (0, 1, 2), Z_PLUS, [X_DEC, IDENT], name="F")
        g = Family.pure(ps, (0, 1, 2), Z_PLUS, [IDENT, Z_DEC], name="G")
        assert common_refinement(f, g).classification == CLASS_DYNAMIC
        assert built == []


# a zero member (`sparse []`) beside full decompositions, and {I, 0} beside {I}
ZERO_MEMBER_TEXT = """
space q dim 2
ket up in q = [1, 0]
ket down in q = [0, 1]
unitary idq on q = [1 0 0 1]
proj pup on q = span(up)
proj pdown on q = span(down)
proj one on q = sparse [0 0: 1, 1 1: 1]
proj none on q = sparse []
decomp z on q = {pup, pdown}
decomp z0 on q = {pup, none, pdown}
decomp whole on q = {one, none}
times tg = [0, 1, 2]
family fz times tg initial up { at 0: identity at 1: z at 2: z } steps { idq idq }
family fz0 times tg initial up { at 0: identity at 1: z0 at 2: z } steps { idq idq }
family iz times tg initial up { at 0: identity at 1: identity at 2: z } steps { idq idq }
family wz times tg initial up { at 0: identity at 1: whole at 2: z } steps { idq idq }
family wi times tg initial up { at 0: identity at 1: whole at 2: identity } steps { idq idq }
"""


@pytest.mark.parametrize("a,b,mutual", [
    ("fz", "fz0", True), ("iz", "wz", True), ("wi", "iz", False),
])
def test_zero_member_counts_for_nothing_in_the_refinement_test(a, b, mutual):
    # b refines a, and a refines b too when they differ only by zero members;
    # a refinement verdict names the second family when each refines the other
    doc = parse(ZERO_MEMBER_TEXT)
    fa, fb = doc.family(a), doc.family(b)
    assert is_refinement(fa, fb)
    assert is_refinement(fb, fa) == mutual
    for f, g in ((fa, fb), (fb, fa)):
        verdict = common_refinement(f, g)
        assert verdict.classification == CLASS_REFINEMENT
        assert verdict.refinement is (g if mutual else fb)


def _unitary(rng, dim, block):
    """A random unitary, block diagonal on blocks of ``block`` under a random
    permutation of the rows."""
    u = np.zeros((dim, dim), dtype=complex)
    for s in range(0, dim, block):
        z = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
        u[s:s + block, s:s + block] = np.linalg.qr(z)[0]
    return u[rng.permutation(dim)]


def _span_decomposition(u, groups, prefix):
    return DecompositionOfIdentity(tuple(
        (f"{prefix}{k}", Projector(Operator(u[:, g] @ u[:, g].conj().T)))
        for k, g in enumerate(groups)
    ))


@pytest.mark.parametrize("dim,block,n_fine,n_coarse", [(6, 6, 3, 2), (120, 6, 12, 4)])
def test_families_from_one_random_basis(dim, block, n_fine, n_coarse):
    # the fine family's members span groups of one random basis and the
    # coarse family's span unions of those groups; at d = 120 the members are
    # block diagonal on 20 blocks, so the products run block by block
    rng = np.random.default_rng(1906 + dim)
    u = _unitary(rng, dim, block)
    fine_groups = np.array_split(rng.permutation(dim), n_fine)
    coarse_groups = [np.concatenate(gs) for gs in np.array_split(fine_groups, n_coarse)]
    ps = PropagatorSet.trivial(TimeGrid((0, 1)), dim)
    psi = Ket(u[:, 0], "psi")

    def family(dec, name):
        return Family.pure(ps, (0, 1), psi, [dec], name=name)

    fine = family(_span_decomposition(u, fine_groups, "f"), "fine")
    coarse = family(_span_decomposition(u, coarse_groups, "c"), "coarse")
    shuffled = family(_span_decomposition(u, fine_groups[::-1], "s"), "shuffled")
    members = [p.op for _, p in fine.decompositions[1].members]
    groups = hilbert._blocks(*members)
    assert sum(1 if g is None else len(g) for g in groups) == dim // block
    assert is_refinement(coarse, fine) and not is_refinement(fine, coarse)
    for a, b in ((coarse, fine), (fine, coarse)):
        verdict = common_refinement(a, b)
        assert verdict.classification == CLASS_REFINEMENT
        assert verdict.refinement is fine
    verdict = common_refinement(fine, shuffled)
    assert verdict.classification == CLASS_IDENTICAL and verdict.refinement is fine

    # rotate a basis vector of the first fine group towards one of the last
    a, b = fine_groups[0][0], fine_groups[-1][0]
    rotated = u.copy()
    rotated[:, a], rotated[:, b] = (
        np.cos(0.3) * u[:, a] + np.sin(0.3) * u[:, b],
        -np.sin(0.3) * u[:, a] + np.cos(0.3) * u[:, b],
    )
    tilted = family(_span_decomposition(rotated, fine_groups, "r"), "tilted")
    for f, g in ((coarse, tilted), (tilted, fine)):
        verdict = common_refinement(f, g)
        assert verdict.classification == CLASS_KINEMATIC
        assert verdict.witness.time_label == "t1"
        assert not is_refinement(f, g) and not is_refinement(g, f)


def commutator_by_two_products(p, q):
    return float(np.linalg.norm(hilbert._product(p, q) - hilbert._product(q, p)))


class TestOneBlockSearchPerPair:
    """At d = 196 each operand's pattern is scanned once, when it is built,
    and each (P, Q) pair costs one join of the two operands' labels over a
    whole compatibility query: the commutator, the refinement test and the
    ``P Q`` member come from the same one."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """Pattern scans by the ids of their matrices, and joins by the ids
        of their operands; the scanned matrices are kept, so no id is reused."""
        counts = {"scans": collections.Counter(), "joins": collections.Counter()}
        real_scan, real_blocks = hilbert._pattern_labels, hilbert._blocks
        scanned = []

        def scan(mat):
            counts["scans"][id(mat)] += 1
            scanned.append(mat)
            return real_scan(mat)

        def blocks(*ops):
            counts["joins"][tuple(id(op) for op in ops)] += 1
            return real_blocks(*ops)

        monkeypatch.setattr(hilbert, "_pattern_labels", scan)
        monkeypatch.setattr(hilbert, "_blocks", blocks)
        return counts

    def test_product_loop_and_commutator_norm(self, scans):
        scn = build("wavepacket")
        # every operator of the build was scanned once, as it was made
        assert set(scans["scans"].values()) == {1}
        f, g = scn.families["F1"], scn.families["G1"]
        columns = framework._aligned((f, g))[1]
        # the columns that reach the product loop: distinct and nontrivial
        pairs = [
            (p.op, q.op)
            for dec_f, dec_g in columns
            if min(len(dec_f), len(dec_g)) > 1 and not framework._same_decomposition(dec_f, dec_g)
            for _, p in dec_f.members
            for _, q in dec_g.members
        ]
        assert len(pairs) == 27  # the nine intervals against G1's three members
        operands = {id(op.mat) for pair in pairs for op in pair}
        assert operands <= set(scans["scans"])
        scans["scans"].clear()
        scans["joins"].clear()
        assert common_refinement(f, g).classification == CLASS_COMMON
        # only the new P Q members were scanned, each once
        assert set(scans["scans"].values()) == {1} and not operands & set(scans["scans"])
        for p, q in pairs:
            assert scans["joins"][id(p), id(q)] + scans["joins"][id(q), id(p)] == 1
        for p, q in pairs:
            scans["scans"].clear()
            scans["joins"].clear()
            norm = p.commutator_norm(q)
            assert not scans["scans"] and sum(scans["joins"].values()) == 1
            assert norm == commutator_by_two_products(p, q)

    def test_heisenberg_form_and_conjugation_scan_only_bare_matrices(self, scans):
        scn = build("wavepacket")
        fam = scn.families["F1"]
        ps, j = fam.propagators, fam.time_indices[-1]
        p = fam.decompositions[-1].members[0][1]
        maps = CovarianceMap.seeded(ps)
        for reference in (0, 1):
            scans["scans"].clear()
            ps.heisenberg_matrix(p.mat, j, reference)
            # the bare member and the product T(r, j) P; propagators and their
            # adjoints carry their labels (T(1, j) is a new product, scanned once)
            assert id(p.mat) in scans["scans"]
            assert sum(scans["scans"].values()) == 2 + reference
        scans["scans"].clear()
        maps.conjugate(p.op, j)
        assert sum(scans["scans"].values()) == 1  # only the product L_j P

    def test_witness_norm_is_the_two_product_formula(self):
        scn = build("wavepacket")
        f, g = scn.families["F0"], scn.families["F1"]
        witness = common_refinement(f, g).witness
        assert isinstance(witness, KinematicWitness)
        idx = f.time_indices.index(f.propagators.grid.labels.index(witness.time_label))
        p = f.decompositions[idx].projector(witness.label_a)
        q = g.decompositions[idx].projector(witness.label_b)
        assert witness.commutator_norm == commutator_by_two_products(p.op, q.op) > 0
        assert witness.commutator_norm == p.op.commutator_norm(q.op)


import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conhist.dynamics import PropagatorSet, TimeGrid
from conhist.hilbert import (
    DecompositionOfIdentity,
    DensityOperator,
    Ket,
    Operator,
    Projector,
)
from conhist import hilbert, histories
from conhist.histories import (
    EPS_ABS,
    EPS_REL,
    Family,
    FamilyTooLargeError,
    InconsistentFamilyError,
    MixedInitial,
    PureInitial,
    UnknownLabelError,
    ZeroConditionProbabilityError,
    chain_operator,
    chain_operator_schrodinger,
    conditional_probability,
    consistency_check,
    event_probability,
    histories_with_slots,
    probabilities,
    support,
    time_reverse,
    weight,
    weight_table,
    _analyze,
    pure_families,
)
from conhist.scenarios import build

Z_PLUS = Ket(np.array([1, 0]), "z+")
Z_MINUS = Ket(np.array([0, 1]), "z-")
X_PLUS = Ket(np.array([1, 1]) / np.sqrt(2), "x+")
X_MINUS = Ket(np.array([1, -1]) / np.sqrt(2), "x-")

Z_DEC = DecompositionOfIdentity.from_basis([Z_PLUS, Z_MINUS], ["z+", "z-"])
X_DEC = DecompositionOfIdentity.from_basis([X_PLUS, X_MINUS], ["x+", "x-"])


def trivial_ps(n_times, dim=2):
    return PropagatorSet.trivial(TimeGrid(tuple(range(n_times))), dim)


def random_unitary(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return Operator(q * (np.diag(r) / np.abs(np.diag(r))))


def random_orthobasis_dec(dim, rng, labels=None):
    u = random_unitary(dim, rng).mat
    kets = [Ket(u[:, k]) for k in range(dim)]
    labels = labels or [f"b{k}" for k in range(dim)]
    return DecompositionOfIdentity.from_basis(kets, labels)


def tilted_dec(theta):
    c, s = np.cos(theta), np.sin(theta)
    return DecompositionOfIdentity.from_basis([Ket(np.array([c, s])), Ket(np.array([-s, c]))], ["a", "b"])


def random_family(seed, dim=3, n_times=3):
    rng = np.random.default_rng(seed)
    ps = PropagatorSet(
        TimeGrid(tuple(range(n_times))),
        tuple(random_unitary(dim, rng) for _ in range(n_times - 1)),
    )
    initial = Ket(random_unitary(dim, rng).mat[:, 0], "psi0")
    decs = [random_orthobasis_dec(dim, rng) for _ in range(n_times - 1)]
    return Family.pure(ps, tuple(range(n_times)), initial, decs)


class TestPureAnchor:
    def test_anchor_must_project_onto_the_initial_state(self):
        anchor = DecompositionOfIdentity.from_basis([Z_PLUS, Z_MINUS], ["psi", "other"])
        with pytest.raises(ValueError, match="does not project onto the initial state"):
            Family(trivial_ps(2), (0, 1), (anchor, X_DEC), PureInitial(X_PLUS, "psi"))
        # a global phase is not a different state
        Family(trivial_ps(2), (0, 1), (anchor, X_DEC), PureInitial(Ket(1j * Z_PLUS.amps), "psi"))

    @pytest.mark.parametrize("amps", [[1.0], [1.0, 0.0, 0.0]])
    def test_anchor_of_another_dimension_is_refused(self, amps):
        # a 1-dim ket's outer product would broadcast against the member,
        # a 3-dim one would raise numpy's broadcasting error
        anchor = DecompositionOfIdentity.from_basis([Z_PLUS, Z_MINUS], ["psi", "other"])
        with pytest.raises(ValueError, match="does not project onto the initial state"):
            Family(trivial_ps(2), (0, 1), (anchor, X_DEC), PureInitial(Ket(np.array(amps)), "psi"))

    def test_initial_label_must_be_an_anchor_member(self):
        anchor = DecompositionOfIdentity.from_basis([Z_PLUS, Z_MINUS], ["psi", "other"])
        message = r"initial state 'up' is not a member of the anchored decomposition \['psi', 'other'\]"
        with pytest.raises(ValueError, match=message):
            Family(trivial_ps(2), (0, 1), (anchor, X_DEC), PureInitial(Z_PLUS, "up"))

    def test_families_share_one_anchor(self):
        pure = pure_families(X_PLUS)
        f, g = pure(trivial_ps(2), (0, 1), [Z_DEC], name="f"), pure(trivial_ps(3), (0, 2), [Z_DEC])
        assert f.decompositions[0] is g.decompositions[0]
        assert f.decompositions[0].labels == ("x+", "~x+")
        built = Family.pure(trivial_ps(2), (0, 1), X_PLUS, [Z_DEC], name="f")
        assert weight_table(f).entries == weight_table(built).entries


class TestChainOperator:
    def test_unitary_history_chain_is_initial_projector(self):
        ps = trivial_ps(3)
        fam = Family.pure(
            ps, (0, 1, 2), Z_PLUS,
            [DecompositionOfIdentity.from_projector(Z_PLUS.projector(), "z+")] * 2,
        )
        k = chain_operator(("z+", "z+", "z+"), fam)
        assert np.allclose(k.op.mat, Z_PLUS.projector().mat)

    def test_orthogonal_slots_give_zero(self):
        ps = trivial_ps(2)
        fam = Family.pure(ps, (0, 1), Z_MINUS, [Z_DEC])
        k = chain_operator(("z-", "z+"), fam)
        assert np.linalg.norm(k.op.mat) == 0.0

    def test_norm_bound(self):
        fam = random_family(3)
        for alpha in fam.alphas():
            assert chain_operator(alpha, fam).op.norm() <= 1 + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_heisenberg_and_schrodinger_forms_agree(self, seed):
        # dual-path computation over random 3-time families
        fam = random_family(seed)
        for alpha in fam.alphas():
            k1 = chain_operator(alpha, fam)
            k2 = chain_operator_schrodinger(alpha, fam)
            assert np.linalg.norm(k1.op.mat - k2.op.mat) < 1e-12

    def test_unknown_label(self):
        fam = random_family(0)
        with pytest.raises(UnknownLabelError):
            chain_operator(("nope",) * 3, fam)


class TestWeights:
    def test_z_basis_weights(self):
        ps = trivial_ps(2)
        fam = Family.pure(ps, (0, 1), Z_PLUS, [Z_DEC])
        assert weight(("z+", "z+"), fam) == pytest.approx(1.0)
        assert weight(("z+", "z-"), fam) == pytest.approx(0.0)

    def test_x_basis_weights(self):
        ps = trivial_ps(2)
        fam = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        assert weight(("z+", "x+"), fam) == pytest.approx(0.5)
        assert weight(("z+", "x-"), fam) == pytest.approx(0.5)

    def test_born_rule_two_time_oracle(self):
        # two-time weights are |<phi| T |psi>|^2
        rng = np.random.default_rng(5)
        u = random_unitary(3, rng)
        ps = PropagatorSet(TimeGrid((0, 1)), (u,))
        psi = Ket(random_unitary(3, rng).mat[:, 0], "psi0")
        dec = random_orthobasis_dec(3, rng, ["a", "b", "c"])
        fam = Family.pure(ps, (0, 1), psi, [dec])
        for label, proj in dec.members:
            basis_vec = proj.mat @ u.mat @ psi.amps
            expect = float(np.vdot(basis_vec, basis_vec).real)
            assert weight(("psi0", label), fam) == pytest.approx(expect)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(2, 4))
    def test_weights_sum_to_one(self, seed, dim, n_times):
        fam = random_family(seed, dim=dim, n_times=n_times)
        table = weight_table(fam)
        assert table.normalization == pytest.approx(1.0, abs=1e-9)

    def test_reference_index_independence(self):
        # the Heisenberg chain operators give the engine's weights on the
        # first and on the last reference surface
        fam = random_family(11, dim=3, n_times=4)
        last = len(fam.propagators.grid) - 1
        for alpha in fam.alphas():
            for ref in (0, last):
                k = chain_operator(alpha, fam, ref=ref).op.mat
                assert weight(alpha, fam) == pytest.approx(np.linalg.norm(k) ** 2, abs=1e-12)

    def test_mixed_initial_matches_pure_average(self):
        # rho = (|z+><z+| + |z-><z-|)/2 weights are the average of the pure runs
        ps = trivial_ps(2)
        rho = DensityOperator(Operator(np.eye(2) / 2))
        fam_mixed = Family.general(ps, (0, 1), [Z_DEC, X_DEC], rho=rho)
        fam_up = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        fam_dn = Family.pure(ps, (0, 1), Z_MINUS, [X_DEC])
        for zlab in ("z+", "z-"):
            for xlab in ("x+", "x-"):
                w_mixed = weight((zlab, xlab), fam_mixed)
                w_up = weight(("z+", xlab), fam_up) if zlab == "z+" else 0.0
                w_dn = weight(("z-", xlab), fam_dn) if zlab == "z-" else 0.0
                assert w_mixed == pytest.approx((w_up + w_dn) / 2)


class TestDecoherenceMatrixOracle:
    """Brute-force the full decoherence functional from chain-operator
    matrices and the inner-product definitions, and compare against the
    engine's optimized evaluation."""

    def brute_force(self, fam):
        from conhist.hilbert import op_inner, rho_inner
        from conhist.histories import MixedInitial

        alphas = fam.alphas()
        chains = [chain_operator(a, fam).op for a in alphas]
        out = {}
        for i, a in enumerate(alphas):
            for j, b in enumerate(alphas):
                if isinstance(fam.initial, MixedInitial):
                    # Heisenberg form of the initial density operator at ref 0
                    rho_mat = fam.propagators.heisenberg_matrix(
                        fam.initial.rho.mat, fam.time_indices[fam.initial_slot], 0
                    )
                    from conhist.hilbert import DensityOperator, Operator

                    rho_h = DensityOperator(Operator(rho_mat))
                    out[(a, b)] = rho_inner(rho_h, chains[i], chains[j])
                else:
                    out[(a, b)] = op_inner(chains[i], chains[j])
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pure_initial_matches(self, seed):
        fam = random_family(seed, dim=3, n_times=3)
        oracle = self.brute_force(fam)
        for alpha in fam.alphas():
            assert weight(alpha, fam) == pytest.approx(
                oracle[(alpha, alpha)].real, abs=1e-12
            )
        report = consistency_check(fam)
        worst_oracle = max(
            abs(v) for (a, b), v in oracle.items() if a != b
        )
        if worst_oracle > 1e-10:
            assert not report.consistent
            assert report.violations[0][2] == pytest.approx(worst_oracle, rel=1e-9)
        else:
            assert report.consistent

    def test_mixed_initial_matches(self):
        rng = np.random.default_rng(77)
        ps = PropagatorSet(
            TimeGrid((0, 1, 2)),
            (random_unitary(3, rng), random_unitary(3, rng)),
        )
        # random full-rank density operator
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho_mat = m @ m.conj().T
        rho_mat /= np.trace(rho_mat).real
        rho = DensityOperator(Operator(rho_mat))
        decs = [random_orthobasis_dec(3, rng) for _ in range(3)]
        fam = Family.general(ps, (0, 1, 2), decs, rho=rho)
        oracle = self.brute_force(fam)
        for alpha in fam.alphas():
            assert weight(alpha, fam) == pytest.approx(
                oracle[(alpha, alpha)].real, abs=1e-12
            )
        # total weight for a unit-trace initial condition is one
        assert sum(v.real for (a, b), v in oracle.items() if a == b) == pytest.approx(1.0)
        assert weight_table(fam).normalization == pytest.approx(1.0, abs=1e-9)


class TestEngineAgainstHeisenbergOracle:
    """The engine's Schrodinger pass against ``chain_operator``, the Heisenberg
    form built one history at a time, on random small families.  Steps and
    bases are drawn either Haar-random or aligned with the computational
    basis, so families with exactly vanishing chains come up as well.  A
    bounded set of seeded d = 96 block-structured families puts both sides
    on ``hilbert._product``'s block path."""

    @staticmethod
    def family(seed, dim, n_slots, kind, blocks=False):
        """With ``blocks``, one random partition of the basis into blocks of 1
        to 12 states is shared by every step, a permutation with phases inside
        each block, and every decomposition: 0/1 diagonals, or one block's
        rank-1 projector and its complement.  From d = 96 up, every product
        of steps and projectors then takes ``hilbert._product``'s block path
        with components of several sizes."""
        rng = np.random.default_rng(seed)
        eye = np.eye(dim, dtype=complex)
        if blocks:
            cuts = np.cumsum(rng.integers(1, 13, size=dim))
            parts = np.split(np.arange(dim), cuts[cuts < dim])

        def unitary():
            if blocks:
                mat = np.zeros((dim, dim), dtype=complex)
                for b in parts:
                    mat[rng.permutation(b), b] = np.exp(2j * np.pi * rng.random(len(b)))
                return Operator(mat)
            if rng.random() < 0.5:
                return random_unitary(dim, rng)
            return Operator(np.diag(np.exp(2j * np.pi * rng.random(dim))))

        def decomposition():
            if not blocks:
                if rng.random() < 0.5:
                    return random_orthobasis_dec(dim, rng)
                return DecompositionOfIdentity.from_basis([Ket(c) for c in eye], list("abcd")[:dim])
            if rng.random() < 0.5:
                owner = rng.integers(int(rng.integers(2, 4)), size=dim)
                members = [np.diag((owner == m).astype(complex)) for m in np.unique(owner)]
            else:
                v = np.zeros(dim, dtype=complex)
                b = parts[int(rng.integers(len(parts)))]
                v[b] = rng.normal(size=len(b)) + 1j * rng.normal(size=len(b))
                members = [np.outer(v, v.conj()) / np.vdot(v, v).real]
                members.append(eye - members[0])
            return DecompositionOfIdentity(
                tuple((f"m{k}", Projector(Operator(m))) for k, m in enumerate(members))
            )

        grid = TimeGrid(tuple(range(n_slots + 1)))
        ps = PropagatorSet(grid, tuple(unitary() for _ in range(n_slots)))
        times = tuple(sorted(rng.choice(n_slots + 1, size=n_slots, replace=False).tolist()))
        decs = [decomposition() for _ in range(n_slots)]
        if kind == "mixed":
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m[:, 0] = 0.0  # rank-deficient, so sqrt(rho) has a kernel
            rho = m @ m.conj().T
            rho = DensityOperator(Operator(rho / np.trace(rho).real))
            return Family(ps, times, tuple(decs), MixedInitial(rho), int(rng.integers(n_slots)))
        if kind == "none":
            return Family.general(ps, times, decs)
        # a basis state keeps the anchored {state, complement} pair 0/1 diagonal
        psi = eye[:, 0] if blocks or rng.random() < 0.5 else random_unitary(dim, rng).mat[:, 0]
        fam = Family.pure(ps, times, Ket(psi, "psi0"), decs[1:])
        return time_reverse(fam) if kind == "reversed" else fam

    @staticmethod
    def assert_engine_matches_oracle(fam):
        analysis = _analyze(fam)
        # n_slots * d * eps * |seed|_F, with |sqrt(rho)|_F = 1 and |I|_F = sqrt(d)
        seed_norm = np.sqrt(fam.dim) if fam.initial is None else 1.0
        assert analysis.floor == pytest.approx(len(fam) * fam.dim * np.finfo(float).eps * seed_norm)
        alphas = fam.alphas()
        kept = set(analysis.nonzero.tolist())
        last = len(fam.propagators.grid) - 1
        for ref in (0, last):
            chains = [chain_operator(a, fam, ref=ref).op.mat for a in alphas]
            if isinstance(fam.initial, MixedInitial):
                j = fam.time_indices[fam.initial_slot]
                rho = fam.propagators.heisenberg_matrix(fam.initial.rho.mat, j, ref)
                oracle = np.array(
                    [[np.trace(rho @ ka.conj().T @ kb) for kb in chains] for ka in chains]
                )
            else:
                oracle = np.array([[np.vdot(ka, kb) for kb in chains] for ka in chains])
            for i in range(len(alphas)):
                if i in kept:
                    assert analysis.weights[i] == pytest.approx(oracle[i, i].real, abs=1e-12)
                else:
                    assert analysis.weights[i] == 0.0
                    assert oracle[i, i].real <= analysis.floor**2
            sub = oracle[np.ix_(analysis.nonzero, analysis.nonzero)]
            gram = analysis.rows @ analysis.rows.conj().T
            assert np.abs(gram - sub).max(initial=0.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**31 - 1), st.integers(2, 3), st.integers(1, 4),
        st.sampled_from(["pure", "reversed", "mixed", "none"]),
    )
    def test_weights_and_gram_match(self, seed, dim, n_slots, kind):
        self.assert_engine_matches_oracle(self.family(seed, dim, n_slots, kind))

    @pytest.mark.parametrize("seed", range(12))
    def test_block_structured_weights_and_gram_match(self, seed):
        kind = ("pure", "reversed", "mixed", "none")[seed % 4]
        fam = self.family(seed, 96, 1 + seed % 3, kind, blocks=True)
        step, member = fam.propagators.steps[0], fam.decompositions[-1].members[0][1].op
        sizes = {idx.shape[1] for idx in hilbert._blocks(step, member)}
        assert len(sizes) > 1 and max(sizes) < fam.dim  # split, into more than one size
        self.assert_engine_matches_oracle(fam)


class TestConsistency:
    def test_two_time_families_always_consistent(self):
        for seed in range(5):
            fam = random_family(seed, dim=3, n_times=2)
            assert consistency_check(fam).consistent

    def test_remerge_family_inconsistent(self):
        ps = trivial_ps(4)
        fam = Family.pure(ps, (0, 1, 2, 3), Z_PLUS, [X_DEC, X_DEC, Z_DEC])
        report = consistency_check(fam)
        assert not report.consistent
        # hand value: the violating pairs have |overlap| = 1/4 and weights 1/4
        assert report.violations[0][2] == pytest.approx(0.25)
        assert report.max_normalized_overlap == pytest.approx(1.0)

    def test_consistent_split_family(self):
        ps = trivial_ps(4)
        fam = Family.pure(ps, (0, 1, 2, 3), Z_PLUS, [X_DEC, X_DEC, X_DEC])
        report = consistency_check(fam)
        assert report.consistent
        assert report.violations == ()

    def test_purely_imaginary_overlap_violates(self):
        # z+ (.) {y+-} (.) {x+-} has purely imaginary off-diagonals +-i/4
        # (hand expansion: <z+|y+><y+|x+><x+|y-><y-|z+> = (1/2)(1-i)^2/4 = -i/4),
        # so a test of the real part alone would pass it; the full condition fails it.
        ps = trivial_ps(3)
        y_plus = Ket(np.array([1, 1j]) / np.sqrt(2), "y+")
        y_minus = Ket(np.array([1, -1j]) / np.sqrt(2), "y-")
        y_dec = DecompositionOfIdentity.from_basis([y_plus, y_minus], ["y+", "y-"])
        fam = Family.pure(ps, (0, 1, 2), Z_PLUS, [y_dec, X_DEC])
        report = consistency_check(fam)
        assert not report.consistent
        assert report.violations[0][2] == pytest.approx(0.25)

    def test_violations_in_enumeration_order(self):
        # each pair reads (earlier, later) in enumeration order; the list runs
        # by descending overlap, ties in pair order.  The second family has
        # 240 violations with 30 distinct overlaps.
        tilted = [X_DEC, Z_DEC, tilted_dec(0.3), X_DEC, Z_DEC]
        for fam in (random_family(4, dim=3, n_times=4), Family.pure(trivial_ps(6), range(6), Z_PLUS, tilted)):
            rank = {a: i for i, a in enumerate(fam.alphas())}
            report = consistency_check(fam)
            assert len(report.violations) > 1
            keys = [(-o, rank[a], rank[b]) for a, b, o in report.violations]
            assert all(ra < rb for _, ra, rb in keys)
            assert keys == sorted(keys)

    @staticmethod
    def whole_matrix_check(fam):
        """Violations and max normalized overlap from the whole Gram matrix,
        one row at a time."""
        analysis = _analyze(fam)
        gram, w = analysis.rows @ analysis.rows.conj().T, analysis.weights[analysis.nonzero]
        names = [analysis.alphas[k] for k in analysis.nonzero]
        found, max_norm = [], 0.0
        for a in range(len(w) - 1):
            overlap = np.abs(gram[a, a + 1:])
            scale = np.sqrt(w[a] * w[a + 1:])
            max_norm = max(max_norm, float((overlap / scale).max()))
            found += [(names[a], names[a + 1 + b], float(overlap[b]))
                      for b in np.flatnonzero(overlap > EPS_ABS + EPS_REL * scale)]
        return tuple(sorted(found, key=lambda v: -v[2])), max_norm

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gram_row_blocks_match_the_whole_matrix(self, monkeypatch, seed):
        # 8 chains: blocks of 2 and of 3 rows both leave one row over, which
        # joins the last block instead of forming a one-row block.  Reversed,
        # the last two chains differ next to the state, so they overlap.
        fam = time_reverse(random_family(seed, dim=2, n_times=4))
        violations, max_norm = self.whole_matrix_check(fam)
        assert len(fam.alphas()) == 8 and violations
        for rows in (None, 2, 3):
            if rows:
                monkeypatch.setattr(histories, "_GRAM_BLOCK_BYTES", rows * 16 * 8)
            report = consistency_check(fam)
            assert not report.consistent
            assert tuple(report.violations) == violations
            assert report.max_normalized_overlap == max_norm

    def test_violations_view(self):
        fam = random_family(4, dim=3, n_times=4)
        report = consistency_check(fam)
        view, pairs = report.violations, tuple(report.violations)
        assert len(view) == len(pairs) > 3
        assert all(isinstance(o, float) for _, _, o in pairs)
        assert (view[0], view[-1], view[-2]) == (pairs[0], pairs[-1], pairs[-2])
        assert view[1:3] == pairs[1:3] and isinstance(view[1:3], tuple)
        assert view[::-1] == pairs[::-1]
        with pytest.raises(IndexError):
            view[len(pairs)]
        assert view == pairs and pairs == view and hash(view) == hash(pairs)
        assert view != pairs[:-1] and view != list(pairs)
        again = consistency_check(fam)
        assert again == report and hash(again) == hash(report)

    @pytest.mark.parametrize("kw", [
        {"eps_abs": float("nan")}, {"eps_rel": float("nan")},
        {"eps_abs": float("inf")}, {"eps_rel": float("inf")},
        {"eps_abs": -1e-12}, {"eps_rel": -1e-10},
    ])
    def test_bad_tolerances_refused(self, kw):
        ps = trivial_ps(4)
        fam = Family.pure(ps, (0, 1, 2, 3), Z_PLUS, [X_DEC, X_DEC, X_DEC])
        with pytest.raises(ValueError):
            consistency_check(fam, **kw)

    def test_zero_tolerances_accepted(self):
        ps = trivial_ps(3)
        fam = Family.pure(ps, (0, 1, 2), Z_PLUS, [Z_DEC, Z_DEC])
        assert consistency_check(fam, eps_abs=0.0, eps_rel=0.0).consistent

    def test_zero_weight_histories_never_violate(self):
        ps = trivial_ps(3)
        fam = Family.pure(ps, (0, 1, 2), Z_PLUS, [Z_DEC, Z_DEC])
        report = consistency_check(fam)
        assert report.consistent


class TestAnalysisBudget:
    def test_oversized_split_refused_before_allocation(self):
        # 16,384 histories, under the enumeration cap; but sqrt(rho) splits
        # into 128 blocks of 128 x 128 rows at the first time (32 MiB) and
        # into 4.3 GB of chains at the second
        eye = np.eye(128)
        dec = DecompositionOfIdentity.from_basis([Ket(c) for c in eye], [f"b{k}" for k in range(128)])
        fam = Family.general(trivial_ps(2, 128), (0, 1), [dec, dec], DensityOperator(Operator(eye / 128)))
        tracemalloc.start()
        try:
            with pytest.raises(FamilyTooLargeError, match="splits the chains"):
                consistency_check(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_violation_arrays_charged_at_16_bytes_a_pair(self, monkeypatch):
        fam = random_family(4, dim=3, n_times=4)
        n = len(consistency_check(fam).violations)
        monkeypatch.setattr(histories, "_MAX_ANALYSIS_BYTES", 16 * n)
        assert len(consistency_check(fam).violations) == n
        monkeypatch.setattr(histories, "_MAX_ANALYSIS_BYTES", 16 * n - 1)
        with pytest.raises(FamilyTooLargeError, match="violating pairs"):
            consistency_check(fam)


class TestProbabilities:
    def test_refuses_inconsistent_families(self):
        ps = trivial_ps(4)
        fam = Family.pure(ps, (0, 1, 2, 3), Z_PLUS, [X_DEC, X_DEC, Z_DEC], name="bad")
        with pytest.raises(InconsistentFamilyError) as err:
            probabilities(fam)
        assert "single framework rule" in str(err.value)

    def test_thresholds_reach_the_gate(self):
        # the remerge family's violating overlaps are 1/4: refused at the
        # defaults, a sample space at an absolute threshold of 1
        ps = trivial_ps(4)
        fam = Family.pure(ps, (0, 1, 2, 3), Z_PLUS, [X_DEC, X_DEC, Z_DEC])
        table = probabilities(fam, eps_abs=1)
        assert table.normalization == pytest.approx(1.0)
        assert table.probability(("z+", "x+", "x+", "z+")) == pytest.approx(0.25)

    @pytest.mark.parametrize("kw", [{"eps_abs": float("nan")}, {"eps_rel": -1.0}])
    def test_bad_thresholds_refused(self, kw):
        fam = Family.pure(trivial_ps(3), (0, 1, 2), Z_PLUS, [Z_DEC, Z_DEC])
        with pytest.raises(ValueError, match="finite and non-negative"):
            probabilities(fam, **kw)

    def test_normalization_is_one_for_unit_initial(self):
        # two-time families are always consistent, so probabilities() accepts
        fam = random_family(2, n_times=2)
        table = probabilities(fam)
        assert table.normalization == pytest.approx(1.0, abs=1e-9)

    def test_support_sorted_descending(self):
        rng = np.random.default_rng(8)
        ps = trivial_ps(2, dim=3)
        psi = Ket(np.array([0.8, 0.6, 0.0]), "psi0")
        dec = DecompositionOfIdentity.from_basis(
            [Ket(np.eye(3)[:, k]) for k in range(3)], ["a", "b", "c"]
        )
        fam = Family.pure(ps, (0, 1), psi, [dec])
        sup = support(fam)
        probs = [p for _, p in sup]
        assert probs == sorted(probs, reverse=True)
        assert len(sup) == 2  # the "c" branch has zero probability
        assert sup[0][1] == pytest.approx(0.64)

    def test_conditional_probability(self):
        ps = trivial_ps(3)
        fam = Family.pure(ps, (0, 1, 2), Z_PLUS, [X_DEC, X_DEC])
        val = conditional_probability(fam, {"t1": "x+"}, {"t2": "x+"})
        assert val == pytest.approx(1.0)

    def test_conditional_zero_condition(self):
        ps = trivial_ps(3)
        fam = Family.pure(ps, (0, 1, 2), Z_PLUS, [Z_DEC, Z_DEC])
        with pytest.raises(ZeroConditionProbabilityError):
            conditional_probability(fam, {"t1": "z+"}, {"t2": "z-"})

    def test_event_probability_additive(self):
        ps = trivial_ps(2)
        fam = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        alphas = fam.alphas()
        assert event_probability(fam, alphas) == pytest.approx(1.0)
        assert event_probability(fam, []) == 0.0
        singles = [event_probability(fam, [a]) for a in alphas]
        assert sum(singles) == pytest.approx(1.0)

    def test_lookups_outside_the_sample_space(self):
        fam = Family.pure(trivial_ps(2), (0, 1), Z_PLUS, [X_DEC])
        # the pinned slot's complement is a valid label of zero weight, not a table row
        assert weight(("~z+", "x+"), fam) == 0.0
        table = probabilities(fam)
        assert table.probability(("z+", "x+")) == pytest.approx(0.5)
        with pytest.raises(UnknownLabelError):
            table.probability(("~z+", "x+"))
        with pytest.raises(UnknownLabelError):
            weight(("z+", "nope"), fam)

    def test_weight_agrees_with_the_table_row_by_row(self):
        # weight() is, bit for bit, the analysis's weight at the history's
        # mixed-radix position (first slot most significant), whichever slot
        # is anchored and whatever the initial condition; a pinned slot's
        # complement weighs 0.0
        fam = random_family(5, dim=3, n_times=4)
        back_anchor = DecompositionOfIdentity.from_projector(Z_PLUS.projector(), "psi")
        backward = Family(trivial_ps(3), (0, 1, 2), (X_DEC, Z_DEC, back_anchor),
                          PureInitial(Z_PLUS, "psi"), 2)
        mixed = Family.general(trivial_ps(3), (0, 2), [Z_DEC, X_DEC])
        bundled = [f for name in ("spin-half", "epr", "hardy") for f in build(name).families.values()]
        for f in (fam, backward, mixed, *bundled):
            weights = _analyze(f).weights
            for alpha in itertools.product(*(d.labels for d in f.decompositions)):
                row = 0
                for slot, label in enumerate(alpha):
                    labels = f.slot_labels(slot)
                    if label not in labels:
                        row = None
                        break
                    row = row * len(labels) + labels.index(label)
                assert weight(alpha, f) == (0.0 if row is None else float(weights[row]))

    def test_event_probability_unknown_label(self):
        ps = trivial_ps(2)
        fam = Family.pure(ps, (0, 1), Z_PLUS, [X_DEC])
        with pytest.raises(UnknownLabelError):
            event_probability(fam, [("z+", "nope")])

    def test_histories_with_slots(self):
        ps = trivial_ps(3)
        fam = Family.pure(ps, (0, 1, 2), Z_PLUS, [X_DEC, Z_DEC])
        subset = histories_with_slots(fam, ["x+", "z-"])
        assert subset == ((("z+", "x+", "z-"),))


class TestTimeReversal:
    def test_weights_preserved(self):
        fam = random_family(21, dim=3, n_times=4)
        rev = time_reverse(fam)
        fwd_table = {a: w for a, w in weight_table(fam).entries}
        rev_table = {a: w for a, w in weight_table(rev).entries}
        for alpha, w in fwd_table.items():
            assert rev_table[tuple(reversed(alpha))] == pytest.approx(w, abs=1e-12)

    def test_chain_operators_are_adjoints(self):
        # The reversed grid's earliest time is the original latest one, so the
        # adjoint identity holds between matched reference surfaces.
        fam = random_family(22, dim=2, n_times=3)
        rev = time_reverse(fam)
        last = len(fam.propagators.grid) - 1
        for alpha in fam.alphas():
            k_fwd = chain_operator(alpha, fam, ref=last)
            k_rev = chain_operator(tuple(reversed(alpha)), rev, ref=0)
            assert np.allclose(k_rev.op.mat, k_fwd.op.mat.conj().T, atol=1e-12)

    def test_verdict_preserved_both_ways(self):
        ps = trivial_ps(4)
        bad = Family.pure(ps, (0, 1, 2, 3), Z_PLUS, [X_DEC, X_DEC, Z_DEC])
        good = Family.pure(ps, (0, 1, 2, 3), Z_PLUS, [X_DEC, X_DEC, X_DEC])
        assert not consistency_check(time_reverse(bad)).consistent
        assert consistency_check(time_reverse(good)).consistent

    def test_unitary_family_support_preserved(self):
        ps = trivial_ps(3)
        zdec = DecompositionOfIdentity.from_projector(Z_PLUS.projector(), "z+")
        fam = Family.pure(ps, (0, 1, 2), Z_PLUS, [zdec, zdec])
        rev = time_reverse(fam)
        sup = support(rev)
        assert len(sup) == 1
        assert sup[0][1] == pytest.approx(1.0)

    def test_mixed_initial_rejected(self):
        ps = trivial_ps(2)
        fam = Family.general(
            ps, (0, 1), [Z_DEC, X_DEC], rho=DensityOperator(Operator(np.eye(2) / 2))
        )
        with pytest.raises(ValueError):
            time_reverse(fam)


class TestFamilyValidation:
    def test_initial_must_be_normalized(self):
        ps = trivial_ps(2)
        with pytest.raises(ValueError):
            Family.pure(ps, (0, 1), Ket(np.array([2.0, 0.0])), [Z_DEC])

    def test_decomposition_dim_must_match(self):
        ps = trivial_ps(2, dim=3)
        with pytest.raises(ValueError):
            Family.pure(ps, (0, 1), Ket(np.array([1, 0, 0])), [Z_DEC])

    def test_times_strictly_increasing(self):
        ps = trivial_ps(3)
        with pytest.raises(ValueError):
            Family.pure(ps, (1, 0), Z_PLUS, [Z_DEC])

import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conhist import hilbert
from conhist.famspec import parse, scenario_to_famspec
from conhist.hilbert import (
    TOL_PROJ,
    DecompositionOfIdentity,
    DensityOperator,
    DimensionMismatchError,
    Ket,
    Operator,
    Projector,
    is_projector,
    op_inner,
    projector_onto_span,
    rho_inner,
    unitarity_defect,
    validate_decomposition,
)
from conhist.scenarios import BUILDERS

RNG = np.random.default_rng(1234)


def random_operator(dim, rng=RNG):
    return Operator(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def random_ket(dim, rng=RNG):
    return Ket(rng.normal(size=dim) + 1j * rng.normal(size=dim))


Z_PLUS = Ket(np.array([1, 0]), "z+")
Z_MINUS = Ket(np.array([0, 1]), "z-")
X_PLUS = Ket(np.array([1, 1]) / np.sqrt(2), "x+")
X_MINUS = Ket(np.array([1, -1]) / np.sqrt(2), "x-")


class TestOpInner:
    def test_identity_trace(self):
        for d in (1, 2, 5):
            assert op_inner(Operator.identity(d), Operator.identity(d)) == pytest.approx(d)

    def test_spin_eigenprojector_overlap(self):
        # |<z+|x+>|^2 = 1/2 with |x+> = (|z+> + |z->)/sqrt(2)
        val = op_inner(Z_PLUS.projector().op, X_PLUS.projector().op)
        assert val == pytest.approx(0.5)

    def test_conjugate_symmetry_bruteforce(self):
        for _ in range(20):
            a, b = random_operator(4), random_operator(4)
            lhs = op_inner(a, b)
            # oracle: entrywise double sum of conj(a) * b
            direct = sum(
                a.mat[i, j].conjugate() * b.mat[i, j] for i in range(4) for j in range(4)
            )
            assert lhs == pytest.approx(direct)
            assert op_inner(b, a) == pytest.approx(lhs.conjugate())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            op_inner(Operator.identity(2), Operator.identity(3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_positive_definiteness(self, seed):
        rng = np.random.default_rng(seed)
        a = random_operator(4, rng)
        val = op_inner(a, a)
        assert val.real >= 0
        assert abs(val.imag) < 1e-12 * a.norm() ** 2


class TestRhoInner:
    def test_maximally_mixed_reduces_to_op_inner(self):
        rho = DensityOperator(Operator(np.eye(3) / 3))
        a, b = random_operator(3), random_operator(3)
        assert rho_inner(rho, a, b) == pytest.approx(op_inner(a, b) / 3)

    def test_pure_state_expansion_oracle(self):
        psi = random_ket(3).normalized()
        rho = DensityOperator.from_projector(psi.projector())
        a, b = random_operator(3), random_operator(3)
        # oracle: <psi| a^dag b |psi> by direct vector algebra
        direct = np.vdot(a.mat @ psi.amps, b.mat @ psi.amps)
        assert rho_inner(rho, a, b) == pytest.approx(direct)

    def test_unit_trace(self):
        rho = DensityOperator.from_projector(random_ket(4).projector())
        i4 = Operator.identity(4)
        assert rho_inner(rho, i4, i4) == pytest.approx(1.0)


class TestIsProjector:
    def test_identity(self):
        assert is_projector(Operator.identity(2)).ok

    def test_rank_one(self):
        assert is_projector(Z_PLUS.projector().op).ok

    def test_pauli_x_fails(self):
        pauli_x = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
        check = is_projector(pauli_x)
        assert not check.ok
        # X^2 = I, so the idempotency defect is ||X - I||
        assert check.idempotency_defect == pytest.approx(
            np.linalg.norm(pauli_x.mat - np.eye(2))
        )
        assert check.hermiticity_defect == pytest.approx(0.0)


class TestValidateDecomposition:
    def test_z_basis_valid(self):
        dec = DecompositionOfIdentity.from_basis([Z_PLUS, Z_MINUS], ["z+", "z-"])
        report = validate_decomposition(dec)
        assert report.valid

    def test_mismatched_members_invalid(self):
        # z+ and x- do not sum to I: defect ||z+ + x- - I|| = ||z+ - x+|| = 1
        total = Z_PLUS.projector().mat + X_MINUS.projector().mat
        defect = np.linalg.norm(total - np.eye(2))
        assert defect > 0.5
        with pytest.raises(ValueError):
            DecompositionOfIdentity(
                (("z+", Z_PLUS.projector()), ("x-", X_MINUS.projector()))
            )

    def test_single_member_identity(self):
        dec = DecompositionOfIdentity.trivial(3)
        assert validate_decomposition(dec).valid

    def test_label_rules(self):
        with pytest.raises(ValueError):
            DecompositionOfIdentity(
                (("a", Z_PLUS.projector()), ("a", Z_MINUS.projector()))
            )
        with pytest.raises(ValueError):
            DecompositionOfIdentity((("a,b", Projector.identity(2)),))


class TestProjectorOntoSpan:
    def test_single_ket(self):
        p = projector_onto_span([Z_PLUS])
        assert np.allclose(p.mat, [[1, 0], [0, 0]])

    def test_full_basis_gives_identity(self):
        p = projector_onto_span([Z_PLUS, Z_MINUS])
        assert np.allclose(p.mat, np.eye(2))

    def test_two_independent_kets_gram_schmidt_oracle(self):
        # Gram-Schmidt oracle: orthonormalize {z+, x+} by hand and sum outer
        # products; two independent vectors in dimension 2 span everything.
        v1 = Z_PLUS.amps
        v2 = X_PLUS.amps - np.vdot(v1, X_PLUS.amps) * v1
        v2 = v2 / np.linalg.norm(v2)
        oracle = np.outer(v1, v1.conj()) + np.outer(v2, v2.conj())
        p = projector_onto_span([Z_PLUS, X_PLUS])
        assert np.allclose(p.mat, oracle)
        assert np.allclose(p.mat, np.eye(2))
        assert p.rank == 2

    def test_dependent_kets_rank(self):
        p = projector_onto_span([Z_PLUS, Ket(2 * Z_PLUS.amps)])
        assert p.rank == 1

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            projector_onto_span([Ket(np.zeros(2))])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(2, 6))
    def test_output_is_projector(self, seed, n_kets, dim):
        rng = np.random.default_rng(seed)
        kets = [random_ket(dim, rng) for _ in range(n_kets)]
        p = projector_onto_span(kets)
        check = is_projector(p.op)
        assert check.hermiticity_defect < 1e-9
        assert check.idempotency_defect < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_single_ket_is_the_dense_formula_bit_for_bit(self, seed):
        # one ket's projector is formed on the ket's support only; it must
        # equal the SVD formula symmetrized over the whole matrix, byte for
        # byte, for sparse kets of every dimension up to 199
        rng = np.random.default_rng(seed)
        for _ in range(250):
            dim = int(rng.integers(2, 200))
            support = rng.choice(dim, size=int(rng.integers(1, min(dim, 12) + 1)), replace=False)
            amps = np.zeros(dim, dtype=complex)
            amps[support] = rng.normal(size=support.size) + 1j * rng.normal(size=support.size)
            if seed % 2:
                amps = amps.real + 0j  # real amplitudes, as the scenarios' kets mostly are
            u, s, _ = np.linalg.svd(amps[:, None], full_matrices=False)
            basis = u[:, s > hilbert.TOL_SPAN * s[0]]
            dense = basis @ basis.conj().T
            dense = (dense + dense.conj().T) / 2.0
            assert projector_onto_span([Ket(amps)]).mat.tobytes() == dense.tobytes()


class TestInvariantguards:
    def test_ket_finiteness(self):
        with pytest.raises(ValueError):
            Ket(np.array([np.inf, 0]))

    def test_operator_finiteness(self):
        with pytest.raises(ValueError):
            Operator(np.array([[np.nan, 0], [0, 1]]))

    def test_huge_finite_entries_build_without_warnings(self):
        # finiteness is tested entry by entry, not through an overflowing sum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Operator(np.full((2, 2), 1e308)).mat[0, 0] == 1e308
            for bad in (np.inf, -np.inf, np.nan, complex(0, np.inf)):
                mat = np.array([[1e308, bad], [1e308, 1e308]], dtype=complex)
                for entries in (mat, mat.T, mat[:, ::-1], mat.tolist()):
                    with pytest.raises(ValueError, match="entries must be finite"):
                        Operator(entries)

    def test_density_operator_invariants(self):
        with pytest.raises(ValueError):
            DensityOperator(Operator(np.diag([0.7, 0.7])))  # trace 1.4
        with pytest.raises(ValueError):
            DensityOperator(Operator(np.diag([1.5, -0.5])))  # negative eigenvalue

    def test_projector_trace_is_rank(self):
        p = projector_onto_span([random_ket(5), random_ket(5)])
        assert p.rank == 2
        assert p.op.trace().real == pytest.approx(2.0)

    def test_operators_are_immutable(self):
        op = Operator.identity(2)
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0


# -- block-wise checks against the dense formulas -------------------------------
#
# The oracles are the plain dense formulas.  With the one whole-matrix block
# (small or dense inputs, or a pattern that does not split) the checks must
# reproduce them bit for bit.  With more blocks only the order of
# summation changes, so they must agree within the rounding bound of a
# reordered product, ``2 eps * largest block * sum of squared Frobenius
# norms`` (a few ulps of the products' scale; the observed differences stay
# below a thousandth of it), and give the same verdict wherever that
# rounding cannot decide it.

EPS = np.finfo(float).eps


def dense_idempotency(m):
    return float(np.linalg.norm(m - m @ m))


def dense_unitarity(m):
    return float(np.linalg.norm(m.conj().T @ m - np.eye(len(m))))


def dense_completeness(mats):
    total = np.zeros_like(mats[0])
    for m in mats:
        total += m
    return float(np.linalg.norm(total - np.eye(len(total))))


def dense_max_overlap(mats):
    return max(
        (float(np.linalg.norm(a @ b)) for a, b in itertools.combinations(mats, 2)),
        default=0.0,
    )


def assert_matches_dense(got, want, mats):
    """``got`` is a block-wise defect of ``mats`` and ``want`` its dense oracle."""
    if one_block(*mats):
        assert got == want
        return
    largest = max(idx.shape[1] for idx in hilbert._blocks(*map(Operator, mats)))
    bound = 2 * EPS * largest * sum(float(np.linalg.norm(m)) ** 2 for m in mats)
    assert abs(got - want) <= bound
    if abs(want - TOL_PROJ) > bound:
        assert (got < TOL_PROJ) == (want < TOL_PROJ)


def one_block(*mats):
    """Whether ``_blocks`` gives ``mats`` the one whole-matrix group."""
    return hilbert._blocks(*map(Operator, mats))[0] is None


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / abs(np.diag(r)))


def random_blocks(rng, dim, largest):
    """A partition of range(dim) into blocks of 1..largest indices, scattered
    by a random permutation."""
    perm = rng.permutation(dim)
    cuts = np.cumsum(rng.integers(1, largest + 1, size=dim))
    return [b for b in np.split(perm, cuts[cuts < dim]) if b.size]


def block_members(rng, dim, blocks, m):
    """``m`` mutually orthogonal projectors summing to I, block diagonal on
    ``blocks``: each block's Haar basis is dealt out among the members."""
    mats = np.zeros((m, dim, dim), dtype=complex)
    for b in blocks:
        v = haar_unitary(rng, b.size)
        owner = rng.integers(0, m, size=b.size)
        for k in range(m):
            cols = v[:, owner == k]
            mats[k][np.ix_(b, b)] = cols @ cols.conj().T
    return list(mats)


def perturbation(rng, dim, blocks, kind):
    """Noise of Frobenius norm near TOL_PROJ: Hermitian inside the blocks, or
    non-Hermitian on a few entries anywhere (which may join blocks)."""
    noise = np.zeros((dim, dim), dtype=complex)
    if kind == "near":
        for b in blocks:
            x = rng.normal(size=(b.size, b.size)) + 1j * rng.normal(size=(b.size, b.size))
            noise[np.ix_(b, b)] = x + x.conj().T
    else:
        i, j = rng.integers(0, dim, size=(2, 4))
        noise[i, j] = rng.normal(size=4) + 1j * rng.normal(size=4)
    return noise * (TOL_PROJ * 10 ** rng.uniform(-0.5, 0.5) / np.linalg.norm(noise))


def decomposition_of(mats):
    """Stand-in for a decomposition that need not pass its own validation."""
    members = [(f"m{k}", SimpleNamespace(op=Operator(m))) for k, m in enumerate(mats)]
    return SimpleNamespace(dim=len(mats[0]), members=members)


def assert_checks_match_dense(members, unitary):
    p = members[0]
    check = is_projector(Operator(p))
    assert check.hermiticity_defect == float(np.linalg.norm(p - p.conj().T))
    assert_matches_dense(check.idempotency_defect, dense_idempotency(p), [p])
    report = validate_decomposition(decomposition_of(members))
    assert report.completeness_defect == dense_completeness(members)
    assert_matches_dense(report.max_pairwise_overlap, dense_max_overlap(members), members)
    assert_matches_dense(unitarity_defect(Operator(unitary)), dense_unitarity(unitary), [unitary])


class TestFrobSq:
    """``_frob_sq`` sums as ``np.linalg.norm`` does, so the one-block checks
    equal the dense formulas bit for bit, and ``_frob`` is its root."""

    @pytest.mark.parametrize("seed", range(20))
    def test_root_is_the_frobenius_norm(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 40))
        n, s = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        u = haar_unitary(rng, 12)
        x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        near = u + TOL_PROJ * (x + x.conj().T) / np.linalg.norm(x)
        for m in (
            rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
            rng.normal(size=(n, s, s)) + 1j * rng.normal(size=(n, s, s)),
            near.conj().T @ near - np.eye(12),  # a d = 12 near-unitary residual
        ):
            assert math.sqrt(hilbert._frob_sq(m)) == float(np.linalg.norm(m)) == hilbert._frob(m)


class TestBlockwiseChecks:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([12, 60, 96, 150]),
        st.sampled_from(["exact", "near", "non-hermitian", "haar"]),
    )
    def test_agree_with_dense_formulas(self, seed, dim, kind):
        rng = np.random.default_rng(seed)
        if kind == "haar":
            u = haar_unitary(rng, dim)
            cuts = np.sort(rng.choice(np.arange(1, dim), size=2, replace=False))
            members = [
                (u[:, part] @ u[:, part].conj().T)
                for part in np.split(np.arange(dim), cuts)
            ]
            assert_checks_match_dense(members, u)
            return
        blocks = random_blocks(rng, dim, largest=int(rng.integers(1, 7)))
        members = block_members(rng, dim, blocks, m=int(rng.integers(2, 6)))
        unitary = sum(mat * np.exp(2j * np.pi * rng.random()) for mat in members)
        # the rule: blocks from dimension 96 up, when the pattern splits
        assert one_block(*members) == (dim < 96 or len(blocks) == 1)
        if kind != "exact":
            members[0] = members[0] + perturbation(rng, dim, blocks, kind)
            unitary = unitary + perturbation(rng, dim, blocks, kind)
        assert_checks_match_dense(members, unitary)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([12, 60, 96, 150]),
        st.sampled_from(["exact", "near", "non-hermitian", "haar"]),
    )
    def test_product_agrees_with_matmul(self, seed, dim, kind):
        rng = np.random.default_rng(seed)
        if kind == "haar":
            a, b = haar_unitary(rng, dim), haar_unitary(rng, dim)
        else:
            blocks = random_blocks(rng, dim, largest=int(rng.integers(1, 7)))
            members = block_members(rng, dim, blocks, m=int(rng.integers(2, 6)))
            a = sum(mat * np.exp(2j * np.pi * rng.random()) for mat in members)
            b = members[0]
            assert one_block(a, b) == (dim < 96 or len(blocks) == 1)
            if kind != "exact":
                a = a + perturbation(rng, dim, blocks, kind)
                b = b + perturbation(rng, dim, blocks, kind)
        got = hilbert._product(Operator(a), Operator(b))
        if one_block(a, b):
            assert got.tobytes() == (a @ b).tobytes()
        assert_matches_dense(float(np.linalg.norm(got)), float(np.linalg.norm(a @ b)), [a, b])
        assert_matches_dense(float(np.linalg.norm(got - a @ b)), 0.0, [a, b])
        assert_matches_dense(
            Operator(a).commutator_norm(Operator(b)), float(np.linalg.norm(a @ b - b @ a)), [a, b]
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([96, 150, 196]))
    def test_product_of_permutations_and_diagonals_is_exact(self, seed, dim):
        rng = np.random.default_rng(seed)
        perm = np.eye(dim, dtype=complex)
        for part in random_blocks(rng, dim, largest=int(rng.integers(2, 9))):
            perm[:, part] = perm[:, rng.permutation(part)]
        diag = np.diag(rng.integers(0, 2, size=dim).astype(complex))
        for a, b in itertools.product([perm, perm.T, diag], repeat=2):
            assert not one_block(a, b)
            assert hilbert._product(Operator(a), Operator(b)).tobytes() == (a @ b).tobytes()

    def test_one_block_is_gathered_and_scattered_without_a_copy(self):
        # below dimension 96 an operator carries no labels, and every call
        # gets the whole-matrix group, with no index array built
        op = random_operator(12)
        assert op.block_labels is None
        assert hilbert._blocks(op) == hilbert._blocks(op, op) == [None]
        assert np.shares_memory(hilbert._gather(op.mat, None), op.mat)
        block = np.ones((1, 12, 12), dtype=complex)
        assert np.shares_memory(hilbert._scatter(12, [None], [block]), block)

    @pytest.mark.parametrize("kind", ["imaginary link", "long cycles", "zero"])
    def test_edge_patterns_match_dense_formulas(self, kind):
        dim = 120
        perm = np.random.default_rng(5).permutation(dim)
        members = [np.zeros((dim, dim), dtype=complex), np.eye(dim, dtype=complex)]
        unitary = np.eye(dim, dtype=complex)
        if kind == "imaginary link":
            # projector onto (e_0 - i e_1)/sqrt(2): its link is purely imaginary
            members[0][:2, :2] = [[0.5, 0.5j], [-0.5j, 0.5]]
            members[1] -= members[0]
            unitary[:2, :2] = [[0, 1j], [1j, 0]]
        elif kind == "long cycles":
            # a shift on two cycles of 60: components found only by many hooks
            unitary = np.roll(np.eye(dim, dtype=complex).reshape(dim, 2, 60), 1, axis=2)
            unitary = unitary.reshape(dim, dim)
            members[0] = np.diag((np.arange(dim) % 2).astype(complex))
            members[1] -= members[0]
        members = [m[np.ix_(perm, perm)] for m in members]
        unitary = unitary[np.ix_(perm, perm)]
        assert not one_block(*members, unitary)
        assert_checks_match_dense(members, unitary)
        assert is_projector(Operator(members[0])).ok
        assert unitarity_defect(Operator(unitary)) < TOL_PROJ

    @pytest.mark.parametrize("name", BUILDERS)
    def test_bundled_scenarios_match_dense_formulas(self, name):
        scn = BUILDERS[name]()
        decompositions = {id(d): d for f in scn.families.values() for d in f.decompositions}
        unitaries = {
            id(ps): [ps.propagator(0, j).mat for j in range(len(ps.grid))]
            + [u.mat for u in ps.steps]
            for ps in (f.propagators for f in scn.families.values())
        }
        projectors = [p.mat for p in scn.projectors.values()] + [
            p.mat for d in decompositions.values() for _, p in d.members
        ]
        for p in projectors:
            check = is_projector(Operator(p))
            assert check.ok
            assert check.hermiticity_defect == float(np.linalg.norm(p - p.conj().T))
            assert_matches_dense(check.idempotency_defect, dense_idempotency(p), [p])
        for d in decompositions.values():
            mats = [p.mat for _, p in d.members]
            report = validate_decomposition(d)
            assert report.valid
            assert report.completeness_defect == dense_completeness(mats)
            assert_matches_dense(report.max_pairwise_overlap, dense_max_overlap(mats), mats)
        for u in itertools.chain.from_iterable(unitaries.values()):
            assert_matches_dense(unitarity_defect(Operator(u)), dense_unitarity(u), [u])


# -- block partitions against a dense search ----------------------------------


def searched_blocks(*mats):
    """The components of the joint symmetrized nonzero pattern of ``mats``,
    searched densely: one ``(n, s)`` index array per component size (by
    size, then by smallest index), or the one whole-matrix group when the
    dimension is under 96, more than 1/8 of the joint pattern's entries are
    nonzero, or the pattern does not split."""
    dim = len(mats[0])
    whole = [np.arange(dim)[None]]
    pattern = np.zeros((dim, dim), dtype=bool)
    for m in mats:
        pattern |= m != 0
    pattern |= pattern.T
    if dim < 96 or 8 * np.count_nonzero(pattern) > dim * dim:
        return whole
    label = np.arange(dim)
    while True:  # every index takes the smallest label among its neighbours'
        nxt = np.minimum(label, np.where(pattern, label[None, :], dim).min(axis=1))
        if np.array_equal(nxt, label):
            break
        label = nxt
    components = [np.flatnonzero(label == root) for root in np.unique(label)]
    if len(components) == 1:
        return whole
    sizes = sorted({len(c) for c in components})
    return [np.array([c for c in components if len(c) == s]) for s in sizes]


def as_groups(groups, dim):
    """``_blocks``'s groups, with the whole-matrix group as an index array."""
    return [np.arange(dim)[None]] if groups[0] is None else groups


def same_groups(got, want):
    return len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


class TestPartitionsMatchADenseSearch:
    """Every operator's carried labels, and every join a product or check
    makes, give the components a dense search of the joint pattern finds."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Check each operator as it is made, and each join as it is made;
        return the counts of both."""
        counts = {"operators": 0, "joins": 0}
        real_init, real_blocks = Operator.__post_init__, hilbert._blocks

        def init(self):
            real_init(self)
            got = as_groups(real_blocks(self), self.dim)
            assert same_groups(got, searched_blocks(self.mat))
            counts["operators"] += 1

        def blocks(*ops):
            groups = real_blocks(*ops)
            mats = [getattr(op, "mat", op) for op in ops]  # operators or bare matrices
            assert same_groups(as_groups(groups, len(mats[0])), searched_blocks(*mats))
            counts["joins"] += 1
            return groups

        monkeypatch.setattr(Operator, "__post_init__", init)
        monkeypatch.setattr(hilbert, "_blocks", blocks)
        return counts

    @pytest.mark.parametrize("name", BUILDERS)
    def test_bundled_scenarios_and_their_famspec_round_trip(self, checked, name):
        scn = BUILDERS[name]()
        doc = parse(scenario_to_famspec(scn))
        assert doc.families.keys() == scn.families.keys()
        assert checked["operators"] > 0 and checked["joins"] > 0

    @pytest.mark.parametrize("name", BUILDERS)
    def test_adjoints_keep_their_operators_labels(self, checked, name):
        # an adjoint is not scanned: its labels, and the joins that use them,
        # must still be those of a dense search of its own matrix
        scn = BUILDERS[name]()
        ops = [p.op for p in scn.projectors.values()]
        for fam in scn.families.values():
            ops += [*fam.propagators.steps, *fam.propagators._cumulative]
        checked["joins"] = 0
        for op in ops:
            adj = op.dagger()
            assert adj.block_labels is op.block_labels and not adj.mat.flags.writeable
            assert adj.mat.tobytes() == op.mat.conj().T.tobytes()
            hilbert._blocks(adj)  # each join is checked as it is made
            hilbert._blocks(adj, op.mat)
        assert checked["joins"] == 2 * len(ops)

    @pytest.mark.parametrize(
        "kind", ["dense halves", "sparse cycles", "connected", "over the bound"]
    )
    def test_patterns_near_the_rule(self, checked, kind):
        # two dense blocks split but fill half the matrix; two long cycles
        # split sparsely; a path joins every index; a sparse operand joined
        # with a dense one is one block
        dim = 120
        perm = np.random.default_rng(11).permutation(dim)
        a = np.zeros((dim, dim), dtype=complex)
        b = np.eye(dim, dtype=complex)
        if kind == "dense halves":
            a[:60, :60] = a[60:, 60:] = 1.0
        elif kind == "sparse cycles":
            a = np.roll(np.eye(dim, dtype=complex).reshape(dim, 2, 60), 1, axis=2)
            a = a.reshape(dim, dim)
        elif kind == "connected":
            a = np.eye(dim, k=1, dtype=complex)
        else:
            b[:, :20] = 1.0
            a = np.diag(np.arange(dim) % 3 == 0).astype(complex)
        a, b = (Operator(m[np.ix_(perm, perm)]) for m in (a, b))
        for ops in ((a,), (b,), (a, b), (b, a, b), (a.mat, b), (a.dagger(), b.mat)):
            hilbert._blocks(*ops)
        assert checked["joins"] == 6

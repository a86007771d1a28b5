import dataclasses
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conhist import famspec, hilbert
from conhist.famspec import (
    _format_matrix,
    format_complex,
    parse,
    parse_complex,
    scenario_to_famspec,
    serialize,
    try_parse,
)
from conhist.histories import probabilities, time_reverse, weight_table
from conhist.scenarios.wavepacket import build_wavepacket

DATA = Path(__file__).parent / "data"

MINIMAL = """
# a two-level system split on the x basis
space q dim 2
ket up in q = [1, 0]
ket down in q = [0, 1]
ket plus in q = [0.70710678118654752, 0.70710678118654752]
ket minus in q = [0.70710678118654752, -0.70710678118654752]
unitary idq on q = [1 0 0 1]
proj pplus on q = span(plus)
proj pminus on q = span(minus)
decomp xbasis on q = {pplus, pminus}
times tg = [0, 1, 2]
family split times tg initial up {
  at 0: identity
  at 1: xbasis
  at 2: xbasis
} steps { idq idq }
"""

HARDY_TEXT = """
space pair dim 4
ket start in pair = [0.57735026918962573, 0.57735026918962573, 0.57735026918962573, 0]
unitary wait on pair = [1 0 0 0  0 1 0 0  0 0 1 0  0 0 0 1]
unitary splitters on pair = [
  0.5 -0.5 -0.5 0.5
  0.5 0.5 -0.5 -0.5
  0.5 -0.5 0.5 -0.5
  0.5 0.5 0.5 0.5
]
proj ee on pair = [1 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0]
proj ef on pair = [0 0 0 0  0 1 0 0  0 0 0 0  0 0 0 0]
proj fe on pair = [0 0 0 0  0 0 0 0  0 0 1 0  0 0 0 0]
proj ff on pair = [0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 1]
decomp outcomes on pair = {ee, ef, fe, ff}
times tg = [0, 1, 2]
family joint times tg initial start {
  at 0: identity
  at 2: outcomes
} steps { wait splitters }
"""

# HARDY_TEXT with every matrix but the dense splitters written sparse, plus a
# zero projector and a sparse matrix whose entries are not ones
SPARSE_TEXT = """
space pair dim 4
ket start in pair = [0.57735026918962573, 0.57735026918962573, 0.57735026918962573, 0]
unitary wait on pair = sparse [0 0: 1, 1 1: 1, 2 2: 1, 3 3: 1]
unitary swap on pair = sparse [
  0 1: -i,
  1 0: -i,
  2 3: 0.70710678118654757+0.70710678118654757i,
  3 2: 0.70710678118654757-0.70710678118654757i
]
unitary splitters on pair = [
  0.5 -0.5 -0.5 0.5
  0.5 0.5 -0.5 -0.5
  0.5 -0.5 0.5 -0.5
  0.5 0.5 0.5 0.5
]
proj ee on pair = sparse [0 0: 1]
proj ef on pair = sparse [1 1: 1]
proj fe on pair = sparse [2 2: 1]
proj ff on pair = sparse [3 3: 1]
proj none on pair = sparse []
decomp outcomes on pair = {ee, ef, fe, ff}
times tg = [0, 1, 2, 3]
family joint times tg initial start {
  at 0: identity
  at 3: outcomes
} steps { wait swap splitters }
"""


class TestParse:
    def test_minimal_document_matches_hand_built_family(self):
        doc = parse(MINIMAL)
        table = probabilities(doc.family("split"))
        assert table.probability(("up", "pplus", "pplus")) == pytest.approx(0.5)
        assert table.probability(("up", "pminus", "pminus")) == pytest.approx(0.5)

    def test_at_picks_the_nearest_grid_time(self):
        # 1 and 1.0000000001 each lie within 1e-9 of the other; each means itself
        doc = parse((DATA / "near_grid_times.fam").read_text())
        for name, index, label in (("F", 1, "pu"), ("G", 2, "pd")):
            fam = doc.family(name)
            assert fam.time_indices == (0, index)
            assert probabilities(fam).probability(("up", label)) == 1.0

    def test_non_unitary_matrix_positioned_error(self):
        text = "space q dim 2\nunitary bad on q = [1 0 0 2]\n"
        doc, diags = try_parse(text)
        assert doc is None
        assert len(diags) == 1
        assert "non-unitary" in diags[0].message
        assert (diags[0].line, diags[0].column) == (2, 9)

    def test_hardy_joint_detection_through_the_parser(self):
        doc = parse(HARDY_TEXT)
        table = probabilities(doc.family("joint"))
        assert table.probability(("start", "ee")) == pytest.approx(1 / 12)

    def test_undefined_name(self):
        doc, diags = try_parse("space q dim 2\nproj p on q = span(ghost)\n")
        assert doc is None
        assert "ghost" in diags[0].message

    def test_dimension_mismatch(self):
        doc, diags = try_parse("space q dim 2\nket k in q = [1, 0, 0]\n")
        assert doc is None
        assert "3 amplitudes" in diags[0].message

    def test_incomplete_decomposition(self):
        text = (
            "space q dim 2\nket up in q = [1, 0]\nproj p on q = span(up)\n"
            "decomp d on q = {p}\n"
        )
        doc, diags = try_parse(text)
        assert doc is None
        assert "invalid decomposition" in diags[0].message

    def test_redeclaration_rejected(self):
        doc, diags = try_parse("space q dim 2\nspace q dim 3\n")
        assert doc is None
        assert "already declared" in diags[0].message

    def test_initial_projector_becomes_mixed_state(self):
        text = (
            "space q dim 2\n"
            "ket up in q = [1, 0]\nket down in q = [0, 1]\n"
            "unitary idq on q = [1 0 0 1]\n"
            "proj all on q = [1 0 0 1]\n"
            "proj pz+ on q = span(up)\nproj pz- on q = span(down)\n"
            "decomp zb on q = {pz+, pz-}\n"
            "times tg = [0, 1]\n"
            "family mixed times tg initial all {\n  at 0: identity\n  at 1: zb\n} steps { idq }\n"
        )
        doc = parse(text)
        table = weight_table(doc.family("mixed"))
        by_alpha = dict(table.entries)
        assert by_alpha[("I", "pz+")] == pytest.approx(0.5)
        assert by_alpha[("I", "pz-")] == pytest.approx(0.5)

    def test_family_time_not_on_grid(self):
        text = MINIMAL.replace("at 1: xbasis", "at 0.5: xbasis")
        doc, diags = try_parse(text)
        assert doc is None
        assert "not on grid" in diags[0].message

    def test_wrong_step_count(self):
        text = MINIMAL.replace("steps { idq idq }", "steps { idq }")
        doc, diags = try_parse(text)
        assert doc is None
        assert "needs 2 steps" in diags[0].message

    @pytest.mark.parametrize(
        "text,message,line,column",
        [
            # end of input is one past the last character, comment or not
            ("space q", "expected 'dim'", 1, 8),
            ("space q dim # note", "expected dimension", 1, 19),
            (
                "space q dim 2\nunitary u on q = [\n  1 0\n  0 1\n]\n  @",
                "unexpected character '@'",
                6,
                3,
            ),
            (
                "space q dim 2\nunitary u on q = [\n  1 0\n  0 1e+\n]\n",
                "malformed matrix entry '1e+'",
                4,
                5,
            ),
            ("space q dim \u0661", "unexpected character '\u0661'", 1, 13),
        ],
    )
    def test_positioned_diagnostics(self, text, message, line, column):
        doc, diags = try_parse(text)
        assert doc is None
        [d] = diags
        assert d.message.startswith(message)
        assert (d.line, d.column) == (line, column)

    def test_non_finite_time(self):
        doc, diags = try_parse("times t = [0, 1e400]")
        assert doc is None
        [d] = diags
        assert d.message == "malformed time '1e400': non-finite number '1e400'"
        assert (d.line, d.column) == (1, 15)

    @pytest.mark.parametrize(
        "text,message,column",
        [
            # U^dag U overflows to inf - inf = NaN, which once passed the check
            (
                "space q dim 2\nunitary u on q = [1e308 1e308 1e308 -1e308]",
                "matrix for 'u' is non-unitary: defect nan",
                9,
            ),
            # idempotent within the tolerance, but trace 2 + 1.2e-9: once a ValueError
            (
                "space q dim 2\nproj p on q = [1.0000000006 0 0 1.0000000006]",
                "invalid projector 'p': projector trace",
                6,
            ),
            (
                "space q dim 2\nproj p on q = [1 0 0 0.5]",
                "matrix for 'p' is not a projector: hermiticity defect 0.000e+00, "
                "idempotency defect 2.500e-01 (threshold 1e-09)",
                6,
            ),
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    def test_validation_edge_cases_are_diagnostics(self, text, message, column):
        doc, diags = try_parse(text)
        assert doc is None
        [d] = diags
        assert d.message.startswith(message)
        assert (d.line, d.column) == (2, column)

    def test_matrix_projector_is_checked_once(self, monkeypatch):
        checks = []
        real = hilbert.ProjectorCheck
        monkeypatch.setattr(hilbert, "ProjectorCheck", lambda *a: checks.append(a) or real(*a))
        parse("space q dim 2\nproj p on q = [1 0 0 0]")
        assert len(checks) == 1

    def test_families_share_propagators_and_document_holds_only_its_fields(self):
        text = MINIMAL + (
            "family again times tg initial up {\n  at 0: identity\n  at 2: xbasis\n"
            "} steps { idq idq }\n"
        )
        doc = parse(text)
        assert doc.family("split").propagators is doc.family("again").propagators
        assert set(vars(doc)) == {f.name for f in dataclasses.fields(doc)}

    def test_single_time_family(self):
        text = (
            "space q dim 2\n"
            "ket up in q = [1, 0]\nket dn in q = [0, 1]\n"
            "proj pup on q = span(up)\nproj pdn on q = span(dn)\n"
            "decomp zb on q = {pup, pdn}\n"
            "times t1 = [0]\n"
            "family snapshot times t1 {\n  at 0: zb\n} steps { }\n"
        )
        doc = parse(text)
        table = weight_table(doc.family("snapshot"))
        assert dict(table.entries) == {("pup",): pytest.approx(1.0), ("pdn",): pytest.approx(1.0)}


def _haar(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / abs(np.diag(r)))


def _block_matrices(seed, dim, block, negative_zeros):
    """A unitary and a projector, each a direct sum of random blocks of at most
    ``block`` rows with rows and columns permuted: the larger the blocks, the
    denser the matrices (a 1-row block leaves one nonzero per row)."""
    rng = np.random.default_rng(seed)
    u = np.zeros((dim, dim), dtype=complex)
    p = np.zeros((dim, dim), dtype=complex)
    start = 0
    while start < dim:
        n = min(int(rng.integers(1, block + 1)), dim - start)
        v = _haar(rng, n)
        u[start:start + n, start:start + n] = v
        p[start:start + n, start:start + n] = (v * rng.integers(0, 2, n)) @ v.conj().T
        start += n
    u = u[rng.permutation(dim)][:, rng.permutation(dim)]
    if negative_zeros:
        u[u == 0] = complex(-0.0, -0.0)
        p[p == 0] = -0.0
    return u, p


def _dense_literal(mat):
    return "[" + " ".join(format_complex(z) for z in mat.ravel().tolist()) + "]"


def _sparse_literal(mat):
    dim = len(mat)
    return "sparse [" + ", ".join(
        f"{k // dim} {k % dim}: {format_complex(mat.flat[k])}"
        for k in np.flatnonzero(mat)
    ) + "]"


def _bits(a):
    """The bytes of an array with -0.0 read as 0.0: a sparse literal drops a
    signed zero and a dense one keeps only the sign of a real part."""
    return (np.asarray(a) + 0.0).tobytes()


class TestSparseLiteral:
    def test_same_arrays_as_dense(self):
        dense, sparse = parse(HARDY_TEXT), parse(SPARSE_TEXT)
        for name in ("ee", "ef", "fe", "ff"):
            assert _bits(sparse.projectors[name].mat) == _bits(dense.projectors[name].mat)
        assert _bits(sparse.unitaries["wait"].mat) == _bits(dense.unitaries["wait"].mat)
        assert not sparse.projectors["none"].mat.any()
        swap = sparse.unitaries["swap"].mat
        assert swap[0, 1] == swap[1, 0] == -1j
        assert swap[3, 2] == complex(0.70710678118654757, -0.70710678118654757)
        assert np.count_nonzero(swap) == 4

    def test_entries_are_one_read_only_array(self):
        doc = parse(SPARSE_TEXT)
        for decl in (doc.unitary_decls["swap"], doc.unitary_decls["splitters"],
                     doc.proj_decls["none"]):
            assert decl.entries.dtype == np.complex128 and decl.entries.shape == (16,)
            assert not decl.entries.flags.writeable
            with pytest.raises(ValueError):
                decl.entries[0] = 1

    def test_entries_are_views_of_the_operators(self):
        # a literal's declaration and its validated operator hold one matrix
        dense, sparse = parse(HARDY_TEXT), parse(SPARSE_TEXT)
        for decl, op in (
            (dense.unitary_decls["splitters"], dense.unitaries["splitters"]),
            (dense.proj_decls["ee"], dense.projectors["ee"].op),
            (sparse.unitary_decls["swap"], sparse.unitaries["swap"]),
            (sparse.proj_decls["ee"], sparse.projectors["ee"].op),
        ):
            assert np.shares_memory(decl.entries, op.mat)
            assert np.array_equal(decl.entries, op.mat.ravel())
            assert not decl.entries.flags.writeable

    def test_parsed_sparse_family_probabilities(self):
        table = probabilities(parse(SPARSE_TEXT).family("joint"))
        assert sum(table.probability(a) for a, _ in table.items()) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "body,message,column",
        [
            ("0 0: 1, 2 1: 1", "row index 2 is out of range 0..1", 31),
            ("0 2: 1", "column index 2 is out of range 0..1", 25),
            ("-1 0: 1", "row index -1 is out of range 0..1", 23),
            (
                "1 0: 1, 0 1: 1",
                "sparse entry (0, 1) follows (1, 0): entries must be in strictly "
                "increasing row-major order",
                31,
            ),
            ("0 1: 1, 0 1: 1", "duplicate sparse entry (0, 1)", 31),
            ("0 0 1", "expected ':', got '1'", 27),
            ("0.5 0: 1", "expected an integer row index, got '0.5'", 23),
            ("0 1.5: 1", "expected an integer column index, got '1.5'", 25),
            ("1i 0: 1", "expected a real row index, got '1i'", 23),
            ("0 +i: 1", "expected a real column index, got '+i'", 25),
            ("0 0: 1,", "expected row index, got ']'", 30),
            ("0 0: 1 1 1: 1", "expected ']', got '1'", 30),
            ("0 0: 1e400", "malformed matrix entry '1e400': non-finite number '1e400'", 28),
        ],
    )
    def test_positioned_diagnostics(self, body, message, column):
        doc, diags = try_parse(f"space q dim 2\nproj p on q = sparse [{body}]\n")
        assert doc is None
        [d] = diags
        assert d.message == message
        assert (d.line, d.column) == (2, column)

    @pytest.mark.parametrize(
        "text,message,line,column",
        [
            ("space sparse dim 2", "'sparse' is a reserved keyword, not a valid space name", 1, 7),
            (
                "space q dim 2\nunitary sparse on q = sparse []",
                "'sparse' is a reserved keyword, not a valid unitary name",
                2,
                9,
            ),
            ("space q dim 2\nproj p on q = sparse 0 0: 1", "expected '[', got '0'", 2, 22),
            ("space q dim 2\nproj p on q = sparse [", "expected row index", 2, 23),
        ],
    )
    def test_keyword_diagnostics(self, text, message, line, column):
        doc, diags = try_parse(text)
        assert doc is None
        [d] = diags
        assert d.message == message
        assert (d.line, d.column) == (line, column)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 8),
        block=st.integers(1, 8),
        negative_zeros=st.booleans(),
        written_sparse=st.booleans(),
    )
    def test_round_trip_mixed_density(self, seed, dim, block, negative_zeros, written_sparse):
        u, p = _block_matrices(seed, dim, block, negative_zeros)
        literal = _sparse_literal if written_sparse else _dense_literal
        text = (
            f"space q dim {dim}\nunitary u on q = {literal(u)}\n"
            f"proj p on q = {literal(p)}\n"
        )
        doc = parse(text)
        s1 = serialize(doc)
        doc1 = parse(s1)
        assert serialize(doc1) == s1
        for d in (doc, doc1):
            assert _bits(d.unitaries["u"].mat) == _bits(u)
            assert _bits(d.projectors["p"].mat) == _bits(p)
            assert _bits(d.unitary_decls["u"].entries) == _bits(u.ravel())
        for name, mat in (("u", u), ("p", p)):
            sparse = 4 * np.count_nonzero(mat) <= dim * dim
            assert f"{name} on q = {'sparse [' if sparse else '['}" in s1

    def test_form_rule_counts_nonzeros_only(self):
        # dim 4: at most 4 nonzero entries go sparse, 5 go dense
        entries = np.diag([1, -0.5j, 2, 1e-300]).astype(complex).ravel()
        assert _format_matrix(entries, 4) == (
            "sparse [\n  0 0: 1,\n  1 1: -0.5i,\n  2 2: 2,\n  3 3: 1e-300\n]"
        )
        entries[1] = -0.0  # a signed zero is a zero
        assert _format_matrix(entries, 4).startswith("sparse [\n  0 0: 1,\n  1 1: -0.5i,")
        entries[1] = 3
        assert _format_matrix(entries, 4).startswith("[\n  1 3 0 0\n  0 -0.5i 0 0\n")
        assert _format_matrix(np.zeros(9, dtype=complex), 3) == "sparse []"

    def test_exported_wavepacket_is_small(self):
        text = scenario_to_famspec(build_wavepacket())
        assert len(text.encode()) < 64 * 1024
        doc = parse(text)
        assert serialize(parse(serialize(doc))) == serialize(doc)


class TestMatrixBudget:
    def refused(self, text):
        tracemalloc.start()
        try:
            doc, diags = try_parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert doc is None
        [d] = diags
        assert "over the budget of 67108864" in d.message
        assert peak < 4 * 2**20  # one refused matrix alone would be 268 MB
        return d

    def test_sparse_lines_are_refused_before_allocation(self):
        text = "space q dim 4096\n" + "".join(f"proj p{k} on q = sparse []\n" for k in range(4))
        d = self.refused(text)
        assert d.message.startswith("'p0' would bring the document's matrices to 268435456 bytes")
        assert (d.line, d.column) == (2, 6)

    def test_dense_literal_is_refused_before_its_entries(self):
        d = self.refused("space q dim 4096\nunitary u on q = [1]")
        assert (d.line, d.column) == (2, 9)

    @pytest.mark.parametrize(
        "tail,line,column",
        [
            ("proj p on q = span(k)", 3, 6),
            ("times t = [0]\nfamily f times t initial k { at 0: identity } steps { }", 4, 8),
        ],
    )
    def test_span_projectors_and_families_are_charged(self, tail, line, column):
        ket = "ket k in q = [1" + ", 0" * 4095 + "]\n"
        d = self.refused("space q dim 4096\n" + ket + tail)
        assert (d.line, d.column) == (line, column)

    def test_charges_add_up_over_the_document(self, monkeypatch):
        monkeypatch.setattr(famspec, "_MATRIX_BUDGET", 3 * 2 * 2 * 16)
        lines = "space q dim 2\n" + "".join(f"proj p{k} on q = sparse []\n" for k in range(3))
        assert try_parse(lines)[0] is not None
        doc, [d] = try_parse(lines + "unitary u on q = [1 0 0 1]\n")
        assert doc is None
        assert d.message == (
            "'u' would bring the document's matrices to 256 bytes, over the budget of 192"
        )
        assert (d.line, d.column) == (5, 9)

    def test_largest_bundled_export_fits_with_headroom(self):
        parser = famspec._Parser(scenario_to_famspec(build_wavepacket()))
        parser.parse_document()
        # 33 matrix literals, one propagator set of 6 times, one shared initial pair
        assert parser.matrix_bytes == 41 * 196 * 196 * 16
        assert 2.5 * parser.matrix_bytes < famspec._MATRIX_BUDGET


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1", 1.0),
            ("-0.5i", -0.5j),
            ("0.7071+0.7071i", 0.7071 + 0.7071j),
            ("i", 1j),
            ("-i", -1j),
            ("1-1i", 1 - 1j),
            ("2e-3", 0.002),
            ("1e+3i", 1000j),
            ("1.5-2.5e-2i", 1.5 - 0.025j),
        ],
    )
    def test_values(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize(
        "text",
        ["", "1.2.3", "1+", "e5", "1e", "--3", "1j", "1_0", "nan", "inf", "(1)", "1 + 2i"],
    )
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)

    @settings(max_examples=300, deadline=None)
    @given(st.complex_numbers(allow_nan=False, allow_infinity=False))
    def test_format_round_trip(self, z):
        assert parse_complex(format_complex(z)) == z


class TestSerialize:
    def test_round_trip_semantics(self):
        doc = parse(MINIMAL)
        doc2 = parse(serialize(doc))
        for name, ket in doc.kets.items():
            assert np.allclose(ket.amps, doc2.kets[name].amps, atol=1e-15)
        for name, u in doc.unitaries.items():
            assert np.allclose(u.mat, doc2.unitaries[name].mat, atol=1e-15)
        t1 = weight_table(doc.family("split")).entries
        t2 = weight_table(doc2.family("split")).entries
        for (a1, w1), (a2, w2) in zip(t1, t2):
            assert a1 == a2
            assert w1 == pytest.approx(w2, abs=1e-15)

    @pytest.mark.parametrize("text", [MINIMAL, HARDY_TEXT])
    def test_serialize_idempotent(self, text):
        s1 = serialize(parse(text))
        s2 = serialize(parse(s1))
        assert s1 == s2

    def test_empty_document(self):
        doc = parse("# nothing but a comment\n")
        assert serialize(doc) == "\n"
        assert doc.families == {}

    def test_exported_scenarios_round_trip(self):
        from conhist.scenarios import build_hardy, build_spin_half
        from conhist.scenarios.wavepacket import build_wavepacket, default_intervals

        small_wp = build_wavepacket(14, 6, 2, 12, default_intervals(14, 2))
        for scn in (build_spin_half(), build_hardy(), small_wp):
            text = scenario_to_famspec(scn)
            doc = parse(text)
            s1 = serialize(doc)
            assert serialize(parse(s1)) == s1

    @pytest.mark.parametrize("name", ["spin-half", "epr", "hardy", "wavepacket"])
    def test_export_is_canonical(self, name):
        from conhist import scenarios

        text = scenario_to_famspec(scenarios.build(name))
        assert text == serialize(parse(text))

    def test_exported_spin_half_reproduces_weights(self):
        from conhist.scenarios import build_spin_half

        scn = build_spin_half()
        doc = parse(scenario_to_famspec(scn))
        table = probabilities(doc.family("F1"))
        assert table.probability(("z+X", "x+", "x+", "x+")) == pytest.approx(0.5)

    def test_export_refuses_a_final_state_family(self):
        # famspec anchors a state at the first time only; written anyway, the
        # family would come back with its state moved and its weights changed
        from conhist.scenarios import build_spin_half

        scn = build_spin_half()
        reversed_f1 = time_reverse(scn.family("F1"))
        assert reversed_f1.initial_slot == len(reversed_f1) - 1
        with pytest.raises(ValueError, match="final state"):
            scenario_to_famspec(dataclasses.replace(scn, families={"R": reversed_f1}))

    def test_exported_hardy_reproduces_the_twelfth(self):
        from conhist.scenarios import build_hardy

        scn = build_hardy()
        doc = parse(scenario_to_famspec(scn))
        table = probabilities(doc.family("unitary-output"))
        by_alpha = dict(table.items())
        assert by_alpha[("psi0", "e", "ebar")] == pytest.approx(1 / 12)


class TestTotality:
    def test_seeded_fuzz_no_crash(self):
        rng = random.Random(20240817)
        for _ in range(10_000):
            n = rng.randint(0, 80)
            text = "".join(chr(rng.randint(1, 0x2FF)) for _ in range(n))
            doc, diags = try_parse(text)
            if doc is None:
                assert diags and all(d.line >= 1 and d.column >= 1 for d in diags)

    def test_mutation_fuzz_no_crash(self):
        rng = random.Random(7)
        corpus = MINIMAL
        for _ in range(2_000):
            chars = list(corpus)
            for _ in range(rng.randint(1, 6)):
                k = rng.randrange(len(chars))
                chars[k] = chr(rng.randint(32, 126))
            doc, diags = try_parse("".join(chars))
            if doc is None:
                assert diags

    def test_sparse_mutation_fuzz_no_crash(self):
        rng = random.Random(11)
        corpus = SPARSE_TEXT
        for _ in range(2_000):
            chars = list(corpus)
            for _ in range(rng.randint(1, 6)):
                k = rng.randrange(len(chars))
                chars[k] = chr(rng.randint(32, 126))
            doc, diags = try_parse("".join(chars))
            if doc is None:
                assert diags

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80))
    def test_hypothesis_fuzz_no_crash(self, text):
        doc, diags = try_parse(text)
        if doc is None:
            assert all(d.severity == "error" for d in diags)

    def test_non_string_input(self):
        doc, diags = try_parse(b"space q dim 2")  # type: ignore[arg-type]
        assert doc is None

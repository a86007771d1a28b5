import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conhist.famspec import (
    format_complex,
    parse,
    parse_complex,
    scenario_to_famspec,
    serialize,
    try_parse,
)
from conhist.histories import probabilities, weight_table

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


class TestParse:
    def test_minimal_document_matches_hand_built_family(self):
        doc = parse(MINIMAL)
        table = probabilities(doc.family("split"))
        assert table.probability(("up", "pplus", "pplus")) == pytest.approx(0.5)
        assert table.probability(("up", "pminus", "pminus")) == pytest.approx(0.5)

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

    def test_exported_spin_half_reproduces_weights(self):
        from conhist.scenarios import build_spin_half

        scn = build_spin_half()
        doc = parse(scenario_to_famspec(scn))
        table = probabilities(doc.family("F1"))
        assert table.probability(("z+X", "x+", "x+", "x+")) == pytest.approx(0.5)

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

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80))
    def test_hypothesis_fuzz_no_crash(self, text):
        doc, diags = try_parse(text)
        if doc is None:
            assert all(d.severity == "error" for d in diags)

    def test_non_string_input(self):
        doc, diags = try_parse(b"space q dim 2")  # type: ignore[arg-type]
        assert doc is None

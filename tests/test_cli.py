import argparse
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

import conhist
from conhist import cli, hilbert, histories
from conhist.cli import main
from conhist.famspec import parse, scenario_to_famspec
from conhist.histories import consistency_check, probabilities
from conhist.scenarios import build, build_hardy

DATA = Path(__file__).parent / "data"

MINIMAL = """
space q dim 2
ket up in q = [1, 0]
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

# z and x measurements alternating over four times: 56 violating pairs
ALTERNATING = MINIMAL + """
ket down in q = [0, 1]
proj pup on q = span(up)
proj pdown on q = span(down)
decomp zbasis on q = {pup, pdown}
times tg4 = [0, 1, 2, 3, 4]
family alt times tg4 initial up {
  at 0: identity
  at 1: xbasis
  at 2: zbasis
  at 3: xbasis
  at 4: zbasis
} steps { idq idq idq idq }
"""

EVENTS_OK = {
    "events": [
        {
            "id": "src",
            "regions": [
                {"cells": [0], "surface": {"xs": [-10, 10], "ts": [0, 0]}}
            ],
        },
        {
            "id": "det",
            "regions": [
                {"cells": [2], "surface": {"xs": [-10, 10], "ts": [5, 5]}}
            ],
        },
    ]
}

EVENTS_BAD = {
    "events": [
        {
            "id": "psi-flat",
            "regions": [
                {"cells": [11], "surface": {"xs": [-20, 20], "ts": [1, 1]}},
                {"cells": [13], "surface": {"xs": [-20, 20], "ts": [1, 1]}},
            ],
        },
        {
            "id": "psi-boosted",
            "regions": [
                {"cells": [10], "surface": {"xs": [-20, 20], "ts": [-24.2, 7.8]}},
                {"cells": [14], "surface": {"xs": [-20, 20], "ts": [-24.2, 7.8]}},
            ],
        },
    ]
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_consistent_family_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--scenario", "spin-half", "--family", "F1")
        assert code == 0
        assert "consistent" in out

    def test_inconsistent_family_exit_one_with_pair(self, capsys):
        code, out, _ = run(
            capsys, "check", "--scenario", "spin-half", "--family", "F1-remerge"
        )
        assert code == 1
        assert "INCONSISTENT" in out
        assert "violation" in out

    def test_missing_family_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "check", "--scenario", "spin-half")
        assert code == 2

    def test_unknown_family_is_input_error(self, capsys):
        code, _, err = run(capsys, "check", "--scenario", "spin-half", "--family", "nope")
        assert code == 3
        assert "available" in err

    def test_famspec_file_source(self, capsys, tmp_path):
        path = tmp_path / "doc.fam"
        path.write_text(MINIMAL)
        code, out, _ = run(capsys, "check", "--file", str(path), "--family", "split")
        assert code == 0

    def test_exported_hardy_file_matches_the_built_in(self, capsys, tmp_path):
        scn = build_hardy()
        path = tmp_path / "hardy.fam"
        path.write_text(scenario_to_famspec(scn))
        for family in sorted(scn.families):
            for command in ("check", "probs"):
                argv = [command, "--family", family, "--format", "json"]
                code, out, err = run(capsys, *argv, "--scenario", "hardy")
                file_code, file_out, file_err = run(capsys, *argv, "--file", str(path))
                assert (file_code, file_err) == (code, err)
                if command == "probs" and code == 1:  # an inconsistent family is refused
                    assert file_out == out == ""
                else:
                    assert json.loads(file_out)["results"] == json.loads(out)["results"]

    def test_parse_error_exit_three(self, capsys, tmp_path):
        path = tmp_path / "bad.fam"
        path.write_text("space q dim 2\nunitary u on q = [1 0 0 2]\n")
        code, _, err = run(capsys, "check", "--file", str(path), "--family", "split")
        assert code == 3
        assert "non-unitary" in err

    def test_oversized_family_exit_three(self, capsys):
        # 2^19 histories, over the enumeration cap: an input error, not a verdict
        path = DATA / "too_many_histories.fam"
        code, out, err = run(capsys, "check", "--file", str(path), "--family", "big")
        assert (code, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "524288 histories" in err

    @pytest.mark.parametrize("text", [
        (DATA / "huge_unitary.fam").read_text(),
        "space q dim 2\nproj p on q = [1e308 1e308 1e308 1e308]\n",
        "space q dim 2\nket up in q = [1e200, 1e200]\nunitary idq on q = [1 0 0 1]\n"
        "times tg = [0, 1]\nfamily F times tg initial up {\n  at 0: identity\n} steps { idq }\n",
    ], ids=["unitary", "proj", "initial-ket"])
    def test_huge_literal_is_one_error_line_without_warnings(self, capsys, tmp_path, text):
        # the overflow inside the checks is refused, not reported by numpy too
        path = tmp_path / "huge.fam"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "check", "--file", str(path), "--family", "F")
        assert (code, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []

    def test_unnormalized_initial_ket_is_input_error(self, capsys):
        path = DATA / "unnormalized_initial.fam"
        code, out, err = run(capsys, "check", "--file", str(path), "--family", "split")
        assert (code, out) == (3, "")
        assert err == (
            f"error: {path}:12:8: invalid family 'split': initial state 'half' has norm 0.5, "
            "expected 1\n"
        )

    def test_famspec_refusal_says_error_once(self, capsys):
        # the diagnostic's position follows the path; its severity is main's one prefix
        path = DATA / "huge_unitary.fam"
        code, out, err = run(capsys, "check", "--file", str(path), "--family", "F")
        assert (code, out) == (3, "")
        assert err == (
            f"error: {path}:5:9: matrix for 'u' is non-unitary: defect nan (threshold 1e-09)\n"
        )

    def test_text_lists_ten_violations_and_counts_the_rest(self, capsys, tmp_path):
        path = tmp_path / "alt.fam"
        path.write_text(ALTERNATING)
        violations = consistency_check(parse(ALTERNATING).family("alt")).violations
        code, out, _ = run(capsys, "check", "--file", str(path), "--family", "alt")
        assert code == 1 and len(violations) > 10
        lines = out.splitlines()
        assert lines[0] == "family alt: INCONSISTENT"
        assert lines[2:12] == [
            f"  violation: ({' '.join(a)}) vs ({' '.join(b)}): {o:.17g}"
            for a, b, o in violations[:10]
        ]
        assert lines[12:] == [f"  ... and {len(violations) - 10} more"]

    def test_text_builds_at_most_ten_violation_records(self, capsys, monkeypatch, tmp_path):
        # the text view prints 10 of the 56 violations and a count of the rest
        path = tmp_path / "alt.fam"
        path.write_text(ALTERNATING)
        built = []
        for view in (histories.Violations, histories.ViolationRecords):
            def counted_row(*row, build=view._row):
                built.append(row)
                return build(*row)

            monkeypatch.setattr(view, "_row", staticmethod(counted_row))
        code, out, _ = run(capsys, "check", "--file", str(path), "--family", "alt")
        assert code == 1 and out.splitlines()[-1] == "  ... and 46 more"
        assert 0 < len(built) <= 10

    def test_csv_rows_are_the_violations(self, capsys, tmp_path):
        path = tmp_path / "alt.fam"
        path.write_text(ALTERNATING)
        violations = consistency_check(parse(ALTERNATING).family("alt")).violations
        code, out, _ = run(
            capsys, "check", "--file", str(path), "--family", "alt", "--format", "csv"
        )
        assert code == 1
        assert out.splitlines() == ["alpha,beta,overlap"] + [
            f"{' '.join(a)},{' '.join(b)},{o:.17g}" for a, b, o in violations
        ]

    def test_csv_of_a_consistent_family_is_one_placeholder_row(self, capsys):
        code, out, _ = run(
            capsys, "check", "--scenario", "spin-half", "--family", "F1", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["alpha,beta,overlap", ",,0"]

    def test_file_that_is_not_utf8_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.fam"
        path.write_bytes(b"\xff\xfe")
        for argv in (("check", "--file", str(path), "--family", "f"), ("embed", str(path))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert err.startswith(f"error: cannot read {path}:") and err.count("\n") == 1

    def test_tolerance_flags_change_verdict(self, capsys):
        code, _, _ = run(capsys, "check", "--scenario", "hardy", "--family", "blocker")
        assert code == 1
        code, _, _ = run(
            capsys, "check", "--scenario", "hardy", "--family", "blocker",
            "--tol-rel", "10.0",
        )
        assert code == 0

    @pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-12", "tiny"])
    def test_bad_tolerance_is_usage_error(self, capsys, flag, value):
        # a NaN threshold would make every overlap comparison false
        code, out, err = run(
            capsys, "check", "--scenario", "hardy", "--family", "blocker", f"{flag}={value}"
        )
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
    @pytest.mark.parametrize("argv", [
        ("compat", "--scenario", "spin-half", "F1", "F2"),
        ("scenario", "hardy"),
        ("embed", str(DATA / "crossing_events.json")),
    ], ids=lambda argv: argv[0])
    def test_tolerance_flags_only_where_a_check_runs(self, capsys, argv, flag):
        # compat, scenario and embed apply no consistency thresholds
        code, out, err = run(capsys, *argv, flag, "1")
        assert code == 2
        assert out == ""
        assert flag in err


class TestProbs:
    @pytest.mark.parametrize("query", [
        ("hardy", "unitary-output", "--event", "e,ebar"),
        ("spin-half", "G1", "--target", "t3=x+X", "--given", "t5=x+X+", "--event", "x+X+"),
    ], ids=["event", "conditional"])
    def test_one_analysis_per_command(self, capsys, monkeypatch, query):
        # the consistency gate, the table and every query share one analysis
        calls, analyze = [], histories._analyze

        def counted(f):
            calls.append(f.name)
            return analyze(f)

        monkeypatch.setattr(histories, "_analyze", counted)
        scenario, family, *rest = query
        code, _, _ = run(capsys, "probs", "--scenario", scenario, "--family", family, *rest)
        assert code == 0
        assert calls == [family]

    def test_zero_probability_condition_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "probs", "--scenario", "hardy", "--family", "arm-pair",
            "--target", "t1=c", "--given", "t1=d,t2=dbar",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "has probability 0.000e+00" in err

    def test_event_without_labels_is_input_error(self, capsys):
        # "," selects no label, which would make the event every history
        code, out, err = run(
            capsys, "probs", "--scenario", "hardy", "--family", "unitary-output",
            "--event", ",",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: bad event ','") and err.count("\n") == 1

    def test_time_given_twice_is_input_error(self, capsys):
        # the second t3 would replace the first; alternatives are joined by "|"
        code, out, err = run(
            capsys, "probs", "--scenario", "spin-half", "--family", "G1",
            "--target", "t3=x+X,t3=x-X", "--given", "t5=x+X+",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: bad predicate 't3=x+X,t3=x-X': time 't3' given twice")
        assert "'|'" in err and err.count("\n") == 1

    def test_hardy_event_query(self, capsys):
        code, out, _ = run(
            capsys, "probs", "--scenario", "hardy", "--family", "unitary-output",
            "--event", "e,ebar",
        )
        assert code == 0
        assert "0.0833333333333333" in out

    def test_event_query_under_custom_tolerances(self, capsys):
        # blocker is inconsistent at the default tolerances but passes at
        # --tol-abs 1; the event is summed over the table just printed.
        code, out, _ = run(
            capsys, "probs", "--scenario", "hardy", "--family", "blocker",
            "--tol-abs", "1", "--event", "e", "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        rows = [r["probability"] for r in results["probabilities"] if "e" in r["history"]]
        assert len(rows) >= 2
        [event] = results["events"]
        assert event["labels"] == ["e"]
        assert event["probability"] == pytest.approx(sum(rows), rel=1e-12)

    def test_epr_f4_quarter_rows(self, capsys):
        code, out, _ = run(
            capsys, "probs", "--scenario", "epr", "--family", "F4", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        probs = [e["probability"] for e in report["results"]["probabilities"]]
        quarters = [p for p in probs if abs(p - 0.25) < 1e-9]
        assert len(quarters) == 4

    def test_inconsistent_family_refused(self, capsys):
        code, _, err = run(
            capsys, "probs", "--scenario", "spin-half", "--family", "F1-remerge"
        )
        assert code == 1
        assert "single framework rule" in err

    def test_conditional_query(self, capsys):
        code, out, _ = run(
            capsys, "probs", "--scenario", "spin-half", "--family", "G1",
            "--target", "t3=x+X", "--given", "t5=x+X+",
        )
        assert code == 0
        assert "= 1" in out

    def test_results_json_deterministic(self, capsys):
        argv = ["probs", "--scenario", "hardy", "--family", "unitary-output",
                "--format", "json"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        r1 = out1[out1.index('"results"'):out1.index('"wall_time_s"')]
        r2 = out2[out2.index('"results"'):out2.index('"wall_time_s"')]
        assert code1 == code2 == 0
        assert r1 == r2

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "probs", "--scenario", "epr", "--family", "F1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("history,probability")
        assert any("0.5" in line for line in lines[1:])

    def test_csv_rows_are_the_whole_table(self, capsys):
        # zero-probability rows included, as in the JSON report
        code, out, _ = run(
            capsys, "probs", "--scenario", "hardy", "--family", "arm-pair", "--format", "csv"
        )
        table = probabilities(build("hardy").family("arm-pair")).items()
        table = sorted(table, key=lambda ap: -ap[1])
        assert code == 0
        assert out.splitlines() == ["history,probability"] + [
            f"{' '.join(a)},{p:.17g}" for a, p in table
        ]
        assert any(p <= histories.EPS_SUPPORT for _, p in table)

    def test_all_flag_is_gone(self, capsys):
        code, out, err = run(
            capsys, "probs", "--scenario", "hardy", "--family", "arm-pair", "--all"
        )
        assert (code, out) == (2, "")
        assert "--all" in err


class TestCompat:
    def test_kinematic_pair(self, capsys):
        code, out, _ = run(capsys, "compat", "--scenario", "spin-half", "F1", "F2")
        assert code == 1
        assert "kinematic-incompatible" in out

    def test_identical(self, capsys):
        code, out, _ = run(capsys, "compat", "--scenario", "spin-half", "F1", "F1")
        assert code == 0
        assert "identical" in out

    def test_inconsistent_self_pair_is_dynamic(self, capsys):
        code, out, _ = run(capsys, "compat", "--scenario", "hardy", "blocker", "blocker")
        assert code == 1
        assert "dynamic-incompatible" in out

    def test_dynamic_pair_from_file(self, capsys, tmp_path):
        text = MINIMAL + """
proj pup on q = span(up)
ket down in q = [0, 1]
proj pdown on q = span(down)
decomp zbasis on q = {pup, pdown}
family fmid times tg initial up {
  at 0: identity
  at 1: xbasis
  at 2: identity
} steps { idq idq }
family flate times tg initial up {
  at 0: identity
  at 1: identity
  at 2: zbasis
} steps { idq idq }
"""
        path = tmp_path / "doc.fam"
        path.write_text(text)
        code, out, _ = run(capsys, "compat", "--file", str(path), "fmid", "flate")
        assert code == 1
        assert "dynamic-incompatible" in out

    def test_mismatched_dynamics_is_input_error(self, capsys, tmp_path):
        text = MINIMAL + """
unitary flip on q = [0 1 1 0]
times tg2 = [0, 1]
family other times tg2 initial up {
  at 0: identity
  at 1: xbasis
} steps { flip }
"""
        path = tmp_path / "doc.fam"
        path.write_text(text)
        code, _, err = run(capsys, "compat", "--file", str(path), "split", "other")
        assert code == 3
        assert "different dynamics" in err


WAVEPACKET_FAMILIES = ("F0", "F1", "F2", "F2-remerge", "G0", "G1", "G2")
# the common-refinement and dynamic pairs, and one kinematic pair
WAVEPACKET_PAIRS = (
    ("F0", "G0"), ("F0", "G2"), ("F1", "G1"), ("F2", "G1"), ("F2-remerge", "G1"), ("F0", "F1"),
)


class TestBlockwiseProducts:
    @pytest.mark.parametrize(
        "argv",
        [("check", "--family", fam) for fam in WAVEPACKET_FAMILIES]
        + [("compat", a, b) for a, b in WAVEPACKET_PAIRS],
        ids=" ".join,
    )
    def test_dense_products_give_the_same_results(self, capsys, monkeypatch, argv):
        # the wavepacket's d = 196 products run block-wise; above 196 they are dense
        def results():
            code, out, _ = run(
                capsys, argv[0], "--scenario", "wavepacket", *argv[1:], "--format", "json"
            )
            return code, json.dumps(json.loads(out)["results"])

        block = results()
        monkeypatch.setattr(hilbert, "_BLOCK_MIN_DIM", 197)
        assert results() == block


class TestScenario:
    @pytest.mark.parametrize("name", ["spin-half", "epr", "hardy"])
    def test_suite_passes(self, capsys, name):
        code, out, _ = run(capsys, "scenario", name, "--suite")
        assert code == 0
        assert "FAIL" not in out
        assert "[paper]" in out

    def test_summary_mode(self, capsys):
        code, out, _ = run(capsys, "scenario", "hardy")
        assert code == 0
        assert "families" in out

    def test_summary_json_and_csv(self, capsys):
        scn = build("hardy")
        code, out, _ = run(capsys, "scenario", "hardy", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"] == {
            "name": "hardy", "dimension": scn.dim, "description": scn.description,
            "times": list(scn.propagators.grid.values), "families": sorted(scn.families),
            "kets": sorted(scn.kets), "events": sorted(scn.events),
        }
        # a summary has no rows, so its CSV view prints nothing
        assert run(capsys, "scenario", "hardy", "--format", "csv") == (0, "", "")

    def test_unknown_scenario(self, capsys):
        code, _, err = run(capsys, "scenario", "nope", "--suite")
        assert code == 3
        assert "available" in err

    def test_json_suite_report(self, capsys):
        code, out, _ = run(capsys, "scenario", "epr", "--suite", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["results"]["passed"] is True
        assert all(c["passed"] for c in report["results"]["checks"])


class TestEmbed:
    def test_embedding_success(self, capsys, tmp_path):
        path = tmp_path / "events.json"
        path.write_text(json.dumps(EVENTS_OK))
        code, out, _ = run(capsys, "embed", str(path))
        assert code == 0
        assert "surface" in out

    def test_embedding_failure_names_witness(self, capsys, tmp_path):
        path = tmp_path / "events.json"
        path.write_text(json.dumps(EVENTS_BAD))
        code, out, _ = run(capsys, "embed", str(path))
        assert code == 1
        assert "psi-" in out

    def test_refused_embedding_json_and_csv(self, capsys):
        path = str(DATA / "crossing_events.json")
        code, out, _ = run(capsys, "embed", path, "--format", "json")
        assert code == 1
        results = json.loads(out)["results"]
        assert results["embedded"] is False and results["witness"].startswith("psi-")
        assert set(results) == {"embedded", "witness", "detail"}
        code, out, _ = run(capsys, "embed", path, "--format", "csv")
        assert code == 1
        assert out.splitlines() == ["witness", results["witness"]]

    def test_overflowing_surface_span_is_input_error(self, capsys):
        # x1 - x0 overflows: tau would read event a at t = 0, before event b
        code, out, err = run(capsys, "embed", str(DATA / "overflowing_span_events.json"))
        assert (code, out) == (3, "")
        assert "differ by a finite amount" in err

    def test_no_events_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "events.json"
        path.write_text(json.dumps({"events": []}))
        code, _, err = run(capsys, "embed", str(path))
        assert code == 3
        assert "at least one event" in err

    def test_repeated_event_id_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "events.json"
        twice = EVENTS_OK["events"][0]
        path.write_text(json.dumps({"events": [twice, twice]}))
        code, _, err = run(capsys, "embed", str(path))
        assert code == 3
        assert "unique" in err

    @pytest.mark.parametrize("old,new", [
        ('"cells": [0]', '"cells": [1e400]'),  # JSON reads it as inf
        ('"cells": [0]', '"cells": [1.5]'),
        ('"cells": [0]', '"cells": [true]'),
        ('"cells": [0]', '"cells": ["7"]'),
        ('"cells": [0]', f'"cells": [1{"0" * 400}]'),
        ('"id": "src"', '"id": 5'),
        ('"xs": [-10, 10]', '"xs": [true, 10]'),
        ('"ts": [0, 0]', '"ts": [0, "0"]'),
        ('"xs": [-10, 10]', f'"xs": [-1{"0" * 400}, 10]'),
        ('"id": "src"', '"id": "src", "time_index": "x"'),
        ('"id": "src"', '"id": "src", "projector": 5'),
        ('"ts": [0, 0]', '"ts": [-20, 20]'),  # slope 2: not a spacelike surface
    ], ids=["cell-1e400", "cell-1.5", "cell-true", "cell-string", "cell-10**400", "id-number",
            "x-true", "t-string", "x-minus-10**400", "time-index-string", "projector-number",
            "surface-slope-2"])
    def test_malformed_event_is_input_error(self, capsys, tmp_path, old, new):
        # not read as another cell or id, and no traceback
        path = tmp_path / "events.json"
        path.write_text(json.dumps(EVENTS_OK).replace(old, new))
        code, _, err = run(capsys, "embed", str(path))
        assert code == 3
        assert err.count("error:") == 1 and "Traceback" not in err

    def test_bad_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "events.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "embed", str(path))
        assert code == 3

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "events.json"
        path.write_text(json.dumps(EVENTS_OK))
        code, out, _ = run(capsys, "embed", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["embedded"] is True
        assert len(report["results"]["foliation"]["surfaces"]) == 2


@pytest.mark.parametrize("argv, message", [
    (("scenario", "nope"),
     "unknown scenario 'nope'; available: ['epr', 'hardy', 'spin-half', 'wavepacket']"),
    (("probs", "--scenario", "spin-half", "--family", "G1",
      "--target", "t9=x+X", "--given", "t5=x+X+"),
     "family has no time labeled 't9'"),
    (("probs", "--scenario", "hardy", "--family", "unitary-output", "--event", "zzz"),
     "label 'zzz' not used anywhere in the family"),
], ids=["scenario", "time", "label"])
def test_refusal_from_a_key_error_prints_its_message(capsys, argv, message):
    # str() of a KeyError would wrap the message in quotes
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, code", [
    (("probs", "--scenario", "epr", "--family", "F1", "--format", "csv"), 0),
    (("compat", "--scenario", "epr", "F1", "F3"), 1),
], ids=["probs-csv", "compat-text"])
def test_closed_stdout_keeps_the_exit_code_without_a_traceback(argv, code):
    # the reader of the pipe is gone before the command writes, as with
    # ``| head -1`` on a long table; the output is short or long, so the
    # broken pipe shows in a print or in the final flush
    src = str(Path(conhist.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "conhist.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=write_end, stderr=subprocess.PIPE,
            env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (code, "")


# -- the one parser, built at import and shared by every in-process call --------


def test_main_constructs_no_parser(capsys, monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argvs = [
        ("check", "--scenario", "hardy", "--family", "blocker"),
        ("probs", "--scenario", "hardy", "--family", "unitary-output", "--event", "e,ebar"),
        ("compat", "--scenario", "spin-half", "F1", "F2"),
        ("scenario", "hardy"),
        ("embed", str(DATA / "crossing_events.json")),
        ("check", "--scenario", "hardy"),  # a usage error
        ("--version",),
        ("check", "--scenario", "nope", "--family", "F"),
        ("probs", "--scenario", "epr", "--family", "F4", "--format", "csv"),
        ("scenario", "spin-half", "--format", "json"),
    ]
    assert [run(capsys, *argv)[0] for argv in argvs] == [1, 0, 1, 0, 1, 2, 0, 3, 0, 0]
    assert made == []


def test_shared_parser_gives_serial_namespaces_under_threads():
    argvs = [
        ["check", "--scenario", "hardy", "--family", "blocker", "--tol-abs", "1e-6"],
        ["probs", "--scenario", "hardy", "--family", "unitary-output",
         "--event", "e,ebar", "--event", "f,fbar", "--format", "csv"],
        ["probs", "--file", "x.fam", "--family", "G1", "--target", "t3=x+X", "--given", "t5=x+X+"],
        ["compat", "--scenario", "spin-half", "F1", "F2", "--format", "json"],
        ["scenario", "epr", "--suite"],
        ["embed", "events.json"],
    ]
    serial = [vars(cli._PARSER.parse_args(argv)) for argv in argvs]
    start, results = threading.Barrier(4), [None] * 4

    def parse_all(k):
        start.wait()
        results[k] = [
            [vars(cli._PARSER.parse_args(argv)) for argv in argvs] for _ in range(50)
        ]

    threads = [threading.Thread(target=parse_all, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert all(passes == [serial] * 50 for passes in results)


def test_refused_and_version_calls_leave_the_parser_as_it_was(capsys):
    # the refused call appends to --event before its error, and --version
    # exits from inside the parse; the next call must not see either
    argv = ("probs", "--scenario", "hardy", "--family", "unitary-output",
            "--event", "e,ebar", "--format", "json")
    code, out, _ = run(capsys, *argv)
    first = json.loads(out)["results"]
    assert (code, [e["labels"] for e in first["events"]]) == (0, [["e", "ebar"]])
    before = [
        ("probs", "--scenario", "hardy", "--family", "unitary-output", "--event", "f,fbar", "--all"),
        ("--version",),
    ]
    for other, other_code in zip(before, (2, 0)):
        assert run(capsys, *other)[0] == other_code
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert cli._to_json(json.loads(out)["results"]) == cli._to_json(first)

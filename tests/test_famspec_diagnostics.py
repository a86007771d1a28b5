"""Pinned famspec diagnostics: the message, line and column of each refusal
that a name lookup, a declaration head, a list or a family check makes."""

import pytest

from conhist.famspec import parse, serialize, try_parse
from conhist.histories import consistency_check, probabilities

# Twelve lines of declarations; each case below adds line 13.
PREFIX = """\
space q dim 2
space r dim 2
ket up in q = [1, 0]
ket down in q = [0, 1]
ket half in q = [0.5, 0]
ket other in r = [1, 0]
unitary idq on q = [1 0 0 1]
proj pup on q = span(up)
proj pdown on q = span(down)
proj pother on r = span(other)
proj zero on q = sparse []
decomp zb on q = {pup, pdown}
"""
GRIDS = "times tg = [0, 1] times one = [0] "


@pytest.mark.parametrize(
    "line,message,column",
    [
        ("ket k in s = [1, 0]", "space 's' is not declared", 10),
        ("proj p on q = span(up, ghost)", "ket 'ghost' is not declared", 6),
        ("decomp d on q = {pup, ghost}", "projector 'ghost' is not declared", 8),
        (
            "family f times ghost { at 0: identity } steps { }",
            "time grid 'ghost' is not declared",
            16,
        ),
        (
            GRIDS + "family f times tg initial up { at 0: identity at 1: ghost } steps { idq }",
            "decomposition 'ghost' is not declared",
            87,
        ),
        (
            GRIDS + "family f times tg { at 0: zb at 1: zb } steps { ghost }",
            "unitary 'ghost' is not declared",
            83,
        ),
        ("proj p on q = span(up, other)", "ket 'other' lives on space 'r'", 6),
        ("decomp d on q = {pup, pother}", "projector 'pother' lives on space 'r'", 8),
        (
            GRIDS + "family f times tg initial zb { at 0: zb } steps { idq }",
            "initial 'zb' names neither a ket nor a projector",
            61,
        ),
        (
            GRIDS + "family f times tg { at 0: zb } steps { }",
            "grid 'tg' has 2 times, so the family needs 1 steps, got 0",
            42,
        ),
        (
            GRIDS + "family f times tg initial other { at 0: identity } steps { idq }",
            "family 'f' mixes spaces ['q', 'r']",
            42,
        ),
        (
            GRIDS + "family f times one { at 0: identity } steps { }",
            "family 'f' determines no space",
            42,
        ),
        (
            GRIDS + "family f times tg initial zero { at 0: zb } steps { idq }",
            "initial 'zero' cannot serve as a density operator: "
            "cannot build a state from the zero projector",
            42,
        ),
        (
            GRIDS + "family f times tg initial up { at 0: zb } steps { idq }",
            "with a pure initial state the first `at` entry must be `identity` "
            "(the {state, complement} decomposition is implied)",
            42,
        ),
        (
            GRIDS + "family f times tg initial half { at 0: identity at 1: zb } steps { idq }",
            "invalid family 'f': initial state 'half' has norm 0.5, expected 1",
            42,
        ),
        (
            GRIDS + "family f times tg { at 0.5: zb } steps { idq }",
            "time 0.5 is not on grid 'tg' (0.0, 1.0)",
            58,
        ),
        ("ket k on q = [1, 0]", "expected 'in', got 'on'", 7),
        ("ket k in q [1, 0]", "expected '=', got '['", 12),
        ("ket k in q = [1, 0", "expected ']'", 19),
        ("ket k in q = []", "expected amplitude, got ']'", 15),
        ("times t = [0, x]", "expected time, got 'x'", 15),
        ("proj p on q = span up", "expected '(', got 'up'", 20),
        ("decomp d on q = {pup pdown}", "expected '}', got 'pdown'", 22),
        (GRIDS + "family f times tg [", "expected '{', got '['", 53),
        (GRIDS + "family f times tg { at 0 zb }", "expected ':', got 'zb'", 60),
        (GRIDS + "family f times tg { } steps", "a family needs at least one `at` entry", 42),
        (GRIDS + "family f times tg { at 0: zb }", "expected 'steps'", 65),
        ("times t = [1, 0]", "times must be strictly increasing", 7),
        (
            GRIDS + "family f times tg { at 1: zb at 0: zb } steps { idq }",
            "`at` entries must be in strictly increasing time order",
            42,
        ),
        ("space s dim 0", "dimension must lie in 1..4096", 13),
        (
            "ket z in q = [0, 0] proj p on q = span(z)",
            "cannot build projector 'p': cannot project onto the span of zero kets",
            26,
        ),
    ],
)
def test_diagnostic_is_pinned(line, message, column):
    doc, d = try_parse(PREFIX + line)
    assert doc is None
    assert (d.message, d.line, d.column) == (message, 13, column)


def test_grid_whose_times_print_alike_parses_and_analyses():
    # both times print as t1 under :g; the grid labels them by their repr instead
    line = ("times near = [1.0000001, 1.0000002] family f times near initial up "
            "{ at 1.0000001: identity at 1.0000002: zb } steps { idq }")
    doc, d = try_parse(PREFIX + line)
    assert d is None
    fam = doc.family("f")
    assert fam.time_labels == ("t1.0000001", "t1.0000002")
    assert consistency_check(fam).consistent
    want = {("up", "pup"): 1.0, ("up", "pdown"): 0.0}
    assert dict(probabilities(fam).items()) == pytest.approx(want)
    again = parse(serialize(doc)).family("f")
    assert again.propagators.grid.values == fam.propagators.grid.values
    assert again.time_labels == fam.time_labels

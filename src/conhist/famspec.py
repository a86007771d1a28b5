"""A line-oriented text language for declaring spaces, kets, unitaries,
projectors, decompositions, time grids, and families.

Grammar (`#` starts a comment to end of line; newlines are whitespace; every
name must be declared before use):

    doc      := { stmt }
    stmt     := space | ket | unitary | proj | decomp | times | family
    space    := "space" NAME "dim" INT
    ket      := "ket" NAME "in" NAME "=" "[" complex { "," complex } "]"
    unitary  := "unitary" NAME "on" NAME "=" matrix
    proj     := "proj" NAME "on" NAME ( "=" "span" "(" NAME {"," NAME} ")"
                                      | "=" matrix )
    decomp   := "decomp" NAME "on" NAME "=" "{" NAME {"," NAME} "}"
    times    := "times" NAME "=" "[" REAL {"," REAL} "]"
    family   := "family" NAME "times" NAME ["initial" NAME]
                "{" { "at" REAL ":" (NAME | "identity") } "}"
                "steps" "{" { NAME } "}"
    matrix   := "[" complex { complex } "]"     -- row-major, dim^2 entries
              | "sparse" "[" [ entry { "," entry } ] "]"
    entry    := INT INT ":" complex             -- row, column, value

Complex literals are written `a+bi` with optional parts (`1`, `-0.5i`,
`0.7071+0.7071i`, `+i`, `-i`); matrices are whitespace-separated.  A literal
uses only the characters `0-9 . e E i + -`, `i` is the imaginary unit, and
its value must be finite.  A bare `i` scans as a name, so the imaginary unit
alone is written `+i`.  There is no expression arithmetic: writers supply
decimals.

A sparse matrix lists only the entries it sets, as `row column: value` with
0-based indices, in strictly increasing row-major order (so no entry can
repeat); every other entry is zero and `sparse []` is the zero matrix.
Both forms build the same dim x dim array.  `serialize` writes a matrix
with nnz nonzero entries sparse when `4 * nnz <= dim * dim` and dense
otherwise: a rule of dim and nnz alone, so a parse/serialize pass never
changes the form.  `sparse`, like `span`, is a reserved word.

A family's `at` entries select a subset of its grid's times (ascending); the
keyword `identity` puts the trivial one-member decomposition at that time.
`initial` names a ket (pure initial state; the first `at` entry must then be
`identity`, the canonical {state, complement} pair is implied) or a
projector, which is used as the maximally mixed density operator over its
range.  `steps` lists one unitary per consecutive pair of grid times.

Parsing is total: any input either yields a document or raises
:class:`FamSpecError` carrying positioned diagnostics.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .dynamics import PropagatorSet, TimeGrid
from .hilbert import (
    DecompositionOfIdentity,
    DensityOperator,
    Ket,
    Operator,
    Projector,
    is_projector,
    projector_onto_span,
    unitarity_defect,
)
from .histories import Family

_DECLARATIONS = ("space", "ket", "unitary", "proj", "decomp", "times", "family")
_KEYWORDS = frozenset(_DECLARATIONS) | frozenset(
    "in on dim span sparse identity initial at steps".split()
)

_MAX_DIM = 4096

# The token classes, ASCII only (`\d`, `\s` and `\w` would also admit Unicode
# digits, spaces and letters).  Upper-case groups yield tokens.
_NAME_CHARS = "A-Za-z0-9_+*.-"  # after the leading letter
_NAME = f"[A-Za-z][{_NAME_CHARS}]*"
_NUM = "[0-9.+-][0-9.eEi+-]*"
_TOKEN = re.compile(
    rf"(?P<NAME>{_NAME})|(?P<NUM>{_NUM})|(?P<PUNCT>[\[\]{{}}(),=:])"
    r"|(?P<newline>\n)|(?P<space>[ \t\r\f\v]+)|(?P<comment>#[^\n]*)|(?P<other>.)"
)
_LITERAL = re.compile("[0-9.eEi+-]+")


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str
    message: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


class FamSpecError(ValueError):
    """Parse or validation failure; every diagnostic carries a position."""

    def __init__(self, diagnostics: Sequence[ParseDiagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class _Token(NamedTuple):
    kind: str  # NAME | NUM | PUNCT | EOF
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "other":
            raise FamSpecError([ParseDiagnostic(
                "error", f"unexpected character {m[0]!r}", line, m.start() - line_start + 1
            )])
        elif kind.isupper():
            tokens.append(_Token(kind, m[0], line, m.start() - line_start + 1))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


def parse_complex(text: str) -> complex:
    """Parse an `a+bi` literal; raises ValueError on malformed input."""
    if not _LITERAL.fullmatch(text):
        raise ValueError("a number uses only the characters 0-9 . e E i + -")
    value = complex(text.replace("i", "j"))
    if not cmath.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def format_float(x: float) -> str:
    return f"{x:.17g}"


def format_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    if im == 0.0:
        return format_float(re)
    if re == 0.0:
        return format_float(im) + "i"
    im_txt = format_float(im)
    sign = "+" if not im_txt.startswith("-") else ""
    return format_float(re) + sign + im_txt + "i"


# -- declarations ---------------------------------------------------------------


@dataclass(frozen=True)
class SpaceDecl:
    name: str
    dim: int
    line: int
    column: int


@dataclass(frozen=True, eq=False)
class KetDecl:
    name: str
    space: str
    amplitudes: tuple[complex, ...]
    line: int
    column: int


@dataclass(frozen=True, eq=False)
class UnitaryDecl:
    name: str
    space: str
    entries: np.ndarray  # read-only, row-major, dim * dim complex
    line: int
    column: int


@dataclass(frozen=True, eq=False)
class ProjDecl:
    name: str
    space: str
    span: tuple[str, ...] | None
    entries: np.ndarray | None  # as in UnitaryDecl
    line: int
    column: int


@dataclass(frozen=True)
class DecompDecl:
    name: str
    space: str
    members: tuple[str, ...]
    line: int
    column: int


@dataclass(frozen=True)
class TimesDecl:
    name: str
    values: tuple[float, ...]
    line: int
    column: int


@dataclass(frozen=True)
class FamilyAt:
    time: float
    decomp: str | None  # None means the identity keyword
    line: int
    column: int


@dataclass(frozen=True)
class FamilyDecl:
    name: str
    times: str
    initial: str | None
    ats: tuple[FamilyAt, ...]
    steps: tuple[str, ...]
    line: int
    column: int


@dataclass(frozen=True, eq=False)
class SpecDocument:
    """Parsed, validated declarations plus the engine objects they define."""

    spaces: dict[str, SpaceDecl]
    ket_decls: dict[str, KetDecl]
    unitary_decls: dict[str, UnitaryDecl]
    proj_decls: dict[str, ProjDecl]
    decomp_decls: dict[str, DecompDecl]
    times_decls: dict[str, TimesDecl]
    family_decls: dict[str, FamilyDecl]
    kets: dict[str, Ket] = field(default_factory=dict)
    unitaries: dict[str, Operator] = field(default_factory=dict)
    projectors: dict[str, Projector] = field(default_factory=dict)
    decompositions: dict[str, DecompositionOfIdentity] = field(default_factory=dict)
    families: dict[str, Family] = field(default_factory=dict)

    def family(self, name: str) -> Family:
        try:
            return self.families[name]
        except KeyError:
            raise KeyError(
                f"document declares no family {name!r}; available: {sorted(self.families)}"
            ) from None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        # Families over the same grid, steps and space share one PropagatorSet.
        self.propagator_sets: dict[tuple, PropagatorSet] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise FamSpecError([ParseDiagnostic("error", message, tok.line, tok.column)])

    def expected(self, what: str):
        text = self.peek().text
        self.error(f"expected {what}, got {text!r}" if text else f"expected {what}")

    def expect_name(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "NAME":
            self.expected(what)
        if tok.text in _KEYWORDS:
            self.error(f"{tok.text!r} is a reserved keyword, not a valid {what}")
        return self.advance()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != word:
            self.expected(repr(word))
        return self.advance()

    def expect_punct(self, ch: str) -> _Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.text != ch:
            self.expected(repr(ch))
        return self.advance()

    def expect_number(self, what: str = "number") -> tuple[complex, _Token]:
        tok = self.peek()
        if tok.kind != "NUM":
            self.expected(what)
        self.advance()
        try:
            return parse_complex(tok.text), tok
        except ValueError as exc:
            self.error(f"malformed {what} {tok.text!r}: {exc}", tok)

    def expect_real(self, what: str = "real number") -> tuple[float, _Token]:
        value, tok = self.expect_number(what)
        if value.imag != 0.0:
            self.error(f"expected a real {what}, got {tok.text!r}", tok)
        return value.real, tok

    def expect_int(self, what: str = "integer") -> tuple[int, _Token]:
        value, tok = self.expect_real(what)
        if value != int(value):
            self.error(f"expected an integer {what}, got {tok.text!r}", tok)
        return int(value), tok

    def parse_complex_list(self) -> tuple[complex, ...]:
        self.expect_punct("[")
        values = [self.expect_number("amplitude")[0]]
        while self.peek().text == ",":
            self.advance()
            values.append(self.expect_number("amplitude")[0])
        self.expect_punct("]")
        return tuple(values)

    def parse_matrix(self, space: SpaceDecl, name_tok: _Token) -> np.ndarray:
        """A dense or sparse matrix literal as a read-only row-major array."""
        if self.peek().kind == "NAME" and self.peek().text == "sparse":
            self.advance()
            entries = self.parse_sparse(space.dim)
        else:
            n = space.dim * space.dim
            self.expect_punct("[")
            values = []
            while self.peek().kind == "NUM":
                values.append(self.expect_number("matrix entry")[0])
            self.expect_punct("]")
            if len(values) != n:
                self.error(f"matrix has {len(values)} entries, expected {n}", name_tok)
            entries = np.array(values, dtype=np.complex128)
        entries.flags.writeable = False
        return entries

    def parse_sparse(self, dim: int) -> np.ndarray:
        self.expect_punct("[")
        indices: list[int] = []
        values: list[complex] = []
        if self.peek().text != "]":
            while True:
                i, i_tok = self.expect_int("row index")
                if not 0 <= i < dim:
                    self.error(f"row index {i} is out of range 0..{dim - 1}", i_tok)
                j, j_tok = self.expect_int("column index")
                if not 0 <= j < dim:
                    self.error(f"column index {j} is out of range 0..{dim - 1}", j_tok)
                k = i * dim + j
                if indices and k <= indices[-1]:
                    if k == indices[-1]:
                        self.error(f"duplicate sparse entry ({i}, {j})", i_tok)
                    self.error(
                        f"sparse entry ({i}, {j}) follows {divmod(indices[-1], dim)}: "
                        "entries must be in strictly increasing row-major order",
                        i_tok,
                    )
                self.expect_punct(":")
                indices.append(k)
                values.append(self.expect_number("matrix entry")[0])
                if self.peek().text != ",":
                    break
                self.advance()
        self.expect_punct("]")
        entries = np.zeros(dim * dim, dtype=np.complex128)
        entries[indices] = values
        return entries

    def parse_name_list(self, open_ch: str, close_ch: str, what: str) -> tuple[str, ...]:
        self.expect_punct(open_ch)
        names = [self.expect_name(what).text]
        while self.peek().text == ",":
            self.advance()
            names.append(self.expect_name(what).text)
        self.expect_punct(close_ch)
        return tuple(names)

    def parse_document(self) -> SpecDocument:
        doc = SpecDocument({}, {}, {}, {}, {}, {}, {})
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind != "NAME" or tok.text not in _DECLARATIONS:
                self.error(f"expected a declaration keyword ({'/'.join(_DECLARATIONS)})")
            getattr(self, "parse_" + tok.text)(doc)
        return doc

    def _declare(self, doc: SpecDocument, name_tok: _Token):
        name = name_tok.text
        for table in (
            doc.spaces, doc.ket_decls, doc.unitary_decls, doc.proj_decls,
            doc.decomp_decls, doc.times_decls, doc.family_decls,
        ):
            if name in table:
                self.error(f"name {name!r} is already declared", name_tok)

    def _space_of(self, doc: SpecDocument, name: str, tok: _Token) -> SpaceDecl:
        if name not in doc.spaces:
            self.error(f"space {name!r} is not declared", tok)
        return doc.spaces[name]

    def parse_space(self, doc: SpecDocument):
        kw = self.advance()
        name_tok = self.expect_name("space name")
        self._declare(doc, name_tok)
        self.expect_keyword("dim")
        dim, dim_tok = self.expect_int("dimension")
        if not (1 <= dim <= _MAX_DIM):
            self.error(f"dimension must lie in 1..{_MAX_DIM}", dim_tok)
        doc.spaces[name_tok.text] = SpaceDecl(name_tok.text, dim, kw.line, kw.column)

    def parse_ket(self, doc: SpecDocument):
        kw = self.advance()
        name_tok = self.expect_name("ket name")
        self._declare(doc, name_tok)
        self.expect_keyword("in")
        space_tok = self.expect_name("space name")
        space = self._space_of(doc, space_tok.text, space_tok)
        self.expect_punct("=")
        amps = self.parse_complex_list()
        if len(amps) != space.dim:
            self.error(
                f"ket has {len(amps)} amplitudes, space {space.name!r} has dimension {space.dim}",
                name_tok,
            )
        decl = KetDecl(name_tok.text, space.name, amps, kw.line, kw.column)
        doc.ket_decls[decl.name] = decl
        doc.kets[decl.name] = Ket(np.array(amps, dtype=np.complex128), decl.name)

    def parse_unitary(self, doc: SpecDocument):
        kw = self.advance()
        name_tok = self.expect_name("unitary name")
        self._declare(doc, name_tok)
        self.expect_keyword("on")
        space_tok = self.expect_name("space name")
        space = self._space_of(doc, space_tok.text, space_tok)
        self.expect_punct("=")
        entries = self.parse_matrix(space, name_tok)
        op = Operator(entries.reshape(space.dim, space.dim))
        defect = unitarity_defect(op)
        if not defect < 1e-9:  # also refuses NaN, from entries whose products overflow
            self.error(
                f"matrix for {name_tok.text!r} is non-unitary: defect {defect:.3e} "
                "(threshold 1e-09)",
                name_tok,
            )
        decl = UnitaryDecl(name_tok.text, space.name, entries, kw.line, kw.column)
        doc.unitary_decls[decl.name] = decl
        doc.unitaries[decl.name] = op

    def parse_proj(self, doc: SpecDocument):
        kw = self.advance()
        name_tok = self.expect_name("projector name")
        self._declare(doc, name_tok)
        self.expect_keyword("on")
        space_tok = self.expect_name("space name")
        space = self._space_of(doc, space_tok.text, space_tok)
        self.expect_punct("=")
        if self.peek().kind == "NAME" and self.peek().text == "span":
            self.advance()
            names = self.parse_name_list("(", ")", "ket name")
            kets = []
            for n in names:
                if n not in doc.kets:
                    self.error(f"ket {n!r} is not declared", name_tok)
                if doc.ket_decls[n].space != space.name:
                    self.error(f"ket {n!r} lives on space {doc.ket_decls[n].space!r}", name_tok)
                kets.append(doc.kets[n])
            try:
                proj = projector_onto_span(kets)
            except ValueError as exc:
                self.error(f"cannot build projector {name_tok.text!r}: {exc}", name_tok)
            decl = ProjDecl(name_tok.text, space.name, names, None, kw.line, kw.column)
        else:
            entries = self.parse_matrix(space, name_tok)
            op = Operator(entries.reshape(space.dim, space.dim))
            check = is_projector(op)
            if not check:
                self.error(
                    f"matrix for {name_tok.text!r} is not a projector: hermiticity "
                    f"defect {check.hermiticity_defect:.3e}, idempotency defect "
                    f"{check.idempotency_defect:.3e} (threshold 1e-09)",
                    name_tok,
                )
            try:
                proj = Projector(op)
            except ValueError as exc:  # a trace off an integer by more than the tolerance
                self.error(f"invalid projector {name_tok.text!r}: {exc}", name_tok)
            decl = ProjDecl(name_tok.text, space.name, None, entries, kw.line, kw.column)
        doc.proj_decls[decl.name] = decl
        doc.projectors[decl.name] = proj

    def parse_decomp(self, doc: SpecDocument):
        kw = self.advance()
        name_tok = self.expect_name("decomposition name")
        self._declare(doc, name_tok)
        self.expect_keyword("on")
        space_tok = self.expect_name("space name")
        space = self._space_of(doc, space_tok.text, space_tok)
        self.expect_punct("=")
        members = self.parse_name_list("{", "}", "projector name")
        projs = []
        for n in members:
            if n not in doc.projectors:
                self.error(f"projector {n!r} is not declared", name_tok)
            if doc.proj_decls[n].space != space.name:
                self.error(f"projector {n!r} lives on space {doc.proj_decls[n].space!r}", name_tok)
            projs.append((n, doc.projectors[n]))
        try:
            dec = DecompositionOfIdentity(tuple(projs))
        except ValueError as exc:
            self.error(f"invalid decomposition {name_tok.text!r}: {exc}", name_tok)
        decl = DecompDecl(name_tok.text, space.name, members, kw.line, kw.column)
        doc.decomp_decls[decl.name] = decl
        doc.decompositions[decl.name] = dec

    def parse_times(self, doc: SpecDocument):
        kw = self.advance()
        name_tok = self.expect_name("time grid name")
        self._declare(doc, name_tok)
        self.expect_punct("=")
        self.expect_punct("[")
        values = [self.expect_real("time")[0]]
        while self.peek().text == ",":
            self.advance()
            values.append(self.expect_real("time")[0])
        self.expect_punct("]")
        if any(b <= a for a, b in zip(values, values[1:])):
            self.error("times must be strictly increasing", name_tok)
        doc.times_decls[name_tok.text] = TimesDecl(
            name_tok.text, tuple(values), kw.line, kw.column
        )

    def parse_family(self, doc: SpecDocument):
        kw = self.advance()
        name_tok = self.expect_name("family name")
        self._declare(doc, name_tok)
        self.expect_keyword("times")
        times_tok = self.expect_name("time grid name")
        if times_tok.text not in doc.times_decls:
            self.error(f"time grid {times_tok.text!r} is not declared", times_tok)
        times_decl = doc.times_decls[times_tok.text]
        initial = None
        if self.peek().kind == "NAME" and self.peek().text == "initial":
            self.advance()
            initial_tok = self.expect_name("initial state name")
            initial = initial_tok.text
            if initial not in doc.kets and initial not in doc.projectors:
                self.error(
                    f"initial {initial!r} names neither a ket nor a projector", initial_tok
                )
        self.expect_punct("{")
        ats: list[FamilyAt] = []
        while self.peek().kind == "NAME" and self.peek().text == "at":
            at_tok = self.advance()
            t, t_tok = self.expect_real("time")
            self.expect_punct(":")
            tok = self.peek()
            if tok.kind == "NAME" and tok.text == "identity":
                self.advance()
                dec_name = None
            else:
                dec_tok = self.expect_name("decomposition name")
                if dec_tok.text not in doc.decompositions:
                    self.error(f"decomposition {dec_tok.text!r} is not declared", dec_tok)
                dec_name = dec_tok.text
            try:
                TimeGrid(times_decl.values).index_of_value(t)
            except KeyError:
                self.error(
                    f"time {t:g} is not on grid {times_decl.name!r} {times_decl.values}",
                    t_tok,
                )
            ats.append(FamilyAt(t, dec_name, at_tok.line, at_tok.column))
        self.expect_punct("}")
        if not ats:
            self.error("a family needs at least one `at` entry", name_tok)
        if any(b.time <= a.time for a, b in zip(ats, ats[1:])):
            self.error("`at` entries must be in strictly increasing time order", name_tok)
        self.expect_keyword("steps")
        self.expect_punct("{")
        steps = []
        while self.peek().kind == "NAME" and self.peek().text not in _DECLARATIONS:
            step_tok = self.advance()
            if step_tok.text not in doc.unitaries:
                self.error(f"unitary {step_tok.text!r} is not declared", step_tok)
            steps.append(step_tok.text)
        self.expect_punct("}")
        if len(steps) != len(times_decl.values) - 1:
            self.error(
                f"grid {times_decl.name!r} has {len(times_decl.values)} times, so the "
                f"family needs {len(times_decl.values) - 1} steps, got {len(steps)}",
                name_tok,
            )
        decl = FamilyDecl(
            name_tok.text, times_decl.name, initial, tuple(ats), tuple(steps),
            kw.line, kw.column,
        )
        self._build_family(doc, decl, name_tok)
        doc.family_decls[decl.name] = decl

    def _build_family(self, doc: SpecDocument, decl: FamilyDecl, name_tok: _Token):
        spaces = set()
        for s in decl.steps:
            spaces.add(doc.unitary_decls[s].space)
        for at in decl.ats:
            if at.decomp is not None:
                spaces.add(doc.decomp_decls[at.decomp].space)
        if decl.initial is not None:
            if decl.initial in doc.ket_decls:
                spaces.add(doc.ket_decls[decl.initial].space)
            else:
                spaces.add(doc.proj_decls[decl.initial].space)
        if len(spaces) > 1:
            self.error(
                f"family {decl.name!r} mixes spaces {sorted(spaces)}", name_tok
            )
        if not spaces:
            self.error(f"family {decl.name!r} determines no space", name_tok)
        space = doc.spaces[spaces.pop()]

        grid = TimeGrid(doc.times_decls[decl.times].values)
        key = (decl.times, decl.steps, space.name)
        if key not in self.propagator_sets:
            self.propagator_sets[key] = PropagatorSet(
                grid,
                tuple(doc.unitaries[s] for s in decl.steps),
                space_dim=space.dim,
            )
        ps = self.propagator_sets[key]

        indices = tuple(grid.index_of_value(at.time) for at in decl.ats)
        pure = decl.initial in doc.kets
        rho = None
        if pure:
            ket = doc.kets[decl.initial]
            if abs(ket.norm() - 1.0) >= 1e-9:
                self.error(
                    f"initial state {decl.initial!r} has norm {ket.norm():.12g}, expected 1",
                    name_tok,
                )
            if decl.ats[0].decomp is not None:
                self.error(
                    "with a pure initial state the first `at` entry must be `identity` "
                    "(the {state, complement} decomposition is implied)",
                    name_tok,
                )
        elif decl.initial is not None:
            try:
                rho = DensityOperator.from_projector(doc.projectors[decl.initial])
            except ValueError as exc:
                self.error(
                    f"initial {decl.initial!r} cannot serve as a density operator: {exc}",
                    name_tok,
                )
        decs = [
            DecompositionOfIdentity.trivial(space.dim) if at.decomp is None
            else doc.decompositions[at.decomp]
            for at in decl.ats[1 if pure else 0:]
        ]
        try:
            if pure:
                fam = Family.pure(ps, indices, ket, decs, name=decl.name)
            else:
                fam = Family.general(ps, indices, decs, rho=rho, name=decl.name)
        except ValueError as exc:
            self.error(f"invalid family {decl.name!r}: {exc}", name_tok)
        doc.families[decl.name] = fam


def parse(text: str) -> SpecDocument:
    """Parse and validate a document; raises :class:`FamSpecError` with the
    first positioned diagnostic on any failure."""
    if not isinstance(text, str):
        raise FamSpecError(
            [ParseDiagnostic("error", "input must be a UTF-8 string", 1, 1)]
        )
    return _Parser(text).parse_document()


def try_parse(text: str) -> tuple[SpecDocument | None, tuple[ParseDiagnostic, ...]]:
    try:
        return parse(text), ()
    except FamSpecError as exc:
        return None, exc.diagnostics


# -- serialization ---------------------------------------------------------------


def _format_matrix(entries: np.ndarray, dim: int) -> str:
    """A row-major ``dim * dim`` array as a literal: sparse when at most a
    quarter of its entries are nonzero, dense otherwise."""
    nonzero = np.flatnonzero(entries)
    if 4 * len(nonzero) <= dim * dim:
        if not len(nonzero):
            return "sparse []"
        lines = (
            f"  {k // dim} {k % dim}: {format_complex(z)}"
            for k, z in zip(nonzero.tolist(), entries[nonzero].tolist())
        )
        return "sparse [\n" + ",\n".join(lines) + "\n]"
    values = [format_complex(z) for z in entries.tolist()]
    rows = ("  " + " ".join(values[r * dim:(r + 1) * dim]) for r in range(dim))
    return "[\n" + "\n".join(rows) + "\n]"


def serialize(doc: SpecDocument) -> str:
    """Canonical text form: declarations grouped by kind in dependency order
    (spaces, kets, unitaries, projectors, decompositions, times, families),
    first-declaration order within each kind, amplitudes at 17 significant
    digits.  ``parse(serialize(doc))`` is semantically identical to ``doc``
    and ``serialize`` is byte-idempotent."""
    lines: list[str] = []
    for s in doc.spaces.values():
        lines.append(f"space {s.name} dim {s.dim}")
    for k in doc.ket_decls.values():
        amps = ", ".join(format_complex(z) for z in k.amplitudes)
        lines.append(f"ket {k.name} in {k.space} = [{amps}]")
    for u in doc.unitary_decls.values():
        dim = doc.spaces[u.space].dim
        lines.append(f"unitary {u.name} on {u.space} = " + _format_matrix(u.entries, dim))
    for p in doc.proj_decls.values():
        if p.span is not None:
            lines.append(f"proj {p.name} on {p.space} = span({', '.join(p.span)})")
        else:
            dim = doc.spaces[p.space].dim
            lines.append(f"proj {p.name} on {p.space} = " + _format_matrix(p.entries, dim))
    for d in doc.decomp_decls.values():
        lines.append(f"decomp {d.name} on {d.space} = {{{', '.join(d.members)}}}")
    for t in doc.times_decls.values():
        vals = ", ".join(format_float(v) for v in t.values)
        lines.append(f"times {t.name} = [{vals}]")
    for f in doc.family_decls.values():
        head = f"family {f.name} times {f.times}"
        if f.initial is not None:
            head += f" initial {f.initial}"
        body = [head + " {"]
        for at in f.ats:
            target = at.decomp if at.decomp is not None else "identity"
            body.append(f"  at {format_float(at.time)}: {target}")
        body.append("} steps { " + " ".join(f.steps) + " }")
        lines.append("\n".join(body))
    return "\n".join(lines) + "\n"


# -- scenario export ---------------------------------------------------------------


def _sanitize(name: str, taken: set[str]) -> str:
    cand = re.sub(f"[^{_NAME_CHARS}]", lambda m: "p" if m[0] == "'" else "_", name)
    if not re.fullmatch(_NAME, cand):  # empty, or a leading non-letter
        cand = "x_" + cand[1:] if cand else "x"
    base, k = cand, 2
    while cand in taken or cand in _KEYWORDS:
        cand = f"{base}.{k}"
        k += 1
    taken.add(cand)
    return cand


def scenario_to_famspec(scn) -> str:
    """Write a scenario's dynamics and families as famspec text.

    Every propagator set used by the scenario's families becomes its own
    times/steps group; decomposition members are exported as explicit
    projector matrices.  Names outside the famspec charset are sanitized.
    Only pure or absent initial conditions are supported.
    """
    from .histories import PureInitial

    taken: set[str] = set()
    lines: list[str] = []
    space_by_dim: dict[int, str] = {}
    grid_name: dict[int, str] = {}
    step_names: dict[int, tuple[str, ...]] = {}
    proj_names: dict[int, str] = {}
    proj_mats: list[tuple[str, str, np.ndarray]] = []
    ket_names: dict[int, str] = {}

    def export_space(ps) -> str:
        # One famspec space per dimension: distinct dynamics over the same
        # system share kets and projectors.
        if ps.dim in space_by_dim:
            return space_by_dim[ps.dim]
        name = _sanitize(f"H{len(space_by_dim)}", taken)
        lines.append(f"space {name} dim {ps.dim}")
        space_by_dim[ps.dim] = name
        return name

    def export_grid(ps) -> str:
        if id(ps) in grid_name:
            return grid_name[id(ps)]
        space = export_space(ps)
        gname = _sanitize(f"grid{len(grid_name)}", taken)
        vals = ", ".join(format_float(v) for v in ps.grid.values)
        snames = []
        for j, step in enumerate(ps.steps):
            sname = _sanitize(f"{gname}.step{j}", taken)
            lines.append(
                f"unitary {sname} on {space} = " + _format_matrix(step.mat.ravel(), ps.dim)
            )
            snames.append(sname)
        lines.append(f"times {gname} = [{vals}]")
        grid_name[id(ps)] = gname
        step_names[id(ps)] = tuple(snames)
        return gname

    def export_proj(label: str, proj, space: str) -> str:
        # Reuse a declaration only when both the label and the matrix agree;
        # equal matrices may legitimately carry different basis readings.
        key = id(proj)
        if key in proj_names:
            return proj_names[key]
        for name, lab, mat in proj_mats:
            if (
                lab == label
                and mat.shape == proj.mat.shape
                and np.allclose(mat, proj.mat, atol=1e-15)
            ):
                proj_names[key] = name
                return name
        name = _sanitize(label, taken)
        lines.append(
            f"proj {name} on {space} = " + _format_matrix(proj.mat.ravel(), proj.dim)
        )
        proj_names[key] = name
        proj_mats.append((name, label, proj.mat))
        return name

    def export_ket(ket, fallback: str, space: str) -> str:
        key = id(ket)
        if key in ket_names:
            return ket_names[key]
        name = _sanitize(ket.label or fallback, taken)
        amps = ", ".join(format_complex(z) for z in ket.amps)
        lines.append(f"ket {name} in {space} = [{amps}]")
        ket_names[key] = name
        return name

    family_lines: list[str] = []
    for fname in sorted(scn.families):
        fam = scn.families[fname]
        if fam.initial is not None and not isinstance(fam.initial, PureInitial):
            raise ValueError("only pure or absent initial conditions can be exported")
        gname = export_grid(fam.propagators)
        space = space_by_dim[fam.propagators.dim]
        head = f"family {_sanitize(fname, taken)} times {gname}"
        start_slot = 0
        if isinstance(fam.initial, PureInitial):
            kname = export_ket(fam.initial.ket, f"{fname}.initial", space)
            head += f" initial {kname}"
            start_slot = 1
        body = [head + " {"]
        if start_slot == 1:
            t0 = fam.propagators.grid.values[fam.time_indices[0]]
            body.append(f"  at {format_float(t0)}: identity")
        for slot in range(start_slot, len(fam.time_indices)):
            t = fam.propagators.grid.values[fam.time_indices[slot]]
            dec = fam.decompositions[slot]
            if len(dec) == 1 and dec.members[0][1].rank == fam.dim:
                target = "identity"
            else:
                members = [
                    export_proj(f"{lab}", proj, space) for lab, proj in dec.members
                ]
                dname = _sanitize(f"{fname}.t{t:g}", taken)
                family_lines.append(
                    f"decomp {dname} on {space} = {{{', '.join(members)}}}"
                )
                target = dname
            body.append(f"  at {format_float(t)}: {target}")
        body.append("} steps { " + " ".join(step_names[id(fam.propagators)]) + " }")
        family_lines.append("\n".join(body))

    return "\n".join(lines + family_lines) + "\n"

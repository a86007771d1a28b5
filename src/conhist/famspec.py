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
:class:`FamSpecError` carrying positioned diagnostics.  A document may make
the parser build at most 64 MiB of dim x dim matrices (`_MATRIX_BUDGET`),
charged before each one is allocated.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dynamics import TOL_UNITARY, PropagatorSet, TimeGrid
from .hilbert import (
    DecompositionOfIdentity,
    DensityOperator,
    Ket,
    NotAProjectorError,
    Operator,
    Projector,
    TOL_PROJ,
    projector_onto_span,
    unitarity_defect,
)
from .histories import Family, PureInitial, pure_families

_DECLARATIONS = ("space", "ket", "unitary", "proj", "decomp", "times", "family")
_KEYWORDS = frozenset(_DECLARATIONS) | frozenset(
    "in on dim span sparse identity initial at steps".split()
)

_MAX_DIM = 4096
# Bytes of the dim x dim complex matrices one document may make the parser
# build: matrix literals, span projectors, and each family's identity
# decompositions, initial-state matrices and cumulative propagators.  A
# sparse literal or a family line is a few bytes of text at any dimension,
# so the budget is charged before each allocation.  The largest bundled
# export, the default wavepacket model (dim 196), charges 41 matrices,
# 25.2 MB; 64 MiB leaves 2.6x headroom for it and admits no single matrix
# above dimension 2048.  A literal's declaration keeps a view of its
# operator's matrix, so each matrix is held once; while a literal is
# validated, its parsed entries are a second copy of that one matrix.
_MATRIX_BUDGET = 64 * 2**20

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


@dataclass(frozen=True, eq=False)
class KetDecl:
    name: str
    space: str
    amplitudes: tuple[complex, ...]


@dataclass(frozen=True, eq=False)
class UnitaryDecl:
    name: str
    space: str
    entries: np.ndarray  # a read-only, row-major, dim * dim view of the matrix


@dataclass(frozen=True, eq=False)
class ProjDecl:
    name: str
    space: str
    span: tuple[str, ...] | None
    entries: np.ndarray | None  # as in UnitaryDecl


@dataclass(frozen=True)
class DecompDecl:
    name: str
    space: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class TimesDecl:
    name: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class FamilyAt:
    time: float
    decomp: str | None  # None means the identity keyword


@dataclass(frozen=True)
class FamilyDecl:
    name: str
    times: str
    initial: str | None
    ats: tuple[FamilyAt, ...]
    steps: tuple[str, ...]


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
        # Families over the same grid, steps and space share one PropagatorSet,
        # and families from the same ket one {ket, complement} decomposition.
        self.propagator_sets: dict[tuple, PropagatorSet] = {}
        self.pure_by_ket: dict[str, Callable[..., Family]] = {}
        self.matrix_bytes = 0  # charged against _MATRIX_BUDGET

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

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is ``text``; a keyword or a
        punctuation mark is known by its text alone."""
        if self.peek().text != text:
            return False
        self.pos += 1
        return True

    def expect(self, text: str):
        if not self.accept(text):
            self.expected(repr(text))

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

    def charge(self, count: int, space: SpaceDecl, name_tok: _Token):
        """Account for ``count`` new dim x dim matrices before building them."""
        self.matrix_bytes += count * space.dim * space.dim * 16
        if self.matrix_bytes > _MATRIX_BUDGET:
            self.error(
                f"{name_tok.text!r} would bring the document's matrices to "
                f"{self.matrix_bytes} bytes, over the budget of {_MATRIX_BUDGET}",
                name_tok,
            )

    def parse_list(self, open_ch: str, close_ch: str, item: Callable[[], object]) -> tuple:
        """``open item {"," item} close``: ket amplitudes, span kets,
        decomposition members and grid times."""
        self.expect(open_ch)
        values = [item()]
        while self.accept(","):
            values.append(item())
        self.expect(close_ch)
        return tuple(values)

    def parse_matrix(self, space: SpaceDecl, name_tok: _Token) -> np.ndarray:
        """A dense or sparse matrix literal as a row-major array."""
        self.charge(1, space, name_tok)
        if self.accept("sparse"):
            entries = self.parse_sparse(space.dim)
        else:
            n = space.dim * space.dim
            self.expect("[")
            values = []
            while self.peek().kind == "NUM":
                values.append(self.expect_number("matrix entry")[0])
            self.expect("]")
            if len(values) != n:
                self.error(f"matrix has {len(values)} entries, expected {n}", name_tok)
            entries = np.array(values, dtype=np.complex128)
        return entries

    def parse_sparse(self, dim: int) -> np.ndarray:
        self.expect("[")
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
                self.expect(":")
                indices.append(k)
                values.append(self.expect_number("matrix entry")[0])
                if not self.accept(","):
                    break
        self.expect("]")
        entries = np.zeros(dim * dim, dtype=np.complex128)
        entries[indices] = values
        return entries

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

    def _lookup(self, table: dict, kind: str, name: str, tok: _Token, space: str | None = None):
        """The declaration of ``name`` in ``table``; refused at ``tok`` when it
        is missing, or when it lives on another space than ``space``."""
        if name not in table:
            self.error(f"{kind} {name!r} is not declared", tok)
        decl = table[name]
        if space is not None and decl.space != space:
            self.error(f"{kind} {name!r} lives on space {decl.space!r}", tok)
        return decl

    def _header(self, doc: SpecDocument, kind: str, preposition: str) -> tuple[_Token, SpaceDecl]:
        """``KIND NAME in|on SPACE =``: the declared name's token and its space."""
        self.advance()
        name_tok = self.expect_name(f"{kind} name")
        self._declare(doc, name_tok)
        self.expect(preposition)
        space_tok = self.expect_name("space name")
        space = self._lookup(doc.spaces, "space", space_tok.text, space_tok)
        self.expect("=")
        return name_tok, space

    def parse_space(self, doc: SpecDocument):
        self.advance()
        name_tok = self.expect_name("space name")
        self._declare(doc, name_tok)
        self.expect("dim")
        dim, dim_tok = self.expect_int("dimension")
        if not (1 <= dim <= _MAX_DIM):
            self.error(f"dimension must lie in 1..{_MAX_DIM}", dim_tok)
        doc.spaces[name_tok.text] = SpaceDecl(name_tok.text, dim)

    def parse_ket(self, doc: SpecDocument):
        name_tok, space = self._header(doc, "ket", "in")
        amps = self.parse_list("[", "]", lambda: self.expect_number("amplitude")[0])
        if len(amps) != space.dim:
            self.error(
                f"ket has {len(amps)} amplitudes, space {space.name!r} has dimension {space.dim}",
                name_tok,
            )
        decl = KetDecl(name_tok.text, space.name, amps)
        doc.ket_decls[decl.name] = decl
        doc.kets[decl.name] = Ket(np.array(amps, dtype=np.complex128), decl.name)

    def parse_unitary(self, doc: SpecDocument):
        name_tok, space = self._header(doc, "unitary", "on")
        entries = self.parse_matrix(space, name_tok)
        op = Operator(entries.reshape(space.dim, space.dim))
        defect = unitarity_defect(op)
        if not defect < TOL_UNITARY:  # also refuses NaN, from entries whose products overflow
            self.error(
                f"matrix for {name_tok.text!r} is non-unitary: defect {defect:.3e} "
                f"(threshold {TOL_UNITARY:.0e})",
                name_tok,
            )
        decl = UnitaryDecl(name_tok.text, space.name, op.mat.ravel())
        doc.unitary_decls[decl.name] = decl
        doc.unitaries[decl.name] = op

    def parse_proj(self, doc: SpecDocument):
        name_tok, space = self._header(doc, "projector", "on")
        if self.accept("span"):
            names = self.parse_list("(", ")", lambda: self.expect_name("ket name").text)
            for n in names:
                self._lookup(doc.ket_decls, "ket", n, name_tok, space.name)
            self.charge(1, space, name_tok)
            try:
                proj = projector_onto_span([doc.kets[n] for n in names])
            except ValueError as exc:
                self.error(f"cannot build projector {name_tok.text!r}: {exc}", name_tok)
            decl = ProjDecl(name_tok.text, space.name, names, None)
        else:
            entries = self.parse_matrix(space, name_tok)
            try:
                proj = Projector(Operator(entries.reshape(space.dim, space.dim)))
            except NotAProjectorError as exc:
                check = exc.check
                self.error(
                    f"matrix for {name_tok.text!r} is not a projector: hermiticity "
                    f"defect {check.hermiticity_defect:.3e}, idempotency defect "
                    f"{check.idempotency_defect:.3e} (threshold {TOL_PROJ:.0e})",
                    name_tok,
                )
            except ValueError as exc:  # a trace off an integer by more than the tolerance
                self.error(f"invalid projector {name_tok.text!r}: {exc}", name_tok)
            decl = ProjDecl(name_tok.text, space.name, None, proj.mat.ravel())
        doc.proj_decls[decl.name] = decl
        doc.projectors[decl.name] = proj

    def parse_decomp(self, doc: SpecDocument):
        name_tok, space = self._header(doc, "decomposition", "on")
        members = self.parse_list("{", "}", lambda: self.expect_name("projector name").text)
        for n in members:
            self._lookup(doc.proj_decls, "projector", n, name_tok, space.name)
        try:
            dec = DecompositionOfIdentity(tuple((n, doc.projectors[n]) for n in members))
        except ValueError as exc:
            self.error(f"invalid decomposition {name_tok.text!r}: {exc}", name_tok)
        decl = DecompDecl(name_tok.text, space.name, members)
        doc.decomp_decls[decl.name] = decl
        doc.decompositions[decl.name] = dec

    def parse_times(self, doc: SpecDocument):
        self.advance()
        name_tok = self.expect_name("time grid name")
        self._declare(doc, name_tok)
        self.expect("=")
        values = self.parse_list("[", "]", lambda: self.expect_real("time")[0])
        if any(b <= a for a, b in zip(values, values[1:])):
            self.error("times must be strictly increasing", name_tok)
        doc.times_decls[name_tok.text] = TimesDecl(name_tok.text, values)

    def parse_family(self, doc: SpecDocument):
        self.advance()
        name_tok = self.expect_name("family name")
        self._declare(doc, name_tok)
        self.expect("times")
        times_tok = self.expect_name("time grid name")
        times_decl = self._lookup(doc.times_decls, "time grid", times_tok.text, times_tok)
        grid = TimeGrid(times_decl.values)
        initial = None
        if self.accept("initial"):
            initial_tok = self.expect_name("initial state name")
            initial = initial_tok.text
            if initial not in doc.kets and initial not in doc.projectors:
                self.error(
                    f"initial {initial!r} names neither a ket nor a projector", initial_tok
                )
        self.expect("{")
        ats: list[FamilyAt] = []
        indices: list[int] = []
        while self.accept("at"):
            t, t_tok = self.expect_real("time")
            self.expect(":")
            dec_name = None  # the identity keyword
            if not self.accept("identity"):
                dec_tok = self.expect_name("decomposition name")
                self._lookup(doc.decomp_decls, "decomposition", dec_tok.text, dec_tok)
                dec_name = dec_tok.text
            try:
                indices.append(grid.index_of_value(t))
            except KeyError:
                self.error(
                    f"time {t:g} is not on grid {times_decl.name!r} {times_decl.values}",
                    t_tok,
                )
            ats.append(FamilyAt(t, dec_name))
        self.expect("}")
        if not ats:
            self.error("a family needs at least one `at` entry", name_tok)
        if any(b.time <= a.time for a, b in zip(ats, ats[1:])):
            self.error("`at` entries must be in strictly increasing time order", name_tok)
        self.expect("steps")
        self.expect("{")
        steps = []
        while self.peek().kind == "NAME" and self.peek().text not in _DECLARATIONS:
            step_tok = self.advance()
            steps.append(self._lookup(doc.unitary_decls, "unitary", step_tok.text, step_tok).name)
        self.expect("}")
        if len(steps) != len(grid) - 1:
            self.error(
                f"grid {times_decl.name!r} has {len(grid)} times, so the "
                f"family needs {len(grid) - 1} steps, got {len(steps)}",
                name_tok,
            )
        decl = FamilyDecl(name_tok.text, times_decl.name, initial, tuple(ats), tuple(steps))
        self._build_family(doc, decl, name_tok, grid, tuple(indices))
        doc.family_decls[decl.name] = decl

    def _build_family(
        self, doc: SpecDocument, decl: FamilyDecl, name_tok: _Token,
        grid: TimeGrid, indices: tuple[int, ...],
    ):
        spaces = {doc.unitary_decls[s].space for s in decl.steps}
        spaces |= {doc.decomp_decls[at.decomp].space for at in decl.ats if at.decomp is not None}
        if decl.initial is not None:
            spaces.add((doc.ket_decls.get(decl.initial) or doc.proj_decls[decl.initial]).space)
        if len(spaces) > 1:
            self.error(
                f"family {decl.name!r} mixes spaces {sorted(spaces)}", name_tok
            )
        if not spaces:
            self.error(f"family {decl.name!r} determines no space", name_tok)
        space = doc.spaces[spaces.pop()]

        key = (decl.times, decl.steps, space.name)
        pure = decl.initial in doc.kets
        # identity decompositions (a pure state's first slot is its own pair)
        new_matrices = sum(at.decomp is None for at in decl.ats[1 if pure else 0:])
        if key not in self.propagator_sets:
            new_matrices += len(grid)  # cumulative propagators
        if pure and decl.initial not in self.pure_by_ket:
            new_matrices += 2  # the state's projector and its complement
        elif decl.initial in doc.projectors:
            new_matrices += 1  # the density operator
        self.charge(new_matrices, space, name_tok)
        if key not in self.propagator_sets:
            self.propagator_sets[key] = PropagatorSet(
                grid,
                tuple(doc.unitaries[s] for s in decl.steps),
                space_dim=space.dim,
            )
        ps = self.propagator_sets[key]

        rho = None
        if pure:
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
                if decl.initial not in self.pure_by_ket:
                    self.pure_by_ket[decl.initial] = pure_families(doc.kets[decl.initial])
                fam = self.pure_by_ket[decl.initial](ps, indices, decs, name=decl.name)
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
    # huge finite literals overflow in the checks to defects and norms of inf
    # or NaN, which are refused; numpy's warnings would only add stderr lines
    with np.errstate(over="ignore", invalid="ignore"):
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
    Only pure initial states at a family's first time, or none, can be
    written: a density operator or a final (time-reversed) state is refused
    with ``ValueError``, since famspec has no way to state it.  The declarations
    fill a :class:`SpecDocument` that :func:`serialize` writes, canonically.
    """
    taken: set[str] = set()
    doc = SpecDocument({}, {}, {}, {}, {}, {}, {})
    space_by_dim: dict[int, str] = {}
    grids: dict[int, tuple[str, tuple[str, ...]]] = {}  # id(ps) -> (times, steps)
    proj_names: dict[int, str] = {}
    proj_mats: list[tuple[str, str, np.ndarray]] = []
    ket_names: dict[int, str] = {}

    def export_space(ps) -> str:
        # One famspec space per dimension: distinct dynamics over the same
        # system share kets and projectors.
        if ps.dim not in space_by_dim:
            name = _sanitize(f"H{len(space_by_dim)}", taken)
            doc.spaces[name] = SpaceDecl(name, ps.dim)
            space_by_dim[ps.dim] = name
        return space_by_dim[ps.dim]

    def export_grid(ps) -> tuple[str, tuple[str, ...]]:
        if id(ps) not in grids:
            space = export_space(ps)
            gname = _sanitize(f"grid{len(grids)}", taken)
            snames = []
            for j, step in enumerate(ps.steps):
                sname = _sanitize(f"{gname}.step{j}", taken)
                doc.unitary_decls[sname] = UnitaryDecl(sname, space, step.mat.ravel())
                snames.append(sname)
            doc.times_decls[gname] = TimesDecl(gname, ps.grid.values)
            grids[id(ps)] = (gname, tuple(snames))
        return grids[id(ps)]

    def export_proj(label: str, proj, space: str) -> str:
        # Reuse a declaration only when both the label and the matrix agree;
        # equal matrices may legitimately carry different basis readings.
        if id(proj) not in proj_names:
            for name, lab, mat in proj_mats:
                if lab == label and mat.shape == proj.mat.shape:
                    if np.allclose(mat, proj.mat, atol=1e-15):
                        break
            else:
                name = _sanitize(label, taken)
                doc.proj_decls[name] = ProjDecl(name, space, None, proj.mat.ravel())
                proj_mats.append((name, label, proj.mat))
            proj_names[id(proj)] = name
        return proj_names[id(proj)]

    def export_ket(ket, fallback: str, space: str) -> str:
        if id(ket) not in ket_names:
            name = _sanitize(ket.label or fallback, taken)
            doc.ket_decls[name] = KetDecl(name, space, tuple(ket.amps.tolist()))
            ket_names[id(ket)] = name
        return ket_names[id(ket)]

    for fname in sorted(scn.families):
        fam = scn.families[fname]
        if fam.initial is not None and not isinstance(fam.initial, PureInitial):
            raise ValueError("only pure or absent initial conditions can be exported")
        if fam.initial is not None and fam.initial_slot != 0:
            raise ValueError(f"family {fname!r} has a final state, which famspec cannot state")
        gname, steps = export_grid(fam.propagators)
        space = space_by_dim[fam.propagators.dim]
        name = _sanitize(fname, taken)
        times = [fam.propagators.grid.values[j] for j in fam.time_indices]
        initial, ats = None, []
        if isinstance(fam.initial, PureInitial):
            initial = export_ket(fam.initial.ket, f"{fname}.initial", space)
            ats.append(FamilyAt(times[0], None))
        for t, dec in zip(times[len(ats):], fam.decompositions[len(ats):]):
            target = None  # the identity keyword
            if not dec.is_trivial:
                members = tuple(export_proj(lab, proj, space) for lab, proj in dec.members)
                target = _sanitize(f"{fname}.t{t:g}", taken)
                doc.decomp_decls[target] = DecompDecl(target, space, members)
            ats.append(FamilyAt(t, target))
        doc.family_decls[name] = FamilyDecl(name, gname, initial, tuple(ats), steps)

    return serialize(doc)

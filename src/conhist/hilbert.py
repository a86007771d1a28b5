"""Dense complex operator algebra for finite-dimensional Hilbert spaces.

Kets, operators, projectors, decompositions of the identity, density
operators, and the two operator inner products used by the
histories machinery: the trace inner product ``<A, B> = Tr(A^dag B)`` and its
density-weighted variant ``<A, B>_rho = Tr(rho A^dag B)``.

All values are immutable after construction (backing arrays are marked
read-only) and all operations are pure functions, so everything here is safe
to use concurrently.  Spaces are finite-dimensional by design; there is no
symbolic or arbitrary-precision arithmetic.  (On infinite-dimensional spaces
the trace inner product need not exist; restricting to finite-dimensional
models sidesteps that question entirely.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Frobenius-norm tolerance for projector/decomposition invariants.  Two orders
# above accumulated rounding at the dimensions we use (<~200), far below any
# physical gap in the models.
TOL_PROJ = 1e-9
# Tolerance on norms/traces of states.
TOL_NORM = 1e-9
# Singular-value threshold for rank decisions when spanning kets.
TOL_SPAN = 1e-10


class DimensionMismatchError(ValueError):
    """Operands live on spaces of different dimension."""


def _as_complex_matrix(entries) -> np.ndarray:
    mat = np.array(entries, dtype=np.complex128, copy=True)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    # entry by entry (a sum of huge entries warns of overflow), on the faster float view
    if not np.isfinite(mat.ravel(order="K").view(np.float64)).all():
        raise ValueError("matrix entries must be finite")
    mat.flags.writeable = False
    return mat


def _frob_sq(mat: np.ndarray) -> float:
    """Squared Frobenius norm, summed as ``np.linalg.norm`` sums it: the
    strided real and imaginary views of the raveled array, each dotted
    with itself."""
    flat = mat.ravel(order="K")
    re, im = flat.real, flat.imag
    return float(re.dot(re) + im.dot(im))


def _frob(mat: np.ndarray) -> float:
    """Frobenius norm, equal to ``np.linalg.norm(mat)`` bit for bit."""
    return math.sqrt(_frob_sq(mat))


# Every product and check below works block by block on the connected
# components of its operands' joint symmetrized nonzero pattern.  The
# matrices are exactly block diagonal there: an entry of a product that
# links two components is a sum of terms with an exact-zero factor, so only
# the summation order of a Frobenius norm changes.  The hermiticity and
# completeness defects are scattered into a zero matrix before the norm, so
# they equal the dense formulas bit for bit; products of permutations and
# 0/1 diagonals are bit-identical to ``@``.  From dimension _BLOCK_MIN_DIM
# up, an Operator's constructor labels each index with the smallest index of
# its component if at most 1/_BLOCK_MAX_FILL of the pattern is nonzero (a
# bound per operand, not on a union); an adjoint keeps its operator's labels,
# and a bare matrix is labelled where a product uses it.  A product or check
# joins its operands' labels in O(dim), linking each index to its label in
# each; a one-ket projector_onto_span is formed on the ket's support rows.
# Without labels, or if the joint pattern does not split, the whole matrix is
# the one block (group None, gathered as ``mat[None]``), bit for bit the dense
# formula.  Labelling costs 0.03-0.07 ms at 196; blocks break even near 80.
_BLOCK_MIN_DIM = 96
_BLOCK_MAX_FILL = 8


def _components(label: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Read-only component labels of the graph with edges ``(rows, cols)``: from a start
    ``label`` giving each index one no larger in its component, edges hook their ends'
    trees onto the smaller label and pointers jump, to each component's least index."""
    while True:
        before, label = label, label.copy()
        np.minimum.at(label, label[rows], label[cols])
        np.minimum.at(label, label[cols], label[rows])
        label = label[label[label]]
        if np.array_equal(label, before):
            break
    label.flags.writeable = False
    return label


def _pattern_labels(mat: np.ndarray) -> np.ndarray | None:
    """Component labels of ``mat``'s symmetrized nonzero pattern; None over the fill bound."""
    # a complex entry is nonzero when either of its two float halves is;
    # comparing the float view is several times faster than ``mat != 0``
    pattern = (np.ascontiguousarray(mat).view(np.float64) != 0).view(np.uint16) != 0
    rows, cols = np.divmod(np.flatnonzero(pattern), len(mat))
    # the symmetrized pattern holds each nonzero and its mirror
    if _BLOCK_MAX_FILL * (2 * rows.size - np.count_nonzero(pattern[cols, rows])) > mat.size:
        return None
    return _components(np.arange(len(mat)), rows, cols)


def _blocks(*ops: "Operator | np.ndarray") -> Sequence:
    """Components of the joint symmetrized nonzero pattern of ``ops`` from their
    labels (an Operator's own, a bare matrix's found now): one ``(n, s)`` index array
    per component size ``s`` (ascending indices within each), or the whole ``[None]``."""
    labels = [op.block_labels if isinstance(op, Operator) else
              _pattern_labels(op) if len(op) >= _BLOCK_MIN_DIM else None for op in ops]
    if any(label is None for label in labels):
        return [None]
    label = labels[0]
    if any(not np.array_equal(lab, label) for lab in labels[1:]):
        links = np.tile(np.arange(len(label)), len(labels))
        label = _components(np.minimum.reduce(labels), links, np.concatenate(labels))
    if not label.any():  # one component
        return [None]
    size = np.bincount(label)[label]
    # components by size, then by label; indices ascending within each
    order = np.lexsort((label, size))
    cuts = np.flatnonzero(np.diff(size[order])) + 1
    return [part.reshape(-1, size[part[0]]) for part in np.split(order, cuts)]


def _gather(mat: np.ndarray, idx: np.ndarray | None) -> np.ndarray:
    """The diagonal blocks ``mat[c][:, c]`` for the rows ``c`` of ``idx``,
    stacked as an ``(n, s, s)`` array; the whole-matrix group's is the view
    ``mat[None]``."""
    if idx is None:
        return mat[None]
    return mat[idx[:, :, None], idx[:, None, :]]


def _scatter(dim: int, groups: Sequence, blocks: list[np.ndarray]) -> np.ndarray:
    """Zero outside the diagonal blocks, one ``(n, s, s)`` array per group;
    the whole-matrix group's one block is returned as it is."""
    if groups[0] is None:
        return blocks[0][0]
    out = np.zeros((dim, dim), dtype=np.complex128)
    for idx, b in zip(groups, blocks):
        out[idx[:, :, None], idx[:, None, :]] = b
    return out


def _scattered_norm(dim: int, groups: Sequence, blocks: list[np.ndarray]) -> float:
    """``_frob(_scatter(dim, groups, blocks))``; all-zero blocks sum to 0.0 unscattered."""
    zero = groups[0] is not None and not any(b.any() for b in blocks)
    return 0.0 if zero else _frob(_scatter(dim, groups, blocks))


def _product(a: "Operator | np.ndarray", b: "Operator | np.ndarray") -> np.ndarray:
    """``a @ b`` of two operators or bare matrices, block by block."""
    groups = _blocks(a, b)
    a, b = (op.mat if isinstance(op, Operator) else op for op in (a, b))
    return _scatter(len(a), groups, [_gather(a, idx) @ _gather(b, idx) for idx in groups])


def _products(a: "Operator", b: "Operator") -> tuple[np.ndarray, np.ndarray]:
    """``(a.mat @ b.mat, b.mat @ a.mat)``, the same arrays as two ``_product``
    calls, from one join (the joint pattern of ``a, b`` is that of ``b, a``)."""
    groups = _blocks(a, b)
    pairs = [(_gather(a.mat, idx), _gather(b.mat, idx)) for idx in groups]
    ab = _scatter(a.dim, groups, [x @ y for x, y in pairs])
    return ab, _scatter(a.dim, groups, [y @ x for x, y in pairs])


@dataclass(frozen=True, eq=False)
class Ket:
    """A vector in a finite-dimensional complex Hilbert space.

    The norm may be any nonnegative finite value; states used as initial
    conditions additionally must be normalized within ``TOL_NORM``.
    """

    amps: np.ndarray
    label: str | None = None

    def __post_init__(self):
        vec = np.array(self.amps, dtype=np.complex128, copy=True)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("a ket is a nonempty 1-D amplitude vector")
        if not np.all(np.isfinite(vec)):
            raise ValueError("ket amplitudes must be finite")
        vec.flags.writeable = False
        object.__setattr__(self, "amps", vec)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "Ket":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero ket")
        return Ket(self.amps / n, self.label)

    def projector(self) -> "Projector":
        """Orthogonal projector onto this (normalized) ket."""
        return projector_onto_span([self])


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense complex square matrix with dimension metadata.

    One representation serves every operator role: projectors, unitaries,
    chain operators, density operators.
    """

    mat: np.ndarray
    block_labels = None  # the constructor's (an adjoint's), from dimension _BLOCK_MIN_DIM up

    def __post_init__(self):
        object.__setattr__(self, "mat", _as_complex_matrix(self.mat))
        if len(self.mat) >= _BLOCK_MIN_DIM:
            object.__setattr__(self, "block_labels", _pattern_labels(self.mat))

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls(np.eye(dim, dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dagger(self) -> "Operator":
        # the adjoint is finite and keeps the symmetrized pattern: no check, these labels
        adj = object.__new__(Operator)
        mat = self.mat.conj().T
        mat.flags.writeable = False
        object.__setattr__(adj, "mat", mat)
        object.__setattr__(adj, "block_labels", self.block_labels)
        return adj

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def norm(self) -> float:
        """Frobenius norm."""
        return _frob(self.mat)

    def allclose(self, other: "Operator") -> bool:
        return self.dim == other.dim and _frob(self.mat - other.mat) < TOL_PROJ

    def commutator_norm(self, other: "Operator") -> float:
        """Frobenius norm of ``[self, other]``."""
        if self.dim != other.dim:
            raise DimensionMismatchError("operator dimensions differ")
        return _frob(np.subtract(*_products(self, other)))


def unitarity_defect(u: Operator) -> float:
    """``||U^dag U - I||_F``; zero for exact unitaries."""
    total = 0.0
    for idx in _blocks(u):
        b = _gather(u.mat, idx)
        total += _frob_sq(b.conj().transpose(0, 2, 1) @ b - np.eye(b.shape[1]))
    return math.sqrt(total)


@dataclass(frozen=True)
class ProjectorCheck:
    """Diagnostics from :func:`is_projector`."""

    ok: bool
    hermiticity_defect: float
    idempotency_defect: float


def is_projector(p: Operator) -> ProjectorCheck:
    """Test whether ``p`` is an orthogonal projector within ``TOL_PROJ`` (Frobenius)."""
    groups = _blocks(p)
    blocks = [_gather(p.mat, idx) for idx in groups]
    skew = [b - b.conj().transpose(0, 2, 1) for b in blocks]
    herm = _scattered_norm(p.dim, groups, skew)
    idem = math.sqrt(sum(_frob_sq(b - b @ b) for b in blocks))
    return ProjectorCheck(herm < TOL_PROJ and idem < TOL_PROJ, herm, idem)


class NotAProjectorError(ValueError):
    """A matrix failed :func:`is_projector`; ``check`` holds both defects."""

    def __init__(self, check: ProjectorCheck):
        self.check = check
        super().__init__(
            "not a projector: hermiticity defect "
            f"{check.hermiticity_defect:.3e}, idempotency defect "
            f"{check.idempotency_defect:.3e} (tol {TOL_PROJ:.0e})"
        )


@dataclass(frozen=True, eq=False)
class Projector:
    """An orthogonal projector; Hermitian and idempotent within ``TOL_PROJ``.

    ``rank`` is cached from the trace, which for a projector is its rank.
    """

    op: Operator
    rank: int = field(init=False)

    def __post_init__(self):
        check = is_projector(self.op)
        if not check.ok:
            raise NotAProjectorError(check)
        tr = self.op.trace()
        r = round(tr.real)
        if abs(tr - r) >= TOL_PROJ:
            raise ValueError(f"projector trace {tr} is not close to an integer")
        object.__setattr__(self, "rank", int(r))

    @classmethod
    def identity(cls, dim: int) -> "Projector":
        return cls(Operator.identity(dim))

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    def complement(self) -> "Projector":
        return Projector(Operator(np.eye(self.dim, dtype=np.complex128) - self.mat))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Unit-trace, Hermitian, positive-semidefinite operator."""

    op: Operator

    def __post_init__(self):
        if _frob(self.mat - self.mat.conj().T) >= TOL_PROJ:
            raise ValueError("density operator must be Hermitian")
        evals = np.linalg.eigvalsh(self.op.mat)
        if evals.min() < -TOL_PROJ:
            raise ValueError(f"density operator has negative eigenvalue {evals.min():.3e}")
        tr = self.op.trace()
        if abs(tr - 1.0) >= TOL_NORM:
            raise ValueError(f"density operator trace {tr} != 1")

    @classmethod
    def from_projector(cls, p: Projector) -> "DensityOperator":
        """Maximally mixed state over the range of ``p``."""
        if p.rank == 0:
            raise ValueError("cannot build a state from the zero projector")
        return cls(Operator(p.mat / p.rank))

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat


def op_inner(a: Operator, b: Operator) -> complex:
    """Trace inner product ``Tr(a^dag b)``."""
    if a.dim != b.dim:
        raise DimensionMismatchError("op_inner requires equal dimensions")
    return complex(np.vdot(a.mat, b.mat))


def rho_inner(rho: DensityOperator, a: Operator, b: Operator) -> complex:
    """Density-weighted inner product ``Tr(rho a^dag b)``."""
    if not (rho.dim == a.dim == b.dim):
        raise DimensionMismatchError("rho_inner requires equal dimensions")
    return complex(np.trace(rho.mat @ (a.mat.conj().T @ b.mat)))


@dataclass(frozen=True)
class DecompositionReport:
    """Validation report for a (candidate) decomposition of the identity."""

    valid: bool
    completeness_defect: float
    max_pairwise_overlap: float


@dataclass(frozen=True, eq=False)
class DecompositionOfIdentity:
    """An ordered, labeled set of mutually orthogonal projectors summing to I.

    Labels are attached to members (rather than bare indices) so families can
    be reported in physics notation (``z+``, ``x-``, ``A*``, ``ebar``, ...).
    """

    members: tuple[tuple[str, Projector], ...]

    def __post_init__(self):
        members = tuple((str(label), proj) for label, proj in self.members)
        if not members:
            raise ValueError("a decomposition needs at least one member")
        labels = [label for label, _ in members]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate member labels in {labels}")
        for label in labels:
            if "," in label or "=" in label or "|" in label or not label:
                raise ValueError(f"member label {label!r} may not be empty or contain , = |")
        dims = {proj.dim for _, proj in members}
        if len(dims) != 1:
            raise ValueError("decomposition members must share one dimension")
        object.__setattr__(self, "members", members)
        report = validate_decomposition(self)
        if not report.valid:
            raise ValueError(
                "not a decomposition of the identity: completeness defect "
                f"{report.completeness_defect:.3e}, max pairwise overlap "
                f"{report.max_pairwise_overlap:.3e} (tol {TOL_PROJ:.0e})"
            )

    @classmethod
    def trivial(cls, dim: int) -> "DecompositionOfIdentity":
        return cls((("I", Projector.identity(dim)),))

    @classmethod
    def from_projector(cls, p: Projector, label: str) -> "DecompositionOfIdentity":
        """Two-member decomposition {P, I-P}, the complement labeled
        ``"~" + label`` (single member if P = I)."""
        if p.rank == p.dim:
            return cls(((label, p),))
        return cls(((label, p), ("~" + label, p.complement())))

    @classmethod
    def from_basis(cls, kets: Sequence[Ket], labels: Sequence[str]) -> "DecompositionOfIdentity":
        """Rank-1 members from an orthonormal basis."""
        if len(kets) != len(labels):
            raise ValueError("one label per basis ket")
        return cls(tuple((lab, ket.projector()) for lab, ket in zip(labels, kets)))

    @property
    def dim(self) -> int:
        return self.members[0][1].dim

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.members)

    @property
    def is_trivial(self) -> bool:
        """Is this the one-member decomposition {I}?"""
        return len(self.members) == 1 and self.members[0][1].rank == self.dim

    def __len__(self) -> int:
        return len(self.members)

    def projector(self, label: str) -> Projector:
        for lab, proj in self.members:
            if lab == label:
                return proj
        raise KeyError(f"no member labeled {label!r}")


def validate_decomposition(d: DecompositionOfIdentity) -> DecompositionReport:
    """Report completeness defect ``||sum P - I||`` and max pairwise ``||P_a P_b||``."""
    ops = [proj.op for _, proj in d.members]
    groups = _blocks(*ops)
    # one size group's blocks of every member at a time, so memory stays
    # within that of the members
    pairs = list(itertools.combinations(range(len(ops)), 2))
    squares = [0.0] * len(pairs)
    residuals = []
    for idx in groups:
        blocks = [_gather(op.mat, idx) for op in ops]
        residuals.append(sum(blocks) - np.eye(blocks[0].shape[1]))
        for k, (i, j) in enumerate(pairs):
            squares[k] += _frob_sq(blocks[i] @ blocks[j])
    completeness = _scattered_norm(d.dim, groups, residuals)
    max_overlap = math.sqrt(max(squares, default=0.0))
    return DecompositionReport(
        valid=(completeness < TOL_PROJ and max_overlap < TOL_PROJ),
        completeness_defect=completeness,
        max_pairwise_overlap=max_overlap,
    )


def projector_onto_span(kets: Sequence[Ket]) -> Projector:
    """Orthogonal projector onto the linear span of ``kets``.

    Rank equals the number of linearly independent inputs (singular values
    above ``TOL_SPAN`` relative to the largest).
    """
    if not kets:
        raise ValueError("need at least one ket")
    dims = {k.dim for k in kets}
    if len(dims) != 1:
        raise DimensionMismatchError("kets must share one dimension")
    cols = np.column_stack([k.amps for k in kets])
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise ValueError("cannot project onto the span of zero kets")
    keep = s > TOL_SPAN * s[0]
    basis = u[:, keep]
    if len(kets) > 1 or len(basis) < _BLOCK_MIN_DIM:
        mat = basis @ basis.conj().T
        # Symmetrize away the last rounding crumbs so downstream checks are clean.
        return Projector(Operator((mat + mat.conj().T) / 2.0))
    # one ket's projector is zero off its support: formed on those rows, it is
    # the all-rows formula bit for bit (a part of a sum over kets is not)
    rows = np.flatnonzero(basis[:, 0])
    block = basis[rows] @ basis[rows].conj().T
    mat = np.zeros((len(basis),) * 2, dtype=np.complex128)
    mat[np.ix_(rows, rows)] = (block + block.conj().T) / 2.0
    return Projector(Operator(mat))

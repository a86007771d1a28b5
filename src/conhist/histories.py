"""Histories, families, chain operators, weights, and consistency checking.

A history is a sequence of projectors, one per grid time, drawn from a fixed
decomposition of the identity at each time; a family is the sample space of
all such sequences, optionally conditioned on an initial pure state or
density operator.  Each history gets a chain operator (the time-ordered
product of its projectors and the propagators between them), whose
pairwise inner products form the decoherence functional.  Vanishing
off-diagonal entries make the family consistent, i.e. a valid sample space
for probabilities; the single framework rule is enforced at the API boundary
by refusing to assign probabilities to inconsistent families.

The history Hilbert space (the formal tensor product over times) is never
materialized: histories are label tuples, and the Boolean event algebra is
represented by subsets of those labels.  All computations factor through
the chains of one breadth-first Schrodinger-picture pass (see ``_analyze``);
no analysis is cached, so a family is analysed afresh on every call.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .dynamics import PropagatorSet
from .hilbert import (
    DecompositionOfIdentity,
    DensityOperator,
    Ket,
    Operator,
    TOL_NORM,
)

# Label used for the trivial {I} decomposition member (automatic extension).
IDENTITY_LABEL = "I"

# Consistency thresholds: a pair (alpha, beta) violates when
# |<K_a, K_b>| > EPS_ABS + EPS_REL * sqrt(W_a * W_b).  "Approximately
# consistent" has no canonical quantification; these are engineering choices
# placed orders of magnitude above rounding noise yet far below any physical
# overlap in the bundled models.  The sqrt(W_a W_b) normalization makes the
# verdict invariant under global rescaling of the initial state.
EPS_ABS = 1e-12
EPS_REL = 1e-10

# Histories below this probability are excluded from the support.
EPS_SUPPORT = 1e-12

# Refuse to enumerate absurdly large sample spaces.
_MAX_HISTORIES = 250_000

# Largest array an analysis may hold: one slot's split chains, or the
# violation arrays at 16 B a pair.  The largest bundled or ladder analysis
# holds 12.7 MB (796,068 violations), and each may briefly be held twice.
_MAX_ANALYSIS_BYTES = 24 << 20
# Bytes of the block of Gram matrix rows that ``_report`` forms at a time.
_GRAM_BLOCK_BYTES = 4 << 20


class UnknownLabelError(KeyError):
    """A slot or history label does not resolve in the family."""


class InconsistentFamilyError(Exception):
    """Probabilities were requested for a family violating the consistency
    conditions; the single framework rule forbids assigning them."""

    def __init__(self, report: "ConsistencyReport", name: str | None = None):
        self.report = report
        fam = f"family {name!r}" if name else "family"
        super().__init__(
            f"{fam} violates the consistency conditions "
            f"(max normalized overlap {report.max_normalized_overlap:.3e}); "
            "the single framework rule forbids assigning it probabilities"
        )


class ZeroConditionProbabilityError(ValueError):
    """Conditioning event has zero probability."""


class FamilyTooLargeError(ValueError):
    """Sample-space enumeration would exceed the configured bound."""


@dataclass(frozen=True)
class History:
    """One history: a label per family time (or the identity marker)."""

    slots: tuple[str, ...]

    def __str__(self) -> str:
        return " (+) ".join(self.slots)


@dataclass(frozen=True, eq=False)
class PureInitial:
    """Pure initial condition: a unit-norm ket pinned to one slot."""

    ket: Ket
    label: str


@dataclass(frozen=True, eq=False)
class MixedInitial:
    """Density-operator initial condition, anchored at one slot's time."""

    rho: DensityOperator


@dataclass(frozen=True, eq=False)
class Family:
    """A time grid, one decomposition of the identity per time, optional
    initial condition, and the dynamics connecting the times.

    ``time_indices`` select times from the master grid of ``propagators``;
    framework operations (extension, refinement, compatibility) rely on every
    family being anchored in such a master grid.
    """

    propagators: PropagatorSet
    time_indices: tuple[int, ...]
    decompositions: tuple[DecompositionOfIdentity, ...]
    initial: PureInitial | MixedInitial | None = None
    initial_slot: int = 0
    name: str | None = None

    def __post_init__(self):
        idx = tuple(int(i) for i in self.time_indices)
        if not idx:
            raise ValueError("a family needs at least one time")
        n = len(self.propagators.grid)
        if any(i < 0 or i >= n for i in idx):
            raise ValueError(f"time indices {idx} out of range for grid of {n} times")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("family times must be strictly increasing")
        decs = tuple(self.decompositions)
        if len(decs) != len(idx):
            raise ValueError("one decomposition per family time")
        for d in decs:
            if d.dim != self.propagators.dim:
                raise ValueError("decomposition dimension does not match the dynamics")
        if self.initial is not None:
            slot = self.initial_slot
            if not (0 <= slot < len(idx)):
                raise ValueError("initial_slot out of range")
            if isinstance(self.initial, PureInitial) and slot not in (0, len(idx) - 1):
                # fixed-initial-state histories pin the state at the first time
                # (or the last, after time reversal); middle anchors are not a
                # history shape this engine builds
                raise ValueError("a pure initial state anchors at the first or last time")
            if isinstance(self.initial, PureInitial):
                ket = self.initial.ket
                if abs(ket.norm() - 1.0) >= TOL_NORM:
                    raise ValueError("initial state must have unit norm")
                if len(decs[slot]) > 2:
                    raise ValueError(
                        "the anchored decomposition must be {initial, complement}"
                    )
                member = decs[slot].projector(self.initial.label)
                psi = ket.normalized().amps
                if not member.op.allclose(Operator(np.outer(psi, psi.conj()))):
                    raise ValueError(
                        "anchored decomposition member does not project onto the initial state"
                    )
            elif isinstance(self.initial, MixedInitial):
                if self.initial.rho.dim != self.propagators.dim:
                    raise ValueError("initial density operator dimension mismatch")
        object.__setattr__(self, "time_indices", idx)
        object.__setattr__(self, "decompositions", decs)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def pure(
        cls,
        propagators: PropagatorSet,
        time_indices: Sequence[int],
        initial: Ket,
        decompositions: Sequence[DecompositionOfIdentity],
        name: str | None = None,
    ) -> "Family":
        """Family with a fixed pure initial state at the first time.

        ``decompositions`` cover the times after the first; the first-time
        decomposition is the canonical {initial, complement} pair.
        """
        return pure_families(initial)(propagators, time_indices, decompositions, name)

    @classmethod
    def general(
        cls,
        propagators: PropagatorSet,
        time_indices: Sequence[int],
        decompositions: Sequence[DecompositionOfIdentity],
        rho: DensityOperator | None = None,
        name: str | None = None,
    ) -> "Family":
        initial = MixedInitial(rho) if rho is not None else None
        return cls(propagators, tuple(time_indices), tuple(decompositions), initial, 0, name)

    # -- basic queries ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.propagators.dim

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(self.propagators.grid.values[i] for i in self.time_indices)

    @property
    def time_labels(self) -> tuple[str, ...]:
        return tuple(self.propagators.grid.labels[i] for i in self.time_indices)

    def __len__(self) -> int:
        return len(self.time_indices)

    def slot_of_time_label(self, label: str) -> int:
        try:
            return self.time_labels.index(label)
        except ValueError:
            raise UnknownLabelError(f"family has no time labeled {label!r}") from None

    def slot_labels(self, slot: int) -> tuple[str, ...]:
        """Labels enumerable at a slot (the anchored slot is pinned)."""
        if isinstance(self.initial, PureInitial) and slot == self.initial_slot:
            return (self.initial.label,)
        return self.decompositions[slot].labels

    def n_histories(self) -> int:
        n = 1
        for slot in range(len(self)):
            n *= len(self.slot_labels(slot))
        return n

    def alphas(self) -> tuple[tuple[str, ...], ...]:
        """All history label tuples, in deterministic enumeration order."""
        if self.n_histories() > _MAX_HISTORIES:
            raise FamilyTooLargeError(
                f"family enumerates {self.n_histories()} histories (cap {_MAX_HISTORIES})"
            )
        return tuple(itertools.product(*(self.slot_labels(s) for s in range(len(self)))))

    def histories(self) -> tuple[History, ...]:
        return tuple(History(a) for a in self.alphas())

    def resolve(self, alpha: Sequence[str]) -> History:
        """Validate a label tuple against the family's decompositions."""
        slots = tuple(alpha)
        if len(slots) != len(self):
            raise UnknownLabelError(
                f"history has {len(slots)} slots, family has {len(self)} times"
            )
        for slot, label in enumerate(slots):
            if label not in self.decompositions[slot].labels:
                raise UnknownLabelError(
                    f"label {label!r} not in the decomposition at time "
                    f"{self.time_labels[slot]}"
                )
        return History(slots)

    def rename(self, name: str) -> "Family":
        return Family(
            self.propagators, self.time_indices, self.decompositions,
            self.initial, self.initial_slot, name,
        )


def pure_families(initial: Ket) -> Callable[..., Family]:
    """:meth:`Family.pure` for any number of families that start from ``initial``.

    The returned function takes ``Family.pure``'s arguments without the
    state.  Every family it makes shares one validated {initial, complement}
    decomposition, built here once instead of once per family.
    """
    label = initial.label or "psi0"
    anchor = DecompositionOfIdentity.from_projector(initial.projector(), label)

    def pure(
        propagators: PropagatorSet,
        time_indices: Sequence[int],
        decompositions: Sequence[DecompositionOfIdentity],
        name: str | None = None,
    ) -> Family:
        return Family(
            propagators, tuple(time_indices), (anchor, *decompositions),
            PureInitial(initial, label), 0, name,
        )

    return pure


# -- chain operators and the decoherence functional ---------------------------


@dataclass(frozen=True, eq=False)
class ChainOperator:
    """The operator assigned to a history on the reference space."""

    history: History
    op: Operator


@dataclass(frozen=True, eq=False)
class _Analysis:
    """Surviving chains and their weights for one family."""

    alphas: tuple[tuple[str, ...], ...]
    weights: np.ndarray  # per alpha; exactly 0 for pruned histories
    nonzero: np.ndarray  # ascending indices into alphas of the surviving chains
    rows: np.ndarray     # flattened chains, one per surviving alpha; rows @ rows^dag = <K_a, K_b>
    floor: float         # chains whose norm fell to or below this were pruned


def _analyze(f: Family) -> _Analysis:
    """One breadth-first Schrodinger-picture pass over the history tree.

    Every chain is a block of bra rows: ``<psi|`` for a pure state (seeded at
    its anchor, walking away from it), ``sqrt(rho)`` for a density operator,
    ``I`` without an initial state.  Each slot moves all blocks to its time
    with one propagator product, then splits them with one product per
    member.  A block whose Frobenius norm falls to the rounding floor
    ``n_slots * d * eps * |seed|_F`` is pruned with its whole subtree.  The
    rows' Gram matrix is ``<K_a, K_b> = Tr(rho K_a^dag K_b)``, which is
    invariant under the unitaries that relate the Schrodinger and Heisenberg
    forms; a weight is a squared row norm.  A split larger than
    ``_MAX_ANALYSIS_BYTES`` is refused before it is allocated.
    """
    ps, n_slots = f.propagators, len(f)
    alphas = f.alphas()
    backward = False
    if isinstance(f.initial, PureInitial):
        seed = f.initial.ket.amps.conj()[None, :]
        backward = f.initial_slot == n_slots - 1 and n_slots > 1
        order = range(n_slots - 2, -1, -1) if backward else range(1, n_slots)
    else:
        order = range(n_slots)
        if isinstance(f.initial, MixedInitial):
            evals, evecs = np.linalg.eigh(f.initial.rho.mat)
            seed = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
        else:
            seed = np.eye(f.dim, dtype=np.complex128)
    floor = float(n_slots * f.dim * np.finfo(float).eps * np.linalg.norm(seed))

    sizes = [len(f.slot_labels(s)) for s in range(n_slots)]
    rows, index = seed, np.zeros(1, dtype=np.int64)
    here = f.time_indices[f.initial_slot]
    for slot in order:
        j = f.time_indices[slot]
        if j != here:
            rows = rows @ ps.propagator(here, j).mat
            here = j
        members = f.decompositions[slot].members
        if len(members) * rows.nbytes > _MAX_ANALYSIS_BYTES:
            raise FamilyTooLargeError(
                f"time {f.time_labels[slot]} splits the chains into "
                f"{len(members) * rows.nbytes} bytes (limit {_MAX_ANALYSIS_BYTES})")
        split = np.stack([rows @ p.mat for _, p in members]).reshape(len(members) * len(index), -1)
        index = (np.arange(len(members))[:, None] * math.prod(sizes[slot + 1:]) + index).ravel()
        keep = np.linalg.norm(split, axis=1) > floor
        rows, index = split[keep].reshape(-1, f.dim), index[keep]

    ranked = np.argsort(index)
    index, flat = index[ranked], rows.reshape(len(ranked), -1)[ranked]
    if backward:
        # the state sits after the projectors, so the bras are the chain kets'
        # conjugates and the Gram entries swap
        flat = flat.conj()
    weights = np.zeros(len(alphas))
    weights[index] = np.einsum("ij,ij->i", flat, flat.conj()).real
    return _Analysis(alphas, weights, index, flat, floor)


def chain_operator(h: History | Sequence[str], f: Family, ref: int = 0) -> ChainOperator:
    """Chain operator of one history, in Heisenberg form on the reference space.

    Identity slots contribute identity factors; a label mismatch with the
    family raises.  The returned operator K satisfies
    ``K^dag = P_0 P_1 ... P_f`` (Heisenberg projectors in time order, with the
    initial-state projector included when the family has a pure initial).
    Built independently of the engine's Schrodinger pass, it serves as the
    cross-check oracle.
    """
    hist = f.resolve(h.slots if isinstance(h, History) else h)
    adj = functools.reduce(np.matmul, (
        f.propagators.heisenberg_matrix(f.decompositions[slot].projector(label).mat, j, ref)
        for slot, (label, j) in enumerate(zip(hist.slots, f.time_indices))
    ))
    return ChainOperator(hist, Operator(adj.conj().T))


def chain_operator_schrodinger(h: History | Sequence[str], f: Family) -> ChainOperator:
    """Chain operator built from the two-time propagators directly.

    ``K^dag = P_0 T(t_0,t_1) P_1 T(t_1,t_2) ... P_f`` with the projectors in
    their native per-time form.  Mathematically equal to the Heisenberg form
    with reference index 0 up to rounding; kept as an independent cross-check
    path.
    """
    hist = f.resolve(h.slots if isinstance(h, History) else h)
    d = f.dim
    adj = np.eye(d, dtype=np.complex128)
    for slot, label in enumerate(hist.slots):
        proj = f.decompositions[slot].projector(label)
        adj = adj @ proj.mat
        if slot + 1 < len(hist.slots):
            j, k = f.time_indices[slot], f.time_indices[slot + 1]
            adj = adj @ f.propagators.propagator(j, k).mat
    # Map back to the reference space of time index 0 for comparability.
    t0f = f.propagators.propagator(f.time_indices[0], f.time_indices[-1]).mat
    first = f.propagators.propagator(0, f.time_indices[0]).mat
    adj = first @ adj @ t0f.conj().T @ first.conj().T
    return ChainOperator(hist, Operator(adj.conj().T))


def weight(h: History | Sequence[str], f: Family) -> float:
    """Generalized Born weight ``<K, K>`` of one history.

    Uses the trace inner product, or its density-weighted form when the
    family carries a density-operator initial condition.  With a pure
    initial state the sample space pins that state's slot, so a history
    carrying the complementary member there has weight zero under the
    initial condition.
    """
    hist = f.resolve(h.slots if isinstance(h, History) else h)
    analysis = _analyze(f)
    # position in the enumeration order of ``alphas``: mixed radix over the
    # slots, first slot most significant, as ``_analyze`` numbers the chains
    idx = 0
    for slot, label in enumerate(hist.slots):
        labels = f.slot_labels(slot)
        if label not in labels:
            # Pure-initial families pin the anchored slot; histories leaving
            # the initial state have zero weight by the initial condition.
            if isinstance(f.initial, PureInitial):
                return 0.0
            raise UnknownLabelError(f"history {hist.slots} is not in the sample space")
        idx = idx * len(labels) + labels.index(label)
    return float(analysis.weights[idx])


# -- consistency ---------------------------------------------------------------


class Violations(Sequence):
    """The violating pairs ``(alpha, beta, overlap)`` by descending overlap,
    ties in enumeration order: a read-only view of (2, n) alpha indices and n
    overlaps that builds only the tuples read.  It is equal to, and hashes
    like, the tuple of all of them."""

    __slots__ = ("_alphas", "_pairs", "_overlaps")

    def __init__(self, alphas: Sequence[tuple[str, ...]], pairs: np.ndarray, overlaps: np.ndarray):
        self._alphas, self._pairs, self._overlaps = alphas, pairs, overlaps

    def __len__(self) -> int:
        return len(self._overlaps)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self._tuples(k))
        a, b = self._pairs[:, operator.index(k)]
        return self._alphas[a], self._alphas[b], float(self._overlaps[k])

    def _tuples(self, k: slice = slice(None)):
        names, (first, second) = self._alphas, self._pairs[:, k].tolist()
        overlaps = self._overlaps[k].tolist()
        return ((names[a], names[b], o) for a, b, o in zip(first, second, overlaps))

    __iter__ = _tuples

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, Violations)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<{len(self)} violations>"


@dataclass(frozen=True)
class ConsistencyReport:
    """Result of evaluating the decoherence functional's off-diagonals."""

    consistent: bool
    violations: Violations
    max_normalized_overlap: float
    eps_abs: float = EPS_ABS
    eps_rel: float = EPS_REL
    mode: str = "complex"

    def __bool__(self) -> bool:
        return self.consistent

    def to_dict(self) -> dict:
        return {
            "consistent": self.consistent,
            "max_normalized_overlap": self.max_normalized_overlap,
            "mode": self.mode,
            "violations": [
                {"alpha": list(a), "beta": list(b), "overlap": o}
                for a, b, o in self.violations
            ],
        }


def consistency_check(
    f: Family,
    eps_abs: float = EPS_ABS,
    eps_rel: float = EPS_REL,
    mode: str = "complex",
) -> ConsistencyReport:
    """Evaluate all distinct chain-operator pairs for mutual orthogonality.

    A pair violates when its (full complex) inner product exceeds
    ``eps_abs + eps_rel * sqrt(W_a W_b)``.  Histories of zero weight have
    vanishing chain operators and never violate.  ``mode="real"`` tests only
    the real part (the weaker variant some authors adopt); the default tests
    the full condition.  Non-finite or negative tolerances raise
    ``ValueError``: they would make every comparison meaningless.
    """
    if mode not in ("complex", "real"):
        raise ValueError(f"mode must be 'complex' or 'real', got {mode!r}")
    for name, eps in (("eps_abs", eps_abs), ("eps_rel", eps_rel)):
        if not (math.isfinite(eps) and eps >= 0.0):
            raise ValueError(f"{name} must be finite and non-negative, got {eps!r}")
    return _report(_analyze(f), eps_abs, eps_rel, mode)


def _report(analysis: _Analysis, eps_abs: float, eps_rel: float, mode: str) -> ConsistencyReport:
    """The check over the upper triangle of the Gram matrix, a block of rows at a time.

    A block is never a single row, which numpy multiplies as a matrix-vector
    product that rounds differently.  Surviving chains weigh more than the
    prune floor squared, so every normalization below is positive.
    """
    flat, w = analysis.rows, analysis.weights[analysis.nonzero]
    n, adjoint = len(w), flat.conj().T
    step = max(2, _GRAM_BLOCK_BYTES // max(16 * n, 1))
    # (alpha index pairs, overlaps) of the violating pairs of each block
    found = [(np.zeros((2, 0), dtype=np.int32), np.zeros(0))]
    held, max_norm = 0, 0.0
    for i in range(0, n - 1, step):
        j = min(i + step, n)
        gram = (flat[i:j] @ adjoint)[:, i + 1:]
        overlap = np.abs(gram.real if mode == "real" else gram)
        scale = np.sqrt(w[i:j, None] * w[None, i + 1:])
        upper = np.arange(i + 1, n) > np.arange(i, j)[:, None]
        max_norm = max(max_norm, float((overlap / scale)[upper].max()))
        first, second = np.nonzero(upper & (overlap > eps_abs + eps_rel * scale))
        held += 16 * first.size
        if held > _MAX_ANALYSIS_BYTES:
            raise FamilyTooLargeError(
                f"more than {held // 16} violating pairs (limit {_MAX_ANALYSIS_BYTES} bytes)")
        # alpha indices stay below _MAX_HISTORIES, so int32 holds them
        pairs = analysis.nonzero[np.stack((first + i, second + i + 1))].astype(np.int32)
        found.append((pairs, overlap[first, second]))
    pairs = np.concatenate([p for p, _ in found], axis=1)
    overlaps = np.concatenate([o for _, o in found])
    order = np.argsort(-overlaps, kind="stable")
    return ConsistencyReport(
        consistent=not len(overlaps),
        violations=Violations(analysis.alphas, pairs[:, order], overlaps[order]),
        max_normalized_overlap=max_norm,
        eps_abs=eps_abs,
        eps_rel=eps_rel,
        mode=mode,
    )


# -- probabilities --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Weights per history plus the normalization that turns them into
    probabilities.  With a unit-norm pure initial state the normalization
    is 1 up to rounding."""

    entries: tuple[tuple[tuple[str, ...], float], ...]
    normalization: float

    def probability(self, alpha: Sequence[str]) -> float:
        key = tuple(alpha)
        for a, w in self.entries:
            if a == key:
                return w / self.normalization
        raise UnknownLabelError(f"history {key} not in the table")

    def items(self) -> tuple[tuple[tuple[str, ...], float], ...]:
        """(alpha, probability) pairs in enumeration order."""
        return tuple((a, w / self.normalization) for a, w in self.entries)

    def total_weight(self) -> float:
        return float(sum(w for _, w in self.entries))

    def to_dict(self) -> dict:
        return {
            "normalization": self.normalization,
            "entries": [
                {"history": list(a), "weight": w, "probability": w / self.normalization}
                for a, w in self.entries
            ],
        }


def weight_table(f: Family) -> WeightTable:
    """All weights, without enforcing consistency (internal/diagnostic use)."""
    return _table(_analyze(f))


def _table(analysis: _Analysis) -> WeightTable:
    entries = tuple(
        (alpha, float(w)) for alpha, w in zip(analysis.alphas, analysis.weights)
    )
    norm = float(analysis.weights.sum())
    if norm <= 0.0:
        raise ValueError("family has zero total weight; cannot normalize")
    return WeightTable(entries=entries, normalization=norm)


def probabilities(f: Family) -> WeightTable:
    """Probabilities over the family's sample space.

    Refuses inconsistent families: probabilities only make sense within a
    single consistent framework.
    """
    analysis = _analyze(f)
    report = _report(analysis, EPS_ABS, EPS_REL, "complex")
    if not report.consistent:
        raise InconsistentFamilyError(report, f.name)
    return _table(analysis)


Predicate = Callable[[tuple[str, ...]], bool]


def slot_predicate(f: Family, spec: Mapping[str, str | Iterable[str]] | Predicate) -> Predicate:
    """Build a history predicate from {time_label: member_label(s)} or pass
    through a callable.  String values may offer alternatives joined by '|'."""
    if callable(spec):
        return spec
    wanted: list[tuple[int, frozenset[str]]] = []
    for time_label, member in spec.items():
        slot = f.slot_of_time_label(time_label)
        if isinstance(member, str):
            options = frozenset(member.split("|"))
        else:
            options = frozenset(member)
        known = set(f.decompositions[slot].labels)
        if isinstance(f.initial, PureInitial) and slot == f.initial_slot:
            known.add(f.initial.label)
        unknown = options - known
        if unknown:
            raise UnknownLabelError(
                f"labels {sorted(unknown)} not in the decomposition at {time_label}"
            )
        wanted.append((slot, options))

    def pred(alpha: tuple[str, ...]) -> bool:
        return all(alpha[slot] in options for slot, options in wanted)

    return pred


def conditional_probability(
    f: Family,
    target: Mapping[str, str | Iterable[str]] | Predicate,
    given: Mapping[str, str | Iterable[str]] | Predicate,
) -> float:
    """``Pr(target | given)`` over a consistent family's sample space."""
    table = probabilities(f)
    tpred = slot_predicate(f, target)
    gpred = slot_predicate(f, given)
    p_given = 0.0
    p_both = 0.0
    for alpha, pr in table.items():
        if gpred(alpha):
            p_given += pr
            if tpred(alpha):
                p_both += pr
    if p_given <= EPS_SUPPORT:
        raise ZeroConditionProbabilityError(
            f"conditioning event has probability {p_given:.3e}"
        )
    return p_both / p_given


def support(f: Family) -> tuple[tuple[tuple[str, ...], float], ...]:
    """Histories with probability above ``EPS_SUPPORT``, sorted descending."""
    table = probabilities(f)
    items = [(a, p) for a, p in table.items() if p > EPS_SUPPORT]
    items.sort(key=lambda ap: -ap[1])
    return tuple(items)


def event_probability(f: Family, subset: Iterable[Sequence[str]]) -> float:
    """Probability of an event: a subset of the family's histories.

    Additive over disjoint subsets by construction.
    """
    table = probabilities(f)
    keys = set()
    for alpha in subset:
        hist = f.resolve(alpha)
        keys.add(hist.slots)
    return float(sum(p for a, p in table.items() if a in keys))


def histories_with_slots(f: Family, labels: Iterable[str]) -> tuple[tuple[str, ...], ...]:
    """All histories whose slot labels include every given label."""
    need = list(labels)
    all_known = set()
    for slot in range(len(f)):
        all_known.update(f.slot_labels(slot))
        all_known.update(f.decompositions[slot].labels)
    for lab in need:
        if lab not in all_known:
            raise UnknownLabelError(f"label {lab!r} not used anywhere in the family")
    return tuple(a for a in f.alphas() if all(lab in a for lab in need))


# -- time reversal ---------------------------------------------------------------


def time_reverse(f: Family) -> Family:
    """The family read backwards in time.

    Chain operators of the reversed family are the adjoints of the originals,
    so weights and the consistency verdict are unchanged.  Density-operator
    initial conditions are inherently time-directed and cannot be reversed.
    """
    if isinstance(f.initial, MixedInitial):
        raise ValueError("time reversal is undefined for density-operator initial conditions")
    ps = f.propagators
    n = len(ps.grid)
    rev_values = tuple(-v for v in reversed(ps.grid.values))
    rev_labels = tuple(reversed(ps.grid.labels))
    from .dynamics import TimeGrid  # local to avoid import cycles in tooling

    rev_grid = TimeGrid(rev_values, rev_labels)
    rev_steps = tuple(s.dagger() for s in reversed(ps.steps))
    rev_ps = PropagatorSet(rev_grid, rev_steps, space_dim=ps.dim)
    rev_indices = tuple(sorted(n - 1 - i for i in f.time_indices))
    rev_decs = tuple(reversed(f.decompositions))
    slot = None if f.initial is None else len(f.time_indices) - 1 - f.initial_slot
    return Family(
        rev_ps,
        rev_indices,
        rev_decs,
        f.initial,
        slot if slot is not None else 0,
        (f.name + "-reversed") if f.name else None,
    )

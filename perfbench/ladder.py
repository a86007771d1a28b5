"""ladder workload: seeded synthetic families of growing size.

One op builds one rung's family from the seeded matrices, runs
``consistency_check`` on it, then ``probabilities`` if it is consistent or
``weight_table`` if it is not.  Haar-random steps leave every chain alive
and make most pairs violate; commuting steps with matching bases prune to a
few mutually orthogonal chains (at most d with a pure initial state, d**2
with a mixed one), so the same check runs violation-free.  The seed draws
every unitary, initial state and sampled history.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from conhist.dynamics import PropagatorSet, TimeGrid
from conhist.hilbert import DecompositionOfIdentity, DensityOperator, Ket, Operator
from conhist.histories import (
    Family,
    chain_operator_schrodinger,
    consistency_check,
    probabilities,
    weight_table,
)

import layers
from spans import Op, maybe_span


@dataclass(frozen=True)
class Rung:
    name: str
    dim: int
    times: int
    mixed: bool
    steps: str  # "haar", "diagonal" (commute with the computational basis) or "fourier"
    consistent: bool  # what the construction guarantees


RUNGS = (
    Rung("haar-d2-pure-t5", 2, 5, False, "haar", False),          # 16 chains
    Rung("diagonal-d4-pure-t8", 4, 8, False, "diagonal", True),   # 4 of 16384
    Rung("haar-d2-mixed-t8", 2, 8, True, "haar", False),          # 256 chains
    Rung("haar-d3-pure-t6", 3, 6, False, "haar", False),          # 243 chains
    Rung("fourier-d3-mixed-t6", 3, 6, True, "fourier", True),     # 9 of 729
    Rung("haar-d4-mixed-t5", 4, 5, True, "haar", False),          # 1024 chains
    Rung("haar-d3-pure-t8", 3, 8, False, "haar", False),          # 2187 chains
)
SMOKE_RUNGS = RUNGS[:1]

# Histories per rung whose weight is recomputed from the Schrodinger-picture
# chain operator, and the tolerances of the output checks.
WEIGHT_SAMPLE = 4
WEIGHT_TOL = 1e-10
NORMALIZATION_TOL = 1e-9


def _haar(rng, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _fourier(d: int) -> np.ndarray:
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


@dataclass
class RungInputs:
    """Seeded matrices for one rung; the op turns them into conhist objects."""

    rung: Rung
    steps: list[np.ndarray]
    bases: list[np.ndarray]  # one orthonormal basis (as columns) per time
    psi: np.ndarray | None
    rho: np.ndarray | None

    @classmethod
    def draw(cls, rung: Rung, rng) -> "RungInputs":
        d, n = rung.dim, rung.times
        eye, f = np.eye(d, dtype=np.complex128), _fourier(d)
        if rung.steps == "haar":
            steps = [_haar(rng, d) for _ in range(n - 1)]
            bases = [eye] * n
        else:
            # diagonal in the basis the later times use, so chains cannot
            # move between its members
            frame = eye if rung.steps == "diagonal" else f
            steps = [frame @ np.diag(np.exp(2j * np.pi * rng.random(d))) @ frame.conj().T
                     for _ in range(n - 1)]
            bases = [eye] + [frame] * (n - 1)
        psi = rho = None
        if rung.mixed:
            weights = rng.random(d) + 0.1
            weights /= weights.sum()
            # diagonal in the first basis when the family must stay consistent
            u = eye if rung.consistent else _haar(rng, d)
            rho = (u * weights) @ u.conj().T
        else:
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi /= np.linalg.norm(psi)
        return cls(rung, steps, bases, psi, rho)

    def build(self, tracer=None) -> Family:
        n = self.rung.times
        with maybe_span(tracer, "dynamics.propagators"):
            ps = PropagatorSet(TimeGrid(tuple(float(t) for t in range(n))),
                               tuple(Operator(u) for u in self.steps))
        with maybe_span(tracer, "histories.family"):
            labels = [str(k) for k in range(self.rung.dim)]
            decs = [DecompositionOfIdentity.from_basis([Ket(c) for c in b.T], labels) for b in self.bases]
            if self.rho is not None:
                return Family.general(ps, range(n), decs, DensityOperator(Operator(self.rho)),
                                      name=self.rung.name)
            return Family.pure(ps, range(n), Ket(self.psi, "psi"), decs[1:], name=self.rung.name)


def _schrodinger_weight(inputs: RungInputs, alpha, fam: Family) -> float:
    k = chain_operator_schrodinger(alpha, fam).op.mat
    if inputs.rho is None:
        return float(np.linalg.norm(k) ** 2)
    return float(np.trace(inputs.rho @ k.conj().T @ k).real)


class Workload:
    # per-layer metrics taken from the traced passes; the rest come from one replay
    PER_PASS = ("dynamics.propagators_s", "histories.check_cold_s", "histories.read_warm_s",
                "histories.chains_per_s")

    def __init__(self, seed: int, smoke: bool, workdir):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.inputs = [RungInputs.draw(r, rng) for r in (SMOKE_RUNGS if smoke else RUNGS)]
        self.first: dict[int, tuple[bool, int]] = {}
        self.counts: dict[int, dict] = {}
        self.chains = 0
        self.check_s = 0.0

    def ops(self) -> list[Op]:
        return [Op(x.rung.name, "ladder.rung", lambda tracer, x=x: self._run(x, tracer)) for x in self.inputs]

    @staticmethod
    def _run(inputs: RungInputs, tracer):
        fam = inputs.build(tracer)
        t0 = time.perf_counter()
        with maybe_span(tracer, "histories.check_cold"):
            report = consistency_check(fam)
        check_s = time.perf_counter() - t0
        with maybe_span(tracer, "histories.read_warm"):
            table = probabilities(fam) if report.consistent else weight_table(fam)
        return fam, report, table, check_s

    def check(self, i: int, out, pass_no: int, traced: bool) -> str | None:
        fam, report, table, check_s = out
        inputs = self.inputs[i]
        summary = (report.consistent, len(report.violations))
        if self.first.setdefault(i, summary) != summary:
            return f"verdict and violation count {summary} differ from the first pass {self.first[i]}"
        if report.consistent != inputs.rung.consistent:
            return f"consistent={report.consistent}, the construction guarantees {inputs.rung.consistent}"
        alive = [k for k, (_, w) in enumerate(table.entries) if w > 0.0]
        if not traced:
            self.chains += len(alive)
            self.check_s += check_s
        if i not in self.counts:
            self.counts[i] = {}
            layers.count_check(fam, report, self.counts[i])
        if report.consistent:
            total = sum(p for _, p in table.items())
            if abs(total - 1.0) > NORMALIZATION_TOL:
                return f"probabilities sum to {total}"
        rng = np.random.default_rng((self.seed, i))
        for k in rng.choice(alive, size=min(WEIGHT_SAMPLE, len(alive)), replace=False):
            alpha, w = table.entries[k]
            want = _schrodinger_weight(inputs, alpha, fam)
            if abs(w - want) > WEIGHT_TOL:
                return f"weight of {alpha} is {w}, the Schrodinger chain gives {want}"
        return None

    def finish(self) -> dict[int, str]:
        return {}

    def extra(self) -> dict:
        return {"chains_per_s": (self.chains / self.check_s if self.check_s else 0.0, "1/s")}

    def layer_metrics(self, tracer, traced_passes: list[int]) -> dict:
        counts: dict = {}
        for per_rung in self.counts.values():
            for name, value in per_rung.items():
                if name == "histories.max_normalized_overlap":
                    counts[name] = max(counts.get(name, 0.0), value)
                else:
                    layers.add(counts, name, value)
        for name in ("dynamics.propagators", "histories.check_cold", "histories.read_warm"):
            counts[name + "_s"] = layers.per_pass(tracer, name, traced_passes)
        for i, inputs in enumerate(self.inputs):
            fam = inputs.build()
            with tracer.span("replay.rung", f"r{i}"):
                layers.validate_members(tracer, fam.decompositions, counts)
                layers.heisenberg_members(tracer, [fam], counts)
        counts["hilbert.validate_s"] = layers.replay_total(tracer, "hilbert.validate")
        counts["dynamics.heisenberg_s"] = layers.replay_total(tracer, "dynamics.heisenberg")
        layers.finish_histories(counts, counts["histories.check_cold_s"])
        return counts

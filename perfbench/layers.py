"""Timed calls into single conhist layers, shared by the workloads.

Each helper times one layer's public functions inside a span and adds that
layer's work counts to ``counts``.  Nothing here reaches into conhist's
private state: counts come from public results or from matrix shapes
(the ``*_gflop`` and ``*_mb`` figures are computed, not measured).
"""

from __future__ import annotations

import statistics

from conhist.dynamics import PropagatorSet
from conhist.hilbert import is_projector, validate_decomposition
from conhist.histories import consistency_check, weight_table

def matmul_flop(d: int) -> float:
    """Real floating-point operations in one dense complex d x d product."""
    return 8.0 * d**3


def add(counts: dict, name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


def validate_members(tracer, decompositions, counts: dict) -> None:
    """hilbert: ``validate_decomposition`` plus ``is_projector`` on every member."""
    with tracer.span("hilbert.validate"):
        for dec in decompositions:
            validate_decomposition(dec)
            for _, proj in dec.members:
                is_projector(proj.op)
    for dec in decompositions:
        m = len(dec)
        add(counts, "hilbert.members", m)
        add(counts, "hilbert.validate_gflop", (m * (m - 1) / 2 + m) * matmul_flop(dec.dim) / 1e9)


def heisenberg_members(tracer, families, counts: dict) -> None:
    """dynamics: ``heisenberg_matrix`` for every member at its time, on a fresh
    propagator set per dynamics so composition starts cold."""
    fresh: dict[int, PropagatorSet] = {}
    for fam in families:
        ps = fresh.get(id(fam.propagators))
        if ps is None:
            old = fam.propagators
            with tracer.span("dynamics.propagators"):
                ps = PropagatorSet(old.grid, old.steps, space_dim=old.space_dim)
            fresh[id(old)] = ps
        calls = 0
        with tracer.span("dynamics.heisenberg"):
            for j, dec in zip(fam.time_indices, fam.decompositions):
                for _, proj in dec.members:
                    ps.heisenberg_matrix(proj.mat, j, 0)
                    calls += 1
        add(counts, "dynamics.heisenberg_calls", calls)
        # T(0, j) is one product of cumulative propagators, then T P T^dag
        add(counts, "dynamics.heisenberg_gflop", calls * 3 * matmul_flop(fam.dim) / 1e9)


def count_check(fam, report, counts: dict) -> None:
    """histories counts for one checked family.

    A chain survives when its weight is nonzero: pruned chains weigh exactly 0.
    """
    surviving = sum(1 for _, w in weight_table(fam).entries if w > 0.0)
    add(counts, "histories.enumerated", fam.n_histories())
    add(counts, "histories.surviving", surviving)
    add(counts, "histories.pairs", surviving * (surviving - 1) // 2)
    add(counts, "histories.violations", len(report.violations))
    add(counts, "histories.gram_mb", surviving * surviving * 16 / 1e6)
    counts["histories.max_normalized_overlap"] = max(
        counts.get("histories.max_normalized_overlap", 0.0), report.max_normalized_overlap
    )


def check_cold(tracer, fam, counts: dict):
    """histories: ``consistency_check`` on a renamed copy, so no earlier
    analysis of ``fam`` is reused."""
    copy = fam.rename(f"{fam.name or 'family'}-cold")
    with tracer.span("histories.check_cold"):
        report = consistency_check(copy)
    count_check(copy, report, counts)
    return copy, report


def finish_histories(counts: dict, check_s: float) -> None:
    """Ratios derived from the summed histories counts."""
    enumerated = counts.get("histories.enumerated", 0)
    surviving = counts.get("histories.surviving", 0)
    counts["histories.surviving_ratio"] = surviving / enumerated if enumerated else 0.0
    counts["histories.chains_per_s"] = surviving / check_s if check_s > 0 else 0.0


def per_pass(tracer, name: str, passes) -> float:
    """Median over the given passes of the summed duration of spans ``name``."""
    totals = {p: 0.0 for p in passes}
    for span_name, start, end, _, op in tracer.spans:
        if span_name == name and op.startswith("p"):
            p = int(op[1:].split(":")[0])
            if p in totals:
                totals[p] += end - start
    return statistics.median(totals.values()) if totals else 0.0


def replay_total(tracer, name: str) -> float:
    """Summed duration of spans ``name`` recorded during a replay."""
    return sum(end - start for n, start, end, _, op in tracer.spans if n == name and op.startswith("r"))

"""famspec workload: export, parse and serialize every built-in scenario.

One op is one scenario's round trip: ``scenario_to_famspec`` -> ``parse``
-> ``serialize`` -> ``parse`` -> ``serialize``.  No chain work runs inside
the ops.  The seed fixes the order of the ops; the documents themselves
are the built-ins.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from conhist import famspec, scenarios
from conhist.histories import consistency_check, weight_table

import layers
from spans import Op, maybe_span

# Round trips per pass.  The wavepacket document (2.55 MB) takes over 90% of
# a pass; the small documents repeat so that the latency percentiles rest on
# many samples of each rather than on one sample of a ~20 ms op.
ROUND_TRIPS = {"spin-half": 8, "epr": 8, "hardy": 8, "wavepacket": 1}
SMOKE_SCENARIOS = ("hardy",)
WEIGHT_TOL = 1e-9


def _declarations(doc) -> int:
    return sum(len(table) for table in (
        doc.spaces, doc.ket_decls, doc.unitary_decls, doc.proj_decls,
        doc.decomp_decls, doc.times_decls, doc.family_decls,
    ))


def _matrix_entries(doc):
    for u in doc.unitary_decls.values():
        yield from u.entries
    for p in doc.proj_decls.values():
        if p.span is None:
            yield from p.entries


@dataclass
class RoundTrip:
    exported: str
    first: str      # serialize(parse(exported))
    doc: object     # parse(first)
    second: str     # serialize(doc)
    codec_s: float  # seconds in parse + serialize


def round_trip(scn, tracer) -> RoundTrip:
    with maybe_span(tracer, "famspec.export"):
        exported = famspec.scenario_to_famspec(scn)
    t0 = time.perf_counter()
    with maybe_span(tracer, "famspec.parse"):
        doc = famspec.parse(exported)
    with maybe_span(tracer, "famspec.serialize"):
        first = famspec.serialize(doc)
    with maybe_span(tracer, "famspec.parse"):
        doc = famspec.parse(first)
    with maybe_span(tracer, "famspec.serialize"):
        second = famspec.serialize(doc)
    return RoundTrip(exported, first, doc, second, time.perf_counter() - t0)


class Workload:
    # per-layer metrics taken from the traced passes; the rest come from one replay
    PER_PASS = ("famspec.export_s", "famspec.parse_s", "famspec.serialize_s", "famspec.mb_per_s")

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        names = SMOKE_SCENARIOS if smoke else tuple(ROUND_TRIPS)
        self.scns = {n: scenarios.build(n) for n in names}
        ops = [n for n in names for _ in range(ROUND_TRIPS[n])]
        self.names = [ops[i] for i in rng.permutation(len(ops))]
        self.reference: dict[str, list] = {}
        self.first_text: dict[str, str] = {}
        self.docs: dict[str, object] = {}
        self.sizes: dict[str, int] = {}
        # bytes through parse + serialize and the seconds those calls took,
        # kept apart for untraced and traced passes
        self.moved = {False: [0, 0.0], True: [0, 0.0]}

    def ops(self) -> list[Op]:
        return [
            Op(f"round trip {name}", "famspec.round_trip",
               lambda tracer, scn=self.scns[name]: round_trip(scn, tracer))
            for name in self.names
        ]

    def check(self, i: int, out: RoundTrip, pass_no: int, traced: bool) -> str | None:
        name = self.names[i]
        self.sizes[name] = len(out.exported.encode())
        first = out.first.encode()
        moved = self.moved[traced]
        moved[0] += self.sizes[name] + 2 * len(first) + len(out.second.encode())
        moved[1] += out.codec_s
        digest = hashlib.sha256(first).hexdigest()
        if self.first_text.setdefault(name, digest) != digest:
            return "serialized text differs from the first pass"
        if out.second != out.first:
            return "second serialize is not byte-identical to the first"
        if traced:
            self.docs[name] = out.doc
        return self._compare_families(name, out.doc)

    def _compare_families(self, name: str, doc) -> str | None:
        """Verdicts and weight tables of the parsed families match the built-ins."""
        if name not in self.reference:
            self.reference[name] = [
                (fam_name, consistency_check(fam).consistent, [w for _, w in weight_table(fam).entries])
                for fam_name, fam in sorted(self.scns[name].families.items())
            ]
        if sorted(doc.families) != [fam_name for fam_name, _, _ in self.reference[name]]:
            return f"parsed families {sorted(doc.families)} differ from the built-ins"
        for fam_name, consistent, weights in self.reference[name]:
            fam = doc.families[fam_name]
            if consistency_check(fam).consistent != consistent:
                return f"family {fam_name}: verdict differs from the built-in"
            got = [w for _, w in weight_table(fam).entries]
            if len(got) != len(weights) or max(
                (abs(a - b) for a, b in zip(got, weights)), default=0.0
            ) > WEIGHT_TOL:
                return f"family {fam_name}: weight table differs from the built-in"
        return None

    def finish(self) -> dict[int, str]:
        return {}

    def _mb_per_s(self, traced: bool) -> float:
        nbytes, seconds = self.moved[traced]
        return nbytes / 1e6 / seconds if seconds else 0.0

    def extra(self) -> dict:
        return {"mb_per_s": (self._mb_per_s(False), "MB/s")}

    def layer_metrics(self, tracer, traced_passes: list[int]) -> dict:
        counts: dict = {}
        for step in ("export", "parse", "serialize"):
            counts[f"famspec.{step}_s"] = layers.per_pass(tracer, f"famspec.{step}", traced_passes)
        counts["famspec.bytes"] = sum(self.sizes.values())
        counts["famspec.mb_per_s"] = self._mb_per_s(True)
        entries = zeros = 0
        for i, name in enumerate(self.docs):
            doc = self.docs[name]
            layers.add(counts, "famspec.declarations", _declarations(doc))
            for z in _matrix_entries(doc):
                entries += 1
                zeros += z == 0
            with tracer.span("replay.document", f"r{i}"):
                layers.validate_members(tracer, doc.decompositions.values(), counts)
        counts["famspec.zero_entry_ratio"] = zeros / entries if entries else 0.0
        counts["hilbert.validate_s"] = layers.replay_total(tracer, "hilbert.validate")
        return counts

"""paradox workload: the paper's four models through ``conhist.cli.main``.

One op is one command line run in process with ``--format json`` and its
output captured.  Every command rebuilds its scenario, as a real ``conhist``
invocation does.  The seed draws the kinematic-incompatible compat pairs,
the orientation of every compat pair, the local event subsets given to
``embed``, and the order of all commands.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from conhist import cli, scenarios
from conhist.framework import common_refinement
from conhist.histories import (
    conditional_probability,
    consistency_check,
    event_probability,
    histories_with_slots,
    weight_table,
)
from conhist.relativistic import (
    CyclicCausalityError,
    EmbeddingImpossibleError,
    Foliation,
    Hypersurface,
    causal_precedence,
    embed_events,
    validate_foliation,
)

import layers
from spans import Op

SCENARIOS = ("spin-half", "epr", "hardy", "wavepacket")
SMOKE_SCENARIOS = ("hardy",)

# The two probability queries the README shows.
README_PROBS = (
    ("hardy", "unitary-output", ("--event", "e,ebar")),
    ("spin-half", "G1", ("--target", "t3=x+X", "--given", "t5=x+X+")),
)

# Same-dynamics family pairs (sorted names) whose compat verdict is
# common-refinement-found or dynamic-incompatible; every other same-dynamics
# pair is kinematic-incompatible.  These small classes run in full, so the
# sample covers every verdict class each scenario produces, while a drawn
# handful stands for the large kinematic class.  The table only steers the
# sample: the checks recompute every verdict with common_refinement.
NON_KINEMATIC = {
    "epr": {("F0", "G2"), ("F0", "G4"), ("F1", "G1"), ("F2", "G1")},
    "hardy": {("arm-pair", "blocker"), ("arm-pair", "unitary-output"), ("blocker", "unitary-output")},
    "spin-half": {("F0", "G0"), ("F1", "G1"), ("F2", "G1"), ("G1", "G2"), ("F1-remerge", "G0")},
    "wavepacket": {("F0", "G0"), ("F0", "G2"), ("F1", "G1"), ("F2", "G1"), ("F2-remerge", "G1")},
}
KINEMATIC_SAMPLE = 2

# Seeded subsets of local events handed to ``embed``: (scenario, size, count).
LOCAL_EVENT_SUBSETS = (("epr", 8, 2), ("wavepacket", 12, 2))

KINDS = ("check", "probs", "compat", "scenario", "embed")

# Replay spans that stand for library work the command itself does; the rest
# (hilbert.validate, dynamics.*, relativistic.precedence) re-measure parts of it.
LIBRARY_SPANS = (
    "scenarios.build.", "scenarios.suite", "histories.check_cold",
    "histories.read_warm", "framework.compat", "relativistic.embed",
)
PRODUCT_CLASSES = ("refinement", "common-refinement-found", "dynamic-incompatible")


@dataclass(frozen=True)
class Command:
    kind: str
    scenario: str | None = None
    families: tuple[str, ...] = ()
    query: tuple[str, ...] = ()
    events: str | None = None

    def argv(self, workdir: Path) -> list[str]:
        if self.kind == "check" or self.kind == "probs":
            args = [self.kind, "--scenario", self.scenario, "--family", self.families[0], *self.query]
        elif self.kind == "compat":
            args = ["compat", "--scenario", self.scenario, *self.families]
        elif self.kind == "scenario":
            args = ["scenario", self.scenario, "--suite"]
        else:
            args = ["embed", str(workdir / f"{self.events}.json")]
        return args + ["--format", "json"]

    def label(self) -> str:
        target = self.events or " ".join(filter(None, (self.scenario, *self.families, *self.query)))
        return f"{self.kind} {target}"


def _compat_sample(name: str, scn, rng) -> list[Command]:
    fams = sorted(scn.families)
    pairs = [
        (a, b) for a, b in itertools.combinations(fams, 2)
        if scn.families[a].propagators.same_dynamics(scn.families[b].propagators)
    ]
    chosen = [p for p in pairs if p in NON_KINEMATIC[name]]
    kinematic = [p for p in pairs if p not in NON_KINEMATIC[name]]
    if kinematic:
        picks = rng.choice(len(kinematic), size=min(KINEMATIC_SAMPLE, len(kinematic)), replace=False)
        chosen += [kinematic[i] for i in sorted(picks)]
    return [
        Command("compat", name, p if rng.random() < 0.5 else (p[1], p[0])) for p in chosen
    ]


def _event_sets(scns, rng) -> dict:
    wp = scns["wavepacket"]
    mid = int(wp.propagators.grid.values[2])
    sets = {
        # the two sets of acceptance criterion 9
        "acc9-embeddable": [wp.events[k] for k in ("int3-t1", f"int3-t{mid}", "bp1", "bp2")],
        "acc9-refused": [wp.events["psi-t1"], wp.events["psi-boosted"]],
    }
    for name, size, count in LOCAL_EVENT_SUBSETS:
        local = sorted(k for k, e in scns[name].events.items() if e.is_local)
        for j in range(count):
            pick = rng.choice(len(local), size=size, replace=False)
            sets[f"{name}-local-{j}"] = [scns[name].events[local[i]] for i in sorted(pick)]
    return sets


def _events_json(events) -> dict:
    return {"events": [
        {
            "id": e.id,
            "regions": [
                {"cells": sorted(r.cells), "surface": {"xs": list(r.surface.xs), "ts": list(r.surface.ts)}}
                for r in e.regions
            ],
            "projector": e.projector,
            "time_index": e.time_index,
        }
        for e in events
    ]}


def _predicate(text: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in text.split(","))


def _strip_wall_time(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith('  "wall_time_s":'))


class Workload:
    # per-layer metrics taken from the traced passes; the rest come from one replay
    PER_PASS = tuple(f"cli.main_s.{kind}" for kind in KINDS) + ("cli.self_s",)

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        names = SMOKE_SCENARIOS if smoke else SCENARIOS
        self.scns = {n: scenarios.build(n) for n in names}
        commands = []
        for n in names:
            for fam in sorted(self.scns[n].families):
                commands += [Command("check", n, (fam,)), Command("probs", n, (fam,))]
        commands += [Command("probs", n, (f,), q) for n, f, q in README_PROBS if n in self.scns]
        for n in names:
            commands += _compat_sample(n, self.scns[n], rng)
        commands += [Command("scenario", n) for n in names]
        self.event_sets = {} if smoke else _event_sets(self.scns, rng)
        workdir.mkdir(parents=True, exist_ok=True)
        for name, events in self.event_sets.items():
            (workdir / f"{name}.json").write_text(json.dumps(_events_json(events)))
            commands.append(Command("embed", events=name))
        self.commands = [commands[i] for i in rng.permutation(len(commands))]
        self.argvs = [c.argv(workdir) for c in self.commands]
        self.first: dict[int, tuple[int, str, dict | None]] = {}
        self.json_bytes = 0

    def ops(self) -> list[Op]:
        return [
            Op(c.label(), f"cli.main.{c.kind}", lambda tracer, argv=argv: self._run(argv))
            for c, argv in zip(self.commands, self.argvs)
        ]

    @staticmethod
    def _run(argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def check(self, i: int, out, pass_no: int, traced: bool) -> str | None:
        code, text = out
        digest = hashlib.sha256(_strip_wall_time(text).encode()).hexdigest()
        if i not in self.first:
            self.first[i] = (code, digest, json.loads(text)["results"] if text else None)
            self.json_bytes += len(text.encode())
            return None
        code0, digest0, _ = self.first[i]
        if code != code0:
            return f"exit code {code}, first pass gave {code0}"
        if digest != digest0:
            return "JSON report differs from the first pass"
        return None

    def finish(self) -> dict[int, str]:
        """Compare each command's first output with the library's own verdict."""
        errors = {}
        for i, cmd in enumerate(self.commands):
            if i in self.first:
                try:
                    err = self._verify(cmd, *self.first[i][::2])
                except Exception as exc:  # a malformed report fails the command
                    err = f"report does not hold the expected fields: {exc!r}"
                if err:
                    errors[i] = err
        return errors

    def _verify(self, cmd: Command, code: int, results: dict | None) -> str | None:
        if cmd.kind in ("check", "probs"):
            fam = self.scns[cmd.scenario].families[cmd.families[0]]
            consistent = consistency_check(fam).consistent
            if code != (0 if consistent else 1):
                return f"exit code {code} but consistency_check says consistent={consistent}"
            if cmd.kind == "check" and results["consistent"] != consistent:
                return "reported verdict differs from consistency_check"
            if cmd.kind == "probs" and consistent:
                total = sum(row["probability"] for row in results["probabilities"])
                if abs(total - 1.0) > 1e-9:
                    return f"probabilities sum to {total}"
                return self._verify_query(fam, cmd.query, results)
            return None
        if cmd.kind == "compat":
            scn = self.scns[cmd.scenario]
            verdict = common_refinement(*(scn.families[f] for f in cmd.families))
            if code != (0 if verdict.compatible else 1) or results["classification"] != verdict.classification:
                return f"exit code {code}, {results['classification']}; library says {verdict.classification}"
            return None
        if cmd.kind == "scenario":
            if code != 0 or not results["passed"] or not all(c["passed"] for c in results["checks"]):
                return "suite reports failed checks"
            return None
        try:
            embed_events(self.event_sets[cmd.events])
        except EmbeddingImpossibleError as exc:
            if code != 1 or results["witness"] != exc.witness:
                return f"exit code {code}; library refuses with witness {exc.witness}"
            return None
        if code != 0:
            return f"exit code {code} but the library embeds the events"
        foliation = Foliation(tuple(
            Hypersurface(tuple(s["xs"]), tuple(s["ts"])) for s in results["foliation"]["surfaces"]
        ))
        if not validate_foliation(foliation).valid:
            return "emitted foliation fails validate_foliation"
        return None

    @staticmethod
    def _verify_query(fam, query: tuple[str, ...], results: dict) -> str | None:
        flags = dict(zip(query[::2], query[1::2]))
        if "--event" in flags:
            want = event_probability(fam, histories_with_slots(fam, flags["--event"].split(",")))
            got = results["events"][0]["probability"]
        elif "--target" in flags:
            want = conditional_probability(fam, _predicate(flags["--target"]), _predicate(flags["--given"]))
            got = results["conditional"]["probability"]
        else:
            return None
        if abs(got - want) > 1e-12:
            return f"query answered {got}, library gives {want}"
        return None

    def extra(self) -> dict:
        return {}

    # -- traced run ---------------------------------------------------------------

    def layer_metrics(self, tracer, traced_passes: list[int]) -> dict:
        """Per-layer numbers: CLI spans from the traced passes, then one
        replay of every command through the library layers it calls."""
        counts: dict = {}
        for kind in KINDS:
            counts[f"cli.main_s.{kind}"] = layers.per_pass(tracer, f"cli.main.{kind}", traced_passes)
        cli_s = library_s = 0.0
        for i, cmd in enumerate(self.commands):
            op = f"r{i}"
            with tracer.span(f"replay.{cmd.kind}", op):
                self._replay(tracer, cmd, counts)
            cli_s += statistics.median(
                end - start for name, start, end, _, o in tracer.spans
                if name.startswith("cli.main.") and o.split(":")[-1] == str(i) and o.startswith("p")
            )
            library_s += sum(
                end - start for name, start, end, _, o in tracer.spans
                if o == op and name.startswith(LIBRARY_SPANS)
            )
        counts["cli.self_s"] = cli_s - library_s
        counts["cli.json_bytes"] = self.json_bytes
        for name in ("hilbert.validate", "dynamics.propagators", "dynamics.heisenberg",
                     "histories.check_cold", "histories.read_warm", "framework.compat",
                     "relativistic.embed", "scenarios.suite"):
            counts[name + "_s"] = layers.replay_total(tracer, name)
        for n in self.scns:
            builds = [end - start for name, start, end, _, _ in tracer.spans if name == f"scenarios.build.{n}"]
            counts[f"scenarios.build_s.{n}"] = statistics.median(builds)
        layers.finish_histories(counts, counts["histories.check_cold_s"])
        return counts

    def _replay(self, tracer, cmd: Command, counts: dict) -> None:
        if cmd.kind == "embed":
            events = self.event_sets[cmd.events]
            layers.add(counts, "relativistic.events", len(events))
            with tracer.span("relativistic.precedence"):
                try:
                    layers.add(counts, "relativistic.edges", len(causal_precedence(events).edges))
                except CyclicCausalityError:
                    pass
            with tracer.span("relativistic.embed"):
                try:
                    layers.add(counts, "relativistic.layers", len(embed_events(events).layers))
                except EmbeddingImpossibleError:
                    pass
            return
        with tracer.span(f"scenarios.build.{cmd.scenario}"):
            scn = scenarios.build(cmd.scenario)
        decompositions = {id(d): d for f in scn.families.values() for d in f.decompositions}
        layers.validate_members(tracer, decompositions.values(), counts)
        used = list(scn.families.values()) if cmd.kind == "scenario" else [scn.families[f] for f in cmd.families]
        layers.heisenberg_members(tracer, used, counts)
        if cmd.kind == "check":
            layers.check_cold(tracer, used[0], counts)
        elif cmd.kind == "probs":
            fam, report = layers.check_cold(tracer, used[0], counts)
            if report.consistent:
                flags = dict(zip(cmd.query[::2], cmd.query[1::2]))
                with tracer.span("histories.read_warm"):
                    weight_table(fam)
                    if "--event" in flags:
                        event_probability(fam, histories_with_slots(fam, flags["--event"].split(",")))
                    if "--target" in flags:
                        conditional_probability(
                            fam, _predicate(flags["--target"]), _predicate(flags["--given"])
                        )
        elif cmd.kind == "compat":
            fa, fb = (f.rename(f"{f.name}-cold") for f in used)
            with tracer.span("framework.compat"):
                verdict = common_refinement(fa, fb)
            layers.add(counts, "framework.pairs", 1)
            layers.add(counts, "framework.product_checks", verdict.classification in PRODUCT_CLASSES)
        else:
            with tracer.span("scenarios.suite"):
                outcomes = scn.run_expected()
            layers.add(counts, "scenarios.checks", len(outcomes))

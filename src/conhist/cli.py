"""Command-line front end.

Subcommands: ``check`` (consistency verdict for a family), ``probs``
(probability tables, conditionals, event queries), ``compat`` (framework
compatibility classification), ``scenario`` (run a built-in scenario's
expected-results suite), ``embed`` (embed tagged events into a foliation).

Families come either from a built-in scenario (``--scenario NAME``) or from
a famspec document (``--file PATH``).  Reports are deterministic: numeric
fields are printed with 17 significant digits and the ``results`` object
carries no timestamps, so identical inputs produce byte-identical results.

Exit codes: 0 success/affirmative verdict, 1 negative verdict, 2 usage
error, 3 input/parse error or a family too large to analyse.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

from . import __version__
from .famspec import FamSpecError, parse as famspec_parse
from .framework import FamilyMismatchError, common_refinement
from .histories import (
    Family,
    FamilyTooLargeError,
    InconsistentFamilyError,
    UnknownLabelError,
    ZeroConditionProbabilityError,
    consistency_check,
    histories_with_slots,
    slot_predicate,
    weight_table,
)
from .relativistic import (
    CyclicCausalityError,
    EmbeddingImpossibleError,
    Hypersurface,
    Region,
    TaggedEvent,
    embed_events,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3


class InputError(Exception):
    """Bad input file / unknown name; maps to exit code 3."""


def _format_number(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{inner}"{key}": ' + _to_json(obj[key], indent + 1))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _to_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _format_number(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(str(obj))


def _emit(args, command: str, results: dict, rows: list[dict], started: float) -> None:
    if args.format == "json":
        report = {
            "schema": 1,
            "engine": {"name": "conhist", "version": __version__},
            "command": command,
            "results": results,
            "wall_time_s": time.monotonic() - started,
        }
        print(_to_json(report))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        if rows:
            header = list(rows[0])
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_number(row[k]) for k in header])
    # text output is printed by the command handlers as they go


def _load_families(args) -> dict[str, Family]:
    if getattr(args, "scenario", None):
        from . import scenarios

        try:
            scn = scenarios.build(args.scenario)
        except KeyError as exc:
            raise InputError(str(exc)) from None
        return dict(scn.families)
    if getattr(args, "file", None):
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.file}: {exc}") from None
        try:
            doc = famspec_parse(text)
        except FamSpecError as exc:
            raise InputError(f"{args.file}: {exc}") from None
        return dict(doc.families)
    raise InputError("provide --scenario NAME or --file PATH")


def _pick_family(families: dict[str, Family], name: str) -> Family:
    if name not in families:
        raise InputError(
            f"no family named {name!r}; available: {', '.join(sorted(families))}"
        )
    return families[name]


def _parse_predicate(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in text.split(","):
        if "=" not in part:
            raise InputError(
                f"bad predicate {part!r}: expected time=label pairs joined by commas"
            )
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise InputError(f"bad predicate {part!r}: empty time or label")
        out[key] = value
    return out


def _tolerances(args) -> dict:
    kw = {}
    if args.tol_abs is not None:
        kw["eps_abs"] = args.tol_abs
    if args.tol_rel is not None:
        kw["eps_rel"] = args.tol_rel
    return kw


def _tolerance(text: str) -> float:
    """argparse type for ``--tol-abs``/``--tol-rel``: a finite, non-negative number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


# -- commands -------------------------------------------------------------------


def cmd_check(args) -> int:
    started = time.monotonic()
    fam = _pick_family(_load_families(args), args.family)
    report = consistency_check(fam, **_tolerances(args))
    if args.format == "text":
        verdict = "consistent" if report.consistent else "INCONSISTENT"
        print(f"family {args.family}: {verdict}")
        print(f"  max normalized overlap: {_format_number(report.max_normalized_overlap)}")
        for a, b, o in report.violations[:10]:
            print(f"  violation: ({' '.join(a)}) vs ({' '.join(b)}): {_format_number(o)}")
        if len(report.violations) > 10:
            print(f"  ... and {len(report.violations) - 10} more")
    elif args.format == "json":
        _emit(args, "check", {"family": args.family, **report.to_dict()}, [], started)
    else:
        rows = [
            {"alpha": " ".join(a), "beta": " ".join(b), "overlap": o}
            for a, b, o in report.violations
        ] or [{"alpha": "", "beta": "", "overlap": 0.0}]
        _emit(args, "check", {}, rows, started)
    return EXIT_OK if report.consistent else EXIT_NEGATIVE


def cmd_probs(args) -> int:
    started = time.monotonic()
    fam = _pick_family(_load_families(args), args.family)
    report = consistency_check(fam, **_tolerances(args))
    if not report.consistent:
        print(
            f"error: {InconsistentFamilyError(report, args.family)}", file=sys.stderr
        )
        return EXIT_NEGATIVE
    table = weight_table(fam)
    entries = [(a, p) for a, p in table.items()]
    entries.sort(key=lambda ap: -ap[1])
    results: dict = {
        "family": args.family,
        "normalization": table.normalization,
        "probabilities": [
            {"history": list(a), "probability": p} for a, p in entries
        ],
    }
    rows = [{"history": " ".join(a), "probability": p} for a, p in entries]
    conditional = None
    if args.given or args.target:
        if not (args.given and args.target):
            raise InputError("conditional queries need both --target and --given")
        try:
            tpred = slot_predicate(fam, _parse_predicate(args.target))
            gpred = slot_predicate(fam, _parse_predicate(args.given))
        except UnknownLabelError as exc:
            raise InputError(str(exc)) from None
        p_given = sum(p for a, p in table.items() if gpred(a))
        p_both = sum(p for a, p in table.items() if gpred(a) and tpred(a))
        if p_given <= 1e-12:
            raise InputError(
                f"conditioning event {args.given!r} has probability {p_given:.3e}"
            )
        conditional = p_both / p_given
        results["conditional"] = {
            "target": args.target, "given": args.given, "probability": conditional,
        }
    events = []
    for spec in args.event or []:
        labels = [s.strip() for s in spec.split(",") if s.strip()]
        try:
            subset = set(histories_with_slots(fam, labels))
        except UnknownLabelError as exc:
            raise InputError(str(exc)) from None
        prob = float(sum(p for a, p in table.items() if a in subset))
        events.append({"labels": labels, "probability": prob})
    if events:
        results["events"] = events
    if args.format == "text":
        print(f"family {args.family} (normalization {_format_number(table.normalization)})")
        for a, p in entries:
            if p > 1e-12 or args.all:
                print(f"  {_format_number(p):<24} {' '.join(a)}")
        if conditional is not None:
            print(f"  Pr({args.target} | {args.given}) = {_format_number(conditional)}")
        for ev in events:
            print(f"  Pr(event {','.join(ev['labels'])}) = {_format_number(ev['probability'])}")
    else:
        _emit(args, "probs", results, rows, started)
    return EXIT_OK


def cmd_compat(args) -> int:
    started = time.monotonic()
    families = _load_families(args)
    fam_a = _pick_family(families, args.family_a)
    fam_b = _pick_family(families, args.family_b)
    try:
        verdict = common_refinement(fam_a, fam_b)
    except FamilyMismatchError as exc:
        raise InputError(str(exc)) from None
    results = {
        "family_a": args.family_a,
        "family_b": args.family_b,
        **verdict.to_dict(),
    }
    rows = [{
        "family_a": args.family_a,
        "family_b": args.family_b,
        "classification": verdict.classification,
        "compatible": verdict.compatible,
    }]
    if args.format == "text":
        print(f"{args.family_a} vs {args.family_b}: {verdict.classification}")
        if verdict.witness is not None and hasattr(verdict.witness, "time_label"):
            w = verdict.witness
            print(
                f"  witness: at {w.time_label}, [{w.label_a}, {w.label_b}] has "
                f"norm {_format_number(w.commutator_norm)}"
            )
    else:
        _emit(args, "compat", results, rows, started)
    return EXIT_OK if verdict.compatible else EXIT_NEGATIVE


def cmd_scenario(args) -> int:
    started = time.monotonic()
    from . import scenarios

    try:
        scn = scenarios.build(args.name)
    except KeyError as exc:
        raise InputError(str(exc)) from None
    if not args.suite:
        results = {
            "name": scn.name,
            "dimension": scn.dim,
            "times": list(scn.propagators.grid.values),
            "families": sorted(scn.families),
            "kets": sorted(scn.kets),
            "events": sorted(scn.events),
            "description": scn.description,
        }
        if args.format == "text":
            print(f"scenario {scn.name}: dimension {scn.dim}")
            print(f"  {scn.description}")
            print(f"  times: {list(scn.propagators.grid.values)}")
            print(f"  families: {', '.join(sorted(scn.families))}")
        else:
            _emit(args, "scenario", results, [], started)
        return EXIT_OK
    outcomes = scn.run_expected()
    all_pass = all(r.passed for r in outcomes)
    results = {
        "name": scn.name,
        "passed": all_pass,
        "checks": [r.to_dict() for r in outcomes],
    }
    rows = [
        {
            "status": "pass" if r.passed else "FAIL",
            "provenance": r.provenance,
            "expected": r.expected,
            "measured": r.measured,
            "description": r.description,
        }
        for r in outcomes
    ]
    if args.format == "text":
        for r in outcomes:
            mark = "pass" if r.passed else "FAIL"
            print(
                f"[{mark}] [{r.provenance}] {r.description}: "
                f"measured {_format_number(r.measured)}, expected "
                f"{_format_number(r.expected)}"
            )
        print(f"{scn.name}: {sum(r.passed for r in outcomes)}/{len(outcomes)} checks passed")
    else:
        _emit(args, "scenario", results, rows, started)
    return EXIT_OK if all_pass else EXIT_NEGATIVE


def _events_from_json(payload) -> list[TaggedEvent]:
    try:
        raw_events = payload["events"]
        events = []
        for raw in raw_events:
            regions = []
            for reg in raw["regions"]:
                surf = reg["surface"]
                regions.append(
                    Region.at(
                        [int(c) for c in reg["cells"]],
                        Hypersurface(
                            tuple(float(x) for x in surf["xs"]),
                            tuple(float(t) for t in surf["ts"]),
                        ),
                    )
                )
            events.append(
                TaggedEvent(
                    str(raw["id"]),
                    tuple(regions),
                    raw.get("projector"),
                    raw.get("time_index"),
                )
            )
        return events
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad events file: {exc}") from None


def cmd_embed(args) -> int:
    started = time.monotonic()
    try:
        with open(args.events_file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {args.events_file}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.events_file} is not valid JSON: {exc}") from None
    events = _events_from_json(payload)
    try:
        result = embed_events(events)
    except EmbeddingImpossibleError as exc:
        results = {"embedded": False, "witness": exc.witness, "detail": exc.detail}
        if args.format == "text":
            print(f"embedding impossible: {exc.detail}")
            print(f"  witness event: {exc.witness}")
        else:
            _emit(args, "embed", results, [{"witness": exc.witness}], started)
        return EXIT_NEGATIVE
    except CyclicCausalityError as exc:
        raise InputError(str(exc)) from None
    results = {"embedded": True, **result.to_dict()}
    rows = []
    for i, surf in enumerate(result.foliation.surfaces):
        for x, t in zip(surf.xs, surf.ts):
            rows.append({"surface": i, "x": x, "t": t})
    if args.format == "text":
        for i, (layer, surf) in enumerate(
            zip(result.layers, result.foliation.surfaces)
        ):
            pts = " ".join(f"({x:g},{t:g})" for x, t in zip(surf.xs, surf.ts))
            print(f"surface {i} [{', '.join(layer)}]: {pts}")
    else:
        _emit(args, "embed", results, rows, started)
    return EXIT_OK


# -- argument parsing --------------------------------------------------------------


def _add_source_flags(sub: argparse.ArgumentParser, scenario_only: bool = False):
    if not scenario_only:
        group = sub.add_mutually_exclusive_group()
        group.add_argument("--scenario", metavar="NAME", help="built-in scenario name")
        group.add_argument("--file", metavar="PATH", help="famspec document")
    sub.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="report format (default text)",
    )
    sub.add_argument("--tol-rel", type=_tolerance, default=None, metavar="EPS",
                     help="relative consistency threshold")
    sub.add_argument("--tol-abs", type=_tolerance, default=None, metavar="EPS",
                     help="absolute consistency threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conhist",
        description="Consistent-histories engine: weights, consistency, "
        "compatibility, and relativistic embeddings.",
    )
    parser.add_argument("--version", action="version", version=f"conhist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="consistency verdict for one family")
    _add_source_flags(p_check)
    p_check.add_argument("--family", required=True, metavar="NAME")
    p_check.set_defaults(handler=cmd_check)

    p_probs = sub.add_parser("probs", help="probability table and queries")
    _add_source_flags(p_probs)
    p_probs.add_argument("--family", required=True, metavar="NAME")
    p_probs.add_argument("--given", metavar="PRED", help="condition: time=label[,..]")
    p_probs.add_argument("--target", metavar="PRED", help="target: time=label[,..]")
    p_probs.add_argument(
        "--event", action="append", metavar="LABELS",
        help="slot labels (comma-joined) selecting an event; repeatable",
    )
    p_probs.add_argument("--all", action="store_true", help="print zero-probability rows")
    p_probs.set_defaults(handler=cmd_probs)

    p_compat = sub.add_parser("compat", help="compatibility classification")
    _add_source_flags(p_compat)
    p_compat.add_argument("family_a", metavar="FAMILY_A")
    p_compat.add_argument("family_b", metavar="FAMILY_B")
    p_compat.set_defaults(handler=cmd_compat)

    p_scn = sub.add_parser("scenario", help="inspect or verify a built-in scenario")
    p_scn.add_argument("name", metavar="NAME")
    p_scn.add_argument("--suite", action="store_true",
                       help="run the scenario's expected-results registry")
    _add_source_flags(p_scn, scenario_only=True)
    p_scn.set_defaults(handler=cmd_scenario)

    p_embed = sub.add_parser("embed", help="embed tagged events into a foliation")
    p_embed.add_argument("events_file", metavar="EVENTS_JSON")
    _add_source_flags(p_embed, scenario_only=True)
    p_embed.set_defaults(handler=cmd_embed)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (UnknownLabelError, ZeroConditionProbabilityError, FamilyTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ``check`` (consistency verdict for a family), ``probs``
(probability tables, conditionals, event queries), ``compat`` (framework
compatibility classification), ``scenario`` (run a built-in scenario's
expected-results suite), ``embed`` (embed tagged events into a foliation).

Families come either from a built-in scenario (``--scenario NAME``) or from
a famspec document (``--file PATH``).  Each command returns its exit code and
a ``results`` dict, which the JSON report carries and the text and CSV
outputs only view.  Reports are deterministic: numeric fields are printed
with 17 significant digits and ``results`` carries no timestamps, so
identical inputs produce byte-identical results.

Exit codes: 0 success/affirmative verdict, 1 negative verdict, 2 usage
error, 3 input/parse error or a family too large to analyse; ``main`` alone
maps a refused input to its code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from collections.abc import Mapping, Sequence

from . import __version__
from .famspec import FamSpecError, format_float, parse as famspec_parse
from .framework import FamilyMismatchError, common_refinement
from .histories import (
    EPS_ABS,
    EPS_REL,
    EPS_SUPPORT,
    Family,
    FamilyTooLargeError,
    InconsistentFamilyError,
    UnknownLabelError,
    ZeroConditionProbabilityError,
    consistency_check,
    histories_with_slots,
    probabilities,
    slot_predicate,
)
from .relativistic import (
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
    return format_float(x) if isinstance(x, float) else str(x)


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
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    # Sequence comes last (after list and tuple): a check against an ABC costs
    # as much as ten plain ones
    if isinstance(obj, str) or not isinstance(obj, (list, tuple, Sequence)):
        return json.dumps(str(obj))
    if not obj:
        return "[]"
    items = [inner + _to_json(v, indent + 1) for v in obj]
    return "[\n" + ",\n".join(items) + "\n" + pad + "]"


def _emit(args, results: dict, wall_time_s: float) -> None:
    """Print ``results`` in the ``--format`` the command was given."""
    text_view, csv_view = args.views
    if args.format == "json":
        print(_to_json({
            "schema": 1,
            "engine": {"name": "conhist", "version": __version__},
            "command": args.command,
            "results": results,
            "wall_time_s": wall_time_s,
        }))
    elif args.format == "csv":
        rows = csv_view(results)
        if rows:
            writer = csv.writer(sys.stdout)
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow([_format_number(v) for v in row.values()])
    else:
        for line in text_view(results):
            print(line)


def _scenario(name: str, families=None):
    from . import scenarios

    try:
        return scenarios.build(name, families)
    except KeyError as exc:
        raise InputError(exc.args[0]) from None


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_families(args, *names: str) -> list[Family]:
    """The named families, of ``--scenario`` (which builds only those) or ``--file``."""
    if args.scenario:
        families = _scenario(args.scenario, names)
    elif args.file:
        try:
            families = famspec_parse(_read(args.file)).families
        except FamSpecError as exc:  # "LINE:COLUMN: MESSAGE"; main says error: once
            raise InputError(f"{args.file}:{exc}") from None
    else:
        raise InputError("provide --scenario NAME or --file PATH")
    return [_pick_family(families, name) for name in names]


def _pick_family(families: Mapping[str, Family], name: str) -> Family:
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
        if key in out:
            raise InputError(
                f"bad predicate {text!r}: time {key!r} given twice; join its labels with '|'"
            )
        out[key] = value
    return out


def _tolerance(text: str) -> float:
    """argparse type for ``--tol-abs``/``--tol-rel``: a finite, non-negative number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


# -- commands: each returns (exit code, results); its text view (lines) and CSV
# view (rows) read only those results --------------------------------------------


def cmd_check(args) -> tuple[int, dict]:
    (fam,) = _load_families(args, args.family)
    report = consistency_check(fam, args.tol_abs, args.tol_rel)
    return (EXIT_OK if report.consistent else EXIT_NEGATIVE), {
        "family": args.family, **report.to_dict(),
    }


def _check_text(r: dict) -> list[str]:
    violations = r["violations"]
    lines = [
        f"family {r['family']}: {'consistent' if r['consistent'] else 'INCONSISTENT'}",
        f"  max normalized overlap: {_format_number(r['max_normalized_overlap'])}",
    ]
    lines += [
        f"  violation: ({' '.join(v['alpha'])}) vs ({' '.join(v['beta'])}): "
        f"{_format_number(v['overlap'])}"
        for v in violations[:10]
    ]
    if len(violations) > 10:
        lines.append(f"  ... and {len(violations) - 10} more")
    return lines


def _check_rows(r: dict) -> list[dict]:
    return [
        {"alpha": " ".join(v["alpha"]), "beta": " ".join(v["beta"]), "overlap": v["overlap"]}
        for v in r["violations"]
    ] or [{"alpha": "", "beta": "", "overlap": 0.0}]


def cmd_probs(args) -> tuple[int, dict]:
    (fam,) = _load_families(args, args.family)
    table = probabilities(fam, args.tol_abs, args.tol_rel)
    results: dict = {
        "family": args.family,
        "normalization": table.normalization,
        "probabilities": [
            {"history": list(a), "probability": p}
            for a, p in sorted(table.items(), key=lambda ap: -ap[1])
        ],
    }
    if args.given or args.target:
        if not (args.given and args.target):
            raise InputError("conditional queries need both --target and --given")
        results["conditional"] = {
            "target": args.target, "given": args.given,
            "probability": table.conditional(
                slot_predicate(fam, _parse_predicate(args.target)),
                slot_predicate(fam, _parse_predicate(args.given)),
            ),
        }
    events = []
    for spec in args.event or []:
        labels = [s.strip() for s in spec.split(",") if s.strip()]
        if not labels:
            raise InputError(f"bad event {spec!r}: expected slot labels joined by commas")
        prob = table.event(histories_with_slots(fam, labels))
        events.append({"labels": labels, "probability": prob})
    if events:
        results["events"] = events
    return EXIT_OK, results


def _probs_text(r: dict) -> list[str]:
    lines = [f"family {r['family']} (normalization {_format_number(r['normalization'])})"]
    lines += [
        f"  {_format_number(e['probability']):<24} {' '.join(e['history'])}"
        for e in r["probabilities"] if e["probability"] > EPS_SUPPORT
    ]
    if "conditional" in r:
        c = r["conditional"]
        lines.append(f"  Pr({c['target']} | {c['given']}) = {_format_number(c['probability'])}")
    lines += [
        f"  Pr(event {','.join(e['labels'])}) = {_format_number(e['probability'])}"
        for e in r.get("events", ())
    ]
    return lines


def _probs_rows(r: dict) -> list[dict]:
    return [
        {"history": " ".join(e["history"]), "probability": e["probability"]}
        for e in r["probabilities"]
    ]


def cmd_compat(args) -> tuple[int, dict]:
    verdict = common_refinement(*_load_families(args, args.family_a, args.family_b))
    return (EXIT_OK if verdict.compatible else EXIT_NEGATIVE), {
        "family_a": args.family_a, "family_b": args.family_b, **verdict.to_dict(),
    }


def _compat_text(r: dict) -> list[str]:
    lines = [f"{r['family_a']} vs {r['family_b']}: {r['classification']}"]
    w = r.get("witness")
    if w is not None and "time" in w:  # a kinematic witness, not a consistency report
        lines.append(
            f"  witness: at {w['time']}, [{w['projector_a']}, {w['projector_b']}] has "
            f"norm {_format_number(w['commutator_norm'])}"
        )
    return lines


def _compat_rows(r: dict) -> list[dict]:
    return [{k: r[k] for k in ("family_a", "family_b", "classification", "compatible")}]


def cmd_scenario(args) -> tuple[int, dict]:
    scn = _scenario(args.name)
    if not args.suite:
        return EXIT_OK, {
            "name": scn.name, "dimension": scn.dim, "description": scn.description,
            "times": list(scn.propagators.grid.values), "families": sorted(scn.families),
            "kets": sorted(scn.kets), "events": sorted(scn.events),
        }
    checks = [r.to_dict() for r in scn.run_expected()]
    passed = all(c["passed"] for c in checks)
    return (EXIT_OK if passed else EXIT_NEGATIVE), {
        "name": scn.name, "passed": passed, "checks": checks,
    }


def _scenario_text(r: dict) -> list[str]:
    if "checks" not in r:
        return [
            f"scenario {r['name']}: dimension {r['dimension']}",
            f"  {r['description']}",
            f"  times: {r['times']}",
            f"  families: {', '.join(r['families'])}",
        ]
    checks = r["checks"]
    return [
        f"[{'pass' if c['passed'] else 'FAIL'}] [{c['provenance']}] {c['description']}: "
        f"measured {_format_number(c['measured'])}, expected {_format_number(c['expected'])}"
        for c in checks
    ] + [f"{r['name']}: {sum(c['passed'] for c in checks)}/{len(checks)} checks passed"]


def _scenario_rows(r: dict) -> list[dict]:
    keys = ("provenance", "expected", "measured", "description")
    return [
        {"status": "pass" if c["passed"] else "FAIL", **{k: c[k] for k in keys}}
        for c in r.get("checks", ())
    ]


def _events_from_json(payload) -> list[TaggedEvent]:
    try:
        events = []
        for raw in payload["events"]:
            regions = []
            for reg in raw["regions"]:
                surf = reg["surface"]
                surface = Hypersurface(tuple(surf["xs"]), tuple(surf["ts"]))
                regions.append(Region.at(reg["cells"], surface))
            events.append(TaggedEvent(
                raw["id"], tuple(regions), raw.get("projector"), raw.get("time_index")
            ))
        return events
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad events file: {exc}") from None


def cmd_embed(args) -> tuple[int, dict]:
    try:
        payload = json.loads(_read(args.events_file))
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.events_file} is not valid JSON: {exc}") from None
    try:
        result = embed_events(_events_from_json(payload))
    except EmbeddingImpossibleError as exc:
        return EXIT_NEGATIVE, {"embedded": False, "witness": exc.witness, "detail": exc.detail}
    except ValueError as exc:  # no events, repeated ids, or cyclic causality
        raise InputError(str(exc)) from None
    return EXIT_OK, {"embedded": True, **result.to_dict()}


def _embed_text(r: dict) -> list[str]:
    if not r["embedded"]:
        return [f"embedding impossible: {r['detail']}", f"  witness event: {r['witness']}"]
    return [
        f"surface {i} [{', '.join(layer)}]: "
        + " ".join(f"({x:g},{t:g})" for x, t in zip(surf["xs"], surf["ts"]))
        for i, (layer, surf) in enumerate(zip(r["layers"], r["foliation"]["surfaces"]))
    ]


def _embed_rows(r: dict) -> list[dict]:
    if not r["embedded"]:
        return [{"witness": r["witness"]}]
    return [
        {"surface": i, "x": x, "t": t}
        for i, surf in enumerate(r["foliation"]["surfaces"])
        for x, t in zip(surf["xs"], surf["ts"])
    ]


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
    p_check.set_defaults(handler=cmd_check, views=(_check_text, _check_rows))

    p_probs = sub.add_parser("probs", help="probability table and queries")
    _add_source_flags(p_probs)
    p_probs.add_argument("--family", required=True, metavar="NAME")
    p_probs.add_argument("--given", metavar="PRED", help="condition: time=label[,..]")
    p_probs.add_argument("--target", metavar="PRED", help="target: time=label[,..]")
    p_probs.add_argument(
        "--event", action="append", metavar="LABELS",
        help="slot labels (comma-joined) selecting an event; repeatable",
    )
    p_probs.set_defaults(handler=cmd_probs, views=(_probs_text, _probs_rows))
    for p in (p_check, p_probs):  # the commands that apply the consistency thresholds
        p.add_argument("--tol-rel", type=_tolerance, default=EPS_REL, metavar="EPS",
                       help="relative consistency threshold")
        p.add_argument("--tol-abs", type=_tolerance, default=EPS_ABS, metavar="EPS",
                       help="absolute consistency threshold")

    p_compat = sub.add_parser("compat", help="compatibility classification")
    _add_source_flags(p_compat)
    p_compat.add_argument("family_a", metavar="FAMILY_A")
    p_compat.add_argument("family_b", metavar="FAMILY_B")
    p_compat.set_defaults(handler=cmd_compat, views=(_compat_text, _compat_rows))

    p_scn = sub.add_parser("scenario", help="inspect or verify a built-in scenario")
    p_scn.add_argument("name", metavar="NAME")
    p_scn.add_argument("--suite", action="store_true",
                       help="run the scenario's expected-results registry")
    _add_source_flags(p_scn, scenario_only=True)
    p_scn.set_defaults(handler=cmd_scenario, views=(_scenario_text, _scenario_rows))

    p_embed = sub.add_parser("embed", help="embed tagged events into a foliation")
    p_embed.add_argument("events_file", metavar="EVENTS_JSON")
    _add_source_flags(p_embed, scenario_only=True)
    p_embed.set_defaults(handler=cmd_embed, views=(_embed_text, _embed_rows))

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    # the one map from a refused input to its exit code, printed as one line
    exit_codes = {
        InconsistentFamilyError: EXIT_NEGATIVE,  # probs of an inconsistent family
        FamilyMismatchError: EXIT_INPUT,
        FamilyTooLargeError: EXIT_INPUT,
        InputError: EXIT_INPUT,
        UnknownLabelError: EXIT_INPUT,
        ZeroConditionProbabilityError: EXIT_INPUT,
    }
    started = time.monotonic()
    try:
        code, results = args.handler(args)
    except tuple(exit_codes) as exc:
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return next(c for cls, c in exit_codes.items() if isinstance(exc, cls))
    try:
        _emit(args, results, time.monotonic() - started)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): what it did not read is not
        # wanted, and the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


_PARSER = build_parser()  # static and shared: ``parse_args`` does not mutate it

if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: reports over JSON artifacts plus fuzzing runs.

Every command assembles one JSON-able report and prints it with sorted
keys, so identical inputs (and seed) give byte-identical output.  Exit
codes: 0 all checks passed, 1 an invariant check failed, 2 unreadable
or invalid input, an `errors.InputError`; any other exception, such as
a failed consistency check's RuntimeError, is a bug.  The fuzz suites
live in `spheremotion.fuzzing`; `fuzz` runs one of them over its cases.

The argument parser is built once per process, on the first `main` call,
and reused.  A command dispatches by name to the module's `cmd_<command>`
function, looked up at every call, so rebinding a handler takes effect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import fuzzing, jsonio
from .comotion import comotion_collisions, lemma11_check, weight_report
from .diagram import check_diagram_over, find_reducible_pair, is_phi_reduced, phi_cells
from .errors import InputError
from .goldens import (
    banded_sphere_map,
    pinwheel_double_car_motion,
    pinwheel_map,
    pinwheel_retimed_motion,
    pinwheel_unit_motion,
    square_torus_map,
)
from .jsonio import frac_to_str, ratio_to_str
from .motion import (
    MotionError,
    check_separated_stops,
    complete_collisions,
    is_regular,
    lemma16_bound,
    standard_motion,
    standard_multiple_motion,
    verify_source_sink_collisions,
)
from .rewriting import (
    RelativePresentation,
    check_minimality,
    is_conjugate_to_t_pm_g,
    is_difficult_pattern,
    main_theorem_verdict,
    reconstruct_relator,
    rewrite_word,
)
from .surface import OrientedMap, classify_map

# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _load(path):
    """Read a JSON document plus its digest record."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise jsonio.JsonError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, too many digits, nesting
        raise jsonio.JsonError(f"{path}: {exc}") from exc
    return doc, {"path": str(path), "sha256": hashlib.sha256(raw).hexdigest()}


def _text_lines(doc, indent: int = 0) -> list[str]:
    """A dict's items by key, or a list's as "-", one a line: a nonempty
    dict or list opens an indented block, any other value is inline JSON."""
    pad = "  " * indent
    items = ([(f"{k}:", doc[k]) for k in sorted(doc)] if isinstance(doc, dict)
             else [("-", v) for v in doc])
    lines = []
    for head, v in items:
        if isinstance(v, (dict, list)) and v:
            lines.append(pad + head)
            lines += _text_lines(v, indent + 1)
        else:
            lines.append(f"{pad}{head} {json.dumps(v)}")
    return lines


def _print_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(jsonio.dumps(report))
    else:
        print("\n".join(_text_lines(report)))


def _census(m: OrientedMap) -> dict:
    return {
        "surface": m.surface,
        "faces": m.face_count(),
        "edges": m.edge_count(),
        "vertices": len(m.vertices()),
        "corners": m.corner_count(),
        "darts": 2 * m.edge_count(),
        "chi": m.euler_characteristic(),
    }


def _checked(command: str, inputs, results, checks, **extra) -> tuple[dict, int]:
    """The report of a command with checks, and its exit code."""
    ok = all(checks.values())
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": checks,
        "ok": ok,
        **extra,
    }
    return report, 0 if ok else 1


def _vertex_json(vertex) -> list:
    return [[f, j] for f, j in vertex]


def _locus_json(locus) -> dict:
    """The "spans" and "instants" of one collision locus, (S, spans,
    instants) in ints over the scale S, written from the ints."""
    S, spans, instants = locus
    return {
        "spans": [[ratio_to_str(a, S), ratio_to_str(b, S)] for a, b in spans],
        "instants": [ratio_to_str(t, S) for t in instants],
    }


def _collisions_json(rep) -> dict:
    vertices = [{"vertex": _vertex_json(v), **_locus_json(rep.vertex_ints[v])}
                for v in sorted(rep.vertex_ints)]
    edges = [{"edge": e, "lambda": frac_to_str(lam), **_locus_json(rep.edge_ints[e, lam])}
             for e, lam in sorted(rep.edge_ints)]
    return {
        "horizon": frac_to_str(rep.horizon),
        "spatial_count": rep.spatial_count,
        "vertices": vertices,
        "edges": edges,
    }


def _comotion_collisions_json(crep) -> dict:
    vertices = [{"vertex": _vertex_json(v), "time": ratio_to_str(*crep.vertex_ints[v])}
                for v in sorted(crep.vertex_ints)]
    edges = []
    for (e, where), t in crep.edge_ints.items():  # by edge, then by lambda
        entry = {"edge": e, "time": ratio_to_str(*t)}
        if type(where[0]) is tuple:
            entry["arc"] = [ratio_to_str(*where[0]), ratio_to_str(*where[1])]
        else:
            entry["lambda"] = ratio_to_str(*where)
        edges.append(entry)
    return {
        "spatial_count": crep.spatial_count,
        "vertices": vertices,
        "edges": edges,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> tuple[dict, int]:
    doc, digest = _load(args.map)
    m = jsonio.parse_map(doc)
    report = {
        "command": "validate",
        "inputs": [digest],
        "census": _census(m),
        "ok": True,
    }
    return report, 0


def _standard_schedule(m: OrientedMap, family: str, m_override):
    info = classify_map(m)
    if m_override is not None:
        info = dict(info, m=m_override)
    if family == "A":
        return standard_motion(m, info), info
    return standard_multiple_motion(m, info), info


def cmd_motion(args) -> tuple[dict, int]:
    doc, digest = _load(args.map)
    m = jsonio.parse_map(doc)
    inputs = [digest]
    standard = None
    if args.standard is not None and args.motion is not None:
        raise jsonio.JsonError("give a motion file or --standard, not both")
    if args.standard is not None:
        family = args.standard.rstrip("m").upper()
        if family not in ("A", "B"):
            raise jsonio.JsonError(f"unknown standard family {args.standard!r}")
        ms, info = _standard_schedule(m, family, args.m)
        standard = {"family": family, "m": info["m"]}
    elif args.motion is not None:
        if args.m is not None:
            raise jsonio.JsonError("--m needs --standard, not a motion file")
        mdoc, mdig = _load(args.motion)
        inputs.append(mdig)
        ms = jsonio.parse_motion(mdoc, m)
    else:
        raise jsonio.JsonError("need a motion file or --standard")

    rep = complete_collisions(m, ms)
    sep = check_separated_stops(m, ms)
    regular = is_regular(m, ms)
    results = {
        "period": frac_to_str(ms.period),
        "cars": len(ms.cars),
        "regular": regular,
        "stop_corners": sorted([f, j] for f, j in ms.stop_corners),
        "stop_problems": sep["problems"],
        "collisions": _collisions_json(rep),
    }
    checks = {"separated_stops": sep["ok"]}
    if standard is not None:
        results["standard"] = standard
        ver = verify_source_sink_collisions(m, ms, collisions=rep)
        results["source_sink_problems"] = ver["problems"]
        checks["sinks_even_sources_odd"] = ver["ok"]
    try:
        bound = lemma16_bound(m, ms, collisions=rep)
    except MotionError:
        pass  # not a multiple motion: no bound to check
    else:
        mult = bound["multiplicities"]
        results["multiplicities"] = {str(f): mult[f] for f in sorted(mult)}
        results["locus_bound"] = {k: bound[k] for k in ("chi", "bound", "loci")}
        checks["loci_meet_bound"] = bound["holds"]
    if m.surface == "sphere" and regular:
        checks["at_least_two_loci"] = rep.spatial_count >= 2
    return _checked("motion", inputs, results, checks)


def cmd_comotion(args) -> tuple[dict, int]:
    doc, digest = _load(args.map)
    m = jsonio.parse_map(doc)
    cdoc, cdig = _load(args.comotion)
    com = jsonio.parse_comotion(cdoc, m)  # validates
    weights = weight_report(m, com)
    crep = comotion_collisions(m, com)
    slack = lemma11_check(m, com, crep)
    results = {
        "period": frac_to_str(com.period),
        "degrees": [c.degree for c in com.cocars],
        "weights": {
            "faces": {str(f): weights["faces"][f] for f in sorted(weights["faces"])},
            "edges": {str(e): weights["edges"][e] for e in sorted(weights["edges"])},
            "vertices": [
                {"vertex": _vertex_json(v), "weight": weights["vertices"][v]}
                for v in sorted(weights["vertices"])
            ],
            "total": weights["total"],
            "chi": weights["chi"],
        },
        "collisions": _comotion_collisions_json(crep),
        "locus_slack": {k: slack[k] for k in ("loci", "slack", "chi")},
    }
    checks = {
        "weight_total_equals_chi": weights["total"] == weights["chi"],
        "loci_cover_chi": slack["holds"],
    }
    return _checked("comotion", [digest, cdig], results, checks)


def cmd_word(args) -> tuple[dict, int]:
    doc, digest = _load(args.word)
    w = jsonio.parse_word(doc)
    results = {
        "base": jsonio.base_to_json(w.base),
        "t_letters": w.t_letters(),
        "t_exponent_sum": w.exponent_sum(),
    }
    checks = {}
    if args.action == "classify":
        results["conjugate_to_t_pm_g"] = is_conjugate_to_t_pm_g(w)
    if args.action == "criterion":
        verdict = main_theorem_verdict(args.assume_simple, w)
        results["conjugate_to_t_pm_g"] = verdict["conjugate_to_t_pm_g"]
        results["verdict"] = {
            "simple": verdict["simple"],
            "g_is_simple": verdict["g_is_simple"],
            "failing": list(verdict["failing"]),
        }
    elif args.action == "rewrite" or w.exponent_sum() in (1, -1):
        res = rewrite_word(w)
        results.update(s=res.data.s, m=res.data.m, difficult=res.data.difficult)
        if args.action == "classify":
            signs = res.shifted.signs()
            results["signs"] = "".join("+" if e == 1 else "-" for e in signs)
            results["pattern_difficult"] = is_difficult_pattern(signs)
        else:
            target = (w.inverse() if res.inverted else w).cyclic_reduce()
            results["inverted"] = res.inverted
            results["n"] = res.n
            results["presentation"] = jsonio.presentation_to_json(res.data)
            results["moves"] = [list(step) for step in res.trace]
            results["minimality"] = check_minimality(res.data)
            relator = reconstruct_relator(res.data)
            checks["roundtrip_conjugate"] = relator.is_conjugate_to(target)
    return _checked("word", [digest], results, checks, action=args.action)


def cmd_diagram(args) -> tuple[dict, int]:
    doc, digest = _load(args.diagram)
    d = jsonio.parse_diagram(doc)
    inputs = [digest]
    pair = find_reducible_pair(d)
    cells = phi_cells(d)
    results = {
        "census": _census(d.map),
        "base": jsonio.base_to_json(d.base),
        "interior_faces": sorted(d.interior_faces()),
        "exterior_faces": sorted(d.exterior_faces),
        "exterior_vertices": [_vertex_json(v) for v in sorted(d.exterior_vertices)],
        "phi_cells": cells,
        "reducible_pair": list(pair) if pair is not None else None,
    }
    if d.phi_s is not None:
        results["phi_reduced"] = is_phi_reduced(d)
    checks = {}
    if args.presentation is not None:
        pdoc, pdig = _load(args.presentation)
        inputs.append(pdig)
        data, extras = jsonio.parse_presentation(pdoc)
        pres = RelativePresentation(
            data.base, data.s, (data.relator(),) + tuple(extras), has_phi=data.s >= 1
        )
        over = check_diagram_over(d, pres)
        results["face_violations"] = list(over["face_violations"])
        results["vertex_violations"] = [
            _vertex_json(v) for v in over["vertex_violations"]
        ]
        checks["over_presentation"] = over["ok"]
    return _checked("diagram", inputs, results, checks)


# ---------------------------------------------------------------------------
# golden examples
# ---------------------------------------------------------------------------

def _pinwheel_motion(fname: str, build):
    return lambda: [(fname, jsonio.motion_to_json(pinwheel_map(), build()))]


def _banded_docs() -> list[tuple[str, dict]]:
    bm = banded_sphere_map()
    ms = standard_multiple_motion(bm, dict(classify_map(bm), m=1))
    return [
        ("banded.map.json", jsonio.map_to_json(bm)),
        ("banded.motion.json", jsonio.motion_to_json(bm, ms)),
    ]


# example name -> builder of the (file name, document) pairs it writes
GOLDENS = {
    "pinwheel": lambda: [("pinwheel.map.json", jsonio.map_to_json(pinwheel_map()))],
    "torus": lambda: [("torus.map.json", jsonio.map_to_json(square_torus_map()))],
    "unit-motion": _pinwheel_motion("unit-motion.motion.json", pinwheel_unit_motion),
    "retimed": _pinwheel_motion("retimed.motion.json", pinwheel_retimed_motion),
    "double-car": _pinwheel_motion("double-car.motion.json", pinwheel_double_car_motion),
    "banded": _banded_docs,
}
GOLDEN_NAMES = tuple(GOLDENS)


def cmd_examples(args) -> tuple[dict, int]:
    if args.action == "list":
        return {"command": "examples", "available": list(GOLDEN_NAMES), "ok": True}, 0
    names = list(GOLDEN_NAMES) if args.name == "all" else [args.name]
    outdir = Path(args.dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise jsonio.JsonError(f"cannot create {outdir}: {exc}") from exc
    written = []
    for name in names:
        for fname, doc in GOLDENS[name]():
            text = jsonio.dumps(doc)
            path = outdir / fname
            try:
                path.write_text(text)
            except OSError as exc:
                raise jsonio.JsonError(f"cannot write {path}: {exc}") from exc
            written.append(
                {
                    "path": str(path),
                    "sha256": hashlib.sha256(text.encode()).hexdigest(),
                }
            )
    return {"command": "examples", "written": written, "ok": True}, 0


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------


def cmd_fuzz(args) -> tuple[dict, int]:
    if args.cases < 1:
        raise jsonio.JsonError("need at least one fuzz case")
    rng = fuzzing.make_rng(args.seed)
    case = fuzzing.SUITES[args.suite]
    violations = [
        {"case": i, "problem": problem}
        for i in range(args.cases)
        for problem in case(rng)
    ]
    ok = not violations
    report = {
        "command": "fuzz",
        "suite": args.suite,
        "seed": args.seed,
        "cases": args.cases,
        "violations": violations,
        "ok": ok,
    }
    return report, 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheremotion",
        description="Surface map schedules, their collision reports and audits.",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="report style"
    )
    # accepted before or after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "text"),
        default=argparse.SUPPRESS,
        help="report style",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "validate", parents=[common], help="check a map file and print its census"
    )
    p.add_argument("map")

    p = sub.add_parser(
        "motion", parents=[common], help="collision report for a motion on a map"
    )
    p.add_argument("map")
    p.add_argument("motion", nargs="?")
    p.add_argument(
        "--standard",
        metavar="FAMILY",
        help="build the standard A or B schedule instead of reading a file",
    )
    p.add_argument("--m", type=int, help="override the inferred m of --standard")

    p = sub.add_parser(
        "comotion",
        parents=[common],
        help="weights and collision report for a comotion",
    )
    p.add_argument("map")
    p.add_argument("comotion")

    p = sub.add_parser(
        "word", parents=[common], help="classify or rewrite a coefficient word"
    )
    p.add_argument("word")
    p.add_argument("action", choices=("classify", "rewrite", "criterion"))
    p.add_argument(
        "--assume-simple",
        action="store_true",
        help="treat the base group as simple in the criterion verdict",
    )

    p = sub.add_parser(
        "diagram", parents=[common], help="census and label checks for a diagram"
    )
    p.add_argument("diagram")
    p.add_argument("--presentation", help="check the diagram over this presentation")

    p = sub.add_parser(
        "fuzz", parents=[common], help="run a randomized invariant suite"
    )
    p.add_argument("--suite", choices=sorted(fuzzing.SUITES), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)

    p = sub.add_parser(
        "examples",
        parents=[common],
        help="list or write the shipped golden files",
    )
    esub = p.add_subparsers(dest="action", required=True)
    esub.add_parser("list", parents=[common], help="names of the available goldens")
    e = esub.add_parser(
        "emit", parents=[common], help="write golden files into a directory"
    )
    e.add_argument("name", choices=GOLDEN_NAMES + ("all",))
    e.add_argument("--dir", default=".", help="output directory")

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    args = parser.parse_args(argv)
    env_seed = os.environ.get("SPHEREMOTION_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            parser.error(f"SPHEREMOTION_SEED must be an integer, got {env_seed!r}")
    try:
        report, code = globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        _print_report(
            {"command": args.command, "error": str(exc), "ok": False}, args.format
        )
        return 2
    _print_report(report, args.format)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line front end: reports over JSON artifacts plus fuzzing runs.

Every command assembles one JSON-able report and prints it with sorted
keys, so identical inputs (and seed) give byte-identical output.  Exit
codes: 0 all checks passed, 1 an invariant check failed, 2 unreadable
or invalid input.
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
from .comotion import (
    comotion_collisions,
    induce_comotion,
    lemma11_check,
    weight_report,
)
from .diagram import (
    HowieDiagram,
    audit_standard_collisions,
    check_diagram_over,
    face_cells,
    find_reducible_pair,
    is_phi_cell,
    is_phi_reduced,
    phi_reduce_move,
)
from .goldens import (
    banded_sphere_map,
    pinwheel_double_car_motion,
    pinwheel_map,
    pinwheel_retimed_motion,
    pinwheel_unit_motion,
    square_torus_map,
)
from .groups import FreeProductWord
from .jsonio import frac_to_str
from .motion import (
    MotionError,
    check_separated_stops,
    complete_collisions,
    intervals_instants,
    is_regular,
    lemma16_bound,
    multiplicities,
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
    minimize_presentation,
    phi,
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
    except json.JSONDecodeError as exc:
        raise jsonio.JsonError(f"{path}: {exc}") from exc
    return doc, {"path": str(path), "sha256": hashlib.sha256(raw).hexdigest()}


def _text_lines(doc, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(doc, dict):
        lines = []
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines += _text_lines(v, indent + 1)
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
        return lines
    if isinstance(doc, list):
        lines = []
        for v in doc:
            if isinstance(v, (dict, list)) and v:
                lines.append(pad + "-")
                lines += _text_lines(v, indent + 1)
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
        return lines
    return [pad + json.dumps(doc)]


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


def _vertex_json(vertex) -> list:
    return [[f, j] for f, j in vertex]


def _spans_json(spans) -> list:
    return [[frac_to_str(a), frac_to_str(b)] for a, b in spans]


def _collisions_json(rep) -> dict:
    vertices = []
    for vertex in sorted(rep.vertex_loci):
        spans = rep.vertex_loci[vertex]
        vertices.append(
            {
                "vertex": _vertex_json(vertex),
                "spans": _spans_json(spans),
                "instants": [
                    frac_to_str(t) for t in intervals_instants(spans, rep.horizon)
                ],
            }
        )
    edges = []
    for key in sorted(rep.edge_loci):
        spans = rep.edge_loci[key]
        edges.append(
            {
                "edge": key[0],
                "lambda": frac_to_str(key[1]),
                "spans": _spans_json(spans),
                "instants": [
                    frac_to_str(t) for t in intervals_instants(spans, rep.horizon)
                ],
            }
        )
    return {
        "horizon": frac_to_str(rep.horizon),
        "spatial_count": rep.spatial_count,
        "vertices": vertices,
        "edges": edges,
    }


def _comotion_collisions_json(crep) -> dict:
    vertices = [
        {"vertex": _vertex_json(v), "time": frac_to_str(crep.vertex_loci[v])}
        for v in sorted(crep.vertex_loci)
    ]

    def flatten(key):
        e, where = key
        return (e, where, where) if not isinstance(where, tuple) else (e, *where)

    edges = []
    for key in sorted(crep.edge_loci, key=flatten):
        e, where = key
        entry = {"edge": e, "time": frac_to_str(crep.edge_loci[key])}
        if isinstance(where, tuple):
            entry["arc"] = [frac_to_str(where[0]), frac_to_str(where[1])]
        else:
            entry["lambda"] = frac_to_str(where)
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
        mult = multiplicities(m, ms)
    except MotionError:
        mult = None
    if mult is not None:
        bound = lemma16_bound(m, ms, collisions=rep)
        results["multiplicities"] = {str(f): mult[f] for f in sorted(mult)}
        results["locus_bound"] = {k: bound[k] for k in ("chi", "bound", "loci")}
        checks["loci_meet_bound"] = bound["holds"]
    if m.surface == "sphere" and regular:
        checks["at_least_two_loci"] = rep.spatial_count >= 2
    ok = all(checks.values())
    report = {
        "command": "motion",
        "inputs": inputs,
        "results": results,
        "checks": checks,
        "ok": ok,
    }
    return report, 0 if ok else 1


def cmd_comotion(args) -> tuple[dict, int]:
    doc, digest = _load(args.map)
    m = jsonio.parse_map(doc)
    cdoc, cdig = _load(args.comotion)
    com = jsonio.parse_comotion(cdoc, m)
    weights = weight_report(m, com)
    slack = lemma11_check(m, com)
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
        "collisions": _comotion_collisions_json(comotion_collisions(m, com)),
        "locus_slack": {k: slack[k] for k in ("loci", "slack", "chi")},
    }
    checks = {
        "weight_total_equals_chi": weights["total"] == weights["chi"],
        "loci_cover_chi": slack["holds"],
    }
    ok = all(checks.values())
    report = {
        "command": "comotion",
        "inputs": [digest, cdig],
        "results": results,
        "checks": checks,
        "ok": ok,
    }
    return report, 0 if ok else 1


def cmd_word(args) -> tuple[dict, int]:
    doc, digest = _load(args.word)
    w = jsonio.parse_word(doc)
    results = {
        "base": jsonio.base_to_json(w.base),
        "t_letters": len(w.t_sign_sequence()),
        "t_exponent_sum": w.exponent_sum(),
    }
    checks = {}
    if args.action == "classify":
        results["conjugate_to_t_pm_g"] = is_conjugate_to_t_pm_g(w)
        if w.exponent_sum() in (1, -1):
            res = rewrite_word(w)
            signs = res.shifted.signs()
            results["signs"] = "".join("+" if e == 1 else "-" for e in signs)
            results["s"] = res.data.s
            results["m"] = res.data.m
            results["difficult"] = res.data.s == 0 and res.data.m >= 0
            results["pattern_difficult"] = is_difficult_pattern(signs)
    elif args.action == "rewrite":
        res = rewrite_word(w)
        target = (w.inverse() if res.inverted else w).cyclic_reduce()
        results["inverted"] = res.inverted
        results["n"] = res.n
        results["s"] = res.data.s
        results["m"] = res.data.m
        results["difficult"] = res.data.s == 0 and res.data.m >= 0
        results["presentation"] = jsonio.presentation_to_json(res.data)
        results["moves"] = [list(step) for step in res.trace]
        results["minimality"] = check_minimality(res.data)
        checks["roundtrip_conjugate"] = reconstruct_relator(res.data).is_conjugate_to(
            target
        )
    else:
        verdict = main_theorem_verdict(args.assume_simple, w)
        results["conjugate_to_t_pm_g"] = verdict["conjugate_to_t_pm_g"]
        results["verdict"] = {
            "simple": verdict["simple"],
            "g_is_simple": verdict["g_is_simple"],
            "failing": list(verdict["failing"]),
        }
    ok = all(checks.values())
    report = {
        "command": "word",
        "action": args.action,
        "inputs": [digest],
        "results": results,
        "checks": checks,
        "ok": ok,
    }
    return report, 0 if ok else 1


def cmd_diagram(args) -> tuple[dict, int]:
    doc, digest = _load(args.diagram)
    d = jsonio.parse_diagram(doc)
    inputs = [digest]
    pair = find_reducible_pair(d)
    results = {
        "census": _census(d.map),
        "base": jsonio.base_to_json(d.base),
        "interior_faces": sorted(d.interior_faces()),
        "exterior_faces": sorted(d.exterior_faces),
        "exterior_vertices": [_vertex_json(v) for v in sorted(d.exterior_vertices)],
        "phi_cells": [
            f for f in range(d.map.face_count()) if is_phi_cell(d, f)
        ],
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
    ok = all(checks.values())
    report = {
        "command": "diagram",
        "inputs": inputs,
        "results": results,
        "checks": checks,
        "ok": ok,
    }
    return report, 0 if ok else 1


# ---------------------------------------------------------------------------
# golden examples
# ---------------------------------------------------------------------------

GOLDEN_NAMES = (
    "pinwheel",
    "torus",
    "unit-motion",
    "retimed",
    "double-car",
    "banded",
)


def _golden_docs(name: str) -> list[tuple[str, dict]]:
    pm = pinwheel_map()
    if name == "pinwheel":
        return [("pinwheel.map.json", jsonio.map_to_json(pm))]
    if name == "torus":
        return [("torus.map.json", jsonio.map_to_json(square_torus_map()))]
    if name == "unit-motion":
        return [
            ("unit-motion.motion.json", jsonio.motion_to_json(pm, pinwheel_unit_motion()))
        ]
    if name == "retimed":
        return [
            ("retimed.motion.json", jsonio.motion_to_json(pm, pinwheel_retimed_motion()))
        ]
    if name == "double-car":
        return [
            (
                "double-car.motion.json",
                jsonio.motion_to_json(pm, pinwheel_double_car_motion()),
            )
        ]
    if name == "banded":
        bm = banded_sphere_map()
        ms = standard_multiple_motion(bm, dict(classify_map(bm), m=1))
        return [
            ("banded.map.json", jsonio.map_to_json(bm)),
            ("banded.motion.json", jsonio.motion_to_json(bm, ms)),
        ]
    raise jsonio.JsonError(f"unknown example {name!r}")


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
        for fname, doc in _golden_docs(name):
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
# fuzz suites
# ---------------------------------------------------------------------------


def _fuzz_weights(rng, cases: int) -> list[dict]:
    violations = []
    for i in range(cases):
        for builder, chi in ((fuzzing.random_sphere_map, 2), (fuzzing.random_torus_map, 0)):
            m = builder(rng)
            com = fuzzing.random_comotion(m, rng)
            total = weight_report(m, com)["total"]
            if total != chi:
                violations.append(
                    {"case": i, "problem": f"{m.surface} weight total {total} != {chi}"}
                )
    return violations


def _induced_comotion_problems(m: OrientedMap, ms, rep) -> list[str]:
    T = ms.period
    problems = []
    mult = multiplicities(m, ms)
    com = induce_comotion(m, ms)
    if [c.degree for c in com.cocars] != [mult[f] for f in range(m.face_count())]:
        problems.append("cocar degrees disagree with face multiplicities")
    crep = comotion_collisions(m, com)
    if set(rep.vertex_loci) != set(crep.vertex_loci):
        problems.append("vertex loci differ")
    else:
        for v, spans in rep.vertex_loci.items():
            if {a % T for a, _ in spans} != {crep.vertex_loci[v] % T}:
                problems.append(f"instants differ at vertex {v}")
    if set(rep.edge_loci) != set(crep.edge_loci):
        problems.append("edge loci differ")
    else:
        for key, spans in rep.edge_loci.items():
            if {a % T for a, _ in spans} != {crep.edge_loci[key] % T}:
                problems.append(f"instants differ inside edge {key[0]}")
    return problems


def _fuzz_collisions(rng, cases: int) -> list[dict]:
    violations = []
    for i in range(cases):
        m = fuzzing.random_sphere_map(rng)
        ms = fuzzing.random_multiple_motion(m, rng)
        rep = complete_collisions(m, ms)
        if rep.spatial_count < 2:
            violations.append(
                {"case": i, "problem": f"only {rep.spatial_count} collision loci"}
            )
        for problem in _induced_comotion_problems(m, ms, rep):
            violations.append({"case": i, "problem": problem})
    return violations


def _fuzz_rewriting(rng, cases: int) -> list[dict]:
    violations = []
    for i in range(cases):
        w = fuzzing.random_unit_sum_word(rng)
        res = rewrite_word(w)
        target = (w.inverse() if res.inverted else w).cyclic_reduce()
        if not reconstruct_relator(res.data).is_conjugate_to(target):
            violations.append(
                {"case": i, "problem": "relator is not conjugate to the input"}
            )
        again, trace = minimize_presentation(res.data)
        if trace != () or again != res.data:
            violations.append({"case": i, "problem": "minimization is not a fixpoint"})
        minimal = check_minimality(res.data)
        if not (
            minimal["a_outside_P"]
            and minimal["b_outside_P_phi"]
            and minimal["top_copy_used"]
        ):
            violations.append(
                {"case": i, "problem": "fixpoint violates the minimality conditions"}
            )
    return violations


def _lune_map(n: int) -> OrientedMap:
    return OrientedMap(
        "sphere", tuple(((i, -1), ((i + 1) % n, 1)) for i in range(n))
    )


def _random_phi_chain(rng):
    """A necklace of phi cells with random nonidentity P-words."""
    n = rng.randint(2, 5)
    base = fuzzing.random_base(rng)
    labels = {}
    acc = FreeProductWord.one(base)
    for i in range(n):
        while True:
            p = FreeProductWord.g(
                base, fuzzing.random_base_element(base, rng, allow_identity=False)
            )
            if not p.is_identity() and p != acc.inverse():
                break
        acc = acc * p
        labels[(i, 1)] = p
        labels[(i, 0)] = phi(p).inverse()
    m = _lune_map(n)
    d = HowieDiagram(
        m,
        labels,
        {e: 1 for e in m.edge_ids},
        exterior_vertices=frozenset(m.vertices()),
        phi_s=1,
    )
    return d, acc


def _check_phi_chain(rng, i: int, violations: list) -> None:
    d, product = _random_phi_chain(rng)
    n = d.map.face_count()
    pres = RelativePresentation(d.base, 1, (FreeProductWord.t(d.base),), has_phi=True)
    for e in range(1, n):
        faces_before = d.map.face_count()
        d = phi_reduce_move(d, e)
        if d.map.euler_characteristic() != 2:
            violations.append({"case": i, "problem": "merge changed chi"})
        if d.map.face_count() != faces_before - 1:
            violations.append({"case": i, "problem": "merge did not drop one face"})
        if not check_diagram_over(d, pres)["ok"]:
            violations.append({"case": i, "problem": "merge left the presentation"})
    cells = face_cells(d, 0)
    if cells[0][1] == 1:
        cells = (cells[1], cells[0])
    (_, _, p), (_, _, q) = cells
    if p != product or q != phi(product).inverse():
        violations.append(
            {"case": i, "problem": "merged cell is not the chain product"}
        )
    if not is_phi_reduced(d):
        violations.append({"case": i, "problem": "single cell is not phi-reduced"})


def _check_mirror_audit(rng, i: int, violations: list) -> None:
    mval = rng.choice((0, 1, 2))
    m = fuzzing.doubled_polygon(fuzzing.b_profile(mval))
    base = fuzzing.random_base(rng)
    labels = {
        (0, j): FreeProductWord.g(base, fuzzing.random_base_element(base, rng))
        for j in range(len(m.faces[0]))
    }
    for v in m.vertices():
        (_, jf), (fb, jb) = sorted(v)
        labels[(fb, jb)] = labels[(0, jf)].inverse()
    edge_labels = {e: 1 for e in m.edge_ids}
    ms = standard_motion(m)
    audit = audit_standard_collisions(HowieDiagram(m, labels, edge_labels), ms)
    if (
        audit["passes"]
        or not audit["vertices"]
        or any(r["refuted"] for r in audit["vertices"])
    ):
        violations.append(
            {"case": i, "problem": "mirror labels must satisfy every collision"}
        )
        return
    bump = FreeProductWord.g(base, base.generators()[0])
    bumped = dict(labels)
    for record in audit["vertices"]:
        back = max(record["vertex"])
        bumped[back] = bumped[back] * bump
    audit2 = audit_standard_collisions(HowieDiagram(m, bumped, edge_labels), ms)
    if not audit2["passes"] or not all(r["refuted"] for r in audit2["vertices"]):
        violations.append(
            {"case": i, "problem": "perturbed labels must refute every collision"}
        )


def _fuzz_diagrams(rng, cases: int) -> list[dict]:
    violations: list[dict] = []
    for i in range(cases):
        _check_phi_chain(rng, i, violations)
        _check_mirror_audit(rng, i, violations)
    return violations


SUITES = {
    "weights": _fuzz_weights,
    "collisions": _fuzz_collisions,
    "rewriting": _fuzz_rewriting,
    "diagrams": _fuzz_diagrams,
}


def cmd_fuzz(args) -> tuple[dict, int]:
    if args.cases < 1:
        raise jsonio.JsonError("need at least one fuzz case")
    rng = fuzzing.make_rng(args.seed)
    violations = SUITES[args.suite](rng, args.cases)
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
    p.set_defaults(func=cmd_validate)

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
    p.add_argument("--m", type=int, help="override the inferred m parameter")
    p.set_defaults(func=cmd_motion)

    p = sub.add_parser(
        "comotion",
        parents=[common],
        help="weights and collision report for a comotion",
    )
    p.add_argument("map")
    p.add_argument("comotion")
    p.set_defaults(func=cmd_comotion)

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
    p.set_defaults(func=cmd_word)

    p = sub.add_parser(
        "diagram", parents=[common], help="census and label checks for a diagram"
    )
    p.add_argument("diagram")
    p.add_argument("--presentation", help="check the diagram over this presentation")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser(
        "fuzz", parents=[common], help="run a randomized invariant suite"
    )
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "examples",
        parents=[common],
        help="list or write the shipped golden files",
    )
    esub = p.add_subparsers(dest="action", required=True)
    e = esub.add_parser(
        "list", parents=[common], help="names of the available goldens"
    )
    e.set_defaults(func=cmd_examples)
    e = esub.add_parser(
        "emit", parents=[common], help="write golden files into a directory"
    )
    e.add_argument("name", choices=GOLDEN_NAMES + ("all",))
    e.add_argument("--dir", default=".", help="output directory")
    e.set_defaults(func=cmd_examples)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get("SPHEREMOTION_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            parser.error(f"SPHEREMOTION_SEED must be an integer, got {env_seed!r}")
    try:
        report, code = args.func(args)
    except ValueError as exc:
        _print_report(
            {"command": args.command, "error": str(exc), "ok": False}, args.format
        )
        return 2
    _print_report(report, args.format)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""One benchmark job: a call through the program's front door, plus its checks.

A job is a plain descriptor (JSON-able dict) so that the set-up probe can
run the same jobs in a fresh interpreter:

    {"key": "<class>/<pool index>", "cls": "<class>",
     "argv": [...]                     # a `spheremotion` command, or
     "lib": "<name>", "paths": {...}, "params": {...},   # a library call
     "checks": [...], "info": {...}, "needs": "<producer key>" | None}

CLI jobs call `spheremotion.cli.main(argv)` in-process with stdout
captured.  Library jobs parse their artifacts (untimed), then time one
public library function.  Checks and digests never run inside the timed
region.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import time
from fractions import Fraction
from pathlib import Path

# library entry points are looked up on their modules at call time, so the
# traced run's wrappers see them
from spheremotion import cli, comotion, diagram, jsonio, motion
from spheremotion.diagram import HowieDiagram
from spheremotion.groups import FreeGroup, FreeProductWord
from spheremotion.motion import CollisionReport
from spheremotion.surface import OrientedMap, classify_map

# report fields that carry the answer; "inputs" (temporary paths) and any
# later bookkeeping block such as "work" stay out of the digest
DIGEST_KEYS = ("results", "checks", "violations", "ok")


class JobFailure(Exception):
    """A job raised, exited 2, failed a check or changed its output."""


@dataclasses.dataclass
class Outcome:
    seconds: float  # wall
    cpu: float  # CPU seconds of this process
    code: int
    text: str = ""  # CLI stdout
    result: object = None  # library return value


def load(path: str):
    return json.loads(Path(path).read_text())


def surface_chi(surface: str) -> int:
    if surface == "sphere":
        return 2
    if surface == "torus":
        return 0
    return 2 - 2 * int(surface[len("genus-"):])


def euler(faces) -> int:
    """F - E + V from face boundaries alone, independent of `surface`."""
    owner = {d: (f, j) for f, b in enumerate(faces) for j, d in enumerate(b)}
    seen = set()
    vertices = 0
    for corner in owner.values():
        if corner in seen:
            continue
        vertices += 1
        while corner not in seen:
            seen.add(corner)
            f, j = corner
            edge, sign = faces[f][j - 1]  # the dart ending at this corner
            corner = owner[(edge, -sign)]
    return len(faces) - len(owner) // 2 + vertices


def canon(x):
    """Plain JSON form of a library result, with jsonio forms where they exist."""
    if isinstance(x, OrientedMap):
        return jsonio.map_to_json(x)
    if isinstance(x, FreeProductWord):
        return jsonio.word_to_json(x)
    if isinstance(x, HowieDiagram):
        return jsonio.diagram_to_json(x)
    if isinstance(x, Fraction):
        return jsonio.frac_to_str(x)
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if dataclasses.is_dataclass(x):
        return {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=json.dumps)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def collisions_from_report(doc) -> CollisionReport:
    """The collision report of a `motion` command, back as the library object."""
    c = doc["results"]["collisions"]

    def spans(items):
        return tuple((Fraction(a), Fraction(b)) for a, b in items)

    vertex_loci = {
        tuple(tuple(corner) for corner in v["vertex"]): spans(v["spans"])
        for v in c["vertices"]
    }
    edge_loci = {
        (e["edge"], Fraction(e["lambda"])): spans(e["spans"]) for e in c["edges"]
    }
    return CollisionReport(Fraction(c["horizon"]), vertex_loci, edge_loci)


# ---------------------------------------------------------------------------
# library jobs: prepare (untimed) -> call (timed) -> canonical output
# ---------------------------------------------------------------------------


def _map_and_motion(job):
    m = jsonio.parse_map(load(job["paths"]["map"]))
    return m, jsonio.parse_motion(load(job["paths"]["motion"]), m)


def _map_and_comotion(job):
    m = jsonio.parse_map(load(job["paths"]["map"]))
    return m, jsonio.parse_comotion(load(job["paths"]["comotion"]), m)


def _audit_inputs(job, reports, exterior: bool):
    m, ms = _map_and_motion(job)
    info = dict(classify_map(m), m=job["params"]["m"])
    rep = collisions_from_report(reports[job["needs"]])
    one = FreeProductWord.one(FreeGroup(2))
    extra = {}
    if exterior:
        extra = dict(
            exterior_vertices=frozenset({sorted(rep.vertex_loci)[0]}),
            large_faces=frozenset({0, 1}),
        )
    d = HowieDiagram(
        m, {c: one for c in m.corners()}, {e: 1 for e in m.edge_ids}, **extra
    )
    return d, ms, info, rep


def _affine(coeffs):
    a, b, c = (Fraction(x) for x in coeffs)
    return lambda x, y: a * x + b * y + c


def _subdivide_chain(m, com, picks):
    totals = []
    for pick in picks:
        ids = sorted(m.edge_ids)
        nxt = ids[-1] + 1
        m, com = comotion.subdivide_comotion(m, com, ids[pick % len(ids)], (nxt, nxt + 1))
        totals.append(comotion.weight_report(m, com)["total"])
    return {"totals": totals, "map": m}


def _phi_reduce_chain(d):
    for e in range(1, d.map.face_count()):
        d = diagram.phi_reduce_move(d, e)
    return d


def _prep_blow_up(job, reports):
    return _map_and_motion(job), {}


def _prep_lemma17(job, reports):
    d, ms, _, rep = _audit_inputs(job, reports, exterior=True)
    return (d, ms), {"collisions": rep}


def _prep_audit(job, reports):
    d, ms, info, rep = _audit_inputs(job, reports, exterior=False)
    return (d, ms), {"info": info, "collisions": rep}


def _prep_lemma14(job, reports):
    m, com = _map_and_comotion(job)
    return (m, com, _affine(job["params"]["g"]), _affine(job["params"]["h"])), {}


def _prep_subdivide(job, reports):
    m, com = _map_and_comotion(job)
    return (m, com, tuple(job["params"]["picks"])), {}


def _prep_phi_chain(job, reports):
    return (jsonio.parse_diagram(load(job["paths"]["diagram"])),), {}


# name -> (prepare(job, reports) -> (args, kwargs), the timed call)
LIBRARY = {
    "blow_up": (_prep_blow_up, lambda *a, **k: motion.blow_up(*a, **k)),
    "lemma17_audit": (_prep_lemma17, lambda *a, **k: diagram.lemma17_audit(*a, **k)),
    "audit_standard_collisions": (
        _prep_audit,
        lambda *a, **k: diagram.audit_standard_collisions(*a, **k),
    ),
    "lemma14_total": (_prep_lemma14, lambda *a, **k: comotion.lemma14_total(*a, **k)),
    "subdivide_chain": (_prep_subdivide, _subdivide_chain),
    "phi_reduce_chain": (_prep_phi_chain, _phi_reduce_chain),
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def execute(job, reports, on_start=None, on_end=None) -> Outcome:
    """Run one job; the timed region is the program call alone."""
    if job.get("argv") is not None:
        buf = io.StringIO()
        if on_start:
            on_start()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(job["argv"])
        except SystemExit as exc:  # argparse refusals
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            cpu = time.process_time() - cpu_start
            seconds = time.perf_counter() - start
            if on_end:
                on_end()
        return Outcome(seconds, cpu, code, text=buf.getvalue())
    prepare, call = LIBRARY[job["lib"]]
    args, kwargs = prepare(job, reports)
    if on_start:
        on_start()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        result = call(*args, **kwargs)
    finally:
        cpu = time.process_time() - cpu_start
        seconds = time.perf_counter() - start
        if on_end:
            on_end()
    return Outcome(seconds, cpu, 0, result=result)


def output_doc(job, out: Outcome):
    """The JSON the digest covers: report answer fields, or canonical result."""
    if job.get("argv") is not None:
        report = json.loads(out.text)
        return report, {k: report[k] for k in DIGEST_KEYS if k in report}
    return None, canon(out.result)


# ---------------------------------------------------------------------------
# independent checks, each returning a problem or None
# ---------------------------------------------------------------------------


def _count(report) -> int:
    return report["results"]["collisions"]["spatial_count"]


def _check_weight_total(job, out, report):
    total = report["results"]["weights"]["total"]
    want = surface_chi(job["info"]["surface"])
    return None if total == want else f"weight total {total} != {want}"


def _check_loci(job, out, report):
    want = job["info"]["loci"]
    return None if _count(report) == want else f"{_count(report)} loci, want {want}"


def _check_lemma16(job, out, report):
    mult = report["results"].get("multiplicities")
    if mult is None:
        return None
    m = jsonio.parse_map(load(job["paths"]["map"]))
    bound = euler(m.faces) + sum(d - 1 for d in mult.values())
    return None if _count(report) >= bound else f"{_count(report)} loci < bound {bound}"


def _check_bridge(job, out, report):
    m, ms = _map_and_motion(job)
    want = comotion.comotion_collisions(m, comotion.induce_comotion(m, ms)).spatial_count
    return None if _count(report) == want else f"{_count(report)} loci, comotion {want}"


def _check_roundtrip(job, out, report):
    ok = report["checks"].get("roundtrip_conjugate") is True
    return None if ok else "rewrite round trip is not conjugate"


def _check_lemma14(job, out, report):
    want = euler(jsonio.parse_map(load(job["paths"]["map"])).faces)
    return None if out.result == want else f"lemma 14 total {out.result} != F-E+V {want}"


def _check_chain_totals(job, out, report):
    want = surface_chi(job["info"]["surface"])
    bad = [t for t in out.result["totals"] if t != want]
    return None if not bad else f"weight totals {bad} != {want}"


def _check_blow_up(job, out, report):
    new_map = out.result[0]
    return None if euler(new_map.faces) == 2 else "blow-up left the sphere"


def _check_phi_reduced(job, out, report):
    d = out.result
    ok = d.map.face_count() == 1 and diagram.is_phi_reduced(d)
    return None if ok else "chain did not merge into one phi-reduced cell"


CHECKS = {
    "weight_total": _check_weight_total,
    "loci": _check_loci,
    "lemma16": _check_lemma16,
    "bridge": _check_bridge,
    "roundtrip": _check_roundtrip,
    "lemma14": _check_lemma14,
    "chain_totals": _check_chain_totals,
    "blow_up": _check_blow_up,
    "phi_reduced": _check_phi_reduced,
}


def check(job, out: Outcome, report) -> None:
    """Raise JobFailure unless the job ran cleanly and its checks hold."""
    if out.code == 2:
        raise JobFailure(f"exit 2: {out.text.strip()[:300]}")
    for name in job.get("checks", ()):
        problem = CHECKS[name](job, out, report)
        if problem:
            raise JobFailure(f"check {name}: {problem}")


def replay_hint(job) -> str:
    if job.get("argv") is not None:
        return "PYTHONPATH=src python3 -m spheremotion.cli " + " ".join(job["argv"])
    return f"library {job['lib']} on {json.dumps(job['paths'])} {json.dumps(job.get('params', {}))}"

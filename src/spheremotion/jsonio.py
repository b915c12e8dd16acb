"""JSON documents for maps, words, schedules, comotions and diagrams.

Rationals travel as "p/q" strings, never floats.  Writers sort keys and
emit positions geometrically (a corner index, or a dart index with a
fraction along it), so equal objects produce byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .comotion import Cocar, Comotion, validate_comotion
from .groups import BaseGroup, FreeAbelianGroup, FreeGroup, FreeProductWord
from .motion import CarSchedule, MotionSchedule, validate_motion
from .rewriting import RelativePresentationData
from .surface import OrientedMap


class JsonError(ValueError):
    pass


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def frac_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_frac(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise JsonError(f"rational must be a 'p/q' string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise JsonError(f"bad rational {s!r}: {exc}") from None


def _field(doc: dict, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise JsonError(f"missing field {key!r}")
    return doc[key]


# ---------------------------------------------------------------------------
# words and presentations
# ---------------------------------------------------------------------------


def base_to_json(base: BaseGroup) -> dict:
    return {"kind": base.kind, "rank": base.rank}


def parse_base(doc) -> BaseGroup:
    kind = _field(doc, "kind")
    rank = _field(doc, "rank")
    if not isinstance(rank, int):
        raise JsonError(f"rank must be an int, got {rank!r}")
    if kind == "free":
        return FreeGroup(rank)
    if kind == "abelian":
        return FreeAbelianGroup(rank)
    raise JsonError(f"unknown base kind {kind!r}")


def word_to_json(w: FreeProductWord) -> dict:
    syllables = []
    for tag, idx, val in w.syllables:
        if tag == "g":
            syllables.append({"copy": idx, "elem": w.base.format(val)})
        else:
            syllables.append({"t": idx, "exp": val})
    return {"base": base_to_json(w.base), "syllables": syllables}


def parse_word(doc, base: BaseGroup = None) -> FreeProductWord:
    found = parse_base(_field(doc, "base"))
    if base is not None and found != base:
        raise JsonError(f"word base {found!r} does not match {base!r}")
    syllables = []
    for syl in _field(doc, "syllables"):
        if "t" in syl:
            syllables.append(("t", _field(syl, "t"), _field(syl, "exp")))
        else:
            elem = found.parse(_field(syl, "elem"))
            syllables.append(("g", _field(syl, "copy"), elem))
    return FreeProductWord.from_syllables(found, syllables)


def presentation_to_json(data: RelativePresentationData, extra_relators=()) -> dict:
    return {
        "s": data.s,
        "m": data.m,
        "c": word_to_json(data.c),
        "b": [word_to_json(w) for w in data.b],
        "a": [word_to_json(w) for w in data.a],
        "extra_relators": [word_to_json(w) for w in extra_relators],
    }


def parse_presentation(doc):
    """Returns (RelativePresentationData, extra relator words)."""
    c = parse_word(_field(doc, "c"))
    base = c.base
    b = tuple(parse_word(w, base) for w in _field(doc, "b"))
    a = tuple(parse_word(w, base) for w in _field(doc, "a"))
    extras = tuple(parse_word(w, base) for w in doc.get("extra_relators", ()))
    data = RelativePresentationData(
        base, _field(doc, "s"), _field(doc, "m"), c, b, a
    )
    return data, extras


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


def map_to_json(m: OrientedMap) -> dict:
    faces = [
        [{"edge": e, "dir": "+" if s > 0 else "-"} for e, s in boundary]
        for boundary in m.faces
    ]
    return {"surface": m.surface, "faces": faces}


def parse_map(doc) -> OrientedMap:
    boundaries = _field(doc, "faces")
    if not isinstance(boundaries, list) or not all(
        isinstance(b, list) for b in boundaries
    ):
        raise JsonError("faces must be a list of dart lists")
    surface = _field(doc, "surface")
    if not isinstance(surface, str):
        raise JsonError(f"surface must be a string, got {surface!r}")
    faces = []
    for boundary in boundaries:
        darts = []
        for dart in boundary:
            e = _field(dart, "edge")
            d = _field(dart, "dir")
            if not isinstance(e, int) or d not in ("+", "-"):
                raise JsonError(f"bad dart on edge {e!r}: dir {d!r}")
            darts.append((e, 1 if d == "+" else -1))
        faces.append(tuple(darts))
    return OrientedMap(surface, tuple(faces))


# ---------------------------------------------------------------------------
# positions along a face boundary
# ---------------------------------------------------------------------------


def position_to_json(r: Fraction) -> dict:
    """Encode a position reduced into [0, L) as a corner or a dart point."""
    if r.denominator == 1:
        return {"corner": int(r)}
    return {"dart": int(r // 1), "lambda": frac_to_str(r % 1)}


def parse_position(doc, L: int) -> Fraction:
    if "corner" in doc:
        j = doc["corner"]
        if not isinstance(j, int) or not 0 <= j < L:
            raise JsonError(f"corner index {j!r} outside 0..{L - 1}")
        return Fraction(j)
    k = _field(doc, "dart")
    lam = parse_frac(_field(doc, "lambda"))
    if not isinstance(k, int) or not 0 <= k < L:
        raise JsonError(f"dart index {k!r} outside 0..{L - 1}")
    if not 0 < lam < 1:
        raise JsonError(f"lambda {lam} not strictly inside the dart")
    return k + lam


def _lift_positions(reduced, L: int):
    """Rebuild nondecreasing lifted positions, each step less than a lap."""
    lifted = [reduced[0]]
    for r in reduced[1:]:
        lifted.append(lifted[-1] + (r - lifted[-1]) % L)
    return lifted


# ---------------------------------------------------------------------------
# motions
# ---------------------------------------------------------------------------


def motion_to_json(m: OrientedMap, ms: MotionSchedule) -> dict:
    validate_motion(m, ms)
    cars = []
    for car in ms.cars:
        L = len(m.faces[car.face])
        positions = [p for _, p in car.breakpoints]
        for a, b in zip(positions, positions[1:]):
            if b - a >= L:
                raise JsonError(
                    f"face {car.face}: a car laps between breakpoints; "
                    "subdivide first"
                )
        cars.append(
            {
                "face": car.face,
                "period": frac_to_str(car.period),
                "degree": car.degree,
                "breakpoints": [
                    {"t": frac_to_str(t), "at": position_to_json(p % L)}
                    for t, p in car.breakpoints
                ],
            }
        )
    return {
        "period": frac_to_str(ms.period),
        "cars": cars,
        "stop_corners": sorted([f, j] for f, j in ms.stop_corners),
    }


def parse_motion(doc, m: OrientedMap) -> MotionSchedule:
    cars = []
    for entry in _field(doc, "cars"):
        f = _field(entry, "face")
        if not isinstance(f, int) or not 0 <= f < m.face_count():
            raise JsonError(f"no such face: {f!r}")
        L = len(m.faces[f])
        times = []
        reduced = []
        for bp in _field(entry, "breakpoints"):
            times.append(parse_frac(_field(bp, "t")))
            reduced.append(parse_position(_field(bp, "at"), L))
        cars.append(
            CarSchedule(
                f,
                parse_frac(_field(entry, "period")),
                tuple(zip(times, _lift_positions(reduced, L))),
                degree=_field(entry, "degree"),
            )
        )
    stops = frozenset((f, j) for f, j in doc.get("stop_corners", ()))
    ms = MotionSchedule(parse_frac(_field(doc, "period")), tuple(cars), stops)
    validate_motion(m, ms)
    return ms


# ---------------------------------------------------------------------------
# comotions
# ---------------------------------------------------------------------------


def comotion_to_json(m: OrientedMap, com: Comotion) -> dict:
    validate_comotion(m, com)
    cocars = []
    for cocar in com.cocars:
        L = len(m.faces[cocar.face])
        cocars.append(
            {
                "face": cocar.face,
                "degree": cocar.degree,
                "breakpoints": [
                    {"at": position_to_json(p % L), "time": frac_to_str(t)}
                    for p, t in cocar.breakpoints
                ],
            }
        )
    return {"period": frac_to_str(com.period), "cocars": cocars}


def parse_comotion(doc, m: OrientedMap) -> Comotion:
    cocars = []
    for entry in _field(doc, "cocars"):
        f = _field(entry, "face")
        if not isinstance(f, int) or not 0 <= f < m.face_count():
            raise JsonError(f"no such face: {f!r}")
        L = len(m.faces[f])
        reduced = []
        times = []
        for bp in _field(entry, "breakpoints"):
            reduced.append(parse_position(_field(bp, "at"), L))
            times.append(parse_frac(_field(bp, "time")))
        cocars.append(
            Cocar(
                f,
                _field(entry, "degree"),
                tuple(zip(_lift_positions(reduced, L), times)),
            )
        )
    com = Comotion(parse_frac(_field(doc, "period")), tuple(cocars))
    validate_comotion(m, com)
    return com


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


def _corner_key(corner) -> str:
    return f"{corner[0]},{corner[1]}"


def _parse_corner(key: str):
    try:
        f, j = key.split(",")
        return (int(f), int(j))
    except ValueError:
        raise JsonError(f"bad corner key {key!r}") from None


def diagram_to_json(d) -> dict:
    doc = map_to_json(d.map)
    doc["corner_labels"] = {
        _corner_key(c): word_to_json(w) for c, w in d.corner_labels.items()
    }
    doc["edge_labels"] = {str(e): f"t_{j}" for e, j in d.edge_labels.items()}
    doc["arrows"] = {
        str(e): list(d.map.dart_owner((e, 1))) for e in d.map.edge_ids
    }
    if d.exterior_vertices:
        doc["exterior_vertices"] = sorted(
            sorted(_corner_key(c) for c in v) for v in d.exterior_vertices
        )
    if d.exterior_faces:
        doc["exterior_faces"] = sorted(d.exterior_faces)
    if d.phi_s is not None:
        doc["phi"] = {"s": d.phi_s}
    if d.large_faces is not None:
        doc["grading"] = {"large_faces": sorted(d.large_faces)}
    return doc


def parse_diagram(doc):
    from .diagram import HowieDiagram

    m = parse_map(doc)
    corner_labels = {}
    base = None
    for key, wdoc in _field(doc, "corner_labels").items():
        w = parse_word(wdoc, base)
        base = w.base
        corner_labels[_parse_corner(key)] = w
    edge_labels = {}
    for key, sym in _field(doc, "edge_labels").items():
        if not isinstance(sym, str) or not sym.startswith("t_"):
            raise JsonError(f"edge symbol must look like 't_j', got {sym!r}")
        edge_labels[int(key)] = int(sym[2:])
    for key, owner in doc.get("arrows", {}).items():
        if m.dart_owner((int(key), 1)) != tuple(owner):
            raise JsonError(f"arrow on edge {key} does not match the map")

    by_corners = {frozenset(v): v for v in m.vertices()}
    exterior_vertices = []
    for corners in doc.get("exterior_vertices", ()):
        wanted = frozenset(_parse_corner(c) for c in corners)
        if wanted not in by_corners:
            raise JsonError(f"exterior vertex {sorted(corners)} is not a vertex")
        exterior_vertices.append(by_corners[wanted])

    phi_s = doc.get("phi", {}).get("s")
    grading = doc.get("grading")
    return HowieDiagram(
        m,
        corner_labels,
        edge_labels,
        exterior_vertices=frozenset(exterior_vertices),
        exterior_faces=frozenset(doc.get("exterior_faces", ())),
        phi_s=phi_s,
        large_faces=None
        if grading is None
        else frozenset(_field(grading, "large_faces")),
    )

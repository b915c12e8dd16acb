"""JSON documents for maps, words, schedules, comotions and diagrams.

Rationals travel as "p/q" strings, never floats.  Writers sort keys and
emit positions geometrically (a corner index, or a dart index with a
fraction along it), so equal objects produce byte-identical files.

`dumps` is one writer for every document and report.  It recurses over
str, int, bool, None, list, tuple and dict with str keys, and prints the
text of `json.dumps(doc, sort_keys=True, indent=2)` plus a final newline,
byte for byte; anything else raises TypeError.  (CPython's C encoder
runs only without an indent, so `json.dumps` would take its pure-Python
one here.)

Rationals and dart points are read as reduced (p, q) pairs, q > 0, by
`_ratio` and `_position`, the one home of the grammar; `parse_frac`
wraps its pair in one `Fraction`.  A digit string "p" or "p/q" with q
nonzero is read straight into ints, and a dart point with such a
lambda, 0 < p < q, is (k * q + p, q).  Every other string
goes to `Fraction(str)`, so the accepted language (signs, surrounding
spaces, decimals, `_`) and every error message are `Fraction`'s, with
one bound of our own: a decimal exponent beyond +-4300, the digit limit
`json.loads` puts on an int literal, is refused before `Fraction`
computes the power: `Fraction("1e999999999")` would build a
billion-digit int.

A car and a cocar travel alike: a face, a degree and breakpoints, each
a position under `at` and a time, under `t` for a car and `time` for a
cocar.  One generator, `_laps`, reads them: each breakpoint's `at` and
then its time, with the positions lifted in ints over the lcm of their
qs by `_lift_positions` and the times put over the lcm of theirs.
`parse_motion` and `parse_comotion` hand the ints to
`CarSchedule.from_ints` and `Cocar.from_ints` without building a
`Fraction` per breakpoint, and `_breakpoints_to_json` writes them back.
The two readers and writers keep only what differs: a motion's car
periods and `stop_corners`, and the writer's refusal of a car that laps
between breakpoints.

A word document names its base group, and a diagram repeats it in every
corner label.  `parse_base` hands out the shared instance of
`groups.shared_base`, so the labels of one document hold one base object,
and the base checks of `parse_word` and of the diagram constructor pass
on identity.  A base passed to `parse_word` need not be the shared one;
an equal one is accepted too.

`parse_base`, `parse_word`'s syllables and `parse_map`'s darts read each
field once, by `dict.get` or by an index after a membership test, and
test the values' types.  The field helpers `_field` and `_int` run only
on the refusal path: when a value is missing or of the wrong type they
read the fields again, in the order they always did, and raise their
messages word for word.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm

from .comotion import Cocar, Comotion, validate_comotion
from .diagram import HowieDiagram
from .errors import InputError
from .groups import BaseGroup, FreeProductWord, shared_base
from .motion import CarSchedule, MotionSchedule, validate_motion
from .rewriting import RelativePresentationData
from .surface import OrientedMap


class JsonError(InputError):
    pass


_quote = json.encoder.encode_basestring_ascii


def dumps(doc) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2) + "\\n"`, from one writer."""
    out = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(x, out: list, nl: str) -> None:
    """Append the text of x to out; nl is a newline and the current indent."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in x:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(x):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(_quote(key))
            out.append(": ")
            _write(x[key], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def frac_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def ratio_to_str(n: int, d: int) -> str:
    """n / d, d > 0, as `frac_to_str` writes its Fraction, without one."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


# the largest decimal exponent `parse_frac` reads: `json.loads`'s digit
# limit on an int literal (`sys.int_info.default_max_str_digits`)
MAX_EXPONENT = 4300

# a decimal exponent closing a string, as `Fraction(str)` reads one
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _plain_ratio(s: str):
    """(p, q) for a string "p" or "p/q" of decimal digits with q nonzero;
    None for any other string.  The digits are those `Fraction(str)` and
    `int` read, so (p, q) is `Fraction(s)`'s value."""
    p, slash, q = s.partition("/")
    if not p.isdecimal():
        return None
    if not slash:
        q = "1"
    elif not q.isdecimal():
        return None
    try:
        p, q = int(p), int(q)
    except ValueError:  # over the int digit limit
        return None
    return (p, q) if q else None


def _ratio(s) -> tuple[int, int]:
    """A rational field as a reduced (p, q), q > 0."""
    if type(s) is int:
        return s, 1
    if not isinstance(s, str):
        raise JsonError(f"rational must be a 'p/q' string, got {s!r}")
    pq = _plain_ratio(s)
    if pq is not None:
        g = gcd(*pq)
        return pq if g == 1 else (pq[0] // g, pq[1] // g)
    exp = _EXPONENT.search(s)
    try:
        if exp is not None and abs(int(exp[1])) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent {int(exp[1])} beyond +-{MAX_EXPONENT}")
        x = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise JsonError(f"bad rational {s!r}: {exc}") from None
    return x.numerator, x.denominator


def parse_frac(s) -> Fraction:
    return Fraction(*_ratio(s))


def _field(doc: dict, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise JsonError(f"missing field {key!r}")
    return doc[key]


def _objects(doc: dict, key: str) -> list:
    items = _field(doc, key)
    if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
        raise JsonError(f"{key} must be a list of objects")
    return items


def _int(doc: dict, key: str) -> int:
    x = _field(doc, key)
    if type(x) is not int:
        raise JsonError(f"{key} must be an int, got {x!r}")
    return x


def _table(doc: dict, key: str, default=None) -> dict:
    """An object-valued field; optional when a default is given."""
    table = _field(doc, key) if default is None else doc.get(key, default)
    if not isinstance(table, dict):
        raise JsonError(f"{key} must be an object")
    return table


def _int_text(text: str, what: str) -> int:
    """int(text) for a key or symbol part; `what` names it in the error."""
    try:
        return int(text)
    except ValueError:
        raise JsonError(f"{what} must be an int, got {text!r}") from None


def _ints(items, key: str) -> list:
    if not isinstance(items, list) or not all(type(x) is int for x in items):
        raise JsonError(f"{key} must be a list of ints")
    return items


# ---------------------------------------------------------------------------
# words and presentations
# ---------------------------------------------------------------------------


def base_to_json(base: BaseGroup) -> dict:
    return {"kind": base.kind, "rank": base.rank}


def parse_base(doc) -> BaseGroup:
    """The shared base group the document names."""
    kind, rank = (doc.get("kind"), doc.get("rank")) if isinstance(doc, dict) else (None, None)
    if type(rank) is not int or kind not in ("free", "abelian"):
        kind, rank = _field(doc, "kind"), _field(doc, "rank")
        if type(rank) is not int:
            raise JsonError(f"rank must be an int, got {rank!r}")
        raise JsonError(f"unknown base kind {kind!r}")
    return shared_base(kind, rank)


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
    if base is not None and found is not base and found != base:
        raise JsonError(f"word base {found!r} does not match {base!r}")
    syllables = []
    for syl in _objects(doc, "syllables"):
        if "t" in syl:
            j, k = syl["t"], syl.get("exp")
            if type(j) is not int or type(k) is not int:
                j, k = _int(syl, "t"), _int(syl, "exp")
            syllables.append(("t", j, k))
        else:
            elem = found.parse(syl["elem"] if "elem" in syl else _field(syl, "elem"))
            copy = syl.get("copy")
            syllables.append(("g", copy if type(copy) is int else _int(syl, "copy"), elem))
    return FreeProductWord.join(found, syllables)  # parse validated each elem


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
    b = tuple(parse_word(w, base) for w in _objects(doc, "b"))
    a = tuple(parse_word(w, base) for w in _objects(doc, "a"))
    extras = ()
    if "extra_relators" in doc:
        extras = tuple(parse_word(w, base) for w in _objects(doc, "extra_relators"))
    data = RelativePresentationData(base, _int(doc, "s"), _int(doc, "m"), c, b, a)
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
            e, d = (dart.get("edge"), dart.get("dir")) if isinstance(dart, dict) else (None, None)
            if type(e) is not int or d not in ("+", "-"):
                e, d = _field(dart, "edge"), _field(dart, "dir")
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


def _position(doc, L: int) -> tuple[int, int]:
    """A position in [0, L) as a reduced (p, q), q > 0."""
    if isinstance(doc, dict) and "corner" in doc:
        j = doc["corner"]
        if type(j) is not int or not 0 <= j < L:
            raise JsonError(f"corner index {j!r} outside 0..{L - 1}")
        return j, 1
    k = _field(doc, "dart")
    p, q = _ratio(_field(doc, "lambda"))
    if type(k) is not int or not 0 <= k < L:
        raise JsonError(f"dart index {k!r} outside 0..{L - 1}")
    if not 0 < p < q:
        raise JsonError(f"lambda {Fraction(p, q)} not strictly inside the dart")
    return k * q + p, q


def _lift_positions(reduced, L: int) -> tuple[list, int]:
    """Lift (p, q) positions in [0, L) to nondecreasing ones, each step less
    than a lap, in ints: (xs, X), position i being xs[i] / X, X the lcm of
    the qs."""
    X = lcm(*(q for _, q in reduced))
    xs = [p * (X // q) for p, q in reduced]
    for i in range(1, len(xs)):
        xs[i] = xs[i - 1] + (xs[i] - xs[i - 1]) % (L * X)
    return xs, X


def _laps(doc: dict, key: str, time: str, m: OrientedMap):
    """(entry, face, degree, (xs, X, ys, Y)) of each car or cocar listed
    under `key`: breakpoint i at position xs[i] / X, lifted, and at time
    ys[i] / Y, read from the field `time`.  Each breakpoint's `at` is read
    before its time, in the order of the writer's sorted keys."""
    for entry in _objects(doc, key):
        f = _field(entry, "face")
        if type(f) is not int or not 0 <= f < m.face_count():
            raise JsonError(f"no such face: {f!r}")
        bps, degree = _objects(entry, "breakpoints"), _int(entry, "degree")
        if not bps:
            raise JsonError("breakpoints must not be empty")
        L = len(m.faces[f])
        reduced, times = [], []
        for bp in bps:
            reduced.append(_position(_field(bp, "at"), L))
            times.append(_ratio(_field(bp, time)))
        xs, X = _lift_positions(reduced, L)
        Y = lcm(*(q for _, q in times))
        yield entry, f, degree, (xs, X, [p * (Y // q) for p, q in times], Y)


def _breakpoints_to_json(xs, X: int, ys, Y: int, L: int, time: str) -> list:
    """Breakpoint i as its position xs[i] / X on a face of length L, under
    `at`, and its time ys[i] / Y, under `time`."""
    return [{"at": position_to_json(Fraction(x % (L * X), X)), time: frac_to_str(Fraction(y, Y))}
            for x, y in zip(xs, ys)]


# ---------------------------------------------------------------------------
# motions
# ---------------------------------------------------------------------------


def motion_to_json(m: OrientedMap, ms: MotionSchedule) -> dict:
    validate_motion(m, ms)
    cars = []
    for car in ms.cars:
        L = len(m.faces[car.face])
        for a, b in zip(car.ps, car.ps[1:]):
            if b - a >= L * car.X:
                raise JsonError(
                    f"face {car.face}: a car laps between breakpoints; "
                    "subdivide first"
                )
        cars.append({"face": car.face, "period": frac_to_str(car.period), "degree": car.degree,
                     "breakpoints": _breakpoints_to_json(car.ps, car.X, car.ts, car.Y, L, "t")})
    return {
        "period": frac_to_str(ms.period),
        "cars": cars,
        "stop_corners": sorted([f, j] for f, j in ms.stop_corners),
    }


def parse_motion(doc, m: OrientedMap) -> MotionSchedule:
    cars = [CarSchedule.from_ints(f, parse_frac(_field(entry, "period")), ts, Y, xs, X, degree)
            for entry, f, degree, (xs, X, ts, Y) in _laps(doc, "cars", "t", m)]
    stops = doc.get("stop_corners", [])
    if not isinstance(stops, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(type(x) is int for x in c)
        for c in stops
    ):
        raise JsonError("stop_corners must be a list of [face, index] int pairs")
    ms = MotionSchedule(
        parse_frac(_field(doc, "period")), tuple(cars), frozenset(map(tuple, stops))
    )
    validate_motion(m, ms)
    return ms


# ---------------------------------------------------------------------------
# comotions
# ---------------------------------------------------------------------------


def comotion_to_json(m: OrientedMap, com: Comotion) -> dict:
    validate_comotion(m, com)
    cocars = [
        {"face": c.face, "degree": c.degree,
         "breakpoints": _breakpoints_to_json(c.xs, c.X, c.ys, c.Y, len(m.faces[c.face]), "time")}
        for c in com.cocars
    ]
    return {"period": frac_to_str(com.period), "cocars": cocars}


def parse_comotion(doc, m: OrientedMap) -> Comotion:
    cocars = [Cocar.from_ints(f, degree, xs, X, ys, Y)
              for _, f, degree, (xs, X, ys, Y) in _laps(doc, "cocars", "time", m)]
    com = Comotion(parse_frac(_field(doc, "period")), tuple(cocars))
    validate_comotion(m, com)
    return com


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


def _corner_key(corner) -> str:
    return f"{corner[0]},{corner[1]}"


def _parse_corner(key: str):
    if not isinstance(key, str):
        raise JsonError(f"corner key must be a 'face,index' string, got {key!r}")
    try:
        f, j = key.split(",")
        return (int(f), int(j))
    except ValueError:
        raise JsonError(f"bad corner key {key!r}") from None


def _spelled_once(spellings: dict, table: str, key: str, parsed, noun: str) -> None:
    """Refuse a key of `table` that names what an earlier key named: JSON
    keeps both spellings, and the later label would silently win."""
    first = spellings.setdefault(parsed, key)
    if first != key:
        raise JsonError(f"{table} keys {first!r} and {key!r} both name {noun} {parsed}")


def diagram_to_json(d) -> dict:
    doc = map_to_json(d.map)
    doc["corner_labels"] = {
        _corner_key(c): word_to_json(w) for c, w in d.corner_labels.items()
    }
    doc["edge_labels"] = {str(e): f"t_{j}" for e, j in d.edge_labels.items()}
    doc["arrows"] = {str(e): list(d.map.edge_sides[e][0]) for e in d.map.edge_ids}
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
    m = parse_map(doc)
    corner_labels = {}
    spellings = {}
    base = None
    for key, wdoc in _table(doc, "corner_labels").items():
        w = parse_word(wdoc, base)
        base = w.base
        corner = _parse_corner(key)
        _spelled_once(spellings, "corner_labels", key, corner, "corner")
        corner_labels[corner] = w
    edge_labels = {}
    spellings = {}
    for key, sym in _table(doc, "edge_labels").items():
        if not isinstance(sym, str) or not sym.startswith("t_"):
            raise JsonError(f"edge symbol must look like 't_j', got {sym!r}")
        j = _int_text(sym[2:], f"the j of edge_labels[{key!r}] = {sym!r}")
        edge = _int_text(key, "edge_labels key")
        _spelled_once(spellings, "edge_labels", key, edge, "edge")
        edge_labels[edge] = j
    for key, owner in _table(doc, "arrows", {}).items():
        edge = _int_text(key, "arrows key")
        if not isinstance(owner, list) or m.dart_owner((edge, 1)) != tuple(owner):
            raise JsonError(f"arrow on edge {key} does not match the map")

    exterior_vertices = []
    vertex_docs = doc.get("exterior_vertices", [])
    if not isinstance(vertex_docs, list) or not all(
        isinstance(v, list) for v in vertex_docs
    ):
        raise JsonError("exterior_vertices must be a list of corner-key lists")
    for corners in vertex_docs:
        wanted = {_parse_corner(c) for c in corners}
        # the vertex at one of the corners, when they are all of its corners
        v = m.vertex_at(min(wanted)) if wanted else None
        if v is None or wanted != set(v):
            raise JsonError(f"exterior vertex {sorted(corners)} is not a vertex")
        exterior_vertices.append(v)

    phi_s = _table(doc, "phi", {}).get("s")
    if phi_s is not None and type(phi_s) is not int:
        raise JsonError(f"phi s must be an int, got {phi_s!r}")
    exterior_faces = _ints(doc.get("exterior_faces", []), "exterior_faces")
    large_faces = doc.get("grading")
    if large_faces is not None:
        large_faces = frozenset(_ints(_field(large_faces, "large_faces"), "large_faces"))
    return HowieDiagram(
        m,
        corner_labels,
        edge_labels,
        exterior_vertices=frozenset(exterior_vertices),
        exterior_faces=frozenset(exterior_faces),
        phi_s=phi_s,
        large_faces=large_faces,
    )

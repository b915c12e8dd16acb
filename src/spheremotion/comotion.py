"""Arrival-time assignments on face boundaries, dual to car motions.

A cocar gives each boundary position of its face an arrival time on the
circle of circumference T, as a continuous nondecreasing piecewise
linear function.  Positions lift to the real line as in `motion`; times
lift too, climbing degree * T per boundary lap.

Where a motion asks "where is the car at time t", a comotion asks "when
does the face sweep past position x".  Collisions are the points whose
surrounding faces all sweep past at one common instant.

A cocar shares a car's int core, `motion._IntLap`, read the other way
round: positions xs over X and times ys over Y, X and Y the least
scales that clear them.  `Cocar.from_ints` runs the core's check and
builds every cocar: the document reader, `subdivide_comotion` and
`induce_comotion` hand it ints, and `Cocar(face, degree, breakpoints)`
converts its rational pairs once, with `motion.scaled_pairs`, and calls
it.  The `Fraction` breakpoints are built only when read.  A comotion
keeps its period as ints, T = p / q, and the core's builder makes each
cocar's lap table per (p, q, face length): `_lap` closes the lap with L
and degree * T, so the times move to Y, the lcm of the cocar's Y and q.
`cotime_at` reads it with `motion.lap_at`, as a car's position is read.

An edge is solved by `edge_components` on one scale for the edge: the
lcm of its two cocars' X for positions and of their Y for times, so the
integers stay bounded by the two cocars, not by the map.  A two-pointer
walk over the two sides' sorted pieces cuts the edge into arcs on which
each side is one linear piece; scaled by both piece widths, the
difference of arrival times is an integer linear function there, and
floor division finds the multiples of the period it meets.  Every
parameter, arc end and instant is a reduced int pair (n, d) for n / d,
through `comotion_collisions` to the report writer; there are no floats.
`validate_comotion` checks a comotion on a map once and keeps a record
per map on the comotion, as each cocar keeps its lap tables: the
`corner_ticks`, their `_residues` and, once `weight_report`'s span check
has passed, the `solve_edges` result.  `subdivide_comotion` hands solved
edges over: when the parent's record holds them, the child's record is
made and span-checked at once, carries every edge but the split one, and
solves only the two new edges.

The weight report and the vertex loci read corners in integers.
`corner_ticks` reads every corner of a face with `motion.lap_read`, the
int reader under `lap_at`, and puts the face's corner times over one
scale: its lap's Y times the lcm of the widths of the pieces its corners
fall in.  The scale stays per face, never one lcm over the comotion, so
the integers stay bounded by one cocar.  `_periods` gives T in each
face's ticks.  Instants on the time circle are residues mod that period;
the span check compares ticks, `_descents` counts a vertex's descents
by cross-multiplying (residue, scale) pairs, and a vertex locus is its
residue pair, reduced with `motion._reduced`.
`corner_times`, for `lemma14_total` and other Fraction callers, divides
the recorded ticks by the scales.  `subdivide_comotion` remaps a cocar's
breakpoints and the stretch's kinks in the lap table's X units with
divmod, reads each time with `lap_read`, puts the times over one scale,
Y times the lcm of the widths, and hands the ints to `Cocar.from_ints`.
`chi_indicator` and `psi_progress` stay the paper's Fraction definitions;
`psi` reduces its Fraction instants mod T to int pairs and counts them
with `_descents`, the count `weight_report` runs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter
from typing import Callable, Sequence

from .errors import InputError
from .motion import (MotionSchedule, _IntLap, _reduced, as_multiple_motion, lap_at, lap_read,
                     rational, scaled_pairs)
from .surface import OrientedMap, subdivide_edge

ZERO = Fraction(0)


class ComotionError(InputError):
    pass


# ---------------------------------------------------------------------------
# the time circle
# ---------------------------------------------------------------------------


def chi_indicator(T: Fraction, x, y, reference=ZERO) -> int:
    """1 when the arc from x to y crosses the reference cut, else 0."""
    return 0 if (x - reference) % T <= (y - reference) % T else 1


def psi(T: Fraction, values: Sequence, reference=ZERO) -> int:
    """Winding number of a cyclic tuple of instants: the `_descents` of
    their residues mod T, read from the reference cut."""
    return _descents([((v - reference) % T).as_integer_ratio() for v in values])


def _descents(pairs: Sequence) -> int:
    """How often a cyclic list of instants (r, s), each r / s with s > 0,
    steps down: the arcs from one to the next that cross the cut at 0."""
    return sum(r * s2 > r2 * s for (r, s), (r2, s2) in zip(pairs, pairs[1:] + pairs[:1]))


def psi_progress(T: Fraction, values: Sequence) -> Fraction:
    """Reference-free form of psi: total forward progress in laps."""
    vals = list(values)
    total = sum(
        (vals[(i + 1) % len(vals)] - vals[i]) % T for i in range(len(vals))
    )
    return Fraction(total, 1) / T


# ---------------------------------------------------------------------------
# cocars
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False, repr=False)
class Cocar(_IntLap):
    """Arrival times along one face boundary.

    Breakpoints pair a lifted position with a lifted time; positions
    strictly increase within one lap and times never decrease.  Time
    jumps are not representable, so a cocar cannot express a car that
    parks; dually, a flat piece sweeps a whole arc in one instant.
    Breakpoint i is (xs[i] / X, ys[i] / Y), X and Y the least scales.
    """

    face: int
    degree: int
    xs: tuple[int, ...]
    X: int
    ys: tuple[int, ...]
    Y: int

    _axes = attrgetter("xs", "X", "ys", "Y")

    def __new__(cls, face, degree, breakpoints):
        xs, X, ys, Y = scaled_pairs(breakpoints, "breakpoint position", "breakpoint time",
                                    ComotionError)
        return cls.from_ints(face, degree, xs, X, ys, Y)

    @classmethod
    def from_ints(cls, face, degree, xs, X: int, ys, Y: int) -> Cocar:
        """The cocar with breakpoints (xs[i] / X, ys[i] / Y), X, Y > 0."""
        xs, X, ys, Y = cls._checked(face, degree, xs, X, ys, Y, ComotionError,
                                    ("cocar", "positions", "times"))
        self = object.__new__(cls)
        self.__dict__.update(face=face, degree=degree, xs=xs, X=X, ys=ys, Y=Y, _tables={})
        return self

    def __repr__(self):
        return (f"Cocar(face={self.face!r}, degree={self.degree!r}, "
                f"breakpoints={self.breakpoints!r})")

    def __reduce__(self):  # copy and pickle rebuild through the ints
        return Cocar.from_ints, (self.face, self.degree, self.xs, self.X, self.ys, self.Y)


@dataclass(frozen=True)
class Comotion:
    period: Fraction
    cocars: tuple[Cocar, ...]

    def __post_init__(self):
        object.__setattr__(self, "period", rational(self.period, "period", ComotionError))
        object.__setattr__(self, "cocars", tuple(self.cocars))
        if self.period <= 0:
            raise ComotionError("period must be positive")
        object.__setattr__(self, "_pq", (self.period.numerator, self.period.denominator))

    @cached_property
    def _records(self) -> dict:
        """By map, what `validate_comotion` recorded once the checks passed."""
        return {}


def validate_comotion(m: OrientedMap, com: Comotion) -> dict:
    """The comotion's record on m, made by the first call once `_check`
    passes: the `corner_ticks` as "ct", their `_residues` as "res" and,
    once `weight_report` has solved them, the edges as "edges"."""
    rec = com._records.get(m)
    if rec is None:
        _check(m, com)
        ct = corner_ticks(m, com)
        rec = com._records[m] = {"ct": ct, "res": _residues(com, ct)}
    return rec


def _check(m: OrientedMap, com: Comotion) -> None:
    """Refuse a comotion whose cocars do not fit the faces of m."""
    if [c.face for c in com.cocars] != list(range(m.face_count())):
        raise ComotionError("need exactly one cocar per face, in face order")
    p, q = com._pq
    for cocar in com.cocars:
        L = len(m.faces[cocar.face])
        xs, X, ys = cocar.xs, cocar.X, cocar.ys
        if not (0 <= xs[0] < L * X):
            raise ComotionError(f"first position {Fraction(xs[0], X)} outside [0, {L})")
        if xs[-1] >= xs[0] + L * X:
            raise ComotionError("breakpoints span more than one lap")
        if (ys[-1] - ys[0]) * q > cocar.degree * p * cocar.Y:
            raise ComotionError("times climb past the declared degree")


def _lap(cocar: Cocar, pq: tuple[int, int], L: int) -> tuple:
    """The cocar's int lap table on a face of length L, time over position:
    ((xs, ys, span, climb), X, Y), closed one face lap on, climbing degree * T,
    T = p / q, its times moved to Y, the lcm of its Y and q, even at degree 0."""
    key = (*pq, L)
    return cocar._tables.get(key) or cocar._lap_table(key, (L, 1), (cocar.degree * pq[0], pq[1]))


def cotime_at(cocar: Cocar, T: Fraction, L: int, x) -> Fraction:
    """Lifted arrival time at lifted position x, an int or a Fraction."""
    return lap_at(_lap(cocar, (T.numerator, T.denominator), L), x)


def _side(lap: tuple, j: int, sign: int, X: int, Y: int):
    """Dart j of a face, given its `_lap`, as lines in u = X * lam, lam the
    + side parameter in [0, 1], by increasing u: (u_end, w, c0, c1) with
    w * Y * time = c0 + c1 * u up to u_end.  Lam runs along the dart on
    the + side (sign 1) and against it on the - side (sign -1)."""
    (ps, ts, span, climb), Xc, Yc = lap
    sx, sy = X // Xc, Y // Yc
    offset = -X * j if sign > 0 else X * (j + 1)
    lo, hi = j * Xc, (j + 1) * Xc
    out = []
    for laps in range((lo - ps[0]) // span, (hi - ps[0]) // span + 1):
        dp, dt = laps * span, laps * climb
        first = max(bisect_right(ps, lo - dp) - 1, 0)
        for i in range(first, min(bisect_left(ps, hi - dp), len(ps) - 1)):
            w, c1 = (ps[i + 1] - ps[i]) * sx, (ts[i + 1] - ts[i]) * sy * sign
            ua = offset + sign * (ps[i] + dp) * sx
            c0 = (ts[i] + dt) * sy * w - c1 * ua
            out.append((ua + w if sign > 0 else ua, w, c0, c1))
    return out if sign > 0 else out[::-1]


def corner_ticks(m: OrientedMap, com: Comotion) -> tuple[dict, list]:
    """Lifted arrival time at every corner in ints: (ticks, scales), the
    time at corner (f, j) being ticks[(f, j)] / scales[f].  A face's scale
    is its lap's Y times the lcm of the widths of the pieces its corners
    fall in, so it depends on that face's cocar alone."""
    ticks, scales = {}, []
    for f, boundary in enumerate(m.faces):
        L = len(boundary)
        lap = _lap(com.cocars[f], com._pq, L)
        reads = [lap_read(lap, j * lap[1]) for j in range(L)]
        g = lcm(*(w for _, w in reads))
        for j, (y, w) in enumerate(reads):
            ticks[(f, j)] = y * (g // w)
        scales.append(lap[2] * g)
    return ticks, scales


def _periods(com: Comotion, scales: list) -> list:
    """T in each face's ticks, T * scale: an int, as each scale is a
    multiple of its lap's Y and so of T's denominator."""
    p, q = com._pq
    return [p * (s // q) for s in scales]


def corner_times(m: OrientedMap, com: Comotion) -> dict:
    """Lifted arrival time at every corner: the recorded ticks as Fractions."""
    ticks, scales = validate_comotion(m, com)["ct"]
    return {c: Fraction(t, scales[c[0]]) for c, t in ticks.items()}


def _residues(com: Comotion, ct: tuple) -> dict:
    """Every corner's instant on the time circle from `corner_ticks`, as
    (r, s): the instant is r / s, with 0 <= r < T * s."""
    ticks, scales = ct
    periods = _periods(com, scales)
    return {c: (t % periods[c[0]], scales[c[0]]) for c, t in ticks.items()}


# ---------------------------------------------------------------------------
# collisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComotionCollisions:
    """Collision loci, each rational r / s a reduced int pair (r, s):
    `vertex_ints` maps vertices, and `edge_ints` (edge, lam) of a point or
    (edge, (a, b)) of an arc swept at once, by edge and lam, to the instant.
    `vertex_loci` and `edge_loci` are cached views of them in Fractions."""

    vertex_ints: dict
    edge_ints: dict

    @cached_property
    def vertex_loci(self) -> dict:
        return {v: Fraction(*t) for v, t in self.vertex_ints.items()}

    @cached_property
    def edge_loci(self) -> dict:
        return {(e, tuple(Fraction(*x) for x in w) if type(w[0]) is tuple else Fraction(*w)):
                Fraction(*t) for (e, w), t in self.edge_ints.items()}

    @property
    def spatial_count(self) -> int:
        return len(self.vertex_ints) + len(self.edge_ints)


def edge_components(m: OrientedMap, com: Comotion, edge: int):
    """Maximal solution components of the meeting equation on one edge.

    Returns (a, b, time) per component, each a reduced int pair (n, d) for
    n / d: both sides sweep past the points with dart parameter in [a, b]
    at `time` mod T, in [0, T).  Components are closed in [0, 1] and come
    by increasing a; a and b can coincide.
    """
    p, q = com._pq
    (fp, jp), (fm, jm) = m.edge_sides[edge]
    lp = _lap(com.cocars[fp], com._pq, len(m.faces[fp]))
    lm = _lap(com.cocars[fm], com._pq, len(m.faces[fm]))
    X, Y = lcm(lp[1], lm[1]), lcm(lp[2], lm[2])
    TY = p * (Y // q)
    plus, minus = _side(lp, jp, 1, X, Y), _side(lm, jm, -1, X, Y)
    # on [u, v] each side is one line, so wp * wm * Y times the + side's
    # time minus the - side's is the int line A + B * u, B >= 0 as both
    # times are monotone; the sides meet where it is a multiple of
    # K = wp * wm * Y * T.  Hits arrive in order of u and can only touch
    # the last component at its end.
    comps = []  # [n, d, e, f, t, s]: lam runs from n / (d * X) to e / (f * X) at t / s
    i = j = u = 0
    while u < X:
        ep, wp, ap, bp = plus[i]
        em, wm, am, bm = minus[j]
        v = min(ep, em, X)
        A, B, K = wm * ap - wp * am, wm * bp - wp * bm, TY * wp * wm
        if B == 0:
            hits = [(u, 1, v, 1)] if A % K == 0 else []
        else:
            kKs = range(-(-(A + B * u) // K) * K, (A + B * v) // K * K + 1, K)
            hits = [(kK - A, B, kK - A, B) for kK in kKs]
        for n, d, e, f in hits:
            if comps and n * comps[-1][3] == comps[-1][2] * d:
                comps[-1][2:4] = e, f
            else:
                t = (ap * d + bp * n) % (TY * wp * d)
                comps.append([n, d, e, f, t, wp * d * Y])
        i += ep == v
        j += em == v
        u = v
    return [(_reduced(n, d * X), _reduced(e, f * X), _reduced(t, s))
            for n, d, e, f, t, s in comps]


def solve_edges(m: OrientedMap, com: Comotion) -> dict:
    """`edge_components` of every edge, keyed by edge id."""
    return {edge: edge_components(m, com, edge) for edge in m.edge_ids}


def comotion_collisions(m: OrientedMap, com: Comotion) -> ComotionCollisions:
    """Points of the surface all of whose sides sweep past together, in
    ints, keyed as `ComotionCollisions` says: the edge loci are the
    `edge_components` of each edge in turn.  Components touching only the
    endpoints of an edge belong to the vertices and are dropped here.
    Reads the edges `weight_report` recorded, or solves them without the
    span check.
    """
    rec = validate_comotion(m, com)
    components = rec["edges"] if "edges" in rec else solve_edges(m, com)
    vertex_ints = {}
    for vertex in m.vertices():
        (r, s), *rest = (rec["res"][c] for c in vertex)
        if all(r2 * s == r * s2 for r2, s2 in rest):
            vertex_ints[vertex] = _reduced(r, s)
    edge_ints = {}
    for edge in m.edge_ids:
        for a, b, t in components[edge]:
            if a != b or a[0] % a[1]:  # an arc, or a point off the ends 0 and 1
                edge_ints[edge, a if a == b else (a, b)] = t
    return ComotionCollisions(vertex_ints, edge_ints)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def span_check(m: OrientedMap, com: Comotion, ct: tuple) -> None:
    """Refuse a dart swept in a full period or more, from `corner_ticks`."""
    ticks, scales = ct
    for f, (boundary, TS) in enumerate(zip(m.faces, _periods(com, scales))):
        L = len(boundary)
        wrap = ticks[(f, 0)] + com.cocars[f].degree * TS  # corner 0 a lap on
        for j in range(L):
            hi = ticks[(f, j + 1)] if j + 1 < L else wrap
            if hi - ticks[(f, j)] >= TS:
                raise ComotionError(
                    f"dart {j} of face {f} sweeps a full period; subdivide first"
                )


def weight_report(m: OrientedMap, com: Comotion) -> dict:
    """Cell weights whose total telescopes to the Euler characteristic.

    Faces carry 1 - degree, an edge carries one less than the number of
    meeting-free arcs in its interior, a vertex 1 - psi of its corner
    instants.  Needs every dart swept in under one period: the span check
    runs before any edge is solved, and the solved edges are recorded.
    """
    rec = validate_comotion(m, com)
    if "edges" not in rec:
        span_check(m, com, rec["ct"])
        rec["edges"] = solve_edges(m, com)
    faces = {f: 1 - com.cocars[f].degree for f in range(m.face_count())}
    edges = {}
    for edge in m.edge_ids:
        comps = rec["edges"][edge]  # free arcs: between components and at the ends
        edges[edge] = (len(comps) - 2 + (comps[0][0] != (0, 1)) + (comps[-1][1] != (1, 1))
                       if comps else 0)
    res = rec["res"]  # psi of a vertex: the descents of its corner instants
    vertices = {vertex: 1 - _descents([res[c] for c in vertex]) for vertex in m.vertices()}
    total = sum(faces.values()) + sum(edges.values()) + sum(vertices.values())
    return {
        "faces": faces,
        "edges": edges,
        "vertices": vertices,
        "total": total,
        "chi": m.euler_characteristic(),
    }


def lemma14_total(
    m: OrientedMap,
    com: Comotion,
    g: Callable[[Fraction, Fraction], Fraction],
    h: Callable[[Fraction, Fraction], Fraction],
):
    """The telescoping weight total for arbitrary pair functions g and h.

    Whatever g and h do, the g terms cancel between faces and edges and
    the h terms between edges and vertices, leaving F - E + V.
    """
    ct = corner_times(m, com)
    total = ZERO
    for f, boundary in enumerate(m.faces):
        L = len(boundary)
        total += 1 - sum(g(ct[(f, j)], ct[(f, (j + 1) % L)]) for j in range(L))
    for edge in m.edge_ids:
        (fp, jp), (fm, jm) = m.edge_sides[edge]
        Lp, Lm = len(m.faces[fp]), len(m.faces[fm])
        tail_p, head_p = ct[(fp, jp)], ct[(fp, (jp + 1) % Lp)]
        tail_m, head_m = ct[(fm, jm)], ct[(fm, (jm + 1) % Lm)]
        total += (
            -1
            + g(tail_p, head_p)
            + h(head_p, tail_m)
            + g(tail_m, head_m)
            + h(head_m, tail_p)
        )
    for vertex in m.vertices():
        k = len(vertex)
        total += 1 - sum(
            h(ct[vertex[i]], ct[vertex[(i + 1) % k]]) for i in range(k)
        )
    return total


def lemma11_check(m: OrientedMap, com: Comotion, collisions=None) -> dict:
    """Collision cells must make up for the face weights: loci plus the
    sum of (1 - degree) is at least the Euler characteristic."""
    if collisions is None:
        collisions = comotion_collisions(m, com)
    loci = collisions.spatial_count
    slack = sum(1 - c.degree for c in com.cocars)
    chi = m.euler_characteristic()
    return {"loci": loci, "slack": slack, "chi": chi, "holds": loci + slack >= chi}


# ---------------------------------------------------------------------------
# induced comotions and subdivision
# ---------------------------------------------------------------------------


def induce_comotion(m: OrientedMap, ms: MotionSchedule, groups=None) -> Comotion:
    """Invert the first car of each face of a multiple motion.

    Works when every car strictly climbs: a stop would need a time jump.
    Each car laps exactly once per period, as `as_multiple_motion` chains
    a face's d cars one lap on over the d global periods of one car's
    period.  The cocar degree comes out as the face multiplicity.  Pass
    the `as_multiple_motion` result as `groups` to reuse it.
    """
    if groups is None:
        groups = as_multiple_motion(m, ms)
    cocars = []
    for f in range(m.face_count()):
        car = groups[f][0]
        positions = [*car.ps, car.ps[0] + len(m.faces[f]) * car.X]  # wrap segment
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise ComotionError(f"face {f}: car rests, arrival time would jump")
        cocars.append(Cocar.from_ints(f, len(groups[f]), car.ps, car.X, car.ts, car.Y))
    return Comotion(ms.period, tuple(cocars))


def subdivide_comotion(
    m: OrientedMap, com: Comotion, edge: int, new_edges: tuple[int, int]
):
    """Carry a comotion over to the map with one edge subdivided.

    The split dart doubles in length, so positions stretch through an
    affine reparametrization; arrival times do not change.  When the
    parent's record holds solved edges, the child gets a record of its
    own: it is checked and span-checked as `weight_report` would, and
    every edge but the split one keeps its components, as an untouched
    dart's positions shift by whole darts; only the two new edges are
    solved.
    """
    rec = validate_comotion(m, com)
    m2 = subdivide_edge(m, edge, new_edges)
    cocars = []
    for cocar in com.cocars:
        boundary = m.faces[cocar.face]
        L = len(boundary)
        js = [j for j, d in enumerate(boundary) if d[0] == edge]
        if not js:
            cocars.append(cocar)
            continue

        # positions in the lap table's X units, times read from it
        lap = _lap(cocar, com._pq, L)
        (ps, _, span, _), X, Y = lap
        stretched = (L + len(js)) * X

        def remap(x):
            laps, base = divmod(x, span)
            new = base + sum(max(0, min(base - j * X, X)) for j in js)
            return new + laps * stretched

        # breakpoints of the stretch itself become breakpoints of the cocar;
        # the stretch is increasing, so sorting positions sorts the result.
        # Times are read from the lap and put over one scale, Y times the
        # lcm of the widths of the pieces they fall in
        kinks = {(j + off) * X for j in js for off in (0, 1)}
        xs = set(ps[:-1]) | {k + span * ((ps[0] - k) // span + 1) for k in kinks}
        xs = sorted(x for x in xs if x < ps[0] + span)
        reads = [lap_read(lap, x) for x in xs]
        g = lcm(*(w for _, w in reads))
        ys = [y * (g // w) for y, w in reads]
        cocars.append(Cocar.from_ints(cocar.face, cocar.degree, [remap(x) for x in xs],
                                      X, ys, Y * g))
    com2 = Comotion(com.period, tuple(cocars))
    if "edges" in rec:
        rec2 = validate_comotion(m2, com2)
        span_check(m2, com2, rec2["ct"])
        solved = rec["edges"]
        rec2["edges"] = {e: solved[e] if e in solved else edge_components(m2, com2, e)
                         for e in m2.edge_ids}
    return m2, com2

"""Periodic motions of cars along face boundaries of a surface map.

A car lives on one face and its position is a piecewise linear function
of time, given by breakpoints (t, lifted position).  Positions are lifted
to the real line: over one period the car climbs degree * L where L is
the face boundary length, so position mod L is the actual boundary point.
Integer positions are corners, fractional ones lie inside a dart.

Time sets live on the circle of the collision horizon H, the lcm of the
periods' numerators, a common multiple of the periods: a set is a sorted
tuple of disjoint closed intervals inside [0, H].  The instants 0 and H
are the same point, so a set holding one of them lists both.

A car and a cocar share one int core, `_IntLap`: breakpoints in ints
over least scales, position over time for a car and time over position
for a cocar, with one check and one lap-table builder.
`CarSchedule.from_ints` checks the period and the time range, then runs
the core's check: the document reader, the standard builders and the
time shift hand it ints.  `Fraction` breakpoints are built only when
read.  A car keeps one int lap table per face length (`car_lap`), read
with one int bisect by `lap_read`, and by `lap_at` plus one Fraction in
`position_at`.  The stop audit and the blow-up's reference time scan
the same table.

Collision loci come from one index per car over [0, H] (`car_index`):
the time sets at which it visits each corner, and its dart windows, the
linear stretches it spends inside one dart.  A vertex locus is a time at
which every corner of the vertex is visited; an edge locus is a point
inside an edge where cars on its two sides meet, found by one linear
solve per pair of windows on the two darts of that edge.  The indexes
live in the schedule's record and every audit reads them there,
read-only.  The blow-up reads a car's stops and passes off its index
over one period: a visit to a stop corner that lasts is a stop, an
instant one a pass.  It decides each halving of its detour width in
ints, from the visits at the two ends of each spur, since a centre never
sees a collision, and then builds each blown-up car once, from ints,
reading the old positions it keeps off the lap table.

The whole collision search runs in integers, on one time scale D per
schedule, the lcm of its cars' `car_scale`s: every index is built at it
by one forward walk over the lap table, clipped only at 0 and H, so
visits and windows arrive in time order.  Vertex loci intersect int
visits, and each pair of windows on an edge is one line solve, bounded
by cross-multiplying.  The `CollisionReport` keeps its loci in ints, with
their instants computed once: vertex spans over D, edge spans over one
scale per locus.  It builds a Fraction only for each edge locus's dart
parameter and for the views a reader asks for; the writer formats the
ints.  The successor check of multiple motions reads two cars' lap
tables at every breakpoint, on their common time scale, and compares the
gaps crosswise; a lone car's table closes one period on by its climb, so
it reads none.  Its periods, progress and lap offsets stay ints, and it
builds no Fraction.  Arithmetic is exact throughout: there are no floats.

A schedule is checked and indexed once per map.  The first
`validate_motion` on a map runs the checks and keeps a record on the
schedule, as a comotion keeps one: the collision horizon, and, once
`_indexes_by_face` has built them, the schedule's time scale D, the
horizon times D and the cars' indexes grouped by face.  The collision
search, the stop audit, the blow-up, the multiple-motion check and
`jsonio.parse_motion` read it, and `_check` compares the cars' ints.
The schedule constructors take ints and Fractions only; a period is kept
as a Fraction.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .surface import Corner, Dart, OrientedMap, classify_map, rotation, shape_profile


class MotionError(InputError):
    pass


_RATIONALS = frozenset((int, Fraction))  # not bool, float or str


def rational(x, what: str, error=MotionError) -> Fraction:
    """x as a Fraction, when it is an int or a Fraction; `error` naming
    `what` and x otherwise."""
    if type(x) in _RATIONALS:
        return x if type(x) is Fraction else Fraction(x)
    raise error(f"{what} must be an int or a Fraction, got {x!r}")


def scaled_pairs(pairs, first: str, second: str, error=MotionError) -> tuple:
    """Pairs of ints or Fractions as ints over least scales, (xs, X, ys, Y);
    `error` naming the first value of another type, as `first` or `second`."""
    pairs = tuple(pairs)
    if not {type(x) for pair in pairs for x in pair} <= _RATIONALS:
        for a, b in pairs:
            rational(a, first, error)
            rational(b, second, error)
    X = math.lcm(*(a.denominator for a, _ in pairs))
    Y = math.lcm(*(b.denominator for _, b in pairs))
    return ([a.numerator * (X // a.denominator) for a, _ in pairs], X,
            [b.numerator * (Y // b.denominator) for _, b in pairs], Y)


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n / d, d > 0, as the int pair in lowest terms."""
    g = math.gcd(n, d)
    return n // g, d // g


def fraction_lcm(values: Iterable[Fraction]) -> Fraction:
    # the lcm of the numerators: a common multiple of the values, and the
    # least one unless the denominators have a common factor
    return Fraction(math.lcm(*(v.numerator for v in values)))


# ---------------------------------------------------------------------------
# interval sets on the time circle [0, T]
# ---------------------------------------------------------------------------


def normalize_intervals(items: Sequence[tuple], T):
    """Sorted, merged intervals with the seam closed; ints or Fractions alike."""
    merged: list[list] = []
    for a, b in sorted(items):
        if b < a:
            raise MotionError(f"bad interval ({a}, {b})")
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    out = [(a, b) for a, b in merged]
    if out:
        if out[0][0] == 0 and out[-1][1] != T:
            out.append((T, T))
        if out[-1][1] == T and out[0][0] != 0:
            out.insert(0, (T - T, T - T))
    return tuple(out)


def intersect_intervals(A, B) -> tuple:
    out = []
    i = j = 0
    while i < len(A) and j < len(B):
        lo = max(A[i][0], B[j][0])
        hi = min(A[i][1], B[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if A[i][1] < B[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# int laps, the core of cars and cocars, and car schedules
# ---------------------------------------------------------------------------


class _IntLap:
    """The int core of a car and of a cocar: a lapping piecewise linear
    function with breakpoints (us[i] / U, vs[i] / V), U, V > 0 the least
    scales, the us strictly increasing and the vs never decreasing.  Each
    kind reads its (us, U, vs, V) with `_axes`, an `attrgetter`, and keeps
    its lap tables, and nothing else, in `_tables`."""

    @staticmethod
    def _checked(face, degree, us, U: int, vs, V: int, error: type, words: tuple) -> tuple:
        """(us, U, vs, V) reduced to least scales, once the breakpoints, the
        degree and the face pass in turn; else `error`, worded by `words`:
        the kind's noun, then what its first and its second axis hold."""
        g, h = math.gcd(U, *us), math.gcd(V, *vs)
        us = tuple(u // g for u in us) if g > 1 else tuple(us)
        vs = tuple(v // h for v in vs) if h > 1 else tuple(vs)
        noun, first, second = words
        if not us:
            raise error(f"{noun} needs at least one breakpoint")
        for i in range(1, len(us)):
            if us[i] <= us[i - 1]:
                raise error(f"{first} must strictly increase")
            if vs[i] < vs[i - 1]:
                raise error(f"{second} may not decrease")
        if type(degree) is not int or degree < 0:
            raise error("degree must be a nonnegative integer")
        if type(face) is not int:
            raise error(f"face must be an int, got {face!r}")
        return us, U // g, vs, V // h

    @cached_property
    def breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The pairs (us[i] / U, vs[i] / V) as Fractions, built on first read."""
        us, U, vs, V = self._axes(self)
        return tuple((Fraction(u, U), Fraction(v, V)) for u, v in zip(us, vs))

    def _lap_table(self, key, span: tuple[int, int], climb: tuple[int, int]) -> tuple:
        """The int lap table ((us, vs, span, climb), U, V) of a lap that spans
        span[0] / span[1] and climbs climb[0] / climb[1], cached under key:
        each axis moved to the lcm of its scale and that denominator, and the
        breakpoints closed one lap on by (us[0] + span, vs[0] + climb)."""
        us, U, vs, V = self._axes(self)
        (a, b), (c, d) = span, climb
        su, sv = b // math.gcd(U, b), d // math.gcd(V, d)
        U, V = U * su, V * sv
        span, climb = a * (U // b), c * (V // d)
        us = [u * su for u in us] if su > 1 else list(us)
        vs = [v * sv for v in vs] if sv > 1 else list(vs)
        us.append(us[0] + span)
        vs.append(vs[0] + climb)
        lap = self._tables[key] = (us, vs, span, climb), U, V
        return lap


def lap_read(lap: tuple, n: int, d: int = 1) -> tuple[int, int]:
    """The value at x == n / (d * sx), n and d > 0 ints, of the function
    a lap table ((xs, ys, span, climb), sx, sy) describes, in ints: (y, w)
    with value y / (w * sy), w the width of the table piece x falls in
    times d.  One bisect, no Fraction."""
    (xs, ys, span, climb), _, _ = lap
    # whole laps move the value by climb
    laps = (n - d * xs[0]) // (d * span)
    n -= laps * span * d
    i = bisect_right(xs, n // d) - 1
    dx = xs[i + 1] - xs[i]
    y = (ys[i] + laps * climb) * d * dx + (n - xs[i] * d) * (ys[i + 1] - ys[i])
    return y, d * dx


def lap_at(lap: tuple, x) -> Fraction:
    """The value at x, an int or a Fraction, of the function a lap table
    describes: `lap_read` and one Fraction."""
    _, sx, sy = lap
    y, w = lap_read(lap, x.numerator * sx, x.denominator)
    return Fraction(y, w * sy)


@dataclass(frozen=True, init=False, eq=False)
class CarSchedule(_IntLap):
    """One car: a face index, a period, breakpoints, and a lap count.

    Breakpoint times live in [0, period) and strictly increase; lifted
    positions never decrease.  The car climbs degree * L per period; with
    a single breakpoint and degree 0 the car is parked.  Breakpoint i is
    (ts[i] / Y, ps[i] / X), Y and X the least scales.
    """

    face: int
    period: Fraction
    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    degree: int = 0

    _axes = attrgetter("ts", "Y", "ps", "X")

    def __new__(cls, face, period, breakpoints, degree=0):
        period = rational(period, "period")
        ts, Y, ps, X = scaled_pairs(breakpoints, "breakpoint time", "breakpoint position")
        return cls.from_ints(face, period, ts, Y, ps, X, degree)

    @classmethod
    def from_ints(cls, face, period, ts, Y: int, ps, X: int, degree) -> CarSchedule:
        """The car with breakpoints (ts[i] / Y, ps[i] / X), Y, X > 0 ints."""
        period = rational(period, "period")
        if period.numerator <= 0:
            raise MotionError("period must be positive")
        # scale-invariant, so read on the unreduced ints; no ts is the core's refusal
        if ts and (ts[0] < 0 or ts[-1] * period.denominator >= period.numerator * Y):
            raise MotionError("breakpoint times must lie in [0, period)")
        ts, Y, ps, X = cls._checked(face, degree, ts, Y, ps, X, MotionError,
                                    ("car", "breakpoint times", "positions"))
        self = object.__new__(cls)
        self.__dict__.update(face=face, period=period, ts=ts, Y=Y, ps=ps, X=X, degree=degree,
                             _tables={})
        return self

    def _ints(self) -> tuple:
        """The arguments of `from_ints` that rebuild the car."""
        return self.face, self.period, self.ts, self.Y, self.ps, self.X, self.degree

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._ints() == other._ints()

    def __hash__(self):
        return hash(self._ints())

    def __reduce__(self):  # copy and pickle rebuild through the ints
        return CarSchedule.from_ints, self._ints()


def car_lap(car: CarSchedule, L: int) -> tuple:
    """The car's int lap table on a face of length L, position over time:
    ((ts, ps, span, climb), Y, X), closed one period on, climbing degree * L,
    its times moved to Y, the lcm of its Y and the period's denominator."""
    P = car.period
    return car._tables.get(L) or car._lap_table(
        L, (P.numerator, P.denominator), (car.degree * L, 1))


def position_at(car: CarSchedule, L: int, t) -> Fraction:
    """The car's lifted position at time t, an int or a Fraction."""
    return lap_at(car_lap(car, L), rational(t, "time"))


def _shift_into_range(bps, r, L: int):
    """Breakpoints moved r along a face of length L, first position in [0, L)."""
    drop = L * ((bps[0][1] + r) // L) - r
    return tuple((t, p - drop) for t, p in bps)


@dataclass(frozen=True)
class MotionSchedule:
    """A family of cars with a common period and declared stop corners."""

    period: Fraction
    cars: tuple[CarSchedule, ...]
    stop_corners: frozenset[Corner] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "period", rational(self.period, "period"))
        object.__setattr__(self, "cars", tuple(self.cars))
        object.__setattr__(self, "stop_corners", frozenset(self.stop_corners))
        if self.period <= 0:
            raise MotionError("period must be positive")
        if not self.cars:
            raise MotionError("schedule needs at least one car")
        for c in self.stop_corners:
            if type(c) is not tuple or len(c) != 2 or any(type(x) is not int for x in c):
                raise MotionError(f"stop corner must be a pair of ints, got {c!r}")

    @cached_property
    def _records(self) -> dict:
        """By map, what `validate_motion` recorded once the checks passed."""
        return {}


def validate_motion(m: OrientedMap, ms: MotionSchedule) -> dict:
    """The schedule's record on m, made by the first call once `_check`
    passes: the `collision_horizon` as "horizon" and, once
    `_indexes_by_face` has built them, the cars' indexes as "faces", the
    schedule's time scale as "D" and the horizon times D as "H"."""
    rec = ms._records.get(m)
    if rec is None:
        _check(m, ms)
        rec = ms._records[m] = {"horizon": collision_horizon(ms)}
    return rec


def _check(m: OrientedMap, ms: MotionSchedule) -> None:
    """Refuse a schedule whose cars or stop corners do not fit m."""
    n, d = ms.period.numerator, ms.period.denominator
    for car in ms.cars:
        if not (0 <= car.face < m.face_count()):
            raise MotionError(f"no such face: {car.face}")
        L = len(m.faces[car.face])
        ps, X = car.ps, car.X
        if not (0 <= ps[0] < L * X):
            raise MotionError(f"initial position {Fraction(ps[0], X)} outside [0, {L})")
        if ps[-1] > ps[0] + car.degree * L * X:
            raise MotionError("positions climb past the declared degree")
        # the schedule period over the car's is a / b; one must divide the other
        a, b = n * car.period.denominator, d * car.period.numerator
        if a % b and b % a:
            raise MotionError(
                f"car period {car.period} incommensurable with {ms.period}"
            )
    for f, j in ms.stop_corners:
        if not (0 <= f < m.face_count()) or not (0 <= j < len(m.faces[f])):
            raise MotionError(f"no such corner: {(f, j)}")


def is_regular(m: OrientedMap, ms: MotionSchedule) -> bool:
    """Every car laps at least once and only rests at corners."""
    for car in ms.cars:
        if car.degree < 1:
            return False
        (_, ps, _, _), _, X = car_lap(car, len(m.faces[car.face]))
        if any(p == q and p % X for p, q in zip(ps, ps[1:])):
            return False
    return True


# ---------------------------------------------------------------------------
# collisions
# ---------------------------------------------------------------------------


def collision_horizon(ms: MotionSchedule) -> Fraction:
    return fraction_lcm([ms.period] + [c.period for c in ms.cars])


def car_scale(car: CarSchedule, L: int) -> int:
    """The least time scale D at which every corner crossing of the car on
    a face of length L is an int: Y * g, Y the time scale of its lap table
    and g the lcm over its moving pieces of each slope's reduced position
    step, so that g clears every slope's denominator."""
    (ts, ps, _, _), Y, _ = car_lap(car, L)
    return Y * math.lcm(*((pb - pa) // math.gcd(pb - pa, tb - ta)
                          for ta, pa, tb, pb in zip(ts, ps, ts[1:], ps[1:]) if pb != pa))


def car_index(car: CarSchedule, L: int, reps: int, D: int) -> tuple[dict, dict]:
    """Where one car is over the horizon [0, H], H = reps >= 1 periods, in
    ints at the time scale D, a multiple of `car_scale(car, L)`: (visits,
    windows), every time times D.

    visits[j] is the time set at which the car sits on corner j of its
    face.  windows[j] lists the stretches (t0, t1, p, q, k) it spends
    inside dart j, from corner j to j + 1, with 0 <= t0 < t1 <= H * D; they
    are sorted and overlap at most in their ends.  Over a stretch the car sits at dart parameter
    (p + q * t) / k: one that moves, entering the dart at corner time s,
    has q = 1, p = -s and k = X * c, c the time per position unit 1 / X
    and X the position scale of the car's lap table; a rest at r / X has
    q = 0, p = r and k = X.  One walk forward over the lap table, from one
    period before t = 0, finds them in time order; the schedule's record
    keeps them.
    """
    # positions times X and times times Y are ints; times times D = Y * G
    # too, and G clears every slope, so each piece's time per position
    # unit c and every corner crossing are ints
    (ts, ps, span, _), Y, X = car_lap(car, L)
    G = D // Y
    P, H = span * G, reps * span * G
    visits, windows = {}, {}

    def visit(j, a, b):
        # visits come in time order: one that touches the last one extends it
        ivs = visits.setdefault(j, [])
        if ivs and a <= ivs[-1][1]:
            a = ivs.pop()[0]
        ivs.append((a, b))

    # from the piece that holds t = 0 one period back, lap after lap, up to
    # the one that holds H; whole laps keep corners and darts mod L, and a
    # piece starts where the one before ends, so it visits corners after ta
    n = len(ts) - 1
    i, shift = bisect_left(ts, span) - 1, -P
    while True:
        ta, tb = ts[i] * G + shift, ts[i + 1] * G + shift
        if ta >= H:
            break
        pa, pb = ps[i], ps[i + 1]
        j, r = divmod(pa, X)
        lo, hi = ta if ta > 0 else 0, tb if tb < H else H  # clipped to [0, H]
        if pa == pb:
            if r == 0:
                visit(j % L, lo, hi)
            elif lo < hi:
                windows.setdefault(j % L, []).append((lo, hi, r, 0, X))
        else:
            # on the piece's line the car is at corner j at s, before the
            # piece when r > 0, and at corner j + 1 a dart's time k later
            c = (tb - ta) // (pb - pa)
            s, k = ta - r * c, X * c
            while s < hi:
                a, b = s if s > lo else lo, s + k if s + k < hi else hi
                if a < b:
                    windows.setdefault(j % L, []).append((a, b, -s, 1, k))
                j, s = j + 1, s + k
                if lo <= s <= hi:
                    visit(j % L, s, s)
        i += 1
        if i == n:
            i, shift = 0, shift + P
    # the walk covers 0 and H both, so a set holding one lists the other
    return {j: tuple(ivs) for j, ivs in visits.items()}, windows


def _unscaled(ivs, D: int) -> tuple:
    """Int intervals over the time scale D as Fraction pairs."""
    return tuple((Fraction(a, D), Fraction(b, D)) for a, b in ivs)


def corner_occupancy(car: CarSchedule, L: int, j: int, horizon: Fraction):
    """Times in [0, horizon] at which the car sits on corner j of its face."""
    reps, rest = divmod(horizon, car.period)
    if rest:
        raise MotionError("horizon is not a multiple of the car period")
    if reps < 1:
        raise MotionError("horizon must be positive")
    D = car_scale(car, L)
    return _unscaled(car_index(car, L, reps, D)[0].get(j, ()), D)


def _indexes_by_face(m: OrientedMap, ms: MotionSchedule) -> dict:
    """The schedule's record on m (`validate_motion`) with the cars'
    indexes, built on the first call: at the schedule's time scale D, the
    lcm of the cars' `car_scale`s, grouped by face as `car_index`'s
    (visits, windows)."""
    rec = validate_motion(m, ms)
    if "faces" not in rec:
        horizon = rec["horizon"]
        cars = [(car, len(m.faces[car.face])) for car in ms.cars]
        D = math.lcm(*(car_scale(car, L) for car, L in cars))
        out: dict[int, list] = {}
        for car, L in cars:
            P = car.period
            reps = horizon.numerator * P.denominator // (horizon.denominator * P.numerator)
            out.setdefault(car.face, []).append(car_index(car, L, reps, D))
        rec.update(faces=out, D=D, H=horizon.numerator * D // horizon.denominator)
    return rec


def _corner_times(on_face: dict, corner: Corner, H: int):
    """Times, over the schedule's scale, at which some car of the face
    sits on the corner."""
    f, j = corner
    indexes = on_face.get(f, ())
    if len(indexes) == 1:
        return indexes[0][0].get(j, ())  # normalized by `car_index` already
    items = [iv for visits, _ in indexes for iv in visits.get(j, ())]
    return normalize_intervals(items, H)


class CollisionReport:
    """Collision loci over the horizon, in ints: `vertex_ints` maps each
    vertex, and `edge_ints` each edge locus (edge, lam), to (S, spans,
    instants), its time set as int spans over the scale S and one instant
    per span start, reduced into [0, horizon * S) and sorted.
    `vertex_loci` and `edge_loci` are cached views of the same keys, with
    Fraction spans.  The constructor takes the horizon and those views,
    kept as given with no normalizing or check, and derives the ints;
    `complete_collisions` builds the ints, normalized sets, through
    `_from_ints`."""

    def __init__(self, horizon: Fraction, vertex_loci: dict, edge_loci: dict):
        self.horizon, self.vertex_loci, self.edge_loci = horizon, vertex_loci, edge_loci
        self.vertex_ints = {k: _locus_ints(s, horizon) for k, s in vertex_loci.items()}
        self.edge_ints = {k: _locus_ints(s, horizon) for k, s in edge_loci.items()}

    @classmethod
    def _from_ints(cls, horizon: Fraction, vertex_ints: dict, edge_ints: dict) -> CollisionReport:
        self = object.__new__(cls)
        self.horizon, self.vertex_ints, self.edge_ints = horizon, vertex_ints, edge_ints
        return self

    @cached_property
    def vertex_loci(self) -> dict:
        return {k: _unscaled(spans, S) for k, (S, spans, _) in self.vertex_ints.items()}

    @cached_property
    def edge_loci(self) -> dict:
        return {k: _unscaled(spans, S) for k, (S, spans, _) in self.edge_ints.items()}

    @property
    def spatial_count(self) -> int:
        return len(self.vertex_ints) + len(self.edge_ints)

    def __eq__(self, other):
        views = attrgetter("horizon", "vertex_loci", "edge_loci")
        return views(self) == views(other) if type(other) is type(self) else NotImplemented


def _locus_ints(spans, horizon: Fraction) -> tuple:
    """Fraction spans as a locus of `CollisionReport`, over the least scale
    of the spans and the horizon: a start at or past the horizon is the
    instant 0."""
    S = math.lcm(horizon.denominator, *(x.denominator for span in spans for x in span))
    ints = [(a.numerator * (S // a.denominator), b.numerator * (S // b.denominator))
            for a, b in spans]
    H = horizon.numerator * (S // horizon.denominator)
    return S, tuple(ints), tuple(sorted({a if a < H else 0 for a, _ in ints}))


def complete_collisions(m: OrientedMap, ms: MotionSchedule) -> CollisionReport:
    """All collision loci: vertices where every corner is hit at once, and
    interior edge points where cars on the two sides meet."""
    rec = _indexes_by_face(m, ms)
    horizon, on_face, D, H = rec["horizon"], rec["faces"], rec["D"], rec["H"]

    vertex_ints = {}
    for vertex in m.vertices():
        times = _corner_times(on_face, vertex[0], H)
        for corner in vertex[1:]:
            times = intersect_intervals(times, _corner_times(on_face, corner, H))
        if times:  # normalized, as the sets it meets: a start at H is also one at 0
            vertex_ints[vertex] = (D, times, tuple(a for a, _ in times if a < H))

    edge_events: dict[tuple[int, int, int], list] = {}
    for edge in m.edge_ids:
        (fp, jp), (fm, jm) = m.edge_sides[edge]
        for _, plus in on_face.get(fp, ()):
            for _, minus in on_face.get(fm, ()):
                _window_meetings(edge, plus.get(jp, ()), minus.get(jm, ()), D, edge_events)
    edge_ints = {}
    for (edge, n, d), items in edge_events.items():
        w = math.lcm(*(v for _, _, v in items))  # the locus's times over w * D
        spans = normalize_intervals([(a * (w // v), b * (w // v)) for a, b, v in items], H * w)
        edge_ints[edge, Fraction(n, d)] = (w * D, spans, tuple(a for a, _ in spans if a < H * w))
    return CollisionReport._from_ints(horizon, vertex_ints, dict(sorted(edge_ints.items())))


def _window_meetings(edge, plus, minus, D: int, out):
    """Meetings inside one edge of a car on its + dart and one on its - dart.

    The dart windows are `car_index`'s lines (t0, t1, p, q, k), at the
    time scale D.  The + side car at dart parameter lam and the - side car
    at mu meet when lam + mu = 1, both strictly inside (0, 1); that reads
    den * t = num, solved and tested in ints for each overlapping pair.
    den is 0 only when both cars rest, and then they meet on the whole
    overlap or never.  A meeting over [a, b] / (w * D) adds (a, b, w) to
    `out` under (edge, n, d), n / d its lam in lowest terms: no Fraction
    is built."""
    ends = [w[1] for w in minus]
    for a0, a1, pa, qa, ka in plus:
        i = bisect_left(ends, a0)
        while i < len(minus) and minus[i][0] <= a1:
            b0, b1, pb, qb, kb = minus[i]
            i += 1
            lo, hi = max(a0, b0), min(a1, b1)
            den, num = qa * kb + qb * ka, ka * kb - pa * kb - pb * ka
            if den:
                # lam = (pa + qa * t) / ka at t = num / den, over ka * den
                lam, k = pa * den + qa * num, ka * den
                if lo * den <= num <= hi * den and 0 < lam < k:
                    out.setdefault((edge, *_reduced(lam, k)), []).append((num, num, den))
            elif not num:
                out.setdefault((edge, *_reduced(pa, ka)), []).append((lo, hi, 1))


# ---------------------------------------------------------------------------
# multiple motions
# ---------------------------------------------------------------------------


def time_shifted_car(car: CarSchedule, L: int, shift) -> CarSchedule:
    """The car running `shift`, an int or a Fraction, earlier: new(t) ==
    old(t + shift).  A car whose last breakpoint lies past its first one
    lap on, which `validate_motion` refuses, is refused the same way."""
    shift = rational(shift, "shift")
    (ts, ps, span, climb), Y, X = car_lap(car, L)
    if ps[-2] > ps[-1]:  # the table closes below its last breakpoint
        raise MotionError("positions climb past the declared degree")
    # on the time scale Z of the lap and the shift, breakpoint (t, p) moves to
    # tt = t - shift reduced into [0, period), k periods back: k climbs lower
    Z = math.lcm(Y, shift.denominator)
    w, s = Z // Y, shift.numerator * (Z // shift.denominator)
    moved = [(divmod(t * w - s, span * w), p) for t, p in zip(ts, ps[:-1])]
    pts = sorted((tt, p - k * climb) for (k, tt), p in moved)
    ts, ps = zip(*_shift_into_range(pts, 0, L * X))
    return CarSchedule.from_ints(car.face, car.period, ts, Z, ps, X, car.degree)


def _offset(car_a, car_b, L: int, shift) -> Optional[tuple[int, int]]:
    """The offset with car_a(t + shift) == car_b(t) + offset identically, as
    ints (num, den), den > 0, of value num / den; None when the gap between
    the two is not constant.  `shift` is an int or a Fraction."""
    if car_a.period != car_b.period or car_a.degree != car_b.degree:
        return None
    # the two lap tables on their common time scale Y, car_b's clock: the
    # breakpoint times of either, the shift s and the readers' widths
    lap_a, lap_b = car_lap(car_a, L), car_lap(car_b, L)
    (ta, _, _, _), Ya, Xa = lap_a
    (tb, _, _, _), Yb, Xb = lap_b
    Y = math.lcm(Ya, Yb, shift.denominator)
    s, wa, wb = shift.numerator * (Y // shift.denominator), Y // Ya, Y // Yb
    times = {t * wb for t in tb[:-1]} | {t * wa - s for t in ta[:-1]}
    # agreement at every breakpoint of either side pins both piecewise
    # linear functions on the intervals in between; both cars climb the
    # same per period, so whole periods apart the gap is the same.  The
    # gaps are num / den, compared crosswise
    num = den = None
    for t in times:
        ya, da = lap_read(lap_a, t + s, wa)
        yb, db = lap_read(lap_b, t, wb)
        n, d = ya * db * Xb - yb * da * Xa, da * db * Xa * Xb
        if num is None:
            num, den = n, d
        elif n * den != num * d:
            return None
    return num, den


def as_multiple_motion(m: OrientedMap, ms: MotionSchedule) -> dict:
    """Group cars by face and verify the successor property.

    Car j of a face must run one global period ahead of car j+1, up to
    whole laps, and those laps add up to one around the face's cycle of
    cars: unshifted, the last car wraps around to the first one lap on,
    but a schedule run earlier in time can lift the lap anywhere along
    the cycle.  Every face needs a car and every car a positive share of
    the lap per period.  The periods, positions and offsets are compared
    in ints: no Fraction is built.
    """
    validate_motion(m, ms)
    T = ms.period
    groups: dict[int, list[CarSchedule]] = {}
    for car in ms.cars:
        groups.setdefault(car.face, []).append(car)
    if set(groups) != set(range(m.face_count())):
        raise MotionError("a multiple motion needs cars on every face")
    for f, cars in groups.items():
        L = len(m.faces[f])
        d = len(cars)
        dT = _reduced(d * T.numerator, T.denominator)  # d * T
        for car in cars:
            if (car.period.numerator, car.period.denominator) != dT:
                raise MotionError(
                    f"face {f}: car period {car.period} is not {d} * {T}"
                )
            # the positions at T and at 0, compared crosswise
            lap = car_lap(car, L)
            y1, w1 = lap_read(lap, T.numerator * lap[1], T.denominator)
            y0, w0 = lap_read(lap, 0)
            if y1 * w0 <= y0 * w1:
                raise MotionError(f"face {f}: car makes no progress over T")
        laps = []  # each offset in whole laps
        for j in range(d):
            nxt = (j + 1) % d
            # a lone car's table closes one period, T, on by its climb
            offset = (cars[j].degree * L, 1) if d == 1 else _offset(cars[j], cars[nxt], L, T)
            if offset is None or offset[0] % (L * offset[1]):
                raise MotionError(
                    f"face {f}: car {j} shifted by T does not match car {nxt}"
                )
            laps.append(offset[0] // (L * offset[1]))
        if sum(laps) != 1:
            # name the first car whose offset is not the unshifted one
            j = next(j for j, k in enumerate(laps) if k != (1 if j == d - 1 else 0))
            raise MotionError(
                f"face {f}: car {j} shifted by T does not match car {(j + 1) % d}"
            )
    return groups


def multiplicities(m: OrientedMap, ms: MotionSchedule) -> dict[int, int]:
    return {f: len(cars) for f, cars in as_multiple_motion(m, ms).items()}


def lemma16_bound(m: OrientedMap, ms: MotionSchedule, collisions=None) -> dict:
    """Loci count of a multiple motion against chi + sum of (d_i - 1), with
    the face multiplicities d_i; MotionError if ms is no multiple motion."""
    mult = multiplicities(m, ms)
    chi = m.euler_characteristic()
    bound = chi + sum(d - 1 for d in mult.values())
    if collisions is None:
        collisions = complete_collisions(m, ms)
    loci = collisions.spatial_count
    return {"chi": chi, "bound": bound, "loci": loci, "holds": loci >= bound,
            "multiplicities": mult}


# ---------------------------------------------------------------------------
# stops
# ---------------------------------------------------------------------------


def check_separated_stops(m: OrientedMap, ms: MotionSchedule) -> dict:
    """Stops must sit on declared corners, grouped at least two per vertex,
    with cyclically consecutive stop corners never occupied at once."""
    rec = _indexes_by_face(m, ms)
    problems = []
    for car in ms.cars:
        L = len(m.faces[car.face])
        (ts, ps, span, _), _, X = car_lap(car, L)
        for ta, tb, p, q in zip(ts, ts[1:], ps, ps[1:]):
            if p != q or tb - ta >= span:
                continue  # moving, or a parked car: not a stop
            if p % X:
                at = Fraction(p, X)
                problems.append(f"car on face {car.face} rests mid-dart at {at}")
            elif (car.face, p // X % L) not in ms.stop_corners:
                problems.append(f"undeclared stop at {(car.face, p // X % L)}")

    on_face, H = rec["faces"], rec["H"]
    for vertex in m.vertices():
        stops_here = [c for c in vertex if c in ms.stop_corners]
        if not stops_here:
            continue
        if len(stops_here) < 2:
            problems.append(f"vertex {vertex} has a lone stop corner")
            continue
        k = len(stops_here)
        for i in range(k):
            a, b = stops_here[i], stops_here[(i + 1) % k]
            if intersect_intervals(_corner_times(on_face, a, H), _corner_times(on_face, b, H)):
                problems.append(
                    f"consecutive stop corners {a} and {b} occupied together"
                )
    return {"ok": not problems, "problems": problems}


# ---------------------------------------------------------------------------
# standard schedules
# ---------------------------------------------------------------------------


def _base_breakpoints(kind: str, mval: int, extras: dict):
    """Pattern-coordinate breakpoints of the standard car as int pairs
    (t * Y, p), and Y: 2 for the half-integer times of the m = 0 b and c
    shapes, 1 otherwise."""
    if kind == "a":
        return [(0, 1)], 1
    if kind == "b":
        if mval == 0:
            return [(0, 2), (2, 3), (3, 4)], 2
        return [(0, 2), (2 * mval + 2, 2 * mval + 4), (4 * mval + 1, 2 * mval + 4)], 1
    if kind == "c":
        if mval == 0:
            return [(0, 0), (1, 1), (2, 2)], 2
        return [(0, 0), (1, 1), (2 * mval, 1)], 1
    k, l = extras["k"], extras["l"]
    if mval == 0:
        return [(0, k + 1), (1, k + l + 2)], 1
    return [
        (0, k + 1),
        (1, k + 2),
        (2 * mval, k + 2),
        (2 * mval + 1, k + l + 2),
        (2 * mval + 2, 2 * k + l + 2),
        (4 * mval + 1, 2 * k + l + 2),
    ], 1


def _saddle_corners(m: OrientedMap) -> frozenset[Corner]:
    return frozenset(
        c for c in m.corners() if m.corner_type(c) in ((1, 1), (-1, -1))
    )


def _standard_schedule(m: OrientedMap, info: dict, lift: bool) -> MotionSchedule:
    """The standard schedule of `info`; with `lift`, a face of s repeated
    blocks carries s cars, each one block apart and one period behind the
    next, and 2-gon faces are refused once m > 0.  Each face's car starts
    at the least `rotation` that takes the face's profile to the
    `shape_profile` of its kind at `info`'s m.  Breakpoints are built in
    ints and handed to `CarSchedule.from_ints`."""
    mval = info["m"] if info["m"] is not None else 0
    if type(mval) is not int or mval < 0:
        raise MotionError(f"m must be a nonnegative integer, got {mval!r}")
    T = 4 * mval + 2
    cars = []
    for f, (kind, extras) in enumerate(info["faces"]):
        profile, pattern = m.face_sign_profile(f), shape_profile(kind, mval, extras)
        r = rotation(profile, pattern)
        if r is None:
            raise MotionError(f"profile {profile} does not match pattern {pattern}")
        if lift and kind == "a" and mval > 0:
            raise MotionError("2-gon faces have no lift at this period")
        s = 1 if kind in ("a", "b", "c") else extras["s"]
        block = len(profile) // s
        base, Y = _base_breakpoints(kind, mval, extras)
        base = _shift_into_range(base, r % block, block)
        period = 2 if kind == "a" else s * T
        ts = [t + q * T * Y for q in range(s) for t, _ in base]
        for j in range(s):
            ps = [p + (j + q) * block for q in range(s) for _, p in base]
            cars.append(CarSchedule.from_ints(f, period, ts, Y, ps, 1, 1))
    stops = _saddle_corners(m) if mval > 0 else frozenset()
    return MotionSchedule(T, tuple(cars), stops)


def standard_motion(m: OrientedMap, info: Optional[dict] = None) -> MotionSchedule:
    """The period 4m+2 schedule for maps whose faces fit the basic shapes."""
    if info is None:
        info = classify_map(m)
    if info["family"] != "A":
        raise MotionError("map has repeating block faces; build lifts instead")
    return _standard_schedule(m, info, lift=False)


def standard_multiple_motion(
    m: OrientedMap, info: Optional[dict] = None
) -> MotionSchedule:
    """Lifted schedule for maps with repeating block faces.

    A face of s repeated blocks carries s cars, each one block apart and
    one global period behind the next.
    """
    return _standard_schedule(m, info if info is not None else classify_map(m), lift=True)


def verify_source_sink_collisions(
    m: OrientedMap, ms: MotionSchedule, collisions=None
) -> dict:
    """For the standard schedules: collisions happen only at pure sink or
    pure source vertices, sinks at even instants and sources at odd."""
    rep = collisions if collisions is not None else complete_collisions(m, ms)
    problems = []
    if rep.edge_ints:
        problems.append(f"edge collisions at {sorted(rep.edge_ints)}")
    for vertex, (S, spans, instants) in rep.vertex_ints.items():
        kind = m.classify_vertex(vertex)
        if kind not in ("sink", "source"):
            problems.append(f"collision at mixed vertex {vertex}")
            continue
        if any(a != b for a, b in spans):
            problems.append(f"vertex {vertex} occupied over an interval")
        want = 0 if kind == "sink" else 1
        for t in instants:
            if t % S or t // S % 2 != want:
                problems.append(f"{kind} vertex {vertex} collides at t={Fraction(t, S)}")
    return {"ok": not problems, "problems": problems, "report": rep}


# ---------------------------------------------------------------------------
# blow-up
# ---------------------------------------------------------------------------


def _reference_time(car: CarSchedule, L: int):
    """A time at which the car sits strictly inside a dart."""
    (ts, ps, _, _), Y, X = car_lap(car, L)
    for ta, pa, tb, pb in zip(ts, ps, ts[1:], ps[1:]):
        if pa == pb:
            continue
        # twice the midpoint, in X units, of the piece's first stretch
        # inside one dart
        g = (pa // X + 1) * X
        pm = pa + g if g <= pb else pa + pb
        if pm % (2 * X):
            dp = pb - pa
            return Fraction(2 * ta * dp + (pm - 2 * pa) * (tb - ta), 2 * Y * dp)
    raise MotionError("car never leaves the corners")


def _car_events(car: CarSchedule, L: int, stops: set, visits: dict, D: int) -> tuple:
    """The car's visits to the stop corners over one period, read off its
    `visits` in the schedule's record at the record's time scale D, in ints
    over 2 * D: the reference time, a midpoint, is an int there.

    Returns (r, events, kept): r / (2 * D) the reference time reduced into
    [0, period); events the visits (a, b, j) to stop corner j with r < a <
    r + period * 2 * D, in time order, a stop when a < b and a pass when
    a == b; and kept the breakpoint times moved into that window that no
    visit spans, the ones the blow-up keeps.  At r the car is inside a
    dart, so over the window it climbs degree * L from inside a dart to
    inside one and, for a regular car, visits each stop corner degree
    times, each visit whole.
    """
    (ts, _, span, _), Y, _ = car_lap(car, L)
    w = 2 * D // Y
    P = span * w
    t = _reference_time(car, L)  # its denominator divides 2 * D
    r = t.numerator * (2 * D // t.denominator) % P
    events = []
    for j in stops:
        # the visits that start in [0, P), the one across P joined to its
        # part listed first, from 0; those below r moved a period on
        ivs = [(2 * a, 2 * b) for a, b in visits.get(j, ()) if 2 * a < P]
        if ivs and ivs[-1][1] >= P:
            (_, b), *ivs, (a, _) = ivs
            ivs.append((a, P + b))
        events += [(a + P, b + P, j) if a < r else (a, b, j) for a, b in ivs]
    events.sort()
    # every breakpoint time lies in [0, P) and differs from r: moved a
    # period on when below r, it falls into the window
    moved = [t + P if t < r else t for t in (t * w for t in ts[:-1])]
    return r, events, [t for t in moved if not any(a <= t <= b for a, b, _ in events)]


def _blow_up_car(car: CarSchedule, L: int, stops: set, eps: Fraction, D: int, r: int,
                 events: list, kept: list) -> CarSchedule:
    """Reroute one car through the doubled corners of its face, in ints:
    built once, by `CarSchedule.from_ints`.

    r, events and kept are `_car_events`'s, over 2 * D, D a multiple of
    the car's scale.  A visit [a, b] becomes the trip out along the spur
    and back over [a, b], a pass widened to [a - eps/2, a + eps/2]; the car
    keeps its old positions at r, at the kept times and eps before and
    after each pass.  An old lifted position p becomes p plus two for each
    stop corner lifted below it: every stop corner it has passed grew a
    spur."""
    e, E = eps.numerator, eps.denominator
    lap = car_lap(car, L)
    (_, _, span, _), Y, X = lap
    Z = 2 * D * E  # the time scale
    keep = [r * E] + [t * E for t in kept]
    keep += [a * E + s for a, b, _ in events if a == b for s in (-2 * e * D, 2 * e * D)]
    read = [lap_read(lap, t, Z // Y) for t in keep + [a * E for a, _, _ in events]]
    # positions y / (w * X) over one scale S; at an event it is a corner
    W = math.lcm(*(w for _, w in read))
    S, n = W * X, len(stops)
    lows = sorted(q * S for q in stops)

    def stretch(p):
        laps, rest = divmod(p, L * S)
        return p + 2 * S * (laps * n + bisect_left(lows, rest))

    ps = [stretch(y * (W // w)) for y, w in read]
    out = list(zip(keep, ps))
    for (a, b, _), at in zip(events, ps[len(keep):]):
        a, b = (a * E - e * D, a * E + e * D) if a == b else (a * E, b * E)
        out += [(a, at), (b, at + 2 * S)]
    # every time lies in [r, r + period), and eps is at most a quarter of
    # the least gap between r, the visits' ends and the kept times: no two
    # points share a time mod the period
    P, L2 = span * (Z // Y), L + 2 * n
    climb = car.degree * L2 * S
    out = sorted((t % P, p - (t // P) * climb) for t, p in out)
    ts, ps = zip(*_shift_into_range(out, 0, L2 * S))
    return CarSchedule.from_ints(car.face, car.period, ts, Z, ps, S, car.degree)


def blow_up(m: OrientedMap, ms: MotionSchedule):
    """Split every stop vertex into a star: each stop corner gets a spur to
    a fresh center vertex and cars traverse the spur instead of resting.

    Returns (new_map, new_motion, report).  Needs a separated, regular
    schedule, and never refuses one.  A pass at t0 runs out along the spur
    and back over [t0 - eps/2, t0 + eps/2], a stop over the stop.  eps
    starts at a quarter of the least gap between a car's kept times and
    halves ("retries") while a spur would see a collision; the halvings
    are decided from the cars' events in ints, and each car is built once,
    for the final eps.

    Spur i of a vertex runs from stop corner s_i to the centre and back to
    s_{i+1}: only the cars at s_i enter it, on its + dart over [a - w, a),
    and only those at s_{i+1} leave it, on its - dart over (b, b + w], w
    the half-width of a visit [a - w, b + w] that their detour takes: the
    visit's own half for a stop, eps/2 for a pass.  Two such stretches
    meet inside the spur exactly when they overlap.  The schedule is
    separated, so the visits [a, a2] at s_i and [b, b2] at s_{i+1} are
    disjoint int intervals at the scale D, and only a visit at s_{i+1}
    that ends at b2 before a visit at s_i starts at a can overlap it: they
    do when a - b2 is less than eps/2 per pass among the two.  The least
    such gap of two cars of periods Pa and Pb is (a - b2) mod gcd(Pa, Pb)
    over their horizon, and it is at least 1/D, so eps stops halving at
    the latest below 1/D.  A centre is occupied only at pass instants and
    stop midpoints, inside the visits to its stop corners, and consecutive
    ones are never visited at once: no centre sees a collision.  The old
    edges and vertices are not checked: the old loci stay where they were.
    """
    if not ms.stop_corners:
        return m, ms, {"identity": True, "new_edges": (), "retries": 0}
    sep = check_separated_stops(m, ms)
    if not sep["ok"]:
        raise MotionError("stops are not separated: " + "; ".join(sep["problems"]))
    if not is_regular(m, ms):
        raise MotionError("blow-up needs a regular schedule")

    next_edge = max(m.edge_ids) + 1
    first_new = next_edge
    insertions: dict[Corner, list[Dart]] = {}
    spurs = []  # (s_i, s_{i+1}): the stop corners a spur leaves and enters
    for vertex in m.vertices():
        stops_here = [c for c in vertex if c in ms.stop_corners]
        if not stops_here:
            continue
        k = len(stops_here)
        ids = list(range(next_edge, next_edge + k))
        next_edge += k
        for i, corner in enumerate(stops_here):
            # out along the fresh spur, back along the previous one
            insertions[corner] = [(ids[i], 1), (ids[i - 1], -1)]
            spurs.append((corner, stops_here[(i + 1) % k]))

    new_faces = []
    for f, boundary in enumerate(m.faces):
        out: list[Dart] = []
        for j, dart in enumerate(boundary):
            out += insertions.get((f, j), [])
            out.append(dart)
        new_faces.append(tuple(out))
    new_map = OrientedMap(m.surface, tuple(new_faces))

    stops_by_face: dict[int, set] = {}
    for f, j in ms.stop_corners:
        stops_by_face.setdefault(f, set()).add(j)

    # each car with stops: its reference time, events and kept breakpoint
    # times over 2 * D, read off the cars' indexes in the schedule's record,
    # D the schedule's time scale; each face's are in car order
    rec = _indexes_by_face(m, ms)
    D, indexes = rec["D"], {f: iter(on_face) for f, on_face in rec["faces"].items()}
    runs, at_corner, gap = {}, {}, None
    for k, car in enumerate(ms.cars):
        visits = next(indexes[car.face])[0]
        stops = stops_by_face.get(car.face)
        if not stops:
            continue
        L = len(m.faces[car.face])
        r, events, kept = _car_events(car, L, stops, visits, D)
        runs[k] = (L, stops, r, events, kept)
        P = car.period.numerator * (2 * D // car.period.denominator)
        times = sorted([r, r + P, *kept, *(t for a, b, _ in events for t in {a, b})])
        least = min(v - u for u, v in zip(times, times[1:]))
        gap = least if gap is None else min(gap, least)
        for a, b, j in events:
            at_corner.setdefault((car.face, j), []).append((a, b, P))

    # eps = gap / (8 * D * 2**retries), a quarter of the least gap halved
    # until every spur is free: a pair of visits at its two ends, a - b2
    # apart mod gcd(Pa, Pb), needs 2**retries >= passes * gap / (8 * (a - b2))
    retries = 0
    for s_out, s_in in spurs:
        for a, a2, Pa in at_corner.get(s_out, ()):
            for b, b2, Pb in at_corner.get(s_in, ()):
                passes = (a == a2) + (b == b2)
                if passes:
                    q = -(-passes * gap // (8 * ((a - b2) % math.gcd(Pa, Pb))))
                    retries = max(retries, (q - 1).bit_length())
    eps = Fraction(gap, 8 * D << retries) if runs else Fraction(1, 4)

    new_cars = list(ms.cars)
    for k, (L, stops, r, events, kept) in runs.items():
        new_cars[k] = _blow_up_car(ms.cars[k], L, stops, eps, D, r, events, kept)
    return new_map, MotionSchedule(ms.period, tuple(new_cars), frozenset()), {
        "identity": False,
        "new_edges": tuple(range(first_new, next_edge)),
        "epsilon": eps,
        "retries": retries,
    }

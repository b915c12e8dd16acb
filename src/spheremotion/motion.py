"""Periodic motions of cars along face boundaries of a surface map.

A car lives on one face and its position is a piecewise linear function
of time, given by breakpoints (t, lifted position).  Positions are lifted
to the real line: over one period the car climbs degree * L where L is
the face boundary length, so position mod L is the actual boundary point.
Integer positions are corners, fractional ones lie inside a dart.

Time sets live on the circle of the collision horizon H, the lcm of all
periods: a set is a sorted tuple of disjoint closed intervals inside
[0, H].  The instants 0 and H are the same point, so a set holding one of
them lists both.

Collision loci come from one index per car over [0, H] (`car_index`):
the time sets at which it visits each corner, and its dart windows, the
linear stretches it spends inside one dart.  A vertex locus is a time at
which every corner of the vertex is visited; an edge locus is a point
inside an edge where cars on its two sides meet, found by one linear
solve per pair of windows on the two darts of that edge.

All arithmetic is exact over Fraction.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .surface import Corner, Dart, OrientedMap, classify_map


class MotionError(ValueError):
    pass


def fraction_lcm(values: Iterable[Fraction]) -> Fraction:
    nums = 1
    dens = 1
    for v in values:
        v = Fraction(v)
        nums = nums * v.numerator // math.gcd(nums, v.numerator)
        dens = math.gcd(dens, v.denominator)
    return Fraction(nums, dens)


# ---------------------------------------------------------------------------
# interval sets on the time circle [0, T]
# ---------------------------------------------------------------------------


def normalize_intervals(items: Sequence[tuple[Fraction, Fraction]], T: Fraction):
    parts = []
    for a, b in items:
        if b < a:
            raise MotionError(f"bad interval ({a}, {b})")
        parts.append((Fraction(a), Fraction(b)))
    parts.sort()
    merged: list[list[Fraction]] = []
    for a, b in parts:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    out = [(a, b) for a, b in merged]
    if out:
        if out[0][0] == 0 and out[-1][1] != T:
            out.append((T, T))
        if out[-1][1] == T and out[0][0] != 0:
            out.insert(0, (Fraction(0), Fraction(0)))
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


def intervals_instants(ivs, T: Fraction) -> list[Fraction]:
    """One representative point per component, reduced into [0, T)."""
    return sorted({a if a < T else Fraction(0) for a, b in ivs})


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CarSchedule:
    """One car: a face index, a period, breakpoints, and a lap count.

    Breakpoint times live in [0, period) and strictly increase; lifted
    positions never decrease.  The car climbs degree * L per period; with
    a single breakpoint and degree 0 the car is parked.
    """

    face: int
    period: Fraction
    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    degree: int = 0

    def __post_init__(self):
        object.__setattr__(self, "period", Fraction(self.period))
        bps = tuple((Fraction(t), Fraction(p)) for t, p in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if self.period <= 0:
            raise MotionError("period must be positive")
        if not bps:
            raise MotionError("car needs at least one breakpoint")
        if bps[0][0] < 0 or bps[-1][0] >= self.period:
            raise MotionError("breakpoint times must lie in [0, period)")
        for i in range(1, len(bps)):
            if bps[i][0] <= bps[i - 1][0]:
                raise MotionError("breakpoint times must strictly increase")
            if bps[i][1] < bps[i - 1][1]:
                raise MotionError("positions may not decrease")
        if not isinstance(self.degree, int) or self.degree < 0:
            raise MotionError("degree must be a nonnegative integer")


def car_segments(car: CarSchedule, L: int):
    """Linear pieces (ta, pa, tb, pb) covering [t0, t0 + period]."""
    bps = car.breakpoints
    segs = []
    for i in range(len(bps) - 1):
        segs.append(bps[i] + bps[i + 1])
    segs.append(bps[-1] + (bps[0][0] + car.period, bps[0][1] + car.degree * L))
    return segs


def position_at(car: CarSchedule, L: int, t: Fraction) -> Fraction:
    t = Fraction(t)
    t0 = car.breakpoints[0][0]
    laps = (t - t0) // car.period
    tau = t - laps * car.period
    for ta, pa, tb, pb in car_segments(car, L):
        if ta <= tau <= tb:
            pos = pa if tb == ta else pa + (tau - ta) * (pb - pa) / (tb - ta)
            return pos + laps * car.degree * L
    raise MotionError(f"time {t} not covered")  # pragma: no cover


@dataclass(frozen=True)
class MotionSchedule:
    """A family of cars with a common period and declared stop corners."""

    period: Fraction
    cars: tuple[CarSchedule, ...]
    stop_corners: frozenset[Corner] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "period", Fraction(self.period))
        object.__setattr__(self, "cars", tuple(self.cars))
        object.__setattr__(self, "stop_corners", frozenset(self.stop_corners))
        if self.period <= 0:
            raise MotionError("period must be positive")
        if not self.cars:
            raise MotionError("schedule needs at least one car")


def validate_motion(m: OrientedMap, ms: MotionSchedule) -> None:
    """Check a schedule against its map; raises MotionError on violation."""
    for car in ms.cars:
        if not (0 <= car.face < m.face_count()):
            raise MotionError(f"no such face: {car.face}")
        L = len(m.faces[car.face])
        p0 = car.breakpoints[0][1]
        if not (0 <= p0 < L):
            raise MotionError(f"initial position {p0} outside [0, {L})")
        if car.breakpoints[-1][1] > p0 + car.degree * L:
            raise MotionError("positions climb past the declared degree")
        if (ms.period / car.period).denominator != 1 and (
            car.period / ms.period
        ).denominator != 1:
            raise MotionError(
                f"car period {car.period} incommensurable with {ms.period}"
            )
    for f, j in ms.stop_corners:
        if not (0 <= f < m.face_count()) or not (0 <= j < len(m.faces[f])):
            raise MotionError(f"no such corner: {(f, j)}")


def flat_segments(car: CarSchedule, L: int):
    return [(ta, tb, pa) for ta, pa, tb, pb in car_segments(car, L) if pa == pb]


def is_regular(m: OrientedMap, ms: MotionSchedule) -> bool:
    """Every car laps at least once and only rests at corners."""
    for car in ms.cars:
        if car.degree < 1:
            return False
        L = len(m.faces[car.face])
        for _, _, p in flat_segments(car, L):
            if p.denominator != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# collisions
# ---------------------------------------------------------------------------


def collision_horizon(ms: MotionSchedule) -> Fraction:
    return fraction_lcm([ms.period] + [c.period for c in ms.cars])


def car_index(car: CarSchedule, L: int, horizon: Fraction) -> tuple[dict, dict]:
    """Where one car is over the horizon [0, H]: (visits, windows).

    visits[j] is the time set at which the car sits on corner j of its
    face.  windows[k] lists the stretches (t0, t1, lam0, slope) it spends
    inside dart k, at dart parameter lam0 + slope * (t - t0), with
    0 <= t0 < t1 <= H; they are sorted and overlap at most in their ends.
    """
    reps = horizon / car.period
    if reps.denominator != 1:
        raise MotionError("horizon is not a multiple of the car period")
    visits: dict[int, list] = {}
    windows: dict[int, list] = {}
    segs = car_segments(car, L)
    climb = car.degree * L
    # copies from one period back cover [0, H] whatever the first breakpoint
    for k in range(-1, int(reps)):
        dt, dp = k * car.period, k * climb
        for ta, pa, tb, pb in segs:
            ta, pa, tb, pb = ta + dt, pa + dp, tb + dt, pb + dp
            if tb < 0 or ta > horizon:
                continue
            lo, hi = max(ta, 0), min(tb, horizon)
            if pa == pb:
                if pa.denominator == 1:
                    visits.setdefault(int(pa) % L, []).append((lo, hi))
                elif lo < hi:
                    stay = (lo, hi, pa % 1, 0)
                    windows.setdefault(math.floor(pa) % L, []).append(stay)
                continue
            slope = (pb - pa) / (tb - ta)
            for n in range(math.ceil(pa), math.floor(pb) + 1):
                t = ta + (n - pa) / slope
                if lo <= t <= hi:
                    visits.setdefault(n % L, []).append((t, t))
            for n in range(math.floor(pa), math.ceil(pb)):
                t0 = max(lo, ta + (n - pa) / slope)
                t1 = min(hi, ta + (n + 1 - pa) / slope)
                if t0 < t1:
                    lam0 = pa + slope * (t0 - ta) - n
                    windows.setdefault(n % L, []).append((t0, t1, lam0, slope))
    return (
        {j: normalize_intervals(items, horizon) for j, items in visits.items()},
        {k: sorted(items) for k, items in windows.items()},
    )


def corner_occupancy(car: CarSchedule, L: int, j: int, horizon: Fraction):
    """Times in [0, horizon] at which the car sits on corner j of its face."""
    return car_index(car, L, horizon)[0].get(j, ())


def _indexes_by_face(m: OrientedMap, ms: MotionSchedule, horizon: Fraction):
    out: dict[int, list] = {}
    for car in ms.cars:
        L = len(m.faces[car.face])
        out.setdefault(car.face, []).append(car_index(car, L, horizon))
    return out


def _corner_times(on_face: dict, corner: Corner, horizon: Fraction):
    """Times at which some car of the face sits on the corner."""
    f, j = corner
    items = [iv for visits, _ in on_face.get(f, ()) for iv in visits.get(j, ())]
    return normalize_intervals(items, horizon)


@dataclass(frozen=True)
class CollisionReport:
    horizon: Fraction
    vertex_loci: dict
    edge_loci: dict

    @property
    def spatial_count(self) -> int:
        return len(self.vertex_loci) + len(self.edge_loci)


def complete_collisions(m: OrientedMap, ms: MotionSchedule) -> CollisionReport:
    """All collision loci: vertices where every corner is hit at once, and
    interior edge points where cars on the two sides meet."""
    validate_motion(m, ms)
    horizon = collision_horizon(ms)
    on_face = _indexes_by_face(m, ms, horizon)

    vertex_loci = {}
    for vertex in m.vertices():
        times = _corner_times(on_face, vertex[0], horizon)
        for corner in vertex[1:]:
            times = intersect_intervals(times, _corner_times(on_face, corner, horizon))
        if times:
            vertex_loci[vertex] = normalize_intervals(times, horizon)

    edge_events: dict[tuple[int, Fraction], list] = {}
    owners = {
        d: (f, j) for f, b in enumerate(m.faces) for j, d in enumerate(b)
    }
    for edge in m.edge_ids:
        fp, jp = owners[(edge, 1)]
        fm, jm = owners[(edge, -1)]
        for _, plus in on_face.get(fp, ()):
            for _, minus in on_face.get(fm, ()):
                _window_meetings(edge, plus.get(jp, ()), minus.get(jm, ()), edge_events)
    edge_loci = {
        key: normalize_intervals(items, horizon)
        for key, items in sorted(edge_events.items())
    }
    return CollisionReport(horizon, vertex_loci, edge_loci)


def _window_meetings(edge, plus, minus, out):
    """Meetings inside one edge of a car on its + dart and one on its - dart.

    The + side car at dart parameter lam and the - side car at mu meet
    when lam + mu = 1, both strictly inside (0, 1)."""
    ends = [w[1] for w in minus]
    for a0, a1, lam0, sa in plus:
        i = bisect_left(ends, a0)
        while i < len(minus) and minus[i][0] <= a1:
            b0, b1, mu0, sb = minus[i]
            i += 1
            lo, hi = max(a0, b0), min(a1, b1)
            lam = lam0 + sa * (lo - a0)
            gap = 1 - lam - mu0 - sb * (lo - b0)
            if sa + sb == 0:
                # both cars rest, strictly inside the edge
                if gap == 0:
                    out.setdefault((edge, lam), []).append((lo, hi))
                continue
            dt = gap / (sa + sb)
            if 0 <= dt <= hi - lo:
                lam += sa * dt
                if 0 < lam < 1:
                    t = lo + dt
                    out.setdefault((edge, lam), []).append((t, t))


# ---------------------------------------------------------------------------
# multiple motions
# ---------------------------------------------------------------------------


def time_shifted_car(car: CarSchedule, L: int, shift: Fraction) -> CarSchedule:
    """The car running `shift` earlier: new(t) == old(t + shift)."""
    shift = Fraction(shift)
    P = car.period
    pts = []
    for t, _ in car.breakpoints:
        tt = (t - shift) % P
        pts.append((tt, position_at(car, L, tt + shift)))
    pts.sort()
    drop = L * (pts[0][1] // L)
    return CarSchedule(
        car.face, P, tuple((t, p - drop) for t, p in pts), degree=car.degree
    )


def _functions_equal(car_a, car_b, L: int, shift: Fraction, offset: Fraction):
    """Does car_a(t + shift) == car_b(t) + offset hold identically?"""
    if car_a.period != car_b.period or car_a.degree != car_b.degree:
        return False
    Pc = car_a.period
    times = {t % Pc for t, _ in car_b.breakpoints}
    times |= {(t - shift) % Pc for t, _ in car_a.breakpoints}
    # agreement at every breakpoint of either side pins both piecewise
    # linear functions on the intervals in between
    return all(
        position_at(car_a, L, t + shift) == position_at(car_b, L, t) + offset
        for t in times
    )


def as_multiple_motion(m: OrientedMap, ms: MotionSchedule) -> dict:
    """Group cars by face and verify the successor property.

    Car j of a face must run one global period ahead of car j+1, the last
    wrapping around to the first shifted by one full lap.  Every face
    needs a car and every car a positive share of the lap per period.
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
        for car in cars:
            if car.period != d * T:
                raise MotionError(
                    f"face {f}: car period {car.period} is not {d} * {T}"
                )
            if position_at(car, L, T) <= position_at(car, L, Fraction(0)):
                raise MotionError(f"face {f}: car makes no progress over T")
        for j in range(d):
            nxt = (j + 1) % d
            offset = Fraction(L if nxt == 0 else 0)
            if not _functions_equal(cars[j], cars[nxt], L, T, offset):
                raise MotionError(
                    f"face {f}: car {j} shifted by T does not match car {nxt}"
                )
    return groups


def multiplicities(m: OrientedMap, ms: MotionSchedule) -> dict[int, int]:
    return {f: len(cars) for f, cars in as_multiple_motion(m, ms).items()}


def lemma16_bound(m: OrientedMap, ms: MotionSchedule, collisions=None) -> dict:
    """Loci count of a multiple motion against chi + sum of (d_i - 1)."""
    mult = multiplicities(m, ms)
    chi = m.euler_characteristic()
    bound = chi + sum(d - 1 for d in mult.values())
    if collisions is None:
        collisions = complete_collisions(m, ms)
    loci = collisions.spatial_count
    return {"chi": chi, "bound": bound, "loci": loci, "holds": loci >= bound}


# ---------------------------------------------------------------------------
# stops
# ---------------------------------------------------------------------------


def check_separated_stops(m: OrientedMap, ms: MotionSchedule) -> dict:
    """Stops must sit on declared corners, grouped at least two per vertex,
    with cyclically consecutive stop corners never occupied at once."""
    validate_motion(m, ms)
    horizon = collision_horizon(ms)
    problems = []
    for car in ms.cars:
        L = len(m.faces[car.face])
        for ta, tb, p in flat_segments(car, L):
            if tb - ta >= car.period:
                continue  # parked car, not a stop
            if p.denominator != 1:
                problems.append(f"car on face {car.face} rests mid-dart at {p}")
            elif (car.face, int(p) % L) not in ms.stop_corners:
                problems.append(f"undeclared stop at {(car.face, int(p) % L)}")

    on_face = _indexes_by_face(m, ms, horizon) if ms.stop_corners else {}
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
            if intersect_intervals(
                _corner_times(on_face, a, horizon), _corner_times(on_face, b, horizon)
            ):
                problems.append(
                    f"consecutive stop corners {a} and {b} occupied together"
                )
    return {"ok": not problems, "problems": problems}


# ---------------------------------------------------------------------------
# standard schedules
# ---------------------------------------------------------------------------


def _pattern(kind: str, mval: int, extras: dict) -> tuple[int, ...]:
    if kind == "a":
        return (1, -1)
    if kind == "b":
        return (1,) + (1, -1) * (mval + 1)
    if kind == "c":
        return (-1,) + (-1, 1) * (mval + 1)
    k, l, s = extras["k"], extras["l"], extras["s"]
    return ((1,) * (k + 1) + (-1,) * (l + 1)) * s


def _anchor_rotation(profile, pattern) -> int:
    L = len(profile)
    for r in range(L):
        if all(profile[(r + p) % L] == pattern[p] for p in range(L)):
            return r
    raise MotionError(f"profile {profile} does not match pattern {pattern}")


def _base_breakpoints(kind: str, mval: int, extras: dict):
    """Pattern-coordinate breakpoints of the standard car."""
    F = Fraction
    if kind == "a":
        return [(F(0), F(1))]
    if kind == "b":
        if mval == 0:
            return [(F(0), F(2)), (F(1), F(3)), (F(3, 2), F(4))]
        return [
            (F(0), F(2)),
            (F(2 * mval + 2), F(2 * mval + 4)),
            (F(4 * mval + 1), F(2 * mval + 4)),
        ]
    if kind == "c":
        if mval == 0:
            return [(F(0), F(0)), (F(1, 2), F(1)), (F(1), F(2))]
        return [(F(0), F(0)), (F(1), F(1)), (F(2 * mval), F(1))]
    k, l = extras["k"], extras["l"]
    if mval == 0:
        return [(F(0), F(k + 1)), (F(1), F(k + l + 2))]
    return [
        (F(0), F(k + 1)),
        (F(1), F(k + 2)),
        (F(2 * mval), F(k + 2)),
        (F(2 * mval + 1), F(k + l + 2)),
        (F(2 * mval + 2), F(2 * k + l + 2)),
        (F(4 * mval + 1), F(2 * k + l + 2)),
    ]


def _shift_into_range(bps, r: int, L: int):
    """Move pattern coordinates to absolute ones, first position in [0, L)."""
    shifted = [(t, p + r) for t, p in bps]
    drop = L * (shifted[0][1] // L)
    return tuple((t, p - drop) for t, p in shifted)


def _saddle_corners(m: OrientedMap) -> frozenset[Corner]:
    return frozenset(
        c for c in m.corners() if m.corner_type(c) in ((1, 1), (-1, -1))
    )


def standard_motion(m: OrientedMap, info: Optional[dict] = None) -> MotionSchedule:
    """The period 4m+2 schedule for maps whose faces fit the basic shapes."""
    if info is None:
        info = classify_map(m)
    if info["family"] != "A":
        raise MotionError("map has repeating block faces; build lifts instead")
    mval = info["m"] if info["m"] is not None else 0
    T = Fraction(4 * mval + 2)
    cars = []
    for f, (kind, extras) in enumerate(info["faces"]):
        profile = m.face_sign_profile(f)
        L = len(profile)
        r = _anchor_rotation(profile, _pattern(kind, mval, extras))
        bps = _shift_into_range(_base_breakpoints(kind, mval, extras), r, L)
        period = Fraction(2) if (kind == "a" or mval == 0) else T
        cars.append(CarSchedule(f, period, bps, degree=1))
    stops = _saddle_corners(m) if mval > 0 else frozenset()
    return MotionSchedule(T, tuple(cars), stops)


def standard_multiple_motion(
    m: OrientedMap, info: Optional[dict] = None
) -> MotionSchedule:
    """Lifted schedule for maps with repeating block faces.

    A face of s repeated blocks carries s cars, each one block apart and
    one global period behind the next.
    """
    if info is None:
        info = classify_map(m)
    mval = info["m"] if info["m"] is not None else 0
    T = Fraction(4 * mval + 2)
    cars = []
    for f, (kind, extras) in enumerate(info["faces"]):
        profile = m.face_sign_profile(f)
        L = len(profile)
        pattern = _pattern(kind, mval, extras)
        r = _anchor_rotation(profile, pattern)
        if kind == "a" and mval > 0:
            raise MotionError("2-gon faces have no lift at this period")
        if kind in ("a", "b", "c") or extras["s"] == 1:
            bps = _shift_into_range(_base_breakpoints(kind, mval, extras), r, L)
            period = Fraction(2) if (kind == "a" or mval == 0) else T
            cars.append(CarSchedule(f, period, bps, degree=1))
            continue
        s = extras["s"]
        block = L // s
        base = _shift_into_range(
            _base_breakpoints(kind, mval, extras), r % block, block
        )
        for j in range(s):
            bps = tuple(
                (t + q * T, p + (j + q) * block)
                for q in range(s)
                for t, p in base
            )
            cars.append(CarSchedule(f, s * T, bps, degree=1))
    stops = _saddle_corners(m) if mval > 0 else frozenset()
    return MotionSchedule(T, tuple(cars), stops)


def verify_source_sink_collisions(
    m: OrientedMap, ms: MotionSchedule, collisions=None
) -> dict:
    """For the standard schedules: collisions happen only at pure sink or
    pure source vertices, sinks at even instants and sources at odd."""
    rep = collisions if collisions is not None else complete_collisions(m, ms)
    problems = []
    if rep.edge_loci:
        problems.append(f"edge collisions at {sorted(rep.edge_loci)}")
    for vertex, times in rep.vertex_loci.items():
        kind = m.classify_vertex(vertex)
        if kind not in ("sink", "source"):
            problems.append(f"collision at mixed vertex {vertex}")
            continue
        if any(a != b for a, b in times):
            problems.append(f"vertex {vertex} occupied over an interval")
        want = 0 if kind == "sink" else 1
        for t in intervals_instants(times, rep.horizon):
            if t.denominator != 1 or t % 2 != want:
                problems.append(f"{kind} vertex {vertex} collides at t={t}")
    return {"ok": not problems, "problems": problems, "report": rep}


# ---------------------------------------------------------------------------
# blow-up
# ---------------------------------------------------------------------------


def _reference_time(car: CarSchedule, L: int):
    """A time at which the car sits strictly inside a dart."""
    for ta, pa, tb, pb in car_segments(car, L):
        if pa == pb:
            continue
        slope = (pb - pa) / (tb - ta)
        g = pa // 1 + 1
        pm = (max(pa, g - 1) + g) / 2 if g <= pb else (pa + pb) / 2
        if pm % 1 != 0:
            return ta + (pm - pa) / slope
    raise MotionError("car never leaves the corners")


def _car_events(car: CarSchedule, L: int, stops: set):
    """Stops at and passes through the stop corners over one period.

    Returns (t_ref, events); events are ("stop", u, u2, lifted_pos) or
    ("pass", t, lifted_pos, slope_in, slope_out), time-ordered inside
    the window [t_ref, t_ref + period].
    """
    P = car.period
    climb = car.degree * L
    t_ref = _reference_time(car, L)
    doubled = car_segments(car, L)
    doubled += [
        (ta + P, pa + climb, tb + P, pb + climb) for ta, pa, tb, pb in doubled
    ]
    window = []
    for ta, pa, tb, pb in doubled:
        lo, hi = max(ta, t_ref), min(tb, t_ref + P)
        if lo >= hi:
            continue
        slope = (pb - pa) / (tb - ta)
        window.append((lo, pa + slope * (lo - ta), hi, pa + slope * (hi - ta)))
    window.sort()

    events = []
    for idx, (ta, pa, tb, pb) in enumerate(window):
        if pa == pb:
            if pa % L in stops:
                events.append(("stop", ta, tb, pa))
            continue
        slope = (pb - pa) / (tb - ta)
        n = pa // 1 + 1
        while n <= pb:
            if n % L in stops:
                t = ta + (n - pa) / slope
                if t < tb:
                    events.append(("pass", t, Fraction(n), slope, slope))
                elif idx + 1 < len(window):
                    nta, npa, ntb, npb = window[idx + 1]
                    if npa != npb:
                        # crossing exactly at a junction of moving pieces
                        s2 = (npb - npa) / (ntb - nta)
                        events.append(("pass", t, Fraction(n), slope, s2))
                    # a flat right after the junction is a stop instead
            n += 1
    events.sort(key=lambda e: e[1])
    return t_ref, events


def _blow_up_car(car: CarSchedule, L: int, stops: set, eps: Fraction):
    """Reroute one car through the doubled corners of its face."""
    t_ref, events = _car_events(car, L, stops)
    P = car.period
    p_ref = position_at(car, L, t_ref)
    frac0 = p_ref % L
    base = frac0 + 2 * sum(1 for q in stops if q < frac0) - p_ref
    cnt = 0

    consumed = set()
    for ev in events:
        if ev[0] == "stop":
            consumed |= {ev[1] % P, ev[2] % P}
        else:
            consumed.add(ev[1] % P)
    plain = []
    for t, _ in car.breakpoints:
        tt = t if t >= t_ref else t + P
        if t_ref < tt < t_ref + P and tt % P not in consumed:
            plain.append((tt, None))

    out = [(t_ref, p_ref + base)]
    for tt, ev in sorted(plain + [(ev[1], ev) for ev in events]):
        if ev is None:
            out.append((tt, position_at(car, L, tt) + base + 2 * cnt))
        elif ev[0] == "stop":
            _, u, u2, c = ev
            out.append((u, c + base + 2 * cnt))
            cnt += 1
            out.append((u2, c + base + 2 * cnt))
        else:
            _, t0, c, s1, s2 = ev
            at = c + base + 2 * cnt
            out.append((t0 - eps, at - s1 * eps))
            out.append((t0 - eps / 2, at))
            cnt += 1
            out.append((t0 + eps / 2, c + base + 2 * cnt))
            out.append((t0 + eps, c + base + 2 * cnt + s2 * eps))

    if cnt != car.degree * len(stops):
        raise MotionError("miscounted corner crossings")  # pragma: no cover
    L2 = L + 2 * len(stops)
    climb2 = car.degree * L2
    norm = sorted((t % P, p - (t // P) * climb2) for t, p in out)
    dedup: list[tuple[Fraction, Fraction]] = []
    for t, p in norm:
        if dedup and dedup[-1][0] == t:
            if dedup[-1][1] != p:
                raise MotionError("inconsistent rewrite")  # pragma: no cover
            continue
        dedup.append((t, p))
    drop = L2 * (dedup[0][1] // L2)
    bps = tuple((t, p - drop) for t, p in dedup)
    return CarSchedule(car.face, P, bps, degree=car.degree)


def blow_up(m: OrientedMap, ms: MotionSchedule):
    """Split every stop vertex into a star: each stop corner gets a spur to
    a fresh center vertex and cars traverse the spur instead of resting.

    Returns (new_map, new_motion, report).  Needs separated stops; retries
    with smaller detour windows until nothing collides on the new edges.
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

    new_faces = []
    for f, boundary in enumerate(m.faces):
        out: list[Dart] = []
        for j, dart in enumerate(boundary):
            out += insertions.get((f, j), [])
            out.append(dart)
        new_faces.append(tuple(out))
    new_map = OrientedMap(m.surface, tuple(new_faces))
    new_edge_ids = set(range(first_new, next_edge))

    stops_by_face: dict[int, set] = {}
    for f, j in ms.stop_corners:
        stops_by_face.setdefault(f, set()).add(j)

    gaps = []
    for car in ms.cars:
        stops = stops_by_face.get(car.face, set())
        if not stops:
            continue
        t_ref, events = _car_events(car, len(m.faces[car.face]), stops)
        times = {t_ref % car.period}
        for ev in events:
            times |= {ev[1] % car.period, ev[2] % car.period} if ev[0] == "stop" \
                else {ev[1] % car.period}
        times |= {t for t, _ in car.breakpoints}
        ordered = sorted(times)
        for i, t in enumerate(ordered):
            gap = (ordered[(i + 1) % len(ordered)] - t) % car.period
            if gap > 0:
                gaps.append(gap)
    eps = min(gaps) / 4 if gaps else Fraction(1, 4)

    for attempt in range(8):
        new_cars = []
        for car in ms.cars:
            stops = stops_by_face.get(car.face, set())
            if not stops:
                new_cars.append(car)
            else:
                new_cars.append(_blow_up_car(car, len(m.faces[car.face]), stops, eps))
        new_ms = MotionSchedule(ms.period, tuple(new_cars), frozenset())
        validate_motion(new_map, new_ms)
        rep = complete_collisions(new_map, new_ms)
        bad_edges = [key for key in rep.edge_loci if key[0] in new_edge_ids]
        bad_centers = [
            v
            for v in rep.vertex_loci
            if all(new_map.dart_at(c)[0] in new_edge_ids for c in v)
        ]
        if not bad_edges and not bad_centers:
            return new_map, new_ms, {
                "identity": False,
                "new_edges": tuple(sorted(new_edge_ids)),
                "epsilon": eps,
                "retries": attempt,
            }
        eps /= 2
    raise MotionError("blow-up kept colliding on the new edges")

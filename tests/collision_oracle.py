"""Reference collision search: every pair of replicated segments, per edge.

This is the original quadratic search of `spheremotion.motion`, kept as
the oracle that `complete_collisions` is compared against, together with
the stop audit of `check_separated_stops` on top of its corner occupancy.  Each car is
replicated from one period before its first breakpoint, so every pair of
cars is compared over the whole horizon [0, H] whatever their first
breakpoint times.  Slow on purpose: keep inputs small.

The segments come from the raw breakpoints here, not from the program's
int lap tables.  `position_at` is the original scan over them, the oracle
of the program's bisecting reader, and `car_index`, `reference_time`,
`is_regular`, `offset` and `time_shifted_car` are the program's earlier
Fraction walks over them.  `int_lap` is the program's earlier builder of
lap tables from Fraction breakpoints, the oracle of the tables that cars
and cocars build from their stored ints.  `multiple_motion_groups` is the
successor check with its earlier Fraction bookkeeping, and
`reference_blow_up` the blow-up's earlier retry loop: it rebuilds every
blown-up car from Fraction pairs and runs `complete_collisions` over the
whole new map for each eps.  `window_meetings` finds where two dart
windows meet by interpolating between the ends of their overlap, the
oracle of the program's line solve.  `intervals_instants` reads a
locus's instants off its Fraction spans, the oracle of the int instants
that a collision report keeps.
"""

import math
from fractions import Fraction

from spheremotion.motion import (
    CarSchedule,
    CollisionReport,
    MotionError,
    MotionSchedule,
    check_separated_stops,
    collision_horizon,
    complete_collisions,
    intersect_intervals,
    normalize_intervals,
    validate_motion,
)
from spheremotion.surface import OrientedMap


def intervals_instants(ivs, T: Fraction) -> list[Fraction]:
    """One representative point per component, reduced into [0, T)."""
    return sorted({a if a < T else Fraction(0) for a, b in ivs})


def car_segments(car, L: int):
    """Linear pieces (ta, pa, tb, pb) covering [t0, t0 + period]."""
    bps = car.breakpoints
    segs = []
    for i in range(len(bps) - 1):
        segs.append(bps[i] + bps[i + 1])
    segs.append(bps[-1] + (bps[0][0] + car.period, bps[0][1] + car.degree * L))
    return segs


def int_lap(bps, span, climb, *dens) -> tuple:
    """One lap of a piecewise-linear function of rational breakpoints
    (x, y) that climbs `climb` per `span`, in integers, with its scales:
    ((xs, ys, span, climb), sx, sy), the breakpoints closed by
    (x0 + span, y0 + climb), x times sx and y times sy.  sx is the lcm of
    the x denominators and span's, sy that of the y denominators,
    climb's and the extra denominators `dens`."""
    sx = math.lcm(span.denominator, *(x.denominator for x, _ in bps))
    sy = math.lcm(climb.denominator, *dens, *(y.denominator for _, y in bps))
    xs = [x.numerator * (sx // x.denominator) for x, _ in bps]
    ys = [y.numerator * (sy // y.denominator) for _, y in bps]
    span = span.numerator * (sx // span.denominator)
    climb = climb.numerator * (sy // climb.denominator)
    xs.append(xs[0] + span)
    ys.append(ys[0] + climb)
    return (xs, ys, span, climb), sx, sy


def unscaled(lap) -> tuple:
    """An `int_lap` table divided by its scales: (xs, ys, span, climb) as
    Fractions."""
    (xs, ys, span, climb), sx, sy = lap
    return ([Fraction(x, sx) for x in xs], [Fraction(y, sy) for y in ys],
            Fraction(span, sx), Fraction(climb, sy))


def flat_segments(car, L: int):
    return [(ta, tb, pa) for ta, pa, tb, pb in car_segments(car, L) if pa == pb]


def position_at(car, L: int, t: Fraction) -> Fraction:
    t = Fraction(t)
    t0 = car.breakpoints[0][0]
    laps = (t - t0) // car.period
    tau = t - laps * car.period
    for ta, pa, tb, pb in car_segments(car, L):
        if ta <= tau <= tb:
            pos = pa if tb == ta else pa + (tau - ta) * (pb - pa) / (tb - ta)
            return pos + laps * car.degree * L
    raise RuntimeError(f"time {t} not covered")


def reference_time(car, L: int):
    """`spheremotion.motion._reference_time` over Fractions: its oracle."""
    for ta, pa, tb, pb in car_segments(car, L):
        if pa == pb:
            continue
        slope = (pb - pa) / (tb - ta)
        g = pa // 1 + 1
        pm = (max(pa, g - 1) + g) / 2 if g <= pb else (pa + pb) / 2
        if pm % 1 != 0:
            return ta + (pm - pa) / slope
    raise MotionError("car never leaves the corners")


def is_regular(m, ms) -> bool:
    """`spheremotion.motion.is_regular` over Fractions: its oracle."""
    for car in ms.cars:
        if car.degree < 1:
            return False
        segs = car_segments(car, len(m.faces[car.face]))
        if any(pa == pb and pa.denominator != 1 for _, pa, _, pb in segs):
            return False
    return True


def offset(car_a, car_b, L: int, shift: Fraction):
    """`spheremotion.motion._offset` over Fractions: the gap between
    car_a(t + shift) and car_b(t) at every breakpoint time of either, or
    None when it is not constant; its oracle."""
    if car_a.period != car_b.period or car_a.degree != car_b.degree:
        return None
    Pc = car_a.period
    times = {t % Pc for t, _ in car_b.breakpoints}
    times |= {(t - shift) % Pc for t, _ in car_a.breakpoints}
    gaps = {position_at(car_a, L, t + shift) - position_at(car_b, L, t) for t in times}
    return gaps.pop() if len(gaps) == 1 else None


def multiple_motion_groups(m, ms) -> dict:
    """`spheremotion.motion.as_multiple_motion` with Fraction bookkeeping:
    periods, positions and offsets as Fractions, from `position_at` and
    `offset` here; its oracle, down to the car each refusal names."""
    validate_motion(m, ms)
    T = ms.period
    groups: dict[int, list] = {}
    for car in ms.cars:
        groups.setdefault(car.face, []).append(car)
    if set(groups) != set(range(m.face_count())):
        raise MotionError("a multiple motion needs cars on every face")
    for f, cars in groups.items():
        L = len(m.faces[f])
        d = len(cars)
        for car in cars:
            if car.period != d * T:
                raise MotionError(f"face {f}: car period {car.period} is not {d} * {T}")
            if position_at(car, L, T) <= position_at(car, L, 0):
                raise MotionError(f"face {f}: car makes no progress over T")
        offsets = []
        for j in range(d):
            nxt = (j + 1) % d
            o = offset(cars[j], cars[nxt], L, T)
            if o is None or o % L:
                raise MotionError(f"face {f}: car {j} shifted by T does not match car {nxt}")
            offsets.append(o)
        if sum(offsets) != L:
            j = next(j for j, o in enumerate(offsets) if o != (L if j == d - 1 else 0))
            raise MotionError(
                f"face {f}: car {j} shifted by T does not match car {(j + 1) % d}"
            )
    return groups


def time_shifted_car(car, L: int, shift: Fraction):
    """`spheremotion.motion.time_shifted_car` over Fractions, reading the
    position at every moved breakpoint: its oracle."""
    shift = Fraction(shift)
    P = car.period
    pts = []
    for t, _ in car.breakpoints:
        tt = (t - shift) % P
        pts.append((tt, position_at(car, L, tt + shift)))
    pts.sort()
    drop = L * (pts[0][1] // L)
    return CarSchedule(car.face, P, tuple((t, p - drop) for t, p in pts), degree=car.degree)


def car_index(car, L: int, horizon: Fraction) -> tuple[dict, dict]:
    """The index of `spheremotion.motion.car_index` over Fractions, piece by
    piece and replica by replica, uncached: its oracle."""
    reps = horizon / car.period
    if reps.denominator != 1:
        raise MotionError("horizon is not a multiple of the car period")
    visits: dict[int, list] = {}
    windows: dict[int, list] = {}
    pieces = car_segments(car, L)
    period, climb = car.period, car.degree * L
    # copies from one period back cover [0, H] whatever the first breakpoint
    for k in range(-1, int(reps)):
        dt, dp = k * period, k * climb
        for ta, pa, tb, pb in pieces:
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


def window_meetings(edge, plus, minus, D: int) -> dict:
    """`spheremotion.motion._window_meetings` over Fractions, every window
    of `plus` against every one of `minus`: its oracle.  Each window
    (t0, t1, p, q, k) is read only at the ends of an overlap [lo, hi], as
    the dart parameter (p + q * t) / k at an int time t over D, and
    f = lam + mu - 1 is interpolated between them: it is linear in t.  A
    root at one instant is kept when 0 < lam < 1 there, and f zero at both
    ends is a meeting over all of [lo, hi] when 0 < lam < 1 at lo.
    Returns {(edge, lam): sorted times}."""
    out: dict = {}
    for a0, a1, pa, qa, ka in plus:
        for b0, b1, pb, qb, kb in minus:
            lo, hi = max(a0, b0), min(a1, b1)
            if lo > hi:
                continue
            lam_lo, lam_hi = Fraction(pa + qa * lo, ka), Fraction(pa + qa * hi, ka)
            f_lo = lam_lo + Fraction(pb + qb * lo, kb) - 1
            f_hi = lam_hi + Fraction(pb + qb * hi, kb) - 1
            if f_lo == f_hi:
                if f_lo == 0 and 0 < lam_lo < 1:
                    out.setdefault((edge, lam_lo), []).append((Fraction(lo, D), Fraction(hi, D)))
                continue
            x = f_lo / (f_lo - f_hi)  # the root's place in [lo, hi], from 0 to 1
            lam = lam_lo + x * (lam_hi - lam_lo)
            if 0 <= x <= 1 and 0 < lam < 1:
                t = (lo + x * (hi - lo)) / D
                out.setdefault((edge, lam), []).append((t, t))
    return {key: sorted(items) for key, items in out.items()}


def _reduce_interval(a: Fraction, b: Fraction, T: Fraction):
    """Shift a closed interval into [0, T], splitting across the seam."""
    if b - a >= T:
        return [(Fraction(0), T)]
    shift = T * (a // T)
    a, b = a - shift, b - shift
    if b <= T:
        return [(a, b)]
    return [(a, T), (Fraction(0), b - T)]


def replicated_segments(car, L: int, horizon: Fraction):
    reps = horizon / car.period
    assert reps.denominator == 1
    climb = car.degree * L
    segs = car_segments(car, L)
    out = []
    for k in range(-1, int(reps)):
        dt, dp = k * car.period, k * climb
        out += [(ta + dt, pa + dp, tb + dt, pb + dp) for ta, pa, tb, pb in segs]
    return out


def corner_occupancy(car, L: int, j: int, horizon: Fraction):
    items = []
    for ta, pa, tb, pb in replicated_segments(car, L, horizon):
        if pa == pb:
            if (pa - j) % L == 0:
                items += _reduce_interval(ta, tb, horizon)
        else:
            slope = (pb - pa) / (tb - ta)
            n = -((-Fraction(pa - j, L)) // 1)
            while j + n * L <= pb:
                t = (ta + (j + n * L - pa) / slope) % horizon
                items.append((t, t))
                n += 1
    return normalize_intervals(items, horizon)


def edge_meetings(edge, sp, sm, jp, jm, Lp, Lm, horizon, out):
    """Meetings of two car segments in the interior of one edge."""
    ta, pa, tb, pb = sp
    ua, qa, ub, qb = sm
    lo, hi = max(ta, ua), min(tb, ub)
    if lo > hi:
        return
    slope_p = (pb - pa) / (tb - ta)
    slope_q = (qb - qa) / (ub - ua)
    p_lo = pa + slope_p * (lo - ta)
    p_hi = pa + slope_p * (hi - ta)
    q_lo = qa + slope_q * (lo - ua)
    q_hi = qa + slope_q * (hi - ua)
    total = slope_p + slope_q
    for n in range((p_lo - jp) // Lp - 1, (p_hi - jp) // Lp + 2):
        for k in range((q_lo - jm) // Lm - 1, (q_hi - jm) // Lm + 2):
            target = 1 + jp + jm + n * Lp + k * Lm
            if total == 0:
                if p_lo + q_lo == target:
                    lam = p_lo - jp - n * Lp
                    mu = q_lo - jm - k * Lm
                    if 0 < lam < 1 and 0 < mu < 1:
                        out.setdefault((edge, lam), []).extend(
                            _reduce_interval(lo, hi, horizon)
                        )
                continue
            t = lo + (target - (p_lo + q_lo)) / total
            if not (lo <= t <= hi):
                continue
            lam = pa + slope_p * (t - ta) - jp - n * Lp
            mu = qa + slope_q * (t - ua) - jm - k * Lm
            if 0 < lam < 1 and 0 < mu < 1:
                tr = t % horizon
                out.setdefault((edge, lam), []).append((tr, tr))


def reference_collisions(m, ms) -> CollisionReport:
    validate_motion(m, ms)
    horizon = collision_horizon(ms)
    by_face = {}
    for car in ms.cars:
        by_face.setdefault(car.face, []).append(car)

    vertex_loci = {}
    for vertex in m.vertices():
        sets = []
        for f, j in vertex:
            L = len(m.faces[f])
            items = []
            for car in by_face.get(f, []):
                items += list(corner_occupancy(car, L, j, horizon))
            sets.append(normalize_intervals(items, horizon))
        times = sets[0]
        for s in sets[1:]:
            times = intersect_intervals(times, s)
        if times:
            vertex_loci[vertex] = normalize_intervals(times, horizon)

    edge_events = {}
    owners = {d: (f, j) for f, b in enumerate(m.faces) for j, d in enumerate(b)}
    for edge in m.edge_ids:
        fp, jp = owners[(edge, 1)]
        fm, jm = owners[(edge, -1)]
        Lp, Lm = len(m.faces[fp]), len(m.faces[fm])
        for cp in by_face.get(fp, []):
            segs_p = replicated_segments(cp, Lp, horizon)
            for cm in by_face.get(fm, []):
                segs_m = replicated_segments(cm, Lm, horizon)
                for sp in segs_p:
                    for sm in segs_m:
                        edge_meetings(edge, sp, sm, jp, jm, Lp, Lm, horizon, edge_events)
    edge_loci = {
        key: normalize_intervals(items, horizon)
        for key, items in sorted(edge_events.items())
    }
    return CollisionReport(horizon, vertex_loci, edge_loci)


def reference_stop_audit(m, ms) -> dict:
    """The stop audit, every car's corner times walked from its segments."""
    validate_motion(m, ms)
    horizon = collision_horizon(ms)
    problems = []
    for car in ms.cars:
        L = len(m.faces[car.face])
        for ta, tb, p in flat_segments(car, L):
            if tb - ta >= car.period:
                continue
            if p.denominator != 1:
                problems.append(f"car on face {car.face} rests mid-dart at {p}")
            elif (car.face, int(p) % L) not in ms.stop_corners:
                problems.append(f"undeclared stop at {(car.face, int(p) % L)}")

    def occupied(corner):
        f, j = corner
        L = len(m.faces[f])
        items = []
        for car in ms.cars:
            if car.face == f:
                items += list(corner_occupancy(car, L, j, horizon))
        return normalize_intervals(items, horizon)

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
            if intersect_intervals(occupied(a), occupied(b)):
                problems.append(f"consecutive stop corners {a} and {b} occupied together")
    return {"ok": not problems, "problems": problems}


def car_events(car, L: int, stops: set):
    """The blow-up's stops and passes of one car over one period, from the
    replica walk: (t_ref, events), t_ref reduced into [0, period) and
    events ("stop", u, u2, lifted_pos) or ("pass", t, lifted_pos,
    slope_in, slope_out), in time order inside (t_ref, t_ref + period)."""
    P = car.period
    t_ref = reference_time(car, L) % P
    visits, windows = car_index(car, L, 2 * P)
    events = []
    for j in stops:
        for a, b in visits.get(j, ()):
            if not t_ref < a < t_ref + P:
                continue
            c = position_at(car, L, a)
            if a < b:
                events.append(("stop", a, b, c))
            else:
                s1 = next(w[3] for w in windows[(j - 1) % L] if w[1] == a)
                s2 = next(w[3] for w in windows[j] if w[0] == a)
                events.append(("pass", a, c, s1, s2))
    events.sort(key=lambda e: e[1])
    return t_ref, events


def free_times(car, t_ref, events) -> list:
    """The car's breakpoint times moved into (t_ref, t_ref + period) that
    no stop or pass of `events` spans: the ones its blow-up keeps."""
    P = car.period
    busy = [(ev[1], ev[2] if ev[0] == "stop" else ev[1]) for ev in events]
    out = []
    for t, _ in car.breakpoints:
        tt = t if t >= t_ref else t + P
        if t_ref < tt < t_ref + P and not any(u <= tt <= u2 for u, u2 in busy):
            out.append(tt)
    return out


def blow_up_car(car, L: int, stops: set, eps: Fraction, t_ref, events):
    """One car rerouted through the spurs of its face, from Fraction pairs."""
    P = car.period
    if len(events) != car.degree * len(stops):
        raise RuntimeError("miscounted corner crossings")

    def stretch(p):
        laps, r = divmod(p, L)
        return p + 2 * (laps * len(stops) + sum(1 for q in stops if q < r))

    out = [(t_ref, stretch(position_at(car, L, t_ref)))]
    for ev in events:
        if ev[0] == "stop":
            _, u, u2, c = ev
            out += [(u, stretch(c)), (u2, stretch(c) + 2)]
        else:
            _, t0, c, s1, s2 = ev
            at = stretch(c)
            out += [(t0 - eps, at - s1 * eps), (t0 - eps / 2, at),
                    (t0 + eps / 2, at + 2), (t0 + eps, at + 2 + s2 * eps)]
    out += [(tt, stretch(position_at(car, L, tt))) for tt in free_times(car, t_ref, events)]

    L2 = L + 2 * len(stops)
    climb2 = car.degree * L2
    norm = sorted((t % P, p - (t // P) * climb2) for t, p in out)
    dedup = []
    for t, p in norm:
        if dedup and dedup[-1][0] == t:
            if dedup[-1][1] != p:
                raise RuntimeError("inconsistent rewrite")
            continue
        dedup.append((t, p))
    drop = L2 * (dedup[0][1] // L2)
    return CarSchedule(car.face, P, tuple((t, p - drop) for t, p in dedup), degree=car.degree)


def reference_blow_up(m, ms):
    """`spheremotion.motion.blow_up` as a retry loop: every blown-up car is
    rebuilt from Fraction pairs for each eps, and eps halves while
    `complete_collisions` over the whole new map finds a collision inside a
    spur or at a centre, until eps * D < 1, D the schedule's time scale."""
    if not ms.stop_corners:
        return m, ms, {"identity": True, "new_edges": (), "retries": 0}
    sep = check_separated_stops(m, ms)
    if not sep["ok"]:
        raise MotionError("stops are not separated: " + "; ".join(sep["problems"]))
    if not is_regular(m, ms):
        raise MotionError("blow-up needs a regular schedule")

    next_edge = max(m.edge_ids) + 1
    first_new = next_edge
    insertions = {}
    for vertex in m.vertices():
        stops_here = [c for c in vertex if c in ms.stop_corners]
        if not stops_here:
            continue
        k = len(stops_here)
        ids = list(range(next_edge, next_edge + k))
        next_edge += k
        for i, corner in enumerate(stops_here):
            insertions[corner] = [(ids[i], 1), (ids[i - 1], -1)]
    new_faces = []
    for f, boundary in enumerate(m.faces):
        out = []
        for j, dart in enumerate(boundary):
            out += insertions.get((f, j), [])
            out.append(dart)
        new_faces.append(tuple(out))
    new_map = OrientedMap(m.surface, tuple(new_faces))
    new_edge_ids = set(range(first_new, next_edge))

    stops_by_face = {}
    for f, j in ms.stop_corners:
        stops_by_face.setdefault(f, set()).add(j)
    events_by_car = {}
    gaps = []
    for k, car in enumerate(ms.cars):
        stops = stops_by_face.get(car.face, set())
        if not stops:
            continue
        t_ref, events = car_events(car, len(m.faces[car.face]), stops)
        events_by_car[k] = (t_ref, events)
        times = {t_ref}
        for ev in events:
            times |= {ev[1] % car.period, ev[2] % car.period} if ev[0] == "stop" \
                else {ev[1] % car.period}
        times |= {t % car.period for t in free_times(car, t_ref, events)}
        ordered = sorted(times)
        for i, t in enumerate(ordered):
            gap = (ordered[(i + 1) % len(ordered)] - t) % car.period
            if gap > 0:
                gaps.append(gap)
    eps = min(gaps) / 4 if gaps else Fraction(1, 4)

    D = validate_motion(m, ms)["D"]
    retries = 0
    while True:
        new_cars = []
        for k, car in enumerate(ms.cars):
            if k not in events_by_car:
                new_cars.append(car)
            else:
                L = len(m.faces[car.face])
                new_cars.append(blow_up_car(car, L, stops_by_face[car.face], eps,
                                            *events_by_car[k]))
        new_ms = MotionSchedule(ms.period, tuple(new_cars), frozenset())
        rep = complete_collisions(new_map, new_ms)
        bad_edges = [key for key in rep.edge_loci if key[0] in new_edge_ids]
        bad_centers = [v for v in rep.vertex_loci
                       if all(new_map.dart_at(c)[0] in new_edge_ids for c in v)]
        if not bad_edges and not bad_centers:
            return new_map, new_ms, {
                "identity": False,
                "new_edges": tuple(sorted(new_edge_ids)),
                "epsilon": eps,
                "retries": retries,
            }
        if eps * D < 1:
            raise RuntimeError("spurs collide below the time scale")
        eps /= 2
        retries += 1

"""Reference collision search: every pair of replicated segments, per edge.

This is the original quadratic search of `spheremotion.motion`, kept as
the oracle that `complete_collisions` is compared against.  Each car is
replicated from one period before its first breakpoint, so every pair of
cars is compared over the whole horizon [0, H] whatever their first
breakpoint times.  Slow on purpose: keep inputs small.
"""

from fractions import Fraction

from spheremotion.motion import (
    CollisionReport,
    car_segments,
    collision_horizon,
    intersect_intervals,
    normalize_intervals,
    validate_motion,
)


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

"""The lap-table comotion solver against the reference breakpoint scans."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import comotion_oracle as oracle
from spheremotion import comotion
from spheremotion.comotion import Cocar, Comotion
from spheremotion.fuzzing import (
    make_rng,
    pinwheel_variant,
    random_comotion,
    random_multiple_motion,
    random_sphere_map,
    random_subdivisions,
    random_torus_map,
)
from spheremotion.goldens import doubled_polygon_map, genus_map


def on_sphere_or_torus(rng):
    m = rng.choice([random_sphere_map, random_torus_map])(rng)
    m = random_subdivisions(m, rng, rng.randint(0, 3))
    return m, random_comotion(m, rng)


def on_genus(rng):
    m = random_subdivisions(genus_map(rng.choice([2, 3])), rng, rng.randint(0, 6))
    return m, random_comotion(m, rng)


def on_pinwheel(rng):
    m = pinwheel_variant(rng.randint(1, 20))
    return m, random_comotion(m, rng, rng.choice([None, 2]))


def induced(rng):
    m = rng.choice([random_sphere_map, random_torus_map])(rng)
    return m, comotion.induce_comotion(m, random_multiple_motion(m, rng))


def subdivided(rng):
    # the stretched darts put breakpoints at non-integer positions
    m, com = rng.choice([on_sphere_or_torus, induced])(rng)
    for _ in range(rng.randint(1, 3)):
        nxt = max(m.edge_ids) + 1
        m, com = comotion.subdivide_comotion(m, com, rng.choice(m.edge_ids), (nxt, nxt + 1))
    return m, com


def rational_period(rng):
    # half the draws put the period's denominator in no breakpoint time:
    # single-breakpoint cocars at integer times meet it only in degree * T
    m = rng.choice([random_sphere_map, random_torus_map])(rng)
    m = random_subdivisions(m, rng, rng.randint(0, 3))
    T = rng.choice([F(3, 2), F(5, 12), F(7, 3)])
    if rng.random() < 0.5:
        return m, random_comotion(m, rng, T)
    cocars = []
    for f, boundary in enumerate(m.faces):
        L = len(boundary)
        at = F(rng.randint(0, 4 * L - 1), 4)
        cocars.append(Cocar(f, rng.randint(0, min(2, L - 1)), ((at, F(rng.randint(0, 5))),)))
    return m, Comotion(T, tuple(cocars))


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def coprime_pinwheel(rng):
    # face f's positions and times have denominator PRIMES[f] or 1, so no
    # two cocars share a scale and each edge solves on the lcm of two
    m = pinwheel_variant(rng.randint(1, 8))
    T = rng.randint(2, 3)
    cocars = []
    for f, (boundary, q) in enumerate(zip(m.faces, PRIMES)):
        L = len(boundary)
        d = min(rng.choice([0, 1, 1, 2]), L - 1)
        t = F(rng.randint(1, 4 * q), q)
        if not L <= d * T * q <= L * (T * q - 1):  # always so for d = 0
            cocars.append(Cocar(f, 0, ((F(rng.randint(0, L * q - 1), q), t),)))
            continue
        w = [1] * L  # dart sweeps in units of 1/q, each under T
        for _ in range(d * T * q - L):
            w[rng.choice([j for j in range(L) if w[j] < T * q - 1])] += 1
        bps = []
        for j in range(L):
            bps.append((F(j), t))
            if rng.random() < 0.5:
                bps.append((j + F(rng.randint(1, q - 1), q), t + F(rng.randint(0, w[j]), q)))
            t += F(w[j], q)
        cocars.append(Cocar(f, d, tuple(bps)))
    return m, Comotion(F(T), tuple(cocars))


def outcome(fn, *args):
    try:
        return fn(*args)
    except comotion.ComotionError as exc:
        return ("raised", str(exc))


def probe_positions(cocar, L, rng):
    """Every breakpoint over four laps, lap boundaries, corners and random points."""
    p0 = cocar.breakpoints[0][0]
    xs = [p + k * L for p, _ in cocar.breakpoints for k in (-2, -1, 0, 1)]
    xs += [p0 + k * L for k in (-2, -1, 0, 1, 2)]
    xs += [F(j) for j in range(-L, 2 * L + 1)]
    xs += [F(rng.randint(-8 * L, 8 * L), rng.choice([3, 4, 7])) for _ in range(20)]
    return xs


@pytest.mark.parametrize(
    "build",
    [on_sphere_or_torus, on_genus, on_pinwheel, induced, subdivided, rational_period,
     coprime_pinwheel],
)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_lap_tables_match_the_breakpoint_scans(build, seed):
    rng = make_rng(seed)
    m, com = build(rng)
    T = com.period
    for cocar in com.cocars:
        L = len(m.faces[cocar.face])
        for x in probe_positions(cocar, L, rng):
            got = comotion.cotime_at(cocar, T, L, x)
            # a float equal to the oracle's Fraction would pass == alone
            assert type(got) is F and got == oracle.cotime_at(cocar, T, L, x)
    ct = comotion.corner_times(m, com)
    assert ct == oracle.corner_times(m, com)
    for (f, j), t in ct.items():
        assert type(t) is F and t == comotion.cotime_at(com.cocars[f], T, len(m.faces[f]), F(j))
    for edge in m.edge_ids:
        got = comotion.edge_components(m, com, edge)
        assert got == [tuple(map(oracle.ints, c)) for c in oracle.edge_components(m, com, edge)]
        # a bool or a float equal to the oracle's int would pass == alone
        assert all(oracle.is_int_pair(v) for a_b_time in got for v in a_b_time)
    got, want = comotion.comotion_collisions(m, com), oracle.comotion_collisions(m, com)
    assert list(got.vertex_loci.items()) == list(want.vertex_loci.items())
    assert all(type(t) is F for t in got.vertex_loci.values())
    assert list(got.edge_loci.items()) == list(want.edge_loci.items())
    assert outcome(comotion.weight_report, m, com) == outcome(oracle.weight_report, m, com)
    a, b, c = (F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3))

    def g(x, y):
        return a * x + b * y + c * x * y

    def h(x, y):
        return b * x - a * y + c

    assert comotion.lemma14_total(m, com, g, h) == oracle.lemma14_total(m, com, g, h)
    nxt = max(m.edge_ids) + 1
    for edge in rng.sample(m.edge_ids, min(3, len(m.edge_ids))):
        m2, got = comotion.subdivide_comotion(m, com, edge, (nxt, nxt + 1))
        assert (m2, got) == oracle.subdivide_comotion(m, com, edge, (nxt, nxt + 1))
        assert all(type(v) is F for c in got.cocars for bp in c.breakpoints for v in bp)


@pytest.mark.parametrize("start", range(3))
@pytest.mark.parametrize("j", range(3))
def test_span_check_refuses_a_full_period_at_its_boundary(j, start):
    # dart j of a triangle sweeps exactly T, then T - 1/q; dart 2 is the
    # one that wraps to the next lap, and the lap table starts at `start`
    m, T, q = doubled_polygon_map((1, 1, 1)), F(5, 3), 7
    for sweep, refused in ((T, True), (T - F(1, q), False)):
        steps = [(2 * T - sweep) / 2] * 3
        steps[j] = sweep
        times = [F(1, q), F(1, q) + steps[0], F(1, q) + steps[0] + steps[1]]
        bps = tuple((F(k), times[k % 3] + k // 3 * 2 * T) for k in range(start, start + 3))
        com = Comotion(T, (Cocar(0, 2, bps), Cocar(1, 0, ((F(0), F(0)),))))
        comotion.validate_comotion(m, com)
        if refused:
            msg = f"^dart {j} of face 0 sweeps a full period; subdivide first$"
            with pytest.raises(comotion.ComotionError, match=msg):
                comotion.weight_report(m, com)
            with pytest.raises(comotion.ComotionError, match=msg):
                oracle._span_check(m, com)
        else:
            oracle._span_check(m, com)
            assert comotion.weight_report(m, com) == oracle.weight_report(m, com)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_corner_scales_belong_to_their_face(seed):
    # every other cocar's times move by 1/31, a prime no other face uses:
    # the untouched faces keep their ticks and scales, as one lcm over the
    # whole comotion would not
    m, com = coprime_pinwheel(make_rng(seed))
    moved = tuple(
        Cocar(c.face, c.degree, tuple((p, t + F(1, 31)) for p, t in c.breakpoints))
        if c.face % 2 else c
        for c in com.cocars
    )
    ticks, scales = comotion.corner_ticks(m, com)
    ticks2, scales2 = comotion.corner_ticks(m, Comotion(com.period, moved))
    for f, boundary in enumerate(m.faces):
        if f % 2:
            assert scales2[f] % 31 == 0 and scales[f] % 31 != 0
        else:
            assert scales2[f] == scales[f]
            assert all(ticks2[(f, j)] == ticks[(f, j)] for j in range(len(boundary)))

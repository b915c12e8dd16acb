"""The indexed collision search and stop audit against the reference segment walks."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import collision_oracle as oracle
from collision_oracle import reference_collisions, reference_stop_audit
from spheremotion.fuzzing import (
    d_profile,
    doubled_polygon,
    make_rng,
    pinwheel_variant,
    random_multiple_motion,
    random_shape_map,
    random_sphere_map,
    random_torus_map,
    relabel_map,
    rotate_map,
)
from spheremotion.goldens import unit_speed_motion
from spheremotion.motion import (
    CarSchedule,
    MotionError,
    MotionSchedule,
    _offset,
    _reference_time,
    _window_meetings,
    as_multiple_motion,
    blow_up,
    car_index,
    car_lap,
    car_scale,
    check_separated_stops,
    complete_collisions,
    is_regular,
    position_at,
    standard_motion,
    standard_multiple_motion,
    time_shifted_car,
)
from spheremotion.surface import classify_map


def sphere_multiple(rng):
    m = random_sphere_map(rng)
    return m, random_multiple_motion(m, rng)


def shifted_multiple(rng):
    # every car running the same random time earlier: breakpoints off zero
    m, ms = sphere_multiple(rng)
    d = Fraction(rng.randint(1, 24), rng.randint(1, 4))
    cars = tuple(time_shifted_car(c, len(m.faces[c.face]), d) for c in ms.cars)
    return m, MotionSchedule(ms.period, cars)


def declared_stops(rng):
    # stops declared on random corners: lone stops, and stop pairs occupied together
    m, ms = sphere_multiple(rng)
    stops = set()
    for v in m.vertices():
        if rng.random() < 0.5:
            stops.update(rng.sample(sorted(v), rng.randint(1, len(v))))
    return m, MotionSchedule(ms.period, ms.cars, frozenset(stops))


def torus_multiple(rng):
    m = random_torus_map(rng)
    return m, random_multiple_motion(m, rng)


def standard_a(rng):
    m = random_shape_map(rng, "A")
    return m, standard_motion(m)


def standard_b(rng):
    # a block repeated twice on each face: two lifted cars per face; the
    # reference search takes seconds from three repeats on
    k, l = rng.randint(1, 2), rng.randint(1, 2)
    m = relabel_map(rotate_map(doubled_polygon(d_profile(k, l, 2)), rng), rng)
    return m, standard_multiple_motion(m, dict(classify_map(m), m=rng.choice([0, 1])))


def pinwheel_unit(rng):
    m = pinwheel_variant(rng.randint(2, 5))
    return m, unit_speed_motion(m)


def blown_up(rng):
    m = random_shape_map(rng, "A")
    m2, ms2, _ = blow_up(m, standard_motion(m))
    return m2, ms2


def mid_dart_rests(rng):
    # one or two cars per face resting at quarter-dart positions, inside
    # darts as often as on corners: the edge search meets moving and
    # resting cars on either side of an edge
    m = random_sphere_map(rng)
    T = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    cars = []
    for f, boundary in enumerate(m.faces):
        L = len(boundary)
        for _ in range(rng.randint(1, 2)):
            n, degree = rng.randint(2, 4), rng.randint(0, 1)
            ticks = sorted(rng.sample(range(8), n))
            quarters = [0] + sorted(rng.choices(range(4 * degree * L + 1), k=n - 1))
            i = rng.randrange(n - 1)
            quarters[i + 1] = quarters[i]  # at least one rest
            p0, period = rng.randrange(4 * L), T * rng.randint(1, 2)
            bps = tuple((period * Fraction(k, 8), Fraction(p0 + q, 4))
                        for k, q in zip(ticks, quarters))
            cars.append(CarSchedule(f, period, bps, degree=degree))
    return m, MotionSchedule(T, tuple(cars))


@pytest.mark.parametrize(
    "build",
    [sphere_multiple, shifted_multiple, declared_stops, torus_multiple, standard_a, standard_b,
     pinwheel_unit, blown_up, mid_dart_rests],
)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_index_matches_segment_pair_search(build, seed):
    m, ms = build(make_rng(seed))
    got = complete_collisions(m, ms)
    want = reference_collisions(m, ms)
    assert got.horizon == want.horizon
    assert list(got.vertex_loci.items()) == list(want.vertex_loci.items())
    assert list(got.edge_loci.items()) == list(want.edge_loci.items())
    assert check_separated_stops(m, ms) == reference_stop_audit(m, ms)


@st.composite
def cars_on_a_face(draw):
    """(car, L): a parked car, or one with rests, mid-dart rests and laps."""
    L = draw(st.integers(1, 6))
    period = Fraction(draw(st.integers(1, 36)), draw(st.integers(1, 4)))
    p0 = Fraction(draw(st.integers(0, 4 * L - 1)), 4)
    if draw(st.booleans()):
        t0 = period * Fraction(draw(st.integers(0, 23)), 24)
        return CarSchedule(0, period, ((t0, p0),)), L
    degree = draw(st.integers(0, 2))
    ticks = draw(st.lists(st.integers(0, 23), min_size=1, max_size=6, unique=True))
    climbs = draw(st.lists(st.integers(0, 12 * degree * L), min_size=len(ticks),
                           max_size=len(ticks)))
    positions = [p0] + [p0 + Fraction(c, 12) for c in sorted(climbs)[1:]]
    times = [period * Fraction(k, 24) for k in sorted(ticks)]
    return CarSchedule(0, period, tuple(zip(times, positions)), degree=degree), L


@settings(max_examples=200, deadline=None)
@given(drawn=cars_on_a_face(), extra=st.lists(st.fractions(-40, 40, max_denominator=12)))
def test_position_at_matches_the_segment_scan(drawn, extra):
    car, L = drawn
    P = car.period
    ts, ps, _, _ = oracle.unscaled(car_lap(car, L))
    assert list(zip(ts, ps, ts[1:], ps[1:])) == oracle.car_segments(car, L)
    # every breakpoint over laps -3..2 (the first one is the lap seam),
    # so negative times too, each midpoint between breakpoints, and
    # random instants
    times = [t + k * P for t, _ in car.breakpoints for k in range(-3, 3)]
    times += [(a + b) / 2 + k * P for a, b in zip(ts, ts[1:]) for k in (-1, 0, 1)]
    for t in times + extra:
        got = position_at(car, L, t)
        assert got == oracle.position_at(car, L, t)
        assert type(got) is Fraction


@st.composite
def maybe_shifted_cars(draw):
    """(car, L): a drawn car, half the time run a random time earlier."""
    car, L = draw(cars_on_a_face())
    if draw(st.booleans()):
        car = time_shifted_car(car, L, car.period * Fraction(draw(st.integers(1, 47)), 48))
    return car, L


@settings(max_examples=200, deadline=None)
@given(drawn=cars_on_a_face(), shift=st.fractions(-30, 30, max_denominator=12))
def test_time_shift_matches_the_fraction_walk(drawn, shift):
    car, L = drawn
    assert time_shifted_car(car, L, shift) == oracle.time_shifted_car(car, L, shift)


@settings(max_examples=300, deadline=None)
@given(drawn=maybe_shifted_cars(), extra=st.lists(st.integers(-40, 40), max_size=6),
       stops=st.sets(st.integers(0, 5)))
def test_int_lap_scans_match_the_fraction_walks(drawn, extra, stops):
    car, L = drawn
    try:
        want = oracle.reference_time(car, L)
    except MotionError as e:
        assert str(e) == "car never leaves the corners"
        with pytest.raises(MotionError, match="^car never leaves the corners$"):
            _reference_time(car, L)
    else:
        got = _reference_time(car, L)
        assert type(got) is Fraction and got == want
    m = doubled_polygon((1,) * L)
    ms = MotionSchedule(car.period, (car,), frozenset((0, j) for j in stops if j < L))
    assert is_regular(m, ms) == oracle.is_regular(m, ms)
    assert check_separated_stops(m, ms) == reference_stop_audit(m, ms)
    # int instants: the lap seams, the breakpoints rounded down, and random
    P = car.period
    times = [P.numerator * k for k in range(-2, 3)]
    times += [t.numerator // t.denominator + k for t, _ in car.breakpoints for k in (-1, 0, 1)]
    for t in times + extra:
        got = position_at(car, L, t)
        assert type(got) is Fraction and got == oracle.position_at(car, L, t)


@settings(max_examples=300, deadline=None)
@given(drawn=cars_on_a_face(), d=st.integers(0, 47), kind=st.sampled_from(
    ["shifted", "bumped", "period", "degree"]), bump=st.integers(1, 5),
    shift=st.fractions(-20, 20, max_denominator=12))
def test_offset_matches_the_fraction_scan(drawn, d, kind, bump, shift):
    # car_a against its own time shift by d, or a rogue: raised from one
    # breakpoint on, or of another period or degree
    car, L = drawn
    P = car.period
    other = time_shifted_car(car, L, P * Fraction(d, 48))
    bps = other.breakpoints
    if kind == "bumped":
        bps = bps[:bump] + tuple((t, p + Fraction(1, 12)) for t, p in bps[bump:])
    period, degree = other.period * (2 if kind == "period" else 1), other.degree
    other = CarSchedule(0, period, bps, degree=degree + (kind == "degree"))
    # the shift that matches, a drawn one, and 0 as the diagram audit uses it
    for s in (P * Fraction(d, 48), shift, Fraction(0)):
        got, want = _offset(car, other, L, s), oracle.offset(car, other, L, s)
        assert (got is None) == (want is None)
        assert got is None or Fraction(*got) == want
        assert got is None or [type(x) for x in got] == [int, int] and got[1] > 0
    if kind == "shifted":
        assert _offset(car, other, L, P * Fraction(d, 48)) is not None


@st.composite
def successor_cases(draw):
    """A random multiple motion on a sphere map, of an int period or of
    3/2, 5/12 or 7/3, its cars maybe all run a drawn time earlier, and
    maybe one car replaced by a rogue: run a drawn time earlier on its
    own, "fast" (degree 2), of twice the period, raised from one
    breakpoint on; the cars listed in reverse; or the cars of its face
    replaced by a chain of constant-speed cars that climb 0, 2 or 3 laps
    per cycle, as a chain of one-lap cars would climb one."""
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    m = random_sphere_map(rng)
    period = draw(st.sampled_from([None, Fraction(3, 2), Fraction(5, 12), Fraction(7, 3)]))
    ms = random_multiple_motion(m, rng, period)
    cars = list(ms.cars)
    # shifted before a rogue is made: a raised car may climb past its
    # degree, and then has no shifted form
    if draw(st.booleans()):
        d = Fraction(draw(st.integers(1, 24)), draw(st.integers(1, 4)))
        cars = [time_shifted_car(c, len(m.faces[c.face]), d) for c in cars]
    kind = draw(st.sampled_from(
        ["none", "rogue", "fast", "period", "bumped", "reversed", "laps"]))
    k = draw(st.integers(0, len(cars) - 1))
    car, L = cars[k], len(m.faces[cars[k].face])
    bps, period, degree = car.breakpoints, car.period, car.degree
    if kind == "rogue":
        cars[k] = time_shifted_car(car, L, period * Fraction(draw(st.integers(1, 11)), 12))
    elif kind in ("fast", "period", "bumped"):
        if kind == "bumped":
            i = draw(st.integers(1, len(bps)))
            bps = bps[:i] + tuple((t, p + Fraction(1, 12)) for t, p in bps[i:])
        cars[k] = CarSchedule(car.face, period * (2 if kind == "period" else 1), bps,
                              degree=degree + (kind == "fast"))
    elif kind == "reversed":
        cars.reverse()
    elif kind == "laps":
        chain = [c for c in cars if c.face == car.face]
        base = CarSchedule(car.face, period, ((period * Fraction(draw(st.integers(0, 11)), 12),
                                               draw(st.integers(0, L - 1))),),
                           degree=draw(st.sampled_from([0, 2, 3])))
        cars = [c for c in cars if c.face != car.face]
        cars += [time_shifted_car(base, L, j * ms.period) for j in range(len(chain))]
    return m, MotionSchedule(ms.period, tuple(cars))


def successor_outcome(check, m, ms):
    try:
        return check(m, ms)
    except MotionError as e:
        return str(e)


# the two cars of face 0 run half a lap apart, an offset of 3/2 whose
# numerator over its int denominator can be a multiple of L = 3
HALF_LAP = (doubled_polygon((1, 1, 1)), MotionSchedule(3, (
    CarSchedule(0, 6, ((Fraction(5, 2), Fraction(3, 2)), (Fraction(11, 2), 3)), degree=1),
    CarSchedule(0, 6, ((0, Fraction(3, 2)), (3, 3)), degree=1),
    CarSchedule(1, 3, ((0, 0),), degree=1))))


# each face with one car, which reads no lap table: a car of degree 2, two
# laps per period, refused as car 0 against itself; and a car run 5/4
# earlier, whose breakpoints sit off zero, accepted
LONE_FAST = (doubled_polygon((1, 1, 1)), MotionSchedule(3, (
    CarSchedule(0, 3, ((0, 0),), degree=2), CarSchedule(1, 3, ((0, 0),), degree=1))))
LONE_SHIFTED = (doubled_polygon((1, 1, 1)), MotionSchedule(3, (
    time_shifted_car(CarSchedule(0, 3, ((0, 0), (1, 1), (2, 3)), degree=1), 3, Fraction(5, 4)),
    CarSchedule(1, 3, ((Fraction(1, 2), Fraction(1, 3)),), degree=1))))
# a parked car of degree 0 on face 0, one breakpoint: no progress over T
LONE_STUCK = (doubled_polygon((1, 1, 1)), MotionSchedule(3, (
    CarSchedule(0, 3, ((0, 0),)), CarSchedule(1, 3, ((0, 0),), degree=1))))


@settings(max_examples=150, deadline=None)
@given(drawn=successor_cases())
@example(drawn=HALF_LAP)
@example(drawn=LONE_FAST)
@example(drawn=LONE_SHIFTED)
@example(drawn=LONE_STUCK)
def test_successor_check_matches_the_fraction_bookkeeping(drawn):
    # the same groups, or the same refusal naming the same car
    m, ms = drawn
    got = successor_outcome(as_multiple_motion, m, ms)
    assert got == successor_outcome(oracle.multiple_motion_groups, m, ms)


@pytest.mark.parametrize("drawn, want", [
    (LONE_FAST, "face 0: car 0 shifted by T does not match car 0"),
    (LONE_SHIFTED, {0: 1, 1: 1}),
    (LONE_STUCK, "face 0: car makes no progress over T"),
])
def test_lone_cars_keep_their_verdicts(drawn, want):
    got = successor_outcome(as_multiple_motion, *drawn)
    assert (got if isinstance(got, str) else {f: len(c) for f, c in got.items()}) == want


@st.composite
def indexed_cars(draw):
    """(car, L, H): a drawn car, run a random time earlier, so that its
    first breakpoint mostly sits off zero, over 1 to 6 periods."""
    car, L = draw(cars_on_a_face())
    car = time_shifted_car(car, L, car.period * Fraction(draw(st.integers(0, 47)), 48))
    return car, L, car.period * draw(st.integers(1, 6))


# a window clipped at t = 0, whose start and lam0 the clip sets
CLIPPED = CarSchedule(0, Fraction(5, 6), degree=2, breakpoints=(
    (Fraction(1, 16), Fraction(3, 4)), (Fraction(5, 24), 2), (Fraction(5, 16), 3)))
# a rest in the middle of a dart: a window of slope 0
MID_DART = CarSchedule(0, 2, ((0, Fraction(1, 2)), (1, Fraction(1, 2))), degree=1)
# the first breakpoint at t = 0 on a corner: the walk starts with the
# piece that ends there, one period back
AT_ZERO = CarSchedule(0, 3, ((0, 0), (1, 1), (2, 3)), degree=1)
# a rest on corner 0 from 5/2 to 7/2: across the seam of [0, 3]
SEAM_REST = CarSchedule(0, 3, ((Fraction(1, 2), 0), (Fraction(5, 2), 3)), degree=1)
# parked on corner 1: degree 0 and one breakpoint, a one-piece lap
PARKED = CarSchedule(0, 2, ((Fraction(1, 2), 1),))
# the last piece moves from corner 1 to corner 2 over [1, 2] and so ends
# on a corner at H = 4
ENDS_AT_H = CarSchedule(0, 2, ((0, 0), (1, 1)), degree=1)
# a stop at corner 1 as the blow-up indexes it: two periods at the car's scale
STOPPING = CarSchedule(0, Fraction(7, 2), ((Fraction(1, 3), 0), (1, 1), (2, 1)), degree=1)


@settings(max_examples=200, deadline=None)
@given(drawn=indexed_cars())
@example(drawn=(CLIPPED, 5, Fraction(5, 6)))
@example(drawn=(MID_DART, 3, Fraction(4)))
@example(drawn=(AT_ZERO, 3, Fraction(3)))
@example(drawn=(SEAM_REST, 3, Fraction(3)))
@example(drawn=(PARKED, 3, Fraction(6)))
@example(drawn=(ENDS_AT_H, 2, Fraction(4)))
@example(drawn=(STOPPING, 3, Fraction(7)))
def test_index_matches_the_replica_walk(drawn):
    car, L, H = drawn
    # at the car's own scale, and at a multiple as a schedule's scale
    for D in (car_scale(car, L), 6 * car_scale(car, L)):
        visits, windows = car_index(car, L, int(H / car.period), D)
        # the int index over D: each window's line (p + q * t) / k as
        # (t0, t1, lam0, slope), a rest at slope 0
        unscaled = (
            {j: tuple((Fraction(a, D), Fraction(b, D)) for a, b in times)
             for j, times in visits.items()},
            {j: [(Fraction(t0, D), Fraction(t1, D), Fraction(p + q * t0, k), Fraction(q * D, k))
                 for t0, t1, p, q, k in stretches]
             for j, stretches in windows.items()},
        )
        assert unscaled == oracle.car_index(car, L, H)
        values = [x for times in visits.values() for iv in times for x in iv]
        values += [x for stretches in windows.values() for w in stretches for x in w]
        assert all(type(x) is int for x in values)


@pytest.mark.parametrize("lam, mu, meets", [
    (Fraction(1, 3), Fraction(2, 3), True),
    (Fraction(1, 2), Fraction(1, 2), True),
    (Fraction(1, 3), Fraction(1, 2), False),
])
def test_two_parked_cars_meet_where_their_dart_parameters_add_to_one(lam, mu, meets):
    # one parked car on each side of edge 0 of a doubled triangle: the +
    # side car at dart parameter lam, the - side car at mu; they meet for
    # the whole period exactly when lam + mu = 1
    m = doubled_polygon([1, 1, 1])
    (fp, jp), (fm, jm) = m.edge_sides[0]
    ms = MotionSchedule(1, (CarSchedule(fp, 1, ((0, jp + lam),)),
                            CarSchedule(fm, 1, ((0, jm + mu),))))
    got = complete_collisions(m, ms)
    want = reference_collisions(m, ms)
    assert got.vertex_loci == want.vertex_loci == {}
    expected = {(0, lam): ((0, 1),)} if meets else {}
    assert got.edge_loci == want.edge_loci == expected


@st.composite
def dart_windows(draw):
    """One car's windows on a dart as `car_index` lists them: sorted, and
    touching at most at their ends; moving lines (t - s) / k that stay in
    [0, 1], the car at the dart's corners at s and s + k, and rests r / X
    strictly inside."""
    windows, t = [], draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 4))):
        t0 = t + draw(st.integers(0, 2))
        t1 = t0 + draw(st.integers(1, 6))
        if draw(st.booleans()):
            k = draw(st.integers(t1 - t0, 10))
            s = draw(st.integers(t1 - k, t0))
            windows.append((t0, t1, -s, 1, k))
        else:
            X = draw(st.integers(2, 6))
            windows.append((t0, t1, draw(st.integers(1, X - 1)), 0, X))
        t = t1
    return windows


def meetings(plus, minus, D):
    # each meeting (a, b, w) under (edge, n, d) read as the times [a, b] / (w * D)
    # under (edge, n / d)
    out = {}
    _window_meetings(7, plus, minus, D, out)
    assert all(Fraction(n, d).as_integer_ratio() == (n, d) for _, n, d in out)  # lowest terms
    return {(e, Fraction(n, d)): sorted((Fraction(a, w * D), Fraction(b, w * D))
                                        for a, b, w in items)
            for (e, n, d), items in out.items()}


@settings(max_examples=400, deadline=None)
@given(plus=dart_windows(), minus=dart_windows(), D=st.integers(1, 3))
def test_window_meetings_match_the_fraction_solve(plus, minus, D):
    assert meetings(plus, minus, D) == oracle.window_meetings(7, plus, minus, D)


@pytest.mark.parametrize("plus, minus, want", [
    # windows that touch at t = 2: a car a quarter of a dart per unit, at
    # 1/2 there, against a rest at 1/2; two rests at 1/3 and 2/3
    ([(0, 2, 0, 1, 4)], [(2, 5, 1, 0, 2)], {Fraction(1, 2): [(2, 2)]}),
    ([(0, 2, 1, 0, 3)], [(2, 4, 2, 0, 3)], {Fraction(1, 3): [(2, 2)]}),
    # t / 8 + (t - 1) / 6 = 1 at t = 4, the overlap's end
    ([(0, 4, 0, 1, 8)], [(1, 4, -1, 1, 6)], {Fraction(1, 2): [(4, 4)]}),
    ([(0, 4, 0, 1, 8)], [(1, 3, -1, 1, 6)], {}),
    # lam + mu = 1 at t = 2 with lam on 0 and on 1: at the corners, no meeting
    ([(2, 6, -2, 1, 4)], [(0, 2, 2, 1, 4)], {}),
    ([(0, 2, 2, 1, 4)], [(2, 6, -2, 1, 4)], {}),
    # two rests that do not add to one, and a moving car meeting a rest
    ([(0, 4, 1, 0, 3)], [(0, 4, 1, 0, 2)], {}),
    ([(0, 4, 0, 1, 4), (4, 9, 1, 0, 4)], [(1, 6, 1, 0, 4)], {Fraction(3, 4): [(3, 3)]}),
])
def test_window_meetings_at_ends_and_corners(plus, minus, want):
    got = meetings(plus, minus, 1)
    assert got == oracle.window_meetings(7, plus, minus, 1) == {
        (7, lam): times for lam, times in want.items()}

"""Car schedules, collision detection, standard motions and blow-up."""

import copy
import dataclasses
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import collision_oracle as oracle
from collision_oracle import intervals_instants
import standard_oracle
from test_blow_up_snapshot import criterion_8_cases
from spheremotion import jsonio, motion
from spheremotion.fuzzing import (
    doubled_polygon,
    lune_map,
    make_rng,
    random_multiple_motion,
    random_shape_map,
    random_sphere_map,
    relabel_map,
    rotate_map,
)
from spheremotion.goldens import (
    PINWHEEL_VERTICES,
    banded_sphere_map,
    doubled_polygon_map,
    pinwheel_double_car_motion,
    pinwheel_map,
    pinwheel_retimed_motion,
    pinwheel_unit_motion,
)
from spheremotion.motion import (
    CarSchedule,
    CollisionReport,
    MotionError,
    MotionSchedule,
    as_multiple_motion,
    blow_up,
    car_lap,
    check_separated_stops,
    collision_horizon,
    complete_collisions,
    corner_occupancy,
    fraction_lcm,
    intersect_intervals,
    is_regular,
    lemma16_bound,
    multiplicities,
    normalize_intervals,
    position_at,
    standard_motion,
    standard_multiple_motion,
    time_shifted_car,
    validate_motion,
    verify_source_sink_collisions,
)
from spheremotion.surface import b_profile, classify_map, d_profile


def unit_car(face, L):
    return CarSchedule(face, F(L), tuple((F(i), F(i)) for i in range(L)), degree=1)


# -- schedule validation -----------------------------------------------------


def test_car_schedule_rejects_bad_data():
    with pytest.raises(MotionError):
        CarSchedule(0, F(0), ((F(0), F(0)),))
    with pytest.raises(MotionError):
        CarSchedule(0, F(2), ())
    with pytest.raises(MotionError):
        CarSchedule(0, F(2), ((F(2), F(0)),))  # time not below the period
    with pytest.raises(MotionError):
        CarSchedule(0, F(2), ((F(0), F(0)), (F(0), F(1))))
    with pytest.raises(MotionError):
        CarSchedule(0, F(2), ((F(0), F(1)), (F(1), F(0))))
    with pytest.raises(MotionError):
        CarSchedule(0, F(2), ((F(0), F(0)),), degree=-1)
    with pytest.raises(MotionError, match="^degree must be a nonnegative integer$"):
        CarSchedule(0, F(2), ((F(0), F(0)),), degree=True)
    with pytest.raises(MotionError, match="^face must be an int, got True$"):
        CarSchedule(True, F(2), ((F(0), F(0)),))


def test_car_schedule_refuses_a_float_period():
    with pytest.raises(MotionError, match=r"^period must be an int or a Fraction, got 0\.1$"):
        CarSchedule(0, 0.1, ((0, 0),))


def test_motion_schedule_refuses_a_boolean_period():
    with pytest.raises(MotionError, match="^period must be an int or a Fraction, got True$"):
        MotionSchedule(True, (unit_car(0, 3),))


def test_motion_schedule_refuses_a_nonpositive_period():
    for period in (F(-1), 0):
        with pytest.raises(MotionError, match="^period must be positive$"):
            MotionSchedule(period, (unit_car(0, 3),))


def test_car_schedule_refuses_float_and_boolean_breakpoints():
    with pytest.raises(MotionError, match=r"^breakpoint time must be an int or a Fraction, "
                                          r"got 0\.5$"):
        CarSchedule(0, 2, ((0.5, 0),))
    with pytest.raises(MotionError, match="^breakpoint position must be an int or a Fraction, "
                                          "got False$"):
        CarSchedule(0, 2, [(0, 0), (1, False)])
    car = CarSchedule(0, 2, ((0, F(1, 2)),))  # ints and Fractions are taken
    assert car.period == 2 and car.breakpoints == ((0, F(1, 2)),)
    assert all(type(x) is F for x in (car.period, *car.breakpoints[0]))


def test_cars_store_ints_over_least_scales():
    car = CarSchedule(2, F(5, 2), ((F(1, 2), 1), (F(3, 2), F(7, 3))), degree=1)
    assert (car.ts, car.Y, car.ps, car.X) == ((1, 3), 2, (3, 7), 3)
    same = CarSchedule.from_ints(2, F(5, 2), [3, 9], 6, [6, 14], 6, 1)
    assert same == car and hash(same) == hash(car)
    assert "breakpoints" not in vars(same)  # built on first read
    assert repr(same) == repr(car) == (
        "CarSchedule(face=2, period=Fraction(5, 2), breakpoints=((Fraction(1, 2), "
        "Fraction(1, 1)), (Fraction(3, 2), Fraction(7, 3))), degree=1)")
    assert same.breakpoints == ((F(1, 2), F(1)), (F(3, 2), F(7, 3)))
    assert pickle.loads(pickle.dumps(car)) == copy.copy(car) == car
    assert [f.name for f in dataclasses.fields(CarSchedule)] == [
        "face", "period", "breakpoints", "degree"]
    assert car != CarSchedule(2, F(5, 2), ((F(1, 2), 1), (F(3, 2), F(7, 3))), degree=2)
    assert car != car._ints() and car.__eq__(car._ints()) is NotImplemented
    with pytest.raises(dataclasses.FrozenInstanceError):
        car.Y = 4
    with pytest.raises(MotionError, match=r"^breakpoint times must lie in \[0, period\)$"):
        CarSchedule.from_ints(0, 2, [4], 2, [0], 1, 0)


def test_time_functions_refuse_floats_and_booleans():
    car = unit_car(0, 4)
    with pytest.raises(MotionError, match=r"^shift must be an int or a Fraction, got 0\.1$"):
        time_shifted_car(car, 4, 0.1)
    with pytest.raises(MotionError, match="^shift must be an int or a Fraction, got True$"):
        time_shifted_car(car, 4, True)
    with pytest.raises(MotionError, match=r"^time must be an int or a Fraction, got 0\.5$"):
        position_at(car, 4, 0.5)
    assert time_shifted_car(car, 4, 1) == time_shifted_car(car, 4, F(1))
    assert position_at(car, 4, 1) == position_at(car, 4, F(1)) == 1


def test_validate_motion_rejections():
    m = pinwheel_map()
    ok = unit_car(0, 3)
    with pytest.raises(MotionError, match="no such face"):
        validate_motion(m, MotionSchedule(F(3), (unit_car(7, 3),)))
    bad_start = CarSchedule(0, F(3), ((F(0), F(5)),))
    with pytest.raises(MotionError, match="outside"):
        validate_motion(m, MotionSchedule(F(3), (bad_start,)))
    runaway = CarSchedule(0, F(3), ((F(0), F(0)), (F(1), F(4))), degree=1)
    with pytest.raises(MotionError, match="climb"):
        validate_motion(m, MotionSchedule(F(3), (runaway,)))
    with pytest.raises(MotionError, match="incommensurable"):
        validate_motion(m, MotionSchedule(F(4, 3), (ok,)))
    with pytest.raises(MotionError, match="no such corner"):
        validate_motion(
            m, MotionSchedule(F(3), (ok,), stop_corners={(0, 5)})
        )


def test_validate_motion_keeps_one_record_per_map():
    pentagon, triangle = doubled_polygon_map(b_profile(1)), doubled_polygon_map(b_profile(0))
    ms = standard_motion(pentagon)
    rec = validate_motion(pentagon, ms)
    assert rec == {"horizon": collision_horizon(ms)}
    # an equal map reads the same record; the collision search adds the indexes
    assert validate_motion(doubled_polygon_map(b_profile(1)), ms) is rec
    complete_collisions(pentagon, ms)
    assert validate_motion(pentagon, ms) is rec and {"faces", "D", "H"} <= set(rec)
    # another map of two faces gets its own checks
    with pytest.raises(MotionError, match="^positions climb past the declared degree$"):
        validate_motion(triangle, ms)
    with pytest.raises(MotionError, match="^positions climb past the declared degree$"):
        complete_collisions(triangle, ms)


@pytest.mark.parametrize("corner", [(0.0, 1), (0, 0.5), (True, 0), (0,)],
                         ids=["float-face", "float-index", "bool-face", "short"])
def test_stop_corners_must_be_int_pairs(corner):
    ms = pinwheel_unit_motion()
    with pytest.raises(MotionError, match=r"^stop corner must be a pair of ints, got "):
        MotionSchedule(ms.period, ms.cars, {corner})


def test_validate_motion_takes_periods_dividing_either_way():
    m = pinwheel_map()
    ok = unit_car(0, 3)  # period 3
    for period in (F(3), F(1), F(3, 2), F(3, 4), F(3, 7), F(6), F(9)):
        validate_motion(m, MotionSchedule(period, (ok,)))
    slow = CarSchedule(0, F(9, 2), ((F(0), F(0)),))
    validate_motion(m, MotionSchedule(F(3, 2), (ok, slow)))
    for period in (F(2), F(9, 2), F(4, 3), F(5)):
        with pytest.raises(MotionError, match="incommensurable"):
            validate_motion(m, MotionSchedule(period, (ok,)))


def test_position_at_laps_and_parking():
    car = unit_car(0, 3)
    assert position_at(car, 3, F(1, 2)) == F(1, 2)
    assert position_at(car, 3, F(7, 2)) == F(7, 2)  # lifted, one lap in
    assert position_at(car, 3, F(-1)) == F(-1)
    parked = CarSchedule(2, F(5), ((F(1), F(2)),))
    assert position_at(parked, 3, F(100)) == F(2)
    segs = oracle.car_segments(parked, 3)
    assert segs == [(F(1), F(2), F(6), F(2))]
    assert oracle.unscaled(car_lap(parked, 3)) == ([F(1), F(6)], [F(2), F(2)], F(5), 0)


def test_is_regular():
    m = pinwheel_map()
    assert is_regular(m, pinwheel_unit_motion())
    parked = MotionSchedule(F(3), (CarSchedule(0, F(3), ((F(0), F(0)),)),))
    assert not is_regular(m, parked)
    midrest = CarSchedule(
        0, F(3), ((F(0), F(1, 2)), (F(1), F(1, 2)), (F(2), F(5, 2))), degree=1
    )
    assert not is_regular(m, MotionSchedule(F(3), (midrest,)))


# -- interval sets -------------------------------------------------------------


def test_normalize_intervals_merges_and_closes_seam():
    T = F(6)
    ivs = normalize_intervals([(F(5), F(6)), (F(1), F(2)), (F(2), F(3))], T)
    # a set touching T also contains the instant 0, and vice versa
    assert ivs == ((F(0), F(0)), (F(1), F(3)), (F(5), F(6)))
    assert intervals_instants(ivs, T) == [F(0), F(1), F(5)]


@settings(max_examples=200, deadline=None)
@given(T=st.integers(1, 8), den=st.sampled_from([None, 1, 3]), data=st.data())
def test_normalize_intervals_is_idempotent(T, den, data):
    # so a face with one car can hand on its car's visits as they are;
    # ints stay ints (den None) and Fractions stay Fractions
    n = T * (den or 1)
    ends = st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted)
    pairs, more = (data.draw(st.lists(ends, max_size=8)) for _ in range(2))
    if den is not None:
        T = F(T)
        pairs, more = ([(F(a, den), F(b, den)) for a, b in p] for p in (pairs, more))
    once = normalize_intervals(pairs, T)
    assert normalize_intervals(once, T) == once
    assert all(type(x) is type(T) for iv in once for x in iv)
    # and two normalized sets meet in a normalized set, so a vertex locus
    # needs no normalizing of its own
    both = intersect_intervals(once, normalize_intervals(more, T))
    assert normalize_intervals(both, T) == both


def test_intersect_intervals():
    T = F(4)
    A = normalize_intervals([(F(0), F(2))], T)
    B = normalize_intervals([(F(1), F(3))], T)
    assert intersect_intervals(A, B) == ((F(1), F(2)),)
    C = normalize_intervals([(F(3), F(4))], T)
    # [0,2] meets [3,4] only through the seam, under both its names
    hit = intersect_intervals(A, C)
    assert hit == ((F(0), F(0)), (F(4), F(4)))
    assert intervals_instants(hit, T) == [F(0)]


def test_corner_occupancy_unit_car():
    car = unit_car(0, 3)
    occ = corner_occupancy(car, 3, 1, F(6))
    assert occ == ((F(1), F(1)), (F(4), F(4)))
    occ0 = corner_occupancy(car, 3, 0, F(6))
    assert occ0 == ((F(0), F(0)), (F(3), F(3)), (F(6), F(6)))
    with pytest.raises(MotionError, match="^horizon is not a multiple of the car period$"):
        corner_occupancy(car, 3, 0, F(9, 2))


@pytest.mark.parametrize("horizon", [F(0), F(-6)], ids=["0", "-6"])
def test_corner_occupancy_refuses_a_horizon_that_is_no_positive_multiple(horizon):
    with pytest.raises(MotionError, match="^horizon must be positive$"):
        corner_occupancy(unit_car(0, 3), 3, 0, horizon)


@given(
    speeds=st.lists(st.integers(1, 4), min_size=2, max_size=5),
    j=st.integers(0, 3),
)
def test_corner_occupancy_counts_crossings(speeds, j):
    # a strictly climbing car touches each corner once per lap
    L = 4
    t = F(0)
    bps = []
    pos = F(0)
    for s in speeds:
        bps.append((t, pos))
        t += F(1, s)
        pos += F(L, len(speeds))
    car = CarSchedule(0, t, tuple(bps), degree=1)
    occ = corner_occupancy(car, L, j, car.period)
    instants = intervals_instants(occ, car.period)
    assert len(instants) == 1


@given(shift=st.fractions(0, 12, max_denominator=6), t=st.fractions(0, 12, max_denominator=8))
def test_time_shifted_car_evaluates_shifted(shift, t):
    car = CarSchedule(
        0, F(3), ((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(2))), degree=1
    )
    moved = time_shifted_car(car, 3, shift)
    lhs = position_at(moved, 3, t)
    rhs = position_at(car, 3, t + shift)
    assert (lhs - rhs) % 3 == 0


def test_time_shifted_car_refuses_a_car_past_its_degree():
    # position 4 at t = 1 lies past 0 + 1 * 3, the first breakpoint one lap on;
    # on a face of length 4 the car rests at 4, which reduces to 0
    runaway = CarSchedule(0, F(3), ((F(0), F(0)), (F(1), F(4))), degree=1)
    with pytest.raises(MotionError, match="^positions climb past the declared degree$"):
        time_shifted_car(runaway, 3, F(1, 2))
    assert time_shifted_car(runaway, 4, F(1, 2)) == CarSchedule(
        0, F(3), ((F(1, 2), F(0)), (F(5, 2), F(0))), degree=1)


# -- the worked examples -------------------------------------------------------


def named_vertex_loci(m, rep):
    out = {}
    for vertex, times in rep.vertex_loci.items():
        names = [k for k, s in PINWHEEL_VERTICES.items() if s == frozenset(vertex)]
        out[names[0]] = intervals_instants(times, rep.horizon)
    return out


def test_unit_motion_has_three_loci():
    m = pinwheel_map()
    ms = pinwheel_unit_motion()
    assert collision_horizon(ms) == 6
    rep = complete_collisions(m, ms)
    assert rep.spatial_count == 3
    assert named_vertex_loci(m, rep) == {
        "tip": [F(0), F(3)],
        "center": [F(0), F(3)],
    }
    assert set(rep.edge_loci) == {(3, F(1, 2))}
    assert intervals_instants(rep.edge_loci[(3, F(1, 2))], F(6)) == [F(3, 2)]


def test_retimed_motion_drops_to_two_loci():
    m = pinwheel_map()
    rep = complete_collisions(m, pinwheel_retimed_motion())
    assert rep.spatial_count == 2
    assert not rep.edge_loci
    assert set(named_vertex_loci(m, rep)) == {"tip", "center"}


def test_unit_motion_is_not_a_multiple_motion():
    m = pinwheel_map()
    with pytest.raises(MotionError, match="is not 1"):
        as_multiple_motion(m, pinwheel_unit_motion())


def test_double_car_motion_is_multiple():
    m = pinwheel_map()
    ms = pinwheel_double_car_motion()
    assert ms.period == 3
    assert multiplicities(m, ms) == {0: 1, 1: 2, 2: 1, 3: 1, 4: 1}
    rep = complete_collisions(m, ms)
    assert rep.spatial_count == 3
    # the meeting point inside edge PR now fires twice per six seconds
    assert intervals_instants(rep.edge_loci[(3, F(1, 2))], rep.horizon) == [
        F(3, 2),
        F(9, 2),
    ]
    res = lemma16_bound(m, ms)
    assert res == {
        "chi": 2, "bound": 3, "loci": 3, "holds": True,
        "multiplicities": {0: 1, 1: 2, 2: 1, 3: 1, 4: 1},
    }


def test_double_car_chain_is_checked():
    m = pinwheel_map()
    ms = pinwheel_unit_motion()
    # a second hexagon car out of phase by a third of a lap breaks the chain
    rogue = CarSchedule(1, F(6), tuple((F(i), F(2 + i)) for i in range(6)), degree=1)
    bad = MotionSchedule(F(3), ms.cars + (rogue,))
    with pytest.raises(MotionError, match="does not match"):
        as_multiple_motion(m, bad)


def test_time_shifted_multiple_motions_keep_their_multiplicities():
    # time_shifted_car lifts each car into [0, L) on its own, which can move
    # the lap between two successive cars anywhere along the face's cycle
    rng = make_rng(5)
    lifted_elsewhere = 0
    for _ in range(60):
        m = random_sphere_map(rng)
        ms = random_multiple_motion(m, rng)
        d = F(rng.randint(1, 24), rng.randint(1, 4))
        cars = tuple(time_shifted_car(c, len(m.faces[c.face]), d) for c in ms.cars)
        groups = as_multiple_motion(m, MotionSchedule(ms.period, cars))
        assert {f: len(cs) for f, cs in groups.items()} == multiplicities(m, ms)
        # a lap between two cars before the last one: refused until now
        lifted_elsewhere += any(
            position_at(a, len(m.faces[f]), ms.period) != position_at(b, len(m.faces[f]), 0)
            for f, cs in groups.items() for a, b in zip(cs, cs[1:])
        )
    assert lifted_elsewhere > 10
    m, ms = pinwheel_map(), pinwheel_double_car_motion()
    cars = tuple(time_shifted_car(c, len(m.faces[c.face]), F(7, 2)) for c in ms.cars)
    assert multiplicities(m, MotionSchedule(ms.period, cars)) == multiplicities(m, ms)


def test_lap_offsets_must_add_up_to_one_lap():
    m, ms = pinwheel_map(), pinwheel_double_car_motion()
    msg = "^face 1: car 0 shifted by T does not match car 1$"
    # two hexagon cars each climbing two laps per period: every car matches
    # the next one lap on, so the offsets add up to two laps
    fast = CarSchedule(1, F(6), ((F(0), F(0)),), degree=2)
    bad = MotionSchedule(F(3), tuple(c for c in ms.cars if c.face != 1) + (fast, fast))
    with pytest.raises(MotionError, match=msg):
        as_multiple_motion(m, bad)
    # a genuine mismatch, time shifted, names the same pair as unshifted
    rogue = CarSchedule(1, F(6), tuple((F(i), F(2 + i)) for i in range(6)), degree=1)
    for d in (F(0), F(7, 2)):
        cars = pinwheel_unit_motion().cars + (rogue,)
        cars = tuple(time_shifted_car(c, len(m.faces[c.face]), d) for c in cars)
        with pytest.raises(MotionError, match=msg):
            as_multiple_motion(m, MotionSchedule(F(3), cars))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_every_car_of_a_multiple_motion_has_degree_one(seed, data):
    # a face's d cars are one car of period d * T and degree g run 0, T, ...,
    # (d - 1) * T earlier: car 0 at t + d * T is car 0 at t moved by the sum
    # of the offsets, g laps, so the chain closes exactly when g is 1.
    # `comotion.induce_comotion` inverts these cars and relies on it
    rng = make_rng(seed)
    m = random_sphere_map(rng)
    T = data.draw(st.integers(1, 3))
    cars, degrees = [], set()
    for f, boundary in enumerate(m.faces):
        L = len(boundary)
        d, g = data.draw(st.integers(1, 3)), data.draw(st.sampled_from([1, 1, 1, 2]))
        n = data.draw(st.integers(1, 4))
        ts = sorted(data.draw(st.lists(st.integers(0, 4 * d * T - 1), min_size=n,
                                       max_size=n, unique=True)))
        ps = sorted(rng.randrange(2 * g * L) for _ in range(n))
        ps = [p - ps[0] // (2 * L) * 2 * L for p in ps]  # the first one in [0, L)
        base = CarSchedule(f, F(d * T), tuple((F(t, 4), F(p, 2)) for t, p in zip(ts, ps)),
                           degree=g)
        cars += [time_shifted_car(base, L, j * T) for j in range(d)]
        degrees.add(g)
    try:
        groups = as_multiple_motion(m, MotionSchedule(F(T), tuple(cars)))
    except MotionError as exc:
        assert degrees == {1, 2} or degrees == {2} or "no progress" in str(exc), str(exc)
        return
    assert degrees == {1}
    assert all(car.degree == 1 for face_cars in groups.values() for car in face_cars)


def test_second_car_is_the_time_shift_of_the_first():
    ms = pinwheel_double_car_motion()
    first = ms.cars[1]
    second = ms.cars[5]
    assert time_shifted_car(first, 6, F(3)).breakpoints == second.breakpoints


def test_edge_meeting_before_a_late_first_breakpoint():
    # the same car B twice: its first breakpoint at t = 1/2, then at t = 0;
    # the meeting inside edge 0 at t = 1/8 comes before the late breakpoint
    m = doubled_polygon_map((1, 1, 1))
    a = CarSchedule(0, F(3), ((F(0), F(0)),), degree=1)
    want = {
        (0, F(1, 8)): ((F(1, 8), F(1, 8)),),
        (1, F(5, 8)): ((F(13, 8), F(13, 8)),),
    }
    for bps in (((F(1, 2), F(1, 4)),), ((F(0), F(11, 4)),)):
        b = CarSchedule(1, F(3), bps, degree=1)
        rep = complete_collisions(m, MotionSchedule(F(3), (a, b)))
        assert rep.edge_loci == want
        assert not rep.vertex_loci


def shifted_times(spans, d, H):
    """A time set on the circle [0, H] moved by -d."""
    items = []
    for a, b in spans:
        a, b = (a - d) % H, (a - d) % H + (b - a)
        items.append((a, min(b, H)))
        if b > H:
            items.append((F(0), b - H))
    return normalize_intervals(items, H)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.fractions(0, 8, max_denominator=4))
def test_time_shift_moves_every_instant(seed, d):
    # every car running d earlier: the same loci, each instant at t - d
    rng = make_rng(seed)
    m = random_sphere_map(rng)
    ms = random_multiple_motion(m, rng)
    cars = tuple(time_shifted_car(c, len(m.faces[c.face]), d) for c in ms.cars)
    before = complete_collisions(m, ms)
    after = complete_collisions(m, MotionSchedule(ms.period, cars))
    H = before.horizon
    for old, new in ((before.vertex_loci, after.vertex_loci),
                     (before.edge_loci, after.edge_loci)):
        assert list(new) == list(old)
        for key, spans in old.items():
            assert new[key] == shifted_times(spans, d, H)


# -- standard schedules --------------------------------------------------------


def test_standard_motion_pinwheel():
    m = pinwheel_map()
    ms = standard_motion(m)
    assert ms.period == 2
    assert ms.stop_corners == frozenset()
    assert [c.breakpoints for c in ms.cars] == [
        ((F(0), F(2)), (F(1), F(3)), (F(3, 2), F(4))),
        ((F(0), F(4)), (F(1), F(6))),
        ((F(0), F(1)), (F(1, 2), F(2)), (F(1), F(3))),
        ((F(0), F(1)), (F(1, 2), F(2)), (F(1), F(3))),
        ((F(0), F(1)), (F(1, 2), F(2)), (F(1), F(3))),
    ]
    v = verify_source_sink_collisions(m, ms)
    assert v["ok"], v["problems"]
    rep = v["report"]
    assert rep.spatial_count == 2
    assert named_vertex_loci(m, rep) == {"tip": [F(1)], "center": [F(1)]}


def test_standard_motion_doubled_pentagon():
    m = doubled_polygon_map(b_profile(1))
    info = classify_map(m)
    assert info["family"] == "A" and info["m"] == 1
    assert [k for k, _ in info["faces"]] == ["b", "c"]
    ms = standard_motion(m)
    assert ms.period == 6
    assert ms.stop_corners == frozenset({(0, 1), (1, 4)})
    assert ms.cars[0].breakpoints == ((F(0), F(2)), (F(4), F(6)), (F(5), F(6)))
    assert ms.cars[1].breakpoints == ((F(0), F(3)), (F(1), F(4)), (F(2), F(4)))
    assert check_separated_stops(m, ms)["ok"]
    v = verify_source_sink_collisions(m, ms)
    assert v["ok"], v["problems"]
    assert v["report"].spatial_count == 2


@pytest.mark.parametrize("mval", [0, 1, 2])
def test_standard_motion_doubled_polygons(mval):
    m = doubled_polygon_map(b_profile(mval))
    ms = standard_motion(m)
    assert ms.period == 4 * mval + 2
    assert is_regular(m, ms)
    assert check_separated_stops(m, ms)["ok"]
    v = verify_source_sink_collisions(m, ms)
    assert v["ok"], v["problems"]
    assert v["report"].spatial_count >= 2


@pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (1, 3)])
def test_standard_motion_doubled_block_face(k, l):
    # a doubled polygon whose front face is one +^{k+1} -^{l+1} block
    m = doubled_polygon_map((1,) * (k + 1) + (-1,) * (l + 1))
    info = classify_map(m)
    assert info["family"] == "A" and info["m"] is None
    ms = standard_motion(m)
    assert ms.period == 2
    v = verify_source_sink_collisions(m, ms)
    assert v["ok"], v["problems"]


def test_source_sink_audit_flags_the_pinwheel_unit_motion():
    # not a standard schedule: it meets on an edge, and at sources at t = 0
    v = verify_source_sink_collisions(pinwheel_map(), pinwheel_unit_motion())
    assert not v["ok"]
    assert v["problems"] == [
        "edge collisions at [(3, Fraction(1, 2))]",
        "source vertex ((0, 0),) collides at t=0",
        "source vertex ((2, 0), (3, 0), (4, 0)) collides at t=0",
    ]


def test_source_sink_audit_names_mixed_vertices_and_lasting_collisions():
    m = pinwheel_map()
    kinds = {m.classify_vertex(v): v for v in m.vertices()}
    source, mixed = kinds["source"], kinds["mixed"]
    # one instant at a mixed vertex, and a source held over [1, 2]
    fake = CollisionReport(F(4), {mixed: ((F(0), F(0)),), source: ((F(1), F(2)),)}, {})
    v = verify_source_sink_collisions(m, pinwheel_unit_motion(), collisions=fake)
    assert not v["ok"]
    assert v["problems"] == [
        f"collision at mixed vertex {mixed}",
        f"vertex {source} occupied over an interval",
    ]


def test_standard_motion_refuses_lifted_family():
    m = banded_sphere_map()
    with pytest.raises(MotionError, match="repeating block"):
        standard_motion(m)


def test_standard_multiple_motion_banded():
    m = banded_sphere_map()
    info = classify_map(m)
    assert info["family"] == "B"
    assert info["faces"][0] == ("d", {"k": 2, "l": 2, "s": 4})
    ms = standard_multiple_motion(m, dict(info, m=1))
    assert ms.period == 6
    assert len(ms.cars) == 8
    assert all(c.period == 24 for c in ms.cars)
    # lap timetable of the first front car, one repeating block
    assert ms.cars[0].breakpoints[:6] == (
        (F(0), F(3)),
        (F(1), F(4)),
        (F(2), F(4)),
        (F(3), F(6)),
        (F(4), F(8)),
        (F(5), F(8)),
    )
    assert multiplicities(m, ms) == {0: 4, 1: 4}
    assert check_separated_stops(m, ms)["ok"]
    v = verify_source_sink_collisions(m, ms)
    assert v["ok"], v["problems"]
    rep = v["report"]
    assert rep.spatial_count == 8
    res = lemma16_bound(m, ms)
    assert res["bound"] == 8 and res["holds"]
    kinds = {m.classify_vertex(vx) for vx in rep.vertex_loci}
    assert kinds == {"source", "sink"}


def test_successive_banded_cars_are_time_shifts():
    m = banded_sphere_map()
    ms = standard_multiple_motion(m, dict(classify_map(m), m=1))
    front = [c for c in ms.cars if c.face == 0]
    for j in range(4):
        shifted = time_shifted_car(front[j], 24, F(6))
        assert shifted.breakpoints == front[(j + 1) % 4].breakpoints


@pytest.mark.parametrize("mval", [-1, True, 1.0, "1"])
def test_standard_builders_refuse_an_m_that_is_no_nonnegative_int(mval):
    m = banded_sphere_map()
    with pytest.raises(MotionError, match=f"^m must be a nonnegative integer, got {mval!r}$"):
        standard_multiple_motion(m, dict(classify_map(m), m=mval))
    pentagon = doubled_polygon_map(b_profile(1))
    with pytest.raises(MotionError, match=f"^m must be a nonnegative integer, got {mval!r}$"):
        standard_motion(pentagon, dict(classify_map(pentagon), m=mval))


def _standard_outcome(build, m, info):
    """The schedule `build` makes, its repr and its document text; or the
    message it refuses with."""
    try:
        ms = build(m, info)
    except MotionError as exc:
        return "refused", str(exc)
    try:
        text = jsonio.dumps(jsonio.motion_to_json(m, ms))
    except jsonio.JsonError as exc:
        text = f"JsonError: {exc}"
    return ms, repr(ms), text


def _doubled_polygon(rng):
    k, l = rng.randint(1, 3), rng.randint(1, 3)
    signs = rng.choice([b_profile(rng.randint(0, 3)), d_profile(k, l, rng.randint(1, 3))])
    if rng.random() < 0.5:
        signs = tuple(-s for s in signs)  # the c shapes, and d with k and l swapped
    return doubled_polygon_map(signs)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       source=st.sampled_from(["A", "B", "banded", "doubled"]),
       mval=st.sampled_from([None, 0, 1, 2, 3]))
def test_int_standard_builder_matches_the_fraction_builder(seed, source, mval):
    rng = make_rng(seed)
    if source in ("A", "B"):
        m = random_shape_map(rng, source)
    elif source == "banded":
        m = banded_sphere_map()
    else:
        m = _doubled_polygon(rng)
    info = classify_map(m)
    if mval is not None:
        info = dict(info, m=mval)
    for ints, fractions in ((standard_motion, standard_oracle.standard_motion),
                            (standard_multiple_motion, standard_oracle.standard_multiple_motion)):
        assert _standard_outcome(ints, m, info) == _standard_outcome(fractions, m, info)


# -- separated stops -----------------------------------------------------------


def test_separated_stops_flags_problems():
    m = doubled_polygon_map(b_profile(1))
    ms = standard_motion(m)
    undeclared = MotionSchedule(ms.period, ms.cars, frozenset())
    r = check_separated_stops(m, undeclared)
    assert not r["ok"] and "undeclared" in r["problems"][0]
    lone = MotionSchedule(ms.period, ms.cars, frozenset({(0, 1)}))
    r = check_separated_stops(m, lone)
    assert not r["ok"] and any("lone" in p for p in r["problems"])


def test_separated_stops_rejects_simultaneous_neighbors():
    m = doubled_polygon_map(b_profile(1))
    ms = standard_motion(m)
    # park the mirror car so both stop corners are held at once
    parked = CarSchedule(1, F(6), ((F(0), F(4)),))
    bad = MotionSchedule(F(6), (ms.cars[0], parked), ms.stop_corners)
    r = check_separated_stops(m, bad)
    assert not r["ok"]
    assert any("occupied together" in p for p in r["problems"])


# -- blow-up -------------------------------------------------------------------


def test_blow_up_without_stops_is_identity():
    m = pinwheel_map()
    ms = standard_motion(m)
    m2, ms2, report = blow_up(m, ms)
    assert report["identity"]
    assert m2 is m and ms2 is ms


def test_blow_up_doubled_pentagon():
    m = doubled_polygon_map(b_profile(1))
    ms = standard_motion(m)
    m2, ms2, report = blow_up(m, ms)
    assert report["new_edges"] == (5, 6)
    assert report["retries"] == 0
    assert m2.faces == (
        ((0, 1), (5, 1), (6, -1), (1, 1), (2, -1), (3, 1), (4, -1)),
        ((4, 1), (3, -1), (2, 1), (1, -1), (6, 1), (5, -1), (0, -1)),
    )
    assert m2.euler_characteristic() == 2
    assert ms2.cars[0].breakpoints == (
        (F(0), F(4)),
        (F(1, 2), F(9, 2)),
        (F(4), F(8)),
        (F(5), F(10)),
    )
    assert ms2.cars[1].breakpoints == (
        (F(0), F(3)),
        (F(1, 2), F(7, 2)),
        (F(1), F(4)),
        (F(2), F(6)),
    )
    assert is_regular(m2, ms2)
    assert not ms2.stop_corners
    rep = complete_collisions(m2, ms2)
    assert rep.spatial_count == 2
    assert not rep.edge_loci


def test_blow_up_finds_each_cars_stop_events_once(monkeypatch):
    found = []
    real = motion._car_events

    def counting(car, L, stops, visits, D):
        found.append(car)
        return real(car, L, stops, visits, D)

    monkeypatch.setattr(motion, "_car_events", counting)
    m = doubled_polygon_map(b_profile(2))
    ms = standard_motion(m)
    stop_faces = {f for f, _ in ms.stop_corners}
    blow_up(m, ms)
    assert found == [car for car in ms.cars if car.face in stop_faces]
    assert found


def test_car_events_pass_at_a_kink_takes_both_slopes():
    # corner 1 is passed at t = 1, where the slope steps from 1 to 2;
    # corner 2 is a stop
    bps = ((F(0), F(0)), (F(1), F(1)), (F(3, 2), F(2)), (F(5, 2), F(2)))
    car = CarSchedule(0, F(4), bps, degree=1)
    m = doubled_polygon_map((1, 1, -1))
    rec = motion._indexes_by_face(m, MotionSchedule(F(4), (car,), {(0, 1), (0, 2)}))
    # the record's visits over one period, at D = 2 the car's scale; ints
    # over 2 * D: the reference time 1/2, the pass, the stop, and the one
    # breakpoint kept, t = 0 a period on at 16
    assert (rec["D"], rec["H"], motion.car_scale(car, 3)) == (2, 8, 2)
    events = motion._car_events(car, 3, {1, 2}, rec["faces"][0][0][0], rec["D"])
    assert events == (2, [(4, 4, 1), (6, 10, 2)], [16])
    # the blow-up leaves the old track eps before the pass at slope 1 and
    # rejoins it eps after at slope 2, two spur darts on
    eps = F(1, 8)
    blown = motion._blow_up_car(car, 3, {1, 2}, eps, 2, *events)
    assert blown.breakpoints == (
        (F(0), F(0)), (F(1, 2), F(1, 2)),
        (1 - eps, 1 - eps), (1 - eps / 2, F(1)), (1 + eps / 2, F(3)), (1 + eps, 3 + 2 * eps),
        (F(3, 2), F(4)), (F(5, 2), F(6)),
    )


@pytest.mark.parametrize("period", [F(4), F(8)], ids=["one period", "two periods"])
def test_car_events_join_a_stop_across_the_seam(period):
    # the car rests on corner 0 over [7/2, 5], across t = 4, and passes
    # corner 1 at t = 2; over a one-period horizon its record lists the
    # stop in two parts, (0, 1) and (7/2, 4), which the window joins
    bps = ((F(0), F(0)), (F(1), F(0)), (F(2), F(1)), (F(3), F(2)), (F(7, 2), F(3)))
    car = CarSchedule(0, F(4), bps, degree=1)
    m = doubled_polygon_map((1, 1, -1))
    rec = motion._indexes_by_face(m, MotionSchedule(period, (car,), {(0, 0), (0, 1)}))
    assert rec["D"] == 2 and rec["H"] == 2 * period
    # over 2 * D: the reference time 3/2, the pass, the stop, and the one
    # breakpoint kept, t = 3
    events = motion._car_events(car, 3, {0, 1}, rec["faces"][0][0][0], rec["D"])
    assert events == (6, [(8, 8, 1), (14, 20, 0)], [12])


@settings(max_examples=16, deadline=None)
@given(mval=st.sampled_from([1, 2]), splits=st.lists(
    st.fractions(0, 1, max_denominator=12).filter(lambda x: 0 < x < 1),
    min_size=2, max_size=2))
def test_blow_up_reads_a_split_rest_as_one_stop(mval, splits):
    # a redundant breakpoint anywhere inside each rest changes no motion,
    # so the blow-up must not change either, its epsilon included
    m = doubled_polygon_map(b_profile(mval))
    ms = standard_motion(m)
    cars = []
    for car, x in zip(ms.cars, splits):
        bps = list(car.breakpoints)
        for (t, p), (t2, p2) in zip(car.breakpoints, car.breakpoints[1:]):
            if p == p2:
                bps.append((t + x * (t2 - t), p))
        assert len(bps) > len(car.breakpoints)
        cars.append(CarSchedule(car.face, car.period, sorted(bps), degree=car.degree))
    split = MotionSchedule(ms.period, tuple(cars), ms.stop_corners)
    assert check_separated_stops(m, split)["ok"] and is_regular(m, split)
    assert complete_collisions(m, split).spatial_count == 2
    assert blow_up(m, split) == blow_up(m, ms)


def test_window_meetings_build_no_fraction_without_a_meeting(monkeypatch):
    # on both darts a car climbs to a quarter and rests there: every pair
    # of moving and resting windows overlaps, and none meets
    built = []
    monkeypatch.setattr(motion, "Fraction", lambda *args: built.append(args))
    windows = [(0, 4, 0, 1, 16), (4, 8, 1, 0, 4)]
    out = {}
    motion._window_meetings(0, windows, windows, 1, out)
    assert (out, built) == ({}, [])


@pytest.mark.parametrize("mval", [1, 2])
def test_blow_up_keeps_collisions_off_new_edges(mval):
    m = doubled_polygon_map(b_profile(mval))
    ms = standard_motion(m)
    m2, ms2, report = blow_up(m, ms)
    assert m2.euler_characteristic() == 2
    assert is_regular(m2, ms2)
    rep = complete_collisions(m2, ms2)
    assert rep.spatial_count >= 2
    new_edges = set(report["new_edges"])
    assert not any(e in new_edges for e, _ in rep.edge_loci)
    old = complete_collisions(m, ms)
    assert rep.spatial_count == old.spatial_count


def near_passes(d):
    """The 2-gon sphere with both corners of one vertex declared stops: the
    front car passes its corner at t = 1, the back car d later."""
    m = doubled_polygon_map((1, -1))
    cars = (
        CarSchedule(0, F(2), ((F(1), F(1)),), degree=1),
        CarSchedule(1, F(2), ((1 + d, F(1)),), degree=1),
    )
    return m, MotionSchedule(F(2), cars, frozenset(m.vertices()[0]))


@pytest.mark.parametrize("d,retries,eps", [
    (F(1, 10), 1, F(1, 16)),
    (F(1, 100), 4, F(1, 128)),
    (F(1, 2000), 8, F(1, 2048)),
], ids=["d=1/10", "d=1/100", "d=1/2000"])
def test_blow_up_halves_epsilon_until_the_spurs_are_free(d, retries, eps):
    # the passes are d apart, so the first detours, a quarter period wide,
    # collide on the spurs; halving stops below one tick of scale 1/d
    m, ms = near_passes(d)
    assert check_separated_stops(m, ms)["ok"] and is_regular(m, ms)
    assert validate_motion(m, ms)["D"] == 1 / d
    m2, ms2, report = blow_up(m, ms)
    assert (report["retries"], report["epsilon"]) == (retries, eps)
    new_edges = set(report["new_edges"])
    rep = complete_collisions(m2, ms2)
    assert not any(e in new_edges for e, _ in rep.edge_loci)
    assert not any(all(m2.dart_at(c)[0] in new_edges for c in v) for v in rep.vertex_loci)


@st.composite
def lune_passes(draw):
    """Cars of periods 1/2 to 4, one per face of 2 to 4 lunes, at drawn
    phases and speeds, some resting at a corner; stops declared on two or
    more corners of each vertex, and drawn until separated."""
    m = lune_map(draw(st.integers(2, 4)))
    cars = []
    for f in range(m.face_count()):
        P = draw(st.sampled_from([F(1, 2), F(1), F(2), F(4)]))
        t0 = P * F(draw(st.integers(0, 23)), 24)
        p0 = draw(st.integers(0, 1))
        bps = ((t0, p0),)
        if draw(st.booleans()):
            bps += ((t0 + (P - t0) * F(draw(st.integers(1, 3)), 4), p0),)
        cars.append(CarSchedule(f, P, bps, degree=draw(st.integers(1, 2))))
    stops = frozenset()
    for vertex in m.vertices():
        stops |= draw(st.sets(st.sampled_from(vertex), min_size=2) | st.just(frozenset()))
    ms = MotionSchedule(F(1), tuple(cars), stops)
    assume(check_separated_stops(m, ms)["ok"])
    return m, ms


@st.composite
def separated_schedules(draw):
    """A separated, regular schedule: a standard motion, time shifted, on a
    family-A map, on a doubled b-profile polygon with stops, or lifted on a
    family-B map; two passes a drawn d apart, as in `near_passes`; or
    `lune_passes`."""
    kind = draw(st.sampled_from(["A", "doubled", "lifted", "near", "lunes"]))
    if kind == "near":
        return near_passes(draw(st.fractions(0, 1, max_denominator=300).filter(lambda d: 0 < d < 1)))
    if kind == "lunes":
        return draw(lune_passes())
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "A":
        m = random_shape_map(rng, "A")
        ms = standard_motion(m)
    elif kind == "doubled":
        m = relabel_map(rotate_map(doubled_polygon(b_profile(rng.choice([1, 2]))), rng), rng)
        ms = standard_motion(m)
    else:
        m = random_shape_map(rng, "B")
        ms = standard_multiple_motion(m, dict(classify_map(m), m=rng.choice([1, 2])))
    shift = draw(st.fractions(0, 12, max_denominator=8))
    cars = tuple(time_shifted_car(c, len(m.faces[c.face]), shift) for c in ms.cars)
    return m, MotionSchedule(ms.period, cars, ms.stop_corners)


@settings(max_examples=30, deadline=None)
@given(drawn=separated_schedules())
@example(drawn=near_passes(F(1, 10)))
@example(drawn=near_passes(F(1, 100)))
@example(drawn=near_passes(F(1, 2000)))
def test_blow_up_matches_the_retry_loop(drawn):
    # eps halvings decided from the events in ints, and each car built
    # once, against the loop that rebuilds every car and searches the
    # whole new map per eps
    m, ms = drawn
    assert blow_up(m, ms) == oracle.reference_blow_up(m, ms)


def test_blow_up_reads_each_spur_over_the_horizon():
    # the period-1/2 car passes each corner of face 0 twice for each pass
    # of the period-1 car on face 1, so the closest passes at the two ends
    # of a spur are found mod gcd(1/2, 1), not mod either period
    m = lune_map(2)
    cars = (CarSchedule(0, F(1, 2), ((F(1, 16), 0),), degree=1),
            CarSchedule(1, F(1), ((F(1, 12), 0),), degree=1))
    ms = MotionSchedule(F(1), cars, frozenset(c for v in m.vertices() for c in v))
    blown = blow_up(m, ms)
    assert (blown[2]["retries"], blown[2]["epsilon"]) == (1, F(1, 64))
    assert blown == oracle.reference_blow_up(m, ms)


def test_blow_up_runs_no_full_collision_search(monkeypatch):
    # the spurs and centres are decided from the cars' events: no search
    # over the whole new map, however many halvings
    calls = []
    real = motion.complete_collisions
    monkeypatch.setattr(motion, "complete_collisions",
                        lambda m, ms: calls.append(ms) or real(m, ms))
    cases = list(criterion_8_cases().values())
    cases += [near_passes(d) for d in (F(1, 10), F(1, 100), F(1, 2000))]
    retries = sum(blow_up(m, ms)[2]["retries"] for m, ms in cases)
    assert calls == [] and retries == 1 + 4 + 8


def test_blow_up_builds_no_index_of_its_own(monkeypatch):
    # the stop audit indexes every car once, in the schedule's record, and
    # the blow-up reads its stops and passes off that record; a car keeps
    # only its lap tables, one per face length
    calls = []
    real = motion.car_index
    monkeypatch.setattr(motion, "car_index", lambda car, *a: calls.append(car) or real(car, *a))
    cases = list(criterion_8_cases().values())
    cases += [near_passes(d) for d in (F(1, 10), F(1, 100), F(1, 2000))]
    for m, ms in cases:
        calls.clear()
        check_separated_stops(m, ms)
        blow_up(m, ms)
        assert calls == list(ms.cars)
        assert all(set(c._tables) <= {len(f) for f in m.faces} for c in ms.cars)


def test_blow_up_indexes_the_cars_without_the_stop_audit(monkeypatch):
    # the blow-up asks the schedule's record for the cars' indexes itself,
    # so it does not depend on the stop audit having filled the record
    m = doubled_polygon(b_profile(1))
    expected = blow_up(m, standard_motion(m))
    assert expected[2]["new_edges"] == (5, 6)
    monkeypatch.setattr(
        motion, "check_separated_stops", lambda m, ms: {"ok": True, "problems": []}
    )
    assert blow_up(m, standard_motion(m)) == expected


def test_blow_up_keeps_the_car_of_a_face_without_stops():
    m = lune_map(3)
    stops = frozenset(c for c in m.vertices()[0] if c[0] in (0, 1))
    cars = tuple(CarSchedule(f, F(2), ((F(f, 3), F(0)),), degree=1) for f in range(3))
    ms = MotionSchedule(F(2), cars, stops)
    m2, ms2, report = blow_up(m, ms)
    assert ms2.cars[2] is ms.cars[2]
    assert (report["retries"], report["epsilon"]) == (0, F(1, 8))


def test_blow_up_requires_separated_stops():
    m = doubled_polygon_map(b_profile(1))
    ms = standard_motion(m)
    with pytest.raises(MotionError, match="not separated"):
        blow_up(m, MotionSchedule(ms.period, ms.cars, frozenset({(0, 1)})))
    # separated stops, but a car parked inside a dart: not regular
    m = doubled_polygon_map((1, -1))
    parked = (CarSchedule(0, F(1), ((F(0), F(0)),)), CarSchedule(1, F(1), ((F(0), F(1, 2)),)))
    ms = MotionSchedule(F(1), parked, frozenset(m.vertex_of((0, 0))))
    assert check_separated_stops(m, ms)["ok"]
    with pytest.raises(MotionError, match="^blow-up needs a regular schedule$"):
        blow_up(m, ms)


def test_fraction_lcm():
    assert fraction_lcm([F(3), F(6)]) == 6
    assert fraction_lcm([F(3, 2), F(2)]) == 6
    assert fraction_lcm([F(1, 2), F(1, 3)]) == 1

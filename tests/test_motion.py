"""Car schedules, collision detection, standard motions and blow-up."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremotion.fuzzing import make_rng, random_multiple_motion, random_sphere_map
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
    MotionError,
    MotionSchedule,
    as_multiple_motion,
    blow_up,
    car_segments,
    check_separated_stops,
    collision_horizon,
    complete_collisions,
    corner_occupancy,
    fraction_lcm,
    intervals_instants,
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
from spheremotion.surface import classify_map


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


def test_position_at_laps_and_parking():
    car = unit_car(0, 3)
    assert position_at(car, 3, F(1, 2)) == F(1, 2)
    assert position_at(car, 3, F(7, 2)) == F(7, 2)  # lifted, one lap in
    assert position_at(car, 3, F(-1)) == F(-1)
    parked = CarSchedule(2, F(5), ((F(1), F(2)),))
    assert position_at(parked, 3, F(100)) == F(2)
    segs = car_segments(parked, 3)
    assert segs == [(F(1), F(2), F(6), F(2))]


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
    assert res == {"chi": 2, "bound": 3, "loci": 3, "holds": True}


def test_double_car_chain_is_checked():
    m = pinwheel_map()
    ms = pinwheel_unit_motion()
    # a second hexagon car out of phase by a third of a lap breaks the chain
    rogue = CarSchedule(1, F(6), tuple((F(i), F(2 + i)) for i in range(6)), degree=1)
    bad = MotionSchedule(F(3), ms.cars + (rogue,))
    with pytest.raises(MotionError, match="does not match"):
        as_multiple_motion(m, bad)


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


def b_profile(m):
    return (1,) + (1, -1) * (m + 1)


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


def test_blow_up_requires_separated_stops():
    m = doubled_polygon_map(b_profile(1))
    ms = standard_motion(m)
    with pytest.raises(MotionError, match="not separated"):
        blow_up(m, MotionSchedule(ms.period, ms.cars, frozenset({(0, 1)})))


def test_fraction_lcm():
    assert fraction_lcm([F(3), F(6)]) == 6
    assert fraction_lcm([F(3, 2), F(2)]) == 6
    assert fraction_lcm([F(1, 2), F(1, 3)]) == 1

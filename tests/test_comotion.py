"""Arrival-time schedules: winding counts, weights and induced cocars."""

import copy
import json
import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import comotion_oracle
import motion_oracle
from spheremotion import cli, comotion, motion
from spheremotion.comotion import (
    Cocar,
    Comotion,
    ComotionError,
    chi_indicator,
    comotion_collisions,
    corner_times,
    cotime_at,
    edge_components,
    induce_comotion,
    lemma11_check,
    lemma14_total,
    psi,
    psi_progress,
    subdivide_comotion,
    validate_comotion,
    weight_report,
)
from spheremotion.fuzzing import (
    bridge_problems,
    make_rng,
    pinwheel_variant,
    random_comotion,
    random_multiple_motion,
    random_sphere_map,
    random_torus_map,
)
from spheremotion.goldens import (
    doubled_polygon_map,
    genus_map,
    pinwheel_double_car_motion,
    pinwheel_map,
    pinwheel_unit_motion,
    square_torus_map,
)
from spheremotion.jsonio import comotion_to_json, dumps, map_to_json, parse_comotion, parse_map
from spheremotion.motion import (CarSchedule, CollisionReport, MotionError, complete_collisions,
                                 standard_motion)
from spheremotion.surface import classify_map


def beach_ball():
    return doubled_polygon_map((1, -1))


def beach_comotion():
    """Both lunes swept at unit speed, the back one two instants later."""
    front = Cocar(0, 1, ((F(0), F(0)), (F(1), F(1))))
    back = Cocar(1, 1, ((F(0), F(2)), (F(1), F(3))))
    return Comotion(F(4), (front, back))


# -- the time circle ----------------------------------------------------------


def test_chi_indicator_counts_cut_crossings():
    T = F(4)
    assert chi_indicator(T, F(1), F(3)) == 0
    assert chi_indicator(T, F(3), F(1)) == 1
    assert chi_indicator(T, F(2), F(2)) == 0
    # moving the reference can flip a single crossing
    assert chi_indicator(T, F(1), F(3), reference=F(2)) == 1


def test_psi_of_a_double_wind():
    assert psi(F(4), [F(0), F(2), F(0), F(2)]) == 2


times = st.fractions(min_value=0, max_value=30, max_denominator=8)


@given(st.lists(times, min_size=1, max_size=6), times)
def test_psi_ignores_the_reference(vals, ref):
    T = F(5)
    assert psi(T, vals, reference=ref) == psi(T, vals)


@given(st.lists(times, min_size=1, max_size=6))
def test_psi_is_the_total_forward_progress(vals):
    T = F(5)
    w = psi(T, vals)
    assert w == psi_progress(T, vals)
    assert w >= 0
    assert (w == 0) == (len({v % T for v in vals}) == 1)


# -- cocar and comotion validation --------------------------------------------


def test_cocar_rejects_bad_breakpoints():
    with pytest.raises(ComotionError, match="strictly increase"):
        Cocar(0, 1, ((F(1), F(0)), (F(0), F(1))))
    with pytest.raises(ComotionError, match="may not decrease"):
        Cocar(0, 1, ((F(0), F(1)), (F(1), F(0))))
    with pytest.raises(ComotionError, match="nonnegative"):
        Cocar(0, -1, ((F(0), F(0)),))
    with pytest.raises(ComotionError, match="nonnegative"):
        Cocar(0, True, ((F(0), F(0)),))
    with pytest.raises(ComotionError, match="^face must be an int, got True$"):
        Cocar(True, 0, ((F(0), F(0)),))


def test_comotion_refuses_a_float_period():
    with pytest.raises(ComotionError, match=r"^period must be an int or a Fraction, got 0\.3$"):
        Comotion(0.3, ())


def test_cocar_refuses_float_breakpoints():
    with pytest.raises(ComotionError, match=r"^breakpoint position must be an int or a "
                                            r"Fraction, got 0\.5$"):
        Cocar(0, 1, ((0.5, 0.25),))
    with pytest.raises(ComotionError, match="^breakpoint time must be an int or a Fraction, "
                                            "got True$"):
        Cocar(0, 1, ((0, 0), (1, True)))


def test_cocars_store_ints_over_least_scales():
    c = Cocar(2, 1, ((F(1, 2), 1), (F(3, 2), F(7, 3))))
    assert (c.xs, c.X, c.ys, c.Y) == ((1, 3), 2, (3, 7), 3)
    same = Cocar.from_ints(2, 1, [4, 12], 8, [6, 14], 6)
    assert same == c and hash(same) == hash(c)
    assert "breakpoints" not in vars(same)  # built on first read
    assert repr(same) == repr(c)
    assert same.breakpoints == ((F(1, 2), F(1)), (F(3, 2), F(7, 3)))
    assert pickle.loads(pickle.dumps(c)) == copy.copy(c) == c
    with pytest.raises(FrozenInstanceError):
        c.X = 4
    with pytest.raises(ComotionError, match="^cocar needs at least one breakpoint$"):
        Cocar(0, 0, ())


@st.composite
def lap_arguments(draw):
    """(face, period, us, U, vs, V, degree): the int arguments of a car's or a
    cocar's `from_ints`, mostly valid, with any mix of faults, alone or at
    once: no breakpoints, equal or falling us, falling vs, car times outside
    [0, period), a period that is not positive or not rational, a negative or
    non-int degree and a bool face."""

    def mostly(good, bad):
        return draw(bad if draw(st.integers(0, 4)) == 0 else good)

    U, V = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    period = mostly(st.integers(1, 12) | st.builds(F, st.integers(1, 48), st.integers(1, 4)),
                    st.integers(-1, 0) | st.builds(F, st.integers(-2, -1), st.integers(2, 4))
                    | st.sampled_from([True, 1.5]))
    n = mostly(st.integers(1, 4), st.just(0))
    # strictly increasing times below top + n stay in [0, period)
    top = max(math.ceil(period * U) - n, 0) if type(period) in (int, F) and period > 0 else 12
    us = [mostly(st.integers(0, top), st.integers(-2, 40)) for _ in range(n)]
    vs = draw(st.lists(st.integers(-4, 24), min_size=n, max_size=n))
    order = mostly(st.just("strict"), st.sampled_from(["any", "sorted"]))
    if order != "any":
        us = [u + i * (order == "strict") for i, u in enumerate(sorted(us))]
    if mostly(st.just(True), st.just(False)):
        vs.sort()
    degree = mostly(st.integers(0, 3), st.sampled_from([-1, True, 1.0, F(1)]))
    face = mostly(st.integers(0, 3), st.booleans())
    return face, period, us, U, vs, V, degree


def _verdict(build, *args):
    """What `build(*args)` makes, or the type and message of its refusal."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(args=lap_arguments())
def test_int_cars_and_cocars_refuse_as_the_fraction_classes(args):
    # each check fires in the order the Fraction classes run them, with the
    # same error and message; what both accept is the same car or cocar
    face, period, us, U, vs, V, degree = args
    bps = tuple((F(u, U), F(v, V)) for u, v in zip(us, vs))
    for got, want, ints, rebuild in (
        (_verdict(CarSchedule.from_ints, face, period, us, U, vs, V, degree),
         _verdict(motion_oracle.CarSchedule, face, period, bps, degree),
         lambda c: (c.ts, c.Y, c.ps, c.X),
         lambda ref: CarSchedule(face, period, ref.breakpoints, degree)),
        (_verdict(Cocar.from_ints, face, degree, us, U, vs, V),
         _verdict(comotion_oracle.Cocar, face, degree, bps),
         lambda c: (c.xs, c.X, c.ys, c.Y),
         lambda ref: Cocar(face, degree, ref.breakpoints)),
    ):
        if isinstance(got, tuple) or isinstance(want, tuple):
            assert got == want
            continue
        assert repr(got) == repr(want)
        pairs = want.breakpoints
        X, Y = (math.lcm(*(pair[k].denominator for pair in pairs)) for k in (0, 1))
        assert ints(got) == (tuple(x.numerator * X // x.denominator for x, _ in pairs), X,
                             tuple(y.numerator * Y // y.denominator for _, y in pairs), Y)
        same = rebuild(want)
        assert (same, hash(same), repr(same)) == (got, hash(got), repr(got))


def test_validate_comotion_rejects_mismatched_schedules():
    m = beach_ball()
    resting = Cocar(1, 0, ((F(0), F(0)),))
    with pytest.raises(ComotionError, match="in face order"):
        validate_comotion(m, Comotion(F(4), (Cocar(1, 0, ((F(0), F(0)),)), Cocar(0, 0, ((F(0), F(0)),)))))
    with pytest.raises(ComotionError, match=r"outside \[0, 2\)"):
        validate_comotion(m, Comotion(F(4), (Cocar(0, 0, ((F(2), F(0)),)), resting)))
    with pytest.raises(ComotionError, match="more than one lap"):
        validate_comotion(m, Comotion(F(4), (Cocar(0, 1, ((F(0), F(0)), (F(2), F(4)))), resting)))
    with pytest.raises(ComotionError, match="past the declared degree"):
        validate_comotion(m, Comotion(F(4), (Cocar(0, 1, ((F(0), F(0)), (F(1), F(5)))), resting)))


def test_a_comotion_is_checked_on_every_map():
    # a report on one map records nothing that lets a second map, with as
    # many faces, skip the checks
    com = beach_comotion()
    assert weight_report(beach_ball(), com)["total"] == 2
    short = doubled_polygon_map((1,))  # two 1-gons: position 1 is a whole lap
    assert short.face_count() == 2
    for call in (validate_comotion, weight_report, comotion_collisions, corner_times):
        with pytest.raises(ComotionError, match=r"^breakpoints span more than one lap$"):
            call(short, com)
    assert weight_report(beach_ball(), com)["total"] == 2


def test_cocars_out_of_face_order_get_no_result():
    front, back = beach_comotion().cocars
    com = Comotion(F(4), (back, front))
    m = beach_ball()
    calls = (
        weight_report,
        comotion_collisions,
        lambda m, com: lemma14_total(m, com, lambda x, y: x, lambda x, y: y),
        lambda m, com: subdivide_comotion(m, com, 0, (2, 3)),
    )
    for call in calls * 2:
        with pytest.raises(ComotionError, match="^need exactly one cocar per face, in face order$"):
            call(m, com)


def test_cotime_interpolates_and_lifts():
    c = Cocar(0, 1, ((F(0), F(0)), (F(1), F(1))))
    assert cotime_at(c, F(4), 2, F(1, 2)) == F(1, 2)
    assert cotime_at(c, F(4), 2, F(3, 2)) == F(5, 2)  # wrap segment of a 2-gon
    assert cotime_at(c, F(4), 2, F(5, 2)) == F(9, 2)  # next lap climbs one period


# -- collisions ----------------------------------------------------------------


def test_beach_ball_meets_in_the_middle_of_each_edge():
    m = beach_ball()
    rep = comotion_collisions(m, beach_comotion())
    assert rep.vertex_loci == {}
    assert rep.edge_loci == {(0, F(1, 2)): F(1, 2), (1, F(1, 2)): F(5, 2)}
    assert rep.spatial_count == 2


def test_flat_pieces_meet_along_a_whole_arc():
    m = beach_ball()
    front = Cocar(0, 1, ((F(0), F(0)), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 2)), (F(1), F(1))))
    back = Cocar(1, 1, ((F(0), F(2)), (F(1), F(3)), (F(3, 2), F(9, 2)), (F(7, 4), F(9, 2))))
    rep = comotion_collisions(m, Comotion(F(4), (front, back)))
    assert rep.edge_loci == {
        (0, (F(1, 4), F(1, 2))): F(1, 2),
        (1, F(1, 2)): F(5, 2),
    }


def test_weight_report_beach_ball():
    m = beach_ball()
    w = weight_report(m, beach_comotion())
    assert w["faces"] == {0: 0, 1: 0}
    assert w["edges"] == {0: 1, 1: 1}
    assert all(v == 0 for v in w["vertices"].values())
    assert w["total"] == w["chi"] == 2


def test_weight_report_needs_short_dart_sweeps():
    m = beach_ball()
    front = Cocar(0, 1, ((F(0), F(0)), (F(1), F(0))))
    back = Cocar(1, 1, ((F(0), F(0)), (F(1), F(1, 2))))
    com = Comotion(F(1), (front, back))
    validate_comotion(m, com)  # the schedule itself is fine
    with pytest.raises(ComotionError, match="subdivide first"):
        weight_report(m, com)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_weight_totals_are_the_euler_characteristic(seed):
    m = random_sphere_map(seed)
    com = random_comotion(m, seed + 1)
    assert weight_report(m, com)["total"] == 2
    t = random_torus_map(seed)
    tcom = random_comotion(t, seed + 1)
    assert weight_report(t, tcom)["total"] == 0


@given(
    st.integers(0, 10_000),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=6, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_telescoping_total_for_arbitrary_pair_functions(seed, coeffs):
    def g(x, y):
        return coeffs[0] + coeffs[1] * x + coeffs[2] * ((y - x) % 7)

    def h(x, y):
        return coeffs[3] + coeffs[4] * y + coeffs[5] * ((x + y) % 3)

    m = random_sphere_map(seed) if seed % 2 else random_torus_map(seed)
    com = random_comotion(m, seed + 1)
    assert lemma14_total(m, com, g, h) == m.euler_characteristic()


def test_collision_count_bounds_from_face_degrees():
    m = beach_ball()
    out = lemma11_check(m, beach_comotion())
    assert out == {"loci": 2, "slack": 0, "chi": 2, "holds": True}


# -- induced comotions ----------------------------------------------------------


def test_induced_comotion_matches_the_double_car_motion():
    m = pinwheel_map()
    ms = pinwheel_double_car_motion()
    com = induce_comotion(m, ms)
    assert [c.degree for c in com.cocars] == [1, 2, 1, 1, 1]
    rep = comotion_collisions(m, com)
    assert rep.vertex_loci == {
        ((0, 0),): F(0),
        ((2, 0), (3, 0), (4, 0)): F(0),
    }
    assert rep.edge_loci == {(3, F(1, 2)): F(3, 2)}
    assert lemma11_check(m, com) == {"loci": 3, "slack": -1, "chi": 2, "holds": True}


def test_induce_comotion_needs_a_multiple_motion():
    with pytest.raises(MotionError, match="is not 1"):
        induce_comotion(pinwheel_map(), pinwheel_unit_motion())


def test_induce_comotion_refuses_parked_cars():
    m = doubled_polygon_map((1, 1, -1, 1, -1))
    ms = standard_motion(m, classify_map(m))
    with pytest.raises(ComotionError, match="rests"):
        induce_comotion(m, ms)


@pytest.mark.parametrize("period", [F(5, 3), F(7, 2)])
def test_the_bridge_reads_instants_modulo_a_fractional_period(period):
    # the fuzz suites draw int periods only; a period p / q scales the compare by q
    rng = make_rng(4)
    for _ in range(5):
        m = random_sphere_map(rng)
        ms = random_multiple_motion(m, rng, period)
        rep = complete_collisions(m, ms)
        assert bridge_problems(m, ms, rep) == []
        late = [{key: [(a + period / 2, b + period / 2) for a, b in spans]
                 for key, spans in loci.items()} for loci in (rep.vertex_loci, rep.edge_loci)]
        problems = bridge_problems(m, ms, CollisionReport(rep.horizon, *late))
        assert len(problems) == rep.spatial_count
        assert all(p.startswith("instants differ") for p in problems)


# -- subdivision ------------------------------------------------------------------


def test_subdividing_an_edge_keeps_loci_and_weights():
    m = beach_ball()
    m2, com2 = subdivide_comotion(m, beach_comotion(), 0, (2, 3))
    validate_comotion(m2, com2)
    rep = comotion_collisions(m2, com2)
    # the old midpoint locus is now the fresh vertex
    assert rep.vertex_loci == {((0, 1), (1, 2)): F(1, 2)}
    assert rep.edge_loci == {(1, F(1, 2)): F(5, 2)}
    assert weight_report(m2, com2)["total"] == 2


def test_subdividing_keeps_off_centre_loci_on_the_right_half():
    m = beach_ball()
    front = Cocar(0, 1, ((F(0), F(0)), (F(1), F(1))))
    back = Cocar(1, 1, ((F(0), F(5, 2)), (F(1), F(7, 2))))
    com = Comotion(F(4), (front, back))
    assert comotion_collisions(m, com).edge_loci == {
        (0, F(5, 8)): F(5, 8),
        (1, F(3, 8)): F(23, 8),
    }
    m2, com2 = subdivide_comotion(m, com, 0, (2, 3))
    rep = comotion_collisions(m2, com2)
    assert rep.edge_loci == {
        (1, F(3, 8)): F(23, 8),
        (3, F(1, 4)): F(5, 8),
    }
    assert weight_report(m2, com2)["total"] == 2


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_subdivision_never_changes_the_total(seed):
    m = random_sphere_map(seed)
    com = random_comotion(m, seed + 1)
    edge = sorted(m.edge_ids)[seed % len(m.edge_ids)]
    nxt = max(m.edge_ids) + 1
    m2, com2 = subdivide_comotion(m, com, edge, (nxt, nxt + 1))
    validate_comotion(m2, com2)
    assert weight_report(m2, com2)["total"] == 2
    before = comotion_collisions(m, com).spatial_count
    after = comotion_collisions(m2, com2).spatial_count
    assert after >= before


CHAIN_STARTS = {
    "sphere": random_sphere_map,
    "torus": random_torus_map,
    "square torus": lambda rng: square_torus_map(),  # one face on both sides of each edge
    "genus-2": lambda rng: genus_map(2),  # the 4g-gon: one face as well
    "genus-3": lambda rng: genus_map(3),
    "pinwheel": lambda rng: pinwheel_variant(rng.randint(1, 6)),
}


def _reports(m, com):
    """The weight report, the collisions and the lemma-11 check, with every
    dict read in order."""
    weights = weight_report(m, com)
    rep = comotion_collisions(m, com)
    return ({k: list(v.items()) if type(v) is dict else v for k, v in weights.items()},
            list(rep.vertex_loci.items()), list(rep.edge_loci.items()),
            lemma11_check(m, com, rep))


@settings(max_examples=100, deadline=None)
@given(start=st.sampled_from(sorted(CHAIN_STARTS)), seed=st.integers(0, 10**4),
       period=st.sampled_from([None, F(3, 2), F(5, 12), F(7, 3)]), solve_start=st.booleans(),
       steps=st.lists(st.tuples(st.integers(-1, 10**3), st.booleans()), min_size=1, max_size=6))
@example(start="square torus", seed=0, period=None, solve_start=True, steps=[(0, True), (1, True)])
@example(start="genus-2", seed=1, period=None, solve_start=True, steps=[(2, True), (3, False)])
@example(start="sphere", seed=2, period=None, solve_start=True, steps=[(0, True), (-1, True),
                                                                       (-1, False)])
@example(start="torus", seed=3, period=F(5, 12), solve_start=False,
         steps=[(1, False), (2, True), (3, True)])
def test_subdivision_chains_report_as_their_documents(start, seed, period, solve_start, steps):
    # each step's reports equal those of its documents read back, which carry
    # no record; a step reads its own comotion, so that the next step hands
    # the solved edges over, when `read` is drawn or once it already has
    # them, and otherwise a record-free twin.  Pick -1 splits the edge the
    # step before made last
    rng = make_rng(seed)
    m = CHAIN_STARTS[start](rng)
    com = random_comotion(m, rng, period)
    solved = solve_start
    if solved:
        weight_report(m, com)
    for pick, read in steps:
        ids = sorted(m.edge_ids)
        nxt = ids[-1] + 1
        m, com = subdivide_comotion(m, com, ids[pick % len(ids)], (nxt, nxt + 1))
        assert ("edges" in validate_comotion(m, com)) == solved
        solved = solved or read
        read_back = parse_map(json.loads(dumps(map_to_json(m))))
        doc = parse_comotion(json.loads(dumps(comotion_to_json(m, com))), read_back)
        got = _reports(m, com if solved else Comotion(com.period, com.cocars))
        assert got == _reports(read_back, doc)
        assert got[0]["total"] == m.euler_characteristic()


def test_a_handed_over_record_is_span_checked(monkeypatch):
    checked = []
    span = comotion.span_check
    monkeypatch.setattr(comotion, "span_check", lambda m, com, ct: (checked.append(m),
                                                                    span(m, com, ct)))
    m = beach_ball()
    com = beach_comotion()
    weight_report(m, com)
    m2, com2 = subdivide_comotion(m, com, 0, (2, 3))
    assert checked == [m, m2]
    assert "edges" in validate_comotion(m2, com2)


@pytest.mark.parametrize("seed", range(12))
def test_documents_to_weights_build_no_fraction_breakpoints(seed):
    # cocars are read and solved in ints: no breakpoints are built, and the
    # package has no builder of a lap table from Fraction breakpoints
    m, subdivisions = random_sphere_map(seed), seed % 3
    doc = json.loads(dumps(comotion_to_json(m, random_comotion(m, seed))))
    com = parse_comotion(doc, m)
    for k in range(subdivisions):
        nxt = max(m.edge_ids) + 1
        m, com = subdivide_comotion(m, com, m.edge_ids[k], (nxt, nxt + 1))
    weight_report(m, com)
    comotion_collisions(m, com)
    assert not any(hasattr(mod, "int_lap") for mod in (motion, comotion))
    assert [c for c in com.cocars if "breakpoints" in vars(c)] == []
    assert all(c._tables for c in com.cocars)


def test_weights_collisions_and_their_json_build_no_fraction(monkeypatch):
    # a pinwheel comotion with vertex, point and arc loci is solved, weighed
    # and written in ints
    m = pinwheel_variant(1)
    com = random_comotion(m, make_rng(0), 2)
    built = []
    monkeypatch.setattr(comotion, "Fraction", lambda *args: built.append(args))
    weights = weight_report(m, com)
    doc = cli._comotion_collisions_json(comotion_collisions(m, com))
    assert built == []
    assert weights["total"] == weights["chi"] == 2
    assert doc["vertices"] and {"arc" in e for e in doc["edges"]} == {True, False}

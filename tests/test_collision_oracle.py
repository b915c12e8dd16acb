"""The indexed collision search against the reference segment-pair search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collision_oracle import reference_collisions
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
    MotionSchedule,
    blow_up,
    complete_collisions,
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


@pytest.mark.parametrize(
    "build",
    [sphere_multiple, shifted_multiple, torus_multiple, standard_a, standard_b, pinwheel_unit, blown_up],
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

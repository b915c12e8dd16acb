"""Suite-wide oracles for the builders that skip a constructor's check.

`groups._from_checked` wraps syllables as a word without the constructor's
check, on the promise that they are already in normal form: taken from
checked words by an operation of `groups`, such as `FreeProductWord.span`.
No other module names it.  For the whole run this fixture wraps the builder
and rebuilds every word it makes with the full check,
`FreeProductWord(base, syllables)`; a word that fails the check or differs
fails the test that made it, and the session as well.

Map edits work the same way.  `OrientedMap.remove_edge` builds its map
without the constructor and carries the vertex orbits over, and
`diagram._unchecked_diagram` builds the diagram of a phi merge without
`HowieDiagram.__post_init__`.  Every map the edit makes is compared with
the full rebuild of `map_edit_oracle.edit_problem` (faces, `edge_sides`,
`vertices()` in order, `vertex_of` and the corner translation), and every
diagram the builder makes is rebuilt with `HowieDiagram(...)` over
`OrientedMap(surface, faces)` and compared.

The presentation moves `rewriting.move_lower_s` and `move_absorb_b` build
their data through `rewriting._unchecked_data`, without
`RelativePresentationData.__post_init__`.  Every presentation it makes is
rebuilt with `RelativePresentationData(...)` and compared.

Cocars and cars are stored in ints.  Every lap table `comotion._lap`
builds is compared with `collision_oracle.int_lap` over the cocar's
`Fraction` breakpoints, and every cocar `Cocar.from_ints` builds is
compared, by equality, hash and repr, with `Cocar(face, degree,
breakpoints)` over the Fractions its ints stand for.  Cars work the same
way: every lap table `motion.car_lap` builds is compared with `int_lap`
over the car's Fraction breakpoints, and every car `CarSchedule.from_ints`
builds is compared with `CarSchedule(face, period, breakpoints, degree)`.
No check leaves the breakpoints cached on a cocar or a car.

A motion schedule keeps one record per map: `motion.validate_motion` makes
it once the checks pass, and `motion._indexes_by_face` adds the cars'
indexes.  Every record completed there is compared with the analysis of a
record-free copy of the schedule, its cars rebuilt from their Fractions
too so that no lap table or index is shared: the checks must pass and the
horizon, the time scales and every car's visits and windows must be
equal.  The rebuild
calls the functions as they were when the session started, so a test that
counts calls does not see it.

Run with `--noconftest` to time the suite without them.
"""

import functools
import math
from fractions import Fraction

import pytest

from collision_oracle import int_lap
from map_edit_oracle import edit_problem
from spheremotion import comotion, diagram, groups, motion, rewriting
from spheremotion.surface import OrientedMap


@pytest.fixture(scope="session", autouse=True)
def checked_word_oracle():
    build = groups._from_checked
    violations = []

    @functools.wraps(build)
    def checked(base, syllables):
        w = build(base, syllables)
        try:
            if type(syllables) is not tuple or groups.FreeProductWord(base, syllables) != w:
                raise groups.GroupError("not the word the full check builds")
        except groups.GroupError as exc:
            violations.append((base, syllables, str(exc)))
            raise AssertionError(f"unchecked word {syllables!r} over {base!r}: {exc}")
        return w

    groups._from_checked = checked
    try:
        yield
    finally:
        groups._from_checked = build
    assert not violations, violations[:5]


@pytest.fixture(scope="session", autouse=True)
def checked_presentation_oracle():
    build = rewriting._unchecked_data
    violations = []

    @functools.wraps(build)
    def checked(base, s, m, c, b, a):
        data = build(base, s, m, c, b, a)
        try:
            if type(b) is not tuple or type(a) is not tuple:
                raise rewriting.RewriteError("coefficient lists that are not tuples")
            if rewriting.RelativePresentationData(base, s, m, c, b, a) != data:
                raise rewriting.RewriteError("not the data the full check builds")
        except rewriting.RewriteError as exc:
            violations.append(((base, s, m, c, b, a), str(exc)))
            raise AssertionError(f"unchecked presentation (s, m) = ({s}, {m}): {exc}")
        return data

    rewriting._unchecked_data = checked
    try:
        yield
    finally:
        rewriting._unchecked_data = build
    assert not violations, violations[:5]


@pytest.fixture(scope="session", autouse=True)
def checked_edit_oracle():
    remove = OrientedMap.remove_edge
    build = diagram._unchecked_diagram
    violations = []

    def fail(what, problem):
        violations.append((what, problem))
        raise AssertionError(f"{what}: {problem}")

    @functools.wraps(remove)
    def checked_remove(m, edge):
        new, translate = remove(m, edge)
        problem = edit_problem(m, edge, new, translate)
        if problem is not None:
            fail(f"remove_edge({edge}) on {m.faces}", problem)
        return new, translate

    @functools.wraps(build)
    def checked_build(*parts):
        d = build(*parts)
        m = parts[0]
        try:
            full = diagram.HowieDiagram(OrientedMap(m.surface, m.faces), *parts[1:])
        except ValueError as exc:
            fail("unchecked diagram", f"the full check refuses it: {exc}")
        if full != d or full.map.vertices() != d.map.vertices():
            fail("unchecked diagram", "not the diagram the full check builds")
        return d

    OrientedMap.remove_edge = checked_remove
    diagram._unchecked_diagram = checked_build
    try:
        yield
    finally:
        OrientedMap.remove_edge = remove
        diagram._unchecked_diagram = build
    assert not violations, violations[:5]


@pytest.fixture(scope="session", autouse=True)
def int_cocar_oracle():
    Cocar = comotion.Cocar
    lap, from_ints = comotion._lap, Cocar.__dict__["from_ints"]
    build = from_ints.__func__
    fractions = Cocar.breakpoints.func  # builds them without caching them
    violations = []
    rebuilding = []

    def fail(what, problem):
        violations.append((what, problem))
        raise AssertionError(f"{what}: {problem}")

    @functools.wraps(lap)
    def checked_lap(cocar, T, L):
        table = lap(cocar, T, L)
        want = int_lap(fractions(cocar), L, cocar.degree * T, T.denominator)
        if table != want:
            fail(f"_lap of {cocar!r} at T={T}, L={L}", f"{table} is not {want}")
        return table

    @functools.wraps(build)
    def checked_build(cls, face, degree, xs, X, ys, Y):
        c = build(cls, face, degree, xs, X, ys, Y)
        if rebuilding:
            return c
        bps = tuple((Fraction(x, X), Fraction(y, Y)) for x, y in zip(xs, ys))
        rebuilding.append(True)  # the rebuild below goes through from_ints too
        try:
            full = Cocar(face, degree, bps)
        except comotion.ComotionError as exc:
            fail(f"from_ints{(face, degree, xs, X, ys, Y)}", f"the Fractions are refused: {exc}")
        finally:
            rebuilding.pop()
        ints = (*c.xs, c.X, *c.ys, c.Y)
        if not all(type(n) is int for n in ints):
            fail(f"from_ints{(face, degree, xs, X, ys, Y)}", "stores a part that is not an int")
        if (full, hash(full), repr(full)) != (c, hash(c), repr(c)):
            fail(f"from_ints{(face, degree, xs, X, ys, Y)}", f"{c!r} is not {full!r}")
        vars(c).pop("breakpoints")  # built by repr: leave it unbuilt
        return c

    comotion._lap = checked_lap
    Cocar.from_ints = classmethod(checked_build)
    try:
        yield
    finally:
        comotion._lap = lap
        Cocar.from_ints = from_ints
    assert not violations, violations[:5]


@pytest.fixture(scope="session", autouse=True)
def int_car_oracle():
    Car = motion.CarSchedule
    lap, from_ints = motion.car_lap, Car.__dict__["from_ints"]
    build = from_ints.__func__
    fractions = Car.breakpoints.func  # builds them without caching them
    violations = []
    rebuilding = []

    def fail(what, problem):
        violations.append((what, problem))
        raise AssertionError(f"{what}: {problem}")

    @functools.wraps(lap)
    def checked_lap(car, L):
        new = L not in car._tables
        table = lap(car, L)
        if new:
            want = int_lap(fractions(car), car.period, car.degree * L)
            if table != want:
                fail(f"car_lap of {car!r} at L={L}", f"{table} is not {want}")
        return table

    @functools.wraps(build)
    def checked_build(cls, face, period, ts, Y, ps, X, degree):
        c = build(cls, face, period, ts, Y, ps, X, degree)
        if rebuilding:
            return c
        what = f"from_ints{(face, period, ts, Y, ps, X, degree)}"
        bps = tuple((Fraction(t, Y), Fraction(p, X)) for t, p in zip(ts, ps))
        rebuilding.append(True)  # the rebuild below goes through from_ints too
        try:
            full = Car(face, period, bps, degree)
        except motion.MotionError as exc:
            fail(what, f"the Fractions are refused: {exc}")
        finally:
            rebuilding.pop()
        ints = (*c.ts, c.Y, *c.ps, c.X)
        if not all(type(n) is int for n in ints) or type(c.period) is not Fraction:
            fail(what, "stores a part that is not an int, or a period that is no Fraction")
        if (full, hash(full), repr(full)) != (c, hash(c), repr(c)):
            fail(what, f"{c!r} is not {full!r}")
        vars(c).pop("breakpoints")  # built by repr: leave it unbuilt
        return c

    motion.car_lap = checked_lap
    Car.from_ints = classmethod(checked_build)
    try:
        yield
    finally:
        motion.car_lap = lap
        Car.from_ints = from_ints
    assert not violations, violations[:5]


@pytest.fixture(scope="session", autouse=True)
def motion_record_oracle():
    indexes = motion._indexes_by_face
    check, scale, index, lap = motion._check, motion.car_scale, motion.car_index, motion.car_lap
    violations = []

    def fail(what, problem):
        violations.append((what, problem))
        raise AssertionError(f"{what}: {problem}")

    def analysis(m, ms):
        """The record's contents, from a copy of ms with no record and no
        car tables."""
        fractions = motion.CarSchedule.breakpoints.func  # without caching them
        cars = tuple(motion.CarSchedule(c.face, c.period, fractions(c), c.degree)
                     for c in ms.cars)
        fresh = motion.MotionSchedule(ms.period, cars, ms.stop_corners)
        check(m, fresh)
        horizon = motion.fraction_lcm([fresh.period] + [c.period for c in cars])
        on_face = [(car, len(m.faces[car.face])) for car in cars]
        D = math.lcm(*(scale(car, L) for car, L in on_face))
        faces = {}
        for car, L in on_face:
            reps = int(horizon / car.period)
            faces.setdefault(car.face, []).append((*index(car, L, reps, D), lap(car, L)[2]))
        return {"horizon": horizon, "faces": faces, "D": D, "H": horizon * D}

    @functools.wraps(indexes)
    def checked_indexes(m, ms):
        new = "faces" not in ms._records.get(m, ())
        rec = indexes(m, ms)
        if new:
            try:
                want = analysis(m, ms)
            except motion.MotionError as exc:
                fail(f"record of {ms!r}", f"the checks refuse the schedule: {exc}")
            if rec != want or ms._records[m] is not rec:
                fail(f"record of {ms!r}", "not the analysis of a record-free copy")
        return rec

    motion._indexes_by_face = checked_indexes
    try:
        yield
    finally:
        motion._indexes_by_face = indexes
    assert not violations, violations[:5]

"""Suite-wide oracles for the builders that skip a constructor's check.

`groups._from_checked` wraps syllables as a word without the constructor's
check, on the promise that they are already in normal form: taken from
checked words by an operation of `groups`, such as `FreeProductWord.span`.
No other module names it.  For the whole run this fixture wraps the builder
and rebuilds every word it makes with the full check,
`FreeProductWord(base, syllables)`; a word that fails the check or differs
fails the test that made it, and the session as well.

Map edits work the same way.  `OrientedMap.remove_edge` and the split
`surface.subdivide_edge` build their maps without the constructor; the
split carries the vertex orbits over, and a removal leaves them to be
walked when read.  `diagram._unchecked_diagram` builds the diagram of a
phi merge without `HowieDiagram.__post_init__`, with its phi cells and
exterior vertices carried over from the merged diagram.  Every map an
edit makes is compared with its full rebuild in `map_edit_oracle` (faces,
`edge_sides`, `vertices()` in order, `vertex_of` and, for a removal, the
corner translation), and every diagram the builder makes is rebuilt with
`HowieDiagram(...)` over `OrientedMap(surface, faces)` and compared; its
carried `_phi_cells` must be the faces that the word-level definition,
`phi_oracle.is_phi_cell`, finds, in order.  The split is a module function, so the fixture rebinds it in
every loaded module that holds it, test modules included.

The presentation moves `rewriting.move_lower_s` and `move_absorb_b` build
their data through `rewriting._unchecked_data`, without
`RelativePresentationData.__post_init__`.  Every presentation it makes is
rebuilt with `RelativePresentationData(...)` and compared.

Cars and cocars share one int core, `motion._IntLap`.  Every lap table
its builder makes is compared with `collision_oracle.int_lap` over the
object's `Fraction` breakpoints.  Every car or cocar that
`CarSchedule.from_ints` or `Cocar.from_ints` builds is compared with the
class that checked each breakpoint as a `Fraction`,
`motion_oracle.CarSchedule` or `comotion_oracle.Cocar`, over the
Fractions its ints stand for: the same repr, and ints over the least
scales of its breakpoints.  It must also equal, with the same hash, what
`CarSchedule(face, period, breakpoints, degree)` or `Cocar(face, degree,
breakpoints)` builds from those Fractions.  No check leaves the
breakpoints cached on a car or a cocar.

A motion schedule keeps one record per map: `motion.validate_motion` makes
it once the checks pass, and `motion._indexes_by_face` adds the cars'
indexes.  Every record completed there is compared with the analysis of a
record-free copy of the schedule, its cars rebuilt from their Fractions
too so that no lap table or index is shared: the checks must pass and the
horizon, the time scales and every car's visits and windows must be
equal.  The rebuild
calls the functions as they were when the session started, so a test that
counts calls does not see it.

A comotion keeps one record per map as well, and `subdivide_comotion`
hands the child a record of its own when the parent's holds solved
edges.  Every record handed over is compared with the analysis of a
record-free copy: a fresh `Comotion` of the same cocars, rebuilt from
their Fractions so that no lap table is shared, run through
`validate_comotion`, the span check and every edge's `edge_components`.
The corner ticks, residues and solved edges must be equal.  The rebuild
calls the functions as they were when the session started, and the
subdivision is rebound in every module that holds it, as the split is.

A collision report keeps its loci in ints, and its Fraction views are
built only when read.  Every report that `motion.complete_collisions`
builds, through `CollisionReport._from_ints`, is rebuilt through the
public constructor from its views, built uncached: the two reports must
be equal, and locus by locus, in order, the ints that the rebuild derives
must stand for the same spans and instants.  Each locus's int instants
must equal `collision_oracle.intervals_instants` of its Fraction spans,
its spans must be ints over a positive int scale and a normalized set,
and the edge loci must come sorted.  The views are left unbuilt.

A comotion's collisions are built in ints as well, each rational a reduced
int pair.  Every `ComotionCollisions` that `comotion.comotion_collisions`
returns is rebuilt from its Fraction views, built uncached, through
`comotion_oracle.collisions_from_fractions` and must be equal.  Every
instant, lambda and arc end must be a reduced pair of ints, and the edge
loci must come in the order the writer once sorted them into: by edge, then
by lambda or arc.  The views are built with the `Fraction` class even
where a test counts the ones that `comotion` builds, and left unbuilt.

Run with `--noconftest` to time the suite without them.
"""

import functools
import math
import sys
from fractions import Fraction

import pytest

import comotion_oracle
import motion_oracle
import phi_oracle
from collision_oracle import int_lap, intervals_instants
from map_edit_oracle import edit_problem, map_problem, rebuilt_subdivision
from spheremotion import comotion, diagram, groups, motion, rewriting, surface
from spheremotion.surface import OrientedMap


def rebind(old, new):
    """Bind `new` in place of `old` in every loaded module that holds it;
    returns the undo."""
    holders = [(vars(mod), name) for mod in list(sys.modules.values())
               for name, value in list(getattr(mod, "__dict__", {}).items()) if value is old]
    for namespace, name in holders:
        namespace[name] = new

    def undo():
        for namespace, name in holders:
            namespace[name] = old

    return undo


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
    remove, split = OrientedMap.remove_edge, surface.subdivide_edge
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

    @functools.wraps(split)
    def checked_split(m, edge, new_edges):
        new = split(m, edge, new_edges)
        problem = map_problem(new, rebuilt_subdivision(m, edge, new_edges))
        if problem is not None:
            fail(f"subdivide_edge({edge}, {new_edges}) on {m.faces}", problem)
        return new

    @functools.wraps(build)
    def checked_build(*parts, **carried):
        d = build(*parts, **carried)
        m = parts[0]
        try:
            full = diagram.HowieDiagram(OrientedMap(m.surface, m.faces), *parts[1:])
        except ValueError as exc:
            fail("unchecked diagram", f"the full check refuses it: {exc}")
        if full != d or full.map.vertices() != d.map.vertices():
            fail("unchecked diagram", "not the diagram the full check builds")
        if "_phi_cells" in vars(d):
            want = tuple(f for f in range(m.face_count()) if phi_oracle.is_phi_cell(d, f))
            if d._phi_cells != want:
                fail("unchecked diagram", f"carries phi cells {d._phi_cells}, not {want}")
        return d

    OrientedMap.remove_edge = checked_remove
    diagram._unchecked_diagram = checked_build
    unbind = rebind(split, checked_split)
    try:
        yield
    finally:
        OrientedMap.remove_edge = remove
        diagram._unchecked_diagram = build
        unbind()
    assert not violations, violations[:5]


@pytest.fixture(scope="session", autouse=True)
def int_lap_oracle():
    core = motion._IntLap
    table = core._lap_table
    fractions = core.breakpoints.func  # builds them without caching them
    violations = []
    rebuilding = []

    def fail(what, problem):
        violations.append((what, problem))
        raise AssertionError(f"{what}: {problem}")

    @functools.wraps(table)
    def checked_table(obj, key, span, climb):
        lap = table(obj, key, span, climb)
        want = int_lap(fractions(obj), Fraction(*span), Fraction(*climb), climb[1])
        if lap != want:
            fail(f"lap table of {obj!r} at {key}", f"{lap} is not {want}")
        return lap

    def checked(cls, reference, parts):
        # cls.from_ints(*args) against the Fraction class, reference(*parts(*args))
        build = cls.__dict__["from_ints"].__func__

        @functools.wraps(build)
        def checked_build(cls, *args):
            obj = build(cls, *args)
            if rebuilding:
                return obj
            what = f"{cls.__name__}.from_ints{args}"
            try:
                ref = reference(*parts(*args))
            except ValueError as exc:
                fail(what, f"the Fraction class refuses it: {exc}")
            X = math.lcm(*(x.denominator for x, _ in ref.breakpoints))
            Y = math.lcm(*(y.denominator for _, y in ref.breakpoints))
            want = (tuple(x.numerator * (X // x.denominator) for x, _ in ref.breakpoints), X,
                    tuple(y.numerator * (Y // y.denominator) for _, y in ref.breakpoints), Y)
            us, U, vs, V = ints = cls._axes(obj)
            if ints != want or not all(type(n) is int for n in (*us, U, *vs, V)):
                fail(what, f"stores {ints}, not the least ints {want}")
            rebuilding.append(True)  # the rebuild goes through from_ints too
            try:
                full = cls(*parts(*args))
            finally:
                rebuilding.pop()
            if (full, hash(full)) != (obj, hash(obj)) or {repr(full), repr(ref)} != {repr(obj)}:
                fail(what, f"{obj!r} is not {full!r}, or not {ref!r}")
            vars(obj).pop("breakpoints")  # built by repr: leave it unbuilt
            return obj

        return classmethod(checked_build)

    def pairs(us, U, vs, V):
        return tuple((Fraction(u, U), Fraction(v, V)) for u, v in zip(us, vs))

    Car, Cocar = motion.CarSchedule, comotion.Cocar
    saved = Car.__dict__["from_ints"], Cocar.__dict__["from_ints"]
    core._lap_table = checked_table
    Car.from_ints = checked(
        Car, motion_oracle.CarSchedule,
        lambda face, period, ts, Y, ps, X, degree: (face, period, pairs(ts, Y, ps, X), degree))
    Cocar.from_ints = checked(Cocar, comotion_oracle.Cocar,
                              lambda face, degree, *ints: (face, degree, pairs(*ints)))
    try:
        yield
    finally:
        core._lap_table = table
        Car.from_ints, Cocar.from_ints = saved
    assert not violations, violations[:5]


@pytest.fixture(scope="session", autouse=True)
def motion_record_oracle():
    indexes = motion._indexes_by_face
    check, scale, index = motion._check, motion.car_scale, motion.car_index
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
            faces.setdefault(car.face, []).append(index(car, L, reps, D))
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


@pytest.fixture(scope="session", autouse=True)
def comotion_record_oracle():
    subdivide = comotion.subdivide_comotion
    validate, span = comotion.validate_comotion, comotion.span_check
    solve = comotion.edge_components
    violations = []

    def fail(what, problem):
        violations.append((what, problem))
        raise AssertionError(f"{what}: {problem}")

    def analysis(m, com):
        """The record's contents, from a copy of com with no record and no
        cocar tables."""
        fractions = comotion.Cocar.breakpoints.func  # without caching them
        cocars = tuple(comotion.Cocar(c.face, c.degree, fractions(c)) for c in com.cocars)
        fresh = comotion.Comotion(com.period, cocars)
        rec = dict(validate(m, fresh))
        span(m, fresh, rec["ct"])
        rec["edges"] = {edge: solve(m, fresh, edge) for edge in m.edge_ids}
        return rec

    @functools.wraps(subdivide)
    def checked_subdivide(m, com, edge, new_edges):
        m2, com2 = subdivide(m, com, edge, new_edges)
        rec = com2._records.get(m2)
        if rec is not None:
            what = f"record handed over by subdividing {edge} of {m.faces}"
            try:
                want = analysis(m2, com2)
            except comotion.ComotionError as exc:
                fail(what, f"the checks refuse the child: {exc}")
            if rec != want:
                fail(what, "not the analysis of a record-free copy")
        return m2, com2

    unbind = rebind(subdivide, checked_subdivide)
    try:
        yield
    finally:
        unbind()
    assert not violations, violations[:5]


@pytest.fixture(scope="session", autouse=True)
def collision_report_oracle():
    Report = motion.CollisionReport
    build = Report.__dict__["_from_ints"].__func__
    views = Report.vertex_loci.func, Report.edge_loci.func  # without caching them
    violations = []

    def locus_problem(locus, derived, spans, horizon):
        (S, ints, instants), (S2, ints2, instants2) = locus, derived
        if type(S) is not int or S < 1 or not all(type(x) is int for iv in ints for x in iv):
            return f"spans {ints} over {S!r} are not ints over a positive int scale"
        if motion.normalize_intervals(ints, horizon * S) != ints:
            return f"spans {ints} over {S} are no normalized set"
        if [(a * S2, b * S2) for a, b in ints] != [(a * S, b * S) for a, b in ints2]:
            return f"spans {ints} over {S} are not {ints2} over {S2}"
        if [t * S2 for t in instants] != [t * S for t in instants2]:
            return f"instants {instants} over {S} are not {instants2} over {S2}"
        if [Fraction(t, S) for t in instants] != intervals_instants(spans, horizon):
            return f"instants {instants} over {S} are not those of the spans {spans}"
        return None

    @functools.wraps(build)
    def checked(cls, horizon, vertex_ints, edge_ints):
        rep = build(cls, horizon, vertex_ints, edge_ints)
        vertex_loci, edge_loci = (view(rep) for view in views)
        rebuilt = cls(horizon, vertex_loci, edge_loci)
        problems = [] if rebuilt == rep else ["not the report its views rebuild"]
        if list(edge_ints) != sorted(edge_ints):
            problems.append("edge loci out of order")
        for ints, derived, loci in ((vertex_ints, rebuilt.vertex_ints, vertex_loci),
                                    (edge_ints, rebuilt.edge_ints, edge_loci)):
            if list(ints) != list(derived):
                problems.append("loci keys differ from the rebuild's")
                continue
            problems += filter(None, (locus_problem(ints[k], derived[k], loci[k], horizon)
                                      for k in ints))
        for name in ("vertex_loci", "edge_loci"):
            vars(rep).pop(name, None)  # built by the comparison: leave them unbuilt
        if problems:
            violations.append((horizon, problems))
            raise AssertionError(f"collision report over {horizon}: {problems[:3]}")
        return rep

    Report._from_ints = classmethod(checked)
    try:
        yield
    finally:
        Report._from_ints = classmethod(build)
    assert not violations, violations[:5]


@pytest.fixture(scope="session", autouse=True)
def comotion_collisions_oracle():
    collisions = comotion.comotion_collisions
    Collisions = comotion.ComotionCollisions
    views = Collisions.vertex_loci.func, Collisions.edge_loci.func  # without caching them
    violations = []

    def flatten(key):  # the writer's sort key before the loci came in order
        e, where = key
        return (e, where, where) if not isinstance(where, tuple) else (e, *where)

    @functools.wraps(collisions)
    def checked(m, com):
        rep = collisions(m, com)
        counted, comotion.Fraction = comotion.Fraction, Fraction  # not the program's builds
        try:
            vertex_loci, edge_loci = (view(rep) for view in views)
        finally:
            comotion.Fraction = counted
        problems = []
        if comotion_oracle.collisions_from_fractions(vertex_loci, edge_loci) != rep:
            problems.append("not the collisions its views rebuild")
        pairs = [*rep.vertex_ints.values(), *rep.edge_ints.values()]
        for _, where in rep.edge_ints:
            pairs += where if type(where[0]) is tuple else [where]
        if not all(map(comotion_oracle.is_int_pair, pairs)):
            problems.append("an instant or a locus that is no reduced pair of ints")
        if list(edge_loci) != sorted(edge_loci, key=flatten):
            problems.append("edge loci out of order")
        if problems:
            violations.append((m, com, problems))
            raise AssertionError(f"comotion collisions on {m.faces}: {problems}")
        return rep

    unbind = rebind(collisions, checked)
    try:
        yield
    finally:
        unbind()
    assert not violations, violations[:5]

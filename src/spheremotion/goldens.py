"""Worked example objects used across the test suite and the CLI.

The pinwheel map is a five-face sphere map: a hexagon with a balloon
attached at one vertex and three triangles arranged around a central
vertex.  Its census (6 vertices, 9 edges, 5 faces, 18 corners) pins down
everything the motion examples need.
"""

from __future__ import annotations

from fractions import Fraction

from .motion import CarSchedule, MotionSchedule, fraction_lcm
from .surface import OrientedMap

# edge names for the pinwheel map
PINWHEEL_EDGES = {
    "loop": 0,  # balloon loop at the attachment vertex
    "neck": 1,  # edge between the balloon face and the hexagon
    "tail": 2,  # pendant edge of the hexagon
    "PR": 3,
    "RQ": 4,
    "QP": 5,
    "vP": 6,
    "vQ": 7,
    "vR": 8,
}


def pinwheel_map() -> OrientedMap:
    E = PINWHEEL_EDGES
    faces = (
        ((E["loop"], 1), (E["neck"], 1), (E["loop"], -1)),
        (
            (E["tail"], 1),
            (E["PR"], 1),
            (E["RQ"], 1),
            (E["QP"], 1),
            (E["tail"], -1),
            (E["neck"], -1),
        ),
        ((E["vP"], 1), (E["QP"], -1), (E["vQ"], -1)),
        ((E["vQ"], 1), (E["RQ"], -1), (E["vR"], -1)),
        ((E["vR"], 1), (E["PR"], -1), (E["vP"], -1)),
    )
    return OrientedMap("sphere", faces)


# named vertices of pinwheel_map, as corner sets
PINWHEEL_VERTICES = {
    "tip": frozenset({(0, 0)}),
    "attach": frozenset({(0, 1), (0, 2), (1, 5), (1, 0)}),
    "P": frozenset({(1, 1), (1, 4), (2, 1), (4, 2)}),
    "R": frozenset({(1, 2), (4, 1), (3, 2)}),
    "Q": frozenset({(1, 3), (3, 1), (2, 2)}),
    "center": frozenset({(2, 0), (3, 0), (4, 0)}),
}


def doubled_polygon_map(signs) -> OrientedMap:
    """Two n-gons glued along their whole boundary, a sphere with n vertices.

    The front face gets the given sign profile; the back face traverses
    the same edges mirrored, so its profile is the reversed complement.
    """
    n = len(signs)
    front = tuple((i, s) for i, s in enumerate(signs))
    back = tuple((n - 1 - j, -signs[n - 1 - j]) for j in range(n))
    return OrientedMap("sphere", (front, back))


def banded_sphere_map() -> OrientedMap:
    """Doubled 24-gon whose faces repeat a +++--- block four times."""
    return doubled_polygon_map(tuple(1 if i % 6 < 3 else -1 for i in range(24)))


def square_torus_map() -> OrientedMap:
    """One square with opposite sides glued, a single-vertex torus."""
    return OrientedMap("torus", (((0, 1), (1, 1), (0, -1), (1, -1)),))


def genus_map(g: int) -> OrientedMap:
    """One 4g-gon glued as a1 b1 a1^-1 b1^-1 ... ag bg ag^-1 bg^-1."""
    boundary = []
    for k in range(g):
        a, b = 2 * k, 2 * k + 1
        boundary += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return OrientedMap(f"genus-{g}", (tuple(boundary),))


def unit_speed_motion(m: OrientedMap) -> MotionSchedule:
    """One car per face running at unit speed, corner to corner."""
    cars = [CarSchedule.from_ints(f, len(b), range(len(b)), 1, range(len(b)), 1, 1)
            for f, b in enumerate(m.faces)]
    return MotionSchedule(fraction_lcm([c.period for c in cars]), tuple(cars))


def pinwheel_unit_motion() -> MotionSchedule:
    """Unit speed cars on the pinwheel map; meets in three spatial points."""
    return unit_speed_motion(pinwheel_map())


def pinwheel_retimed_motion() -> MotionSchedule:
    """Unit motion with one triangle car retimed to dodge the hexagon car.

    The car on the last triangle rushes through its first two darts and
    crawls home along the third, which empties the meeting point inside
    edge PR and leaves just two collision loci.
    """
    ms = pinwheel_unit_motion()
    retimed = CarSchedule(4, 3, ((0, 0), (Fraction(1, 2), 1), (1, 2)), degree=1)
    return MotionSchedule(ms.period, ms.cars[:4] + (retimed,))


def pinwheel_double_car_motion() -> MotionSchedule:
    """The unit motion with a second hexagon car half a lap behind.

    A multiple motion of period 3: the hexagon has multiplicity two, all
    other faces one.
    """
    ms = pinwheel_unit_motion()
    second = CarSchedule.from_ints(1, 6, range(6), 1, range(3, 9), 1, 1)
    return MotionSchedule(3, ms.cars + (second,))

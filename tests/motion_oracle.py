"""Reference motion documents: the reader and writer that built every car
from Fractions.

This is `jsonio.parse_motion` and `jsonio.motion_to_json` as they were
before cars were stored in ints, with the car class whose
`__post_init__` checked every breakpoint as a `Fraction`, its
`rational_pairs`, and the schedule check `motion._check` over those
breakpoints, verbatim.  The class keeps its old name, so its repr is the
one the int-stored car must print; it leaves out only the lap-table
cache, which nothing here reads.
The rational and position grammar, `_lift_positions` and the field
readers are shared with `jsonio`: they are the same in both readers.
`_face_entries`, the per-car entry reader that this reader and
`comotion_oracle.parse_comotion` share, is `jsonio`'s as it was before
one generator read a car's and a cocar's breakpoints, verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from spheremotion.jsonio import (
    JsonError,
    _field,
    _int,
    _lift_positions,
    _objects,
    _position,
    frac_to_str,
    parse_frac,
    position_to_json,
)
from spheremotion.motion import _RATIONALS, MotionError, MotionSchedule, rational
from spheremotion.surface import OrientedMap


def _face_entries(doc: dict, key: str, m: OrientedMap):
    """(entry, face, face length, breakpoints, degree) of each car or cocar."""
    for entry in _objects(doc, key):
        f = _field(entry, "face")
        if type(f) is not int or not 0 <= f < m.face_count():
            raise JsonError(f"no such face: {f!r}")
        bps, degree = _objects(entry, "breakpoints"), _int(entry, "degree")
        if not bps:
            raise JsonError("breakpoints must not be empty")
        yield entry, f, len(m.faces[f]), bps, degree


def rational_pairs(pairs, first: str, second: str, error=MotionError) -> tuple:
    """Pairs of ints or Fractions as Fraction pairs; `error` naming the
    first value of another type, as the `first` or `second` of its pair."""
    pairs = tuple(pairs)
    if not {type(x) for pair in pairs for x in pair} <= _RATIONALS:
        for a, b in pairs:
            rational(a, first, error)
            rational(b, second, error)
    return tuple((Fraction(a), Fraction(b)) for a, b in pairs)


@dataclass(frozen=True)
class CarSchedule:
    """One car: a face index, a period, breakpoints, and a lap count.

    Breakpoint times live in [0, period) and strictly increase; lifted
    positions never decrease.  The car climbs degree * L per period; with
    a single breakpoint and degree 0 the car is parked.
    """

    face: int
    period: Fraction
    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    degree: int = 0

    def __post_init__(self):
        object.__setattr__(self, "period", rational(self.period, "period"))
        bps = rational_pairs(self.breakpoints, "breakpoint time", "breakpoint position")
        object.__setattr__(self, "breakpoints", bps)
        if self.period <= 0:
            raise MotionError("period must be positive")
        if not bps:
            raise MotionError("car needs at least one breakpoint")
        if bps[0][0] < 0 or bps[-1][0] >= self.period:
            raise MotionError("breakpoint times must lie in [0, period)")
        for i in range(1, len(bps)):
            if bps[i][0] <= bps[i - 1][0]:
                raise MotionError("breakpoint times must strictly increase")
            if bps[i][1] < bps[i - 1][1]:
                raise MotionError("positions may not decrease")
        if type(self.degree) is not int or self.degree < 0:
            raise MotionError("degree must be a nonnegative integer")
        if type(self.face) is not int:
            raise MotionError(f"face must be an int, got {self.face!r}")


def _check(m: OrientedMap, ms: MotionSchedule) -> None:
    """Refuse a schedule whose cars or stop corners do not fit m."""
    n, d = ms.period.numerator, ms.period.denominator
    for car in ms.cars:
        if not (0 <= car.face < m.face_count()):
            raise MotionError(f"no such face: {car.face}")
        L = len(m.faces[car.face])
        p0 = car.breakpoints[0][1]
        if not (0 <= p0 < L):
            raise MotionError(f"initial position {p0} outside [0, {L})")
        if car.breakpoints[-1][1] > p0 + car.degree * L:
            raise MotionError("positions climb past the declared degree")
        # the schedule period over the car's is a / b; one must divide the other
        a, b = n * car.period.denominator, d * car.period.numerator
        if a % b and b % a:
            raise MotionError(
                f"car period {car.period} incommensurable with {ms.period}"
            )
    for f, j in ms.stop_corners:
        if not (0 <= f < m.face_count()) or not (0 <= j < len(m.faces[f])):
            raise MotionError(f"no such corner: {(f, j)}")


def validate_motion(m: OrientedMap, ms: MotionSchedule) -> None:
    """The checks of `motion.validate_motion`, without its record."""
    _check(m, ms)


def motion_to_json(m: OrientedMap, ms: MotionSchedule) -> dict:
    validate_motion(m, ms)
    cars = []
    for car in ms.cars:
        L = len(m.faces[car.face])
        positions = [p for _, p in car.breakpoints]
        for a, b in zip(positions, positions[1:]):
            if b - a >= L:
                raise JsonError(
                    f"face {car.face}: a car laps between breakpoints; "
                    "subdivide first"
                )
        cars.append(
            {
                "face": car.face,
                "period": frac_to_str(car.period),
                "degree": car.degree,
                "breakpoints": [
                    {"t": frac_to_str(t), "at": position_to_json(p % L)}
                    for t, p in car.breakpoints
                ],
            }
        )
    return {
        "period": frac_to_str(ms.period),
        "cars": cars,
        "stop_corners": sorted([f, j] for f, j in ms.stop_corners),
    }


def parse_motion(doc, m: OrientedMap) -> MotionSchedule:
    cars = []
    for entry, f, L, bps, degree in _face_entries(doc, "cars", m):
        times = []
        reduced = []
        for bp in bps:
            times.append(parse_frac(_field(bp, "t")))
            reduced.append(_position(_field(bp, "at"), L))
        # the car wraps each position in a Fraction, and ints take its fast path
        xs, X = _lift_positions(reduced, L)
        cars.append(
            CarSchedule(
                f,
                parse_frac(_field(entry, "period")),
                tuple(zip(times, xs if X == 1 else (Fraction(x, X) for x in xs))),
                degree=degree,
            )
        )
    stops = doc.get("stop_corners", [])
    if not isinstance(stops, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(type(x) is int for x in c)
        for c in stops
    ):
        raise JsonError("stop_corners must be a list of [face, index] int pairs")
    ms = MotionSchedule(
        parse_frac(_field(doc, "period")), tuple(cars), frozenset(map(tuple, stops))
    )
    validate_motion(m, ms)
    return ms

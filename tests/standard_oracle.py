"""Reference standard schedules, built in Fraction arithmetic.

This is the original builder of `spheremotion.motion`'s standard and
lifted schedules, kept as the oracle that the int builder is compared
against: every breakpoint, shift and period is a `Fraction` from the
start.  It shares the shape patterns, the anchor rotation and the saddle
corners with `motion`, which both builders read the same way.
"""

from fractions import Fraction
from typing import Optional

from spheremotion.motion import (
    CarSchedule,
    MotionError,
    MotionSchedule,
    _anchor_rotation,
    _pattern,
    _saddle_corners,
)
from spheremotion.surface import OrientedMap, classify_map


def _shift_into_range(bps, r, L: int):
    """Breakpoints moved r along a face of length L, first position in [0, L)."""
    shifted = [(t, p + r) for t, p in bps]
    drop = L * (shifted[0][1] // L)
    return tuple((t, p - drop) for t, p in shifted)


def _base_breakpoints(kind: str, mval: int, extras: dict):
    """Pattern-coordinate breakpoints of the standard car."""
    F = Fraction
    if kind == "a":
        return [(F(0), F(1))]
    if kind == "b":
        if mval == 0:
            return [(F(0), F(2)), (F(1), F(3)), (F(3, 2), F(4))]
        return [
            (F(0), F(2)),
            (F(2 * mval + 2), F(2 * mval + 4)),
            (F(4 * mval + 1), F(2 * mval + 4)),
        ]
    if kind == "c":
        if mval == 0:
            return [(F(0), F(0)), (F(1, 2), F(1)), (F(1), F(2))]
        return [(F(0), F(0)), (F(1), F(1)), (F(2 * mval), F(1))]
    k, l = extras["k"], extras["l"]
    if mval == 0:
        return [(F(0), F(k + 1)), (F(1), F(k + l + 2))]
    return [
        (F(0), F(k + 1)),
        (F(1), F(k + 2)),
        (F(2 * mval), F(k + 2)),
        (F(2 * mval + 1), F(k + l + 2)),
        (F(2 * mval + 2), F(2 * k + l + 2)),
        (F(4 * mval + 1), F(2 * k + l + 2)),
    ]


def _standard_schedule(m: OrientedMap, info: dict, lift: bool) -> MotionSchedule:
    """The standard schedule of `info`; with `lift`, a face of s repeated
    blocks carries s cars, each one block apart and one period behind the
    next, and 2-gon faces are refused once m > 0."""
    mval = info["m"] if info["m"] is not None else 0
    T = Fraction(4 * mval + 2)
    cars = []
    for f, (kind, extras) in enumerate(info["faces"]):
        profile = m.face_sign_profile(f)
        r = _anchor_rotation(profile, _pattern(kind, mval, extras))
        if lift and kind == "a" and mval > 0:
            raise MotionError("2-gon faces have no lift at this period")
        s = 1 if kind in ("a", "b", "c") else extras["s"]
        block = len(profile) // s
        base = _shift_into_range(_base_breakpoints(kind, mval, extras), r % block, block)
        period = Fraction(2) if kind == "a" else s * T
        for j in range(s):
            bps = tuple(
                (t + q * T, p + (j + q) * block) for q in range(s) for t, p in base
            )
            cars.append(CarSchedule(f, period, bps, degree=1))
    stops = _saddle_corners(m) if mval > 0 else frozenset()
    return MotionSchedule(T, tuple(cars), stops)


def standard_motion(m: OrientedMap, info: Optional[dict] = None) -> MotionSchedule:
    """The period 4m+2 schedule for maps whose faces fit the basic shapes."""
    if info is None:
        info = classify_map(m)
    if info["family"] != "A":
        raise MotionError("map has repeating block faces; build lifts instead")
    return _standard_schedule(m, info, lift=False)


def standard_multiple_motion(
    m: OrientedMap, info: Optional[dict] = None
) -> MotionSchedule:
    """Lifted schedule for maps with repeating block faces."""
    return _standard_schedule(m, info if info is not None else classify_map(m), lift=True)

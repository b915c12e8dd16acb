"""Reference standard shapes and schedules, built in Fraction arithmetic.

This is the original builder of `spheremotion.motion`'s standard and
lifted schedules, kept as the oracle that the int builder is compared
against: every breakpoint, shift and period is a `Fraction` from the
start.  It keeps its own copy of the original face classifier, which
reads a face's sign runs, and of the shape patterns and the anchor
rotation, so a fault in `surface`'s shapes or rotation shows against it.
It shares only the saddle corners with `motion`.
"""

from fractions import Fraction
from typing import Optional, Sequence

from spheremotion.motion import CarSchedule, MotionError, MotionSchedule, _saddle_corners
from spheremotion.surface import MapError, OrientedMap


def b_profile(m: int) -> tuple[int, ...]:
    return (1,) + (1, -1) * (m + 1)


def d_profile(k: int, l: int, s: int) -> tuple[int, ...]:
    return ((1,) * (k + 1) + (-1,) * (l + 1)) * s


def _runs(signs: Sequence[int]) -> list[tuple[int, int]]:
    """Run-length encoding of a cyclic sign sequence, merged across the seam."""
    out: list[tuple[int, int]] = []
    for s in signs:
        if out and out[-1][0] == s:
            out[-1] = (s, out[-1][1] + 1)
        else:
            out.append((s, 1))
    if len(out) > 1 and out[0][0] == out[-1][0]:
        first = out.pop(0)
        out[-1] = (out[-1][0], out[-1][1] + first[1])
    return out


def classify_face(signs: Sequence[int]) -> tuple[str, Optional[int], dict]:
    """Classify a cyclic sign profile as one of the standard face shapes.

    Returns (kind, m, extras) where kind is "a", "b", "c" or "d" and m is
    the number the b/c shapes determine (None for the others).  The d shape
    reports its two run lengths k, l >= 1 and its repetition count s.
    """
    runs = _runs(signs)
    n = len(signs)
    if len(runs) == 2 and runs[0][1] == 1 and runs[1][1] == 1:
        return ("a", None, {})
    # b and c are alternating except for a single doubled run; length 2m+3
    if n >= 3 and n % 2 == 1 and all(r[1] <= 2 for r in runs):
        plus = sum(1 for s in signs if s == 1)
        minus = n - plus
        doubles = [r for r in runs if r[1] == 2]
        if len(doubles) == 1:
            if plus == minus + 1 and doubles[0][0] == 1:
                return ("b", (n - 3) // 2, {})
            if minus == plus + 1 and doubles[0][0] == -1:
                return ("c", (n - 3) // 2, {})
    # d: ((+)^{k+1} (-)^{l+1})^s with k, l >= 1
    if len(runs) % 2 == 0 and len(runs) >= 2:
        plus_runs = [r[1] for r in runs if r[0] == 1]
        minus_runs = [r[1] for r in runs if r[0] == -1]
        if (
            len(plus_runs) == len(minus_runs)
            and len(set(plus_runs)) == 1
            and len(set(minus_runs)) == 1
            and plus_runs[0] >= 2
            and minus_runs[0] >= 2
            and runs[0][0] != runs[1][0]
        ):
            return (
                "d",
                None,
                {"k": plus_runs[0] - 1, "l": minus_runs[0] - 1, "s": len(plus_runs)},
            )
    raise MapError(f"face profile {tuple(signs)} matches no standard shape")


def classify_map(m: OrientedMap) -> dict:
    """Every face's (kind, extras), the family and the common m, as
    `surface.classify_map` reports them, from this module's classifier."""
    kinds, m_values, family = [], set(), "A"
    for f in range(m.face_count()):
        kind, mval, extras = classify_face(m.face_sign_profile(f))
        if mval is not None:
            m_values.add(mval)
        if kind == "d" and extras["s"] >= 2:
            family = "B"
        kinds.append((kind, extras))
    if len(m_values) > 1:
        raise MapError(f"faces disagree on m: {sorted(m_values)}")
    return {"family": family, "m": m_values.pop() if m_values else None, "faces": kinds}


def _pattern(kind: str, mval: int, extras: dict) -> tuple[int, ...]:
    if kind == "a":
        return (1, -1)
    if kind == "b":
        return b_profile(mval)
    if kind == "c":
        return tuple(-sign for sign in b_profile(mval))
    return d_profile(extras["k"], extras["l"], extras["s"])


def _anchor_rotation(profile, pattern) -> int:
    L = len(profile)
    if len(pattern) == L:
        for r in range(L):
            if all(profile[(r + p) % L] == pattern[p] for p in range(L)):
                return r
    raise MotionError(f"profile {profile} does not match pattern {pattern}")


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

"""Reference comotion solver: breakpoint scans, one edge at a time.

This is the original per-edge solver of `spheremotion.comotion`, kept as
the oracle that the lap-table lookups are compared against.  Every
`cotime_at` call scans the whole face, and every edge rebuilds the
dart-to-corner table.  Corner times, the span check, psi and the
subdivision remap work on Fractions, as the integer corner ticks'
oracle.  `psi` is the library's old definition verbatim, a sum of
`comotion.chi_indicator`, so a vertex weight here shares no code with
`comotion._descents`, which `weight_report` and `comotion.psi` run.
`subdivide_comotion` builds its map with
`map_edit_oracle.rebuilt_subdivision`, not with the split under test.
`parse_comotion` is the document reader that built every cocar
from Fractions, the oracle of the int reader.  `Cocar` is the cocar class
whose `__post_init__` checked every breakpoint as a `Fraction`, its
checks verbatim: the reference of the int-stored cocar's refusals and
repr, as `motion_oracle.CarSchedule` is the car's.  It converts with
`motion_oracle.rational_pairs`, the type check of `motion.scaled_pairs`,
and leaves out the lap-table cache.  The solver and the reader build the
int-stored cocars that `validate_comotion` reads.  `collisions_from_fractions`
builds a `ComotionCollisions` from Fraction loci, as its constructor did
before the loci moved to ints, and `ints` converts one rational to the
reduced pair that `edge_components` and the loci hold.  Slow on purpose:
keep inputs small.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from map_edit_oracle import rebuilt_subdivision
from motion_oracle import _face_entries, rational_pairs
from spheremotion import comotion
from spheremotion.comotion import (
    Comotion,
    ComotionCollisions,
    ComotionError,
    chi_indicator,
    validate_comotion,
)
from spheremotion.jsonio import (
    _EXPONENT,
    MAX_EXPONENT,
    JsonError,
    _field,
    _plain_ratio,
)
from spheremotion.surface import OrientedMap

ZERO = Fraction(0)


@dataclass(frozen=True)
class Cocar:
    """Arrival times along one face boundary.

    Breakpoints pair a lifted position with a lifted time; positions
    strictly increase within one lap and times never decrease.  Time
    jumps are not representable, so a cocar cannot express a car that
    parks; dually, a flat piece sweeps a whole arc in one instant.
    """

    face: int
    degree: int
    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        bps = rational_pairs(self.breakpoints, "breakpoint position", "breakpoint time",
                             ComotionError)
        object.__setattr__(self, "breakpoints", bps)
        if not bps:
            raise ComotionError("cocar needs at least one breakpoint")
        for i in range(1, len(bps)):
            if bps[i][0] <= bps[i - 1][0]:
                raise ComotionError("positions must strictly increase")
            if bps[i][1] < bps[i - 1][1]:
                raise ComotionError("times may not decrease")
        if type(self.degree) is not int or self.degree < 0:
            raise ComotionError("degree must be a nonnegative integer")
        if type(self.face) is not int:
            raise ComotionError(f"face must be an int, got {self.face!r}")


def cotime_at(cocar, T, L, x):
    """Lifted arrival time at lifted position x."""
    x = Fraction(x)
    p0, t0 = cocar.breakpoints[0]
    laps = (x - p0) // L
    xi = x - laps * L
    pts = cocar.breakpoints + ((p0 + L, t0 + cocar.degree * T),)
    for (pa, ta), (pb, tb) in zip(pts, pts[1:]):
        if pa <= xi <= pb:
            t = ta if pb == pa else ta + (xi - pa) * (tb - ta) / (pb - pa)
            return t + laps * cocar.degree * T
    raise ComotionError(f"position {x} not covered")  # pragma: no cover


def _pieces_over(cocar, T, L, x_lo, x_hi):
    """Linear time pieces (pa, ta, pb, tb) covering positions [x_lo, x_hi]."""
    p0, t0 = cocar.breakpoints[0]
    base = list(
        zip(cocar.breakpoints, cocar.breakpoints[1:] + ((p0 + L, t0 + cocar.degree * T),))
    )
    out = []
    for lap in range((x_lo - p0) // L, (x_hi - p0) // L + 1):
        dp, dt = lap * L, lap * cocar.degree * T
        for (pa, ta), (pb, tb) in base:
            lo, hi = max(pa + dp, x_lo), min(pb + dp, x_hi)
            if lo >= hi:
                continue
            slope = (tb - ta) / (pb - pa)
            out.append(
                (lo, ta + dt + slope * (lo - pa - dp), hi, ta + dt + slope * (hi - pa - dp))
            )
    out.sort()
    return out


def corner_times(m, com):
    """Lifted arrival time at every corner."""
    out = {}
    for f, boundary in enumerate(m.faces):
        L = len(boundary)
        for j in range(L):
            out[(f, j)] = cotime_at(com.cocars[f], com.period, L, Fraction(j))
    return out


def edge_components(m, com, edge):
    """Maximal solution components of the meeting equation on one edge."""
    T = com.period
    owners = {d: (f, j) for f, b in enumerate(m.faces) for j, d in enumerate(b)}
    fp, jp = owners[(edge, 1)]
    fm, jm = owners[(edge, -1)]
    Lp, Lm = len(m.faces[fp]), len(m.faces[fm])

    plus = _pieces_over(com.cocars[fp], T, Lp, Fraction(jp), Fraction(jp + 1))
    minus = _pieces_over(com.cocars[fm], T, Lm, Fraction(jm), Fraction(jm + 1))
    # both sides as functions of the + side parameter lam in [0, 1]
    cuts = {pa - jp for pa, _, pb, _ in plus} | {pb - jp for _, _, pb, _ in plus}
    cuts |= {jm + 1 - pa for pa, _, _, _ in minus} | {jm + 1 - pb for _, _, pb, _ in minus}
    grid = sorted(c for c in cuts if 0 <= c <= 1)

    def at_plus(lam):
        return cotime_at(com.cocars[fp], T, Lp, jp + lam)

    def at_minus(lam):
        return cotime_at(com.cocars[fm], T, Lm, jm + 1 - lam)

    raw = []
    for a, b in zip(grid, grid[1:]):
        Ha = at_plus(a) - at_minus(a)
        Hb = at_plus(b) - at_minus(b)
        if Ha == Hb:
            if Ha % T == 0:
                raw.append((a, b))
            continue
        k = -((-Ha) // T)  # first multiple of T at or above Ha
        while k * T <= Hb:
            lam = a + (k * T - Ha) * (b - a) / (Hb - Ha)
            raw.append((lam, lam))
            k += 1
    raw.sort()
    merged = []
    for a, b in raw:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b, at_plus(a) % T) for a, b in merged]


def ints(x) -> tuple[int, int]:
    """A Fraction or an int as the reduced int pair (numerator, denominator)."""
    return x.numerator, x.denominator


def is_int_pair(x) -> bool:
    """Whether x is a reduced pair of ints, not bools, with a positive
    denominator."""
    return (type(x) is tuple and len(x) == 2 and all(type(n) is int for n in x)
            and x[1] > 0 and gcd(*x) == 1)


def collisions_from_fractions(vertex_loci, edge_loci):
    """The `ComotionCollisions` whose Fraction views are these loci."""

    def where(w):
        return (ints(w[0]), ints(w[1])) if type(w) is tuple else ints(w)

    return ComotionCollisions({v: ints(t) for v, t in vertex_loci.items()},
                              {(e, where(w)): ints(t) for (e, w), t in edge_loci.items()})


def comotion_collisions(m, com):
    """Vertex and edge loci, every edge solved by the reference solver."""
    validate_comotion(m, com)
    T = com.period
    ct = corner_times(m, com)
    vertex_loci = {}
    for vertex in m.vertices():
        vals = {ct[c] % T for c in vertex}
        if len(vals) == 1:
            vertex_loci[vertex] = vals.pop()
    edge_loci = {}
    for edge in m.edge_ids:
        for a, b, t in edge_components(m, com, edge):
            if (a, b) in ((ZERO, ZERO), (Fraction(1), Fraction(1))):
                continue
            key = (edge, a) if a == b else (edge, (a, b))
            edge_loci[key] = t
    return collisions_from_fractions(vertex_loci, edge_loci)


def _span_check(m, com):
    T = com.period
    for f, boundary in enumerate(m.faces):
        L = len(boundary)
        for j in range(L):
            lo = cotime_at(com.cocars[f], T, L, Fraction(j))
            hi = cotime_at(com.cocars[f], T, L, Fraction(j + 1))
            if hi - lo >= T:
                raise ComotionError(
                    f"dart {j} of face {f} sweeps a full period; subdivide first"
                )


def psi(T, values, reference=ZERO):
    """Winding number of a cyclic tuple of instants: counts descents."""
    vals = list(values)
    return sum(
        chi_indicator(T, vals[i], vals[(i + 1) % len(vals)], reference)
        for i in range(len(vals))
    )


def weight_report(m, com):
    """Face, edge and vertex weights and their total."""
    validate_comotion(m, com)
    _span_check(m, com)
    T = com.period
    faces = {f: 1 - com.cocars[f].degree for f in range(m.face_count())}
    edges = {}
    for edge in m.edge_ids:
        comps = edge_components(m, com, edge)
        free = len(comps) - 1 if comps else 0
        if comps:
            free += int(comps[0][0] > 0) + int(comps[-1][1] < 1)
        else:
            free = 1
        edges[edge] = -1 + free
    ct = corner_times(m, com)
    vertices = {}
    for vertex in m.vertices():
        vertices[vertex] = 1 - psi(T, [ct[c] for c in vertex])
    total = sum(faces.values()) + sum(edges.values()) + sum(vertices.values())
    return {
        "faces": faces,
        "edges": edges,
        "vertices": vertices,
        "total": total,
        "chi": m.euler_characteristic(),
    }


def subdivide_comotion(m, com, edge, new_edges):
    """The comotion carried over to the map with one edge subdivided, the
    map rebuilt in full."""
    validate_comotion(m, com)
    m2 = rebuilt_subdivision(m, edge, new_edges)
    T = com.period
    cocars = []
    for cocar in com.cocars:
        boundary = m.faces[cocar.face]
        L = len(boundary)
        js = [j for j, d in enumerate(boundary) if d[0] == edge]
        if not js:
            cocars.append(cocar)
            continue

        def remap(x):
            base = x % L
            lap = (x - base) // L
            new = base + sum(max(ZERO, min(base - j, Fraction(1))) for j in js)
            return new + lap * (L + len(js))

        # breakpoints of the stretch itself become breakpoints of the cocar
        p0 = cocar.breakpoints[0][0]
        kinks = {Fraction(j + off) for j in js for off in (0, 1)}
        xs = {p for p, _ in cocar.breakpoints}
        xs |= {k + L * ((p0 - k) // L + 1) for k in kinks}
        xs = {x for x in xs if p0 <= x < p0 + L}
        bps = tuple(
            sorted((remap(x), cotime_at(cocar, T, L, x)) for x in xs)
        )
        cocars.append(comotion.Cocar(cocar.face, cocar.degree, bps))
    return m2, Comotion(T, tuple(cocars))


def lemma14_total(m, com, g, h):
    """The telescoping weight total for arbitrary pair functions g and h."""
    validate_comotion(m, com)
    ct = corner_times(m, com)
    total = ZERO
    owners = {d: (f, j) for f, b in enumerate(m.faces) for j, d in enumerate(b)}
    for f, boundary in enumerate(m.faces):
        L = len(boundary)
        total += 1 - sum(g(ct[(f, j)], ct[(f, (j + 1) % L)]) for j in range(L))
    for edge in m.edge_ids:
        fp, jp = owners[(edge, 1)]
        fm, jm = owners[(edge, -1)]
        Lp, Lm = len(m.faces[fp]), len(m.faces[fm])
        tail_p, head_p = ct[(fp, jp)], ct[(fp, (jp + 1) % Lp)]
        tail_m, head_m = ct[(fm, jm)], ct[(fm, (jm + 1) % Lm)]
        total += (
            -1
            + g(tail_p, head_p)
            + h(head_p, tail_m)
            + g(tail_m, head_m)
            + h(head_m, tail_p)
        )
    for vertex in m.vertices():
        k = len(vertex)
        total += 1 - sum(
            h(ct[vertex[i]], ct[vertex[(i + 1) % k]]) for i in range(k)
        )
    return total


# ---------------------------------------------------------------------------
# the document reader: `jsonio.parse_comotion` as it was before cocars were
# stored in ints, with its Fraction helpers, verbatim
# ---------------------------------------------------------------------------


def parse_frac(s) -> Fraction:
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str):
        raise JsonError(f"rational must be a 'p/q' string, got {s!r}")
    pq = _plain_ratio(s)
    if pq is not None:
        return Fraction(*pq)
    exp = _EXPONENT.search(s)
    try:
        if exp is not None and abs(int(exp[1])) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent {int(exp[1])} beyond +-{MAX_EXPONENT}")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise JsonError(f"bad rational {s!r}: {exc}") from None


def parse_position(doc, L: int) -> Fraction:
    if isinstance(doc, dict) and "corner" in doc:
        j = doc["corner"]
        if type(j) is not int or not 0 <= j < L:
            raise JsonError(f"corner index {j!r} outside 0..{L - 1}")
        return Fraction(j)
    k = _field(doc, "dart")
    lam = _field(doc, "lambda")
    if type(k) is int and 0 <= k < L and type(lam) is str:
        pq = _plain_ratio(lam)
        if pq is not None and 0 < pq[0] < pq[1]:
            p, q = pq
            return Fraction(k * q + p, q)
    lam = parse_frac(lam)
    if type(k) is not int or not 0 <= k < L:
        raise JsonError(f"dart index {k!r} outside 0..{L - 1}")
    if not 0 < lam < 1:
        raise JsonError(f"lambda {lam} not strictly inside the dart")
    return k + lam


def _lift_positions(reduced, L: int):
    """Rebuild nondecreasing lifted positions, each step less than a lap."""
    prev = reduced[0]
    lifted = [prev]
    lap = 0
    for r in reduced[1:]:
        if r < prev:
            lap += L
        lifted.append(r + lap if lap else r)
        prev = r
    return lifted


def parse_comotion(doc, m: OrientedMap) -> Comotion:
    cocars = []
    for entry, f, L, bps, degree in _face_entries(doc, "cocars", m):
        reduced = []
        times = []
        for bp in bps:
            reduced.append(parse_position(_field(bp, "at"), L))
            times.append(parse_frac(_field(bp, "time")))
        cocars.append(
            comotion.Cocar(
                f,
                degree,
                tuple(zip(_lift_positions(reduced, L), times)),
            )
        )
    com = Comotion(parse_frac(_field(doc, "period")), tuple(cocars))
    validate_comotion(m, com)
    return com

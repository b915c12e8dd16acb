"""Combinatorial maps on closed oriented surfaces.

A map is stored face by face: each face is the cyclic sequence of darts
(directed edge sides) along its boundary, read anticlockwise.  Every edge
appears exactly twice over all faces, once with each direction, so the
surface is closed and oriented.  The constructor reads the faces once
into one incidence table, `edge_sides`: each edge's + and - dart, as the
corners they start at.  Dart owners, the corner rotation, the edge ids and
the face components read it, and so do the edge loops of motion, comotion
and diagram.  Vertices are not stored; they are the orbits of the corner
rotation and get computed once per map, with the corner-to-vertex table.
Both edits, `remove_edge` and the split `subdivide_edge`, build their map
without the constructor: they translate `edge_sides`.  The split carries
the orbits over as well; a removal leaves them to be walked when read, and
`carry_vertex` translates one vertex through it.

The standard face shapes a, b, c and d of the main theorem's diagrams
live here too, once: `shape_profile` gives each one's sign profile, and
`classify_face` reads a face as the first shape whose profile it rotates
to, by the least `rotation`, which also anchors the standard schedules.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from .errors import InputError


class MapError(InputError):
    pass


SURFACE_CHI = {"sphere": 2, "torus": 0}


def surface_euler_characteristic(surface: str) -> int:
    if surface in SURFACE_CHI:
        return SURFACE_CHI[surface]
    g = surface[len("genus-"):]
    if surface.startswith("genus-") and g.isascii() and g.isdigit():
        return 2 - 2 * int(g)
    raise MapError(f"unknown surface: {surface!r}")


Dart = tuple[int, int]  # (edge id, +1 or -1)
Corner = tuple[int, int]  # (face index, index into the face's dart list)


@dataclass(frozen=True)
class OrientedMap:
    """Closed oriented surface map given by anticlockwise face boundaries."""

    surface: str
    faces: tuple[tuple[Dart, ...], ...]

    # edge -> (corner of its + dart, corner of its - dart)
    edge_sides: dict[int, tuple[Corner, Corner]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        seen: dict[int, list[tuple[int, Corner]]] = {}  # edge -> [(sign, corner)]
        for f, boundary in enumerate(self.faces):
            if not boundary:
                raise MapError(f"face {f} has empty boundary")
            for j, (edge, sign) in enumerate(boundary):
                if type(edge) is not int:
                    raise MapError(f"edge ids must be ints, got {edge!r} in face {f}")
                if type(sign) is not int or sign not in (1, -1):
                    raise MapError(f"bad dart sign {sign} in face {f}")
                seen.setdefault(edge, []).append((sign, (f, j)))
        sides = {}
        for edge, found in seen.items():
            if len(found) != 2 or found[0][0] == found[1][0]:
                raise MapError(
                    f"edge {edge} must appear exactly twice with opposite "
                    f"directions, got {[sign for sign, _ in found]}"
                )
            (sign, a), (_, b) = found
            sides[edge] = (a, b) if sign == 1 else (b, a)
        object.__setattr__(self, "edge_sides", sides)
        chi = self.euler_characteristic()
        want = surface_euler_characteristic(self.surface)
        if chi != want:
            raise MapError(
                f"Euler characteristic {chi} does not match {self.surface} "
                f"(expected {want})"
            )
        if len(self.face_components()) > 1:
            raise MapError("face-edge incidence graph is not connected")

    # -- basic census ------------------------------------------------------

    @cached_property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_sides))

    def edge_count(self) -> int:
        return len(self.edge_ids)

    def face_count(self) -> int:
        return len(self.faces)

    def corners(self) -> list[Corner]:
        return [(f, j) for f, b in enumerate(self.faces) for j in range(len(b))]

    def corner_count(self) -> int:
        return sum(len(b) for b in self.faces)

    def euler_characteristic(self) -> int:
        return len(self.vertices()) - self.edge_count() + self.face_count()

    def face_components(self, cut: frozenset = frozenset()) -> list[frozenset[int]]:
        """Classes of faces joined across the edges not in `cut`, in order
        of their smallest face."""
        adj: list[set[int]] = [set() for _ in self.faces]
        for edge, ((f1, _), (f2, _)) in self.edge_sides.items():
            if edge not in cut:
                adj[f1].add(f2)
                adj[f2].add(f1)
        comps, seen = [], set()
        for f in range(len(adj)):
            if f not in seen:
                comp, todo = {f}, [f]
                while todo:
                    for g in adj[todo.pop()] - comp:
                        comp.add(g)
                        todo.append(g)
                seen |= comp
                comps.append(frozenset(comp))
        return comps

    # -- darts and corners -------------------------------------------------

    def dart_at(self, corner: Corner) -> Dart:
        f, j = corner
        return self.faces[f][j]

    def corner_in_dart(self, corner: Corner) -> Dart:
        """The dart ending at this corner: the previous one along the face."""
        f, j = corner
        b = self.faces[f]
        return b[(j - 1) % len(b)]

    def sides_of(self, edge: int) -> tuple[Corner, Corner]:
        """The corners of the edge's + and - darts."""
        if type(edge) is not int:
            raise MapError(f"edge ids must be ints, got {edge!r}")
        if edge not in self.edge_sides:
            raise MapError(f"no such edge: {edge}")
        return self.edge_sides[edge]

    def dart_owner(self, dart: Dart) -> Corner:
        edge, sign = dart
        sides = self.edge_sides.get(edge)
        if sides is None or sign not in (1, -1):
            raise MapError(f"dart {dart} not present")
        if not (type(edge) is int is type(sign)):  # True and 1.0 hash like 1
            raise MapError(f"darts must be int pairs, got {dart!r}")
        return sides[sign < 0]

    def next_corner_acw(self, corner: Corner) -> Corner:
        """Next corner anticlockwise around the same vertex.

        Its outgoing dart is the other side of this corner's incoming dart.
        """
        edge, sign = self.corner_in_dart(corner)
        return self.edge_sides[edge][sign > 0]

    def corner_type(self, corner: Corner) -> tuple[int, int]:
        return (self.corner_in_dart(corner)[1], self.dart_at(corner)[1])

    # -- vertices ------------------------------------------------------------

    @cached_property
    def _orbits(self) -> tuple[tuple[Corner, ...], ...]:
        """Each orbit walked once, from its smallest corner."""
        seen, out = set(), []
        for start in self.corners():
            if start not in seen:
                cycle = [start]
                while (c := self.next_corner_acw(cycle[-1])) != start:
                    cycle.append(c)
                seen.update(cycle)
                out.append(tuple(cycle))
        return tuple(out)

    @cached_property
    def _corner_vertex(self) -> dict[Corner, tuple[Corner, ...]]:
        return {c: v for v in self._orbits for c in v}

    def vertices(self) -> list[tuple[Corner, ...]]:
        """Corner orbits of the rotation, each read anticlockwise."""
        return list(self._orbits)

    def vertex_at(self, corner: Corner) -> Optional[tuple[Corner, ...]]:
        """The vertex at `corner`, or None when the map has no such corner."""
        return self._corner_vertex.get(corner)

    def vertex_of(self, corner: Corner) -> tuple[Corner, ...]:
        vertex = self._corner_vertex.get(corner)
        if vertex is None:
            raise MapError(f"no such corner: {corner}")
        if not (type(corner[0]) is int is type(corner[1])):
            raise MapError(f"corners must be int pairs, got {corner!r}")
        return vertex

    def classify_vertex(self, vertex: Sequence[Corner]) -> str:
        types = [self.corner_type(c) for c in vertex]
        if all(t == (1, -1) for t in types):
            return "sink"
        if all(t == (-1, 1) for t in types):
            return "source"
        # a mixed vertex: its saddle corners (++) and (--) alternate, as the
        # up and down steps of the corners' in-signs around the vertex do
        return "mixed"

    # -- edits ---------------------------------------------------------------

    def remove_edge(self, edge: int) -> tuple["OrientedMap", dict[Corner, Corner]]:
        """The map without `edge`, its two faces merged, and a dict from
        each old corner to its new corner.

        The merged face reads the + dart's face from just after the edge,
        then the - dart's face; it takes the + face's index, and the faces
        after the - face move down by one.  V stays and E and F drop by one,
        so no invariant needs checking again: the map is built without the
        constructor.  Its vertex orbits are walked when first read, as a
        parsed map's are; a caller that carries some vertices over
        translates each with `carry_vertex`.

        The corner dict starts with the merged face's corners, and the rest
        go in during the one pass over `edge_sides` that translates it:
        every corner starts one dart, so that pass meets each once.  A
        corner of a face before the - face keeps its name, one after it
        moves down by one face.
        """
        (f1, i1), (f2, i2) = plus, minus = self.sides_of(edge)
        if f1 == f2:
            raise MapError(f"edge {edge} has face {f1} on both sides")
        b1, b2 = self.faces[f1], self.faces[f2]
        L1, L2 = len(b1), len(b2)
        if L1 == L2 == 1:
            raise MapError(f"removing edge {edge} would leave an empty face")
        faces = list(self.faces)
        faces[f1] = b1[i1 + 1:] + b1[:i1] + b2[i2 + 1:] + b2[:i2]
        del faces[f2]
        nf = f1 - (f2 < f1)
        merged = [(f1, (i1 + k) % L1) for k in range(1, L1)]
        merged += [(f2, (i2 + k) % L2) for k in range(1, L2)]
        translate = {c: (nf, k) for k, c in enumerate(merged)}
        # the corner the + dart starts at merges with the one after the -
        # dart, and the other way round; a vertex keeps one corner of each pair
        translate[plus] = (nf, (L1 - 1) % (L1 + L2 - 2))
        translate[minus] = (nf, 0)
        sides = {}
        for e, (a, b) in self.edge_sides.items():
            if e != edge:
                na = translate.get(a)
                if na is None:
                    na = translate[a] = a if a[0] < f2 else (a[0] - 1, a[1])
                nb = translate.get(b)
                if nb is None:
                    nb = translate[b] = b if b[0] < f2 else (b[0] - 1, b[1])
                sides[e] = (na, nb)
        out = object.__new__(OrientedMap)
        out.__dict__.update(surface=self.surface, faces=tuple(faces), edge_sides=sides)
        return out, translate

    def carry_vertex(self, vertex: Sequence[Corner], edge: int,
                     translate: dict[Corner, Corner]) -> tuple[Corner, ...]:
        """`vertex` of this map as a vertex of `remove_edge(edge)`'s map,
        whose corner dict is `translate`: the removed edge's two corners
        drop out, and the rest is read from its least corner, as `_orbits`
        reads every vertex."""
        plus, minus = self.edge_sides[edge]
        new = [translate[c] for c in vertex if c != plus and c != minus]
        k = new.index(min(new))
        return tuple(new[k:] + new[:k])

    # -- face profiles -------------------------------------------------------

    def face_sign_profile(self, f: int) -> tuple[int, ...]:
        return tuple(s for _, s in self.faces[f])


def b_profile(m: int) -> tuple[int, ...]:
    """The sign profile of the b shape with number m: 2m + 3 darts,
    alternating but for one doubled + run.  Negated, the c shape."""
    return (1,) + (1, -1) * (m + 1)


def d_profile(k: int, l: int, s: int) -> tuple[int, ...]:
    """The sign profile of the d shape: ((+)^(k+1) (-)^(l+1))^s."""
    return ((1,) * (k + 1) + (-1,) * (l + 1)) * s


def shape_profile(kind: str, m: int, extras: dict) -> tuple[int, ...]:
    """The sign profile of a standard shape, as `classify_face` reports it:
    the 2-gon a, the b shape with number m, its negation c, or the d shape
    of `extras`."""
    if kind == "a":
        return (1, -1)
    if kind == "b":
        return b_profile(m)
    if kind == "c":
        return tuple(-sign for sign in b_profile(m))
    return d_profile(extras["k"], extras["l"], extras["s"])


def rotation(signs: Sequence[int], profile: Sequence[int]) -> Optional[int]:
    """The least r with signs[r:] + signs[:r] == profile, or None."""
    signs, profile = tuple(signs), tuple(profile)
    if len(signs) == len(profile):
        for r in range(len(signs)):
            if signs[r:] + signs[:r] == profile:
                return r
    return None


def classify_face(signs: Sequence[int]) -> tuple[str, Optional[int], dict]:
    """Classify a cyclic sign profile as one of the standard face shapes.

    Returns (kind, m, extras) where kind is "a", "b", "c" or "d" and m is
    the number the b/c shapes determine (None for the others).  The d shape
    reports its two run lengths k, l >= 1 and its repetition count s.

    The face is the first shape, in that order, whose `shape_profile` it
    rotates to.  The counts fix each shape's parameters: b and c have
    2m + 3 darts, b one more + than - and c one more - than +, and d has
    s blocks, half the sign changes around the face, each of k + 1 +
    darts and l + 1 - darts.
    """
    signs = tuple(signs)
    n, plus = len(signs), signs.count(1)
    shapes = [("a", None, {})]
    if n >= 3 and n % 2:
        shapes.append(("b" if 2 * plus > n else "c", (n - 3) // 2, {}))
    s = sum(a != b for a, b in zip(signs, signs[1:] + signs[:1])) // 2
    if s and plus % s == (n - plus) % s == 0 and min(plus, n - plus) >= 2 * s:
        shapes.append(("d", None, {"k": plus // s - 1, "l": (n - plus) // s - 1, "s": s}))
    for kind, m, extras in shapes:
        if rotation(signs, shape_profile(kind, m, extras)) is not None:
            return kind, m, extras
    raise MapError(f"face profile {signs} matches no standard shape")


def classify_map(m: OrientedMap) -> dict:
    """Type every face and infer the common parameter of the b/c faces.

    Returns a dict with keys "family" ("A" or "B"), "m", and "faces", a
    list of per-face (kind, extras) entries.  The family is B when a type-d
    face repeats its block (s >= 2); a single block counts as the A shape.
    """
    kinds = []
    m_values = set()
    family = "A"
    for f in range(m.face_count()):
        kind, mval, extras = classify_face(m.face_sign_profile(f))
        if mval is not None:
            m_values.add(mval)
        if kind == "d" and extras["s"] >= 2:
            family = "B"
        kinds.append((kind, extras))
    if len(m_values) > 1:
        raise MapError(f"faces disagree on m: {sorted(m_values)}")
    m_common = m_values.pop() if m_values else None
    return {"family": family, "m": m_common, "faces": kinds}


# ---------------------------------------------------------------------------
# subdivision
# ---------------------------------------------------------------------------


def subdivide_edge(m: OrientedMap, edge: int, new_edges: tuple[int, int]) -> OrientedMap:
    """Replace an edge with a two-edge path through a fresh valence-2 vertex.

    The + dart becomes new_edges traversed (+, +), the - dart (-, -) in
    the opposite order.  V and E rise by one and connectivity cannot
    change, so no invariant needs checking again: as in `remove_edge`, the
    map is built without the constructor.  Each corner of the split faces
    moves one place on for every split dart before it, which keeps the
    corner order, so the old orbits translate corner by corner, keep their
    starting corners and stay sorted; the new vertex's two corners, one
    between the new darts on each side, go in as one more orbit.
    """
    e1, e2 = new_edges
    if type(e1) is not int or type(e2) is not int:
        raise MapError(f"edge ids must be ints, got {e1!r} and {e2!r}")
    used = set(m.edge_ids)
    if e1 in used or e2 in used or e1 == e2:
        raise MapError("new edge ids must be fresh and distinct")
    plus, minus = m.sides_of(edge)  # refuses an absent edge, or an id that is not an int
    split = {plus[0], minus[0]}
    translate = {(f, j): (f, j + sum(g == f and i < j for g, i in (plus, minus)))
                 for f in split for j in range(len(m.faces[f]))}
    faces = list(m.faces)
    for f in split:
        darts: list[Dart] = []
        for d in m.faces[f]:
            if d == (edge, 1):
                darts += [(e1, 1), (e2, 1)]
            elif d == (edge, -1):
                darts += [(e2, -1), (e1, -1)]
            else:
                darts.append(d)
        faces[f] = tuple(darts)
    at = translate.get
    (f1, i1), (f2, i2) = start1, start2 = at(plus, plus), at(minus, minus)
    middle = (f1, i1 + 1), (f2, i2 + 1)  # the new corners, after (e1, +1) and (e2, -1)
    sides = {e: (at(a, a), at(b, b)) for e, (a, b) in m.edge_sides.items() if e != edge}
    sides[e1] = start1, middle[1]
    sides[e2] = middle[0], start2
    orbits = [tuple(at(c, c) for c in orbit) for orbit in m._orbits]
    insort(orbits, tuple(sorted(middle)))
    out = object.__new__(OrientedMap)
    out.__dict__.update(surface=m.surface, faces=tuple(faces), edge_sides=sides,
                        _orbits=tuple(orbits))
    return out

"""Labelled maps over relative presentations and their collision audits.

A diagram is an oriented map whose corners carry t-free words over the
base free product and whose edges carry cyclic-generator symbols; the
edge arrow is the + dart.  Faces read anticlockwise, vertices clockwise,
both from the single global anticlockwise convention by reversal.

A diagram is checked once, by its constructor.  A move on a checked
diagram (`phi_reduce_move`) builds its result through one private builder,
`_unchecked_diagram`, which skips that check.  The move carries the
diagram's phi cells, tested once per chain, over to its result, and its
exterior vertices too, so a chain of moves walks no vertex orbit.

The constructor's base check passes on identity, as the labels of a
parsed document share one base object.  The two label tests that compare
a label with another's inverse, the phi-cell test and the fold test,
compare syllable tuples (`_mirrors`): neither builds a word nor calls `==`
on one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product
from typing import Optional

from .errors import InputError
from .groups import FreeProductWord
from .motion import (
    MotionSchedule,
    _offset,
    check_separated_stops,
    complete_collisions,
    lemma16_bound,
    standard_motion,
    standard_multiple_motion,
)
from .rewriting import RelativePresentation, in_P
from .surface import Corner, OrientedMap, classify_map


class DiagramError(InputError):
    pass


@dataclass(frozen=True)
class HowieDiagram:
    """Corner and edge labels on an oriented map, with exterior marks.

    corner_labels maps every corner to a t-free word, edge_labels maps
    every edge to the index of its cyclic generator.  phi_s, when set,
    switches on the phi family: cells p^t (p^phi)^-1 with p a nonidentity
    word in copies below phi_s count as relator cells.  large_faces adds
    the 2-grading.
    """

    map: OrientedMap
    corner_labels: dict
    edge_labels: dict
    exterior_vertices: frozenset = frozenset()
    exterior_faces: frozenset = frozenset()
    phi_s: Optional[int] = None
    large_faces: Optional[frozenset] = None

    def __post_init__(self):
        corners = set(self.map.corners())
        if set(self.corner_labels) != corners:
            raise DiagramError("every corner needs a label, and nothing else")
        base = None
        for c, w in self.corner_labels.items():
            if not isinstance(w, FreeProductWord) or w.has_t():
                raise DiagramError(f"corner {c}: label must be a t-free word")
            if base is None:
                base = w.base
            elif w.base is not base and w.base != base:
                raise DiagramError("corner labels over mixed base groups")
        if set(self.edge_labels) != set(self.map.edge_ids):
            raise DiagramError("every edge needs a symbol, and nothing else")
        for e, j in self.edge_labels.items():
            if type(j) is not int or j < 1:
                raise DiagramError(f"edge {e}: symbol index must be a positive int")
        for v in self.exterior_vertices:
            if type(v) is not tuple or not v or self.map.vertex_at(v[0]) != v:
                raise DiagramError("exterior vertex mark is not a vertex of the map")
        faces = set(range(self.map.face_count()))
        if not set(self.exterior_faces) <= faces:
            raise DiagramError("exterior face mark is not a face of the map")
        if self.large_faces is not None and not set(self.large_faces) <= faces:
            raise DiagramError("large face mark is not a face of the map")

    @property
    def base(self):
        return next(iter(self.corner_labels.values())).base

    def interior_faces(self):
        return tuple(
            f for f in range(self.map.face_count()) if f not in self.exterior_faces
        )

    def interior_vertices(self):
        return tuple(v for v in self.map.vertices() if v not in self.exterior_vertices)

    @cached_property
    def _phi_cells(self) -> tuple[int, ...]:
        """The faces that are phi cells, tested once per diagram."""
        return tuple(f for f in range(self.map.face_count()) if is_phi_cell(self, f))

    @cached_property
    def _reducible_pair(self):
        """`find_reducible_pair`'s witness, searched once per diagram."""
        for e in self.map.edge_ids:
            (f1, _), (f2, _) = self.map.edge_sides[e]
            if f1 == f2 or f1 in self.exterior_faces or f2 in self.exterior_faces:
                continue
            if _folds(self, e):
                return (f1, f2, e)
        return None


# the constructor's parameters in order, for `_unchecked_diagram`
_DIAGRAM_FIELDS = tuple(f.name for f in fields(HowieDiagram))


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def face_cells(d: HowieDiagram, f: int, start: int = 0):
    """(symbol, sign, corner word) per dart anticlockwise, corner after dart."""
    b = d.map.faces[f]
    L = len(b)
    out = []
    for i in range(L):
        e, s = b[(start + i) % L]
        after = (f, (start + i + 1) % L)
        out.append((d.edge_labels[e], s, d.corner_labels[after]))
    return tuple(out)


def face_label(d: HowieDiagram, f: int, start: int = 0) -> FreeProductWord:
    """Anticlockwise edge-and-corner product, starting with dart `start`."""
    syls = []
    for j, s, w in face_cells(d, f, start):
        syls.append(("t", j, s))
        syls.extend(w.syllables)
    return FreeProductWord.join(d.base, syls)


def vertex_label(d: HowieDiagram, vertex, start: Optional[Corner] = None):
    """Clockwise corner product; the start choice only conjugates it."""
    acw = d.map.vertex_of(min(vertex))
    if start is not None:
        if start not in acw:
            raise DiagramError(f"corner {start} is not at this vertex")
        k = acw.index(start)
        acw = acw[k:] + acw[:k]
    cw = (acw[0],) + tuple(reversed(acw[1:]))
    syls = [s for c in cw for s in d.corner_labels[c].syllables]
    return FreeProductWord.join(d.base, syls)


# ---------------------------------------------------------------------------
# the diagram-over check
# ---------------------------------------------------------------------------


def _mirrors(q: FreeProductWord, p: FreeProductWord, shift: int) -> bool:
    """Whether the t-free label q is the inverse of p with every copy moved
    up by `shift`: q = phi^shift(p)^-1, for two labels of one diagram.

    q's syllables are compared with p's read backwards, each moved `shift`
    copies up and its element inverted, up to the first that differs; no
    word is built.  Both labels are t-free and over one base, so their
    syllables are g-syllables and the bases need no comparison."""
    ps, qs = p.syllables, q.syllables
    if len(ps) != len(qs):
        return False
    inverse = p.base.inverse
    for (_, i, x), (_, k, y) in zip(reversed(ps), qs):
        if k != i + shift or y != inverse(x):
            return False
    return True


def is_phi_cell(d: HowieDiagram, f: int) -> bool:
    """A 2-gon reading t^-1 p t (p^phi)^-1 with p a nonidentity P-word.

    The last test, q = phi(p)^-1, compares q's syllables with p's reversed,
    moved one copy up and inverted (`_mirrors`), without building phi(p)."""
    if d.phi_s is None or len(d.map.faces[f]) != 2:
        return False
    cells = face_cells(d, f)
    if cells[0][1] == 1:
        cells = (cells[1], cells[0])
    (j1, s1, p), (j2, s2, q) = cells
    if (s1, s2) != (-1, 1) or j1 != j2:
        return False
    if p.is_identity() or not in_P(p, d.phi_s):
        return False
    return _mirrors(q, p, 1)


def check_diagram_over(d: HowieDiagram, pres: RelativePresentation) -> dict:
    """Interior faces must read relators up to rotation and inversion,
    interior vertex labels must collapse to the identity."""
    if pres.base != d.base:
        raise DiagramError("presentation over a different base group")
    face_violations = []
    phi_faces = d._phi_cells if pres.has_phi and d.phi_s is not None else ()
    for f in d.interior_faces():
        if f in phi_faces:
            continue
        w = face_label(d, f)
        # labels alternate t and corner syllables, so rotation agreement
        # is exactly conjugacy of the cyclic reductions
        if not any(
            w.is_conjugate_to(r) or w.is_conjugate_to(r.inverse())
            for r in pres.relators
        ):
            face_violations.append(f)
    vertex_violations = []
    for v in d.interior_vertices():
        if not vertex_label(d, v).is_identity():
            vertex_violations.append(v)
    return {
        "ok": not face_violations and not vertex_violations,
        "face_violations": tuple(face_violations),
        "vertex_violations": tuple(vertex_violations),
    }


# ---------------------------------------------------------------------------
# reduced and phi-reduced
# ---------------------------------------------------------------------------


def _folds(d: HowieDiagram, edge: int) -> bool:
    """Whether the faces on the two sides of `edge`, read from it, fold
    onto each other across it: their cells are each other's mirror.

    Cell k of the - side (as `face_cells` reads it from the edge) mirrors
    cell -k of the + side: the same symbol, the opposite sign, and the
    inverse of the label of the corner before that cell.  The cells are
    compared in order up to the first that differs, and a label is
    compared with the other's inverse syllable by syllable (`_mirrors`),
    only when its symbol and sign agree; no inverse word is built."""
    (f1, i1), (f2, i2) = d.map.edge_sides[edge]
    b1, b2 = d.map.faces[f1], d.map.faces[f2]
    L = len(b1)
    if len(b2) != L:
        return False
    symbols, labels = d.edge_labels, d.corner_labels
    for k in range(L):
        (e1, s1), (e2, s2) = b1[(i1 - k) % L], b2[(i2 + k) % L]
        if s2 != -s1 or symbols[e2] != symbols[e1]:
            return False
        if not _mirrors(labels[(f2, (i2 + k + 1) % L)], labels[(f1, (i1 - k) % L)], 0):
            return False
    return True


def find_reducible_pair(d: HowieDiagram):
    """A witness (face, face, edge) whose labels written from the shared
    edge are mutually inverse, or None when the diagram is reduced."""
    return d._reducible_pair


def phi_cells(d: HowieDiagram) -> list[int]:
    """The faces that are phi cells, in order."""
    return list(d._phi_cells)


def is_phi_reduced(d: HowieDiagram) -> bool:
    """Reduced, and no two distinct interior phi cells share an edge."""
    if d.phi_s is None:
        raise DiagramError("no phi structure on this diagram")
    return d._reducible_pair is None and adjacent_phi_cells(d, d._phi_cells) is None


def adjacent_phi_cells(d: HowieDiagram, cells):
    """A witness (face, face, edge): two distinct interior faces, both in
    `cells`, sharing an edge; or None."""
    cells = set(cells)
    for e in d.map.edge_ids:
        (f1, _), (f2, _) = d.map.edge_sides[e]
        if f1 == f2 or f1 in d.exterior_faces or f2 in d.exterior_faces:
            continue
        if f1 in cells and f2 in cells:
            return (f1, f2, e)
    return None


def phi_reduce_move(d: HowieDiagram, edge: int) -> HowieDiagram:
    """Merge the two distinct interior phi cells across `edge`.

    The two cells p^t (p^phi)^-1 and q^t (q^phi)^-1 become one cell for
    pq.  Faces and edges both drop by one, exterior labels survive.  A
    mutually inverse pair (q = p^-1) is refused: that is a reducible
    pair, not a removable edge.

    The result inherits the phi cells: f2 leaves, the faces after it move
    down by one, and the merged cell stays one, as pq is a nonidentity
    P-word (pq = 1 exactly when the two cells fold) and phi is a
    homomorphism.  The labels and the exterior vertices, by the map's
    `carry_vertex`, go through the one corner dict that `remove_edge`
    builds, so the new map's orbits are not walked, and the edge symbols
    are copied with the removed edge dropped.
    """
    (f1, i1), (f2, i2) = plus, minus = d.map.sides_of(edge)
    if f1 == f2:
        raise DiagramError("both sides of the edge lie on one face")
    if f1 in d.exterior_faces or f2 in d.exterior_faces:
        raise DiagramError("phi reduction needs interior cells")
    cells = d._phi_cells
    if f1 not in cells or f2 not in cells:
        raise DiagramError("phi reduction needs two phi cells")
    if _folds(d, edge):
        raise DiagramError("mutually inverse cells form a reducible pair")

    new_map, translate = d.map.remove_edge(edge)
    old = d.corner_labels
    labels = {translate[c]: w for c, w in old.items()}
    # each merged corner reads the + cell's label, then the - cell's
    labels[translate[plus]] = old[plus] * old[(f2, 1 - i2)]
    labels[translate[minus]] = old[minus] * old[(f1, 1 - i1)]
    symbols = dict(d.edge_labels)
    del symbols[edge]
    return _unchecked_diagram(
        new_map,
        labels,
        symbols,
        frozenset(d.map.carry_vertex(v, edge, translate) for v in d.exterior_vertices),
        frozenset(f - (f > f2) for f in d.exterior_faces),
        d.phi_s,
        None
        if d.large_faces is None
        else frozenset(f - (f > f2) for f in d.large_faces if f != f2),
        phi_cells=tuple(f - (f > f2) for f in cells if f != f2),
    )


def _unchecked_diagram(*parts, phi_cells: tuple[int, ...]) -> HowieDiagram:
    """`HowieDiagram(*parts)` without `__post_init__`, for a move on a checked
    diagram: each part is translated from that diagram's, and each new corner
    label is a product of two of its t-free labels over its base.  The
    result's `_phi_cells` is set to `phi_cells` instead of being tested."""
    d = object.__new__(HowieDiagram)
    d.__dict__.update(zip(_DIAGRAM_FIELDS, parts, strict=True))
    d.__dict__["_phi_cells"] = phi_cells
    return d


# ---------------------------------------------------------------------------
# collision audits
# ---------------------------------------------------------------------------


def _interior_loci(d: HowieDiagram, collisions) -> tuple[list, list]:
    """The report's vertex loci off the exterior vertices and its edge loci
    (edge, lam) off the exterior faces' edges, each in report order."""
    exterior_edges = {e for f in d.exterior_faces for e, _ in d.map.faces[f]}
    return (
        [v for v in collisions.vertex_ints if v not in d.exterior_vertices],
        [key for key in collisions.edge_ints if key[0] not in exterior_edges],
    )


def _require_standard_on_interior(d: HowieDiagram, ms: MotionSchedule, info=None):
    if info is None:
        info = classify_map(d.map)
    if info["family"] == "B":
        expected = standard_multiple_motion(d.map, info)
    else:
        expected = standard_motion(d.map, info)
    by_face = {}
    for car in expected.cars:
        by_face.setdefault(car.face, []).append(car)
    given = {}
    for car in ms.cars:
        given.setdefault(car.face, []).append(car)
    for f in d.interior_faces():
        L = len(d.map.faces[f])
        want, got = by_face.get(f, []), given.get(f, [])
        if len(want) != len(got) or not all(
            (offset := _offset(a, b, L, 0)) is not None and offset[0] == 0
            for a, b in zip(want, got)
        ):
            raise DiagramError(f"motion is not standard on interior face {f}")


def audit_standard_collisions(
    d: HowieDiagram, ms: MotionSchedule, info=None, collisions=None
) -> dict:
    """Evaluate the label equation forced at each interior collision.

    A complete collision at an interior sink or source forces the product
    of that vertex's corner labels to be 1.  The audit passes when every
    such product is not 1 (so no interior collision can sit inside a
    valid diagram) and no collision touches the interior of an interior
    edge.
    """
    _require_standard_on_interior(d, ms, info)
    if collisions is None:
        collisions = complete_collisions(d.map, ms)
    vertex_loci, edge_loci = _interior_loci(d, collisions)
    records = []
    for v in vertex_loci:
        S, _, instants = collisions.vertex_ints[v]
        label = vertex_label(d, v)
        records.append(
            {
                "vertex": v,
                "kind": d.map.classify_vertex(v),
                "instants": tuple(Fraction(t, S) for t in instants),
                "label": label,
                "refuted": not label.is_identity(),
            }
        )
    passes = all(r["refuted"] for r in records) and not edge_loci
    return {
        "passes": passes,
        "vertices": tuple(records),
        "interior_edge_loci": tuple(sorted(edge_loci)),
    }


# ---------------------------------------------------------------------------
# 2-graded analysis
# ---------------------------------------------------------------------------


def _large_corner_pairs(d: HowieDiagram, loci) -> dict:
    """Each locus's ordered pairs (a, b) of nonadjacent corners of large
    faces, in the locus's corner order by a, then by b."""
    table = {}
    for v in loci:
        fan = d.map.vertex_of(min(v))
        n = len(fan)
        at = {c: i for i, c in enumerate(fan) if c[0] in d.large_faces}
        ends = [c for c in v if c in at]
        table[v] = [
            (a, b) for a in ends for b in ends if (at[a] - at[b]) % n not in (0, 1, n - 1)
        ]
    return table


def _walk(m: OrientedMap, f: int, start: int, end: int) -> tuple[list, list]:
    """The darts of face f anticlockwise from corner `start` to another
    corner `end`, and the corners they join: dart j runs from corner j to
    corner j + 1."""
    L = len(m.faces[f])
    steps = (end - start) % L
    darts = [m.faces[f][(start + k) % L] for k in range(steps)]
    return darts, [(f, (start + k) % L) for k in range(steps + 1)]


def _contact_region(d: HowieDiagram, legs):
    """The first quiet side of the closed path walked along `legs`, each
    (face, start corner, end corner) as `_walk` takes them, or None.

    The path must pass no exterior vertex.  A side is quiet when it holds
    no large face (so neither contacting face) and no exterior face, and no
    exterior vertex has all its corners' faces inside it; none of those
    vertices lies on the path.  No leg is empty: its two corners sit at
    distinct vertices or are the nonadjacent pair of a self-contact.
    """
    m = d.map
    walks = [_walk(m, *leg) for leg in legs]
    if any(m.vertex_of(c) in d.exterior_vertices for _, path in walks for c in path):
        return None
    cut = frozenset(e for darts, _ in walks for e, _ in darts)
    for region in m.face_components(cut):
        if region.isdisjoint(d.large_faces) and region.isdisjoint(d.exterior_faces):
            if not any(all(f in region for f, _ in v) for v in d.exterior_vertices):
                return region
    return None


def bad_contact_report(d: HowieDiagram, collisions) -> tuple:
    """All pairs of large faces contacting around a quiet region.

    Two large faces (or one face with itself) contact badly when they
    hold nonadjacent corners at two distinct interior vertex loci of
    `collisions` and one side of the resulting closed path is quiet in
    `_contact_region`'s sense: it holds neither of them, no exterior or
    large cell, and no exterior vertex.  The one-vertex self-contact clause
    is included.  Corners at distinct vertices are distinct, so a
    self-contact at two vertices has four.  Contacts come by face pair A <= B
    in order, each A's self-contacts after its pairs, then by locus order.
    """
    if d.large_faces is None:
        raise DiagramError("bad contact needs the 2-grading")
    loci = _interior_loci(d, collisions)[0]
    return _bad_contacts(d, loci, _large_corner_pairs(d, loci))


def _bad_contacts(d: HowieDiagram, loci, table) -> tuple:
    """`bad_contact_report` over the interior vertex loci and their table."""
    # each candidate's faces, vertices, corners and path legs: [a1,a2] on A
    # and [b2,b1] on B between two vertices, [a,b] on A alone at one
    candidates = []
    large = sorted(d.large_faces)
    for i, A in enumerate(large):
        for B in large[i:]:
            for v1, v2 in permutations(loci, 2):
                for (a1, b1), (a2, b2) in product(table[v1], table[v2]):
                    if a1[0] == a2[0] == A and b1[0] == b2[0] == B:
                        legs = ((A, a1[1], a2[1]), (B, b2[1], b1[1]))
                        candidates.append(((A, B), (v1, v2), ((a1, b1), (a2, b2)), legs))
        for v in loci:
            for a, b in table[v]:
                if a[0] == b[0] == A:
                    candidates.append(((A, A), (v,), ((a, b),), ((A, a[1], b[1]),)))
    found = []
    for faces, vertices, corners, legs in candidates:
        region = _contact_region(d, legs)
        if region is not None:
            found.append(
                {"faces": faces, "vertices": vertices, "corners": corners, "region": region}
            )
    return tuple(found)


def lemma17_audit(
    d: HowieDiagram, ms: MotionSchedule, collisions=None
) -> dict:
    """Check the three impossibility conditions and report both counts.

    When multiplicities are at least 4 on large and 1 on small faces,
    every interior collision point shows two nonadjacent large corners,
    and no large cells contact badly, the collision count is squeezed
    between the multiplicity floor and the planar-graph cap of three
    edges per node, which cannot both hold.
    """
    if d.large_faces is None:
        raise DiagramError("lemma 17 needs the 2-grading")
    if d.map.surface != "sphere":
        raise DiagramError("lemma 17 speaks about sphere maps")
    if len(d.exterior_vertices) != 1 or d.exterior_faces:
        raise DiagramError("need a single exterior vertex and no exterior faces")
    sep = check_separated_stops(d.map, ms)
    if not sep["ok"]:
        raise DiagramError("motion does not have separated stops")
    if collisions is None:
        collisions = complete_collisions(d.map, ms)

    report: dict = {"conditions": {}, "contradiction": False}
    lemma16 = lemma16_bound(d.map, ms, collisions)
    mult = lemma16["multiplicities"]
    small = set(range(d.map.face_count())) - set(d.large_faces)
    cond1 = all(mult[f] >= 4 for f in d.large_faces) and all(
        mult[f] >= 1 for f in small
    )
    report["conditions"]["multiplicities"] = cond1

    vertex_points, edge_points = _interior_loci(d, collisions)
    report["interior_points"] = len(vertex_points) + len(edge_points)

    gamma_edges = []
    cond2 = True
    table = _large_corner_pairs(d, vertex_points)
    for v in vertex_points:
        pairs = [(a, b) for a, b in table[v] if a < b]
        if pairs:
            gamma_edges.append((pairs[0][0][0], pairs[0][1][0]))
        else:
            cond2 = False
    for (e, _lam) in edge_points:
        (s1, _), (s2, _) = d.map.edge_sides[e]
        if s1 in d.large_faces and s2 in d.large_faces:
            gamma_edges.append((s1, s2))
        else:
            cond2 = False
    report["conditions"]["nonadjacent_large_corners"] = cond2

    contacts = _bad_contacts(d, vertex_points, table)
    report["conditions"]["no_bad_contact"] = not contacts
    report["bad_contacts"] = contacts

    floor = lemma16["bound"]
    cap = 3 * len(d.large_faces)
    report["gamma"] = {
        "nodes": len(d.large_faces),
        "edges": tuple(gamma_edges),
        "cap": cap,
        "within_cap": len(gamma_edges) <= cap,
    }
    report["floor"] = floor
    if all(report["conditions"].values()):
        # the squeeze: at least `floor` points, at most `cap` of them
        report["contradiction"] = floor > cap
    return report

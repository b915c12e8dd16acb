"""Reference map edits: the full rebuilds that the in-place edits replace.

`rebuilt_without` removes an edge by listing the merged faces and calling
the checked constructor, which walks every incidence and vertex orbit
again; the corner translation is read off the darts.
`rebuilt_subdivision` is the original `subdivide_edge`: it lists every
face with the split dart replaced and calls the constructor.
`rebuilt_phi_move` is the original phi merge, which rebuilt the map and
then the whole diagram through both constructors.  Slow on purpose.
"""

from spheremotion.diagram import HowieDiagram
from spheremotion.surface import OrientedMap


def rebuilt_without(m: OrientedMap, edge: int):
    """(map, corner translation) of removing `edge`, both built in full."""
    (f1, i1), (f2, i2) = m.edge_sides[edge]
    b1, b2 = m.faces[f1], m.faces[f2]
    faces = [b for f, b in enumerate(m.faces) if f != f2]
    faces[f1 - (f2 < f1)] = b1[i1 + 1:] + b1[:i1] + b2[i2 + 1:] + b2[:i2]
    rebuilt = OrientedMap(m.surface, tuple(faces))
    # each old corner goes where its dart went; a corner one of the edge's
    # darts starts at goes where its neighbour in the orbit went
    partner = {(f1, i1): (f2, (i2 + 1) % len(b2)), (f2, i2): (f1, (i1 + 1) % len(b1))}
    where = {rebuilt.dart_at(c): c for c in rebuilt.corners()}

    def image(c):
        return image(partner[c]) if m.dart_at(c)[0] == edge else where[m.dart_at(c)]

    return rebuilt, {c: image(c) for c in m.corners()}


def rebuilt_subdivision(m: OrientedMap, edge: int, new_edges: tuple[int, int]) -> OrientedMap:
    """`subdivide_edge(m, edge, new_edges)` built in full; the ids are
    assumed fresh and the edge present."""
    e1, e2 = new_edges
    faces = []
    for b in m.faces:
        out = []
        for d in b:
            if d == (edge, 1):
                out += [(e1, 1), (e2, 1)]
            elif d == (edge, -1):
                out += [(e2, -1), (e1, -1)]
            else:
                out.append(d)
        faces.append(tuple(out))
    return OrientedMap(m.surface, tuple(faces))


def map_problem(new: OrientedMap, rebuilt: OrientedMap) -> str | None:
    """Where a map built without the constructor differs from its full
    rebuild, or None."""
    if new.surface != rebuilt.surface or new.faces != rebuilt.faces:
        return "faces differ"
    if new.edge_sides != rebuilt.edge_sides:
        return "edge_sides differ"
    if new.vertices() != rebuilt.vertices():
        return "vertices differ"
    if any(new.vertex_of(c) != rebuilt.vertex_of(c) for c in rebuilt.corners()):
        return "vertex_of differs"
    return None


def edit_problem(m: OrientedMap, edge: int, new: OrientedMap, translate) -> str | None:
    """What `m.remove_edge(edge)` got wrong against the full rebuild, or None."""
    rebuilt, want = rebuilt_without(m, edge)
    problem = map_problem(new, rebuilt)
    if problem is None and translate != want:
        return "corner translation differs"
    return problem


def rebuilt_phi_move(d: HowieDiagram, edge: int) -> HowieDiagram:
    """The phi merge across `edge`, map and diagram rebuilt in full.

    The preconditions are `phi_reduce_move`'s; this assumes they hold.
    """
    m = d.map
    (f1, i1), (f2, i2) = m.edge_sides[edge]
    other1 = m.faces[f1][1 - i1]
    other2 = m.faces[f2][1 - i2]
    lab1 = d.corner_labels[(f1, i1)] * d.corner_labels[(f2, 1 - i2)]
    lab2 = d.corner_labels[(f2, i2)] * d.corner_labels[(f1, 1 - i1)]

    keep = [f for f in range(m.face_count()) if f != f2]
    new_index = {f: k for k, f in enumerate(keep)}
    faces = [(other1, other2) if f == f1 else m.faces[f] for f in keep]
    new_map = OrientedMap(m.surface, tuple(faces))

    corner_labels, translate = {}, {}
    for f in keep:
        if f != f1:
            for j in range(len(m.faces[f])):
                corner_labels[(new_index[f], j)] = d.corner_labels[(f, j)]
                translate[(f, j)] = (new_index[f], j)
    nf1 = new_index[f1]
    corner_labels[(nf1, 1)] = lab1
    corner_labels[(nf1, 0)] = lab2
    translate[(f1, i1)] = translate[(f2, 1 - i2)] = (nf1, 1)
    translate[(f2, i2)] = translate[(f1, 1 - i1)] = (nf1, 0)
    return HowieDiagram(
        new_map,
        corner_labels,
        {e: j for e, j in d.edge_labels.items() if e != edge},
        exterior_vertices=frozenset(
            new_map.vertex_of(translate[v[0]]) for v in d.exterior_vertices
        ),
        exterior_faces=frozenset(new_index[f] for f in d.exterior_faces),
        phi_s=d.phi_s,
        large_faces=None
        if d.large_faces is None
        else frozenset(new_index[f] for f in d.large_faces if f != f2),
    )

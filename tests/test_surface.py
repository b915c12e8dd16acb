import json
import re

import pytest
from hypothesis import given, settings, strategies as st

import standard_oracle
from map_edit_oracle import edit_problem
from spheremotion.cli import main
from spheremotion.fuzzing import (
    make_rng,
    random_sphere_map,
    random_subdivisions,
    random_torus_map,
    relabel_map,
    rotate_map,
)
from spheremotion.goldens import PINWHEEL_VERTICES, banded_sphere_map, genus_map, pinwheel_map
from spheremotion.surface import (
    MapError,
    OrientedMap,
    classify_face,
    classify_map,
    rotation,
    shape_profile,
    subdivide_edge,
    surface_euler_characteristic,
)


def sphere_2gon():
    return OrientedMap("sphere", (((0, 1), (1, 1)), ((0, -1), (1, -1))))


def balloon():
    return OrientedMap("sphere", (((0, 1),), ((0, -1),)))


def torus_square():
    # one face a b a^-1 b^-1, one vertex
    return OrientedMap("torus", (((0, 1), (1, 1), (0, -1), (1, -1)),))


def test_surface_chi_values():
    assert surface_euler_characteristic("sphere") == 2
    assert surface_euler_characteristic("torus") == 0
    assert surface_euler_characteristic("genus-2") == -2
    assert surface_euler_characteristic("genus-0") == 2
    assert surface_euler_characteristic("genus-01") == 0
    for name in ("klein", "genus-x", "genus-", "genus- 1", "genus-1_0", "genus--1",
                 "genus-+1", "genus-1 ", "genus-\u0661", "Genus-1"):
        with pytest.raises(MapError, match=re.escape(f"unknown surface: {name!r}")):
            surface_euler_characteristic(name)


def test_validation_rejects_bad_edges():
    with pytest.raises(MapError):
        OrientedMap("sphere", (((0, 1), (0, 1)), ((1, 1), (1, -1))))
    with pytest.raises(MapError):
        OrientedMap("sphere", (((0, 1),),))
    with pytest.raises(MapError):  # chi mismatch
        OrientedMap("torus", (((0, 1),), ((0, -1),)))
    with pytest.raises(MapError):  # disconnected: two separate balloons
        OrientedMap(
            "sphere",
            (((0, 1),), ((0, -1),), ((1, 1),), ((1, -1),)),
        )


BALLOON = (((0, 1),), ((0, -1),))
SQUARE = (((1, 1), (2, 1), (1, -1), (2, -1)),)

# (surface, faces, message) of every refusal of the constructor, in its
# check order: faces and signs in one reading, then the edge pairings in
# the order the edges are first read, then chi, then connectivity
CONSTRUCTOR_ERRORS = {
    "empty_face": ("sphere", (((0, 1),), (), ((0, 2),)), "face 1 has empty boundary"),
    "bad_sign": ("sphere", (((0, 1),), ((0, 0),), ()), "bad dart sign 0 in face 1"),
    "sign_before_pairing": ("sphere", (((0, 1),), ((1, 3),)), "bad dart sign 3 in face 1"),
    "seen_once": ("sphere", (((0, 1),),),
                  "edge 0 must appear exactly twice with opposite directions, got [1]"),
    "one_sign_twice": ("sphere", (((0, 1), (0, 1)), ((1, 1), (1, -1))),
                       "edge 0 must appear exactly twice with opposite directions, "
                       "got [1, 1]"),
    "seen_three_times": ("sphere", (((0, 1), (0, -1)), ((0, 1),)),
                         "edge 0 must appear exactly twice with opposite directions, "
                         "got [1, -1, 1]"),
    "first_read_edge_first": ("sphere", (((5, 1), (0, -1)), ((0, -1), (0, 1))),
                              "edge 5 must appear exactly twice with opposite "
                              "directions, got [1]"),
    "signs_in_reading_order": ("sphere", (((0, -1), (0, -1)), ((0, 1),)),
                               "edge 0 must appear exactly twice with opposite "
                               "directions, got [-1, -1, 1]"),
    "euler": ("torus", BALLOON, "Euler characteristic 2 does not match torus (expected 0)"),
    "euler_before_connectivity": ("sphere", BALLOON + (((1, 1),), ((1, -1),)),
                                  "Euler characteristic 4 does not match sphere "
                                  "(expected 2)"),
    "unknown_surface": ("klein", BALLOON, "unknown surface: 'klein'"),
    "disconnected": ("sphere", BALLOON + SQUARE, "face-edge incidence graph is not connected"),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTOR_ERRORS))
def test_constructor_refusals_keep_their_messages(case):
    surface, faces, message = CONSTRUCTOR_ERRORS[case]
    with pytest.raises(MapError) as info:
        OrientedMap(surface, faces)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "case",
    sorted(k for k, (_, faces, _) in CONSTRUCTOR_ERRORS.items()
           if all(s in (1, -1) for b in faces for _, s in b)),
)
def test_validate_reports_the_constructor_refusals(case, tmp_path, capsys):
    surface, faces, message = CONSTRUCTOR_ERRORS[case]
    doc = {
        "surface": surface,
        "faces": [[{"edge": e, "dir": "+" if s > 0 else "-"} for e, s in b] for b in faces],
    }
    path = tmp_path / "bad.map.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "command": "validate", "error": message, "ok": False
    }


def test_maps_without_faces_stay_valid_on_the_torus():
    m = OrientedMap("torus", ())
    assert (m.edge_ids, m.vertices(), m.euler_characteristic()) == ((), [], 0)
    with pytest.raises(MapError, match="Euler characteristic 0 does not match sphere"):
        OrientedMap("sphere", ())


def test_pinwheel_census():
    m = pinwheel_map()
    assert m.face_count() == 5
    assert m.edge_count() == 9
    assert m.corner_count() == 18
    assert len(m.vertices()) == 6
    assert m.euler_characteristic() == 2
    # pre-edges: every edge contributes two darts
    assert sum(len(b) for b in m.faces) == 2 * m.edge_count()


def test_pinwheel_vertex_orbits():
    m = pinwheel_map()
    got = {frozenset(v) for v in m.vertices()}
    assert got == set(PINWHEEL_VERTICES.values())


def test_pinwheel_vertex_classes():
    m = pinwheel_map()
    cls = {}
    for name, corners in PINWHEEL_VERTICES.items():
        v = m.vertex_of(min(corners))
        cls[name] = m.classify_vertex(v)
    # both extreme vertices are sources under the stored edge orientations
    assert cls["tip"] == "source"
    assert cls["center"] == "source"
    assert cls["attach"] == "mixed"
    assert cls["P"] == "mixed" and cls["Q"] == "mixed" and cls["R"] == "mixed"


def test_pinwheel_multiplicities():
    m = pinwheel_map()
    mult = {name: len(c) for name, c in PINWHEEL_VERTICES.items()}
    assert mult == {"tip": 1, "attach": 4, "P": 4, "R": 3, "Q": 3, "center": 3}


def test_rotation_is_anticlockwise():
    # at the attach vertex of the pinwheel the acw order is a1 -> a2 -> b5 -> b0
    m = pinwheel_map()
    assert m.next_corner_acw((0, 1)) == (0, 2)
    assert m.next_corner_acw((0, 2)) == (1, 5)
    assert m.next_corner_acw((1, 5)) == (1, 0)
    assert m.next_corner_acw((1, 0)) == (0, 1)


def test_corner_types_and_alternation():
    m = pinwheel_map()
    assert m.corner_type((0, 0)) == (-1, 1)  # source corner at the tip
    assert m.corner_type((0, 2)) == (1, -1)  # sink corner at the attach vertex
    assert m.corner_type((2, 0)) == (-1, 1)  # source corner at the center
    # mixed vertex P has saddle corners alternating
    assert m.classify_vertex(m.vertex_of((1, 1))) == "mixed"


def test_face_profiles_classify():
    assert classify_face((1, -1)) == ("a", None, {})
    assert classify_face((1, 1, -1)) == ("b", 0, {})
    assert classify_face((1, -1, -1)) == ("c", 0, {})
    assert classify_face((1, 1, -1, 1, -1)) == ("b", 1, {})
    kind, m, extras = classify_face((1, 1, 1, 1, -1, -1))
    assert (kind, extras) == ("d", {"k": 3, "l": 1, "s": 1})
    kind, m, extras = classify_face((1, 1, -1, -1) * 3)
    assert (kind, extras["s"]) == ("d", 3)
    with pytest.raises(MapError):
        classify_face((1, 1, -1, 1, 1, -1))  # two plus doubles, not standard
    with pytest.raises(MapError):
        classify_face((1,))


def test_face_classify_seam_rotation():
    # the doubled run may straddle the cyclic seam
    assert classify_face((1, -1, 1, -1, 1)) == ("b", 1, {})
    assert classify_face((-1, 1, -1, 1, -1)) == ("c", 1, {})


def _classified(classify, signs):
    try:
        return classify(signs)
    except MapError as exc:
        return str(exc)


def test_classify_face_matches_the_run_classifier_on_every_short_profile():
    # the run-length classifier the shapes were first read with, kept in
    # the oracle, refusals and their messages included
    for n in range(1, 15):
        for bits in range(2**n):
            signs = tuple(-1 if bits >> i & 1 else 1 for i in range(n))
            want = _classified(standard_oracle.classify_face, signs)
            assert _classified(classify_face, signs) == want, signs


def _shape_profiles(most: int):
    """(kind, m, extras) and the profile of every standard shape of at most
    `most` darts."""
    yield ("a", None, {}), (1, -1)
    for m in range((most - 1) // 2):
        for kind in "bc":
            yield (kind, m, {}), shape_profile(kind, m, {})
    for k in range(1, most):
        for l in range(1, most):
            for s in range(1, most // (k + l + 2) + 1):
                extras = {"k": k, "l": l, "s": s}
                yield ("d", None, extras), shape_profile("d", None, extras)


def test_rotation_is_the_least_rotation_onto_every_shape_profile():
    count = 0
    for shape, profile in _shape_profiles(20):
        n = len(profile)
        assert 2 <= n <= 20
        assert profile == standard_oracle._pattern(*shape)
        for r in range(n):
            signs = profile[n - r:] + profile[:n - r]
            least = next(q for q in range(n)
                         if all(signs[(q + i) % n] == profile[i] for i in range(n)))
            assert rotation(signs, profile) == least <= r
            assert rotation(list(signs), profile) == least
            assert classify_face(signs) == standard_oracle.classify_face(signs)
            count += 1
        assert rotation(profile + (1,), profile) is None
        assert rotation(profile[1:], profile) is None
    assert count > 1000


def _random_map(kind: str, rng) -> OrientedMap:
    if kind == "sphere":
        return random_sphere_map(rng)
    if kind == "torus":
        return random_torus_map(rng)
    return random_subdivisions(genus_map(rng.randint(2, 3)), rng, rng.randint(0, 4))


@given(st.sampled_from(["sphere", "torus", "genus"]), st.integers(0, 2**32), st.data())
@settings(max_examples=100, deadline=None)
def test_saddle_corners_alternate_around_every_vertex(kind, seed, data):
    # corner i + 1's outgoing dart reverses corner i's incoming one, so with
    # d_i the in-sign of corner i, corner i + 1 has type (d_{i+1}, -d_i):
    # the saddles (+, +) and (-, -) are the up and down steps of d around
    # the vertex, and those alternate on any cycle
    rng = make_rng(seed)
    m = _random_map(kind, rng)
    for _ in range(data.draw(st.integers(0, 2))):
        removable = [e for e, ((f1, _), (f2, _)) in m.edge_sides.items()
                     if f1 != f2 and len(m.faces[f1]) + len(m.faces[f2]) > 2]
        if removable:
            m = m.remove_edge(data.draw(st.sampled_from(removable)))[0]
    for vertex in m.vertices():
        types = [m.corner_type(c) for c in vertex]
        assert all(out == -types[i - 1][0] for i, (_, out) in enumerate(types))
        saddles = [t for t in types if t[0] == t[1]]
        assert all(t != saddles[i - 1] for i, t in enumerate(saddles))
        if saddles:
            assert m.classify_vertex(vertex) == "mixed"
        else:
            assert len(set(types)) == 1
            assert m.classify_vertex(vertex) == {(1, -1): "sink", (-1, 1): "source"}[types[0]]


def test_classify_pinwheel_map():
    info = classify_map(pinwheel_map())
    assert info["family"] == "A"
    assert info["m"] == 0
    kinds = sorted(k for k, _ in info["faces"])
    assert kinds == ["b", "c", "c", "c", "d"]


def test_classify_banded_sphere_map():
    m = banded_sphere_map()
    assert m.face_count() == 2
    assert m.edge_count() == 24
    assert len(m.vertices()) == 24
    info = classify_map(m)
    assert info["family"] == "B"
    for kind, extras in info["faces"]:
        assert kind == "d"
        assert extras == {"k": 2, "l": 2, "s": 4}


def test_banded_vertex_pairing():
    m = banded_sphere_map()
    for v in m.vertices():
        assert len(v) == 2
        faces = sorted(f for f, _ in v)
        assert faces == [0, 1]
        j0 = next(j for f, j in v if f == 0)
        j1 = next(j for f, j in v if f == 1)
        assert j1 == (24 - j0) % 24


def test_classify_map_m_conflict():
    # b face with m=0 next to c faces with m=1 is rejected
    m = OrientedMap(
        "sphere",
        (
            ((0, 1), (1, 1), (2, -1)),
            ((2, 1), (1, -1), (3, -1), (4, 1), (5, -1)),
            ((3, 1), (0, -1), (5, 1), (4, -1)),
        ),
    )
    profiles = [m.face_sign_profile(f) for f in range(3)]
    kinds = []
    for p in profiles:
        try:
            kinds.append(classify_face(p)[0])
        except MapError:
            kinds.append(None)
    # this synthetic map need not be standard at all; only exercise the
    # disagreement path when both a b-face and a c-face are present
    if kinds[0] == "b" and "c" in kinds[1:]:
        with pytest.raises(MapError):
            classify_map(m)


def test_torus_and_balloon():
    t = torus_square()
    assert len(t.vertices()) == 1
    assert t.euler_characteristic() == 0
    b = balloon()
    # one vertex of multiplicity two: the loop closes up on itself
    assert len(b.vertices()) == 1
    assert {len(v) for v in b.vertices()} == {2}


def test_subdivide_edge():
    m = pinwheel_map()
    m2 = subdivide_edge(m, 3, (20, 21))
    assert m2.edge_count() == m.edge_count() + 1
    assert len(m2.vertices()) == len(m.vertices()) + 1
    assert m2.euler_characteristic() == 2
    with pytest.raises(MapError):
        subdivide_edge(m, 3, (0, 21))
    with pytest.raises(MapError):
        subdivide_edge(m, 99, (20, 21))


@st.composite
def random_sphere_maps(draw):
    """Small random sphere maps built by repeated edge subdivision."""
    base = draw(st.sampled_from(["pinwheel", "2gon", "balloon"]))
    m = {
        "pinwheel": pinwheel_map,
        "2gon": sphere_2gon,
        "balloon": balloon,
    }[base]()
    fresh = 100
    for _ in range(draw(st.integers(0, 3))):
        edge = draw(st.sampled_from(sorted(m.edge_ids)))
        m = subdivide_edge(m, edge, (fresh, fresh + 1))
        fresh += 2
    return m


@given(random_sphere_maps())
@settings(max_examples=60, deadline=None)
def test_census_consistency(m):
    assert m.euler_characteristic() == 2
    assert sum(len(b) for b in m.faces) == 2 * m.edge_count()
    assert sum(len(v) for v in m.vertices()) == m.corner_count()
    # rotation is a bijection on corners
    imgs = {m.next_corner_acw(c) for c in m.corners()}
    assert imgs == set(m.corners())


def scan_owner(m, dart):
    """The original linear dart-owner scan."""
    for f, b in enumerate(m.faces):
        for j, d in enumerate(b):
            if d == dart:
                return (f, j)
    raise MapError(f"dart {dart} not present")


def scan_next(m, corner):
    edge, sign = m.corner_in_dart(corner)
    return scan_owner(m, (edge, -sign))


def scan_vertices(m):
    """The original orbit walk, one owner scan per step."""
    pending = set(m.corners())
    out = []
    while pending:
        start = min(pending)
        cycle = [start]
        pending.discard(start)
        c = scan_next(m, start)
        while c != start:
            cycle.append(c)
            pending.discard(c)
            c = scan_next(m, c)
        out.append(tuple(cycle))
    return out


@given(random_sphere_maps())
@settings(max_examples=60, deadline=None)
def test_tables_match_the_scans(m):
    assert m.vertices() == scan_vertices(m)
    for f, b in enumerate(m.faces):
        for j, d in enumerate(b):
            assert m.dart_owner(d) == scan_owner(m, d) == (f, j)
    for v in m.vertices():
        assert all(m.vertex_of(c) == v for c in v)
    for e in m.edge_ids:
        assert m.edge_sides[e] == (scan_owner(m, (e, 1)), scan_owner(m, (e, -1)))


def test_vertices_returns_a_fresh_list():
    m = pinwheel_map()
    first = m.vertices()
    want = list(first)
    first.clear()
    assert m.vertices() == want
    assert m.vertices() is not m.vertices()


def test_absent_darts_and_corners_still_raise():
    m = pinwheel_map()
    with pytest.raises(MapError):
        m.dart_owner((99, 1))
    with pytest.raises(MapError):
        m.dart_owner((0, 2))
    with pytest.raises(MapError):
        m.vertex_of((0, 99))
    with pytest.raises(MapError):
        m.vertex_of((99, 0))
    assert m.vertex_at((0, 99)) is None and m.vertex_at((99, 0)) is None
    assert m.vertex_at((0, 1)) == m.vertex_of((0, 1))


def test_dart_owner_refuses_a_boolean_edge():
    m = pinwheel_map()
    assert m.dart_owner((1, 1)) == (0, 1)
    with pytest.raises(MapError, match=r"^darts must be int pairs, got \(True, 1\)$"):
        m.dart_owner((True, 1))


def test_dart_owner_refuses_a_float_edge():
    m = pinwheel_map()
    assert m.dart_owner((1, -1)) == (1, 5)
    with pytest.raises(MapError, match=r"^darts must be int pairs, got \(1\.0, -1\)$"):
        m.dart_owner((1.0, -1))


def test_vertex_of_refuses_float_and_boolean_corner_parts():
    m = pinwheel_map()
    assert m.vertex_of((0, 1))
    with pytest.raises(MapError, match=r"^corners must be int pairs, got \(0\.0, True\)$"):
        m.vertex_of((0.0, True))


def test_tables_leave_equality_and_hash_alone():
    built, fresh = pinwheel_map(), pinwheel_map()
    built.vertex_of((0, 0))
    built.dart_owner((0, 1))
    assert built == fresh and hash(built) == hash(fresh)
    assert {built: 1}[fresh] == 1
    assert built != subdivide_edge(fresh, 3, (20, 21))


def test_subdivided_maps_get_fresh_tables():
    m = pinwheel_map()
    v = m.vertex_of((0, 0))
    m2 = subdivide_edge(m, 3, (20, 21))
    assert m2.edge_ids == tuple(sorted(set(m.edge_ids) - {3} | {20, 21}))
    assert m2.vertices() == scan_vertices(m2) != m.vertices()
    assert m2.dart_owner((20, 1)) == scan_owner(m2, (20, 1))
    with pytest.raises(MapError):
        m.dart_owner((20, 1))
    with pytest.raises(MapError):
        m2.dart_owner((3, 1))
    assert m.vertex_of((0, 0)) == v


def sides_of_path(m, path_edges) -> list:
    """Connected face classes crossing only edges off the path: the
    adjacency walk diagram's contact search used before `face_components`."""
    adj = {f: set() for f in range(m.face_count())}
    for e in m.edge_ids:
        if e in path_edges:
            continue
        f1, _ = scan_owner(m, (e, 1))
        f2, _ = scan_owner(m, (e, -1))
        adj[f1].add(f2)
        adj[f2].add(f1)
    seen = set()
    comps = []
    for f in adj:
        if f in seen:
            continue
        comp = {f}
        todo = [f]
        while todo:
            g = todo.pop()
            for h in adj[g] - comp:
                comp.add(h)
                todo.append(h)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


@given(st.sampled_from(["sphere", "torus", "genus-2"]), st.integers(0, 2**32), st.data())
@settings(max_examples=120, deadline=None)
def test_face_components_match_the_path_sides(kind, seed, data):
    rng = make_rng(seed)
    if kind == "sphere":
        m = random_sphere_map(rng)
    elif kind == "torus":
        m = random_torus_map(rng)
    else:
        m = random_subdivisions(genus_map(2), rng, rng.randint(0, 4))
    cut = data.draw(st.frozensets(st.sampled_from(m.edge_ids)))
    comps = m.face_components(cut)
    assert comps == sides_of_path(m, cut)
    assert all(type(c) is frozenset for c in comps)
    assert m.face_components() == sides_of_path(m, frozenset()) == [
        frozenset(range(m.face_count()))
    ]


# -- edge ids and signs are ints ----------------------------------------------


@pytest.mark.parametrize("faces, message", [
    ((((0, True), (1, 1)), ((1, -1), (0, -1))), "bad dart sign True in face 0"),
    ((((0.0, 1),), ((0, -1),)), "edge ids must be ints, got 0.0 in face 0"),
    ((((0, 1),), ((False, -1),)), "edge ids must be ints, got False in face 1"),
], ids=["bool-sign", "float-edge", "bool-edge"])
def test_darts_take_int_edges_and_signs(faces, message):
    with pytest.raises(MapError) as info:
        OrientedMap("sphere", faces)
    assert str(info.value) == message


@pytest.mark.parametrize("edge, new_edges, message", [
    (True, (5, 6), "edge ids must be ints, got True"),
    (1.0, (5, 6), "edge ids must be ints, got 1.0"),
    (1, (5.0, 6), "edge ids must be ints, got 5.0 and 6"),
    (1, (5, True), "edge ids must be ints, got 5 and True"),
], ids=["bool-edge", "float-edge", "float-new", "bool-new"])
def test_subdivide_edge_takes_int_ids(edge, new_edges, message):
    with pytest.raises(MapError) as info:
        subdivide_edge(sphere_2gon(), edge, new_edges)
    assert str(info.value) == message


# -- removing an edge ----------------------------------------------------------


def test_remove_edge_refusals():
    m = sphere_2gon()
    for edge, message in ((True, "edge ids must be ints, got True"),
                          (1.0, "edge ids must be ints, got 1.0"),
                          (7, "no such edge: 7")):
        with pytest.raises(MapError) as info:
            m.remove_edge(edge)
        assert str(info.value) == message
    with pytest.raises(MapError, match="edge 0 has face 0 on both sides"):
        torus_square().remove_edge(0)
    with pytest.raises(MapError, match="removing edge 0 would leave an empty face"):
        balloon().remove_edge(0)


def beads(k: int) -> OrientedMap:
    """A string of k + 1 loops on the sphere, a 1-gon at each end."""
    inner = tuple(((e, -1), (e + 1, 1)) for e in range(k))
    return OrientedMap("sphere", (((0, 1),),) + inner + (((k, -1),),))


def test_remove_edge_merges_two_faces():
    m = pinwheel_map()
    new, translate = m.remove_edge(3)
    assert new.face_count() == m.face_count() - 1
    assert new.edge_ids == tuple(e for e in m.edge_ids if e != 3)
    assert len(new.vertices()) == len(m.vertices())
    assert new.euler_characteristic() == 2
    assert set(translate) == set(m.corners())
    assert set(translate.values()) == set(new.corners())
    assert edit_problem(m, 3, new, translate) is None
    # a 1-gon's one corner joins the two corners beside the other dart
    b = beads(1)
    new, translate = b.remove_edge(0)
    assert new.faces == (((1, 1),), ((1, -1),))
    assert translate[(0, 0)] == translate[(1, 0)] == translate[(1, 1)] == (0, 0)
    assert edit_problem(b, 0, new, translate) is None
    new, translate = b.remove_edge(1)
    assert new.faces == (((0, 1),), ((0, -1),))
    assert translate[(2, 0)] == translate[(1, 0)] == translate[(1, 1)] == (1, 0)
    assert edit_problem(b, 1, new, translate) is None


@given(st.sampled_from(["sphere", "beads", "torus", "genus-2"]), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_remove_edge_matches_the_full_rebuild(kind, seed):
    rng = make_rng(seed)
    if kind == "beads":  # with faces shuffled, so a 1-gon may come first or last
        faces = list(rotate_map(beads(rng.randint(1, 4)), rng).faces)
        rng.shuffle(faces)
        m = relabel_map(OrientedMap("sphere", tuple(faces)), rng)
    elif kind == "sphere":
        m = random_sphere_map(rng)
    elif kind == "torus":
        m = random_torus_map(rng)
    else:
        m = random_subdivisions(genus_map(2), rng, rng.randint(0, 4))
    for edge in m.edge_ids:
        (f1, _), (f2, _) = m.edge_sides[edge]
        if f1 == f2:
            with pytest.raises(MapError, match="on both sides"):
                m.remove_edge(edge)
        else:
            new, translate = m.remove_edge(edge)
            assert edit_problem(m, edge, new, translate) is None
            for v in m.vertices():
                assert m.carry_vertex(v, edge, translate) == new.vertex_of(translate[v[0]])

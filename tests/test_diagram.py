"""Labelled diagrams, phi-cell surgery and the collision audits."""

import inspect
from collections import Counter
from fractions import Fraction as F
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phi_oracle
from map_edit_oracle import rebuilt_phi_move
from spheremotion import diagram
from spheremotion.diagram import (
    DiagramError,
    HowieDiagram,
    audit_standard_collisions,
    bad_contact_report,
    check_diagram_over,
    face_cells,
    face_label,
    find_reducible_pair,
    is_phi_cell,
    is_phi_reduced,
    lemma17_audit,
    phi_reduce_move,
    vertex_label,
)
from spheremotion.fuzzing import (
    lune_map,
    make_rng,
    random_base,
    random_base_element,
    random_sphere_map,
)
from spheremotion.goldens import banded_sphere_map, doubled_polygon_map, unit_speed_motion
from spheremotion.groups import FreeGroup, FreeProductWord
from spheremotion.motion import (
    CarSchedule,
    CollisionReport,
    MotionSchedule,
    check_separated_stops,
    complete_collisions,
    multiplicities,
    standard_motion,
    standard_multiple_motion,
    time_shifted_car,
)
from spheremotion.rewriting import RelativePresentation, phi
from spheremotion.surface import MapError, OrientedMap, classify_map
from word_oracle import word

B2 = FreeGroup(2)


def gw(*letters):
    return FreeProductWord.g(B2, tuple(letters))


def balloon_diagram():
    m = OrientedMap("sphere", (((0, 1),), ((0, -1),)))
    return HowieDiagram(m, {(0, 0): gw(1), (1, 0): gw(-1)}, {0: 1})


def phi_chain(n):
    """n lunes around the sphere, lune i a phi cell for its own letter."""
    base = FreeGroup(n)
    m = lune_map(n)
    labels = {}
    for i in range(n):
        p = FreeProductWord.g(base, (i + 1,))
        labels[(i, 1)] = p
        labels[(i, 0)] = phi(p).inverse()
    return HowieDiagram(
        m,
        labels,
        {e: 1 for e in m.edge_ids},
        exterior_vertices=frozenset(m.vertices()),
        phi_s=1,
    )


def mirror_pentagon():
    """The doubled pentagon with back labels inverting their front partner."""
    m = doubled_polygon_map((1, 1, -1, 1, -1))
    labels = {(0, j): gw(*[1] * (j + 1)) for j in range(5)}
    for v in m.vertices():
        (_, jf), (fb, jb) = sorted(v)
        labels[(fb, jb)] = labels[(0, jf)].inverse()
    return HowieDiagram(m, labels, {e: 1 for e in m.edge_ids})


def mirror_cells(cells):
    """The cell list of a face folding onto the given one across cell 0,
    built whole: the reading `diagram._folds` compares cell by cell."""
    return tuple((cells[-k][0], -cells[-k][1], cells[-k - 1][2].inverse())
                 for k in range(len(cells)))


# -- construction and labels ---------------------------------------------------


def test_diagram_rejects_bad_data():
    m = OrientedMap("sphere", (((0, 1),), ((0, -1),)))
    with pytest.raises(DiagramError, match="every corner needs a label"):
        HowieDiagram(m, {(0, 0): gw(1)}, {0: 1})
    with pytest.raises(DiagramError, match="t-free"):
        HowieDiagram(m, {(0, 0): word(B2, ("t", 1, 1)), (1, 0): gw(1)}, {0: 1})
    with pytest.raises(DiagramError, match="mixed base"):
        other = FreeProductWord.g(FreeGroup(1), (1,))
        HowieDiagram(m, {(0, 0): gw(1), (1, 0): other}, {0: 1})
    labels = {(0, 0): gw(1), (1, 0): gw(-1)}
    with pytest.raises(DiagramError, match="every edge needs a symbol"):
        HowieDiagram(m, labels, {})
    with pytest.raises(DiagramError, match="positive int"):
        HowieDiagram(m, labels, {0: 0})
    with pytest.raises(DiagramError, match="positive int"):
        HowieDiagram(m, labels, {0: True})
    with pytest.raises(DiagramError, match="not a vertex"):
        HowieDiagram(m, labels, {0: 1}, exterior_vertices=frozenset({((9, 9),)}))
    with pytest.raises(DiagramError, match="exterior face"):
        HowieDiagram(m, labels, {0: 1}, exterior_faces=frozenset({7}))
    with pytest.raises(DiagramError, match="large face"):
        HowieDiagram(m, labels, {0: 1}, large_faces=frozenset({7}))


def test_balloon_diagram_over_and_reducible():
    d = balloon_diagram()
    assert face_label(d, 0) == word(B2, ("t", 1, 1), ("g", 0, (1,)))
    assert face_label(d, 1) == word(B2, ("t", 1, -1), ("g", 0, (-1,)))
    v = d.map.vertices()[0]
    assert vertex_label(d, v).is_identity()
    pres = RelativePresentation(B2, 0, (face_label(d, 0),), has_phi=False)
    rep = check_diagram_over(d, pres)
    assert rep["ok"]
    assert find_reducible_pair(d) == (0, 1, 0)


def test_a_pair_across_an_exterior_face_is_not_reducible():
    d = balloon_diagram()
    walled = HowieDiagram(d.map, d.corner_labels, d.edge_labels, exterior_faces=frozenset({1}))
    assert find_reducible_pair(walled) is None


def test_check_diagram_over_base_mismatch():
    d = balloon_diagram()
    pres = RelativePresentation(
        FreeGroup(1), 0, (word(FreeGroup(1), ("t", 1, 1), ("g", 0, (1,))),), False
    )
    with pytest.raises(DiagramError, match="different base group"):
        check_diagram_over(d, pres)


def test_vertex_label_start_only_conjugates():
    d = mirror_pentagon()
    for v in d.map.vertices():
        base_word = vertex_label(d, v)
        for c in v:
            assert vertex_label(d, v, start=c).is_conjugate_to(base_word)
    with pytest.raises(DiagramError, match="not at this vertex"):
        vertex_label(d, d.map.vertices()[0], start=(0, 3))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_label_rotation_is_conjugation(seed):
    rng = make_rng(seed)
    m = random_sphere_map(rng)
    labels = {
        c: FreeProductWord.g(B2, random_base_element(B2, rng)) for c in m.corners()
    }
    d = HowieDiagram(m, labels, {e: 1 + rng.randrange(3) for e in m.edge_ids})
    f = rng.randrange(m.face_count())
    k = rng.randrange(len(m.faces[f]))
    assert face_label(d, f, k).is_conjugate_to(face_label(d, f))
    v = m.vertices()[rng.randrange(len(m.vertices()))]
    c = sorted(v)[rng.randrange(len(v))]
    assert vertex_label(d, v, start=c).is_conjugate_to(vertex_label(d, v))
    cells = face_cells(d, f, k)
    assert mirror_cells(mirror_cells(cells)) == cells


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.sampled_from(["none", "label", "symbol"]))
def test_folds_stops_where_the_whole_mirror_differs(seed, perturb):
    """`_folds` agrees with comparing the whole mirrored cell list: on a
    random labelled map, and on a random doubled polygon whose back labels
    invert the front ones, as is or with one label or symbol changed."""
    rng = make_rng(seed)
    m = random_sphere_map(rng)
    labels = {c: FreeProductWord.g(B2, random_base_element(B2, rng)) for c in m.corners()}
    diagrams = [HowieDiagram(m, labels, {e: 1 + rng.randrange(3) for e in m.edge_ids})]
    n = rng.randint(1, 6)
    m = doubled_polygon_map(tuple(rng.choice((1, -1)) for _ in range(n)))
    labels = {(0, j): FreeProductWord.g(B2, random_base_element(B2, rng)) for j in range(n)}
    for v in m.vertices():
        (_, jf), (fb, jb) = sorted(v)
        labels[(fb, jb)] = labels[(0, jf)].inverse()
    symbols = {e: 1 for e in m.edge_ids}
    if perturb == "label":
        c = rng.choice(m.corners())
        labels[c] = labels[c] * gw(rng.choice((1, -1, 2, -2)))
    elif perturb == "symbol":
        symbols[rng.choice(m.edge_ids)] = 2
    diagrams.append(HowieDiagram(m, labels, symbols))
    for d in diagrams:
        for e in d.map.edge_ids:
            (f1, i1), (f2, i2) = d.map.edge_sides[e]
            cells = face_cells(d, f1, i1)
            whole = len(d.map.faces[f2]) == len(cells) and (
                face_cells(d, f2, i2) == mirror_cells(cells))
            assert diagram._folds(d, e) == whole
    if perturb == "none":
        assert all(diagram._folds(diagrams[1], e) for e in m.edge_ids)


def test_mirror_pentagon_is_valid_and_reducible():
    d = mirror_pentagon()
    pres = RelativePresentation(B2, 0, (face_label(d, 0),), has_phi=False)
    assert check_diagram_over(d, pres)["ok"]
    pair = find_reducible_pair(d)
    assert pair is not None and pair[:2] == (0, 1)


# -- phi cells and the merge move ------------------------------------------------


def test_phi_cell_recognition():
    d = phi_chain(2)
    assert is_phi_cell(d, 0) and is_phi_cell(d, 1)
    base = d.base
    p = FreeProductWord.g(base, (1,))

    # rotated dart order is still recognised
    m = OrientedMap("sphere", (((1, 1), (0, -1)), ((0, 1), (1, -1))))
    rot = HowieDiagram(
        m,
        {(0, 0): p, (0, 1): phi(p).inverse(), (1, 0): p, (1, 1): phi(p).inverse()},
        {0: 1, 1: 1},
        phi_s=1,
    )
    assert is_phi_cell(rot, 0) and is_phi_cell(rot, 1)

    # no phi structure, word outside P, wrong mate, identity word
    assert not is_phi_cell(HowieDiagram(m, rot.corner_labels, {0: 1, 1: 1}), 0)
    shifted = HowieDiagram(
        m,
        {c: phi(w) for c, w in rot.corner_labels.items()},
        {0: 1, 1: 1},
        phi_s=1,
    )
    assert not is_phi_cell(shifted, 0)
    unmated = HowieDiagram(
        m,
        {(0, 0): p, (0, 1): phi(p), (1, 0): p, (1, 1): phi(p)},
        {0: 1, 1: 1},
        phi_s=1,
    )
    assert not is_phi_cell(unmated, 0)
    one = FreeProductWord.one(base)
    blank = HowieDiagram(m, {c: one for c in m.corners()}, {0: 1, 1: 1}, phi_s=1)
    assert not is_phi_cell(blank, 0)


def test_phi_cell_reads_one_symbol_against_and_along():
    d = phi_chain(2)
    # two symbols, or both darts along the face, make no phi cell
    two_symbols = HowieDiagram(d.map, d.corner_labels, {0: 1, 1: 2}, phi_s=1)
    assert not is_phi_cell(two_symbols, 0)
    m = OrientedMap("sphere", (((0, 1), (1, 1)), ((1, -1), (0, -1))))
    along = HowieDiagram(m, d.corner_labels, {0: 1, 1: 1}, phi_s=1)
    assert not is_phi_cell(along, 0) and not is_phi_cell(along, 1)


def random_p_word(base, rng, copies: int) -> FreeProductWord:
    """A nonidentity word of one to three syllables in copies 0..copies-1."""
    while True:
        syllables = [("g", rng.randrange(copies), random_base_element(base, rng))
                     for _ in range(rng.randint(1, 3))]
        p = FreeProductWord.from_syllables(base, syllables)
        if not p.is_identity():
            return p


def changed_label(w: FreeProductWord, change: str, phi_s: int, rng) -> FreeProductWord:
    """w with one change: every copy moved one up or down, one element
    changed, the identity, or a syllable in a copy at or above phi_s."""
    base = w.base
    if change == "shift":
        down = w.copies_used() and min(w.copies_used()) >= 1 and rng.random() < 0.5
        return w.shift_copies(-1 if down else 1)
    if change == "element":
        if w.is_identity():
            return FreeProductWord.g(base, base.generators()[0])
        k = rng.randrange(len(w))
        _, copy, x = w.syllables[k]
        other = base.multiply(x, rng.choice(base.generators()))
        return w.span(0, k) * FreeProductWord.g(base, other, copy) * w.span(k + 1, len(w))
    if change == "identity":
        return FreeProductWord.one(base)
    high = FreeProductWord.g(base, random_base_element(base, rng, allow_identity=False),
                             phi_s + rng.randint(0, 1))
    return w * high if rng.random() < 0.5 else high


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["none", "shift", "element", "identity", "high"]))
def test_is_phi_cell_is_the_word_level_definition(seed, change):
    """`is_phi_cell`, which compares syllable tuples, agrees with the word-level
    q == phi(p)^-1 on every face: of a random phi necklace from `fuzzing`
    whose P-words have up to three syllables below phi_s, and of a mirrored
    doubled polygon whose back labels are the front ones inverted, moved up
    by no copy or by one; each with one label changed or none."""
    rng = make_rng(seed)
    base = random_base(rng)
    phi_s = rng.randint(1, 3)
    n = rng.randint(2, 5)
    m = lune_map(n)
    labels = {}
    for i in range(n):
        p = random_p_word(base, rng, phi_s)
        labels[(i, 1)], labels[(i, 0)] = p, phi(p).inverse()
    necklace = (m, labels, True)
    m = doubled_polygon_map(tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 3))))
    labels = {(0, j): random_p_word(base, rng, phi_s) for j in range(len(m.faces[0]))}
    shift = rng.randint(0, 1)
    for v in m.vertices():
        (_, jf), (fb, jb) = sorted(v)
        labels[(fb, jb)] = labels[(0, jf)].shift_copies(shift).inverse()
    for m, labels, all_cells in (necklace, (m, labels, False)):
        if change != "none":
            c = rng.choice(m.corners())
            labels[c] = changed_label(labels[c], change, phi_s, rng)
        d = HowieDiagram(m, labels, {e: 1 for e in m.edge_ids}, phi_s=phi_s)
        for f in range(m.face_count()):
            assert is_phi_cell(d, f) == phi_oracle.is_phi_cell(d, f)
        if change == "none" and all_cells:
            assert all(is_phi_cell(d, f) for f in range(n))


def test_phi_cells_satisfy_diagram_over():
    d = phi_chain(2)
    relator = word(d.base, ("t", 1, 1), ("g", 0, (1,)))
    yes = RelativePresentation(d.base, 1, (relator,), has_phi=True)
    no = RelativePresentation(d.base, 1, (relator,), has_phi=False)
    assert check_diagram_over(d, yes)["ok"]
    assert check_diagram_over(d, no)["face_violations"] == (0, 1)


def test_phi_merge_chain_to_single_cell():
    n = 4
    d = phi_chain(n)
    base = d.base
    relator = word(base, ("t", 1, 1), ("g", 0, (1,)))
    pres = RelativePresentation(base, 1, (relator,), has_phi=True)
    for e in range(1, n):
        assert not is_phi_reduced(d)
        d = phi_reduce_move(d, e)
        assert d.map.euler_characteristic() == 2
        assert all(is_phi_cell(d, f) for f in range(d.map.face_count()))
        assert check_diagram_over(d, pres)["ok"]
    assert d.map.face_count() == 1 and d.map.edge_count() == 1
    (_, s1, p), (_, s2, q) = face_cells(d, 0)
    assert (s1, s2) == (-1, 1)
    assert p == FreeProductWord.g(base, (1, 2, 3, 4))
    assert q == phi(p).inverse()
    assert is_phi_reduced(d)
    assert len(d.exterior_vertices) == 2
    assert set(d.exterior_vertices) <= set(d.map.vertices())


def test_phi_merge_refusals():
    d = phi_chain(2)
    base = d.base
    p = FreeProductWord.g(base, (1,))
    inverse_mate = HowieDiagram(
        d.map,
        {
            (0, 1): p,
            (0, 0): phi(p).inverse(),
            (1, 1): p.inverse(),
            (1, 0): phi(p.inverse()).inverse(),
        },
        {0: 1, 1: 1},
        phi_s=1,
    )
    assert find_reducible_pair(inverse_mate) is not None
    with pytest.raises(DiagramError, match="mutually inverse"):
        phi_reduce_move(inverse_mate, 0)

    with pytest.raises(DiagramError, match="two phi cells"):
        phi_reduce_move(balloon_diagram(), 0)
    # the phi cells a move carries over: a face that is no phi cell on the
    # merged diagram is still refused there
    d3 = phi_chain(3)
    tail = HowieDiagram(
        d3.map, {**d3.corner_labels, (2, 1): FreeProductWord.one(d3.base)}, d3.edge_labels,
        phi_s=1,
    )
    child = phi_reduce_move(tail, 1)
    assert diagram.phi_cells(child) == [0] and child.map.face_count() == 2
    with pytest.raises(DiagramError, match="two phi cells"):
        phi_reduce_move(child, 0)

    purse = OrientedMap("sphere", (((0, -1), (0, 1)),))
    one = FreeProductWord.one(base)
    pd = HowieDiagram(purse, {c: one for c in purse.corners()}, {0: 1}, phi_s=1)
    with pytest.raises(DiagramError, match="one face"):
        phi_reduce_move(pd, 0)
    with pytest.raises(MapError, match="no such edge: 9"):
        phi_reduce_move(pd, 9)

    walled = HowieDiagram(
        d.map,
        d.corner_labels,
        d.edge_labels,
        exterior_faces=frozenset({1}),
        phi_s=1,
    )
    with pytest.raises(DiagramError, match="interior cells"):
        phi_reduce_move(walled, 0)

    with pytest.raises(DiagramError, match="no phi structure"):
        is_phi_reduced(balloon_diagram())


def test_phi_merge_refuses_an_edge_id_that_is_not_an_int():
    d = phi_chain(4)
    for edge in (True, 1.0):
        with pytest.raises(MapError, match=f"edge ids must be ints, got {edge!r}"):
            phi_reduce_move(d, edge)


@given(st.integers(2, 7), st.data())
@settings(max_examples=40, deadline=None)
def test_phi_merges_in_any_edge_order_match_the_full_rebuild(n, data):
    # edge 0 of a lune chain has its - face before its + face, so random
    # orders also merge across edges whose - face has the lower index
    chain = phi_chain(n)
    d = HowieDiagram(
        chain.map,
        chain.corner_labels,
        chain.edge_labels,
        chain.exterior_vertices,
        data.draw(st.frozensets(st.integers(0, n - 1), max_size=1)),
        chain.phi_s,
        data.draw(st.frozensets(st.integers(0, n - 1))),
    )
    while True:
        edges = [
            e for e, ((f1, _), (f2, _)) in sorted(d.map.edge_sides.items())
            if f1 != f2 and not {f1, f2} & d.exterior_faces
        ]
        if not edges:
            break
        edge = data.draw(st.sampled_from(edges))
        want = rebuilt_phi_move(d, edge)
        d = phi_reduce_move(d, edge)
        assert d == want
        assert d.map.edge_sides == want.map.edge_sides
        assert d.map.vertices() == want.map.vertices()
    assert d.map.face_count() == 1 + len(d.exterior_faces)


def test_phi_chain_moves_build_and_walk_nothing_again(monkeypatch):
    """A k-move chain runs neither constructor nor the orbit walk, where a
    full rebuild runs each of them k times."""
    d = phi_chain(7)
    # the suite's oracles rebuild every move in full: count the moves alone
    monkeypatch.setattr(OrientedMap, "remove_edge", inspect.unwrap(OrientedMap.remove_edge))
    monkeypatch.setattr(diagram, "_unchecked_diagram", inspect.unwrap(diagram._unchecked_diagram))
    calls = Counter()

    def counted(name, fn):
        def counting(*args):
            calls[name] += 1
            return fn(*args)
        return counting

    monkeypatch.setattr(OrientedMap, "__post_init__", counted("map", OrientedMap.__post_init__))
    monkeypatch.setattr(HowieDiagram, "__post_init__",
                        counted("diagram", HowieDiagram.__post_init__))
    walk = cached_property(counted("orbits", vars(OrientedMap)["_orbits"].func))
    walk.__set_name__(OrientedMap, "_orbits")
    monkeypatch.setattr(OrientedMap, "_orbits", walk)
    for e in range(1, 7):
        d = phi_reduce_move(d, e)
    assert d.map.face_count() == 1 and len(d.exterior_vertices) == 2
    assert calls == {}
    # the counters count: a full rebuild of the result runs each once
    HowieDiagram(OrientedMap(d.map.surface, d.map.faces), d.corner_labels, d.edge_labels)
    assert calls == {"map": 1, "diagram": 1, "orbits": 1}


# -- standard collision audit ----------------------------------------------------


def test_audit_mirror_pentagon_cannot_refute():
    d = mirror_pentagon()
    ms = standard_motion(d.map)
    audit = audit_standard_collisions(d, ms)
    assert not audit["passes"]
    assert {r["kind"] for r in audit["vertices"]} == {"source", "sink"}
    assert all(r["label"].is_identity() for r in audit["vertices"])
    assert audit["interior_edge_loci"] == ()


def test_audit_skips_collisions_at_exterior_vertices():
    d = mirror_pentagon()
    ms = standard_motion(d.map)
    hit = set(complete_collisions(d.map, ms).vertex_loci)
    outside = min(hit)
    marked = HowieDiagram(
        d.map, d.corner_labels, d.edge_labels, exterior_vertices=frozenset({outside})
    )
    audit = audit_standard_collisions(marked, ms)
    assert {r["vertex"] for r in audit["vertices"]} == hit - {outside}


def test_audit_perturbed_labels_refute_but_break_validity():
    d = mirror_pentagon()
    ms = standard_motion(d.map)
    hit = sorted(complete_collisions(d.map, ms).vertex_loci)
    labels = dict(d.corner_labels)
    for v in hit:
        back = sorted(v)[1]
        labels[back] = labels[back] * gw(2)
    bent = HowieDiagram(d.map, labels, d.edge_labels)
    audit = audit_standard_collisions(bent, ms)
    assert audit["passes"]
    assert all(r["refuted"] for r in audit["vertices"])
    over = check_diagram_over(
        bent, RelativePresentation(B2, 0, (face_label(d, 0),), has_phi=False)
    )
    assert set(hit) <= set(over["vertex_violations"])


def test_audit_rejects_nonstandard_motion():
    d = mirror_pentagon()
    with pytest.raises(DiagramError, match="not standard on interior face"):
        audit_standard_collisions(d, unit_speed_motion(d.map))


def test_audit_interior_edge_loci_block_the_pass():
    d = mirror_pentagon()
    ms = standard_motion(d.map)
    real = complete_collisions(d.map, ms)
    spiked = CollisionReport(
        real.horizon, dict(real.vertex_loci), {(2, F(1, 2)): ((F(0), F(0)),)}
    )
    labels = dict(d.corner_labels)
    for v in real.vertex_loci:
        back = sorted(v)[1]
        labels[back] = labels[back] * gw(2)
    bent = HowieDiagram(d.map, labels, d.edge_labels)
    audit = audit_standard_collisions(bent, ms, collisions=spiked)
    assert not audit["passes"]
    assert audit["interior_edge_loci"] == ((2, F(1, 2)),)

    # the same locus on an exterior face boundary does not count
    opened = HowieDiagram(
        d.map, labels, d.edge_labels, exterior_faces=frozenset({1})
    )
    audit = audit_standard_collisions(opened, ms, collisions=spiked)
    assert audit["passes"]
    assert audit["interior_edge_loci"] == ()


def test_audit_banded_map_with_family_override():
    m = banded_sphere_map()
    info = dict(classify_map(m), m=1)
    ms = standard_multiple_motion(m, info)
    one = FreeProductWord.one(B2)
    d = HowieDiagram(m, {c: one for c in m.corners()}, {e: 1 for e in m.edge_ids})
    audit = audit_standard_collisions(d, ms, info=info)
    assert not audit["passes"]
    assert len(audit["vertices"]) == 8


# -- bad contacts ----------------------------------------------------------------


def beach4():
    return lune_map(4)


def beach4_diagram(**marks):
    m = beach4()
    one = FreeProductWord.one(B2)
    return HowieDiagram(
        m, {c: one for c in m.corners()}, {e: 1 for e in m.edge_ids}, **marks
    )


def poles(m):
    north, south = m.vertices()
    return north, south


def test_bad_contact_between_opposite_lunes():
    d = beach4_diagram(large_faces=frozenset({0, 2}))
    north, south = poles(d.map)
    fake = CollisionReport(
        F(2), {north: ((F(0), F(0)),), south: ((F(1), F(1)),)}, {}
    )
    contacts = bad_contact_report(d, collisions=fake)
    assert contacts
    assert {c["faces"] for c in contacts} == {(0, 2)}
    assert {c["region"] for c in contacts} == {frozenset({1}), frozenset({3})}


def test_bad_contact_negatives():
    m = beach4()
    north, south = poles(m)
    fake = CollisionReport(
        F(2), {north: ((F(0), F(0)),), south: ((F(1), F(1)),)}, {}
    )
    shielded = beach4_diagram(
        large_faces=frozenset({0, 2}), exterior_vertices=frozenset({south})
    )
    assert bad_contact_report(shielded, collisions=fake) == ()
    crowded = beach4_diagram(large_faces=frozenset({0, 1, 2, 3}))
    assert bad_contact_report(crowded, collisions=fake) == ()
    with pytest.raises(DiagramError, match="2-grading"):
        bad_contact_report(beach4_diagram(), collisions=fake)


def blank_diagram(faces, **marks):
    m = OrientedMap("sphere", faces)
    one = FreeProductWord.one(B2)
    return HowieDiagram(
        m, {c: one for c in m.corners()}, {e: 1 for e in m.edge_ids}, **marks
    )


def contact_regions(d, hub):
    """The regions of the bad contacts of a collision at `hub` alone."""
    fake = CollisionReport(F(1), {hub: ((F(0), F(0)),)}, {})
    return [c["region"] for c in bad_contact_report(d, collisions=fake)]


# two loops at one vertex, each bounding a 1-gon, inside a 2-gon
TWO_LOOPS = (((0, 1),), ((1, 1),), ((0, -1), (1, -1)))
# loop 0 with a pendant edge 2 hanging into its 1-gon
PENDANT = (((0, 1), (2, 1), (2, -1)), ((1, 1),), ((0, -1), (1, -1)))
# loop 0 cut in two by a middle vertex
CUT_LOOP = (((0, 1), (2, 1)), ((1, 1),), ((2, -1), (0, -1), (1, -1)))


def test_self_contact_at_one_vertex():
    hub = OrientedMap("sphere", TWO_LOOPS).vertices()[0]
    # the 2-gon meets itself at the hub around either loop's 1-gon
    outer = blank_diagram(TWO_LOOPS, large_faces=frozenset({2}))
    fake = CollisionReport(F(1), {hub: ((F(0), F(0)),)}, {})
    contacts = bad_contact_report(outer, collisions=fake)
    assert {(c["faces"], c["vertices"]) for c in contacts} == {((2, 2), (hub,))}
    assert contact_regions(outer, hub) == [frozenset({0}), frozenset({1})]
    # a large 1-gon is no quiet region
    both = blank_diagram(TWO_LOOPS, large_faces=frozenset({1, 2}))
    assert contact_regions(both, hub) == [frozenset({0})]


def test_bad_contact_report_in_full():
    # every field of every contact, in order: the two-vertex contacts follow
    # the order of the loci, the self-contacts that of the hub's corners
    d = beach4_diagram(large_faces=frozenset({0, 2}))
    north, south = poles(d.map)
    assert north == ((0, 0), (1, 0), (2, 0), (3, 0))
    assert south == ((0, 1), (3, 1), (2, 1), (1, 1))
    fake = CollisionReport(
        F(2), {north: ((F(0), F(0)),), south: ((F(1), F(1)),)}, {}
    )
    assert bad_contact_report(d, collisions=fake) == (
        {
            "faces": (0, 2),
            "vertices": (north, south),
            "corners": (((0, 0), (2, 0)), ((0, 1), (2, 1))),
            "region": frozenset({3}),
        },
        {
            "faces": (0, 2),
            "vertices": (south, north),
            "corners": (((0, 1), (2, 1)), ((0, 0), (2, 0))),
            "region": frozenset({1}),
        },
    )
    hub = OrientedMap("sphere", TWO_LOOPS).vertices()[0]
    assert hub == ((0, 0), (2, 0), (1, 0), (2, 1))
    outer = blank_diagram(TWO_LOOPS, large_faces=frozenset({2}))
    fake = CollisionReport(F(1), {hub: ((F(0), F(0)),)}, {})
    assert bad_contact_report(outer, collisions=fake) == (
        {
            "faces": (2, 2),
            "vertices": (hub,),
            "corners": (((2, 0), (2, 1)),),
            "region": frozenset({0}),
        },
        {
            "faces": (2, 2),
            "vertices": (hub,),
            "corners": (((2, 1), (2, 0)),),
            "region": frozenset({1}),
        },
    )


@pytest.mark.parametrize("faces", [PENDANT, CUT_LOOP], ids=["inside", "on_path"])
def test_exterior_vertex_in_a_region_or_on_its_path_blocks_it(faces):
    hub, other = OrientedMap("sphere", faces).vertices()
    large = frozenset({2})
    assert contact_regions(blank_diagram(faces, large_faces=large), hub) == [
        frozenset({0}), frozenset({1})
    ]
    marked = blank_diagram(faces, large_faces=large, exterior_vertices=frozenset({other}))
    assert contact_regions(marked, hub) == [frozenset({1})]


# -- the impossibility audit -----------------------------------------------------


def beach4_multiple_motion():
    """Multiplicity (4, 1, 4, 1) cars, no stops, global period 2."""
    T = F(2)
    cars = []
    for f in (0, 2):
        base = CarSchedule(
            f, 4 * T, tuple((2 * F(j), F(j, 2)) for j in range(4)), degree=1
        )
        cars += [time_shifted_car(base, 2, j * T) for j in range(4)]
    for f in (1, 3):
        cars.append(CarSchedule(f, T, ((F(0), F(0)), (F(1), F(1))), degree=1))
    return MotionSchedule(T, tuple(cars))


def test_lemma17_contradiction_branch():
    m = beach4()
    north, south = poles(m)
    ms = beach4_multiple_motion()
    assert multiplicities(m, ms) == {0: 4, 1: 1, 2: 4, 3: 1}
    assert check_separated_stops(m, ms)["ok"]
    d = beach4_diagram(
        large_faces=frozenset({0, 2}), exterior_vertices=frozenset({south})
    )
    fake = CollisionReport(F(2), {north: ((F(0), F(0)),)}, {})
    out = lemma17_audit(d, ms, collisions=fake)
    assert out["conditions"] == {
        "multiplicities": True,
        "nonadjacent_large_corners": True,
        "no_bad_contact": True,
    }
    assert out["floor"] == 8 and out["gamma"]["cap"] == 6
    assert out["gamma"]["edges"] == ((0, 2),)
    assert out["contradiction"]


def test_lemma17_edge_point_on_small_side_fails_condition2():
    m = beach4()
    north, south = poles(m)
    d = beach4_diagram(
        large_faces=frozenset({0, 2}), exterior_vertices=frozenset({south})
    )
    fake = CollisionReport(
        F(2), {north: ((F(0), F(0)),)}, {(1, F(1, 2)): ((F(1), F(1)),)}
    )
    out = lemma17_audit(d, beach4_multiple_motion(), collisions=fake)
    assert out["interior_points"] == 2
    assert not out["conditions"]["nonadjacent_large_corners"]
    assert not out["contradiction"]


def test_lemma17_edge_point_between_large_faces_is_a_gamma_edge():
    m = beach4()
    north, south = poles(m)
    d = beach4_diagram(
        large_faces=frozenset({0, 1, 2}), exterior_vertices=frozenset({south})
    )
    (f1, _), (f2, _) = m.edge_sides[1]
    assert {f1, f2} == {0, 1}
    fake = CollisionReport(
        F(2), {north: ((F(0), F(0)),)}, {(1, F(1, 2)): ((F(1), F(1)),)}
    )
    out = lemma17_audit(d, beach4_multiple_motion(), collisions=fake)
    assert out["conditions"]["nonadjacent_large_corners"]
    assert out["gamma"]["edges"] == ((0, 2), (f1, f2))


def test_lemma17_builds_its_tables_once(monkeypatch):
    # the audit's contact search reads the interior loci and the corner-pair
    # table that its condition 2 built, and finds what the report finds
    m = beach4()
    north, south = poles(m)
    d = beach4_diagram(large_faces=frozenset({0, 2}), exterior_vertices=frozenset({south}))
    fake = CollisionReport(F(2), {north: ((F(0), F(0)),)}, {(1, F(1, 2)): ((F(1), F(1)),)})
    builds = Counter()

    def counted(name):
        real = getattr(diagram, name)

        def build(*args):
            builds[name] += 1
            return real(*args)

        return build

    for name in ("_interior_loci", "_large_corner_pairs"):
        monkeypatch.setattr(diagram, name, counted(name))
    out = lemma17_audit(d, beach4_multiple_motion(), collisions=fake)
    assert builds == {"_interior_loci": 1, "_large_corner_pairs": 1}
    assert out["bad_contacts"] == bad_contact_report(d, collisions=fake)
    assert builds == {"_interior_loci": 2, "_large_corner_pairs": 2}


def test_lemma17_banded_map_fails_honestly():
    m = banded_sphere_map()
    ms = standard_multiple_motion(m, dict(classify_map(m), m=1))
    loci = sorted(complete_collisions(m, ms).vertex_loci)
    one = FreeProductWord.one(B2)
    d = HowieDiagram(
        m,
        {c: one for c in m.corners()},
        {e: 1 for e in m.edge_ids},
        exterior_vertices=frozenset({loci[0]}),
        large_faces=frozenset({0, 1}),
    )
    out = lemma17_audit(d, ms)
    assert out["conditions"]["multiplicities"]
    assert not out["conditions"]["nonadjacent_large_corners"]
    assert not out["contradiction"]
    assert out["floor"] == 8


def test_lemma17_preconditions():
    ms = beach4_multiple_motion()
    with pytest.raises(DiagramError, match="2-grading"):
        lemma17_audit(beach4_diagram(), ms)

    torus = OrientedMap("torus", (((0, 1), (1, 1), (0, -1), (1, -1)),))
    one = FreeProductWord.one(B2)
    dt = HowieDiagram(
        torus,
        {c: one for c in torus.corners()},
        {0: 1, 1: 1},
        large_faces=frozenset({0}),
    )
    parked = MotionSchedule(F(1), (CarSchedule(0, F(1), ((F(0), F(0)),)),))
    with pytest.raises(DiagramError, match="sphere"):
        lemma17_audit(dt, parked)

    unmarked = beach4_diagram(large_faces=frozenset({0, 2}))
    with pytest.raises(DiagramError, match="single exterior vertex"):
        lemma17_audit(unmarked, ms)

    pent = mirror_pentagon()
    loose = standard_motion(pent.map)
    bare = MotionSchedule(loose.period, loose.cars, frozenset())
    marked = HowieDiagram(
        pent.map,
        pent.corner_labels,
        pent.edge_labels,
        exterior_vertices=frozenset({pent.map.vertices()[0]}),
        large_faces=frozenset({0}),
    )
    with pytest.raises(DiagramError, match="separated stops"):
        lemma17_audit(marked, bare)

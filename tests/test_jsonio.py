"""Round trips and error reporting for the JSON document formats."""

import json
from fractions import Fraction as F

import pytest

from spheremotion.comotion import Cocar, Comotion
from spheremotion.diagram import HowieDiagram
from spheremotion.fuzzing import lune_map
from spheremotion.goldens import (
    banded_sphere_map,
    doubled_polygon_map,
    pinwheel_double_car_motion,
    pinwheel_map,
    pinwheel_retimed_motion,
    pinwheel_unit_motion,
)
from spheremotion.groups import FreeAbelianGroup, FreeGroup, FreeProductWord, word
from spheremotion.jsonio import (
    JsonError,
    comotion_to_json,
    diagram_to_json,
    dumps,
    frac_to_str,
    map_to_json,
    motion_to_json,
    parse_comotion,
    parse_diagram,
    parse_frac,
    parse_map,
    parse_motion,
    parse_presentation,
    parse_word,
    presentation_to_json,
    word_to_json,
)
from spheremotion.motion import CarSchedule, MotionSchedule, standard_motion, standard_multiple_motion
from spheremotion.rewriting import rewrite_word
from spheremotion.surface import MapError, OrientedMap, classify_map


def test_fraction_strings():
    assert frac_to_str(F(3, 2)) == "3/2"
    assert frac_to_str(F(4)) == "4"
    assert parse_frac("3/2") == F(3, 2)
    assert parse_frac("-7") == F(-7)
    assert parse_frac(5) == F(5)
    with pytest.raises(JsonError, match="p/q"):
        parse_frac(1.5)
    with pytest.raises(JsonError, match="bad rational"):
        parse_frac("3/0")
    with pytest.raises(JsonError, match="bad rational"):
        parse_frac("pi")


def test_word_round_trip_free_base():
    B = FreeGroup(3)
    w = word(
        B, ("g", 0, (1, -2)), ("t", 1, 2), ("g", 2, (3,)), ("t", 1, -1)
    )
    doc = word_to_json(w)
    assert doc["syllables"][0] == {"copy": 0, "elem": "aB"}
    assert parse_word(doc) == w
    assert parse_word(json.loads(dumps(doc))) == w


def test_word_round_trip_abelian_base():
    Z2 = FreeAbelianGroup(2)
    w = word(Z2, ("g", 1, (2, -1)), ("t", 1, 1), ("g", 0, (0, 5)))
    doc = word_to_json(w)
    assert doc["syllables"][0] == {"copy": 1, "elem": [2, -1]}
    assert parse_word(doc) == w


def test_parse_word_normalizes_and_checks_base():
    B = FreeGroup(1)
    doc = {
        "base": {"kind": "free", "rank": 1},
        "syllables": [
            {"copy": 0, "elem": "a"},
            {"copy": 0, "elem": "A"},
            {"t": 1, "exp": 1},
        ],
    }
    assert parse_word(doc) == word(B, ("t", 1, 1))
    with pytest.raises(JsonError, match="does not match"):
        parse_word(doc, FreeGroup(2))
    with pytest.raises(JsonError, match="unknown base kind"):
        parse_word({"base": {"kind": "braid", "rank": 2}, "syllables": []})
    with pytest.raises(JsonError, match="missing field"):
        parse_word({"syllables": []})


def test_presentation_round_trip():
    B = FreeGroup(2)
    w = word(
        B,
        ("g", 0, (1,)),
        ("t", 1, 1),
        ("g", 0, (2,)),
        ("t", 1, -1),
        ("g", 0, (1, 2)),
        ("t", 1, 1),
    )
    data = rewrite_word(w).data
    extra = word(B, ("t", 1, 1), ("g", 0, (2,)))
    doc = presentation_to_json(data, extra_relators=(extra,))
    back, extras = parse_presentation(json.loads(dumps(doc)))
    assert back == data
    assert extras == (extra,)


def test_map_round_trip_and_errors():
    for m in (pinwheel_map(), banded_sphere_map()):
        assert parse_map(map_to_json(m)) == m
    torus = OrientedMap("torus", (((0, 1), (1, 1), (0, -1), (1, -1)),))
    assert parse_map(map_to_json(torus)) == torus

    doc = map_to_json(pinwheel_map())
    doc["faces"][0][0]["dir"] = "?"
    with pytest.raises(JsonError, match="edge 0"):
        parse_map(doc)
    doc = map_to_json(pinwheel_map())
    del doc["faces"][0][0]
    with pytest.raises(MapError, match="edge 0"):
        parse_map(doc)


def motion_cases():
    pin = pinwheel_map()
    pentagon = doubled_polygon_map((1, 1, -1, 1, -1))
    banded = banded_sphere_map()
    return [
        (pin, pinwheel_unit_motion()),
        (pin, pinwheel_retimed_motion()),
        (pin, pinwheel_double_car_motion()),
        (pentagon, standard_motion(pentagon)),
        (banded, standard_multiple_motion(banded, dict(classify_map(banded), m=1))),
    ]


def test_motion_round_trips():
    for m, ms in motion_cases():
        doc = json.loads(dumps(motion_to_json(m, ms)))
        assert parse_motion(doc, m) == ms


def test_motion_breakpoint_encoding():
    m = pinwheel_map()
    doc = motion_to_json(m, pinwheel_retimed_motion())
    bps = doc["cars"][4]["breakpoints"]
    assert bps[1] == {"t": "1/2", "at": {"corner": 1}}
    second = motion_to_json(m, pinwheel_double_car_motion())["cars"][5]
    assert second["period"] == "6"
    assert second["breakpoints"][0]["at"] == {"corner": 3}
    assert second["breakpoints"][3]["at"] == {"corner": 0}


def test_motion_silent_lap_is_refused():
    pentagon = doubled_polygon_map((1, 1, -1, 1, -1))
    lap = CarSchedule(0, F(10), ((F(0), F(0)), (F(5), F(5))), degree=1)
    rest = CarSchedule(1, F(10), ((F(0), F(0)),))
    ms = MotionSchedule(F(10), (lap, rest))
    with pytest.raises(JsonError, match="subdivide first"):
        motion_to_json(pentagon, ms)


def test_motion_parse_rejections():
    m = pinwheel_map()
    doc = motion_to_json(m, pinwheel_unit_motion())
    doc["cars"][0]["face"] = 9
    with pytest.raises(JsonError, match="no such face"):
        parse_motion(doc, m)
    doc = motion_to_json(m, pinwheel_unit_motion())
    doc["cars"][0]["breakpoints"][1]["at"] = {"dart": 1, "lambda": "3/2"}
    with pytest.raises(JsonError, match="lambda"):
        parse_motion(doc, m)
    doc = motion_to_json(m, pinwheel_unit_motion())
    doc["cars"][0]["breakpoints"][1]["at"] = {"corner": 3}
    with pytest.raises(JsonError, match="corner index"):
        parse_motion(doc, m)
    doc["cars"][0]["breakpoints"][1]["at"] = 3
    with pytest.raises(JsonError, match="missing field 'dart'"):
        parse_motion(doc, m)


def test_comotion_round_trip():
    m = doubled_polygon_map((1, -1))
    com = Comotion(
        F(4),
        (
            Cocar(0, 1, ((F(0), F(0)), (F(1), F(1)))),
            Cocar(1, 1, ((F(3, 2), F(2)), (F(2), F(5, 2)), (F(11, 4), F(3)))),
        ),
    )
    doc = json.loads(dumps(comotion_to_json(m, com)))
    assert parse_comotion(doc, m) == com
    at = doc["cocars"][1]["breakpoints"]
    assert at[0]["at"] == {"dart": 1, "lambda": "1/2"}
    assert at[1]["at"] == {"corner": 0}


def test_diagram_round_trip():
    B = FreeGroup(2)
    m = doubled_polygon_map((1, 1, -1, 1, -1))
    labels = {(0, j): FreeProductWord.g(B, (1,) * (j + 1)) for j in range(5)}
    for v in m.vertices():
        (_, jf), (fb, jb) = sorted(v)
        labels[(fb, jb)] = labels[(0, jf)].inverse()
    d = HowieDiagram(
        m,
        labels,
        {e: 1 + (e % 2) for e in m.edge_ids},
        exterior_vertices=frozenset({m.vertices()[0]}),
        large_faces=frozenset({0}),
    )
    doc = json.loads(dumps(diagram_to_json(d)))
    assert parse_diagram(doc) == d

    lunes = lune_map(2)
    p = FreeProductWord.g(B, (1,))
    q = p.shift_copies(1).inverse()
    dphi = HowieDiagram(
        lunes,
        {(0, 1): p, (0, 0): q, (1, 1): p, (1, 0): q},
        {0: 1, 1: 1},
        phi_s=1,
    )
    doc = json.loads(dumps(diagram_to_json(dphi)))
    assert doc["phi"] == {"s": 1}
    assert parse_diagram(doc) == dphi


def test_diagram_parse_rejections():
    B = FreeGroup(1)
    balloon = OrientedMap("sphere", (((0, 1),), ((0, -1),)))
    d = HowieDiagram(
        balloon,
        {(0, 0): FreeProductWord.g(B, (1,)), (1, 0): FreeProductWord.g(B, (-1,))},
        {0: 1},
    )
    doc = diagram_to_json(d)
    doc["edge_labels"]["0"] = "x_1"
    with pytest.raises(JsonError, match="t_j"):
        parse_diagram(doc)
    doc = diagram_to_json(d)
    doc["arrows"]["0"] = [1, 0]
    with pytest.raises(JsonError, match="arrow"):
        parse_diagram(doc)
    doc = diagram_to_json(d)
    doc["exterior_vertices"] = [["0,0"]]
    with pytest.raises(JsonError, match="not a vertex"):
        parse_diagram(doc)
    doc = diagram_to_json(d)
    doc["corner_labels"]["9"] = doc["corner_labels"]["0,0"]
    with pytest.raises(JsonError, match="bad corner key"):
        parse_diagram(doc)


def test_dumps_is_deterministic():
    m = pinwheel_map()
    a = dumps(motion_to_json(m, pinwheel_unit_motion()))
    b = dumps(json.loads(a))
    assert a == b and a.endswith("\n")
    assert '"t": "0"' in a

"""Round trips and error reporting for the JSON document formats."""

import json
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import comotion_oracle
import motion_oracle
import word_oracle
from spheremotion.comotion import Cocar, Comotion, ComotionError, subdivide_comotion
from spheremotion.diagram import HowieDiagram
from spheremotion.fuzzing import (
    lune_map,
    make_rng,
    pinwheel_variant,
    random_comotion,
    random_multiple_motion,
    random_sphere_map,
    random_unit_sum_word,
)
from spheremotion.goldens import (
    banded_sphere_map,
    doubled_polygon_map,
    pinwheel_double_car_motion,
    pinwheel_map,
    pinwheel_retimed_motion,
    pinwheel_unit_motion,
)
from spheremotion.groups import (
    FreeAbelianGroup,
    FreeGroup,
    FreeProductWord,
    GroupError,
    shared_base,
)
from spheremotion.jsonio import (
    MAX_EXPONENT,
    JsonError,
    _lift_positions,
    _position,
    comotion_to_json,
    diagram_to_json,
    dumps,
    frac_to_str,
    map_to_json,
    motion_to_json,
    parse_base,
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
from spheremotion.motion import (
    CarSchedule,
    MotionError,
    MotionSchedule,
    standard_motion,
    standard_multiple_motion,
    time_shifted_car,
)
from spheremotion.rewriting import rewrite_word
from spheremotion.surface import MapError, OrientedMap, classify_map
from word_oracle import word


def test_fraction_strings():
    assert frac_to_str(F(3, 2)) == "3/2"
    assert frac_to_str(F(4)) == "4"
    assert frac_to_str(-4) == "-4"
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


def test_equal_base_documents_read_as_one_shared_instance():
    kinds = {"free": FreeGroup, "abelian": FreeAbelianGroup}
    docs = [{"kind": kind, "rank": rank} for kind in kinds for rank in (1, 2, 26)]
    bases = [parse_base(dict(doc)) for doc in docs]
    # equal documents give the same object; other kinds or ranks distinct ones
    assert all(parse_base(dict(doc)) is base for doc, base in zip(docs, bases))
    assert len({id(base) for base in bases}) == len(docs)
    for doc, base in zip(docs, bases):
        built = kinds[doc["kind"]](doc["rank"])
        assert base is shared_base(doc["kind"], doc["rank"])
        assert base == built and base is not built
    # every label of a diagram document reads its base as the one instance
    p = FreeProductWord.g(FreeGroup(2), (1, -2))
    q = p.shift_copies(1).inverse()
    lunes = HowieDiagram(lune_map(2), {(0, 1): p, (0, 0): q, (1, 1): p, (1, 0): q}, {0: 1, 1: 1})
    d = parse_diagram(json.loads(dumps(diagram_to_json(lunes))))
    assert {id(w.base) for w in d.corner_labels.values()} == {id(shared_base("free", 2))}
    # a bool or float rank hashes like the int rank it equals, and is still refused
    for rank in (True, 1.0):
        with pytest.raises(JsonError) as info:
            parse_base({"kind": "free", "rank": rank})
        assert str(info.value) == f"rank must be an int, got {rank!r}"
    # a rank out of range is the constructor's refusal
    for kind, rank, message in (("abelian", 27, "abelian rank must be at most 26, got 27"),
                                ("free", 0, "free rank must be in 1..26, got 0")):
        with pytest.raises(GroupError) as info:
            parse_base({"kind": kind, "rank": rank})
        assert str(info.value) == message


def test_parse_word_reads_over_an_equal_base_that_is_not_shared():
    for built, literal in ((FreeGroup(2), "aB"), (FreeAbelianGroup(2), [1, -2])):
        doc = word_to_json(word(built, ("g", 0, literal), ("t", 1, 1), ("g", 1, literal)))
        got = parse_word(doc, built)
        assert got == parse_word(doc) and got.base == built
        # words over the equal bases multiply, and label one diagram together
        one = FreeProductWord.one(built)
        assert (got * one).syllables == (one * got).syllables == got.syllables
        balloon = OrientedMap("sphere", (((0, 1),), ((0, -1),)))
        labels = {(0, 0): FreeProductWord.g(built, built.generators()[0]),
                  (1, 0): parse_word(word_to_json(FreeProductWord.g(built, built.generators()[1])))}
        assert HowieDiagram(balloon, labels, {0: 1}).base == built
    # an unequal base is refused, shared or not
    doc = word_to_json(FreeProductWord.g(FreeGroup(2), (1,)))
    for other in (FreeGroup(3), shared_base("free", 3), FreeAbelianGroup(2)):
        with pytest.raises(JsonError) as info:
            parse_word(doc, other)
        assert str(info.value) == f"word base FreeGroup(2) does not match {other!r}"


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


def test_a_breakpoint_with_both_fields_broken_names_its_position():
    # cars and cocars read each breakpoint's `at` before its time, the
    # order of the writer's sorted keys; a car used to name its time first
    m = pinwheel_map()
    doc = motion_to_json(m, pinwheel_unit_motion())
    doc["cars"][0]["breakpoints"][1].update(t="x", at={"corner": 99})
    with pytest.raises(JsonError) as info:
        parse_motion(doc, m)
    assert str(info.value) == f"corner index 99 outside 0..{len(m.faces[0]) - 1}"
    m = doubled_polygon_map((1, -1))
    com = Comotion(F(4), (Cocar(0, 1, ((F(0), F(0)), (F(1), F(1)))),
                          Cocar(1, 1, ((F(0), F(2)), (F(1), F(3))))))
    doc = comotion_to_json(m, com)
    doc["cocars"][1]["breakpoints"][0].update(time="x", at={"corner": 99})
    with pytest.raises(JsonError) as info:
        parse_comotion(doc, m)
    assert str(info.value) == "corner index 99 outside 0..1"


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
    assert [c for c in com.cocars if "breakpoints" in vars(c)] == []  # written from the ints
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
        exterior_faces=frozenset({1}),
        large_faces=frozenset({0}),
    )
    doc = json.loads(dumps(diagram_to_json(d)))
    assert doc["exterior_faces"] == [1]
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

    def refused(doc):
        with pytest.raises(JsonError) as info:
            parse_diagram(doc)
        return str(info.value)

    # a later label's base is read in full unless it names the first one's
    # kind and int rank: true and 2.0 equal 1 and 2, and are still refused
    for first, later, message in [
        (1, {"kind": "free", "rank": True}, "rank must be an int, got True"),
        (2, {"kind": "free", "rank": 2.0}, "rank must be an int, got 2.0"),
        (1, {"kind": "abelian", "rank": 1},
         "word base FreeAbelianGroup(1) does not match FreeGroup(1)"),
        (1, {"kind": "free", "rank": 2}, "word base FreeGroup(2) does not match FreeGroup(1)"),
        (1, {"kind": "free"}, "missing field 'rank'"),
    ]:
        doc = diagram_to_json(d)
        doc["corner_labels"]["0,0"]["base"]["rank"] = first
        doc["corner_labels"]["1,0"]["base"] = later
        assert refused(doc) == message
    doc = diagram_to_json(d)
    doc["corner_labels"]["0,00"] = doc["corner_labels"].pop("1,0")
    assert refused(doc) == "corner_labels keys '0,0' and '0,00' both name corner (0, 0)"

    # an exterior vertex names all of one vertex's corners and nothing else
    two = HowieDiagram(
        doubled_polygon_map((1, -1)),
        {c: FreeProductWord.one(B) for c in doubled_polygon_map((1, -1)).corners()},
        {0: 1, 1: 1},
    )
    for corners in (["0,0"], ["0,0", "1,0", "0,1"], [], ["0,0", "1,0", "5,5"], ["5,5"]):
        doc = diagram_to_json(two)
        doc["exterior_vertices"] = [corners]
        assert refused(doc) == f"exterior vertex {sorted(corners)} is not a vertex"
    doc["exterior_vertices"] = [["1,0", "0,0", "0,0"], ["1,1", "0,1"]]
    assert parse_diagram(doc).exterior_vertices == frozenset(two.map.vertices())


def test_dumps_is_deterministic():
    m = pinwheel_map()
    a = dumps(motion_to_json(m, pinwheel_unit_motion()))
    b = dumps(json.loads(a))
    assert a == b and a.endswith("\n")
    assert '"t": "0"' in a


# The rational language `parse_frac` accepts is `Fraction(str)`'s: these
# pins hold whatever fast path the reader takes.
ACCEPTED_RATIONALS = [
    ("1.5", F(3, 2)),
    ("1e2", F(100)),
    ("+1/2", F(1, 2)),
    (" 1/2", F(1, 2)),
    ("1_0/3", F(10, 3)),
    ("١/2", F(1, 2)),
    ("10/4", F(5, 2)),
    ("007/003", F(7, 3)),
]

REFUSED_RATIONALS = ["1/", "/2", "1/-2", "--1/2", "1/0", "1/00", "²/3", "1" * 5000]


@pytest.mark.parametrize("text, value", ACCEPTED_RATIONALS)
def test_parse_frac_accepts_what_fraction_accepts(text, value):
    got = parse_frac(text)
    assert type(got) is F and got == value == F(text)


@pytest.mark.parametrize("text", REFUSED_RATIONALS, ids=lambda s: s[:8])
def test_parse_frac_refuses_what_fraction_refuses(text):
    with pytest.raises(JsonError) as info:
        parse_frac(text)
    assert str(info.value).startswith(f"bad rational {text!r}")


def test_motion_document_reads_every_spelling_of_a_time():
    m = pinwheel_map()
    ms = pinwheel_unit_motion()
    spellings = {"1": " +1.0", "2": "2e0", "3": "00٣/1", "6": "1_2/2"}
    doc = motion_to_json(m, ms)
    doc["period"] = spellings[doc["period"]]
    for car in doc["cars"]:
        car["period"] = spellings.get(car["period"], car["period"])
        for bp in car["breakpoints"]:
            bp["t"] = spellings.get(bp["t"], bp["t"])
    assert parse_motion(doc, m) == ms


def test_comotion_document_reads_lambda_spellings():
    m = doubled_polygon_map((1, -1))
    com = Comotion(
        F(4),
        (
            Cocar(0, 1, ((F(0), F(0)), (F(1), F(1)))),
            Cocar(1, 1, ((F(3, 2), F(2)), (F(2), F(5, 2)), (F(11, 4), F(3)))),
        ),
    )
    doc = comotion_to_json(m, com)
    bps = doc["cocars"][1]["breakpoints"]
    assert bps[0]["at"] == {"dart": 1, "lambda": "1/2"}
    assert bps[2]["at"] == {"dart": 0, "lambda": "3/4"}
    for half, three_quarters in [("2/4", "6/8"), (" 1/2", "0.75"), ("+1/2", "75e-2")]:
        bps[0]["at"]["lambda"] = half
        bps[2]["at"]["lambda"] = three_quarters
        assert parse_comotion(doc, m) == com
    for edge in ("0/1", "3/3"):
        bps[0]["at"]["lambda"] = edge
        with pytest.raises(JsonError, match="not strictly inside the dart"):
            parse_comotion(doc, m)


def test_parse_frac_bounds_the_decimal_exponent():
    assert MAX_EXPONENT == 4300
    assert parse_frac("1e4300") == 10**4300
    assert parse_frac("-1E-4300") == F(-1, 10**4300)
    for text in ("1e4301", "1e-4301", " 2.5E+4301 ", "1e4_301"):
        with pytest.raises(JsonError, match=r"decimal exponent -?4301 beyond") as info:
            parse_frac(text)
        assert str(info.value).startswith(f"bad rational {text!r}")


def test_motion_cli_refuses_a_huge_exponent_before_working(tmp_path, capsys):
    from spheremotion.cli import main

    m = pinwheel_map()
    doc = motion_to_json(m, pinwheel_unit_motion())
    doc["cars"][0]["breakpoints"][1]["t"] = "1e4301"
    (tmp_path / "pin.map.json").write_text(dumps(map_to_json(m)))
    (tmp_path / "huge.motion.json").write_text(dumps(doc))
    code = main(["motion", str(tmp_path / "pin.map.json"), str(tmp_path / "huge.motion.json")])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"].startswith("bad rational '1e4301': decimal exponent 4301")


# strings near the "p/q" form, to hit the fast path and each way off it
RATIONAL_TEXT = st.text(alphabet="0123456789/_ +-.eE١²", max_size=9) | st.from_regex(
    r"\A[0-9]{1,12}(/[0-9]{1,12})?\Z"
)


def _fraction_or_refusal(text):
    """F(text), or "refused" where Fraction refuses or the exponent is over
    MAX_EXPONENT."""
    head, _, exp = text.replace("E", "e").rpartition("e")
    try:
        if head and abs(int(exp)) > MAX_EXPONENT:
            return "refused"
    except ValueError:
        pass
    try:
        return F(text)
    except (ValueError, ZeroDivisionError):
        return "refused"


@settings(max_examples=300, deadline=None)
@given(text=RATIONAL_TEXT)
def test_parse_frac_matches_fraction(text):
    want = _fraction_or_refusal(text)
    try:
        got = parse_frac(text)
    except JsonError as exc:
        assert str(exc).startswith(f"bad rational {text!r}")
        got = "refused"
    assert got == want


@settings(max_examples=200, deadline=None)
@given(k=st.integers(-1, 4), lam=RATIONAL_TEXT)
def test_parse_position_matches_dart_plus_lambda(k, lam):
    L = 4
    want = _fraction_or_refusal(lam)
    if want == "refused" or not 0 <= k < L or not 0 < want < 1:
        with pytest.raises(JsonError):
            _position({"dart": k, "lambda": lam}, L)
    else:
        got = _position({"dart": k, "lambda": lam}, L)
        assert got == ((k + want).numerator, (k + want).denominator)


@settings(max_examples=100, deadline=None)
@given(L=st.integers(1, 6), data=st.data())
def test_lift_positions_matches_the_modular_walk(L, data):
    reduced = data.draw(
        st.lists(st.fractions(0, L).filter(lambda r: r < L), min_size=1, max_size=8)
    )
    want = [reduced[0]]
    for r in reduced[1:]:
        want.append(want[-1] + (r - want[-1]) % L)
    xs, X = _lift_positions([(r.numerator, r.denominator) for r in reduced], L)
    assert X == lcm(*(r.denominator for r in reduced))
    assert [F(x, X) for x in xs] == want


def _dumps_oracle(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


JSON_TEXT = st.text() | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7fé€雪\U0001f600 ab')
JSON_SCALARS = (
    JSON_TEXT
    | st.integers()
    | st.integers(-(10**60), 10**60)
    | st.booleans()
    | st.none()
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(doc=JSON_DOCS)
def test_dumps_matches_json_dumps(doc):
    assert dumps(doc) == _dumps_oracle(doc)


def test_dumps_matches_json_dumps_on_empty_and_nested_containers():
    for doc in ([], {}, (), [[]], {"a": {}}, [(), {"b": [[], {}]}], {"": [None]}):
        assert dumps(doc) == _dumps_oracle(doc)


def test_dumps_refuses_floats_and_non_str_keys():
    with pytest.raises(TypeError):
        dumps({"x": [1.5]})
    with pytest.raises(TypeError):
        dumps({1: "one"})


# -- comotion documents against the Fraction reader ------------------------------

ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def spellings(v):
    """Spellings of the rational v that the tests above pin: "p/q",
    unreduced, int, decimal, exponent, sign and spaces, "_", other digits."""
    p, q = abs(v.numerator), v.denominator
    sign = "-" if v < 0 else ""
    plain = f"{p}" if q == 1 else f"{p}/{q}"
    bodies = [plain, f"{2 * p}/{2 * q}", f"{7 * p}/{7 * q}", f"{p}_0/{q}0",
              plain.translate(ARABIC_INDIC), f"00{plain}"]
    n = next((n for n in range(7) if 10**n % q == 0), None)
    if n is not None:
        d = p * 10**n // q
        bodies += [f"{d // 10**n}.{d % 10**n:0{n}d}" if n else f"{d}.0",
                   f"{d}e-{n}", f"{d}E-{n}", f"{d}0e-{n + 1}", f"{d}.0e-{n}"]
    out = [sign + b for b in bodies]
    out += [f" {sign}{plain} ", f"\t{sign}{plain}"]
    if not sign:
        out += [f"+{plain}", f" +{plain}\t"]
    if q == 1:
        out.append(v.numerator)  # a JSON int
    return out


def respelled_comotion(rng, draw):
    """(map, comotion, document): a random comotion, perhaps subdivided and
    shifted to negative times, whose document spells each rational anew."""
    m = pinwheel_variant(rng.randint(1, 6)) if rng.random() < 0.3 else random_sphere_map(rng)
    com = random_comotion(m, rng)
    for _ in range(rng.randint(0, 2)):
        nxt = max(m.edge_ids) + 1
        m, com = subdivide_comotion(m, com, rng.choice(m.edge_ids), (nxt, nxt + 1))
    shift = rng.choice([F(0), F(5, 3), F(7)])
    com = Comotion(com.period, tuple(
        Cocar(c.face, c.degree, tuple((p, t - shift) for p, t in c.breakpoints))
        for c in com.cocars))
    doc = json.loads(dumps(comotion_to_json(m, com)))

    def spell(text):
        return draw(st.sampled_from(spellings(F(text))))

    doc["period"] = spell(doc["period"])
    for cocar in doc["cocars"]:
        for bp in cocar["breakpoints"]:
            bp["time"] = spell(bp["time"])
            if "lambda" in bp["at"]:
                bp["at"]["lambda"] = spell(bp["at"]["lambda"])
    return m, com, doc


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_comotion_documents_read_every_spelling_as_the_fraction_reader(seed, data):
    m, com, doc = respelled_comotion(make_rng(seed), data.draw)
    got, want = parse_comotion(doc, m), comotion_oracle.parse_comotion(doc, m)
    assert got == want == com
    for a, b in zip(got.cocars, want.cocars, strict=True):
        assert (hash(a), repr(a)) == (hash(b), repr(b))
        assert a.breakpoints == b.breakpoints
        assert all(type(v) is F for bp in a.breakpoints for v in bp)
    assert dumps(comotion_to_json(m, got)) == dumps(comotion_to_json(m, com))


def _parsed(parse, doc, m):
    """The cocars' fields and the period, or the error a reader raises."""
    try:
        com = parse(doc, m)
    except (JsonError, ComotionError) as exc:
        return type(exc).__name__, str(exc)
    return com.period, [(c.face, c.degree, c.breakpoints) for c in com.cocars]


FIELD_VALUES = (RATIONAL_TEXT | st.integers(-2, 9) | st.sampled_from([True, 1.0, None, "x"]))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data(), value=FIELD_VALUES)
def test_comotion_documents_refuse_as_the_fraction_reader(seed, data, value):
    # one field of a respelled document takes an arbitrary value
    m, _, doc = respelled_comotion(make_rng(seed), data.draw)
    cocar = data.draw(st.sampled_from(doc["cocars"]))
    bp = data.draw(st.sampled_from(cocar["breakpoints"]))
    where = data.draw(st.sampled_from(["period", "degree", "time", "at"]))
    if where == "period":
        doc["period"] = value
    elif where == "degree":
        cocar["degree"] = value
    elif where == "time":
        bp["time"] = value
    else:
        key = data.draw(st.sampled_from(["corner", "dart", "lambda"]))
        bp["at"] = {"corner": value} if key == "corner" else dict(bp["at"], **{key: value})
    assert _parsed(parse_comotion, doc, m) == _parsed(comotion_oracle.parse_comotion, doc, m)


# -- motion documents against the Fraction reader --------------------------------


def respelled_motion(rng, draw):
    """(map, schedule, document): a random multiple motion run a random
    time earlier, with a few stop corners, whose document spells each
    rational anew."""
    m = pinwheel_variant(rng.randint(1, 6)) if rng.random() < 0.3 else random_sphere_map(rng)
    ms = random_multiple_motion(m, rng, rng.choice([None, F(5, 3), F(7, 2)]))
    shift = ms.period * F(rng.randrange(12), 12)
    cars = tuple(time_shifted_car(c, len(m.faces[c.face]), shift) for c in ms.cars)
    stops = frozenset(rng.sample(sorted(m.corners()), rng.randint(0, 2)))
    ms = MotionSchedule(ms.period, cars, stops)
    doc = json.loads(dumps(motion_to_json(m, ms)))

    def spell(text):
        return draw(st.sampled_from(spellings(F(text))))

    doc["period"] = spell(doc["period"])
    for car in doc["cars"]:
        car["period"] = spell(car["period"])
        for bp in car["breakpoints"]:
            bp["t"] = spell(bp["t"])
            if "lambda" in bp["at"]:
                bp["at"]["lambda"] = spell(bp["at"]["lambda"])
    return m, ms, doc


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_motion_documents_read_every_spelling_as_the_fraction_reader(seed, data):
    m, ms, doc = respelled_motion(make_rng(seed), data.draw)
    got, want = parse_motion(doc, m), motion_oracle.parse_motion(doc, m)
    assert got == ms
    assert (got.period, got.stop_corners) == (want.period, want.stop_corners)
    for a, b in zip(got.cars, want.cars, strict=True):
        # the Fraction reader's car, stored in ints
        c = CarSchedule(b.face, b.period, b.breakpoints, b.degree)
        assert a == c and (hash(a), repr(a)) == (hash(c), repr(b))
        assert a.breakpoints == b.breakpoints
        assert all(type(v) is F for bp in a.breakpoints for v in bp)
    assert dumps(motion_to_json(m, got)) == dumps(motion_oracle.motion_to_json(m, want))


def _parsed_motion(parse, doc, m):
    """The cars' fields, the period and the stop corners, or the error a
    reader raises."""
    try:
        ms = parse(doc, m)
    except (JsonError, MotionError) as exc:
        return type(exc).__name__, str(exc)
    cars = [(c.face, c.period, c.breakpoints, c.degree) for c in ms.cars]
    return ms.period, ms.stop_corners, cars


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data(), value=FIELD_VALUES)
def test_motion_documents_refuse_as_the_fraction_reader(seed, data, value):
    # one field of a respelled document takes an arbitrary value
    m, _, doc = respelled_motion(make_rng(seed), data.draw)
    car = data.draw(st.sampled_from(doc["cars"]))
    bp = data.draw(st.sampled_from(car["breakpoints"]))
    where = data.draw(st.sampled_from(["period", "car period", "degree", "t", "at", "stop"]))
    if where == "period":
        doc["period"] = value
    elif where == "car period":
        car["period"] = value
    elif where == "degree":
        car["degree"] = value
    elif where == "t":
        bp["t"] = value
    elif where == "stop":
        doc["stop_corners"] = [[car["face"], value]]
    else:
        key = data.draw(st.sampled_from(["corner", "dart", "lambda"]))
        bp["at"] = {"corner": value} if key == "corner" else dict(bp["at"], **{key: value})
    want = _parsed_motion(motion_oracle.parse_motion, doc, m)
    assert _parsed_motion(parse_motion, doc, m) == want


# -- word documents against the reader that validated every element twice -------

# mostly well-formed documents, with every kind of wrong value mixed in
_ODD_VALUES = st.one_of(st.booleans(), st.none(), st.floats(-2, 2), st.text("ab1,", max_size=2))


@st.composite
def _mostly(draw, values, odd=_ODD_VALUES):
    """A draw from `values`, or from `odd` about one time in eight."""
    return draw(odd if draw(st.sampled_from(range(8))) == 7 else values)


@st.composite
def word_docs(draw):
    kind = draw(_mostly(st.sampled_from(["free", "abelian"]), st.just("cyclic")))
    rank = draw(_mostly(st.integers(1, 3), st.one_of(st.integers(-1, 27), _ODD_VALUES)))
    if kind == "free":
        elems = st.text("abcAz" if rank == 3 else "abAB" + "cz" * (rank != 2), max_size=5)
    else:
        size = rank if type(rank) is int and 0 <= rank <= 3 else 2
        entry = _mostly(st.integers(-2, 2), st.one_of(st.booleans(), st.floats(-1, 1)))
        elems = _mostly(st.lists(entry, min_size=size, max_size=size),
                        st.lists(st.integers(-2, 2), max_size=4))
    t_doc = st.fixed_dictionaries({"t": _mostly(st.integers(0, 3)),
                                   "exp": _mostly(st.integers(-2, 2))})
    g_doc = st.fixed_dictionaries({"copy": _mostly(st.integers(-1, 3)), "elem": _mostly(elems)})
    partial = st.dictionaries(st.sampled_from(["t", "exp", "copy", "elem"]),
                              st.integers(-1, 2), max_size=2)
    syllable = st.sampled_from([t_doc, g_doc, g_doc, partial]).flatmap(lambda x: x)
    syllables = _mostly(st.lists(syllable, min_size=1, max_size=6))
    return {"base": {"kind": kind, "rank": rank}, "syllables": draw(syllables)}


def _read_word(parse, doc, base):
    """The word's base and syllables, or the error the reader raises."""
    try:
        w = parse(doc, base)
    except Exception as exc:  # every refusal, whatever its type, must agree
        return type(exc).__name__, str(exc)
    return w.base, w.syllables


@settings(max_examples=400, deadline=None)
@given(doc=word_docs(), base=st.sampled_from([None, FreeGroup(2), FreeAbelianGroup(2)]))
def test_word_documents_read_as_the_twice_validating_reader(doc, base):
    # parse_word joins the elements that the base group's parse validated, without
    # validating them again
    want = _read_word(word_oracle.parse_word, doc, base)
    assert _read_word(parse_word, doc, base) == want


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_written_words_read_as_the_twice_validating_reader(seed):
    rng = make_rng(seed)
    w = random_unit_sum_word(rng, max_minus=rng.randint(0, 8))
    doc = json.loads(dumps(word_to_json(w)))
    got = parse_word(doc)
    assert got == word_oracle.parse_word(doc) == w
    assert got.syllables == w.syllables


"""End-to-end runs of the command line front end."""

import json
from fractions import Fraction as F

import pytest

from spheremotion import jsonio
from spheremotion.cli import GOLDEN_NAMES, main
from spheremotion.comotion import Cocar, Comotion
from spheremotion.diagram import HowieDiagram
from spheremotion.goldens import doubled_polygon_map
from spheremotion.groups import FreeGroup, FreeProductWord, word
from spheremotion.rewriting import phi, rewrite_word

B2 = FreeGroup(2)


def run(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


def run_json(capsys, *args):
    code, out = run(capsys, *args)
    return code, json.loads(out)


@pytest.fixture
def goldens(tmp_path, capsys):
    code, report = run_json(capsys, "examples", "emit", "all", "--dir", str(tmp_path))
    assert code == 0
    assert len(report["written"]) == 7
    return tmp_path


def word_file(tmp_path, w, name="word.json"):
    path = tmp_path / name
    path.write_text(jsonio.dumps(jsonio.word_to_json(w)))
    return str(path)


# -- validate --------------------------------------------------------------------


def test_validate_pinwheel_census(goldens, capsys):
    code, report = run_json(capsys, "validate", str(goldens / "pinwheel.map.json"))
    assert code == 0
    assert report["census"] == {
        "surface": "sphere",
        "faces": 5,
        "edges": 9,
        "vertices": 6,
        "corners": 18,
        "darts": 18,
        "chi": 2,
    }
    assert report["inputs"][0]["sha256"]


def test_validate_torus(goldens, capsys):
    code, report = run_json(capsys, "validate", str(goldens / "torus.map.json"))
    assert code == 0
    assert report["census"]["chi"] == 0
    assert report["census"]["vertices"] == 1


def test_validate_corrupt_file_names_the_edge(tmp_path, capsys):
    bad = {"surface": "sphere", "faces": [[{"edge": 0, "dir": "+"}]] * 2}
    path = tmp_path / "bad.map.json"
    path.write_text(json.dumps(bad))
    code, report = run_json(capsys, "validate", str(path))
    assert code == 2
    assert "edge 0" in report["error"]


def test_validate_unreadable_file(tmp_path, capsys):
    code, report = run_json(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in report["error"]


def test_validate_faces_not_a_list(tmp_path, capsys):
    path = tmp_path / "bad.map.json"
    path.write_text(json.dumps({"surface": "sphere", "faces": 5}))
    code, report = run_json(capsys, "validate", str(path))
    assert code == 2
    assert "faces must be a list" in report["error"]


def test_validate_surface_not_a_string(goldens, tmp_path, capsys):
    doc = json.loads((goldens / "pinwheel.map.json").read_text())
    doc["surface"] = 7
    path = tmp_path / "bad.map.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "validate", str(path))
    assert code == 2
    assert "surface must be a string" in report["error"]


def test_text_format(goldens, capsys):
    code, out = run(
        capsys, "--format", "text", "validate", str(goldens / "pinwheel.map.json")
    )
    assert code == 0
    assert "  chi: 2" in out.splitlines()


# -- motion ----------------------------------------------------------------------


def test_motion_unit_three_loci(goldens, capsys):
    code, report = run_json(
        capsys,
        "motion",
        str(goldens / "pinwheel.map.json"),
        str(goldens / "unit-motion.motion.json"),
    )
    assert code == 0
    hits = report["results"]["collisions"]
    assert hits["spatial_count"] == 3
    assert [v["vertex"] for v in hits["vertices"]] == [
        [[0, 0]],
        [[2, 0], [3, 0], [4, 0]],
    ]
    assert hits["edges"] == [
        {"edge": 3, "lambda": "1/2", "spans": [["3/2", "3/2"]], "instants": ["3/2"]}
    ]
    assert report["checks"]["at_least_two_loci"] is True


def test_motion_retimed_two_loci(goldens, capsys):
    code, report = run_json(
        capsys,
        "motion",
        str(goldens / "pinwheel.map.json"),
        str(goldens / "retimed.motion.json"),
    )
    assert code == 0
    assert report["results"]["collisions"]["spatial_count"] == 2


def test_motion_double_car_bound_is_tight(goldens, capsys):
    code, report = run_json(
        capsys,
        "motion",
        str(goldens / "pinwheel.map.json"),
        str(goldens / "double-car.motion.json"),
    )
    assert code == 0
    results = report["results"]
    assert results["multiplicities"] == {"0": 1, "1": 2, "2": 1, "3": 1, "4": 1}
    assert results["locus_bound"] == {"chi": 2, "bound": 3, "loci": 3}
    assert report["checks"]["loci_meet_bound"] is True
    # same three spatial points as the unit motion
    hits = results["collisions"]
    assert [v["vertex"] for v in hits["vertices"]] == [
        [[0, 0]],
        [[2, 0], [3, 0], [4, 0]],
    ]
    assert [(e["edge"], e["lambda"]) for e in hits["edges"]] == [(3, "1/2")]


def test_motion_standard_banded(goldens, capsys):
    code, report = run_json(
        capsys,
        "motion",
        str(goldens / "banded.map.json"),
        "--standard",
        "Bm",
        "--m",
        "1",
    )
    assert code == 0
    results = report["results"]
    assert results["standard"] == {"family": "B", "m": 1}
    assert results["period"] == "6"
    assert results["multiplicities"] == {"0": 4, "1": 4}
    assert results["collisions"]["spatial_count"] == 8
    assert report["checks"]["sinks_even_sources_odd"] is True
    assert report["checks"]["separated_stops"] is True


def test_motion_standard_rejects_unknown_family(goldens, capsys):
    code, report = run_json(
        capsys, "motion", str(goldens / "pinwheel.map.json"), "--standard", "Q"
    )
    assert code == 2
    assert "unknown standard family" in report["error"]


def test_motion_needs_schedule(goldens, capsys):
    code, report = run_json(capsys, "motion", str(goldens / "pinwheel.map.json"))
    assert code == 2
    assert "motion file or --standard" in report["error"]


# -- comotion --------------------------------------------------------------------


@pytest.fixture
def beach_files(tmp_path):
    m = doubled_polygon_map((1, -1))
    com = Comotion(
        F(4),
        (
            Cocar(0, 1, ((F(0), F(0)), (F(1), F(1)))),
            Cocar(1, 1, ((F(0), F(1)), (F(1), F(2)))),
        ),
    )
    mp = tmp_path / "beach.map.json"
    cp = tmp_path / "beach.comotion.json"
    mp.write_text(jsonio.dumps(jsonio.map_to_json(m)))
    cp.write_text(jsonio.dumps(jsonio.comotion_to_json(m, com)))
    return str(mp), str(cp)


def test_comotion_report(beach_files, capsys):
    code, report = run_json(capsys, "comotion", *beach_files)
    assert code == 0
    results = report["results"]
    assert results["weights"]["total"] == 2
    assert results["degrees"] == [1, 1]
    assert results["collisions"]["spatial_count"] == 2
    assert results["collisions"]["edges"][0] == {
        "edge": 0,
        "lambda": "1/4",
        "time": "1/4",
    }
    assert report["checks"] == {
        "weight_total_equals_chi": True,
        "loci_cover_chi": True,
    }


# -- word ------------------------------------------------------------------------


def difficult_word():
    return word(
        B2, "a", ("t", 1, 1), "b", ("t", 1, -1), ("g", 0, (1, 2)), ("t", 1, 1)
    )


def test_word_classify_difficult(tmp_path, capsys):
    path = word_file(tmp_path, difficult_word())
    code, report = run_json(capsys, "word", path, "classify")
    assert code == 0
    results = report["results"]
    assert results["signs"] == "+-+"
    assert (results["s"], results["m"]) == (0, 0)
    assert results["difficult"] is True
    assert results["pattern_difficult"] is True
    assert results["conjugate_to_t_pm_g"] is False


def test_word_rewrite_roundtrip(tmp_path, capsys):
    path = word_file(tmp_path, difficult_word())
    code, report = run_json(capsys, "word", path, "rewrite")
    assert code == 0
    assert report["checks"]["roundtrip_conjugate"] is True
    assert report["results"]["presentation"]["s"] == 0
    assert report["results"]["presentation"]["m"] == 0
    assert report["results"]["minimality"]["a_outside_P"] is True


def test_word_rewrite_rejects_balanced_words(tmp_path, capsys):
    w = word(B2, "a", ("t", 1, 1), "b", ("t", 1, -1))
    path = word_file(tmp_path, w)
    code, report = run_json(capsys, "word", path, "rewrite")
    assert code == 2
    assert "exponent sum" in report["error"]


def test_word_criterion(tmp_path, capsys):
    tg = word(B2, ("t", 1, 1), "a")
    path = word_file(tmp_path, tg)
    code, report = run_json(capsys, "word", path, "criterion", "--assume-simple")
    assert code == 0
    assert report["results"]["verdict"]["simple"] is True
    code, report = run_json(capsys, "word", path, "criterion")
    assert report["results"]["verdict"]["simple"] is False
    assert report["results"]["verdict"]["failing"] == ["base group is not simple"]


# -- diagram ---------------------------------------------------------------------


def mirror_pentagon_doc():
    m = doubled_polygon_map((1, 1, -1, 1, -1))
    labels = {(0, j): FreeProductWord.g(B2, (1,) * (j + 1)) for j in range(5)}
    for v in m.vertices():
        (_, jf), (fb, jb) = sorted(v)
        labels[(fb, jb)] = labels[(0, jf)].inverse()
    d = HowieDiagram(m, labels, {e: 1 for e in m.edge_ids})
    return jsonio.diagram_to_json(d)


def test_diagram_reports_reducible_pair(tmp_path, capsys):
    path = tmp_path / "mirror.diagram.json"
    path.write_text(jsonio.dumps(mirror_pentagon_doc()))
    code, report = run_json(capsys, "diagram", str(path))
    assert code == 0
    assert report["results"]["reducible_pair"] == [0, 1, 0]
    assert report["results"]["phi_cells"] == []
    assert report["results"]["census"]["faces"] == 2


def test_diagram_over_presentation(tmp_path, capsys):
    # a two-lune necklace of phi cells, checked over an s = 1 presentation
    lunes = jsonio.parse_map(
        {
            "surface": "sphere",
            "faces": [
                [{"edge": 0, "dir": "-"}, {"edge": 1, "dir": "+"}],
                [{"edge": 1, "dir": "-"}, {"edge": 0, "dir": "+"}],
            ],
        }
    )
    pa, pb = FreeProductWord.g(B2, (1,)), FreeProductWord.g(B2, (2,))
    labels = {
        (0, 1): pa,
        (0, 0): phi(pa).inverse(),
        (1, 1): pb,
        (1, 0): phi(pb).inverse(),
    }
    d = HowieDiagram(
        lunes,
        labels,
        {0: 1, 1: 1},
        exterior_vertices=frozenset(lunes.vertices()),
        phi_s=1,
    )
    dpath = tmp_path / "chain.diagram.json"
    dpath.write_text(jsonio.dumps(jsonio.diagram_to_json(d)))

    res = rewrite_word(
        word(B2, "a", ("t", 1, 1), "b", ("t", 1, 1), "a", ("t", 1, 1),
             "b", ("t", 1, -1), "a", ("t", 1, -1))
    )
    assert res.data.s == 1
    ppath = tmp_path / "pres.json"
    ppath.write_text(jsonio.dumps(jsonio.presentation_to_json(res.data)))

    code, report = run_json(
        capsys, "diagram", str(dpath), "--presentation", str(ppath)
    )
    assert code == 0
    assert report["checks"]["over_presentation"] is True
    assert report["results"]["phi_cells"] == [0, 1]
    assert report["results"]["phi_reduced"] is False

    # the mirror pentagon reads no relator of that presentation
    mpath = tmp_path / "mirror.diagram.json"
    mpath.write_text(jsonio.dumps(mirror_pentagon_doc()))
    code, report = run_json(
        capsys, "diagram", str(mpath), "--presentation", str(ppath)
    )
    assert code == 1
    assert report["results"]["face_violations"] == [0, 1]


# -- examples --------------------------------------------------------------------


def test_examples_list(capsys):
    code, report = run_json(capsys, "examples", "list")
    assert code == 0
    assert report["available"] == list(GOLDEN_NAMES)


def test_goldens_roundtrip_byte_identical(goldens, capsys):
    maps = {}
    for name in ("pinwheel", "torus", "banded"):
        text = (goldens / f"{name}.map.json").read_text()
        maps[name] = jsonio.parse_map(json.loads(text))
        assert jsonio.dumps(jsonio.map_to_json(maps[name])) == text
    for name, owner in (
        ("unit-motion", "pinwheel"),
        ("retimed", "pinwheel"),
        ("double-car", "pinwheel"),
        ("banded", "banded"),
    ):
        text = (goldens / f"{name}.motion.json").read_text()
        ms = jsonio.parse_motion(json.loads(text), maps[owner])
        assert jsonio.dumps(jsonio.motion_to_json(maps[owner], ms)) == text


# -- fuzz ------------------------------------------------------------------------


@pytest.mark.parametrize("suite", ["weights", "collisions", "rewriting", "diagrams"])
def test_fuzz_suites_pass(suite, capsys):
    code, report = run_json(
        capsys, "fuzz", "--suite", suite, "--cases", "5", "--seed", "0"
    )
    assert code == 0
    assert report["violations"] == []
    assert report["cases"] == 5


def test_fuzz_is_reproducible(capsys):
    args = ("fuzz", "--suite", "rewriting", "--cases", "20", "--seed", "11")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    _, other = run(capsys, "fuzz", "--suite", "rewriting", "--cases", "20",
                   "--seed", "12")
    assert other != first


def test_fuzz_env_seed_override(capsys, monkeypatch):
    _, plain = run(capsys, "fuzz", "--suite", "weights", "--cases", "3",
                   "--seed", "11")
    monkeypatch.setenv("SPHEREMOTION_SEED", "11")
    _, overridden = run(capsys, "fuzz", "--suite", "weights", "--cases", "3",
                        "--seed", "999")
    assert json.loads(overridden)["seed"] == 11
    assert overridden == plain


def test_fuzz_rejects_zero_cases(capsys):
    code, report = run_json(capsys, "fuzz", "--suite", "weights", "--cases", "0")
    assert code == 2
    assert "at least one" in report["error"]

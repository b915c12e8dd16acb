"""End-to-end runs of the command line front end."""

import inspect
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import spheremotion
from spheremotion import cli, comotion, diagram, fuzzing, groups, jsonio, motion, rewriting
from spheremotion.cli import GOLDEN_NAMES, main
from spheremotion.comotion import Cocar, Comotion
from spheremotion.diagram import HowieDiagram
from spheremotion.fuzzing import (
    lune_map,
    make_rng,
    random_comotion,
    random_multiple_motion,
    random_sphere_map,
)
from spheremotion.goldens import doubled_polygon_map
from spheremotion.groups import FreeAbelianGroup, FreeGroup, FreeProductWord
from spheremotion.motion import CollisionReport
from spheremotion.rewriting import phi, rewrite_word
from spheremotion.surface import OrientedMap
from word_oracle import difficult_pattern_by_rotation, word

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


def set_at(doc, where, value):
    """doc with the entry at the key path `where` replaced by value."""
    inner = doc
    for key in where[:-1]:
        inner = inner[key]
    inner[where[-1]] = value
    return doc


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


def _count_analyses(monkeypatch, capsys, goldens, *args):
    """`spheremotion motion` on golden files, counting the schedule checks,
    horizons, car indexes and multiple-motion checks it makes."""
    counts = dict.fromkeys(("_check", "collision_horizon", "car_index", "as_multiple_motion"), 0)

    def count(name):
        real = getattr(motion, name)

        def counting(*a):
            counts[name] += 1
            return real(*a)
        monkeypatch.setattr(motion, name, counting)

    for name in counts:
        count(name)
    code, report = run_json(
        capsys, "motion", *(str(goldens / a) if a.endswith(".json") else a for a in args)
    )
    assert code == 0
    return counts, report["results"]


def test_motion_analyses_the_schedule_once(goldens, monkeypatch, capsys):
    # one check, one horizon and one index per car, kept in the schedule's
    # record on the map and read by every audit; one multiple-motion check
    counts, results = _count_analyses(
        monkeypatch, capsys, goldens, "banded.map.json", "--standard", "Bm", "--m", "1"
    )
    assert results["multiplicities"] == {"0": 4, "1": 4} and results["cars"] == 8
    assert counts == {"_check": 1, "collision_horizon": 1, "car_index": 8,
                      "as_multiple_motion": 1}


def test_motion_file_analyses_the_schedule_once(goldens, monkeypatch, capsys):
    # the document reader makes the record that the audits read
    counts, results = _count_analyses(
        monkeypatch, capsys, goldens, "pinwheel.map.json", "double-car.motion.json"
    )
    assert results["multiplicities"] and results["cars"] == 6
    assert counts == {"_check": 1, "collision_horizon": 1, "car_index": 6,
                      "as_multiple_motion": 1}


MOTION_GOLDENS = [
    ("pinwheel.map.json", "retimed.motion.json"),
    ("banded.map.json", "banded.motion.json"),
    ("banded.map.json", "--standard", "B", "--m", "1"),
]


@pytest.mark.parametrize("args", MOTION_GOLDENS)
def test_motion_builds_no_fraction_breakpoints(goldens, monkeypatch, capsys, args):
    # cars are read or built in ints and audited from their int lap tables:
    # no car has its Fraction breakpoints built, and the package has no
    # builder of a lap table from Fraction breakpoints; a car caches its
    # lap tables, under face lengths, and nothing else
    schedules = []
    indexes = motion._indexes_by_face
    monkeypatch.setattr(motion, "_indexes_by_face",
                        lambda m, ms: schedules.append(ms) or indexes(m, ms))
    code, _ = run_json(
        capsys, "motion", *(str(goldens / a) if a.endswith(".json") else a for a in args)
    )
    assert code == 0 and schedules
    cars = [car for ms in schedules for car in ms.cars]
    assert [c for c in cars if "breakpoints" in vars(c)] == []
    assert all(c._tables and all(type(k) is int for k in c._tables) for c in cars)
    assert not hasattr(motion, "int_lap")


@pytest.mark.parametrize("args", MOTION_GOLDENS)
def test_successor_check_builds_no_fraction(goldens, monkeypatch, capsys, args):
    # the successor check compares periods, positions and offsets in ints
    built, verdicts = [], []
    real, fraction = motion.as_multiple_motion, motion.Fraction

    def watched(m, ms):
        with monkeypatch.context() as patch:
            patch.setattr(motion, "Fraction", lambda *a: built.append(a) or fraction(*a))
            try:
                groups = real(m, ms)
            except motion.MotionError as e:
                verdicts.append(str(e))
                raise
        verdicts.append({f: len(cars) for f, cars in groups.items()})
        return groups

    monkeypatch.setattr(motion, "as_multiple_motion", watched)
    code, _ = run_json(
        capsys, "motion", *(str(goldens / a) if a.endswith(".json") else a for a in args)
    )
    assert code == 0 and verdicts and built == []


@pytest.mark.parametrize("args", [("pinwheel.map.json", "--standard", "A"),
                                  ("torus.map.json", "--standard", "A", "--m", "1")])
def test_successor_check_reads_no_lap_of_a_lone_car(goldens, monkeypatch, capsys, args):
    # every face of a standard A schedule has one car, whose offset over T
    # is its climb: the check passes with no `_offset` call
    calls = []
    real = motion._offset
    monkeypatch.setattr(motion, "_offset", lambda *a: calls.append(a) or real(*a))
    code, report = run_json(
        capsys, "motion", *(str(goldens / a) if a.endswith(".json") else a for a in args)
    )
    assert code == 0 and set(report["results"]["multiplicities"].values()) == {1}
    assert calls == []


def fractions_built_for_the_report(monkeypatch, capsys, argv):
    """(built, report, meetings): the argument tuples of every Fraction built
    inside the collision search, the source-sink audit and the writer of
    `spheremotion motion`, the report, and the number of edge meetings the
    search found.  The schedule's checks, `validate_motion`, which build
    the horizon once per schedule, are not counted.  The program's own
    functions run, not the wrappers of the session oracles in conftest.py:
    those build Fractions of their own."""
    for owner, name in ((motion, "_indexes_by_face"), (motion._IntLap, "_lap_table")):
        monkeypatch.setattr(owner, name, inspect.unwrap(getattr(owner, name)))
    Report = motion.CollisionReport
    monkeypatch.setattr(Report, "_from_ints",
                        classmethod(inspect.unwrap(Report.__dict__["_from_ints"].__func__)))
    built, depth, outs = [], [0], []
    new = F.__dict__["__new__"].__func__

    def counting(cls, *args, **kwargs):
        if depth[0] > 0:
            built.append(args)
        return new(cls, *args, **kwargs)

    def watched(f, step):
        def call(*args, **kwargs):
            depth[0] += step
            try:
                return f(*args, **kwargs)
            finally:
                depth[0] -= step
        return call

    for name in ("complete_collisions", "verify_source_sink_collisions", "_collisions_json"):
        monkeypatch.setattr(cli, name, watched(getattr(cli, name), 1))
    monkeypatch.setattr(motion, "validate_motion", watched(motion.validate_motion, -1))
    meet = motion._window_meetings
    monkeypatch.setattr(motion, "_window_meetings",
                        lambda *a: outs.append(a[-1]) or meet(*a))
    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    code, report = run_json(capsys, "motion", *argv)
    assert code in (0, 1)
    return built, report, sum(len(items) for items in outs[0].values()) if outs else 0


@pytest.mark.parametrize("args", MOTION_GOLDENS)
def test_collision_report_builds_no_fraction(goldens, monkeypatch, capsys, args):
    # the loci stay ints from the search to the writer, which formats them
    argv = [str(goldens / a) if a.endswith(".json") else a for a in args]
    built, report, _ = fractions_built_for_the_report(monkeypatch, capsys, argv)
    assert report["results"]["collisions"]["vertices"] and built == []


def test_collision_report_builds_one_fraction_per_edge_locus(goldens, tmp_path, monkeypatch,
                                                             capsys):
    # an edge locus's dart parameter, its key, is the one Fraction built,
    # once however many meetings the locus holds: 12 on 6 loci here
    rng = make_rng(8)
    m = random_sphere_map(rng)
    ms = random_multiple_motion(m, rng)
    (tmp_path / "m.json").write_text(jsonio.dumps(jsonio.map_to_json(m)))
    (tmp_path / "ms.json").write_text(jsonio.dumps(jsonio.motion_to_json(m, ms)))
    runs = [(goldens / "pinwheel.map.json", goldens / f"{name}.motion.json")
            for name in ("unit-motion", "double-car")]
    for paths in [*runs, (tmp_path / "m.json", tmp_path / "ms.json")]:
        with monkeypatch.context() as patch:
            built, report, meetings = fractions_built_for_the_report(
                patch, capsys, [str(p) for p in paths])
        lams = [F(e["lambda"]) for e in report["results"]["collisions"]["edges"]]
        assert lams and len(built) <= len(lams) and {F(*a) for a in built} <= set(lams)
    assert (len(lams), meetings) == (6, 12)


@pytest.mark.parametrize("mval", ["-1", "-3"])
def test_motion_standard_refuses_a_negative_m(goldens, capsys, mval):
    code, report = run_json(
        capsys, "motion", str(goldens / "banded.map.json"), "--standard", "B", "--m", mval
    )
    assert code == 2
    assert report["error"] == f"m must be a nonnegative integer, got {mval}"


def test_motion_standard_rejects_unknown_family(goldens, capsys):
    code, report = run_json(
        capsys, "motion", str(goldens / "pinwheel.map.json"), "--standard", "Q"
    )
    assert code == 2
    assert "unknown standard family" in report["error"]


@pytest.mark.parametrize("mval, override", [(2, "1"), (1, "0")])
def test_motion_standard_rejects_an_m_that_misfits_the_faces(tmp_path, capsys, mval, override):
    # the override's face pattern is shorter than the doubled polygon's faces
    path = tmp_path / "doubled.map.json"
    m = fuzzing.doubled_polygon(fuzzing.b_profile(mval))
    path.write_text(jsonio.dumps(jsonio.map_to_json(m)))
    code, report = run_json(capsys, "motion", str(path), "--standard", "A", "--m", override)
    assert code == 2
    assert "does not match pattern" in report["error"]


def test_motion_standard_refuses_faces_that_disagree_on_m(tmp_path, capsys):
    # a d-face, a b-face with m = 0 and a c-face with m = 1, on the sphere
    m = OrientedMap("sphere", (((0, 1), (1, 1), (2, -1), (5, -1)), ((3, 1), (4, -1), (5, 1)),
                               ((4, 1), (3, -1), (2, 1), (1, -1), (0, -1))))
    path = tmp_path / "mixed.map.json"
    path.write_text(jsonio.dumps(jsonio.map_to_json(m)))
    code, report = run_json(capsys, "motion", str(path), "--standard", "A")
    assert code == 2
    assert report["error"] == "faces disagree on m: [0, 1]"


def test_motion_needs_schedule(goldens, capsys):
    code, report = run_json(capsys, "motion", str(goldens / "pinwheel.map.json"))
    assert code == 2
    assert "motion file or --standard" in report["error"]


def test_motion_refuses_a_file_and_standard_together(goldens, capsys):
    code, report = run_json(capsys, "motion", str(goldens / "pinwheel.map.json"),
                            str(goldens / "unit-motion.motion.json"), "--standard", "A")
    assert code == 2
    assert report["error"] == "give a motion file or --standard, not both"


def test_motion_m_needs_standard(goldens, capsys):
    # --m sets the standard schedule's parameter; a motion file has none
    code, report = run_json(capsys, "motion", str(goldens / "pinwheel.map.json"),
                            str(goldens / "unit-motion.motion.json"), "--m", "3")
    assert code == 2
    assert "--m needs --standard" in report["error"]


def test_motion_cars_not_a_list(goldens, tmp_path, capsys):
    doc = json.loads((goldens / "unit-motion.motion.json").read_text())
    doc["cars"] = 5
    path = tmp_path / "bad.motion.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "motion", str(goldens / "pinwheel.map.json"), str(path))
    assert code == 2
    assert "cars must be a list of objects" in report["error"]


def test_motion_refuses_a_schedule_without_cars(goldens, tmp_path, capsys):
    doc = json.loads((goldens / "unit-motion.motion.json").read_text())
    doc["cars"] = []
    path = tmp_path / "bad.motion.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "motion", str(goldens / "pinwheel.map.json"), str(path))
    assert code == 2
    assert report["error"] == "schedule needs at least one car"


def test_motion_with_a_face_without_cars_reports_no_bound(goldens, tmp_path, capsys):
    # not a multiple motion: `as_multiple_motion` refuses it, and the report
    # leaves the multiplicity bound out instead of exiting 2
    doc = json.loads((goldens / "double-car.motion.json").read_text())
    doc["cars"] = [car for car in doc["cars"] if car["face"] != 0]
    path = tmp_path / "partial.motion.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "motion", str(goldens / "pinwheel.map.json"), str(path))
    assert code == 0
    assert "locus_bound" not in report["results"] and "loci_meet_bound" not in report["checks"]


@pytest.mark.parametrize("period", ["0", "-3"])
def test_motion_refuses_a_nonpositive_period(goldens, tmp_path, capsys, period):
    doc = json.loads((goldens / "unit-motion.motion.json").read_text())
    doc["period"] = period
    path = tmp_path / "bad.motion.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "motion", str(goldens / "pinwheel.map.json"), str(path))
    assert code == 2
    assert "period must be positive" in report["error"]


@pytest.mark.parametrize("stops", [5, [5], [[0]], [[0, "1"]], [[True, 0]]])
def test_motion_stop_corners_not_int_pairs(goldens, tmp_path, capsys, stops):
    doc = json.loads((goldens / "unit-motion.motion.json").read_text())
    doc["stop_corners"] = stops
    path = tmp_path / "bad.motion.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "motion", str(goldens / "pinwheel.map.json"), str(path))
    assert code == 2
    assert "stop_corners must be a list of [face, index] int pairs" in report["error"]


# -- comotion --------------------------------------------------------------------


def pinwheel_comotion_doc(goldens):
    m = jsonio.parse_map(json.loads((goldens / "pinwheel.map.json").read_text()))
    return jsonio.comotion_to_json(m, random_comotion(m, make_rng(0)))


def run_bad_comotion(goldens, tmp_path, capsys, doc):
    path = tmp_path / "bad.comotion.json"
    path.write_text(json.dumps(doc))
    return run_json(capsys, "comotion", str(goldens / "pinwheel.map.json"), str(path))


def test_comotion_cocars_not_a_list(goldens, tmp_path, capsys):
    doc = pinwheel_comotion_doc(goldens)
    doc["cocars"] = 5
    code, report = run_bad_comotion(goldens, tmp_path, capsys, doc)
    assert code == 2
    assert "cocars must be a list of objects" in report["error"]


def test_comotion_empty_breakpoints(goldens, tmp_path, capsys):
    doc = pinwheel_comotion_doc(goldens)
    doc["cocars"][0]["breakpoints"] = []
    code, report = run_bad_comotion(goldens, tmp_path, capsys, doc)
    assert code == 2
    assert "breakpoints must not be empty" in report["error"]


def test_comotion_degree_not_an_int(goldens, tmp_path, capsys):
    doc = pinwheel_comotion_doc(goldens)
    doc["cocars"][0]["degree"] = True
    code, report = run_bad_comotion(goldens, tmp_path, capsys, doc)
    assert code == 2
    assert "degree must be an int" in report["error"]


def test_comotion_refuses_a_full_period_sweep_before_solving_edges(
    goldens, tmp_path, capsys, monkeypatch
):
    # a huge degree makes the edge solve sweep ~10^5 laps; the span check
    # must refuse the document first
    solved = []
    monkeypatch.setattr(comotion, "solve_edges", lambda *a: solved.append(a))
    doc = pinwheel_comotion_doc(goldens)
    doc["cocars"][0]["degree"] += 10**5
    code, report = run_bad_comotion(goldens, tmp_path, capsys, doc)
    assert (code, report["error"]) == (
        2, "dart 2 of face 0 sweeps a full period; subdivide first"
    )
    assert solved == []


def test_comotion_checks_and_solves_once(goldens, tmp_path, capsys, monkeypatch):
    # the parse validates and records the corner ticks and residues; the
    # weight report span-checks and solves the edges, and the collisions
    # reuse all of it
    path = tmp_path / "pinwheel.comotion.json"
    path.write_text(json.dumps(pinwheel_comotion_doc(goldens)))
    calls = {name: [] for name in ("_check", "corner_ticks", "_residues", "span_check")}
    solved = []
    for name, seen in calls.items():
        real = getattr(comotion, name)
        monkeypatch.setattr(
            comotion, name, lambda *a, real=real, seen=seen: seen.append(a) or real(*a)
        )
    real_solve = comotion.edge_components
    monkeypatch.setattr(
        comotion, "edge_components", lambda m, com, e: solved.append(e) or real_solve(m, com, e)
    )
    code, report = run_json(capsys, "comotion", str(goldens / "pinwheel.map.json"), str(path))
    assert code == 0 and report["results"]["weights"]["total"] == 2
    assert {name: len(seen) for name, seen in calls.items()} == dict.fromkeys(calls, 1)
    # every edge once
    assert sorted(solved) == sorted(map(int, report["results"]["weights"]["edges"])) != []


@pytest.mark.parametrize(
    "doc_name, where, message",
    [
        ("torus.map.json", ("faces", 0, 1, "edge"), "bad dart on edge True: dir '+'"),
        ("unit-motion.motion.json", ("cars", 0, "face"), "no such face: True"),
        ("unit-motion.motion.json", ("cars", 0, "breakpoints", 1, "at", "corner"),
         "corner index True outside 0..2"),
        ("unit-motion.motion.json", ("cars", 0, "breakpoints", 1, "at"),
         "dart index True outside 0..2"),
        ("word", ("base", "rank"), "rank must be an int, got True"),
        ("unit-motion.motion.json", ("cars", 0, "breakpoints", 1, "t"),
         "rational must be a 'p/q' string, got True"),
        ("abelian word", ("syllables", 0, "elem", 0),
         "abelian element entries must be ints: (True, 0)"),
    ],
    ids=["edge", "face", "corner", "dart", "rank", "rational", "abelian"],
)
def test_json_booleans_are_not_ints(goldens, tmp_path, capsys, doc_name, where, message):
    if doc_name == "word":
        doc = jsonio.word_to_json(difficult_word())
    elif doc_name == "abelian word":
        z2 = FreeAbelianGroup(2)
        doc = jsonio.word_to_json(word(z2, ("g", 0, (1, 0)), ("t", 1, 1)))
    else:
        doc = json.loads((goldens / doc_name).read_text())
    value = {"dart": True, "lambda": "1/2"} if where[-1] == "at" else True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(set_at(doc, where, value)))
    if doc_name.endswith("word"):
        argv = ["word", str(path), "classify"]
    elif doc_name.endswith(".map.json"):
        argv = ["validate", str(path)]
    else:
        argv = ["motion", str(goldens / "pinwheel.map.json"), str(path)]
    code, report = run_json(capsys, *argv)
    assert (code, report.get("error")) == (2, message)


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


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("syllables",), 5, "syllables must be a list of objects"),
        (("syllables",), [5], "syllables must be a list of objects"),
        (("syllables", 1, "exp"), True, "exp must be an int"),
        (("syllables", 1, "t"), True, "t must be an int"),
        (("syllables", 0, "copy"), True, "copy must be an int"),
        (("syllables", 0, "copy"), 1, "input word must use base copy 0 only"),
        (("syllables", 1, "t"), 2, "input word must use t_1 only"),
    ],
    ids=["syllables", "syllable", "exp", "t", "copy", "copy_above_0", "second_t"],
)
def test_word_rejects_malformed_syllables(tmp_path, capsys, where, value, message):
    doc = set_at(jsonio.word_to_json(difficult_word()), where, value)
    path = tmp_path / "bad.word.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "word", str(path), "classify")
    assert code == 2
    assert message in report["error"]


def test_word_refuses_bad_syllables_that_cancel(tmp_path, capsys):
    # the copy -1 and t_0 syllables cancel in pairs; each is refused anyway
    syllables = [
        {"copy": -1, "elem": "a"}, {"copy": -1, "elem": "A"}, {"copy": 0, "elem": "a"},
        {"t": 1, "exp": 1}, {"t": 0, "exp": 2}, {"t": 0, "exp": -2},
    ]
    doc = {"base": {"kind": "free", "rank": 2}, "syllables": syllables}
    path = tmp_path / "bad.word.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "word", str(path), "classify")
    assert (code, report["error"]) == (2, "bad factor index in ('g', -1, (1,))")


def test_word_counts_t_letters_without_expanding_them(tmp_path, capsys):
    # a ~70-byte document whose one t-run holds 10**12 unit letters: the
    # count is the sum of |exp|, so neither action allocates by the exponent
    doc = {"base": {"kind": "free", "rank": 2}, "syllables": [{"t": 1, "exp": 10**12}]}
    path = tmp_path / "long-t.word.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, report = run_json(capsys, "word", str(path), "classify")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert report["results"]["t_letters"] == 10**12
    assert report["results"]["conjugate_to_t_pm_g"] is False
    start = time.perf_counter()
    code, report = run_json(capsys, "word", str(path), "rewrite")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["error"] == f"t-exponent sum must be +-1, got {10**12}"


@pytest.mark.parametrize("n", [10**3, 10**5])
def test_word_classify_reads_a_long_sign_pattern_in_one_pass(tmp_path, capsys, n):
    # a t^n b t^-(n-1) has 2n - 1 signs, so a pattern test quadratic in
    # them takes minutes at n = 10**5
    doc = {"base": {"kind": "free", "rank": 2}, "syllables": [
        {"copy": 0, "elem": "a"}, {"t": 1, "exp": n},
        {"copy": 0, "elem": "b"}, {"t": 1, "exp": -(n - 1)},
    ]}
    path = tmp_path / "long-runs.word.json"
    path.write_text(json.dumps(doc))
    # a line tracer, as in tests/tools/unreached.py, runs about 3x slower
    limit = 2 if sys.gettrace() is None else 10
    start = time.perf_counter()
    code, report = run_json(capsys, "word", str(path), "classify")
    assert time.perf_counter() - start < limit
    assert code == 0
    signs = report["results"]["signs"]
    assert (len(signs), signs.count("+")) == (2 * n - 1, n)
    # the rotation test as one substring search of the doubled signs
    want = "+" + "-+" * (n - 1) in signs + signs
    assert want is False
    assert report["results"]["pattern_difficult"] is want
    if n <= 10**3:
        as_ints = tuple(1 if c == "+" else -1 for c in signs)
        assert difficult_pattern_by_rotation(as_ints) is want


def test_word_refuses_more_t_letters_than_a_rewrite_expands(tmp_path, capsys):
    # a t^n b t^-(n-1) at n = 10**9 has exponent sum 1, so both actions would
    # rewrite it, expanding 2 * 10**9 - 1 unit letters; they refuse it from
    # the count instead, and the criterion, which does not rewrite, reads it
    n = 10**9
    doc = {"base": {"kind": "free", "rank": 2}, "syllables": [
        {"copy": 0, "elem": "a"}, {"t": 1, "exp": n},
        {"copy": 0, "elem": "b"}, {"t": 1, "exp": -(n - 1)},
    ]}
    path = tmp_path / "huge-runs.word.json"
    path.write_text(json.dumps(doc))
    cap = rewriting.MAX_T_LETTERS
    assert 2 * 10**5 - 1 < cap < 10**6  # the long sign-pattern test stays under it
    for action in ("rewrite", "classify"):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, report = run_json(capsys, "word", str(path), action)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, report["error"]) == (
            2, f"word has {2 * n - 1} t-letters; a rewrite expands at most {cap}")
        assert seconds < 1 and peak < 2**20
    code, report = run_json(capsys, "word", str(path), "criterion")
    assert code == 0 and report["results"]["t_letters"] == 2 * n - 1


def test_word_refuses_an_abelian_rank_above_its_maximum_before_building_it(tmp_path, capsys):
    # a rank-10**7 identity would be a tuple of ten million zeros
    doc = {"base": {"kind": "abelian", "rank": 10**7}, "syllables": [{"t": 1, "exp": 1}]}
    path = tmp_path / "wide.word.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, report = run_json(capsys, "word", str(path), "classify")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, report["error"]) == (2, f"abelian rank must be at most 26, got {10**7}")
    assert peak < 2**20


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


def phi_necklace_files(tmp_path):
    """A two-lune necklace of phi cells and an s = 1 presentation, as files."""
    lunes = lune_map(2)
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
    return dpath, ppath


def test_diagram_over_presentation(tmp_path, capsys):
    dpath, ppath = phi_necklace_files(tmp_path)
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


def test_diagram_over_presentation_tests_each_face_once(tmp_path, capsys, monkeypatch):
    # the report's phi cells and the diagram-over check share one search
    dpath, ppath = phi_necklace_files(tmp_path)
    tested = []
    is_phi_cell = diagram.is_phi_cell
    monkeypatch.setattr(
        diagram, "is_phi_cell", lambda d, f: tested.append(f) or is_phi_cell(d, f)
    )
    code, report = run_json(
        capsys, "diagram", str(dpath), "--presentation", str(ppath)
    )
    assert code == 0 and report["checks"]["over_presentation"] is True
    assert report["results"]["phi_cells"] == [0, 1]
    assert tested == [0, 1]


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("corner_labels",), 5, "corner_labels must be an object"),
        (("edge_labels",), 5, "edge_labels must be an object"),
        (("arrows", "0"), 5, "arrow on edge 0 does not match the map"),
        (("edge_labels", "x"), "t_1", "edge_labels key must be an int, got 'x'"),
        (("edge_labels", "0"), "t_z",
         "the j of edge_labels['0'] = 't_z' must be an int, got 'z'"),
        (("arrows", "y"), [0, 0], "arrows key must be an int, got 'y'"),
        (("phi",), 5, "phi must be an object"),
        (("phi",), {"s": "1"}, "phi s must be an int"),
        (("grading",), {"large_faces": 5}, "large_faces must be a list of ints"),
        (("exterior_faces",), 5, "exterior_faces must be a list of ints"),
        (("exterior_vertices",), [5], "exterior_vertices must be a list"),
        (("exterior_vertices",), [[5]], "corner key must be a 'face,index' string"),
    ],
    ids=["corner_labels", "edge_labels", "arrows", "edge_key", "edge_symbol", "arrow_key",
         "phi", "phi_s", "large_faces", "exterior_faces", "exterior_vertices",
         "exterior_corner"],
)
def test_diagram_rejects_malformed_fields(tmp_path, capsys, where, value, message):
    path = tmp_path / "bad.diagram.json"
    path.write_text(json.dumps(set_at(mirror_pentagon_doc(), where, value)))
    code, report = run_json(capsys, "diagram", str(path))
    assert code == 2
    assert message in report["error"]


FREE2_A = {"base": {"kind": "free", "rank": 2}, "syllables": [{"copy": 0, "elem": "a"}]}


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("b",), 5, "b must be a list of objects"),
        (("extra_relators",), 5, "extra_relators must be a list of objects"),
        (("s",), "0", "s must be an int"),
        (("m",), None, "m must be an int"),
        (("s",), -1, "bad (s, m) = (-1, 0)"),
        (("m",), 1, "a and b lists must have length m + 1"),
        (("c", "syllables"), [{"t": 1, "exp": 1}], "coefficients must lie in H (no t letters)"),
        (("c", "syllables"), [{"copy": 1, "elem": "a"}], "coefficient uses a copy above s = 0"),
        (("extra_relators",), [FREE2_A], "relators must involve t"),
        (("extra_relators",),
         [dict(FREE2_A, syllables=[{"t": 1, "exp": 1}, {"copy": 1, "elem": "a"}])],
         "relator uses a copy above s"),
    ],
    ids=["b", "extra_relators", "s", "m", "negative_s", "m_misfits_lists", "c_has_t",
         "c_copy_above_s", "extra_without_t", "extra_copy_above_s"],
)
def test_diagram_rejects_malformed_presentations(tmp_path, capsys, where, value, message):
    dpath = tmp_path / "mirror.diagram.json"
    dpath.write_text(jsonio.dumps(mirror_pentagon_doc()))
    pres = jsonio.presentation_to_json(rewrite_word(difficult_word()).data)
    ppath = tmp_path / "bad.pres.json"
    ppath.write_text(json.dumps(set_at(pres, where, value)))
    code, report = run_json(capsys, "diagram", str(dpath), "--presentation", str(ppath))
    assert code == 2
    assert message in report["error"]


@pytest.mark.parametrize(
    "table, key, respelled, message",
    [
        ("corner_labels", "0,0", " 0,0",
         "corner_labels keys '0,0' and ' 0,0' both name corner (0, 0)"),
        ("edge_labels", "0", "00", "edge_labels keys '0' and '00' both name edge 0"),
    ],
    ids=["corner_labels", "edge_labels"],
)
def test_diagram_refuses_two_spellings_of_one_key(tmp_path, capsys, table, key, respelled,
                                                  message):
    # the second spelling carries another label, which would silently win
    doc = mirror_pentagon_doc()
    other = {"corner_labels": doc["corner_labels"]["0,1"], "edge_labels": "t_2"}[table]
    doc[table][respelled] = other
    path = tmp_path / "twice.diagram.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "diagram", str(path))
    assert (code, report["error"]) == (2, message)


def _count_validations_outside_readers(monkeypatch):
    """Count the base-element validations made outside `jsonio`'s word,
    diagram and presentation readers, with the session's word oracle, which
    validates every word it sees again, taken out."""
    monkeypatch.setattr(groups, "_from_checked", inspect.unwrap(groups._from_checked))
    counts = Counter()
    reading = []
    for cls in (FreeGroup, FreeAbelianGroup):
        def counted(self, x, validate=cls.validate):
            if not reading:
                counts[self.kind] += 1
            return validate(self, x)
        monkeypatch.setattr(cls, "validate", counted)
    for name in ("parse_word", "parse_diagram", "parse_presentation"):
        def read(*args, parse=getattr(jsonio, name)):
            reading.append(parse)
            try:
                return parse(*args)
            finally:
                reading.pop()
        monkeypatch.setattr(jsonio, name, read)
    return counts


def test_words_and_diagrams_validate_no_element_after_parsing(tmp_path, capsys, monkeypatch):
    # elements are validated where they enter; joins, rewriting moves and
    # label products of checked words never validate them again
    dpath, ppath = phi_necklace_files(tmp_path)
    mpath = tmp_path / "mirror.diagram.json"
    mpath.write_text(jsonio.dumps(mirror_pentagon_doc()))
    rng = make_rng(5)
    words = [difficult_word()] + [
        fuzzing.random_unit_sum_word(rng, base, max_minus=8)
        for base in (B2, FreeGroup(3), FreeAbelianGroup(1), FreeAbelianGroup(2))
        for _ in range(5)
    ]
    counts = _count_validations_outside_readers(monkeypatch)
    for k, w in enumerate(words):
        path = word_file(tmp_path, w, f"word-{k}.json")
        for action in ("classify", "rewrite"):
            assert run_json(capsys, "word", path, action)[0] == 0
    for diagram_path in (dpath, mpath):
        code, _ = run_json(capsys, "diagram", str(diagram_path), "--presentation", str(ppath))
        assert code in (0, 1)
    assert counts == {}
    FreeProductWord.g(FreeAbelianGroup(2), (1, 0))  # the counter sees the full check
    assert counts == {"abelian": 1}


# -- deeply nested documents ------------------------------------------------------

LOADING = ("validate", "motion", "comotion", "word", "diagram")


def loading_command(goldens, command):
    """A document the command reads, and the argv that runs it on a file."""
    pinwheel = str(goldens / "pinwheel.map.json")
    return {
        "validate": (json.loads(Path(pinwheel).read_text()), lambda f: ["validate", f]),
        "motion": (json.loads((goldens / "unit-motion.motion.json").read_text()),
                   lambda f: ["motion", pinwheel, f]),
        "comotion": (pinwheel_comotion_doc(goldens), lambda f: ["comotion", pinwheel, f]),
        "word": (jsonio.word_to_json(difficult_word()), lambda f: ["word", f, "classify"]),
        "diagram": (mirror_pentagon_doc(), lambda f: ["diagram", f]),
    }[command]


def nested_list(depth):
    doc = []
    for _ in range(depth):
        doc = [doc]
    return doc


def each_replaced(doc, value, where=()):
    """Copies of doc with one entry replaced by value: the whole document,
    every value of an object and the first item of every list."""
    yield where, value
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc[:1]) if isinstance(doc, list) else ())
    for key, inner in items:
        for path, new in each_replaced(inner, value, where + (key,)):
            outer = dict(doc) if isinstance(doc, dict) else list(doc)
            outer[key] = new
            yield path, outer


@pytest.mark.parametrize("command", LOADING)
def test_deeply_nested_documents_exit_2(goldens, tmp_path, capsys, command):
    _, argv = loading_command(goldens, command)
    for name, text in (("list", "[" * 100_000 + "]" * 100_000),
                       ("object", '{"a":' * 3000 + "1" + "}" * 3000)):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, report = run_json(capsys, *argv(str(path)))
        assert code == 2
        assert report["error"].startswith(f"{path}: maximum recursion depth exceeded")


@pytest.mark.parametrize("command", LOADING)
def test_readers_refuse_a_nesting_the_json_loader_accepts(goldens, tmp_path, capsys, command):
    doc, argv = loading_command(goldens, command)
    path = tmp_path / "nested.json"
    for where, bad in each_replaced(doc, nested_list(900)):
        path.write_text(json.dumps(bad))
        json.loads(path.read_text())  # not too deep for the loader
        code, report = run_json(capsys, *argv(str(path)))
        assert code == 2 and report["error"], where


# -- examples --------------------------------------------------------------------


@pytest.mark.parametrize("blocked, message", [
    ("work", "cannot create"),  # a file where the directory should go
    ("work/pinwheel.map.json/x", "cannot write"),  # a directory where a golden should go
], ids=["create", "write"])
def test_examples_emit_refuses_a_blocked_path(tmp_path, capsys, blocked, message):
    (tmp_path / blocked).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / blocked).write_text("")
    code, report = run_json(capsys, "examples", "emit", "all", "--dir", str(tmp_path / "work"))
    assert code == 2
    assert report["error"].startswith(message)


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


def half_a_period_late(rep, m, ms):
    """A collision report with every locus met half a period later."""

    def late(loci):
        return {
            key: [(a + ms.period / 2, b + ms.period / 2) for a, b in spans]
            for key, spans in loci.items()
        }

    return CollisionReport(rep.horizon, late(rep.vertex_loci), late(rep.edge_loci))


# each suite with the function it checks broken: (name in fuzzing, spoiler of
# its result given the call's arguments, the problem every case must report)
BROKEN = {
    "weights": (
        "weight_report",
        lambda rep, m, com: dict(rep, total=rep["total"] + 1),
        "weight total",
    ),
    "collisions": ("complete_collisions", half_a_period_late, "instants differ"),
    "rewriting": (
        "reconstruct_relator",
        lambda rel, data: rel * FreeProductWord.t(data.base),
        "relator is not conjugate to the input",
    ),
    "diagrams": (
        "phi_reduce_move",
        lambda merged, d, edge: d,
        "merge did not drop one face",
    ),
}


@pytest.mark.parametrize("suite", sorted(BROKEN))
def test_fuzz_suite_reports_a_broken_check(suite, capsys, monkeypatch):
    name, spoil, problem = BROKEN[suite]
    real = getattr(fuzzing, name)
    monkeypatch.setattr(fuzzing, name, lambda *args: spoil(real(*args), *args))
    code, report = run_json(
        capsys, "fuzz", "--suite", suite, "--cases", "3", "--seed", "0"
    )
    assert code == 1
    assert report["ok"] is False
    hits = [v for v in report["violations"] if problem in v["problem"]]
    assert {v["case"] for v in hits} == {0, 1, 2}


def test_fuzz_collisions_checks_each_multiple_motion_once(capsys, monkeypatch):
    # the bridge groups the cars once for the degree check and the induced comotion
    calls = []
    real = motion.as_multiple_motion

    def counting(m, ms):
        calls.append(ms)
        return real(m, ms)

    for module in (motion, comotion, fuzzing):
        if hasattr(module, "as_multiple_motion"):
            monkeypatch.setattr(module, "as_multiple_motion", counting)
    code, report = run_json(
        capsys, "fuzz", "--suite", "collisions", "--cases", "5", "--seed", "3"
    )
    assert code == 0 and report["cases"] == 5
    assert len(calls) == 5


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
    monkeypatch.setenv("SPHEREMOTION_SEED", "abc")
    with pytest.raises(SystemExit) as info:
        main(["fuzz", "--suite", "weights", "--cases", "1"])
    assert info.value.code == 2
    assert "SPHEREMOTION_SEED must be an integer, got 'abc'" in capsys.readouterr().err


def test_fuzz_rejects_zero_cases(capsys):
    code, report = run_json(capsys, "fuzz", "--suite", "weights", "--cases", "0")
    assert code == 2
    assert "at least one" in report["error"]


def test_internal_invariant_failure_is_not_bad_input(tmp_path, capsys, monkeypatch):
    # a lowering move that changes nothing trips minimization's termination
    # guard: a bug of the program, so it must not exit 2 as bad input does
    monkeypatch.setattr(rewriting, "move_lower_s", lambda data: data)
    w = word(B2, "a", ("t", 1, 1), "b", ("t", 1, 1), "a", ("t", 1, 1),
             "b", ("t", 1, -1), "a", ("t", 1, -1))
    with pytest.raises(RuntimeError, match="minimization failed to terminate"):
        main(["word", word_file(tmp_path, w), "rewrite"])
    capsys.readouterr()


def test_a_builtin_value_error_is_a_bug_not_bad_input(tmp_path, capsys, monkeypatch):
    # exit 2 is for the package's input errors; any other exception propagates
    def broken(args):
        a, b = (1, 2, 3)

    monkeypatch.setattr(cli, "cmd_word", broken)
    with pytest.raises(ValueError, match="too many values to unpack"):
        main(["word", word_file(tmp_path, difficult_word()), "classify"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("raw, message", [
    (b'{"surface": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    (b"1" * 5000, "Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["bad_utf8", "too_many_digits"])
def test_a_document_json_refuses_is_bad_input(tmp_path, capsys, raw, message):
    path = tmp_path / "bad.map.json"
    path.write_bytes(raw)
    code, report = run_json(capsys, "validate", str(path))
    assert code == 2
    assert report["error"].startswith(f"{path}: ") and message in report["error"]


# -- one parser per process ------------------------------------------------------


def test_parser_is_built_once_per_process(goldens, tmp_path, capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    path = word_file(tmp_path, difficult_word())
    for argv in (
        ["validate", str(goldens / "pinwheel.map.json")],
        ["word", path, "classify"],
        ["--format", "text", "word", path, "rewrite"],
        ["examples", "list"],
        ["fuzz", "--suite", "rewriting", "--cases", "2"],
    ):
        assert main(argv) == 0
    capsys.readouterr()
    assert len(built) == 1


def run_alone(argv, env_seed=None):
    """stdout and exit code of one command in a fresh interpreter."""
    env = dict(os.environ)
    env.pop("SPHEREMOTION_SEED", None)
    if env_seed is not None:
        env["SPHEREMOTION_SEED"] = env_seed
    src = str(Path(spheremotion.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "spheremotion.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    return done.returncode, done.stdout


def test_calls_in_one_process_do_not_leak_state(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SPHEREMOTION_SEED", raising=False)
    path = word_file(tmp_path, difficult_word())
    bad = tmp_path / "bad.word.json"
    bad.write_text(json.dumps({"base": {"kind": "free", "rank": 0}}))
    jobs = (
        (["word", path, "rewrite", "--format", "text"], None),
        (["word", path, "rewrite"], None),
        (["fuzz", "--suite", "rewriting", "--cases", "3", "--seed", "1"], "7"),
        (["word", str(bad), "classify"], None),
    )
    in_process = []
    for argv, env_seed in jobs:
        if env_seed is None:
            monkeypatch.delenv("SPHEREMOTION_SEED", raising=False)
        else:
            monkeypatch.setenv("SPHEREMOTION_SEED", env_seed)
        in_process.append(run(capsys, *argv))
    assert [code for code, _ in in_process] == [0, 0, 0, 2]
    assert not in_process[0][1].startswith("{")
    assert json.loads(in_process[2][1])["seed"] == 7
    for (argv, env_seed), got in zip(jobs, in_process):
        assert got == run_alone(argv, env_seed)

"""Traced command jobs, as the benchmark's per-layer run executes them.

The tracer wraps the program's public functions from outside and hashes
the arguments of some of them, so an argument that cannot be hashed, or
a renamed entry point, fails here before it fails the benchmark.
"""

import json
import sys
from collections import Counter
from pathlib import Path

from spheremotion import cli, fuzzing, jsonio
from spheremotion.fuzzing import make_rng, random_comotion

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.tracing import Tracer  # noqa: E402


def test_traced_comotion_and_motion_jobs(tmp_path, capsys):
    assert cli.main(["examples", "emit", "all", "--dir", str(tmp_path)]) == 0
    pinwheel = tmp_path / "pinwheel.map.json"
    m = jsonio.parse_map(json.loads(pinwheel.read_text()))
    com = tmp_path / "small.comotion.json"
    com.write_text(jsonio.dumps(jsonio.comotion_to_json(m, random_comotion(m, make_rng(1)))))
    jobs = (
        ["comotion", str(pinwheel), str(com)],
        ["motion", str(pinwheel), str(tmp_path / "unit-motion.motion.json")],
        ["motion", str(pinwheel), str(tmp_path / "double-car.motion.json")],
    )
    tracer = Tracer()
    with tracer.installed():
        for job, argv in enumerate(jobs):
            tracer.begin(job)
            try:
                assert cli.main(argv) == 0
            finally:
                tracer.end()
    capsys.readouterr()
    calls, _ = tracer.self_times()
    assert calls["cli.cmd_comotion"] == 1 and calls["cli.cmd_motion"] == 2
    # each motion job checks the multiple motion once: the unit motion's
    # check fails, the double-car motion's passes
    checked = Counter(span[4] for span in tracer.spans if span[0] == "motion.multiplicities")
    assert checked == {1: 1, 2: 1}
    # the comotion command solves each edge once
    assert calls["comotion.edge_components"] == m.edge_count()
    assert tracer.distinct["comotion.edge_components"] == m.edge_count()


def test_traced_fuzz_jobs(capsys):
    suites = sorted(fuzzing.SUITES)
    tracer = Tracer()
    with tracer.installed():
        for job, suite in enumerate(suites):
            tracer.begin(job)
            try:
                argv = ["fuzz", "--suite", suite, "--cases", "2", "--seed", "3"]
                assert cli.main(argv) == 0
            finally:
                tracer.end()
    capsys.readouterr()
    calls, _ = tracer.self_times()
    assert calls["cli.cmd_fuzz"] == len(suites)
    # the suites draw their cases through the traced generators ...
    for name in ("sphere_map", "torus_map", "comotion", "multiple_motion",
                 "unit_sum_word", "base", "base_element"):
        assert calls[f"fuzzing.random_{name}"] > 0, name
    # ... and reach the checked functions through their traced names
    for name in ("comotion.weight_report", "motion.complete_collisions",
                 "comotion.induce_comotion", "rewriting.rewrite_word",
                 "diagram.phi_reduce_move", "diagram.audit_standard_collisions"):
        assert calls[name] > 0, name

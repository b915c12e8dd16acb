"""Every function in src/spheremotion is called when the program runs, or
is on the allowlist below with its reason.

`tests/tools/program_reach.py` runs a light plan of the program's paths in
a fresh interpreter, so that its profiler is on before the package is
first imported, and prints every function no run called.  The test fails
on a function it prints that the allowlist does not name, and on an
allowlist entry that the run called.  A function that fits none of the
reasons leaves `src/`.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "tools" / "program_reach.py"

TRACED = ("perfbench/tracing.py wraps it by name, or calls it hashing arguments to count"
          " distinct calls, until the tracer names only live code and counts by identity")
READ = "perfbench/jobs.canon reads it, until canon reads no schedule's dataclass fields"
PUBLIC = "public API a library user needs"
NO_PATH = "no program path yet: the lemma-17 region search has no subcommand"
COPIED = "perfbench/workloads.py copies it instead of importing it"

ALLOWED = {
    "comotion.Cocar.__repr__": PUBLIC,
    "comotion.Cocar.__reduce__": PUBLIC,
    "comotion.cotime_at": PUBLIC,
    "comotion.ComotionCollisions.vertex_loci": PUBLIC,
    "comotion.ComotionCollisions.edge_loci": PUBLIC,
    "diagram._walk": NO_PATH,
    "diagram._contact_region": NO_PATH,
    "diagram.bad_contact_report": NO_PATH,
    "goldens.genus_map": COPIED,
    "groups._divisors": TRACED,
    "groups.BaseGroup.power": TRACED,
    "groups.BaseGroup.__hash__": PUBLIC,
    "groups.BaseGroup.__repr__": PUBLIC,
    "groups.FreeGroup._cyclic_core": TRACED,
    "groups.FreeGroup.primitive_root": TRACED,
    "groups.FreeGroup.cyclic_membership": TRACED,
    "groups.FreeGroup.is_conjugate": TRACED,
    "groups.FreeAbelianGroup.power": TRACED,
    "groups.FreeAbelianGroup.cyclic_membership": TRACED,
    "groups.FreeAbelianGroup.is_conjugate": TRACED,
    "groups.FreeProductWord.__pow__": TRACED,
    "groups.FreeProductWord.conjugate_by": TRACED,
    "groups.FreeProductWord.is_power_of": TRACED,
    "groups.FreeProductWord.unit_syllables": TRACED,
    "groups.FreeProductWord.__repr__": PUBLIC,
    "motion._IntLap.breakpoints": READ,
    "motion.lap_at": PUBLIC,
    "motion.CarSchedule._ints": TRACED,
    "motion.CarSchedule.__eq__": PUBLIC,
    "motion.CarSchedule.__hash__": TRACED,
    "motion.CarSchedule.__reduce__": PUBLIC,
    "motion.position_at": PUBLIC,
    "motion.corner_occupancy": TRACED,
    "motion.CollisionReport.__eq__": PUBLIC,
}


def test_only_the_allowlist_is_unreached():
    run = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    unreached = set(run.stdout.split())
    assert not unreached - ALLOWED.keys(), (
        "no program path calls, and not on the allowlist: "
        + ", ".join(sorted(unreached - ALLOWED.keys())))
    assert not ALLOWED.keys() - unreached, (
        "on the allowlist, but a program path calls: "
        + ", ".join(sorted(ALLOWED.keys() - unreached)))

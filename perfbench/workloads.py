"""The workloads: job classes, their seeded instance pools, and one run's plan.

Every job class owns a pool of instances.  Instance i of class C in
workload W is generated from `random.Random("W/C/i")` with the program's
own `spheremotion.fuzzing` and `spheremotion.goldens` builders, so its
inputs, and hence its expected output digest, never change.  A run's
`--seed` deals the instances into rounds and orders each round.  Classes
with strata draw the same number of instances from each stratum
(`index % strata`), so every round has the same mix of sizes.  A run at
`--seconds 30` covers every pool exactly, or several times, so runs with
different seeds time the same work in different orders.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from spheremotion import fuzzing, goldens, jsonio
from spheremotion.diagram import HowieDiagram
from spheremotion.groups import FreeAbelianGroup, FreeGroup, FreeProductWord
from spheremotion.motion import standard_motion, standard_multiple_motion
from spheremotion.rewriting import RelativePresentationData, phi
from spheremotion.surface import OrientedMap, classify_map


class Artifacts:
    """Writes one run's JSON inputs into a directory of the checkout."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, doc) -> str:
        path = self.root / f"{name}.json"
        path.write_text(jsonio.dumps(doc))
        return str(path)


@dataclass(frozen=True)
class JobClass:
    name: str
    per_round: int
    pool: int
    make: Callable  # (index, rng or producer descriptor, artifacts) -> fields
    strata: int = 1
    light: bool = True  # gets a warm-up job before timing and in set-up
    once: bool = False  # its whole pool runs once per run, before the rounds
    needs: Optional[str] = None  # producer class: same instances, run after it


# ---------------------------------------------------------------------------
# timetables: motion reports, blow-ups and collision audits
# ---------------------------------------------------------------------------

B_STRATA = ((8, 0), (10, 0), (12, 0), (8, 1), (10, 1), (12, 1))  # (face length, m)
UNIT_PINWHEELS = (3, 6, 9, 12)  # pinwheel_variant(n) with horizon n + 3
GOLDEN_MOTIONS = (
    ("unit", goldens.pinwheel_unit_motion, 3),
    ("retimed", goldens.pinwheel_retimed_motion, 2),
    ("double-car", goldens.pinwheel_double_car_motion, None),
)


def _motion_files(art, name, m, ms):
    p = art.write(f"{name}.map", jsonio.map_to_json(m))
    q = art.write(f"{name}.motion", jsonio.motion_to_json(m, ms))
    return {"map": p, "motion": q}


def _motion_job(art, name, m, ms, checks=("lemma16",)):
    paths = _motion_files(art, name, m, ms)
    return {
        "argv": ["motion", paths["map"], paths["motion"]],
        "paths": paths,
        "checks": list(checks),
    }


def _standard_job(art, name, m, family, mval=None, info=None):
    p = art.write(f"{name}.map", jsonio.map_to_json(m))
    argv = ["motion", p, "--standard", family]
    if mval is not None:
        argv += ["--m", str(mval)]
    return {
        "argv": argv,
        "paths": {"map": p},
        "params": {"m": mval},
        "checks": ["lemma16"] + (["loci"] if info else []),
        "info": info or {},
    }


def banded(i, rng, art):
    m = goldens.banded_sphere_map()
    return _standard_job(art, f"banded-{i}", m, "Bm", 1, {"loci": 8})


def motion_a(i, rng, art):
    return _standard_job(art, f"motion-A-{i}", fuzzing.random_shape_map(rng, "A"), "A")


def motion_b(i, rng, art):
    length, mval = B_STRATA[i % len(B_STRATA)]
    m = fuzzing.random_shape_map(rng, "B")
    while len(m.faces[0]) != length:
        m = fuzzing.random_shape_map(rng, "B")
    return _standard_job(art, f"motion-B-{i}", m, "B", mval)


def unit_sphere(i, rng, art):
    m = fuzzing.random_sphere_map(rng)
    while math.lcm(*(len(b) for b in m.faces)) > 12:  # horizon of the unit motion
        m = fuzzing.random_sphere_map(rng)
    return _motion_job(art, f"unit-sphere-{i}", m, goldens.unit_speed_motion(m))


def _shuffled_pinwheel(n, rng):
    return fuzzing.relabel_map(fuzzing.rotate_map(fuzzing.pinwheel_variant(n), rng), rng)


def unit_pinwheel(i, rng, art):
    m = _shuffled_pinwheel(UNIT_PINWHEELS[i % len(UNIT_PINWHEELS)], rng)
    return _motion_job(art, f"unit-pinwheel-{i}", m, goldens.unit_speed_motion(m))


def multi_sphere(i, rng, art):
    m = fuzzing.random_sphere_map(rng)
    ms = fuzzing.random_multiple_motion(m, rng)
    return _motion_job(art, f"multi-sphere-{i}", m, ms, ("bridge", "lemma16"))


def multi_pinwheel(i, rng, art):
    m = _shuffled_pinwheel(rng.randint(2, 12), rng)
    ms = fuzzing.random_multiple_motion(m, rng)
    return _motion_job(art, f"multi-pinwheel-{i}", m, ms, ("bridge", "lemma16"))


def golden(i, rng, art):
    name, build, loci = GOLDEN_MOTIONS[i % len(GOLDEN_MOTIONS)]
    job = _motion_job(art, f"golden-{name}", goldens.pinwheel_map(), build())
    if loci is not None:
        job["checks"].append("loci")
        job["info"] = {"loci": loci}
    return job


def blow_up(i, rng, art):
    m = fuzzing.random_shape_map(rng, "A")
    while not classify_map(m)["m"]:  # stops exist only for m >= 1
        m = fuzzing.random_shape_map(rng, "A")
    paths = _motion_files(art, f"blow-up-{i}", m, standard_motion(m))
    return {"lib": "blow_up", "paths": paths, "checks": ["blow_up"]}


def _audit(lib):
    def make(i, producer, art):
        m = jsonio.parse_map(json.loads(Path(producer["paths"]["map"]).read_text()))
        mval = producer["params"]["m"]
        ms = standard_multiple_motion(m, dict(classify_map(m), m=mval))
        q = art.write(f"{lib}-{producer['key'].replace('/', '-')}.motion",
                      jsonio.motion_to_json(m, ms))
        return {
            "lib": lib,
            "paths": {"map": producer["paths"]["map"], "motion": q},
            "params": {"m": mval},
        }

    return make


def _fuzz(suite, cases):
    def make(i, rng, art):
        seed = str(rng.randrange(10**6))
        return {
            "argv": ["fuzz", "--suite", suite, "--seed", seed, "--cases", str(cases)],
            "paths": {},
        }

    return make


# The heavy schedules run once per run; a round runs every light pool once,
# and the seed orders it.
TIMETABLES = (
    JobClass("banded", 0, 1, banded, light=False, once=True),
    JobClass("motion-B", 0, 6, motion_b, strata=6, light=False, once=True),
    JobClass("motion-A", 32, 32, motion_a),
    JobClass("unit-sphere", 12, 12, unit_sphere),
    JobClass("unit-pinwheel", 4, 4, unit_pinwheel, strata=4),
    JobClass("multi-sphere", 16, 16, multi_sphere),
    JobClass("multi-pinwheel", 4, 4, multi_pinwheel),
    JobClass("golden", 3, 3, golden, strata=3),
    JobClass("blow-up", 16, 16, blow_up),
    JobClass("fuzz-collisions", 2, 2, _fuzz("collisions", 2)),
    JobClass("fuzz-diagrams", 2, 2, _fuzz("diagrams", 3)),
    JobClass("lemma17-B", 0, 6, _audit("lemma17_audit"), needs="motion-B"),
    JobClass("audit-B", 0, 6, _audit("audit_standard_collisions"), needs="motion-B"),
    JobClass("lemma17-banded", 0, 1, _audit("lemma17_audit"), needs="banded"),
    JobClass("audit-banded", 0, 1, _audit("audit_standard_collisions"), needs="banded"),
)


# ---------------------------------------------------------------------------
# weights: comotion reports, telescoping totals, subdivision chains
# ---------------------------------------------------------------------------

PINWHEEL_SIZES = (25, 50, 100, 150, 200)
SURFACES = ("sphere", "torus", "genus-2", "genus-3")


def genus_map(g: int) -> OrientedMap:
    """One 4g-gon glued as a1 b1 a1^-1 b1^-1 ... ag bg ag^-1 bg^-1."""
    boundary = []
    for k in range(g):
        a, b = 2 * k, 2 * k + 1
        boundary += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return OrientedMap(f"genus-{g}", (tuple(boundary),))


def random_surface_map(surface: str, rng) -> OrientedMap:
    if surface == "sphere":
        m = fuzzing.random_sphere_map(rng)
    elif surface == "torus":
        m = fuzzing.random_torus_map(rng)
    else:
        m = genus_map(int(surface[len("genus-"):]))
    m = fuzzing.random_subdivisions(m, rng, rng.randint(0, 6))
    return fuzzing.relabel_map(fuzzing.rotate_map(m, rng), rng)


def _comotion_files(art, name, m, com):
    return {
        "map": art.write(f"{name}.map", jsonio.map_to_json(m)),
        "comotion": art.write(f"{name}.comotion", jsonio.comotion_to_json(m, com)),
    }


def _comotion_job(art, name, m, rng, period=None, busy_face=None):
    com = fuzzing.random_comotion(m, rng, period)
    while busy_face is not None and com.cocars[busy_face].degree == 0:
        com = fuzzing.random_comotion(m, rng, period)
    paths = _comotion_files(art, name, m, com)
    return {
        "argv": ["comotion", paths["map"], paths["comotion"]],
        "paths": paths,
        "checks": ["weight_total"],
        "info": {"surface": m.surface},
    }


def comotion_pinwheel(i, rng, art):
    m = fuzzing.pinwheel_variant(PINWHEEL_SIZES[i % len(PINWHEEL_SIZES)])
    # One period for all, and a moving cocar on the outer (n+3)-gon: a
    # parked one there skips most of the edge work and makes the job about
    # 2.5 times cheaper, which would make a round's cost depend on the seed.
    return _comotion_job(art, f"comotion-pinwheel-{i}", m, rng, period=2, busy_face=1)


def _comotion_on(surfaces):
    def make(i, rng, art):
        m = random_surface_map(surfaces[i % len(surfaces)], rng)
        return _comotion_job(art, f"comotion-{m.surface}-{i}", m, rng)

    return make


def _rational(rng) -> str:
    return jsonio.frac_to_str(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def lemma14(i, rng, art):
    m = random_surface_map(SURFACES[i % len(SURFACES)], rng)
    paths = _comotion_files(art, f"lemma14-{i}", m, fuzzing.random_comotion(m, rng))
    return {
        "lib": "lemma14_total",
        "paths": paths,
        "params": {
            "g": [_rational(rng) for _ in range(3)],
            "h": [_rational(rng) for _ in range(3)],
        },
        "checks": ["lemma14"],
    }


def subdivide_chain(i, rng, art):
    m = random_surface_map(SURFACES[i % len(SURFACES)], rng)
    paths = _comotion_files(art, f"chain-{i}", m, fuzzing.random_comotion(m, rng))
    return {
        "lib": "subdivide_chain",
        "paths": paths,
        "params": {"picks": [rng.randrange(1000) for _ in range(rng.randint(3, 5))]},
        "checks": ["chain_totals"],
        "info": {"surface": m.surface},
    }


# The pinwheel comotions run once per run; a round runs every light pool
# once, and the seed orders it.
WEIGHTS = (
    JobClass("comotion-pinwheel", 0, 10, comotion_pinwheel, strata=5, light=False,
             once=True),
    JobClass("comotion-sphere", 72, 72, _comotion_on(("sphere",))),
    JobClass("comotion-torus", 48, 48, _comotion_on(("torus",))),
    JobClass("comotion-genus", 24, 24, _comotion_on(("genus-2", "genus-3")), strata=2),
    JobClass("lemma14", 48, 48, lemma14, strata=4),
    JobClass("subdivide-chain", 36, 36, subdivide_chain, strata=4),
    JobClass("fuzz-weights", 12, 12, _fuzz("weights", 2)),
)


# ---------------------------------------------------------------------------
# words: word reports, small diagrams, phi-reduction chains
# ---------------------------------------------------------------------------


def _base(i, rng):
    return (FreeGroup, FreeAbelianGroup)[i % 2](rng.randint(1, 3))


def _word(action):
    def make(i, rng, art):
        w = fuzzing.random_unit_sum_word(rng, _base(i, rng), max_minus=rng.randint(4, 32))
        p = art.write(f"word-{action}-{i}", jsonio.word_to_json(w))
        argv = ["word", p, action]
        if action == "criterion" and rng.random() < 0.5:
            argv.append("--assume-simple")
        checks = ["roundtrip"] if action == "rewrite" else []
        return {"argv": argv, "paths": {"word": p}, "checks": checks}

    return make


def phi_chain(rng, n: int) -> HowieDiagram:
    """A necklace of n lune phi cells with random nonidentity P-words."""
    base = fuzzing.random_base(rng)
    labels = {}
    acc = FreeProductWord.one(base)
    for i in range(n):
        while True:
            p = FreeProductWord.g(
                base, fuzzing.random_base_element(base, rng, allow_identity=False)
            )
            if not p.is_identity() and p != acc.inverse():
                break
        acc = acc * p
        labels[(i, 1)] = p
        labels[(i, 0)] = phi(p).inverse()
    m = OrientedMap("sphere", tuple(((i, -1), ((i + 1) % n, 1)) for i in range(n)))
    return HowieDiagram(
        m,
        labels,
        {e: 1 for e in m.edge_ids},
        exterior_vertices=frozenset(m.vertices()),
        phi_s=1,
    )


def mirror_polygon(rng) -> HowieDiagram:
    """A doubled polygon whose back corners carry the front labels inverted."""
    if rng.random() < 0.5:
        signs = fuzzing.b_profile(rng.randint(0, 3))
    else:
        signs = fuzzing.d_profile(rng.randint(1, 3), rng.randint(1, 3), 1)
    m = fuzzing.doubled_polygon(signs)
    base = fuzzing.random_base(rng)
    labels = {
        (0, j): FreeProductWord.g(base, fuzzing.random_base_element(base, rng))
        for j in range(len(m.faces[0]))
    }
    for v in m.vertices():
        (_, jf), (fb, jb) = sorted(v)
        labels[(fb, jb)] = labels[(0, jf)].inverse()
    return HowieDiagram(m, labels, {e: 1 for e in m.edge_ids})


def diagram_chain(i, rng, art):
    d = phi_chain(rng, rng.randint(2, 26))
    pres = RelativePresentationData(d.base, 1, -1, FreeProductWord.one(d.base), (), ())
    p = art.write(f"chain-{i}.diagram", jsonio.diagram_to_json(d))
    q = art.write(f"chain-{i}.presentation", jsonio.presentation_to_json(pres))
    return {
        "argv": ["diagram", p, "--presentation", q],
        "paths": {"diagram": p, "presentation": q},
    }


def diagram_mirror(i, rng, art):
    p = art.write(f"mirror-{i}.diagram", jsonio.diagram_to_json(mirror_polygon(rng)))
    return {"argv": ["diagram", p], "paths": {"diagram": p}}


def phi_reduce(i, rng, art):
    d = phi_chain(rng, rng.randint(2, 26))
    p = art.write(f"phi-reduce-{i}.diagram", jsonio.diagram_to_json(d))
    return {"lib": "phi_reduce_chain", "paths": {"diagram": p}, "checks": ["phi_reduced"]}


WORDS = (
    JobClass("word-classify", 64, 256, _word("classify"), strata=2),
    JobClass("word-rewrite", 64, 256, _word("rewrite"), strata=2),
    JobClass("word-criterion", 32, 128, _word("criterion"), strata=2),
    JobClass("diagram-chain", 32, 128, diagram_chain),
    JobClass("diagram-mirror", 32, 128, diagram_mirror),
    JobClass("phi-reduce", 24, 96, phi_reduce),
    JobClass("fuzz-rewriting", 8, 32, _fuzz("rewriting", 4)),
)

WORKLOADS = {"timetables": TIMETABLES, "weights": WEIGHTS, "words": WORDS}

# Rounds of a run at --seconds 30, scaled linearly for other values.  On a
# 2-core x86-64 VM with Python 3.11 at the commit that defined the
# benchmark, timetables spends about 24 s in its once-per-run jobs and 5 s
# in a round, weights about 11 s and 6 s, and a round of words about 0.8 s.
# The count depends on --seconds only, so two versions of the program are
# timed on the same jobs.  A round of words takes a quarter of each pool,
# so at 30 s every light instance runs three (timetables, weights) or
# six times (words), and its latency is the median of those runs.
ROUNDS_AT_30S = {"timetables": 3, "weights": 3, "words": 24}


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(ROUNDS_AT_30S[workload] * seconds / 30))


# ---------------------------------------------------------------------------
# descriptors and plans
# ---------------------------------------------------------------------------


def describe(workload: str, cls: JobClass, i: int, art: Artifacts, producers: dict):
    """The job descriptor of instance i; producers maps key -> descriptor."""
    if cls.needs is None:
        fields = cls.make(i, random.Random(f"{workload}/{cls.name}/{i}"), art)
        needs = None
    else:
        needs = f"{cls.needs}/{i}"
        fields = cls.make(i, producers[needs], art)
    job = {"key": f"{cls.name}/{i}", "cls": cls.name, "needs": needs,
           "checks": [], "info": {}, "params": {}}
    job.update(fields)
    return job


def every_job(workload: str, art: Artifacts) -> list:
    """Every pool instance, producers before their consumers."""
    jobs = {}
    for cls in WORKLOADS[workload]:
        for i in range(cls.pool):
            job = describe(workload, cls, i, art, jobs)
            jobs[job["key"]] = job
    return list(jobs.values())


def _cycle(cls: JobClass) -> int:
    """Rounds before a class has used its whole pool."""
    return cls.pool // cls.per_round


def plan(workload: str, seed: int, art: Artifacts, count: int):
    """(once-per-run jobs, rounds, warm-up jobs) of a run of `count` rounds.

    The once-per-run classes run their whole pool, in an order the seed
    shuffles.  Each stratum of each other class is shuffled once; round k
    takes the k-th slice of every shuffle (cyclically), so successive
    rounds use fresh instances until a pool is spent.  A consumer class
    runs on its producer's instances: in every round when the producer
    runs once per run, else on the round's picks.  Only the distinct
    rounds are returned: round k of the run is rounds[k % len(rounds)].
    """
    rng = random.Random(f"{workload}:{seed}")
    classes = WORKLOADS[workload]
    shuffled = {}
    for cls in classes:
        if cls.needs is None:
            shuffled[cls.name] = [rng.sample(range(r, cls.pool, cls.strata),
                                             cls.pool // cls.strata)
                                  for r in range(cls.strata)]
    distinct = math.lcm(*(_cycle(c) for c in classes if c.needs is None and not c.once))
    jobs = {}

    def job(cls, i):
        key = f"{cls.name}/{i}"
        if key not in jobs:
            jobs[key] = describe(workload, cls, i, art, jobs)
        return jobs[key]

    picks = {}
    once = []
    for cls in classes:
        if cls.once:
            picks[cls.name] = [i for perm in shuffled[cls.name] for i in perm]
            once += [job(cls, i) for i in picks[cls.name]]
    rng.shuffle(once)
    rounds = []
    for k in range(min(count, distinct)):
        producers, consumers = [], []
        for cls in classes:
            if cls.once:
                continue
            if cls.needs is not None:
                consumers += [job(cls, i) for i in picks[cls.needs]]
                continue
            take = cls.per_round // cls.strata
            start = (k % _cycle(cls)) * take
            picks[cls.name] = [i for perm in shuffled[cls.name]
                               for i in perm[start:start + take]]
            producers += [job(cls, i) for i in picks[cls.name]]
        rng.shuffle(producers)
        rng.shuffle(consumers)
        rounds.append(producers + consumers)
    warmups = [job(c, 0) for c in classes if c.light and c.needs is None and not c.once]
    return once, rounds, warmups

"""Acceptance gate: one verdict line per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line printed for every criterion.  All arithmetic is exact; there are
no tolerances anywhere in this module.
"""

import itertools
import time
from fractions import Fraction as F

from spheremotion.comotion import chi_indicator, lemma14_total, psi, psi_progress
from spheremotion.fuzzing import (
    b_profile,
    bridge_problems,
    doubled_polygon,
    make_rng,
    random_comotion,
    random_multiple_motion,
    random_shape_map,
    random_sphere_map,
    random_torus_map,
    random_unit_sum_word,
    relabel_map,
    rewrite_problems,
    rotate_map,
    weight_total_problems,
)
from spheremotion.goldens import (
    banded_sphere_map,
    pinwheel_double_car_motion,
    pinwheel_map,
    pinwheel_retimed_motion,
    pinwheel_unit_motion,
)
from spheremotion.groups import FreeGroup, FreeProductWord
from spheremotion.motion import (
    blow_up,
    check_separated_stops,
    complete_collisions,
    is_regular,
    lemma16_bound,
    multiplicities,
    standard_motion,
    standard_multiple_motion,
    verify_source_sink_collisions,
)
from spheremotion.rewriting import is_difficult_case, is_difficult_pattern
from spheremotion.surface import classify_map


def verdict(n, label, problems):
    ok = not problems
    print(("PASS" if ok else "FAIL") + f" criterion {n}: {label}")
    assert ok, f"criterion {n} ({label}): " + "; ".join(str(p) for p in problems[:8])


def test_criterion_01_pinwheel_census():
    t0 = time.perf_counter()
    m = pinwheel_map()
    got = {
        "surface": m.surface,
        "faces": m.face_count(),
        "edges": m.edge_count(),
        "vertices": len(m.vertices()),
        "corners": m.corner_count(),
        "darts": 2 * m.edge_count(),
        "chi": m.euler_characteristic(),
    }
    want = {
        "surface": "sphere",
        "faces": 5,
        "edges": 9,
        "vertices": 6,
        "corners": 18,
        "darts": 18,
        "chi": 2,
    }
    problems = [f"{k}: got {got[k]}, want {v}" for k, v in want.items() if got[k] != v]
    if time.perf_counter() - t0 >= 1.0:
        problems.append("census took 1 s or more")
    verdict(1, "pinwheel census matches the exact counts", problems)


def test_criterion_02_collision_locus_counts():
    t0 = time.perf_counter()
    m = pinwheel_map()
    unit = complete_collisions(m, pinwheel_unit_motion())
    retimed = complete_collisions(m, pinwheel_retimed_motion())
    problems = []
    if unit.spatial_count != 3:
        problems.append(f"unit schedule has {unit.spatial_count} loci, want 3")
    if retimed.spatial_count != 2:
        problems.append(f"retimed schedule has {retimed.spatial_count} loci, want 2")
    if min(unit.spatial_count, retimed.spatial_count) < 2:
        problems.append("a schedule fell below the 2-locus floor")
    if time.perf_counter() - t0 >= 1.0:
        problems.append("collision search took 1 s or more")
    verdict(2, "shipped schedules give exactly 3 and 2 collision loci", problems)


def test_criterion_03_double_car_tight_bound():
    t0 = time.perf_counter()
    m = pinwheel_map()
    ms = pinwheel_double_car_motion()
    problems = []
    mult = multiplicities(m, ms)
    if mult != {0: 1, 1: 2, 2: 1, 3: 1, 4: 1}:
        problems.append(f"multiplicities {mult}")
    res = lemma16_bound(m, ms)
    if res["bound"] != 3 or res["loci"] != 3 or not res["holds"]:
        problems.append(f"bound report {res}")
    rep = complete_collisions(m, ms)
    base = complete_collisions(m, pinwheel_unit_motion())
    if set(rep.vertex_loci) != set(base.vertex_loci):
        problems.append("vertex loci moved away from the unit schedule's")
    if set(rep.edge_loci) != set(base.edge_loci):
        problems.append("edge loci moved away from the unit schedule's")
    if time.perf_counter() - t0 >= 1.0:
        problems.append("took 1 s or more")
    verdict(3, "double car multiplicities and tight locus bound", problems)


def test_criterion_04_weight_totals():
    t0 = time.perf_counter()
    rng = make_rng(4)
    problems = []
    for surface, builder in (("sphere", random_sphere_map), ("torus", random_torus_map)):
        for i in range(100):
            m = builder(rng)
            for p in weight_total_problems(m, random_comotion(m, rng)):
                problems.append(f"{surface} case {i}: {p}")
    if time.perf_counter() - t0 >= 60.0:
        problems.append("weight sweep took 60 s or more")
    verdict(4, "comotion weight totals are 2 on spheres, 0 on tori", problems)


def test_criterion_05_generic_weight_cancellation():
    rng = make_rng(5)
    problems = []
    for i in range(100):
        m = random_sphere_map(rng) if i % 2 else random_torus_map(rng)
        com = random_comotion(m, rng)
        a1, b1, c1, d1 = (F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4))
        a2, b2, c2, d2 = (F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4))
        total = lemma14_total(
            m,
            com,
            lambda x, y: a1 * x + b1 * y + c1 + d1 * x * y,
            lambda x, y: a2 * x + b2 * y + c2 + d2 * x * y,
        )
        if total != m.euler_characteristic():
            problems.append(f"case {i}: total {total} on {m.surface}")
    verdict(5, "generic weight total telescopes to chi", problems)


def test_criterion_06_winding_count():
    rng = make_rng(6)
    problems = []
    for i in range(200):
        T = F(rng.randint(2, 9))
        k = rng.randint(1, 6)
        vals = tuple(
            F(rng.randint(0, 4 * int(T)), rng.choice([1, 2, 3, 4])) for _ in range(k)
        )
        p = psi(T, vals)
        oracle = sum(chi_indicator(T, vals[j], vals[(j + 1) % k]) for j in range(k))
        if p < 0:
            problems.append(f"case {i}: negative winding {p}")
        if (p == 0) != (len({v % T for v in vals}) == 1):
            problems.append(f"case {i}: zero winding vs all-equal mismatch")
        if p != oracle:
            problems.append(f"case {i}: indicator sum {oracle} != psi {p}")
        if psi_progress(T, vals) != p:
            problems.append(f"case {i}: progress form disagrees")
        refs = [F(rng.randint(-20, 20), rng.choice([1, 2, 3])) for _ in range(20)]
        if any(psi(T, vals, r) != p for r in refs):
            problems.append(f"case {i}: reference changed the winding")
    pairs = 0
    while pairs < 50:
        T = F(rng.randint(2, 9))
        t1 = F(rng.randint(0, 30), rng.choice([1, 2, 3]))
        t2 = F(rng.randint(0, 30), rng.choice([1, 2, 3]))
        if t1 % T == t2 % T:
            continue
        pairs += 1
        vals = (t1, t2, t1, t2)
        oracle = sum(chi_indicator(T, vals[j], vals[(j + 1) % 4]) for j in range(4))
        if oracle != 2 or psi(T, vals) != 2:
            problems.append(f"distinct pair {t1}, {t2} mod {T}: winding != 2")
    verdict(6, "winding count positivity, invariance, and pair value", problems)


def test_criterion_07_standard_timetables():
    rng = make_rng(7)
    problems = []
    seen_m = set()
    for i in range(50):
        m = random_shape_map(rng, "A")
        info = classify_map(m)
        seen_m.add(info["m"] if info["m"] is not None else 0)
        ms = standard_motion(m, info)
        c = check_separated_stops(m, ms)
        if not c["ok"]:
            problems.append(f"A case {i}: {c['problems'][:2]}")
        v = verify_source_sink_collisions(m, ms)
        if not v["ok"]:
            problems.append(f"A case {i}: {v['problems'][:2]}")
    if not seen_m >= {0, 1, 2}:
        problems.append(f"A sweep only exercised m values {sorted(seen_m)}")
    for i in range(50):
        m = random_shape_map(rng, "B")
        ms = standard_multiple_motion(m, dict(classify_map(m), m=rng.choice([0, 1])))
        c = check_separated_stops(m, ms)
        if not c["ok"]:
            problems.append(f"B case {i}: {c['problems'][:2]}")
        v = verify_source_sink_collisions(m, ms)
        if not v["ok"]:
            problems.append(f"B case {i}: {v['problems'][:2]}")
    bm = banded_sphere_map()
    info = classify_map(bm)
    if info["faces"][0] != ("d", {"k": 2, "l": 2, "s": 4}):
        problems.append(f"banded face profile {info['faces'][0]}")
    ms = standard_multiple_motion(bm, dict(info, m=1))
    if ms.period != 6 or multiplicities(bm, ms) != {0: 4, 1: 4}:
        problems.append("banded timetable period or multiplicities off")
    if not check_separated_stops(bm, ms)["ok"]:
        problems.append("banded timetable fails separated stops")
    v = verify_source_sink_collisions(bm, ms)
    if not v["ok"]:
        problems.append(f"banded timetable: {v['problems'][:2]}")
    res = lemma16_bound(bm, ms)
    if v["report"].spatial_count != 8 or res["bound"] != 8 or not res["holds"]:
        problems.append("banded locus count misses the bound of 8")
    kinds = {bm.classify_vertex(vx) for vx in v["report"].vertex_loci}
    if kinds != {"source", "sink"}:
        problems.append(f"banded loci sit at {sorted(kinds)}")
    verdict(7, "standard timetables pass the stop and source/sink audits", problems)


def test_criterion_08_blow_up():
    rng = make_rng(8)
    problems = []
    cases = [random_shape_map(rng, "A") for _ in range(40)]
    cases += [
        relabel_map(rotate_map(doubled_polygon(b_profile(mval)), rng), rng)
        for mval in (1, 2)
        for _ in range(5)
    ]
    changed = 0
    for i, m in enumerate(cases):
        ms = standard_motion(m)
        before = complete_collisions(m, ms).spatial_count
        m2, ms2, rep = blow_up(m, ms)
        new = rep.get("new_edges", ())
        changed += bool(new)
        if m2.euler_characteristic() != 2 or m2.surface != "sphere":
            problems.append(f"case {i}: surface changed")
        if not is_regular(m2, ms2):
            problems.append(f"case {i}: output motion is not regular")
        after = complete_collisions(m2, ms2)
        if after.spatial_count < 2 or after.spatial_count != before:
            problems.append(
                f"case {i}: loci went {before} -> {after.spatial_count}"
            )
        if any(e in new for e, _ in after.edge_loci):
            problems.append(f"case {i}: a collision landed on a new edge")
    if changed < 10:
        problems.append(f"only {changed} cases actually had stops to remove")
    verdict(8, "blow-up is regular and conserves chi and the loci", problems)


def all_sign_patterns(n):
    for pos in itertools.combinations(range(n), (n + 1) // 2):
        signs = [-1] * n
        for p in pos:
            signs[p] = 1
        yield tuple(signs)


def test_criterion_09_rewriting_round_trip():
    rng = make_rng(9)
    problems = []
    for i in range(500):
        problems += [f"case {i}: {p}" for p in rewrite_problems(random_unit_sum_word(rng))]
    base = FreeGroup(9)
    gens = "abcdefghi"
    for n in (1, 3, 5, 7, 9):
        for signs in all_sign_patterns(n):
            items = []
            for j, eps in enumerate(signs):
                items.append(("g", 0, base.parse(gens[j])))
                items.append(("t", 1, eps))
            w = FreeProductWord.from_syllables(base, items)
            if is_difficult_case(w) != is_difficult_pattern(signs):
                problems.append(f"pattern {signs}: detection disagrees")
    verdict(9, "rewriting round trip, fixpoint, and difficult cases", problems)


def test_criterion_10_motion_comotion_bridge():
    rng = make_rng(10)
    problems = []
    for i in range(50):
        m = random_sphere_map(rng)
        ms = random_multiple_motion(m, rng)
        rep = complete_collisions(m, ms)
        problems += [f"case {i}: {p}" for p in bridge_problems(m, ms, rep)]
    verdict(10, "induced comotions mirror motion loci exactly", problems)

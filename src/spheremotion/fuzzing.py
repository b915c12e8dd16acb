"""Seeded random generators, the fuzzed invariants, and the fuzz suites.

Everything takes a seed or a random.Random so runs reproduce exactly.
Each fuzzed guarantee of the paper has one check here, which takes one
instance and returns its problems as strings (none when it holds):

- `weight_total_problems`: comotion weights sum to the Euler
  characteristic of the surface
- `bridge_problems`: a regular multiple motion and the comotion it
  induces have the same collision loci at the same instants
- `rewrite_problems`: the rewritten presentation reproduces the word up
  to conjugacy, is a fixpoint of minimization, and is minimal

`SUITES` maps each suite of `spheremotion fuzz` to a function that draws
one case from an rng and returns its problems.  The acceptance criteria
4, 10 and 9 call the same three checks on their own draws.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .comotion import Cocar, Comotion, comotion_collisions, induce_comotion, weight_report
from .diagram import (
    HowieDiagram,
    audit_standard_collisions,
    check_diagram_over,
    face_cells,
    is_phi_reduced,
    phi_reduce_move,
)
from .goldens import doubled_polygon_map, square_torus_map
from .groups import BaseGroup, FreeAbelianGroup, FreeProductWord, reduce_letters, shared_base
from .motion import (
    CarSchedule,
    MotionSchedule,
    as_multiple_motion,
    complete_collisions,
    is_regular,
    standard_motion,
    time_shifted_car,
)
from .rewriting import (
    RelativePresentation,
    check_minimality,
    minimize_presentation,
    phi,
    reconstruct_relator,
    rewrite_word,
)
from .surface import (  # b_profile and d_profile are re-exported
    OrientedMap,
    b_profile,
    d_profile,
    subdivide_edge,
    surface_euler_characteristic,
)


def make_rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


def pinwheel_variant(n: int) -> OrientedMap:
    """A balloon, an outer (n+3)-gon and a ring of n triangles."""
    loop, neck, tail = 0, 1, 2
    ring = [3 + i for i in range(n)]
    spoke = [3 + n + i for i in range(n)]
    faces = [
        ((loop, 1), (neck, 1), (loop, -1)),
        ((tail, 1), *((r, 1) for r in ring), (tail, -1), (neck, -1)),
    ]
    for j in range(n):
        faces.append(((spoke[(j + 1) % n], 1), (ring[j], -1), (spoke[j], -1)))
    return OrientedMap("sphere", tuple(faces))


def doubled_polygon(signs) -> OrientedMap:
    return doubled_polygon_map(tuple(signs))


def lune_map(n: int) -> OrientedMap:
    """n two-sided faces around the sphere, lune i between edges i and i+1."""
    return OrientedMap(
        "sphere", tuple(((i, -1), ((i + 1) % n, 1)) for i in range(n))
    )


def rotate_map(m: OrientedMap, rng) -> OrientedMap:
    """The same map with each face boundary listed from a random corner."""
    rng = make_rng(rng)
    faces = []
    for b in m.faces:
        r = rng.randrange(len(b))
        faces.append(b[r:] + b[:r])
    return OrientedMap(m.surface, tuple(faces))


def relabel_map(m: OrientedMap, rng) -> OrientedMap:
    rng = make_rng(rng)
    ids = sorted(m.edge_ids)
    perm = ids[:]
    rng.shuffle(perm)
    table = dict(zip(ids, perm))
    faces = tuple(
        tuple((table[e], s) for e, s in b) for b in m.faces
    )
    return OrientedMap(m.surface, faces)


def random_shape_map(rng, family: str = "A") -> OrientedMap:
    """A sphere map whose faces fit the standard shapes, shuffled."""
    rng = make_rng(rng)
    if family == "B":
        k, l = rng.randint(1, 3), rng.randint(1, 3)
        s = rng.randint(2, 4)
        m = doubled_polygon(d_profile(k, l, s))
    else:
        kind = rng.choice(["b", "d", "pinwheel", "a"])
        if kind == "b":
            m = doubled_polygon(b_profile(rng.randint(0, 2)))
        elif kind == "d":
            m = doubled_polygon(d_profile(rng.randint(1, 3), rng.randint(1, 3), 1))
        elif kind == "pinwheel":
            m = pinwheel_variant(rng.randint(2, 5))
        else:
            m = doubled_polygon((1, -1))
    return relabel_map(rotate_map(m, rng), rng)


def random_subdivisions(m: OrientedMap, rng, rounds: int) -> OrientedMap:
    rng = make_rng(rng)
    for _ in range(rounds):
        edge = rng.choice(sorted(m.edge_ids))
        nxt = max(m.edge_ids) + 1
        m = subdivide_edge(m, edge, (nxt, nxt + 1))
    return m


def random_sphere_map(rng) -> OrientedMap:
    rng = make_rng(rng)
    m = random_shape_map(rng, rng.choice(["A", "A", "B"]))
    m = random_subdivisions(m, rng, rng.randint(0, 3))
    return rotate_map(m, rng)


def random_torus_map(rng) -> OrientedMap:
    rng = make_rng(rng)
    m = random_subdivisions(square_torus_map(), rng, rng.randint(0, 4))
    return relabel_map(rotate_map(m, rng), rng)


# ---------------------------------------------------------------------------
# comotions
# ---------------------------------------------------------------------------


def _random_time(rng, T: Fraction) -> Fraction:
    den = rng.choice([1, 2, 3, 4])
    return Fraction(rng.randint(0, 4 * T.numerator * den), den)


def random_comotion(m: OrientedMap, rng, period=None) -> Comotion:
    """Arbitrary-shape cocars whose darts each sweep under one period."""
    rng = make_rng(rng)
    T = Fraction(period) if period is not None else Fraction(rng.randint(1, 4))
    cocars = []
    for f, boundary in enumerate(m.faces):
        L = len(boundary)
        d = min(rng.choice([0, 1, 1, 2]), L - 1)
        if d == 0:
            pos = Fraction(rng.randint(0, L - 1)) + Fraction(rng.randint(0, 3), 4)
            cocars.append(Cocar(f, 0, ((pos, _random_time(rng, T)),)))
            continue
        while True:
            w = [rng.randint(1, 9) for _ in range(L)]
            if d * max(w) < sum(w):
                break
        t = _random_time(rng, T)
        corner = []
        for j in range(L):
            corner.append(t)
            t += d * T * Fraction(w[j], sum(w))
        bps = []
        for j in range(L):
            bps.append((Fraction(j), corner[j]))
            if rng.random() < 0.3:
                span = (corner[j + 1] if j + 1 < L else corner[0] + d * T) - corner[j]
                bps.append(
                    (
                        Fraction(j) + Fraction(rng.randint(1, 3), 4),
                        corner[j] + span * Fraction(rng.randint(0, 4), 4),
                    )
                )
        cocars.append(Cocar(f, d, tuple(bps)))
    return Comotion(T, tuple(cocars))


# ---------------------------------------------------------------------------
# multiple motions
# ---------------------------------------------------------------------------


def _increasing_grid(rng, lo: Fraction, hi: Fraction, count: int) -> list[Fraction]:
    w = [rng.randint(1, 9) for _ in range(count + 1)]
    total = sum(w)
    out = []
    acc = 0
    for x in w[:-1]:
        acc += x
        out.append(lo + (hi - lo) * Fraction(acc, total))
    return out


def random_multiple_motion(m: OrientedMap, rng, period=None) -> MotionSchedule:
    """A regular multiple motion with face multiplicities one or two.

    Each face gets a strictly climbing base car that stays inside its
    first lap until the final window, so the lap wraps on the last link
    of the car chain.
    """
    rng = make_rng(rng)
    T = Fraction(period) if period is not None else Fraction(rng.randint(2, 4))
    cars = []
    for f, boundary in enumerate(m.faces):
        L = len(boundary)
        d = rng.choice([1, 1, 2])
        marks = _increasing_grid(rng, Fraction(0), Fraction(L), d - 1)
        laps = [Fraction(0)] + marks + [Fraction(L)]
        bps = []
        for j in range(d):
            inner = rng.randint(0, 2)
            ts = [j * T] + _increasing_grid(rng, j * T, (j + 1) * T, inner)
            ps = [laps[j]] + _increasing_grid(rng, laps[j], laps[j + 1], inner)
            bps += list(zip(ts, ps))
        base = CarSchedule(f, d * T, tuple(bps), degree=1)
        cars += [time_shifted_car(base, L, j * T) for j in range(d)]
    return MotionSchedule(T, tuple(cars))


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def random_base(rng) -> BaseGroup:
    rng = make_rng(rng)
    if rng.random() < 0.5:
        return shared_base("free", rng.randint(1, 3))
    return shared_base("abelian", rng.randint(1, 3))


def random_base_element(base: BaseGroup, rng, allow_identity=True):
    rng = make_rng(rng)
    if allow_identity and rng.random() < 0.25:
        return base.identity
    if isinstance(base, FreeAbelianGroup):
        vec = [rng.randint(-2, 2) for _ in range(base.rank)]
        if not any(vec):
            vec[rng.randrange(base.rank)] = 1
        return tuple(vec)
    letters = []
    for _ in range(rng.randint(1, 3)):
        g = rng.randint(1, base.rank)
        letters.append(g if rng.random() < 0.5 else -g)
    return reduce_letters(letters)


def random_unit_sum_word(rng, base=None, max_minus=4) -> FreeProductWord:
    """A coefficient chain g_1 t^e1 ... with exponent sum +1 or -1."""
    rng = make_rng(rng)
    if base is None:
        base = random_base(rng)
    n_minus = rng.randint(0, max_minus)
    signs = [1] * (n_minus + 1) + [-1] * n_minus
    rng.shuffle(signs)
    if rng.random() < 0.5:
        signs = [-e for e in signs]
    syls = []
    for eps in signs:
        syls.append(("g", 0, random_base_element(base, rng)))
        syls.append(("t", 1, eps))
    return FreeProductWord.from_syllables(base, syls)


# ---------------------------------------------------------------------------
# invariants, one instance at a time
# ---------------------------------------------------------------------------


def weight_total_problems(m: OrientedMap, com: Comotion) -> list[str]:
    """The comotion's weights against chi of the map's surface."""
    total = weight_report(m, com)["total"]
    chi = surface_euler_characteristic(m.surface)
    return [] if total == chi else [f"{m.surface} weight total {total} != {chi}"]


def bridge_problems(m: OrientedMap, ms: MotionSchedule, rep) -> list[str]:
    """A regular multiple motion's collision report `rep` against the
    collisions of its induced comotion, locus by locus and instant by
    instant modulo the period, in ints."""
    if not is_regular(m, ms):
        return ["motion is not regular"]
    p, q = ms.period.numerator, ms.period.denominator
    problems = []
    groups = as_multiple_motion(m, ms)
    com = induce_comotion(m, ms, groups)
    if [c.degree for c in com.cocars] != [len(groups[f]) for f in range(m.face_count())]:
        problems.append("cocar degrees disagree with face multiplicities")
    crep = comotion_collisions(m, com)
    edges = {(e, (lam.numerator, lam.denominator)): locus
             for (e, lam), locus in rep.edge_ints.items()}
    for kind, ours, theirs in (("vertex", rep.vertex_ints, crep.vertex_ints),
                               ("edge", edges, crep.edge_ints)):
        if set(ours) != set(theirs):
            problems.append(f"{kind} loci differ")
        else:  # a / S and r / s agree mod p / q iff a * q * s and r * q * S do mod p * S * s
            for key, (S, spans, _) in ours.items():
                r, s = theirs[key]
                if {a * q * s % (p * S * s) for a, _ in spans} != {r * q * S % (p * S * s)}:
                    problems.append(f"instants differ at vertex {key}" if kind == "vertex"
                                    else f"instants differ inside edge {key[0]}")
    return problems


def rewrite_problems(w: FreeProductWord) -> list[str]:
    """Round trip, fixpoint and minimality of `rewrite_word(w)`."""
    res = rewrite_word(w)
    target = (w.inverse() if res.inverted else w).cyclic_reduce()
    problems = []
    if not reconstruct_relator(res.data).is_conjugate_to(target):
        problems.append("relator is not conjugate to the input")
    again, trace = minimize_presentation(res.data)
    if trace != () or again != res.data:
        problems.append("minimization is not a fixpoint")
    minimal = check_minimality(res.data)
    if not all(minimal[k] for k in ("a_outside_P", "b_outside_P_phi", "top_copy_used")):
        problems.append("fixpoint violates the minimality conditions")
    return problems


# ---------------------------------------------------------------------------
# fuzz suites: one random case each
# ---------------------------------------------------------------------------


def _weights_case(rng) -> list[str]:
    problems = []
    for builder in (random_sphere_map, random_torus_map):
        m = builder(rng)
        problems += weight_total_problems(m, random_comotion(m, rng))
    return problems


def _collisions_case(rng) -> list[str]:
    m = random_sphere_map(rng)
    ms = random_multiple_motion(m, rng)
    rep = complete_collisions(m, ms)
    problems = []
    if rep.spatial_count < 2:
        problems.append(f"only {rep.spatial_count} collision loci")
    return problems + bridge_problems(m, ms, rep)


def _rewriting_case(rng) -> list[str]:
    return rewrite_problems(random_unit_sum_word(rng))


def _random_phi_chain(rng):
    """A necklace of phi cells with random nonidentity P-words."""
    n = rng.randint(2, 5)
    base = random_base(rng)
    labels = {}
    acc = FreeProductWord.one(base)
    for i in range(n):
        while True:
            g = random_base_element(base, rng, allow_identity=False)
            p = FreeProductWord.g(base, g)
            if not p.is_identity() and p != acc.inverse():
                break
        acc = acc * p
        labels[(i, 1)] = p
        labels[(i, 0)] = phi(p).inverse()
    m = lune_map(n)
    d = HowieDiagram(
        m,
        labels,
        {e: 1 for e in m.edge_ids},
        exterior_vertices=frozenset(m.vertices()),
        phi_s=1,
    )
    return d, acc


def _phi_chain_problems(rng) -> list[str]:
    """Merging a phi chain cell by cell keeps chi and the presentation,
    and ends in one phi-reduced cell labelled by the chain's product."""
    d, product = _random_phi_chain(rng)
    pres = RelativePresentation(d.base, 1, (FreeProductWord.t(d.base),), has_phi=True)
    problems = []
    for e in range(1, d.map.face_count()):
        faces_before = d.map.face_count()
        d = phi_reduce_move(d, e)
        if d.map.euler_characteristic() != 2:
            problems.append("merge changed chi")
        if d.map.face_count() != faces_before - 1:
            problems.append("merge did not drop one face")
        if not check_diagram_over(d, pres)["ok"]:
            problems.append("merge left the presentation")
    cells = face_cells(d, 0)
    if cells[0][1] == 1:
        cells = (cells[1], cells[0])
    (_, _, p), (_, _, q) = cells
    if p != product or q != phi(product).inverse():
        problems.append("merged cell is not the chain product")
    if not is_phi_reduced(d):
        problems.append("single cell is not phi-reduced")
    return problems


def _mirror_audit_problems(rng) -> list[str]:
    """Mirror labels on a doubled polygon satisfy every standard collision;
    bumping each back label refutes every one of them."""
    m = doubled_polygon(b_profile(rng.choice((0, 1, 2))))
    base = random_base(rng)
    labels = {
        (0, j): FreeProductWord.g(base, random_base_element(base, rng))
        for j in range(len(m.faces[0]))
    }
    for v in m.vertices():
        (_, jf), (fb, jb) = sorted(v)
        labels[(fb, jb)] = labels[(0, jf)].inverse()
    edge_labels = {e: 1 for e in m.edge_ids}
    ms = standard_motion(m)
    audit = audit_standard_collisions(HowieDiagram(m, labels, edge_labels), ms)
    records = audit["vertices"]
    if audit["passes"] or not records or any(r["refuted"] for r in records):
        return ["mirror labels must satisfy every collision"]
    bump = FreeProductWord.g(base, base.generators()[0])
    for record in records:
        back = max(record["vertex"])
        labels[back] = labels[back] * bump
    audit = audit_standard_collisions(HowieDiagram(m, labels, edge_labels), ms)
    if not audit["passes"] or not all(r["refuted"] for r in audit["vertices"]):
        return ["perturbed labels must refute every collision"]
    return []


def _diagrams_case(rng) -> list[str]:
    return _phi_chain_problems(rng) + _mirror_audit_problems(rng)


SUITES = {
    "weights": _weights_case,
    "collisions": _collisions_case,
    "rewriting": _rewriting_case,
    "diagrams": _diagrams_case,
}

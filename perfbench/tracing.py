"""Spans around the program's public entry points, installed from outside.

`Tracer.installed()` wraps a fixed list of public functions and rebinds
each wrapped name in every `spheremotion.*` module that holds it, so
internal calls through module globals are traced too.  On `OrientedMap`
and on the group classes of `spheremotion.groups` the wrappers sit on the
class itself.  Spans (name, start, end, parent
span, job id) stay in memory; work counts are computed from the call
arguments and results after the span has closed, so they cost no span
time.  Nothing is recorded outside a job.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd, lcm

from spheremotion.groups import FreeAbelianGroup, FreeGroup, FreeProductWord
from spheremotion.surface import OrientedMap

LAYERS = ("cli", "jsonio", "surface", "motion", "comotion", "groups",
          "rewriting", "diagram", "fuzzing")

FUNCTIONS = {
    "cli": ("main", "build_parser", "cmd_validate", "cmd_motion", "cmd_comotion",
            "cmd_word", "cmd_diagram", "cmd_fuzz"),
    "jsonio": ("parse_map", "parse_motion", "parse_comotion", "parse_word",
               "parse_presentation", "parse_diagram", "dumps", "map_to_json",
               "motion_to_json", "comotion_to_json", "word_to_json",
               "presentation_to_json", "diagram_to_json"),
    "surface": ("classify_map", "subdivide_edge"),
    "motion": ("complete_collisions", "corner_occupancy", "check_separated_stops",
               "is_regular", "verify_source_sink_collisions", "multiplicities",
               "lemma16_bound", "standard_motion", "standard_multiple_motion",
               "blow_up"),
    "comotion": ("edge_components", "comotion_collisions", "weight_report",
                 "lemma11_check", "lemma14_total", "induce_comotion",
                 "subdivide_comotion"),
    "rewriting": ("rewrite_word", "minimize_presentation", "check_minimality",
                  "reconstruct_relator", "is_conjugate_to_t_pm_g",
                  "is_difficult_pattern", "main_theorem_verdict"),
    "diagram": ("find_reducible_pair", "is_phi_cell", "is_phi_reduced",
                "check_diagram_over", "phi_reduce_move", "face_cells",
                "audit_standard_collisions", "bad_contact_report", "lemma17_audit"),
    "fuzzing": ("random_shape_map", "random_sphere_map", "random_torus_map",
                "random_subdivisions", "random_comotion", "random_multiple_motion",
                "random_unit_sum_word", "random_base", "random_base_element",
                "doubled_polygon", "pinwheel_variant"),
}

# (class, method, span name); the groups layer is its word and base-group
# arithmetic, which the word, diagram and rewriting jobs reach as methods
METHODS = (
    (OrientedMap, "__post_init__", "surface.construct"),
    (OrientedMap, "vertices", "surface.vertices"),
    (OrientedMap, "dart_owner", "surface.dart_owner"),
    (FreeProductWord, "__post_init__", "groups.construct"),
    *((FreeProductWord, name, f"groups.{name}") for name in (
        "from_syllables", "__mul__", "__pow__", "inverse", "conjugate_by",
        "shift_copies", "cyclic_decompose", "cyclic_reduce", "is_conjugate_to",
        "is_power_of", "unit_syllables")),
    *((cls, name, f"groups.{cls.__name__}.{name}")
      for cls in (FreeGroup, FreeAbelianGroup)
      for name in ("multiply", "inverse", "power", "cyclic_membership", "is_conjugate")
      if name in cls.__dict__),
)

# span names whose distinct argument tuples are counted per job
DISTINCT = ("motion.complete_collisions", "surface.vertices", "comotion.edge_components")


def _horizon(ms) -> Fraction:
    """lcm of the schedule period and the car periods, as rationals."""
    values = [Fraction(ms.period)] + [Fraction(c.period) for c in ms.cars]
    num = lcm(*(v.numerator for v in values))
    den = 0
    for v in values:
        den = gcd(den, v.denominator)
    return Fraction(num, den)


def collision_work(m, ms) -> tuple:
    """(replicated segments, segment pairs the edge search loops over)."""
    horizon = _horizon(ms)
    segments = {}
    for k, car in enumerate(ms.cars):
        segments[k] = int(horizon / car.period) * len(car.breakpoints)
    owner = {d: f for f, b in enumerate(m.faces) for d in b}
    on_face = defaultdict(int)
    for k, car in enumerate(ms.cars):
        on_face[car.face] += segments[k]
    edges = {e for b in m.faces for e, _ in b}
    pairs = sum(on_face[owner[(e, 1)]] * on_face[owner[(e, -1)]] for e in edges)
    return sum(segments.values()), pairs


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, job id)
        self.stack = []
        self.job = None
        self.counts = Counter()
        self.distinct = Counter()  # name -> distinct argument tuples, summed over jobs
        self._seen = defaultdict(set)
        self._swaps = None  # bindings, computed on first use

    # -- jobs ----------------------------------------------------------------

    def begin(self, job_id) -> None:
        self.job = job_id

    def end(self) -> None:
        self.job = None
        for name, seen in self._seen.items():
            self.distinct[name] += len(seen)
        self._seen.clear()

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        hook = _HOOKS.get(name)
        distinct = name in DISTINCT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.job)
            if distinct:
                tracer._seen[name].add((args, tuple(sorted(kwargs.items()))))
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def _bindings(self) -> list:
        """(owner, attribute, original, wrapper) for every traced name."""
        modules = [mod for key, mod in sys.modules.items()
                   if key == "spheremotion" or key.startswith("spheremotion.")]
        out = []
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"spheremotion.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            out.append((mod, attr, original, wrapper))
        for cls, method, name in METHODS:
            original = cls.__dict__[method]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(name, original.__func__))
            else:
                wrapper = self._wrap(name, original)
            out.append((cls, method, original, wrapper))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the duration; the originals afterwards."""
        if self._swaps is None:
            self._swaps = self._bindings()
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._swaps:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple:
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, own = Counter(), Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child[k]
        return calls, own

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\tjob\n")
            for name, start, end, parent, job in self.spans:
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")


def _count_collisions(counts, args, result):
    segments, pairs = collision_work(args[0], args[1])
    counts["motion.replicated_segments"] += segments
    counts["motion.segment_pairs"] += pairs


def _count_moves(counts, args, result):
    counts["rewriting.moves"] += len(result.trace)


def _count_retries(counts, args, result):
    counts["motion.blow_up.retries"] += result[2]["retries"]


def _count_corners(counts, args, result):
    counts["surface.corners_constructed"] += sum(len(b) for b in args[0].faces)


_HOOKS = {
    "motion.complete_collisions": _count_collisions,
    "rewriting.rewrite_word": _count_moves,
    "motion.blow_up": _count_retries,
    "surface.construct": _count_corners,
}


def layer_metrics(tracer: Tracer, job_seconds: float, untraced: float,
                  traced_common: float, io_bytes: tuple) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced pass."""
    calls, own = tracer.self_times()
    out = {}

    def add(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def total(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    for layer in LAYERS:
        add(f"{layer}.calls", total(layer + ".", calls), "count")
        add(f"{layer}.self_s", total(layer + ".", own), "s")
        add(f"{layer}.share", total(layer + ".", own) / job_seconds, "ratio")

    def ratio(name):
        return tracer.distinct[name] / calls[name] if calls[name] else 0.0

    add("cli.build_parser.self_s", own["cli.build_parser"], "s")
    add("jsonio.parse.self_s", total("jsonio.parse_", own), "s")
    add("jsonio.serialize.self_s",
        own["jsonio.dumps"] + sum(v for k, v in own.items()
                                  if k.startswith("jsonio.") and k.endswith("_to_json")),
        "s")
    add("jsonio.bytes_in", io_bytes[0], "B")
    add("jsonio.bytes_out", io_bytes[1], "B")
    add("surface.construct.calls", calls["surface.construct"], "count")
    add("surface.construct.self_s", own["surface.construct"], "s")
    add("surface.corners_constructed", tracer.counts["surface.corners_constructed"], "count")
    add("surface.vertices.calls", calls["surface.vertices"], "count")
    add("surface.vertices.self_s", own["surface.vertices"], "s")
    add("surface.vertices.distinct_ratio", ratio("surface.vertices"), "ratio")
    add("surface.dart_owner.calls", calls["surface.dart_owner"], "count")
    add("surface.dart_owner.self_s", own["surface.dart_owner"], "s")
    cc = "motion.complete_collisions"
    pairs = tracer.counts["motion.segment_pairs"]
    add(f"{cc}.calls", calls[cc], "count")
    add(f"{cc}.self_s", own[cc], "s")
    add(f"{cc}.distinct_ratio", ratio(cc), "ratio")
    add(f"{cc}.us_per_segment_pair", own[cc] * 1e6 / pairs if pairs else 0.0, "us")
    add("motion.replicated_segments", tracer.counts["motion.replicated_segments"], "count")
    add("motion.segment_pairs", pairs, "count")
    for name in ("corner_occupancy", "check_separated_stops", "blow_up"):
        add(f"motion.{name}.self_s", own[f"motion.{name}"], "s")
    add("motion.blow_up.retries", tracer.counts["motion.blow_up.retries"], "count")
    ec = "comotion.edge_components"
    add(f"{ec}.calls", calls[ec], "count")
    add(f"{ec}.self_s", own[ec], "s")
    add(f"{ec}.distinct_ratio", ratio(ec), "ratio")
    add("comotion.weight_report.self_s", own["comotion.weight_report"], "s")
    add("comotion.lemma14_total.self_s", own["comotion.lemma14_total"], "s")
    add("groups.is_conjugate_to.calls", calls["groups.is_conjugate_to"], "count")
    add("groups.is_conjugate_to.self_s", own["groups.is_conjugate_to"], "s")
    add("rewriting.rewrite_word.self_s", own["rewriting.rewrite_word"], "s")
    add("rewriting.moves", tracer.counts["rewriting.moves"], "count")
    for name in ("lemma17_audit", "bad_contact_report", "phi_reduce_move",
                 "check_diagram_over"):
        add(f"diagram.{name}.self_s", own[f"diagram.{name}"], "s")
    add("trace.overhead_ratio", traced_common / untraced if untraced else 0.0, "ratio")
    return out

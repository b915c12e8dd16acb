"""Rewriting words with exponent sum one into relative presentations.

A word w in G * <t> with total t-exponent 1 is conjugate to a relator of the
shape c t (b_0 t^-1 a_0 t) ... (b_m t^-1 a_m t) over H = G(0) * ... * G(s).
This module produces that shape, minimizes (s, m) by the substitution moves,
and builds the auxiliary elements used by the augmented presentations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .groups import (
    BaseGroup,
    FreeGroup,
    FreeProductWord,
    GroupError,
    free_subgroup_probe,
)


class RewriteError(ValueError):
    pass


T_SYMBOL = 1  # the rewriting acts on the single stable letter t_1


# ---------------------------------------------------------------------------
# shifted form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftedForm:
    """w ~ product of g_i^(t^{k_i}) times t, with min k_i = 0.

    pairs holds (g_i, eps_i) for the unit t-letters in rotated reading order;
    g_i is a base element (possibly the identity inside t-runs).
    """

    base: BaseGroup
    pairs: Tuple[Tuple[object, int], ...]
    k: Tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.pairs)

    def signs(self) -> Tuple[int, ...]:
        return tuple(e for _, e in self.pairs)

    def reassembled(self) -> FreeProductWord:
        """The word prod_i t^-k_i g_i t^k_i times t; conjugate to the input."""
        syls = []
        for (g, _), k in zip(self.pairs, self.k):
            syls += [("t", T_SYMBOL, -k), ("g", 0, g), ("t", T_SYMBOL, k)]
        syls.append(("t", T_SYMBOL, 1))
        return FreeProductWord.from_syllables(self.base, syls)


def _validate_coefficient_word(w: FreeProductWord) -> None:
    for tag, idx, _ in w.syllables:
        if tag == "g" and idx != 0:
            raise RewriteError("input word must use base copy 0 only")
        if tag == "t" and idx != T_SYMBOL:
            raise RewriteError(f"input word must use t_{T_SYMBOL} only")


def to_shifted_form(w: FreeProductWord) -> ShiftedForm:
    """Shifted form of a cyclically reduced word with t-exponent sum 1."""
    _validate_coefficient_word(w)
    w = w.cyclic_reduce()
    if w.exponent_sum(T_SYMBOL) != 1:
        raise RewriteError("shifted form requires t-exponent sum 1")
    syls = list(w.syllables)
    last_t = max(i for i, s in enumerate(syls) if s[0] == "t")
    rotated = syls[last_t + 1 :] + syls[: last_t + 1]

    pairs: List[Tuple[object, int]] = []
    pending = w.base.identity
    for tag, idx, val in rotated:
        if tag == "g":
            pending = w.base.multiply(pending, val)
        else:
            step = 1 if val > 0 else -1
            for _ in range(abs(val)):
                pairs.append((pending, step))
                pending = w.base.identity
    # rotated form ends with a t-letter, so nothing is pending here
    assert w.base.is_identity(pending)

    k: List[int] = []
    sigma = 0
    for _, eps in pairs:
        k.append(-sigma)
        sigma += eps
    low = min(k)
    k = [x - low for x in k]
    return ShiftedForm(w.base, tuple(pairs), tuple(k))


# ---------------------------------------------------------------------------
# relative presentation data and membership helpers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelativePresentationData:
    """Data (s, m, c, b_i, a_i) of a relator over H = G(0) * ... * G(s).

    The relator is c t (b_0 t^-1 a_0 t) ... (b_m t^-1 a_m t); m = -1 means no
    (b, a) pairs at all.  P is generated by copies 0..s-1 and P^phi by copies
    1..s, where phi shifts every copy up by one.
    """

    base: BaseGroup
    s: int
    m: int
    c: FreeProductWord
    b: Tuple[FreeProductWord, ...]
    a: Tuple[FreeProductWord, ...]

    def __post_init__(self):
        if self.s < 0 or self.m < -1:
            raise RewriteError(f"bad (s, m) = ({self.s}, {self.m})")
        if len(self.b) != self.m + 1 or len(self.a) != self.m + 1:
            raise RewriteError("a and b lists must have length m + 1")
        for w in (self.c, *self.b, *self.a):
            if w.base != self.base:
                raise RewriteError("mixed base groups in presentation data")
            if w.has_t():
                raise RewriteError("coefficients must lie in H (no t letters)")
            if any(i > self.s for i in w.copies_used()):
                raise RewriteError(f"coefficient uses a copy above s = {self.s}")

    def relator(self) -> FreeProductWord:
        """The relator c t prod_i (b_i t^-1 a_i t) as a word over H and t."""
        t, t_inv = ("t", T_SYMBOL, 1), ("t", T_SYMBOL, -1)
        syls = [*self.c.syllables, t]
        for bi, ai in zip(self.b, self.a):
            syls += [*bi.syllables, t_inv, *ai.syllables, t]
        return FreeProductWord.join(self.base, syls)

    def copies_in_coefficients(self) -> frozenset:
        used = frozenset()
        for w in (self.c, *self.b, *self.a):
            used |= w.copies_used()
        return used


def in_P(w: FreeProductWord, s: int) -> bool:
    """Membership in P = <copies 0..s-1>; structural in a free product."""
    return not w.has_t() and all(i < s for i in w.copies_used())


def in_P_phi(w: FreeProductWord, s: int) -> bool:
    return not w.has_t() and all(1 <= i <= s for i in w.copies_used())


def phi(w: FreeProductWord) -> FreeProductWord:
    return w.shift_copies(1)


def phi_inv(w: FreeProductWord) -> FreeProductWord:
    if 0 in w.copies_used():
        raise RewriteError("phi^-1 undefined: word touches copy 0")
    return w.shift_copies(-1)


def initial_data(sf: ShiftedForm) -> RelativePresentationData:
    """Starting presentation: s = max k_i, m = -1, c = prod g_i^(k_i).

    `sf` comes from `to_shifted_form`, whose g_i are products of a checked
    word's elements, so c is joined without validating them again."""
    syls = [("g", k, g) for (g, _), k in zip(sf.pairs, sf.k)]
    c = FreeProductWord.join(sf.base, syls)
    return RelativePresentationData(sf.base, max(sf.k), -1, c, (), ())


# ---------------------------------------------------------------------------
# minimization moves
# ---------------------------------------------------------------------------


def _split_at_top_copy(c: FreeProductWord, s: int):
    """Write c = h_0 g_1^(s) h_1 ... g_r^(s) h_r; returns (h_words, top_words)."""
    cuts = [i for i, syl in enumerate(c.syllables) if syl[0] == "g" and syl[1] == s]
    starts = [0] + [i + 1 for i in cuts]
    h_words = [c.span(i, j) for i, j in zip(starts, cuts + [len(c)])]
    return h_words, [c.span(i, i + 1) for i in cuts]


def move_lower_s(data: RelativePresentationData) -> RelativePresentationData:
    """Trade every copy-s letter of c for an (a, b) pair one level down.

    Applies when m = -1 and s > 0.  Substituting g^(s) = (g^(s-1))^t and
    rotating the relator to start at the trailing h-run realizes the move.
    """
    if data.m != -1 or data.s == 0:
        raise RewriteError("move applies only at m = -1 with s > 0")
    h_words, tops = _split_at_top_copy(data.c, data.s)
    r = len(tops)
    return _unchecked_data(
        data.base,
        data.s - 1,
        r - 1,
        h_words[r],
        tuple(h_words[:r]),
        tuple(phi_inv(top) for top in tops),
    )


def move_absorb_b(data: RelativePresentationData, i: int) -> RelativePresentationData:
    """Remove a pair via b_i in P^phi, replacing t b_i t^-1 by b_i^(phi^-1)."""
    if not 0 <= i <= data.m:
        raise RewriteError(f"index {i} out of range")
    bi = data.b[i]
    if not in_P_phi(bi, data.s):
        raise RewriteError(f"b_{i} is not in P^phi")
    if i == 0:
        new_c = data.c * phi_inv(bi) * data.a[0]
        return _unchecked_data(data.base, data.s, data.m - 1, new_c, data.b[1:], data.a[1:])
    merged = data.a[i - 1] * phi_inv(bi) * data.a[i]
    new_a = data.a[: i - 1] + (merged,) + data.a[i + 1 :]
    new_b = data.b[:i] + data.b[i + 1 :]
    return _unchecked_data(data.base, data.s, data.m - 1, data.c, new_b, new_a)


def _unchecked_data(base, s, m, c, b, a) -> RelativePresentationData:
    """`RelativePresentationData(base, s, m, c, b, a)` without `__post_init__`,
    for a move on checked data: every coefficient is a cut, copy shift or
    product of that data's t-free words over its base, with copies at most
    s, and b and a have m + 1 words each."""
    data = object.__new__(RelativePresentationData)
    data.__dict__.update(base=base, s=s, m=m, c=c, b=b, a=a)
    return data


def minimize_presentation(
    data: RelativePresentationData,
) -> Tuple[RelativePresentationData, Tuple[Tuple[str, int], ...]]:
    """Drive two moves to a fixpoint, minimizing s first and then m: lower
    s at m = -1, else absorb the first pair with b_i in P^phi.

    From `initial_data` the fixpoint meets `check_minimality`, which still
    tests each condition on its own, because no move cancels a letter.
    Under `substitute_copies` each relator spells the input's cyclically
    reduced word letter for letter, and consecutive letters lie at different
    t-heights, so syllables a move puts side by side (c and a_0 too, when
    b_0 is empty) lie in different copies.  A lowering makes each a_i one
    copy-s letter and each b_i, i >= 1, nonempty; absorbing joins
    a_(i-1) phi^-1(b_i) a_i or c phi^-1(b_0) a_0.  So each a_i starts and
    ends in copy s, outside P; while m >= 0, a_0 keeps copy s in use; and c
    gains a_0's copy-s letters as m returns to -1, so every lowering has
    r >= 1 (the first too: a highest letter sits between t^-1 and t).
    """
    trace: List[Tuple[str, int]] = []
    for _ in range(10000):
        if data.m == -1 and data.s > 0:
            data = move_lower_s(data)
            trace.append(("lower", data.s))
            continue
        i = next((j for j in range(data.m + 1) if in_P_phi(data.b[j], data.s)), None)
        if i is None:
            return data, tuple(trace)
        data = move_absorb_b(data, i)
        trace.append(("absorb_b", i))
    raise RuntimeError("minimization failed to terminate")


def check_minimality(data: RelativePresentationData) -> dict:
    """Structural minimality conditions on fixpoint data."""
    cond_pairs = data.m >= 0
    cond_a = all(not in_P(ai, data.s) for ai in data.a)
    cond_b = all(not in_P_phi(bi, data.s) for bi in data.b)
    cond_top = data.s == 0 or data.s in data.copies_in_coefficients()
    return {
        "has_pairs": cond_pairs,
        "a_outside_P": cond_a,
        "b_outside_P_phi": cond_b,
        "top_copy_used": cond_top,
    }


# ---------------------------------------------------------------------------
# end-to-end rewriting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RewriteResult:
    word: FreeProductWord
    inverted: bool
    shifted: ShiftedForm
    initial: RelativePresentationData
    data: RelativePresentationData
    trace: Tuple[Tuple[str, int], ...]

    @property
    def n(self) -> int:
        return self.shifted.n

    @property
    def n_is_one(self) -> bool:
        """The excluded one-t-letter case (relator c t, m stays -1)."""
        return self.n == 1


def rewrite_word(w: FreeProductWord) -> RewriteResult:
    """Full pipeline: orient, cyclically reduce, shift, minimize."""
    _validate_coefficient_word(w)
    total = w.exponent_sum(T_SYMBOL)
    if total not in (1, -1):
        raise RewriteError(f"t-exponent sum must be +-1, got {total}")
    inverted = total == -1
    oriented = w.inverse() if inverted else w
    sf = to_shifted_form(oriented)
    start = initial_data(sf)
    data, trace = minimize_presentation(start)
    return RewriteResult(w, inverted, sf, start, data, trace)


def substitute_copies(w: FreeProductWord) -> FreeProductWord:
    """Send g^(i) to t^-i g t^i, collapsing H-words back into G * <t>."""
    syls = []
    for tag, idx, val in w.syllables:
        if tag == "g":
            syls += [("t", T_SYMBOL, -idx), ("g", 0, val), ("t", T_SYMBOL, idx)]
        else:
            syls.append((tag, idx, val))
    return FreeProductWord.join(w.base, syls)


def reconstruct_relator(data: RelativePresentationData) -> FreeProductWord:
    """The relator pushed back into G * <t>; conjugate to the rewritten word."""
    return substitute_copies(data.relator())


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def is_difficult_pattern(signs: Sequence[int]) -> bool:
    """Sign pattern test: some rotation equals + (- +)^(m+1) for some m >= 0."""
    n = len(signs)
    if n < 3 or n % 2 == 0 or sum(signs) != 1:
        return False
    target = (1,) + (-1, 1) * ((n - 1) // 2)
    doubled = tuple(signs) + tuple(signs)
    return any(doubled[i : i + n] == target for i in range(n))


def is_difficult_case(w: FreeProductWord) -> bool:
    """True iff minimization lands at s = 0 with at least one (a, b) pair."""
    res = rewrite_word(w)
    return res.data.s == 0 and res.data.m >= 0


def is_conjugate_to_t_pm_g(w: FreeProductWord) -> bool:
    """True iff w is conjugate to t g or t^-1 g for some g in G."""
    _validate_coefficient_word(w)
    core = w.cyclic_reduce()
    units = sum(abs(s[2]) for s in core.syllables if s[0] == "t")
    return units == 1


def main_theorem_verdict(g_is_simple: bool, w: FreeProductWord) -> dict:
    """Simplicity criterion for G * <t> modulo the normal closure of w."""
    tg_form = is_conjugate_to_t_pm_g(w)
    verdict = g_is_simple and tg_form
    failing = []
    if not g_is_simple:
        failing.append("base group is not simple")
    if not tg_form:
        failing.append("word is not conjugate to t^{+-1} g")
    return {
        "simple": verdict,
        "g_is_simple": g_is_simple,
        "conjugate_to_t_pm_g": tg_form,
        "failing": tuple(failing),
    }


# ---------------------------------------------------------------------------
# auxiliary elements (free factor complements)
# ---------------------------------------------------------------------------


def _copy_generators(base: BaseGroup, copies: Sequence[int]) -> List[FreeProductWord]:
    gens = []
    for i in sorted(copies):
        for g in base.generators():
            gens.append(FreeProductWord.from_syllables(base, [("g", i, g)]))
    return gens


def _is_cyclic_factor(base: BaseGroup, copies) -> bool:
    return len(copies) == 1 and base.rank == 1


def primitive_root_word(w: FreeProductWord) -> Tuple[FreeProductWord, int]:
    """Return (r, e) with w = r**e and e >= 1 maximal; w must be nontrivial."""
    if w.is_identity():
        raise GroupError("identity has no primitive root")
    u, core = w.cyclic_decompose()
    syls = core.syllables
    n = len(syls)
    if n >= 2:
        for d in range(1, n + 1):
            if n % d == 0 and syls[:d] * (n // d) == syls:
                block = core.span(0, d)
                return u * block * u.inverse(), n // d
    tag, idx, val = syls[0]
    if tag == "t":
        e = abs(val)
        root = FreeProductWord.from_syllables(w.base, [("t", idx, val // e)])
    elif isinstance(w.base, FreeGroup):
        r, e = w.base.primitive_root(val)
        root = FreeProductWord.from_syllables(w.base, [("g", idx, r)])
    else:
        e = math.gcd(*(abs(c) for c in val))
        root = FreeProductWord.from_syllables(
            w.base, [("g", idx, tuple(c // e for c in val))]
        )
    return u * root * u.inverse(), e


def _shares_root(x: FreeProductWord, y: FreeProductWord) -> bool:
    """True iff <x, y> is cyclic, via common primitive roots."""
    if x.is_identity() or y.is_identity():
        return True
    rx, _ = primitive_root_word(x)
    ry, _ = primitive_root_word(y)
    return rx == ry or rx == ry.inverse()


def _ends_outside(w: FreeProductWord, copies) -> Tuple[int, int]:
    """Indices of the first and last syllable of w whose factor index is
    outside `copies`; w must have one."""
    outside = [i for i, syl in enumerate(w.syllables) if syl[1] not in copies]
    return outside[0], outside[-1]


def lemma1_v(
    base: BaseGroup,
    A_copies: Sequence[int],
    B_copies: Sequence[int],
    u: FreeProductWord,
) -> FreeProductWord:
    """An element v = b^-1 a b with <A, u, v> = <A, u> * <v>, v of infinite order.

    A and B are disjoint sets of base copies inside their free product; A must
    be nontrivial, B noncyclic, u in <A u B> but not in <A>.
    """
    A = frozenset(A_copies)
    B = frozenset(B_copies)
    if A & B:
        raise RewriteError("A and B must be disjoint copy sets")
    if not A:
        raise RewriteError("A must be a nontrivial free factor")
    if not B or _is_cyclic_factor(base, B):
        raise RewriteError("B must be a noncyclic free factor")
    if u.base != base or u.has_t():
        raise RewriteError("u must be a t-free word over the given base")
    if not u.copies_used() <= (A | B):
        raise RewriteError("u must lie in the span of A and B")
    if u.copies_used() <= A:
        raise RewriteError("u must not lie in A")

    # factor u = pre * u0 * suf with pre, suf in A; <A, u> = <A, u0>
    first, last = _ends_outside(u, A)
    u0 = u.span(first, last + 1)

    b_gens = _copy_generators(base, B)
    if u0.copies_used() <= B:
        # B noncyclic, so not every generator can share a root with u0
        b = next((g for g in b_gens if not _shares_root(g, u0)), None)
        if b is None:
            raise RewriteError("no independent generator found in B")
    else:
        # u0 = b_1 a_1 ... b_k alternating; dodge the flanking B-runs
        first, last = _ends_outside(u0, B)
        b1 = u0.span(0, first)
        bk = u0.span(last + 1, len(u0))
        banned = {b1, b1.inverse(), bk, bk.inverse()}
        x, y = b_gens[0], b_gens[1]
        candidates = [x, y, x * y, x * y.inverse(), x * x * y]
        b = next(c for c in candidates if c not in banned)

    a_copy = min(A)
    a = FreeProductWord.from_syllables(base, [("g", a_copy, base.generators()[0])])
    return b.inverse() * a * b


def _probe_freeness(samples, s: int, depth: int, with_p, with_p_phi,
                    p_message: str, p_phi_message: str) -> None:
    """Spot-check each nontrivial sample p: <p, *with_p> must look free up to
    `depth` when p lies in P, and <p, *with_p_phi> when p lies in P^phi;
    RewriteError with the matching message otherwise."""
    for p in samples:
        if p.is_identity():
            continue
        if in_P(p, s) and not free_subgroup_probe([p, *with_p], depth):
            raise RewriteError(p_message)
        if in_P_phi(p, s) and not free_subgroup_probe([p, *with_p_phi], depth):
            raise RewriteError(p_phi_message)


def lemma2_auxiliary(
    data: RelativePresentationData,
    i: int,
    probe_depth: int = 0,
    samples: Sequence[FreeProductWord] = (),
) -> Tuple[FreeProductWord, FreeProductWord]:
    """Auxiliary pair (a'_i, b'_i) with <P, a_i, a'_i> = P * <a_i> * <a'_i>
    and the mirror property for b'_i; needs a noncyclic base and s >= 1.

    When probe_depth > 0, the factorization is spot-checked on cyclic
    subgroups <p> of P (resp. P^phi) drawn from samples: <p, a_i, a'_i> must
    look free of rank 3 up to the given depth.  Probing whole generating sets
    of P would be wrong for abelian bases, where distinct P-generators
    commute.
    """
    if base_is_cyclic(data.base):
        raise RewriteError("auxiliary elements need a noncyclic base group")
    if data.s < 1:
        raise RewriteError("auxiliary elements need a nontrivial P (s >= 1)")
    if not 0 <= i <= data.m:
        raise RewriteError(f"index {i} out of range")
    lower = list(range(data.s))
    upper = list(range(1, data.s + 1))
    a_prime = lemma1_v(data.base, lower, [data.s], data.a[i])
    b_prime = lemma1_v(data.base, upper, [0], data.b[i])
    if probe_depth:
        message = "auxiliary pair failed the freeness probe"
        _probe_freeness(samples, data.s, probe_depth, (data.a[i], a_prime),
                        (data.b[i], b_prime), message, message)
    return a_prime, b_prime


def base_is_cyclic(base: BaseGroup) -> bool:
    return base.rank == 1


# ---------------------------------------------------------------------------
# augmented presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelativePresentation:
    """A presentation of H * <t> / <<relators>>, optionally with the phi
    family p^t = p^phi for p in P adjoined (s >= 1)."""

    base: BaseGroup
    s: int
    relators: Tuple[FreeProductWord, ...]
    has_phi: bool

    def __post_init__(self):
        for r in self.relators:
            if r.base != self.base:
                raise RewriteError("relator over a different base")
            if not r.has_t():
                raise RewriteError("relators must involve t")
            if any(i > self.s for i in r.copies_used()):
                raise RewriteError("relator uses a copy above s")


def build_augmented_presentation(
    data: RelativePresentationData,
    a: FreeProductWord,
    b: FreeProductWord,
    d: int,
    power: int,
    probe_depth: int = 4,
    samples: Sequence[FreeProductWord] = (),
) -> Tuple[RelativePresentation, dict]:
    """Adjoin the relator (t^-d a t^d b)^power to the presentation of data.

    power = 4 requires s = 0 and the hypotheses a^2 not in <a_m>, b^2 not in
    <b_0>; power = 1 requires s >= 1 and spot-checks the freeness of
    <P, a_m, a> and <P^phi, b_0, b> on the provided P-samples.
    """
    if data.m < 0:
        raise RewriteError("augmentation needs at least one (a, b) pair")
    if d < 1:
        raise RewriteError(f"shift distance d must be >= 1, got {d}")
    for w in (a, b):
        if w.base != data.base or w.has_t():
            raise RewriteError("a and b must be t-free words over the base")
        if any(i > data.s for i in w.copies_used()):
            raise RewriteError("a and b must lie in H")

    if power == 4:
        if data.s != 0:
            raise RewriteError("the fourth-power relator applies only at s = 0")
        if (a * a).is_power_of(data.a[data.m]):
            raise RewriteError("hypothesis violated: a^2 is a power of a_m")
        if (b * b).is_power_of(data.b[0]):
            raise RewriteError("hypothesis violated: b^2 is a power of b_0")
    elif power == 1:
        if data.s < 1:
            raise RewriteError("the single-power relator applies only at s >= 1")
        _probe_freeness(samples, data.s, probe_depth, (data.a[data.m], a), (data.b[0], b),
                        "freeness probe failed for <P, a_m, a>",
                        "freeness probe failed for <P^phi, b_0, b>")
    else:
        raise RewriteError(f"power must be 1 or 4, got {power}")

    t = FreeProductWord.t(data.base, T_SYMBOL, 1)
    cell = (t ** (-d)) * a * (t ** d) * b
    extra = cell ** power
    pres = RelativePresentation(
        data.base,
        data.s,
        (data.relator(), extra),
        has_phi=data.s >= 1,
    )
    report = {
        "power": power,
        "d": d,
        "extra_sign_pattern": extra.t_sign_sequence(T_SYMBOL),
        "face_type": "d" if power == 1 else "c",
        "face_k": d - 1,
        "face_l": d - 1,
        "face_s": 1 if power == 1 else 4,
    }
    return pres, report

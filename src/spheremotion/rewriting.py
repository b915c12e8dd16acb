"""Rewriting words with exponent sum one into relative presentations.

A word w in G * <t> with total t-exponent 1 is conjugate to a relator of the
shape c t (b_0 t^-1 a_0 t) ... (b_m t^-1 a_m t) over H = G(0) * ... * G(s).
This module produces that shape and minimizes (s, m) by the substitution
moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import InputError
from .groups import BaseGroup, FreeProductWord


class RewriteError(InputError):
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

    @property
    def difficult(self) -> bool:
        """The difficult case: s = 0 with at least one (b, a) pair."""
        return self.s == 0 and self.m >= 0

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
    return all(tag == "g" and i < s for tag, i, _ in w.syllables)


def in_P_phi(w: FreeProductWord, s: int) -> bool:
    return all(tag == "g" and 1 <= i <= s for tag, i, _ in w.syllables)


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


# the most unit t-letters `rewrite_word` expands.  The shifted form holds
# one pair per letter: `word W rewrite` on a t^N b t^-(N-1) with 249,999
# letters peaks at 66 MB of RSS, 44 MB above the import, in 0.5 s (Python
# 3.11, x86-64), and the peak grows linearly with the letters
MAX_T_LETTERS = 250_000


def rewrite_word(w: FreeProductWord) -> RewriteResult:
    """Full pipeline: orient, cyclically reduce, shift, minimize.

    A word with more than `MAX_T_LETTERS` unit t-letters is refused after
    the exponent-sum check and before any is expanded: the letters are
    counted from the t-runs' exponents."""
    _validate_coefficient_word(w)
    total = w.exponent_sum(T_SYMBOL)
    if total not in (1, -1):
        raise RewriteError(f"t-exponent sum must be +-1, got {total}")
    letters = w.t_letters(T_SYMBOL)
    if letters > MAX_T_LETTERS:
        raise RewriteError(
            f"word has {letters} t-letters; a rewrite expands at most {MAX_T_LETTERS}")
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
    """Sign pattern test: some rotation equals + (- +)^(m+1) for some m >= 0.

    For n odd >= 3, signs all +-1 and sum 1, there are (n - 1) / 2 minus
    signs among n; they fit between the plus signs exactly when no two of
    them are cyclically adjacent, so one pass decides it."""
    n = len(signs)
    if n < 3 or n % 2 == 0 or sum(signs) != 1 or any(s not in (1, -1) for s in signs):
        return False
    return all(signs[i] == 1 or signs[i - 1] == 1 for i in range(n))


def is_difficult_case(w: FreeProductWord) -> bool:
    """True iff minimization lands at s = 0 with at least one (a, b) pair."""
    return rewrite_word(w).data.difficult


def is_conjugate_to_t_pm_g(w: FreeProductWord) -> bool:
    """True iff w is conjugate to t g or t^-1 g for some g in G."""
    _validate_coefficient_word(w)
    core = w.cyclic_reduce()
    return core.t_letters(T_SYMBOL) == 1


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
# presentations the diagram audits check against
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

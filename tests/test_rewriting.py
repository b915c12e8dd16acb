import itertools

import pytest
from hypothesis import given, settings, strategies as st

from spheremotion import fuzzing, rewriting
from spheremotion.fuzzing import make_rng, random_base_element, random_unit_sum_word
from spheremotion.groups import FreeAbelianGroup, FreeGroup, FreeProductWord
from spheremotion.rewriting import (
    T_SYMBOL,
    RelativePresentationData,
    RewriteError,
    RewriteResult,
    check_minimality,
    in_P,
    in_P_phi,
    is_conjugate_to_t_pm_g,
    is_difficult_case,
    is_difficult_pattern,
    main_theorem_verdict,
    minimize_presentation,
    move_absorb_b,
    move_lower_s,
    reconstruct_relator,
    rewrite_word,
    substitute_copies,
    to_shifted_form,
)
from word_oracle import difficult_pattern_by_rotation, reassembled, word

F2 = FreeGroup(2)
F3 = FreeGroup(3)
F9 = FreeGroup(9)
Z2 = FreeAbelianGroup(2)


def chain(base, *letters_and_eps):
    """Build g_1 t^e1 g_2 t^e2 ... from (literal, eps) pairs."""
    items = []
    for lit, eps in letters_and_eps:
        items.append(("g", 0, base.parse(lit)))
        items.append(("t", 1, eps))
    return FreeProductWord.from_syllables(base, items)


def g_at(base, copy, literal):
    return FreeProductWord.from_syllables(base, [("g", copy, base.parse(literal))])


# ---------------------------------------------------------------------------
# shifted form
# ---------------------------------------------------------------------------


def test_shifted_form_single_letter():
    sf = to_shifted_form(word(F2, "a", ("t", 1, 1)))
    assert sf.n == 1
    assert sf.k == (0,)
    assert sf.pairs == ((F2.parse("a"), 1),)


def test_shifted_form_spec_examples():
    sf = to_shifted_form(chain(F3, ("a", 1), ("b", 1), ("c", -1)))
    assert sf.k == (2, 1, 0)
    sf = to_shifted_form(chain(F3, ("a", 1), ("b", -1), ("c", 1)))
    assert sf.k == (1, 0, 1)


def test_shifted_form_requires_sum_one():
    with pytest.raises(RewriteError):
        to_shifted_form(chain(F2, ("a", 1), ("b", 1)))
    with pytest.raises(RewriteError):
        to_shifted_form(word(F2, "a"))


def test_shifted_form_min_k_zero_and_reassembly():
    w = chain(F3, ("a", 1), ("b", 1), ("c", -1))
    sf = to_shifted_form(w)
    assert min(sf.k) == 0
    assert reassembled(sf).is_conjugate_to(w)


def eps_one_words(base=F3, max_minus=2):
    """Words with t-exponent sum one, built from sign patterns and letters."""
    letters = st.sampled_from(["", "a", "b", "ab", "A", "ba", "aa"])

    @st.composite
    def build(draw):
        n_minus = draw(st.integers(0, max_minus))
        signs = [1] * (n_minus + 1) + [-1] * n_minus
        perm = draw(st.permutations(signs))
        pairs = [(draw(letters), e) for e in perm]
        return chain(base, *pairs)

    return build()


@given(eps_one_words())
@settings(max_examples=150, deadline=None)
def test_reassembly_is_conjugate(w):
    sf = to_shifted_form(w)
    assert min(sf.k) == 0
    assert reassembled(sf).is_conjugate_to(w.cyclic_reduce())


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def test_minimize_difficult_example_one():
    # g1 t g2 t^-1 g3 t lands at s = 0 with c = g1, b0 = g2, a0 = g3
    w = chain(F3, ("a", 1), ("b", -1), ("c", 1))
    res = rewrite_word(w)
    d = res.data
    assert (d.s, d.m) == (0, 0)
    assert d.c == word(F3, "a")
    assert d.b == (word(F3, "b"),)
    assert d.a == (word(F3, "c"),)


def test_minimize_difficult_example_two():
    w = chain(F3, ("a", 1), ("b", 1), ("c", -1))
    res = rewrite_word(w)
    d = res.data
    assert (d.s, d.m) == (0, 0)
    assert d.c == word(F3, "b")
    assert d.b == (word(F3, "c"),)
    assert d.a == (word(F3, "a"),)


def test_minimize_easy_word_keeps_P_nontrivial():
    w = chain(FreeGroup(5), ("a", 1), ("b", 1), ("c", 1), ("d", -1), ("e", -1))
    res = rewrite_word(w)
    d = res.data
    assert d.s >= 1
    assert d.m >= 0
    mins = check_minimality(d)
    assert all(mins.values())


def test_minimize_n_is_one():
    res = rewrite_word(word(F2, "a", ("t", 1, 1)))
    assert res.n == 1
    assert (res.data.s, res.data.m) == (0, -1)
    assert not is_difficult_case(word(F2, "a", ("t", 1, 1)))


def test_minimize_is_fixpoint():
    w = chain(F3, ("a", 1), ("b", 1), ("c", -1))
    d = rewrite_word(w).data
    again, trace = minimize_presentation(d)
    assert again == d and trace == ()


def test_inverted_input_recorded():
    w = chain(F3, ("a", -1), ("b", -1), ("c", 1))  # exponent sum -1
    res = rewrite_word(w)
    assert res.inverted
    assert reconstruct_relator(res.data).is_conjugate_to(w.inverse().cyclic_reduce())


@given(eps_one_words())
@settings(max_examples=120, deadline=None)
def test_reconstruction_roundtrip(w):
    res = rewrite_word(w)
    assert reconstruct_relator(res.data).is_conjugate_to(w.cyclic_reduce())
    # every intermediate invariant: the initial data also reconstructs
    assert reconstruct_relator(res.initial).is_conjugate_to(w.cyclic_reduce())


@given(eps_one_words(max_minus=3))
@settings(max_examples=80, deadline=None)
def test_minimized_data_is_minimal(w):
    d = rewrite_word(w).data
    if d.m >= 0:
        assert all(not in_P(ai, d.s) for ai in d.a)
        assert all(not in_P_phi(bi, d.s) for bi in d.b)
    if d.s > 0:
        assert d.s in d.copies_in_coefficients()


def all_sign_patterns(n):
    plus = (n + 1) // 2
    for pos in itertools.combinations(range(n), plus):
        signs = [-1] * n
        for p in pos:
            signs[p] = 1
        yield tuple(signs)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_difficult_iff_pattern(n):
    gens = "abcdefghi"
    for signs in all_sign_patterns(n):
        w = chain(F9, *[(gens[i], signs[i]) for i in range(n)])
        assert is_difficult_case(w) == is_difficult_pattern(signs), signs


def test_difficult_pattern_examples():
    assert is_difficult_pattern((1, -1, 1))
    assert is_difficult_pattern((1, 1, -1))
    assert not is_difficult_pattern((1, 1, 1, -1, -1))
    assert not is_difficult_pattern((1,))


def test_difficult_pattern_agrees_with_the_rotation_scan_on_every_short_sign_tuple():
    for n in range(12):
        for signs in itertools.product((1, -1), repeat=n):
            assert is_difficult_pattern(signs) == difficult_pattern_by_rotation(signs), signs


@st.composite
def plus_between(draw):
    """A rotation of + x_1 + x_2 ... + x_k +: no two non-plus entries are
    cyclically adjacent, the shape the one-pass test looks for."""
    xs = draw(st.lists(st.sampled_from((-1, -1, 0, -2, 2)), min_size=1, max_size=10))
    signs = [v for x in xs for v in (1, x)] + [1]
    r = draw(st.integers(0, len(signs) - 1))
    return signs[r:] + signs[:r]


@settings(max_examples=400)
@given(st.one_of(
    st.lists(st.sampled_from((1, -1)), max_size=25),
    st.lists(st.integers(-3, 3), max_size=9),
    st.lists(st.sampled_from((1, -1, 0, 2, -2)), min_size=3, max_size=9)
    .filter(lambda s: sum(s) == 1),
    plus_between(),
))
def test_difficult_pattern_agrees_with_the_rotation_scan(signs):
    # lengths 0-2 and even lengths, and entries other than +-1 summing to 1
    # in the difficult shape, which only the entry check refuses
    want = difficult_pattern_by_rotation(signs)
    assert is_difficult_pattern(signs) == want
    assert is_difficult_pattern(tuple(signs)) == want


# ---------------------------------------------------------------------------
# t^{+-1} g criterion and verdict
# ---------------------------------------------------------------------------


def test_t_pm_g_criterion():
    assert is_conjugate_to_t_pm_g(word(F2, ("t", 1, 1)))
    assert is_conjugate_to_t_pm_g(word(F2, "ab", ("t", 1, -1)))
    assert not is_conjugate_to_t_pm_g(word(F2, ("t", 1, 2), "a"))
    assert not is_conjugate_to_t_pm_g(chain(F2, ("a", 1), ("b", -1), ("a", 1)))
    # conjugation invariance
    w = word(F2, "b", ("t", 1, 1), "a").conjugate_by(word(F2, "ab", ("t", 1, 3)))
    assert is_conjugate_to_t_pm_g(w)


def test_main_theorem_verdict():
    w = word(F2, ("t", 1, 1), "a")
    assert main_theorem_verdict(True, w)["simple"]
    v = main_theorem_verdict(False, w)
    assert not v["simple"] and "base group is not simple" in v["failing"]
    v = main_theorem_verdict(True, chain(F2, ("a", 1), ("b", -1), ("a", 1)))
    assert not v["simple"] and v["failing"] == ("word is not conjugate to t^{+-1} g",)


def test_shifted_form_abelian_base():
    w = FreeProductWord.from_syllables(
        Z2, [("g", 0, (1, 0)), ("t", 1, 1), ("g", 0, (0, 1)), ("t", 1, -1), ("g", 0, (2, 2)), ("t", 1, 1)]
    )
    res = rewrite_word(w)
    assert (res.data.s, res.data.m) == (0, 0)
    assert reconstruct_relator(res.data).is_conjugate_to(w)


# ---------------------------------------------------------------------------
# oracles: the word-at-a-time left folds that assembled these words first
# ---------------------------------------------------------------------------


def fold_reassembled(sf):
    acc = FreeProductWord.one(sf.base)
    for (g, _), k in zip(sf.pairs, sf.k):
        acc = acc * FreeProductWord.from_syllables(
            sf.base, [("t", T_SYMBOL, -k), ("g", 0, g), ("t", T_SYMBOL, k)]
        )
    return acc * FreeProductWord.t(sf.base, T_SYMBOL, 1)


def fold_relator(data):
    t = FreeProductWord.t(data.base, T_SYMBOL, 1)
    acc = data.c * t
    for bi, ai in zip(data.b, data.a):
        acc = acc * bi * t.inverse() * ai * t
    return acc


def fold_substitute_copies(w):
    acc = FreeProductWord.one(w.base)
    for tag, idx, val in w.syllables:
        if tag == "g":
            acc = acc * FreeProductWord.from_syllables(
                w.base, [("t", T_SYMBOL, -idx), ("g", 0, val), ("t", T_SYMBOL, idx)]
            )
        else:
            acc = acc * FreeProductWord.from_syllables(w.base, [(tag, idx, val)])
    return acc


MOVES = {
    "lower": lambda data, _: move_lower_s(data),
    "absorb_b": move_absorb_b,
}


def presentations_along(res):
    """Every presentation the minimization passes through, replayed."""
    data = res.initial
    out = [data]
    for name, i in res.trace:
        data = MOVES[name](data, i)
        out.append(data)
    assert data == res.data
    return out


BASES = (None, FreeGroup(1), F2, F3, FreeAbelianGroup(1), Z2, FreeAbelianGroup(3))


@given(st.integers(0, 2**32 - 1), st.sampled_from(BASES))
@settings(max_examples=150, deadline=None)
def test_word_assembly_matches_left_folds(seed, base):
    w = random_unit_sum_word(make_rng(seed), base=base, max_minus=6)
    res = rewrite_word(w)
    for sf in (res.shifted, to_shifted_form(w.inverse() if res.inverted else w)):
        assert reassembled(sf) == fold_reassembled(sf)
    for data in presentations_along(res):
        relator = data.relator()
        assert relator == fold_relator(data)
        for x in (relator, data.c, *data.a, *data.b):
            assert substitute_copies(x) == fold_substitute_copies(x)


@given(
    st.sampled_from((F2, Z2)),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 10**6), st.integers(-2, 2)),
        max_size=10,
    ),
)
@settings(max_examples=150, deadline=None)
def test_substitute_copies_matches_left_fold_on_mixed_words(base, items):
    syls = []
    for copy, seed, exp in items:
        syls.append(("g", copy, random_base_element(base, make_rng(seed))))
        syls.append(("t", 1 + seed % 2, exp))
    w = FreeProductWord.from_syllables(base, syls)
    assert substitute_copies(w) == fold_substitute_copies(w)


# ---------------------------------------------------------------------------
# minimization takes two moves: the invariant behind them
# ---------------------------------------------------------------------------


def assert_two_move_invariant(res):
    """The invariant of `minimize_presentation`'s docstring, at every
    presentation along the trace: no letter ever cancels, each a_i starts
    and ends in copy s, each b_i with i >= 1 is nonempty, copy s is in use
    while m >= 0, and every lowering makes at least one pair."""
    assert {name for name, _ in res.trace} <= {"lower", "absorb_b"}
    base = res.word.base
    letters = sum(not base.is_identity(g) for g, _ in res.shifted.pairs)
    presentations = presentations_along(res)
    for (name, _), data in zip(res.trace, presentations[1:]):
        assert name != "lower" or data.m >= 0
    for data in presentations:
        assert sum(len(x) for x in (data.c, *data.b, *data.a)) == letters
        for ai in data.a:
            assert ai.syllables[0][:2] == ai.syllables[-1][:2] == ("g", data.s)
            assert not in_P(ai, data.s)
        assert all(not bi.is_identity() for bi in data.b[1:])
        assert data.m == -1 or data.s in data.copies_in_coefficients()


@given(st.integers(0, 2**32 - 1), st.sampled_from(BASES))
@settings(max_examples=150, deadline=None)
def test_two_move_invariant_on_unit_sum_words(seed, base):
    w = random_unit_sum_word(make_rng(seed), base=base, max_minus=6)
    assert_two_move_invariant(rewrite_word(w))


@st.composite
def rank_one_t_power_words(draw):
    """Exponent-sum +-1 words over a rank-1 base with t-exponents in
    {+-1, +-2, +-3} and coefficients a^k, |k| <= 2, the identity included:
    there adjacent copy-s syllables would merge or cancel if a move let them
    touch."""
    base = draw(st.sampled_from((FreeGroup(1), FreeAbelianGroup(1))))
    exps = draw(st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), max_size=8))
    rest = draw(st.sampled_from((1, -1))) - sum(exps)
    while rest:
        exps.append(max(-3, min(3, rest)))
        rest -= exps[-1]
    powers = draw(st.lists(st.integers(-2, 2), min_size=len(exps), max_size=len(exps)))
    a = base.generators()[0]
    syls = []
    for k, e in zip(powers, exps):
        syls += [("g", 0, base.power(a, k)), ("t", T_SYMBOL, e)]
    return FreeProductWord.from_syllables(base, syls)


@given(rank_one_t_power_words())
@settings(max_examples=150, deadline=None)
def test_two_move_invariant_on_rank_one_t_powers(w):
    assert_two_move_invariant(rewrite_word(w))


@pytest.mark.parametrize("c_copy, top_used", [(1, True), (0, False)])
def test_minimality_check_flags_what_the_two_moves_leave(c_copy, top_used, monkeypatch):
    # s = 1, m = 0, a_0 and b_0 in copy 0: a_0 lies in P, so the pair fails
    # a_outside_P, and with c in copy 0 copy 1 goes unused; b_0 lies outside
    # P^phi, so neither move applies and the data is its own fixpoint
    data = RelativePresentationData(
        F2, 1, 0, g_at(F2, c_copy, "a"), (g_at(F2, 0, "b"),), (g_at(F2, 0, "ab"),)
    )
    assert check_minimality(data) == {
        "has_pairs": True,
        "a_outside_P": False,
        "b_outside_P_phi": True,
        "top_copy_used": top_used,
    }
    assert minimize_presentation(data) == (data, ())
    w = reconstruct_relator(data)
    fixpoint = RewriteResult(w, False, to_shifted_form(w), data, data, ())
    monkeypatch.setattr(fuzzing, "rewrite_word", lambda _: fixpoint)
    assert fuzzing.rewrite_problems(w) == ["fixpoint violates the minimality conditions"]


def test_rewrite_word_refuses_more_t_letters_than_its_cap(monkeypatch):
    B = FreeGroup(2)
    monkeypatch.setattr(rewriting, "MAX_T_LETTERS", 5)
    # a t^3 b t^-2 has 5 letters, at the cap; a t^4 b t^-3 has 7
    assert rewrite_word(word(B, "a", ("t", 1, 3), "b", ("t", 1, -2))).n == 5
    with pytest.raises(RewriteError) as info:
        rewrite_word(word(B, "a", ("t", 1, 4), "b", ("t", 1, -3)))
    assert str(info.value) == "word has 7 t-letters; a rewrite expands at most 5"
    # the exponent sum is checked first: a t^4 b t^-2 has 6 letters and sum 2
    with pytest.raises(RewriteError) as info:
        rewrite_word(word(B, "a", ("t", 1, 4), "b", ("t", 1, -2)))
    assert str(info.value) == "t-exponent sum must be +-1, got 2"

import pytest
from hypothesis import given, settings, strategies as st

from spheremotion.groups import (
    FreeAbelianGroup,
    FreeGroup,
    FreeProductWord,
    GroupError,
    reduce_letters,
)
from spheremotion.fuzzing import make_rng, random_unit_sum_word
from spheremotion.rewriting import reconstruct_relator, rewrite_word
from word_oracle import reassembled, word

F2 = FreeGroup(2)
F3 = FreeGroup(3)
Z2 = FreeAbelianGroup(2)


# ---------------------------------------------------------------------------
# oracle: multiply words by flattening to unit letters and cancelling,
# independent of the syllable stack machinery under test
# ---------------------------------------------------------------------------


def flatten_letters(w):
    """Unit letters of a word over a free base: ('g', copy, letter) / ('t', j, s)."""
    out = []
    for tag, idx, val in w.syllables:
        if tag == "g":
            out.extend(("g", idx, c) for c in val)
        else:
            s = 1 if val > 0 else -1
            out.extend(("t", idx, s) for _ in range(abs(val)))
    return out


def cancel_letters(letters):
    out = []
    for l in letters:
        if out and out[-1][:2] == l[:2] and out[-1][2] == -l[2]:
            out.pop()
        else:
            out.append(l)
    return out


def oracle_multiply_letters(u, v):
    return cancel_letters(cancel_letters(flatten_letters(u)) + cancel_letters(flatten_letters(v)))


# strategies ----------------------------------------------------------------


def syllable_items(max_copy=2, max_sym=2):
    g_item = st.tuples(
        st.just("g"),
        st.integers(0, max_copy),
        st.lists(st.sampled_from([1, 2, -1, -2]), max_size=4).map(tuple),
    )
    t_item = st.tuples(st.just("t"), st.integers(1, max_sym), st.integers(-3, 3).filter(bool))
    return st.one_of(g_item, t_item)


def words_f2(max_size=8):
    def build(items):
        syls = []
        for tag, idx, val in items:
            if tag == "g":
                syls.append(("g", idx, reduce_letters(val)))
            else:
                syls.append((tag, idx, val))
        return FreeProductWord.from_syllables(F2, syls)

    return st.lists(syllable_items(), max_size=max_size).map(build)


def words_z2(max_size=8):
    g_item = st.tuples(
        st.just("g"), st.integers(0, 2), st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    )
    t_item = st.tuples(st.just("t"), st.integers(1, 2), st.integers(-3, 3).filter(bool))
    return st.lists(st.one_of(g_item, t_item), max_size=max_size).map(
        lambda items: FreeProductWord.from_syllables(Z2, items)
    )


# three words over one base, free or free abelian
word_triples = st.sampled_from([words_f2, words_z2]).flatmap(
    lambda words: st.tuples(words(), words(), words())
)


# the base-group protocol ----------------------------------------------------

PROTOCOL = ("identity", "multiply", "inverse", "is_identity", "validate", "generators",
            "cyclic_membership", "is_conjugate", "parse", "format")


def test_each_base_group_implements_the_protocol():
    # each kind defines the whole protocol itself: BaseGroup declares none
    # of it, so a method dropped here would first fail where it is called
    for kind in (FreeGroup, FreeAbelianGroup):
        missing = [name for name in PROTOCOL if name not in vars(kind)]
        assert not missing, f"{kind.__name__} lacks {missing}"


# free base -------------------------------------------------------------------


def test_free_parse_and_format():
    assert F2.parse("abA") == (1, 2, -1)
    assert F2.parse("") == ()
    assert F2.parse("aA") == ()
    assert F2.format((1, 2, -1)) == "abA"
    with pytest.raises(GroupError):
        F2.parse("c")
    with pytest.raises(GroupError):
        F2.parse("a1")


def test_free_multiply_cancels():
    x = F2.parse("ab")
    y = F2.parse("BA")
    assert F2.multiply(x, y) == ()
    assert F2.multiply(F2.parse("ab"), F2.parse("b")) == (1, 2, 2)
    assert F2.inverse(F2.parse("abb")) == F2.parse("BBA")


def test_free_primitive_root():
    r, e = F2.primitive_root(F2.parse("ababab"))
    assert r == F2.parse("ab") and e == 3
    r, e = F2.primitive_root(F2.parse("a"))
    assert r == (1,) and e == 1
    # conjugated power: b (ab)^2 B
    x = F2.multiply(F2.parse("b"), F2.multiply(F2.parse("abab"), F2.parse("B")))
    r, e = F2.primitive_root(x)
    assert e == 2 and F2.is_conjugate(r, F2.parse("ab"))


def cyclic_oracle_free(g, h):
    # enumerate h^k until the length can no longer match
    if g == ():
        return True
    if h == ():
        return False
    for k in range(-2 * len(g) - 4, 2 * len(g) + 5):
        if F2.power(h, k) == g:
            return True
    return False


@given(
    st.lists(st.sampled_from([1, 2, -1, -2]), max_size=6),
    st.lists(st.sampled_from([1, 2, -1, -2]), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_free_cyclic_membership_matches_enumeration(gl, hl):
    g = reduce_letters(gl)
    h = reduce_letters(hl)
    assert F2.cyclic_membership(g, h) == cyclic_oracle_free(g, h)


def test_free_cyclic_membership_examples():
    assert F2.cyclic_membership(F2.parse("aaa"), F2.parse("a"))
    assert not F2.cyclic_membership(F2.parse("ab"), F2.parse("a"))
    assert F2.cyclic_membership(F2.parse("BABA"), F2.parse("ab"))


def test_free_conjugacy():
    assert F2.is_conjugate(F2.parse("ab"), F2.parse("ba"))
    assert not F2.is_conjugate(F2.parse("ab"), F2.parse("ab" + "b"))
    assert F2.is_conjugate(F2.parse("Bab"), F2.parse("a"))


@pytest.mark.parametrize("rank", [2.0, True, "2", None])
def test_free_rank_must_be_an_int(rank):
    with pytest.raises(GroupError, match=r"^free rank must be an int, got "):
        FreeGroup(rank)


# abelian base ---------------------------------------------------------------


@pytest.mark.parametrize("rank", [2.0, True, "2", None])
def test_abelian_rank_must_be_an_int(rank):
    with pytest.raises(GroupError, match=r"^abelian rank must be an int, got "):
        FreeAbelianGroup(rank)



def test_abelian_rank_is_bounded_as_the_free_rank_is():
    assert FreeAbelianGroup(FreeAbelianGroup.MAX_RANK).identity == (0,) * 26
    for rank, message in ((0, "abelian rank must be >= 1, got 0"),
                          (27, "abelian rank must be at most 26, got 27")):
        with pytest.raises(GroupError, match=f"^{message}$"):
            FreeAbelianGroup(rank)


def test_abelian_ops():
    assert Z2.multiply((1, 2), (3, -2)) == (4, 0)
    assert Z2.inverse((1, -5)) == (-1, 5)
    assert Z2.power((2, 1), 3) == (6, 3)
    assert Z2.parse([4, 0]) == (4, 0)


def test_abelian_cyclic_membership():
    assert Z2.cyclic_membership((4, 6), (2, 3))
    assert not Z2.cyclic_membership((4, 5), (2, 3))
    assert not Z2.cyclic_membership((2, 3), (4, 6))
    assert Z2.cyclic_membership((0, 0), (4, 6))
    assert not Z2.cyclic_membership((1, 0), (0, 0))


# normal form ------------------------------------------------------------------


def test_normal_form_merges_and_drops():
    w = FreeProductWord.from_syllables(
        F2, [("g", 0, (1,)), ("g", 0, (-1,)), ("t", 1, 2), ("t", 1, -2), ("g", 1, (2,))]
    )
    assert w.syllables == (("g", 1, (2,)),)


def test_normal_form_rejects_bad_syllables():
    with pytest.raises(GroupError):
        FreeProductWord(F2, (("g", 0, ()),))
    with pytest.raises(GroupError):
        FreeProductWord(F2, (("t", 1, 0),))
    with pytest.raises(GroupError):
        FreeProductWord(F2, (("g", 0, (1,)), ("g", 0, (2,))))
    with pytest.raises(GroupError):
        FreeProductWord(F2, (("t", 0, 1),))
    with pytest.raises(GroupError, match=r"^letter True out of range for rank 2$"):
        FreeProductWord(F2, (("g", 0, (True,)),))
    with pytest.raises(GroupError, match="^bad factor index"):
        FreeProductWord(F2, (("t", True, 1),))
    with pytest.raises(GroupError, match="^t-exponent must be a nonzero int"):
        FreeProductWord(F2, (("t", 1, True),))


@pytest.mark.parametrize(
    "syls, message",
    [
        ([("t", 0, 1), ("t", 0, -1)], r"^bad factor index in \('t', 0, 1\)$"),
        ([("g", -1, (1,)), ("g", -1, (-1,))], r"^bad factor index in \('g', -1, \(1,\)\)$"),
        ([("t", 1, True), ("t", 1, -1)], r"^t-exponent must be a nonzero int: \('t', 1, True\)$"),
        ([("t", 1, 0.5), ("t", 1, -0.5)], r"^t-exponent must be a nonzero int: \('t', 1, 0.5\)$"),
    ],
    ids=["t-index", "copy", "bool-exponent", "float-exponent"],
)
def test_from_syllables_refuses_bad_syllables_that_cancel(syls, message):
    # each pair cancels to the empty word, which alone would pass
    for one in syls[:1], syls:
        with pytest.raises(GroupError, match=message):
            FreeProductWord.from_syllables(F2, one)


def test_t_squared_example():
    tg = word(F2, ("t", 1, 1), "a")
    ginv_t = word(F2, "A", ("t", 1, 1))
    assert tg * ginv_t == word(F2, ("t", 1, 2))


@given(words_f2(), words_f2())
@settings(max_examples=250, deadline=None)
def test_multiply_matches_letter_oracle(u, v):
    got = flatten_letters(u * v)
    assert got == oracle_multiply_letters(u, v)


@given(words_f2())
@settings(max_examples=150, deadline=None)
def test_inverse_is_inverse(w):
    assert (w * w.inverse()).is_identity()
    assert (w.inverse() * w).is_identity()


@given(words_f2(), words_f2(), words_f2())
@settings(max_examples=100, deadline=None)
def test_multiply_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


# cyclic reduction -------------------------------------------------------------


def test_cyclic_decompose_example():
    # w = a t a^-1 reduces to core t with conjugator a
    w = word(F2, "a", ("t", 1, 1), "A")
    u, core = w.cyclic_decompose()
    assert core == word(F2, ("t", 1, 1))
    assert u == word(F2, "a")
    assert u * core * u.inverse() == w


def test_cyclic_decompose_merging_ends():
    # ends in the same copy but not mutually inverse: core picks up the product
    w = word(F2, "a", ("t", 1, 1), "b")
    u, core = w.cyclic_decompose()
    assert u * core * u.inverse() == w
    assert core.syllables[0][:2] != core.syllables[-1][:2] or len(core) == 1


@given(words_f2())
@settings(max_examples=200, deadline=None)
def test_cyclic_reduce_idempotent_and_conjugate(w):
    u, core = w.cyclic_decompose()
    assert u * core * u.inverse() == w
    assert core.cyclic_reduce() == core
    if len(core) >= 2:
        assert core.syllables[0][:2] != core.syllables[-1][:2]


@given(words_f2(), words_f2())
@settings(max_examples=150, deadline=None)
def test_conjugacy_invariants(w, y):
    c = w.conjugate_by(y)
    assert c.is_conjugate_to(w)
    assert c.exponent_sum(1) == w.exponent_sum(1)
    assert c.exponent_sum(2) == w.exponent_sum(2)


def test_conjugacy_distinguishes():
    a = word(F2, "a")
    b = word(F2, "b")
    assert not a.is_conjugate_to(b)
    # same copy, conjugate base elements
    assert word(F2, "ab").is_conjugate_to(word(F2, "ba"))
    # different copies are never conjugate
    w1 = FreeProductWord.from_syllables(F2, [("g", 0, (1,))])
    w2 = FreeProductWord.from_syllables(F2, [("g", 1, (1,))])
    assert not w1.is_conjugate_to(w2)


def test_exponent_sum():
    w = word(F2, ("t", 1, 2), "a", ("t", 1, -1), ("t", 2, 5))
    assert w.exponent_sum(1) == 1
    assert w.exponent_sum(2) == 5
    assert w.t_letters(1) == 3
    assert w.t_letters(2) == 5


# powers ------------------------------------------------------------------------


def power_oracle(g, h, bound=6):
    for k in range(-bound, bound + 1):
        if h ** k == g:
            return True
    return False


@given(words_f2(max_size=4), st.integers(-4, 4))
@settings(max_examples=200, deadline=None)
def test_is_power_of_detects_true_powers(h, k):
    g = h ** k
    assert g.is_power_of(h)


@given(words_f2(max_size=3), words_f2(max_size=3))
@settings(max_examples=150, deadline=None)
def test_is_power_of_matches_enumeration(g, h):
    # any k with h^k = g satisfies |k| <= letters(g) + 2*letters(h), since the
    # cyclically reduced core of h contributes at least one letter per factor
    bound = len(flatten_letters(g)) + 2 * len(flatten_letters(h)) + 4
    assert g.is_power_of(h) == power_oracle(g, h, bound=bound)


def test_is_power_of_examples():
    t = word(F2, ("t", 1, 1))
    assert word(F2, ("t", 1, 6)).is_power_of(word(F2, ("t", 1, 2)))
    assert not word(F2, ("t", 1, 3)).is_power_of(word(F2, ("t", 1, 2)))
    w = word(F2, "a", ("t", 1, 1))
    assert (w ** 3).is_power_of(w)
    assert not (w ** 3 * word(F2, "b")).is_power_of(w)
    # conjugated single syllable
    g = word(F2, "b", "aaaa", "B")
    h = word(F2, "b", "aa", "B")
    assert g.is_power_of(h)
    assert not h.is_power_of(g)


def test_shift_copies():
    w = FreeProductWord.from_syllables(F2, [("g", 0, (1,)), ("t", 1, 1), ("g", 2, (2,))])
    s = w.shift_copies(1)
    assert s.syllables == (("g", 1, (1,)), ("t", 1, 1), ("g", 3, (2,)))
    with pytest.raises(GroupError):
        s.shift_copies(-2)


def test_word_operations_refuse_non_int_parameters():
    w = word(F2, "a", ("t", 1, 2))
    for delta in (0.5, True, 1.0, "1"):
        with pytest.raises(GroupError, match=r"^copy shift must be an int, got "):
            w.shift_copies(delta)
    for k in (1.5, True, 2.0, None):
        with pytest.raises(GroupError, match=r"^word exponent must be an int, got "):
            w ** k
    for j in (0, -1, True, 1.0):
        with pytest.raises(GroupError, match=r"^unknown generator symbol t_"):
            w.exponent_sum(j)
        with pytest.raises(GroupError, match=r"^unknown generator symbol t_"):
            w.t_letters(j)
    assert w.t_letters(2) == 0


def test_span_ends_must_be_ints():
    w = word(F2, "a", ("t", 1, 2), "b")
    for i, j in ((0.5, 1), (True, 1), (0, None), (0, 1.0), ("0", 1)):
        with pytest.raises(GroupError, match=r"^span ends must be ints, got "):
            w.span(i, j)
    assert w.span(1, 3) == word(F2, ("t", 1, 2), "b")
    assert w.span(-1, 5) == word(F2, "b")
    assert w.span(2, 1).is_identity()


# oracles: the word-at-a-time forms of powers and conjugacy ----------------------


def fold_power(w, k):
    """w ** k as a left fold of products, each step a validated word."""
    if k < 0:
        return fold_power(w.inverse(), -k)
    acc = FreeProductWord.one(w.base)
    for _ in range(k):
        acc = acc * w
    return acc


def rotation_conjugacy(u, v):
    """Conjugacy by building every rotation of the cyclic core as a word."""
    a = u.cyclic_reduce()
    b = v.cyclic_reduce()
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    if len(a) == 1:
        sa, sb = a.syllables[0], b.syllables[0]
        if sa[0] != sb[0] or sa[1] != sb[1]:
            return False
        if sa[0] == "t":
            return sa[2] == sb[2]
        return u.base.is_conjugate(sa[2], sb[2])
    n = len(a.syllables)
    rotations = (
        FreeProductWord(a.base, a.syllables[i:] + a.syllables[:i]) for i in range(max(n, 1))
    )
    return any(rot.syllables == b.syllables for rot in rotations)


def conjugacy_pairs(u, v, y):
    """Pairs of mostly equal length, conjugate or nearly so."""
    return (
        (u, v),
        (u, u.conjugate_by(y)),
        (u * v, v * u),
        (u * v, v.conjugate_by(y) * u),
        (u, u.inverse()),
        (u * y * v, v * y * u),
    )


@given(word_triples, st.integers(-5, 5))
@settings(max_examples=200, deadline=None)
def test_power_matches_left_fold(ws, k):
    for w in ws:
        assert w ** k == fold_power(w, k)


@given(word_triples)
@settings(max_examples=200, deadline=None)
def test_conjugacy_matches_rotation_words(ws):
    for a, b in conjugacy_pairs(*ws):
        assert a.is_conjugate_to(b) == rotation_conjugacy(a, b)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_fast_paths_match_oracles_on_rewriting_words(seed):
    w = random_unit_sum_word(make_rng(seed), max_minus=6)
    res = rewrite_word(w)
    target = (w.inverse() if res.inverted else w).cyclic_reduce()
    relator = reconstruct_relator(res.data)
    pairs = (
        (relator, target),
        (reassembled(res.shifted), target),
        (relator, w),
        (res.data.relator(), res.initial.relator()),
        *conjugacy_pairs(w, relator, target),
    )
    for a, b in pairs:
        assert a.is_conjugate_to(b) == rotation_conjugacy(a, b)
    for k in (-3, -1, 0, 2, 3):
        assert w ** k == fold_power(w, k)
        assert relator ** k == fold_power(relator, k)


# word arithmetic on every base group, against the full check ----------------

BASES = [FreeGroup(1), FreeGroup(2), FreeGroup(3),
         FreeAbelianGroup(1), FreeAbelianGroup(2), FreeAbelianGroup(3)]


def base_elements(base):
    if base.kind == "free":
        letters = [c for i in range(1, base.rank + 1) for c in (i, -i)]
        return st.lists(st.sampled_from(letters), max_size=4).map(reduce_letters)
    return st.tuples(*[st.integers(-2, 2)] * base.rank)


def loose_syllables(base, max_size=7):
    """Syllables that may cancel, merge, or be the identity."""
    g_item = st.tuples(st.just("g"), st.integers(0, 2), base_elements(base))
    t_item = st.tuples(st.just("t"), st.integers(1, 2), st.integers(-3, 3))
    return st.lists(st.one_of(g_item, t_item), max_size=max_size)


def words_over(base):
    return loose_syllables(base).map(lambda syls: FreeProductWord.from_syllables(base, syls))


word_sets = st.sampled_from(BASES).flatmap(
    lambda base: st.tuples(words_over(base), words_over(base), words_over(base))
)


def fully_checked(w):
    """w, after asserting that the constructor's full check rebuilds it."""
    assert type(w.syllables) is tuple
    assert FreeProductWord(w.base, w.syllables) == w
    return w


def inverse_syllables(w):
    return [
        ("g", idx, w.base.inverse(val)) if tag == "g" else ("t", idx, -val)
        for tag, idx, val in reversed(w.syllables)
    ]


@given(word_sets, st.integers(-4, 4), st.integers(0, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_word_arithmetic_passes_the_full_check(ws, k, delta, data):
    u, v, y = ws
    base = u.base

    def spanned(w):
        """w, after checking one random span of it, ends as a slice reads them."""
        ends = st.integers(-len(w) - 1, len(w) + 1)
        i, j = data.draw(ends), data.draw(ends)
        assert fully_checked(w.span(i, j)) == FreeProductWord.from_syllables(
            base, w.syllables[i:j])
        return w

    def same(result, syllables):
        assert spanned(fully_checked(result)) == FreeProductWord.from_syllables(base, syllables)

    same(u * v, u.syllables + v.syllables)
    same(u.inverse(), inverse_syllables(u))
    same(u ** k, (u.syllables if k >= 0 else tuple(inverse_syllables(u))) * abs(k))
    same(u.conjugate_by(y), inverse_syllables(y) + list(u.syllables) + list(y.syllables))
    same(u.shift_copies(delta), [
        (tag, idx + delta, val) if tag == "g" else (tag, idx, val)
        for tag, idx, val in u.syllables
    ])
    for w in (u, v * y, u ** k):
        conj, core = w.cyclic_decompose()
        spanned(fully_checked(conj))
        spanned(fully_checked(core))
        assert len(core) < 3 or core.syllables[0][:2] != core.syllables[-1][:2]
        same(w, conj.syllables + core.syllables + tuple(inverse_syllables(conj)))


# joins of checked words, against the full check ------------------------------

BAD_SYLLABLES = [
    ("g", 0), ("t", 1, 1, 1), ("x", 0, 1), (),
    ("g", -1, None), ("g", True, None), ("g", 1.0, None), ("g", "0", None),
    ("t", 0, 1), ("t", -1, 1), ("t", True, 1), ("t", "1", 1),
    ("t", 1, True), ("t", 1, 0.5), ("t", 1, "1"), ("t", 1, None),
]


def joined_pieces(base, words, data):
    """Syllables as the program joins them: runs cut from checked words,
    copy-shifted or not, unit and zero t-letters, identity elements, and
    products and inverses of checked elements."""
    elements = [val for w in words for tag, _, val in w.syllables if tag == "g"]
    element = st.sampled_from(elements) if elements else st.just(base.identity)
    pieces = []
    for _ in range(data.draw(st.integers(0, 6))):
        kind = data.draw(st.sampled_from(["run", "shifted", "t", "identity", "product"]))
        if kind in ("run", "shifted"):
            w = data.draw(st.sampled_from(words))
            ends = st.integers(0, len(w))
            i, j = sorted((data.draw(ends), data.draw(ends)))
            delta = data.draw(st.integers(0, 2)) if kind == "shifted" else 0
            pieces += [(tag, idx + delta, val) if tag == "g" else (tag, idx, val)
                       for tag, idx, val in w.syllables[i:j]]
        elif kind == "t":
            pieces.append(("t", data.draw(st.integers(1, 2)), data.draw(st.integers(-2, 2))))
        elif kind == "identity":
            pieces.append(("g", data.draw(st.integers(0, 3)), base.identity))
        else:
            x, y = data.draw(element), data.draw(element)
            val = data.draw(st.sampled_from([base.multiply(x, y), base.inverse(x)]))
            pieces.append(("g", data.draw(st.integers(0, 3)), val))
    return pieces


def _joined(build, base, syllables):
    try:
        return build(base, syllables)
    except GroupError as exc:
        return str(exc)


@given(word_sets, st.data())
@settings(max_examples=300, deadline=None)
def test_join_matches_from_syllables_on_checked_words(ws, data):
    base = ws[0].base
    syllables = joined_pieces(base, ws, data)
    joined = FreeProductWord.join(base, syllables)
    assert fully_checked(joined) == FreeProductWord.from_syllables(base, syllables)
    assert FreeProductWord.join(base, iter(syllables)) == joined

    # a bad syllable anywhere is refused as the full check refuses it
    bad = data.draw(st.sampled_from(BAD_SYLLABLES))
    if bad[:1] == ("g",) and len(bad) == 3:
        bad = (*bad[:2], data.draw(st.sampled_from([base.identity, *base.generators()])))
    at = data.draw(st.integers(0, len(syllables)))
    spoiled = [*syllables[:at], bad, *syllables[at:]]
    message = _joined(FreeProductWord.join, base, spoiled)
    assert isinstance(message, str)
    assert message == _joined(FreeProductWord.from_syllables, base, spoiled)


@given(st.sampled_from(BASES).flatmap(lambda base: st.tuples(st.just(base), base_elements(base))))
@settings(max_examples=100, deadline=None)
def test_is_identity_matches_the_identity(case):
    base, x = case
    assert base.is_identity(x) is (x == base.identity)
    assert base.is_identity(base.identity) and not any(
        base.is_identity(g) for g in base.generators())

"""Word oracles.

`parse_word` is the reference word reader: `jsonio.parse_word` as it was
when `FreeProductWord.from_syllables` validated every element again after
the base group's `parse` had read it, verbatim.  `parse_base` and the field
readers are shared with `jsonio`: they are the same in both readers.

`reassembled` is the round-trip oracle of `rewriting.to_shifted_form`, and
`difficult_pattern_by_rotation` that of `rewriting.is_difficult_pattern`:
the definition read literally, one rotation of the signs at a time.

`word` is the shorthand the tests write words in.  No program path builds
words from loose items: the program reads them from documents.
"""

from __future__ import annotations

from spheremotion.groups import BaseGroup, FreeProductWord, GroupError
from spheremotion.jsonio import JsonError, _field, _int, _objects, parse_base
from spheremotion.rewriting import T_SYMBOL, ShiftedForm


def parse_word(doc, base: BaseGroup = None) -> FreeProductWord:
    found = parse_base(_field(doc, "base"))
    if base is not None and found != base:
        raise JsonError(f"word base {found!r} does not match {base!r}")
    syllables = []
    for syl in _objects(doc, "syllables"):
        if "t" in syl:
            syllables.append(("t", _int(syl, "t"), _int(syl, "exp")))
        else:
            elem = found.parse(_field(syl, "elem"))
            syllables.append(("g", _int(syl, "copy"), elem))
    return FreeProductWord.from_syllables(found, syllables)


def reassembled(sf: ShiftedForm) -> FreeProductWord:
    """The word prod_i t^-k_i g_i t^k_i times t; conjugate to the word whose
    shifted form `sf` is."""
    syls = []
    for (g, _), k in zip(sf.pairs, sf.k):
        syls += [("t", T_SYMBOL, -k), ("g", 0, g), ("t", T_SYMBOL, k)]
    syls.append(("t", T_SYMBOL, 1))
    return FreeProductWord.from_syllables(sf.base, syls)


def difficult_pattern_by_rotation(signs) -> bool:
    """Some rotation of `signs` equals + (- +)^(m+1) for some m >= 0."""
    n = len(signs)
    if n < 3 or n % 2 == 0 or sum(signs) != 1:
        return False
    target = (1,) + (-1, 1) * ((n - 1) // 2)
    doubled = tuple(signs) + tuple(signs)
    return any(doubled[i : i + n] == target for i in range(n))


def word(base: BaseGroup, *items) -> FreeProductWord:
    """Build a word from loose syllable tuples or (parseable) shorthand.

    Items may be syllable triples, strings (base literal in copy 0), or
    ("t", j, exp) / ("g", copy, literal-or-element) tuples.
    """
    syls = []
    for it in items:
        if isinstance(it, str):
            syls.append(("g", 0, base.parse(it)))
        elif isinstance(it, tuple) and len(it) == 3 and it[0] in ("g", "t"):
            tag, idx, val = it
            if tag == "g" and isinstance(val, (str, list)):
                val = base.parse(val)
            syls.append((tag, idx, val))
        else:
            raise GroupError(f"cannot interpret word item {it!r}")
    return FreeProductWord.from_syllables(base, syls)

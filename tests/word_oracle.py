"""Word oracles.

`parse_word` is the reference word reader: `jsonio.parse_word` as it was
when `FreeProductWord.from_syllables` validated every element again after
`BaseGroup.parse` had read it, verbatim.  `parse_base` and the field
readers are shared with `jsonio`: they are the same in both readers.

`reassembled` is the round-trip oracle of `rewriting.to_shifted_form`.
"""

from __future__ import annotations

from spheremotion.groups import BaseGroup, FreeProductWord
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

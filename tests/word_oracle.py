"""The reference word reader: `jsonio.parse_word` as it was when
`FreeProductWord.from_syllables` validated every element again after
`BaseGroup.parse` had read it, verbatim.  `parse_base` and the field
readers are shared with `jsonio`: they are the same in both readers.
"""

from __future__ import annotations

from spheremotion.groups import BaseGroup, FreeProductWord
from spheremotion.jsonio import JsonError, _field, _int, _objects, parse_base


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

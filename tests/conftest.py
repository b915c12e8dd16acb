"""Suite-wide oracle for the unchecked word builder.

`groups._from_checked` wraps syllables as a word without the constructor's
check, on the promise that they are already in normal form: taken from
checked words by an operation of `groups`, such as `FreeProductWord.span`.
No other module names it.  For the whole run this fixture wraps the builder
and rebuilds every word it makes with the full check,
`FreeProductWord(base, syllables)`; a word that fails the check or differs
fails the test that made it, and the session as well.
Run with `--noconftest` to time the suite without it.
"""

import pytest

from spheremotion import groups


@pytest.fixture(scope="session", autouse=True)
def checked_word_oracle():
    build = groups._from_checked
    violations = []

    def checked(base, syllables):
        w = build(base, syllables)
        try:
            if type(syllables) is not tuple or groups.FreeProductWord(base, syllables) != w:
                raise groups.GroupError("not the word the full check builds")
        except groups.GroupError as exc:
            violations.append((base, syllables, str(exc)))
            raise AssertionError(f"unchecked word {syllables!r} over {base!r}: {exc}")
        return w

    groups._from_checked = checked
    try:
        yield
    finally:
        groups._from_checked = build
    assert not violations, violations[:5]

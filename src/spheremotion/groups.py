"""Exact arithmetic in free products of group copies with cyclic generators.

Words live in G(0) * G(1) * ... * <t_1> * <t_2> * ..., where every G(i) is a
copy of one base group and each t_j generates an infinite cyclic factor.
Everything is immutable and hashable; all operations are pure.

A base group is a `FreeGroup` or a `FreeAbelianGroup`; each defines the
whole element protocol that `BaseGroup` names.  The program holds one
instance per kind and rank: `shared_base` hands it out, and the document
reader and the fuzzers take their bases from it.  Both kinds cap the rank
at 26, so the 52 instances are built once, at import.  Words over one base then compare their
(base, syllables) through the identity shortcut, and the base checks of
words and diagrams test identity before equality; a base built directly
by its constructor is equal to the shared one, not the same object, and
is still accepted wherever the shared one is.

Elements are validated once, where they enter: the dataclass constructor
called directly, `FreeProductWord.from_syllables` and the base group's
`parse`, on which `jsonio.parse_word` relies.  A word made from checked
words (a product, inverse, power, copy shift, cyclic split or
`FreeProductWord.span`) is already in normal form, so it is wrapped by the
one private builder `_from_checked`, which skips the check.  Syllables
joined from checked words or from their elements (`FreeProductWord.join`)
are checked for shape and indices only, then brought to normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

from .errors import InputError


class GroupError(InputError):
    """Raised for malformed elements, mixed universes, or unmet capabilities."""


def _divisors(n: int) -> Iterator[int]:
    for d in range(1, n + 1):
        if n % d == 0:
            yield d


def _is_rotation(x: tuple, y: tuple) -> bool:
    """True iff y is a cyclic rotation of the nonempty x."""
    doubled = x + x
    return len(x) == len(y) and any(doubled[i : i + len(y)] == y for i in range(len(x)))


class BaseGroup:
    """A torsion-free group with decidable equality and cyclic membership.

    Concrete kinds: FreeGroup (rank r) and FreeAbelianGroup (rank n), the
    two that `shared_base` keeps one instance of per rank, for
    `jsonio.parse_base` and the fuzzers.  Elements are plain tuples so they
    hash and compare structurally.  Each kind defines the protocol that
    words, rewriting and the document readers call: `identity`,
    `multiply`, `inverse`, `is_identity`, `validate`, `generators`,
    `cyclic_membership`, `is_conjugate`, `parse` and `format`.  This class
    holds what the two share: `kind`, `rank`, equality, hashing and a
    `power` by repeated multiplication.
    """

    kind: str = "abstract"
    rank: int = 0

    def power(self, x, k: int):
        if k < 0:
            return self.power(self.inverse(x), -k)
        acc = self.identity
        for _ in range(k):
            acc = self.multiply(acc, x)
        return acc

    def __eq__(self, other):
        return isinstance(other, BaseGroup) and (self.kind, self.rank) == (
            other.kind,
            other.rank,
        )

    def __hash__(self):
        return hash((self.kind, self.rank))

    def __repr__(self):
        return f"{type(self).__name__}({self.rank})"


def reduce_letters(letters: Iterable[int]) -> Tuple[int, ...]:
    """Freely reduce a letter sequence (nonzero ints, -i inverse of i)."""
    out: list = []
    for c in letters:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


class FreeGroup(BaseGroup):
    """Free group of finite rank; elements are reduced tuples of nonzero ints.

    Letter i in 1..rank is the i-th generator, -i its inverse.  The string
    form uses a..z for generators and A..Z for inverses.
    """

    kind = "free"

    def __init__(self, rank: int):
        if type(rank) is not int:
            raise GroupError(f"free rank must be an int, got {rank!r}")
        if not 1 <= rank <= 26:
            raise GroupError(f"free rank must be in 1..26, got {rank}")
        self.rank = rank

    @property
    def identity(self) -> Tuple[int, ...]:
        return ()

    def is_identity(self, x) -> bool:
        return not x

    def validate(self, x) -> None:
        if not isinstance(x, tuple):
            raise GroupError(f"free-group element must be a tuple, got {x!r}")
        for c in x:
            if type(c) is not int or c == 0 or abs(c) > self.rank:
                raise GroupError(f"letter {c!r} out of range for rank {self.rank}")
        if reduce_letters(x) != x:
            raise GroupError(f"element {x!r} is not freely reduced")

    def multiply(self, x, y):
        return reduce_letters(tuple(x) + tuple(y))

    def inverse(self, x):
        return tuple(-c for c in reversed(x))

    def generators(self):
        return tuple((i,) for i in range(1, self.rank + 1))

    def parse(self, literal) -> Tuple[int, ...]:
        if not isinstance(literal, str):
            raise GroupError(f"free-group literal must be a string, got {literal!r}")
        letters = []
        for ch in literal:
            if "a" <= ch <= "z":
                c = ord(ch) - ord("a") + 1
            elif "A" <= ch <= "Z":
                c = -(ord(ch) - ord("A") + 1)
            else:
                raise GroupError(f"bad letter {ch!r} in free-group literal")
            if abs(c) > self.rank:
                raise GroupError(f"letter {ch!r} exceeds rank {self.rank}")
            letters.append(c)
        return reduce_letters(letters)

    def format(self, x) -> str:
        chars = []
        for c in x:
            if c > 0:
                chars.append(chr(ord("a") + c - 1))
            else:
                chars.append(chr(ord("A") - c - 1))
        return "".join(chars)

    def _cyclic_core(self, x):
        """Split x = u c u^-1 with c cyclically reduced; returns (u, c)."""
        w = list(x)
        u: list = []
        while len(w) >= 2 and w[0] == -w[-1]:
            u.append(w[0])
            w = w[1:-1]
        return tuple(u), tuple(w)

    def primitive_root(self, x):
        """Return (r, e) with x = r**e, e >= 1 maximal.  Requires x != 1."""
        if x == ():
            raise GroupError("identity has no primitive root")
        u, core = self._cyclic_core(x)
        n = len(core)
        for d in _divisors(n):
            if core[:d] * (n // d) == core:
                z = core[:d]
                e = n // d
                break
        root = reduce_letters(u + z + self.inverse(u))
        return root, e

    def cyclic_membership(self, g, h) -> bool:
        if g == ():
            return True
        if h == ():
            return False
        rg, eg = self.primitive_root(g)
        rh, eh = self.primitive_root(h)
        if rg != rh and rg != self.inverse(rh):
            return False
        return eg % eh == 0

    def is_conjugate(self, x, y) -> bool:
        cx = self._cyclic_core(x)[1]
        cy = self._cyclic_core(y)[1]
        if not cx:
            return not cy
        return _is_rotation(cx, cy)


class FreeAbelianGroup(BaseGroup):
    """Free abelian group of rank 1..MAX_RANK; elements are int vectors.

    The identity and every element are `rank`-tuples, so the rank is
    bounded as the free group's is, and refused before any is built.
    """

    kind = "abelian"
    MAX_RANK = 26

    def __init__(self, rank: int):
        if type(rank) is not int:
            raise GroupError(f"abelian rank must be an int, got {rank!r}")
        if rank < 1:
            raise GroupError(f"abelian rank must be >= 1, got {rank}")
        if rank > self.MAX_RANK:
            raise GroupError(f"abelian rank must be at most {self.MAX_RANK}, got {rank}")
        self.rank = rank

    @property
    def identity(self) -> Tuple[int, ...]:
        return (0,) * self.rank

    def is_identity(self, x) -> bool:
        return not any(x)

    def validate(self, x) -> None:
        if not isinstance(x, tuple) or len(x) != self.rank:
            raise GroupError(f"abelian element must be a {self.rank}-tuple, got {x!r}")
        if not all(type(c) is int for c in x):
            raise GroupError(f"abelian element entries must be ints: {x!r}")

    def multiply(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def inverse(self, x):
        return tuple(-a for a in x)

    def power(self, x, k: int):
        return tuple(k * a for a in x)

    def generators(self):
        eye = []
        for i in range(self.rank):
            v = [0] * self.rank
            v[i] = 1
            eye.append(tuple(v))
        return tuple(eye)

    def parse(self, literal) -> Tuple[int, ...]:
        if not isinstance(literal, (list, tuple)):
            raise GroupError(f"abelian literal must be an int vector, got {literal!r}")
        x = tuple(literal)
        self.validate(x)
        return x

    def format(self, x):
        return list(x)

    def cyclic_membership(self, g, h) -> bool:
        if all(c == 0 for c in g):
            return True
        if all(c == 0 for c in h):
            return False
        pivot = next(i for i, c in enumerate(h) if c != 0)
        if g[pivot] % h[pivot] != 0:
            return False
        k = g[pivot] // h[pivot]
        return g == self.power(h, k)

    def is_conjugate(self, x, y) -> bool:
        return x == y


_BASE_KINDS = {"free": FreeGroup, "abelian": FreeAbelianGroup}
# the one instance of each base group: both kinds take the ranks 1..26
_SHARED_BASES = {(kind, rank): cls(rank)
                 for kind, cls in _BASE_KINDS.items() for rank in range(1, 27)}


def shared_base(kind: str, rank: int) -> BaseGroup:
    """The one instance of the base group of this kind, "free" or
    "abelian", and int rank (not a bool, which hashes like 0 or 1).
    A rank the kind refuses raises the constructor's error."""
    base = _SHARED_BASES.get((kind, rank))
    if base is None:
        return _BASE_KINDS[kind](rank)  # refuses the rank
    return base


# A syllable is ("g", copy_index, base_element) or ("t", symbol_index, exponent).
Syllable = Tuple


def _check_shape(syl: Syllable) -> None:
    """Refuse a syllable of the wrong shape, tag or factor index, or a
    t-syllable whose exponent is no int.  The base element of a g-syllable
    is not looked at."""
    if len(syl) != 3 or syl[0] not in ("g", "t"):
        raise GroupError(f"malformed syllable {syl!r}")
    tag, idx, val = syl
    if type(idx) is not int or idx < 0 or (tag == "t" and idx < 1):
        raise GroupError(f"bad factor index in {syl!r}")
    if tag == "t" and type(val) is not int:
        raise GroupError(f"t-exponent must be a nonzero int: {syl!r}")


def _check_syllables(base: BaseGroup, syllables: Sequence[Syllable]) -> None:
    """Refuse any syllable of the wrong shape, tag, factor index, base
    element or exponent type.  Identity elements and zero exponents pass."""
    for syl in syllables:
        _check_shape(syl)
        if syl[0] == "g":
            base.validate(syl[2])


def _push_syllable(base: BaseGroup, stack: list, syl: Syllable) -> None:
    """Push a checked syllable onto a normal-form stack, merging its factor."""
    tag, idx, val = syl
    if tag == "g":
        if base.is_identity(val):
            return
        if stack and stack[-1][0] == "g" and stack[-1][1] == idx:
            merged = base.multiply(stack[-1][2], val)
            stack.pop()
            if not base.is_identity(merged):
                stack.append(("g", idx, merged))
        else:
            stack.append(("g", idx, val))
    else:
        if val == 0:
            return
        if stack and stack[-1][0] == "t" and stack[-1][1] == idx:
            merged = stack[-1][2] + val
            stack.pop()
            if merged != 0:
                stack.append(("t", idx, merged))
        else:
            stack.append(("t", idx, val))


@dataclass(frozen=True)
class FreeProductWord:
    """Normal-form word: alternating syllables from distinct factors.

    Invariants: no adjacent syllables share a factor, no identity g-syllable,
    no zero t-exponent.  Factor of ("g", i, x) is the i-th copy of the base;
    factor of ("t", j, k) is the j-th cyclic generator.
    """

    base: BaseGroup
    syllables: Tuple[Syllable, ...]

    def __post_init__(self):
        _check_syllables(self.base, self.syllables)
        prev = None
        for syl in self.syllables:
            tag, idx, val = syl
            if tag == "g" and self.base.is_identity(val):
                raise GroupError("identity g-syllable in normal form")
            if tag == "t" and val == 0:
                raise GroupError(f"t-exponent must be a nonzero int: {syl!r}")
            if prev is not None and prev[:2] == (tag, idx):
                raise GroupError(f"adjacent syllables share factor {tag}{idx}")
            prev = syl

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_syllables(cls, base: BaseGroup, syllables: Iterable[Syllable]):
        """The normal form of loose syllables from outside: every syllable,
        its base element too, is checked in full, then they are joined."""
        syllables = tuple(syllables)
        _check_syllables(base, syllables)
        return cls.join(base, syllables)

    @classmethod
    def join(cls, base: BaseGroup, syllables: Iterable[Syllable]):
        """The normal form of syllables whose base elements are already
        valid over `base`: taken from checked words, made by `base.multiply`
        or `base.inverse` of such elements, or read by `base.parse`.

        Elements are validated once, where they enter, so a join checks
        each syllable's shape, tag, factor index and exponent type only,
        with the messages of the full check; identity elements and zero
        exponents drop out.  Syllables with any other elements go through
        `from_syllables`.
        """
        stack: list = []
        for syl in syllables:
            _check_shape(syl)
            _push_syllable(base, stack, syl)
        return _from_checked(base, tuple(stack))

    @classmethod
    def one(cls, base: BaseGroup) -> "FreeProductWord":
        return cls(base, ())

    @classmethod
    def g(cls, base: BaseGroup, elem, copy: int = 0) -> "FreeProductWord":
        return cls.from_syllables(base, [("g", copy, elem)])

    @classmethod
    def t(cls, base: BaseGroup, j: int = 1, exp: int = 1) -> "FreeProductWord":
        return cls.from_syllables(base, [("t", j, exp)])

    # -- basic queries ------------------------------------------------------

    def is_identity(self) -> bool:
        return not self.syllables

    def __len__(self) -> int:
        return len(self.syllables)

    def span(self, i: int, j: int) -> "FreeProductWord":
        """The word of syllables i to j - 1, read as the slice [i:j].  A
        contiguous run of a normal form is one, so it is not checked again."""
        if type(i) is not int or type(j) is not int:
            raise GroupError(f"span ends must be ints, got {i!r} and {j!r}")
        return _from_checked(self.base, self.syllables[i:j])

    def copies_used(self) -> frozenset:
        return frozenset(s[1] for s in self.syllables if s[0] == "g")

    def has_t(self) -> bool:
        return any(s[0] == "t" for s in self.syllables)

    def exponent_sum(self, j: int = 1) -> int:
        """Signed t_j exponent total; conjugation invariant."""
        _require_symbol(j)
        return sum(s[2] for s in self.syllables if s[0] == "t" and s[1] == j)

    def t_letters(self, j: int = 1) -> int:
        """Number of unit t_j letters: the sum of |exponent| over t_j runs,
        counted without expanding them."""
        _require_symbol(j)
        return sum(abs(s[2]) for s in self.syllables if s[0] == "t" and s[1] == j)

    # -- arithmetic ----------------------------------------------------------

    def _require_same_base(self, other: "FreeProductWord") -> None:
        if self.base is not other.base and self.base != other.base:
            raise GroupError("operands have different base groups")

    def __mul__(self, other: "FreeProductWord") -> "FreeProductWord":
        self._require_same_base(other)
        stack = list(self.syllables)
        for syl in other.syllables:
            _push_syllable(self.base, stack, syl)
        return _from_checked(self.base, tuple(stack))

    def inverse(self) -> "FreeProductWord":
        inv = []
        for tag, idx, val in reversed(self.syllables):
            if tag == "g":
                inv.append(("g", idx, self.base.inverse(val)))
            else:
                inv.append(("t", idx, -val))
        return _from_checked(self.base, tuple(inv))

    def __pow__(self, k: int) -> "FreeProductWord":
        if type(k) is not int:
            raise GroupError(f"word exponent must be an int, got {k!r}")
        if k < 0:
            return self.inverse() ** (-k)
        stack: list = []
        for syl in self.syllables * k:
            _push_syllable(self.base, stack, syl)
        return _from_checked(self.base, tuple(stack))

    def conjugate_by(self, y: "FreeProductWord") -> "FreeProductWord":
        """Return y^-1 * self * y."""
        return y.inverse() * self * y

    def shift_copies(self, delta: int) -> "FreeProductWord":
        """Send every g-syllable of copy i to copy i + delta."""
        if type(delta) is not int:
            raise GroupError(f"copy shift must be an int, got {delta!r}")
        out = []
        for tag, idx, val in self.syllables:
            if tag == "g":
                if idx + delta < 0:
                    raise GroupError(f"copy shift by {delta} drops below zero")
                out.append(("g", idx + delta, val))
            else:
                out.append((tag, idx, val))
        return _from_checked(self.base, tuple(out))

    # -- cyclic structure ----------------------------------------------------

    def cyclic_decompose(self) -> Tuple["FreeProductWord", "FreeProductWord"]:
        """Split self = u * core * u^-1 with core cyclically reduced."""
        syl = list(self.syllables)
        conj: list = []
        while len(syl) >= 3 and syl[0][:2] == syl[-1][:2]:
            first, last = syl[0], syl[-1]
            # conj gains the stack's front, which never shares a factor with
            # the front before it; the stack stays in normal form through
            # both pushes
            conj.append(first)
            syl = syl[1:-1]
            _push_syllable(self.base, syl, last)
            _push_syllable(self.base, syl, first)
        return _from_checked(self.base, tuple(conj)), _from_checked(self.base, tuple(syl))

    def cyclic_reduce(self) -> "FreeProductWord":
        """Cyclically reduced conjugate of self; idempotent."""
        return self.cyclic_decompose()[1]

    def is_conjugate_to(self, other: "FreeProductWord") -> bool:
        """Conjugacy test via cyclic normal forms."""
        self._require_same_base(other)
        a = self.cyclic_reduce()
        b = other.cyclic_reduce()
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
            return self.base.is_conjugate(sa[2], sb[2])
        return _is_rotation(a.syllables, b.syllables)

    def is_power_of(self, h: "FreeProductWord") -> bool:
        """True iff self = h**k for some integer k."""
        self._require_same_base(h)
        if h.is_identity():
            return self.is_identity()
        if self.is_identity():
            return True
        u, c = self.cyclic_decompose()
        v, d = h.cyclic_decompose()
        if len(d) >= 2:
            if len(c) % len(d) != 0:
                return False
            k = len(c) // len(d)
            return self == h ** k or self == h ** (-k)
        # h is conjugate to a single syllable; move self into the same frame
        z = v.inverse() * u
        moved = z * c * z.inverse()
        if len(moved) != 1:
            return False
        s, r = moved.syllables[0], d.syllables[0]
        if s[0] != r[0] or s[1] != r[1]:
            return False
        if s[0] == "t":
            return s[2] % r[2] == 0
        return self.base.cyclic_membership(s[2], r[2])

    # -- expansions -----------------------------------------------------------

    def unit_syllables(self) -> Tuple[Syllable, ...]:
        """Syllables with every t-run split into unit-exponent letters."""
        out: list = []
        for tag, idx, val in self.syllables:
            if tag == "t":
                step = 1 if val > 0 else -1
                out.extend(("t", idx, step) for _ in range(abs(val)))
            else:
                out.append((tag, idx, val))
        return tuple(out)

    def __repr__(self):
        if not self.syllables:
            return "W(1)"
        parts = []
        for tag, idx, val in self.syllables:
            if tag == "g":
                parts.append(f"g{idx}[{self.base.format(val)}]")
            else:
                parts.append(f"t{idx}^{val}" if val != 1 else f"t{idx}")
        return "W(" + " ".join(parts) + ")"


def _from_checked(base: BaseGroup, syllables: Tuple[Syllable, ...]) -> FreeProductWord:
    """Wrap `syllables` as a word over `base` without `__post_init__`.

    Precondition: `syllables` is a tuple already in normal form over `base`:
    every syllable passes `_check_syllables`, no g-syllable is the identity,
    no t-exponent is zero, and no two adjacent syllables share a factor.
    That holds for syllables taken from checked words by the normal-form
    stack, by inversion, by a copy shift or by `FreeProductWord.span`, a
    contiguous run.  Syllables from anywhere else go through
    `FreeProductWord.from_syllables` or the constructor, which check them.
    """
    w = object.__new__(FreeProductWord)
    object.__setattr__(w, "base", base)
    object.__setattr__(w, "syllables", syllables)
    return w


def _require_symbol(j) -> None:
    if type(j) is not int or j < 1:
        raise GroupError(f"unknown generator symbol t_{j}")

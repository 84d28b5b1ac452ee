"""Reduced words in the free group F_m and lexicographic orders.

Letters are nonzero integers: ``+i`` is the generator ``a_i`` and ``-i``
its inverse.  A word is a plain tuple of letters with no adjacent
cancelling pair; the empty tuple ``E`` is the unit.  Keeping words as
reduced tuples makes them hashable and directly usable as dict keys by
every other module.

A lexicographic order on the group is determined by an ordering of the
2m letters: words are compared first by length, then by the first letter
after their common beginning.  The induced order on the classes
``{s, s^-1}`` drives the step-by-step extension of positive definite
functions, so this module also provides a cursor over those classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

Word = tuple

#: The unit element (empty word).
E: Word = ()

#: The cap on ball and sphere enumeration, to keep dense Gram matrices desk-scale.
DEFAULT_BALL_CAP = 200_000


class BallSizeError(ValueError):
    """Requested ball exceeds the enumeration cap."""


def default_letter_order(m: int) -> tuple[int, ...]:
    """The ordering a_1 < a_1^-1 < a_2 < a_2^-1 < ... on the 2m letters."""
    return tuple(itertools.chain.from_iterable((i, -i) for i in range(1, m + 1)))


@dataclass(frozen=True)
class GroupContext:
    """The free group F_m together with a letter ordering.

    ``letter_order`` is a permutation of ``(+1, -1, ..., +m, -m)`` listing
    the letters in increasing order; it determines the lexicographic order
    on words of equal length.  Instances are immutable and hashable.
    """

    m: int
    letter_order: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need at least one generator, got m={self.m}")
        order = self.letter_order
        if order is None:
            check_ball_cap(self.m, 1)  # the default order lists all 2m letters
            order = default_letter_order(self.m)
        order = tuple(int(x) for x in order)
        # the length test comes first, so a huge m builds no letter set
        if len(order) != 2 * self.m or set(order) != set(range(-self.m, self.m + 1)) - {0}:
            raise ValueError(
                f"letter_order must be a permutation of the {2 * self.m} letters "
                f"of F_{self.m}, got {order}"
            )
        object.__setattr__(self, "letter_order", order)
        object.__setattr__(self, "_rank", {letter: i for i, letter in enumerate(order)})

    def rank(self, letter: int) -> int:
        """Position of a letter in the letter ordering (0 = smallest)."""
        return self._rank[letter]

    def sort_key(self, word: Word) -> tuple:
        """Sort key realizing the lexicographic order: length, then letter ranks."""
        return (len(word), tuple(self._rank[x] for x in word))

    def generators(self) -> tuple[int, ...]:
        return tuple(range(1, self.m + 1))


def reduce_word(letters: Iterable[int]) -> Word:
    """Reduced form of a letter sequence: all adjacent x, -x pairs cancelled."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def make_word(ctx: GroupContext, letters: Sequence[int]) -> Word:
    """Validate letters against the context and return the reduced word.

    Unreduced input is reduced silently, never rejected.
    """
    for x in letters:
        if not isinstance(x, int) or x == 0 or abs(x) > ctx.m:
            raise ValueError(f"invalid letter {x!r} for F_{ctx.m}")
    return reduce_word(letters)


def inverse(s: Word) -> Word:
    """Group inverse: reversed word, every letter negated."""
    return tuple(-x for x in reversed(s))


def mul(s: Word, t: Word) -> Word:
    """Product of two reduced words, with cancellation at the seam.

    Only the tail of s and the head of t can cancel, so the letters
    either side of the seam are stripped in pairs and the rest joined.

    >>> mul((1, 2), (-2, -1))
    ()
    >>> mul((1, 2), (-2, 1))
    (1, 1)
    """
    i, n = 0, min(len(s), len(t))
    while i < n and s[-1 - i] == -t[i]:
        i += 1
    return s[: len(s) - i] + t[i:]


def common_beginning(ws: Sequence[Word]) -> Word:
    """Longest common prefix of one or more reduced words.

    Symmetric in its arguments: it consists of the first letters shared by
    all of them.
    """
    if not ws:
        raise ValueError("common_beginning of an empty collection")
    first = ws[0]
    n = min(len(w) for w in ws)
    for i in range(n):
        x = first[i]
        if any(w[i] != x for w in ws):
            return first[:i]
    return first[:n]


def lex_compare(s: Word, t: Word, ctx: GroupContext) -> int:
    """Compare two reduced words: -1, 0 or +1.

    Shorter words come first; words of equal length are compared by the
    rank of the first letter after their common beginning.
    """
    if len(s) != len(t):
        return -1 if len(s) < len(t) else 1
    for a, b in zip(s, t):
        if a != b:
            return -1 if ctx.rank(a) < ctx.rank(b) else 1
    return 0


def class_rep(s: Word, ctx: GroupContext) -> Word:
    """The smaller of s and s^-1: canonical representative of the class {s, s^-1}."""
    inv = inverse(s)
    return s if lex_compare(s, inv, ctx) <= 0 else inv


def is_class_rep(s: Word, ctx: GroupContext) -> bool:
    return lex_compare(s, inverse(s), ctx) <= 0


def sphere_size(m: int, n: int) -> int:
    """Number of reduced words of length exactly n: 2m(2m-1)^(n-1)."""
    if n == 0:
        return 1
    return 2 * m * (2 * m - 1) ** (n - 1)


def ball_size(m: int, n: int) -> int:
    return sum(sphere_size(m, j) for j in range(n + 1))


def check_ball_cap(m: int, n: int) -> None:
    """Refuse a ball of radius n in F_m with more than ``DEFAULT_BALL_CAP`` words.

    The spheres are counted only until they pass the cap, so a huge radius
    is refused at once; the message gives the exact count unless the radius
    lies far beyond that point.
    """
    total = 0
    for j in range(n + 1):
        total += sphere_size(m, j)
        if total > DEFAULT_BALL_CAP:
            count = ball_size(m, n) if n - j <= 64 else f"more than {total}"
            raise BallSizeError(
                f"ball of radius {n} in F_{m} has {count} words, "
                f"above the cap of {DEFAULT_BALL_CAP}"
            )


def _spheres(ctx: GroupContext, n: int) -> Iterator[list[Word]]:
    """The spheres of radius 0, 1, ..., n in turn, each built from the one before.

    Each word of a sphere is followed by its extensions in letter order, so
    every sphere comes out in lexicographic order.
    """
    words = [E]
    yield words
    for _ in range(n):
        words = [w + (x,) for w in words for x in ctx.letter_order if not w or x != -w[-1]]
        yield words


def sphere(ctx: GroupContext, n: int) -> list[Word]:
    """All reduced words of length exactly n, in lexicographic order."""
    if n < 0:
        raise ValueError("sphere radius must be nonnegative")
    if sphere_size(ctx.m, n) > DEFAULT_BALL_CAP:
        raise BallSizeError(
            f"sphere of radius {n} in F_{ctx.m} has {sphere_size(ctx.m, n)} words, "
            f"above the cap of {DEFAULT_BALL_CAP}"
        )
    *_, words = _spheres(ctx, n)
    return words


def ball(ctx: GroupContext, n: int) -> list[Word]:
    """All reduced words of length at most n, sorted by the lexicographic order."""
    if n < 0:
        raise ValueError("ball radius must be nonnegative")
    check_ball_cap(ctx.m, n)
    return [w for words in _spheres(ctx, n) for w in words]


class WordIndex:
    """The words of S_R numbered in ``ball`` order, with the group law as integer tables.

    ``words[i]`` is the word with id i and ``ids`` maps back; ``size`` = |S_R|
    is also the sentinel id meaning "outside S_R".  Arrays have one entry per
    id plus one for the sentinel:

    - ``inv``: the id of each word's inverse;
    - ``times``: (size + 1) x (2m + 1) right multiplication, column c for the
      letter ``letter_order[c]`` and the last column for e; a product that
      leaves S_R, and every product of the sentinel, is the sentinel;
    - ``first``, ``suffix``: the column of each word's first letter and the id
      of the rest, so that w = first(w) suffix(w); e has the e column and itself;
    - ``cls``, ``adj``: the id of the class representative, and whether the
      word is the other member.  Ids follow the lexicographic order, so the
      representative is the member with the smaller id.

    ``ends[r]`` is |S_r|: the ids of S_r are those below it.
    """

    def __init__(self, ctx: GroupContext, R: int):
        self.words = ball(ctx, R)
        self.ids = {w: i for i, w in enumerate(self.words)}
        self.size = n = len(self.words)
        unit = 2 * ctx.m
        col = {x: c for c, x in enumerate(ctx.letter_order)}
        flip = np.array([col[-x] for x in ctx.letter_order] + [unit])  # the column of x^-1
        self.times = np.full((n + 1, unit + 1), n, dtype=np.intp)
        self.times[:n, unit] = np.arange(n)
        self.first = np.full(n + 1, unit, dtype=np.intp)
        self.suffix = np.arange(n + 1)
        self.inv = np.arange(n + 1)  # e and the sentinel are their own inverses
        # S_R in ball order: sphere L + 1 lists, for each w of sphere L in turn,
        # the w x for the letters x != last(w)^-1 in letter order
        parents, last, start = np.zeros(1, dtype=np.intp), np.array([unit]), 1
        self.ends = [start]
        for L in range(R):
            slots = np.arange(unit - (L > 0))
            cols = slots + (slots >= flip[last][:, None])  # skips the column of last(w)^-1
            children = start + np.arange(cols.size).reshape(cols.shape)
            self.times[parents[:, None], cols] = children
            self.times[children, flip[cols]] = parents[:, None]
            # w x = first(w) (suffix(w) x) and x = x e; then (x v)^-1 = v^-1 x^-1
            self.first[children] = self.first[parents][:, None] if L else cols
            self.suffix[children] = self.times[self.suffix[parents][:, None], cols] if L else 0
            v = self.suffix[children]
            self.inv[children] = self.times[self.inv[v], flip[self.first[children]]]
            parents, last, start = children.ravel(), cols.ravel(), start + cols.size
            self.ends.append(start)
        ids = np.arange(n + 1)
        self.cls = np.minimum(ids, self.inv)
        self.adj = self.cls != ids

    def diffs(self, left, right) -> np.ndarray:
        """The ids of left_i^-1 right_j, for ids in S_R; the sentinel where that lies outside S_R.

        Multiplies left_i^-1 by the letters of right_j one at a time.  In a tree
        every partial product is within max(|left_i|, |left_i^-1 right_j|) of e,
        so a product ends outside S_R exactly when it leaves it on the way.
        """
        right = np.asarray(right, dtype=np.intp)
        out = np.repeat(self.inv[left][:, None], right.size, axis=1)
        longest = len(self.words[right.max()]) if right.size else 0  # ids follow length
        for _ in range(longest):  # e's first letter is the e column, so short words idle
            out = self.times[out, self.first[right]]
            right = self.suffix[right]
        return out


@dataclass(frozen=True)
class ClassCursor:
    """Position in the ordered quotient of F_m by s ~ s^-1.

    ``rep`` is the lexicographically smaller element of the class; any
    word passed in is reduced and canonicalized.  Cursors over the same
    context compare by the order of their representatives.
    """

    rep: Word
    ctx: GroupContext

    def __post_init__(self):
        object.__setattr__(self, "rep", class_rep(reduce_word(self.rep), self.ctx))

    @property
    def length(self) -> int:
        return len(self.rep)

    def members(self) -> tuple[Word, ...]:
        inv = inverse(self.rep)
        return (self.rep,) if inv == self.rep else (self.rep, inv)

    def key(self) -> tuple:
        return self.ctx.sort_key(self.rep)

    def successor(self) -> "ClassCursor":
        """The smallest class strictly greater than this one."""
        return next(c for c in classes_up_to(self.ctx, self.length + 1) if c > self)

    def predecessor(self) -> "ClassCursor":
        """Inverse of :meth:`successor`; undefined at the unit class."""
        if self.rep == E:
            raise ValueError("the unit class has no predecessor")
        return [c for c in classes_up_to(self.ctx, self.length) if c < self][-1]

    def _check_ctx(self, other: "ClassCursor"):
        if self.ctx != other.ctx:
            raise ValueError("cannot compare cursors over different contexts")

    def __lt__(self, other: "ClassCursor") -> bool:
        self._check_ctx(other)
        return self.key() < other.key()

    def __le__(self, other: "ClassCursor") -> bool:
        self._check_ctx(other)
        return self.key() <= other.key()

    def __gt__(self, other: "ClassCursor") -> bool:
        return other < self

    def __ge__(self, other: "ClassCursor") -> bool:
        return other <= self


def _class_cursors(ctx: GroupContext, words: list[Word]) -> Iterator[ClassCursor]:
    return (ClassCursor(w, ctx) for w in words if is_class_rep(w, ctx))


def classes_of_length(ctx: GroupContext, n: int) -> Iterator[ClassCursor]:
    """All classes whose representative has length exactly n, in order."""
    yield from _class_cursors(ctx, sphere(ctx, n))


def classes_up_to(ctx: GroupContext, n: int) -> Iterator[ClassCursor]:
    """All classes of length at most n, in increasing order; S_n must respect the ball cap."""
    check_ball_cap(ctx.m, n)
    for words in _spheres(ctx, n):
        yield from _class_cursors(ctx, words)

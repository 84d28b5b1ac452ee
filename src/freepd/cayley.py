"""Tree geometry of the Cayley graph of F_m and the nested graph family
walked by the extension engine.

The Cayley graph of a free group is a tree, with d(s, t) = |s^-1 t|.  For
a class cutoff nu, the graph Gamma_nu joins s and t whenever the class of
s^-1 t is at most nu; these graphs interpolate between the tree and its
distance-n powers, and each new cutoff adds the translates of a single
clique.  Chordality of the induced finite graphs is what makes the
one-entry-at-a-time completion of Gram matrices sound; the tests check it
with networkx on these graphs.  Both completion windows read one
common-neighbour mask over a :class:`WordIndex`: :func:`clique_C` cuts at
the class of s_nu, :func:`sigma_set` at S_n.
"""

from __future__ import annotations

import numpy as np

from .words import (
    E,
    ClassCursor,
    GroupContext,
    Word,
    WordIndex,
    common_beginning,
    inverse,
    mul,
)


def distance(s: Word, t: Word) -> int:
    """Tree distance between group elements: the length of s^-1 t."""
    return len(mul(inverse(s), t))


def tree_median(x: Word, y: Word, z: Word) -> Word:
    """The unique vertex lying on all three minimal paths between x, y, z.

    Translating x to the unit, the paths from e to u and from e to v part
    ways exactly at their common beginning, which is the median.
    """
    u = mul(inverse(x), y)
    v = mul(inverse(x), z)
    return mul(x, common_beginning([u, v]))


def _common_neighbours(index: WordIndex, xs, cutoff: int, bound: int) -> np.ndarray:
    """Masks over the ids u < ``bound`` with u and x^-1 u both of class id below ``cutoff``.

    One row per x in ``xs``: :func:`clique_C` and :func:`sigma_set` pass one
    x, ``check-ortho`` a chunk of a level.
    """
    u = np.arange(bound)
    return (index.cls[u] < cutoff) & (index.cls[index.diffs(xs, u)] < cutoff)


def clique_C(nu: ClassCursor, index: WordIndex | None = None) -> list[Word]:
    """The maximal clique containing {e, s_nu} in the graph with cutoff nu.

    Its members besides e and s_nu are the common neighbours of the pair
    in the previous graph: the words t with both t and s_nu^-1 t of class
    strictly below nu.  The pair {e, s_nu} is the clique's only edge of
    class nu.  Sorted by the lexicographic order.  ``index`` must reach
    |s_nu|; by default one of that radius is built.
    """
    if nu.rep == E:
        raise ValueError("the unit class adds no edge and has no completion clique")
    if index is None:
        index = WordIndex(nu.ctx, len(nu.rep))
    s = index.ids[nu.rep]
    # a word of class below nu is no longer than s_nu, so the candidates are S_|s_nu|
    near = _common_neighbours(index, [s], s, index.ends[len(nu.rep)])[0]
    near[[0, s]] = True  # e and s_nu, each at class nu from the other
    return [index.words[i] for i in np.flatnonzero(near).tolist()]


def sigma_set(ctx: GroupContext, s: Word, t: Word, index: WordIndex | None = None) -> list[Word]:
    """Sigma(s, t): the words within distance n of both s and t, for d(s, t) = n + 1 > 0.

    The rule of :func:`clique_C` across a one-step distance gap, with the
    cutoff of the first class of length n + 1: the s u with u and x^-1 u in
    S_n, for x = s^-1 t.  Its members are pairwise at distance at most n.
    ``index`` must reach n + 1; by default one of that radius is built.
    """
    x = mul(inverse(s), t)
    if x == E:
        raise ValueError("sigma_set needs two distinct words, got s = t")
    if index is None:
        index = WordIndex(ctx, len(x))
    inner = index.ends[len(x) - 1]  # S_n: the words, and the classes, of id below this
    near = _common_neighbours(index, [index.ids[x]], inner, inner)[0]
    out = (mul(s, index.words[i]) for i in np.flatnonzero(near).tolist())
    return sorted(out, key=ctx.sort_key)

"""Tree geometry of the Cayley graph of F_m and the nested graph family
walked by the extension engine.

The Cayley graph of a free group is a tree, with d(s, t) = |s^-1 t|.  For
a class cutoff nu, the graph Gamma_nu joins s and t whenever the class of
s^-1 t is at most nu; these graphs interpolate between the tree and its
distance-n powers, and each new cutoff adds the translates of a single
clique.  Chordality of the induced finite graphs is what makes the
one-entry-at-a-time completion of Gram matrices sound, so a checker for
it is provided as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from .words import (
    E,
    ClassCursor,
    GroupContext,
    Word,
    WordIndex,
    class_rep,
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


@dataclass(frozen=True)
class EdgePredicate:
    """Edge test for the graph with class cutoff ``cutoff``.

    {s, t} is an edge iff s != t and the class of s^-1 t is at most the
    cutoff.  Translation invariant by construction.
    """

    cutoff: ClassCursor

    def __call__(self, s: Word, t: Word) -> bool:
        if s == t:
            return False
        ctx = self.cutoff.ctx
        diff = class_rep(mul(inverse(s), t), ctx)
        return ctx.sort_key(diff) <= self.cutoff.key()


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
    ball_ids = np.arange(index.ends[len(nu.rep)])
    below = index.cls[ball_ids] < index.cls[s]
    below &= index.cls[index.diffs([s], ball_ids)[0]] < index.cls[s]
    below[[0, s]] = True  # e and s_nu, each at class nu from the other
    return [index.words[i] for i in np.flatnonzero(below).tolist()]


def sigma_set(
    ctx: GroupContext, s: Word, t: Word, n: int, index: WordIndex | None = None
) -> list[Word]:
    """The words within distance n of both s and t, for d(s, t) = n + 1.

    This is the common-neighbour clique of the pair across a one-step
    distance gap; its members are pairwise at distance at most n.  They are
    the s u with u in S_n and x^-1 u in S_n, for x = s^-1 t.  ``index`` must
    reach n + 1; by default one of that radius is built.
    """
    x = mul(inverse(s), t)
    if n < 0 or len(x) != n + 1:
        raise ValueError(f"sigma_set needs d(s, t) = n + 1, got d = {len(x)} with n = {n}")
    if index is None:
        index = WordIndex(ctx, n + 1)
    inner = index.ends[n]  # the ids of S_n are those below
    near = index.diffs([index.ids[x]], np.arange(inner))[0] < inner
    out = [index.words[i] for i in np.flatnonzero(near).tolist()]
    if s == E:
        return out
    return sorted((mul(s, u) for u in out), key=ctx.sort_key)


def is_chordal(
    vertices: Sequence[Hashable], adjacent: Callable[[Hashable, Hashable], bool]
) -> bool:
    """Whether the finite graph induced on ``vertices`` is chordal.

    Repeatedly eliminates simplicial vertices (vertices whose neighbourhood
    is a clique); the graph is chordal iff the elimination empties it.
    O(V^3)-ish, intended as a test oracle on desk-scale graphs.
    """
    n = len(vertices)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if adjacent(vertices[i], vertices[j]):
                adj[i, j] = adj[j, i] = True
    alive = np.ones(n, dtype=bool)
    for _ in range(n):
        eliminated = False
        for v in np.flatnonzero(alive):
            nb = np.flatnonzero(adj[v] & alive)
            sub = adj[np.ix_(nb, nb)]
            if np.all(sub | np.eye(len(nb), dtype=bool)):
                alive[v] = False
                adj[v, :] = False
                adj[:, v] = False
                eliminated = True
                break
        if not eliminated:
            return not alive.any()
    return True

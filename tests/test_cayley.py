import itertools
from dataclasses import dataclass

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepd.cayley import clique_C, distance, sigma_set, tree_median
from freepd.words import (
    E,
    ClassCursor,
    GroupContext,
    Word,
    ball,
    class_rep,
    classes_up_to,
    default_letter_order,
    inverse,
    mul,
)

CTX2 = GroupContext(2)

#: F_1, F_2 or F_3 under a random ordering of its letters.
contexts = st.sampled_from((1, 2, 3)).flatmap(
    lambda m: st.permutations(default_letter_order(m)).map(lambda order: GroupContext(m, order))
)

property_test = settings(derandomize=True, max_examples=60, deadline=None)


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


def cutoff_graph(words, nu):
    """The cutoff graph Gamma_nu induced on ``words``, as a networkx graph."""
    edge = EdgePredicate(nu)
    G = nx.Graph()
    G.add_nodes_from(words)
    G.add_edges_from((s, t) for s, t in itertools.combinations(words, 2) if edge(s, t))
    return G


def draw_word(data, ctx: GroupContext, length: int):
    """A reduced word of exactly ``length`` letters."""
    w = ()
    for _ in range(length):
        w += (data.draw(st.sampled_from([x for x in ctx.letter_order if not w or x != -w[-1]])),)
    return w


def clique_by_ball_filter(nu: ClassCursor):
    """Reference for clique_C: scan the whole ball S_|s| and keep the common neighbours."""
    ctx, s = nu.ctx, nu.rep
    n = len(s)
    out = [E, s]
    for t in ball(ctx, n):
        diff = mul(inverse(s), t)
        if t in (E, s) or len(diff) > n:
            continue
        if ctx.sort_key(class_rep(t, ctx)) < nu.key() and ctx.sort_key(class_rep(diff, ctx)) < nu.key():
            out.append(t)
    return sorted(out, key=ctx.sort_key)


def sigma_by_ball_filter(ctx: GroupContext, s, t, n: int):
    """Reference for sigma_set: translate S_n to s and keep the words within n of t."""
    return sorted((r for r in (mul(s, w) for w in ball(ctx, n)) if distance(r, t) <= n), key=ctx.sort_key)


def test_distance_examples():
    assert distance(E, (1, 2)) == 2
    assert distance((1,), (1, 2)) == 1
    assert distance((1,), (-1,)) == 2


def test_distance_is_tree_metric():
    words = ball(CTX2, 2)
    # four-point condition: among the three pairings, the two largest agree
    import random

    rnd = random.Random(3)
    for _ in range(200):
        x, y, z, w = (rnd.choice(words) for _ in range(4))
        a = distance(x, y) + distance(z, w)
        b = distance(x, z) + distance(y, w)
        c = distance(x, w) + distance(y, z)
        big = sorted([a, b, c])
        assert big[1] == big[2]


def test_tree_median_examples():
    assert tree_median(E, (1, 1), (1,)) == (1,)
    assert tree_median(E, (1,), (2,)) == E
    assert tree_median(E, (1, 2), (1, -2)) == (1,)


def test_tree_median_symmetric_and_on_paths():
    words = ball(CTX2, 2)
    import random

    rnd = random.Random(9)
    for _ in range(100):
        x, y, z = (rnd.choice(words) for _ in range(3))
        meds = {tree_median(*p) for p in itertools.permutations((x, y, z))}
        assert len(meds) == 1
        med = meds.pop()
        # the median lies on each minimal path: distances add through it
        assert distance(x, med) + distance(med, y) == distance(x, y)
        assert distance(y, med) + distance(med, z) == distance(y, z)
        assert distance(x, med) + distance(med, z) == distance(x, z)


def test_clique_examples():
    assert clique_C(ClassCursor((1, 1), CTX2)) == [E, (1,), (1, 1)]
    assert clique_C(ClassCursor((1, 2), CTX2)) == [E, (1,), (1, 2)]
    assert clique_C(ClassCursor((1,), CTX2)) == [E, (1,)]
    with pytest.raises(ValueError):
        clique_C(ClassCursor(E, CTX2))


@property_test
@given(st.data())
def test_clique_C_equals_ball_filter(data):
    ctx = data.draw(contexts)
    nu = ClassCursor(draw_word(data, ctx, data.draw(st.integers(1, 4))), ctx)
    assert clique_C(nu) == clique_by_ball_filter(nu)


@property_test
@given(st.data())
def test_sigma_set_equals_ball_filter(data):
    ctx = data.draw(contexts)
    s = draw_word(data, ctx, data.draw(st.integers(0, 4)))
    n = data.draw(st.integers(0, 3))
    t = mul(s, draw_word(data, ctx, n + 1))
    assert sigma_set(ctx, s, t) == sigma_by_ball_filter(ctx, s, t, n)


def test_clique_is_clique_with_unique_new_edge():
    for nu in classes_up_to(CTX2, 3):
        if nu.rep == E:
            continue
        C = clique_C(nu)
        pred = EdgePredicate(nu)
        new_edges = 0
        for s, t in itertools.combinations(C, 2):
            assert pred(s, t)
            diff = ClassCursor(mul(inverse(s), t), CTX2)
            if diff.rep == nu.rep:
                new_edges += 1
        assert new_edges == 1


def test_maximal_cliques_are_translates_of_clique_C():
    # every maximal clique of the cutoff graph on S_2 that uses a new edge
    # is contained in a translate of clique_C (equal when the translate fits)
    vertices = ball(CTX2, 2)
    classes = list(classes_up_to(CTX2, 2))
    for prev, nu in zip(classes, classes[1:]):  # every class after e, with the one before it
        pred_prev = EdgePredicate(prev)
        G = cutoff_graph(vertices, nu)
        C_nu = clique_C(nu)
        for K in nx.find_cliques(G):
            new = [
                (s, t)
                for s, t in itertools.combinations(K, 2)
                if not pred_prev(s, t)
            ]
            if not new:
                continue
            assert len(new) == 1  # a maximal clique gains at most one new edge
            s, t = new[0]
            diff = mul(inverse(s), t)
            r = s if diff == nu.rep else t
            translate = {mul(r, w) for w in C_nu}
            assert set(K) <= translate
            if translate <= set(vertices):
                assert set(K) == translate


def test_chordal_all_cutoffs_on_S3():
    S3 = ball(CTX2, 3)
    for nu in classes_up_to(CTX2, 3):
        assert nx.is_chordal(cutoff_graph(S3, nu)), nu.rep


def test_sigma_set_examples():
    assert sigma_set(CTX2, E, (1, 1)) == [(1,)]
    assert sigma_set(CTX2, E, (1, 2, 1)) == [(1,), (1, 2)]
    assert sigma_set(CTX2, E, (1,)) == []
    with pytest.raises(ValueError):
        sigma_set(CTX2, (1, 1), (1, 1))


def test_sigma_set_pairwise_distances():
    import random

    rnd = random.Random(5)
    words = ball(CTX2, 2)
    for _ in range(50):
        s = rnd.choice(words)
        t_rel = rnd.choice([w for w in ball(CTX2, 3) if len(w) >= 1])
        t = mul(s, t_rel)
        n = distance(s, t) - 1
        if n < 0:
            continue
        sigma = sigma_set(CTX2, s, t)
        for a, b in itertools.combinations(sigma, 2):
            assert distance(a, b) <= n
        for r in sigma:
            assert distance(r, s) <= n and distance(r, t) <= n


def test_edge_predicate_translation_invariant():
    nu = ClassCursor((1, 2), CTX2)
    pred = EdgePredicate(nu)
    words = ball(CTX2, 2)
    import random

    rnd = random.Random(11)
    for _ in range(100):
        s, t, r = (rnd.choice(words) for _ in range(3))
        assert pred(s, t) == pred(mul(r, s), mul(r, t))

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepd.cayley import EdgePredicate, clique_C, distance, is_chordal, sigma_set, tree_median
from freepd.words import (
    E,
    ClassCursor,
    GroupContext,
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
    assert sigma_set(ctx, s, t, n) == sigma_by_ball_filter(ctx, s, t, n)


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
    for nu in classes_up_to(CTX2, 2):
        if nu.rep == E:
            continue
        pred_now = EdgePredicate(nu)
        pred_prev = EdgePredicate(nu.predecessor())
        G = nx.Graph()
        G.add_nodes_from(vertices)
        for s, t in itertools.combinations(vertices, 2):
            if pred_now(s, t):
                G.add_edge(s, t)
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


def test_chordal_examples():
    S3 = ball(CTX2, 3)
    last_len2 = None
    for nu in classes_up_to(CTX2, 2):
        last_len2 = nu
    assert is_chordal(S3, EdgePredicate(last_len2))  # distance-2 power of the tree
    verts = ["a", "b", "c", "d"]
    cycle = {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")}
    assert not is_chordal(verts, lambda x, y: (x, y) in cycle or (y, x) in cycle)
    assert is_chordal(verts, lambda x, y: True)
    assert is_chordal([], lambda x, y: True)


def test_chordal_all_cutoffs_on_S3():
    S3 = ball(CTX2, 3)
    for nu in classes_up_to(CTX2, 3):
        assert is_chordal(S3, EdgePredicate(nu)), nu.rep


def test_chordal_agrees_with_networkx_oracle():
    # independent oracle: networkx's chordality test on random graphs
    import random

    rnd = random.Random(21)
    for trial in range(40):
        n = rnd.randint(4, 12)
        p = rnd.uniform(0.2, 0.8)
        edges = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rnd.random() < p
        }
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        expected = nx.is_chordal(G)
        got = is_chordal(list(range(n)), lambda a, b: (a, b) in edges or (b, a) in edges)
        assert got == expected, (n, sorted(edges))


def test_sigma_set_examples():
    assert sigma_set(CTX2, E, (1, 1), 1) == [(1,)]
    assert sigma_set(CTX2, E, (1, 2, 1), 2) == [(1,), (1, 2)]
    assert sigma_set(CTX2, E, (1,), 0) == []
    with pytest.raises(ValueError):
        sigma_set(CTX2, E, (1, 1), 2)


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
        sigma = sigma_set(CTX2, s, t, n)
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

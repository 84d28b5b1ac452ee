import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepd.words import (
    E,
    BallSizeError,
    ClassCursor,
    GroupContext,
    WordIndex,
    ball,
    ball_size,
    class_rep,
    classes_of_length,
    classes_up_to,
    common_beginning,
    default_letter_order,
    inverse,
    make_word,
    mul,
    reduce_word,
    sphere,
)

CTX2 = GroupContext(2)

#: F_1, F_2 or F_3 under a random ordering of its letters.
contexts = st.sampled_from((1, 2, 3)).flatmap(
    lambda m: st.permutations(default_letter_order(m)).map(lambda order: GroupContext(m, order))
)


def reduced_words(ctx: GroupContext, max_letters: int = 6):
    return st.lists(st.sampled_from(ctx.letter_order), max_size=max_letters).map(reduce_word)


def brute_force_ball(ctx: GroupContext, R: int) -> list:
    """The reduced products of at most R letters, sorted by ``sort_key``: S_R without the enumerator."""
    products = (itertools.product(ctx.letter_order, repeat=r) for r in range(R + 1))
    return sorted({reduce_word(p) for ps in products for p in ps}, key=ctx.sort_key)


property_test = settings(derandomize=True, max_examples=60, deadline=None)


def test_mul_examples():
    assert mul((1, 2), (-2, -1)) == E
    assert mul((1,), (1,)) == (1, 1)
    # hand reduction: a1 a2 . a2^-1 a1 = a1 a1
    assert mul((1, 2), (-2, 1)) == (1, 1)


def test_mul_length_subadditive():
    words = ball(CTX2, 3)
    for s in words[::7]:
        for t in words[::5]:
            assert len(mul(s, t)) <= len(s) + len(t)


def test_inverse_involution_and_unit():
    for s in ball(CTX2, 3):
        assert inverse(inverse(s)) == s
        assert mul(s, inverse(s)) == E
        assert mul(inverse(s), s) == E


def test_reduce_word():
    assert reduce_word([1, -1]) == E
    assert reduce_word([1, 2, -2, -1, 1]) == (1,)
    assert reduce_word([]) == E


def test_make_word_validates():
    assert make_word(CTX2, [1, 2, -2]) == (1,)
    with pytest.raises(ValueError):
        make_word(CTX2, [3])
    with pytest.raises(ValueError):
        make_word(CTX2, [0])


def test_common_beginning_examples():
    assert common_beginning([(1, 2), (1, -2)]) == (1,)
    assert common_beginning([(1,), (2,)]) == E
    assert common_beginning([(1, 2, 1), (1, 2, -1), (1, 2)]) == (1, 2)


def test_common_beginning_permutation_invariant():
    ws = [(1, 2, 1), (1, 2, -1), (1, 2), (1, -1, 2)]  # last reduces to (2,)
    ws = [reduce_word(w) for w in ws]
    base = common_beginning(ws)
    for perm in itertools.permutations(ws):
        assert common_beginning(list(perm)) == base


def test_order_examples():
    assert CTX2.sort_key((-2,)) < CTX2.sort_key((1, 1))  # shorter first
    assert CTX2.sort_key((1, 1)) < CTX2.sort_key((-1, -1))  # a1 before a1^-1
    assert class_rep((-1, -1), CTX2) == (1, 1)
    s = (1, -2, 1)
    assert class_rep(s, CTX2) == s == class_rep(inverse(s), CTX2)
    assert class_rep(E, CTX2) == E
    # a permuted letter order puts a1^-1 first
    ctx = GroupContext(2, (-1, 2, 1, -2))
    assert ctx.sort_key((-1, -1)) < ctx.sort_key((2, 2)) < ctx.sort_key((1, 1))
    assert class_rep((1, 1), ctx) == (-1, -1)
    assert class_rep(s, ctx) == inverse(s)


@property_test
@given(st.data())
def test_class_rep_is_the_smaller_member(data):
    ctx = data.draw(contexts)
    s = data.draw(reduced_words(ctx))
    assert class_rep(s, ctx) == min(s, inverse(s), key=ctx.sort_key)
    assert class_rep(inverse(s), ctx) == class_rep(s, ctx)


@property_test
@given(st.data())
def test_mul_group_laws(data):
    ctx = data.draw(contexts)
    s, t, u = (data.draw(reduced_words(ctx)) for _ in range(3))
    assert mul(mul(s, t), u) == mul(s, mul(t, u))
    assert mul(s, inverse(s)) == E == mul(inverse(s), s)
    assert mul(s, E) == s == mul(E, s)
    assert mul(s, t) == reduce_word(s + t)


@property_test
@given(st.data())
def test_word_index_tables_follow_the_group_law(data):
    ctx = data.draw(contexts)
    R = data.draw(st.integers(0, 4))
    index = WordIndex(ctx, R)
    assert index.words == brute_force_ball(ctx, R)
    assert all(index.ids[w] == i for i, w in enumerate(index.words))
    ids = st.integers(0, index.size - 1)
    left, right = data.draw(st.lists(ids, max_size=6)), data.draw(st.lists(ids, max_size=6))
    got = index.diffs(left, right)
    assert got.shape == (len(left), len(right))
    for a, i in enumerate(left):
        for b, j in enumerate(right):
            x = mul(inverse(index.words[i]), index.words[j])
            assert got[a, b] == (index.ids[x] if len(x) <= R else index.size)
    for i in left + right:
        w = index.words[i]
        assert index.words[index.inv[i]] == inverse(w)
        assert index.words[index.cls[i]] == class_rep(w, ctx)
        assert index.adj[i] == (w != class_rep(w, ctx))
        for c, x in enumerate(ctx.letter_order):
            wx = mul(w, (x,))
            assert index.times[i, c] == (index.ids[wx] if len(wx) <= R else index.size)
        assert index.times[i, -1] == i
        spelled, j = (), i
        for _ in w:  # w = first(w) suffix(w), peeled one letter at a time down to e
            spelled, j = spelled + (ctx.letter_order[index.first[j]],), index.suffix[j]
        assert spelled == w and j == index.ids[E]
    assert index.first[index.ids[E]] == 2 * ctx.m  # e's first letter is the e column
    assert index.suffix[index.ids[E]] == index.ids[E]
    assert (index.times[index.size] == index.size).all()


def test_word_index_tables_stay_linear_in_the_ball():
    # on F_1 the ball S_R has 2R + 1 words of length up to R: no table may grow like R^2
    index = WordIndex(GroupContext(1), 2000)
    tables = {
        name: table
        for name, table in vars(index).items()
        if hasattr(table, "dtype") and table.dtype.kind == "i" and name != "times"
    }
    assert {"inv", "first", "suffix", "cls"} <= set(tables)
    for name, table in tables.items():
        assert table.size <= index.size + 1, name


def test_letter_order_validation():
    with pytest.raises(ValueError):
        GroupContext(2, (1, -1, 2, 2))
    with pytest.raises(ValueError):
        GroupContext(2, (1, -1, 2))
    with pytest.raises(ValueError):
        GroupContext(0)
    ctx = GroupContext(2, (-2, 2, -1, 1))
    assert ctx.rank(-2) == 0 and ctx.rank(1) == 3


def test_class_successor_examples():
    c = ClassCursor(E, CTX2)
    c = c.successor()
    assert c.rep == (1,)  # {a1, a1^-1}
    c = c.successor()
    assert c.rep == (2,)  # {a2, a2^-1}
    c = c.successor()
    assert c.rep == (1, 1)  # first length-2 class


def test_class_successor_walks_the_class_order():
    c = ClassCursor(E, CTX2)
    seen = [c]
    for _ in range(25):
        c = c.successor()
        seen.append(c)
    assert seen == list(classes_up_to(CTX2, 3))[:26]


def test_cursors_over_different_contexts_do_not_compare():
    a, b = ClassCursor((1,), CTX2), ClassCursor((1,), GroupContext(2, (-1, 1, 2, -2)))
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(ValueError, match="different contexts"):
            compare(a, b)


def test_class_canonicalization():
    c = ClassCursor((-1, -1), CTX2)
    assert c.rep == (1, 1)
    assert set(c.members()) == {(1, 1), (-1, -1)}
    assert ClassCursor(E, CTX2).members() == (E,)


@property_test
@given(contexts, st.integers(0, 3))
def test_class_enumeration_covers_balls(ctx, n):
    # one cursor per class, at its representative; together they make up S_n
    members = []
    for cur in classes_up_to(ctx, n):
        assert cur.rep == class_rep(cur.rep, ctx)
        members.extend(cur.members())
    assert len(members) == len(set(members))
    assert set(members) == set(ball(ctx, n))


@property_test
@given(contexts, st.integers(0, 4))
def test_class_listings_match_brute_force(ctx, n):
    reps = sorted({min(w, inverse(w), key=ctx.sort_key) for w in brute_force_ball(ctx, n)}, key=ctx.sort_key)
    assert [cur.rep for cur in classes_up_to(ctx, n)] == reps
    for length in range(n + 1):
        assert [cur.rep for cur in classes_of_length(ctx, length)] == [r for r in reps if len(r) == length]


@property_test
@given(contexts, st.integers(0, 3))
def test_class_enumeration_nondecreasing_and_distinct(ctx, n):
    # strictly increasing, and successor steps through the same sequence
    cursors = list(classes_up_to(ctx, n))
    for prev, cur in zip(cursors, cursors[1:]):
        assert prev < cur
        assert prev.successor() == cur


def test_ball_counts():
    assert len(ball(CTX2, 1)) == 5
    assert len(ball(CTX2, 2)) == 17
    assert len(ball(GroupContext(1), 3)) == 7
    for m in (1, 2, 3):
        ctx = GroupContext(m)
        for n in range(4):
            assert len(sphere(ctx, n)) == (1 if n == 0 else 2 * m * (2 * m - 1) ** (n - 1))
            assert len(ball(ctx, n)) == ball_size(m, n)


def test_ball_sorted_and_reduced():
    words = ball(CTX2, 3)
    keys = [CTX2.sort_key(w) for w in words]
    assert keys == sorted(keys)
    assert all(reduce_word(w) == w for w in words)


def test_ball_cap():
    # F_2's S_12 has 1,062,881 words: refused by counting, before any enumeration
    with pytest.raises(BallSizeError, match="has 1062881 words"):
        ball(CTX2, 12)


def test_square_longer_than_word():
    # |s^2| > |s| for every reduced s != e, exhaustively on S_4 for m <= 3
    for m in (1, 2, 3):
        ctx = GroupContext(m)
        for s in ball(ctx, 4):
            if s != E:
                assert len(mul(s, s)) > len(s)


def test_minimal_word_and_custom_order():
    assert next(classes_of_length(CTX2, 3)).rep == (1, 1, 1)
    ctx = GroupContext(2, (-2, 1, 2, -1))
    assert next(classes_of_length(ctx, 2)).rep == (-2, -2)
    # class reps depend on the order
    assert class_rep((1, 1), ctx) == (1, 1)
    assert class_rep((2,), ctx) == (-2,)

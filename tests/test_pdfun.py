import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepd import jsonio
from freepd.linalg import NotPsdError
from freepd.pdfun import (
    BallDomain,
    DomainError,
    GramMatrix,
    IdealDomain,
    MissingValueError,
    PdFunction,
    function_of_toeplitz,
    gram,
    kolmogorov,
    pdfunction_from_json,
    radialize,
    toeplitz_of,
    verify_pd,
)
from freepd.quasimult import haagerup
from freepd.sampling import random_pd_function
from freepd.words import (
    E,
    GroupContext,
    ball,
    class_rep,
    classes_of_length,
    classes_up_to,
    default_letter_order,
    inverse,
    mul,
    reduce_word,
    sphere,
)

CTX2 = GroupContext(2)
CTX1 = GroupContext(1)
RNG = np.random.default_rng(7)


def scalar_ball_function(ctx, n, f):
    values = {rep: np.array([[f(rep)]], dtype=complex) for rep in BallDomain(n).class_reps(ctx)}
    return PdFunction(ctx, 1, BallDomain(n), values)


def geometric(ctx, r, n):
    return scalar_ball_function(ctx, n, lambda w: r ** len(w))


def test_construction_requires_unit_value():
    with pytest.raises(ValueError, match="unit"):
        PdFunction(CTX2, 1, BallDomain(0), {})


def test_construction_requires_complete_domain():
    with pytest.raises(ValueError, match="needs a value"):
        PdFunction(CTX2, 1, BallDomain(1), {E: np.eye(1)})


def test_unit_normalization():
    # Phi(e) = 4 is normalized away by conjugation with Phi(e)^(-1/2)
    phi = scalar_ball_function(CTX1, 1, lambda w: 4.0 if w == E else 1.0)
    assert np.allclose(phi.value(E), 1.0)
    assert np.allclose(phi.value((1,)), 0.25)
    with pytest.raises(NotPsdError):
        scalar_ball_function(CTX1, 1, lambda w: 0.0 if w == E else 1.0)


def test_adjoint_symmetry_synthesized():
    B = np.array([[0.3, 0.1 + 0.2j], [0.0, 0.4]])
    values = {E: np.eye(2), (1,): B}
    phi = PdFunction(GroupContext(1), 2, BallDomain(1), values)
    assert np.array_equal(phi.value((-1,)), B.conj().T)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_values_are_filed_once_per_class(data):
    m = data.draw(st.sampled_from((1, 2, 3)))
    ctx = GroupContext(m, data.draw(st.permutations(default_letter_order(m))))
    k, R = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    member = st.sampled_from((0, 1, 2))  # given at the representative, the inverse, or both

    def random_block():
        return rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))

    def give(values, rep, B):
        how = data.draw(member)
        if how != 1:
            values[rep] = B
        if how != 0:
            values[inverse(rep)] = B.conj().T

    reps = BallDomain(R).class_reps(ctx)
    assert reps == [cursor.rep for cursor in classes_up_to(ctx, R)]
    expected = {rep: np.eye(k) if rep == E else random_block() for rep in reps}
    values: dict = {}
    for rep, B in expected.items():
        give(values, rep, B)
    phi = PdFunction(ctx, k, BallDomain(R), values)
    assert phi == pdfunction_from_json(phi.to_json_dict())
    domain, words = phi.domain, ball(ctx, R)
    if data.draw(st.booleans()):  # an order-ideal domain, one class past S_R
        cursor = next(classes_of_length(ctx, R + 1))
        expected[cursor.rep] = random_block()
        phi = phi.with_class_value(cursor, expected[cursor.rep])
        domain, words = IdealDomain(cursor), words + list(cursor.members())
        with pytest.raises(DomainError):
            phi.to_json_dict()
    assert phi.domain == domain
    for w in words:
        rep = class_rep(w, ctx)
        assert np.array_equal(phi.value(w), expected[rep] if w == rep else expected[rep].conj().T)
    reps = list(phi.table.by_class())
    assert reps == sorted(expected, key=ctx.sort_key)
    assert all(ctx.sort_key(a) < ctx.sort_key(b) for a, b in zip(reps, reps[1:]))
    # every class is needed, and nothing outside the domain is taken
    if len(expected) > 1:
        dropped = data.draw(st.sampled_from([rep for rep in expected if rep != E]))
        values = {}
        for rep, B in expected.items():
            if rep != dropped:
                give(values, rep, B)
        with pytest.raises(DomainError) as exc:
            PdFunction(ctx, k, domain, values)
        assert exc.value.args[0] == (
            f"domain {domain.describe()} needs a value at {dropped} (1 classes missing)"
        )
    if isinstance(domain, BallDomain):
        outside = data.draw(st.sampled_from(sphere(ctx, R + 1)))
    else:
        outside = data.draw(st.sampled_from(domain.last.successor().members()))
    values = {outside: random_block()}
    for rep, B in expected.items():
        give(values, rep, B)
    with pytest.raises(ValueError) as exc:
        PdFunction(ctx, k, domain, values)
    assert exc.value.args[0] == (
        f"value at {class_rep(outside, ctx)} lies outside domain {domain.describe()}"
    )


def test_values_are_immutable():
    phi = geometric(CTX2, 0.5, 1)
    with pytest.raises(ValueError):
        phi.value((1,))[0, 0] = 9.0


def test_gram_examples():
    phi = geometric(CTX2, 0.3, 2)
    G = gram(phi, [E])
    assert np.allclose(G.blocks, [[1.0]])
    G = gram(phi, [E, (1,)])
    assert np.allclose(G.blocks, [[1.0, 0.3], [0.3, 1.0]])
    G = gram(phi, [E, (1,), (1, 1)])
    assert np.allclose(G.blocks[0, 2], 0.09)
    assert np.allclose(G.blocks, G.blocks.conj().T)


def test_gram_missing_value_names_pair():
    phi = geometric(CTX2, 0.3, 1)
    with pytest.raises(MissingValueError, match="gram entry"):
        gram(phi, [E, (1, 1)])


def test_stacked_gram_blocks_are_each_windows_gram():
    # one row of ids per window: each matrix of the stack is that window's
    # own, and a missing value names its pair in the first window that has one
    phi = geometric(CTX2, 0.4, 2)
    index = phi.table.index
    windows = [[E, (1,), (1, 2)], [E, (2,), (-1,)], [(1,), (1, 1), (1, 2)]]
    stack = phi.table.gram_blocks([[index.ids[w] for w in S] for S in windows])
    assert stack.shape == (3, 3, 3)
    for S, G in zip(windows, stack):
        assert np.array_equal(G, gram(phi, S).blocks)
    far = [[E, (1,), (2,)], [(1,), (1, 1), (2, 2)]]
    with pytest.raises(MissingValueError) as exc:
        phi.table.gram_blocks([[index.ids[w] for w in S] for S in far])
    assert exc.value.args[0] == "gram entry ((1,), (2, 2)) needs a value at (-1, 2, 2), outside the domain"


def test_gram_permutation_invariance():
    phi = geometric(CTX2, 0.4, 2)
    S = [E, (1,), (1, 2), (1, 1)]  # pairwise differences stay inside S_2
    G = gram(phi, S).blocks
    perm = [2, 0, 3, 1]
    Gp = gram(phi, [S[i] for i in perm]).blocks
    k = phi.k
    P = np.zeros((len(S), len(S)))
    for a, b in enumerate(perm):
        P[a, b] = 1.0
    Pk = np.kron(P, np.eye(k))
    assert np.allclose(Pk @ G @ Pk.T, Gp)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_gram_equals_pairwise_values(data):
    # reference: the block matrix of phi.value(s^-1 t), or the first pair, row by row,
    # whose difference lies outside the domain
    m = data.draw(st.sampled_from((1, 2, 3)))
    ctx = GroupContext(m, data.draw(st.permutations(default_letter_order(m))))
    k, R = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = {
        rep: np.eye(k) if rep == E else rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        for rep in BallDomain(R).class_reps(ctx)
    }
    phi = PdFunction(ctx, k, BallDomain(R), values)
    if data.draw(st.booleans()):  # an order-ideal domain, one class past S_R
        phi = phi.with_class_value(next(classes_of_length(ctx, R + 1)), np.eye(k) / 2)
    letters = st.lists(st.sampled_from(ctx.letter_order), max_size=R + 2).map(reduce_word)
    shift = data.draw(letters)  # translates reach past S_R
    S = [mul(shift, w) for w in data.draw(st.lists(letters, max_size=6))]
    expected = np.zeros((len(S) * k, len(S) * k), dtype=complex)
    first_missing = None
    index = phi.table.index
    inside = phi.domain.mask(index)  # false at the sentinel id of words beyond the index
    for i, s in enumerate(S):
        for j, t in enumerate(S):
            x = mul(inverse(s), t)
            if inside[index.ids.get(x, index.size)]:
                expected[i * k : (i + 1) * k, j * k : (j + 1) * k] = phi.value(x)
            elif first_missing is None:
                first_missing = f"gram entry ({s}, {t}) needs a value at {x}, outside the domain"
    if first_missing is None:
        G = gram(phi, S)
        assert G.index == tuple(S)
        assert np.array_equal(G.blocks, expected)
    else:
        with pytest.raises(MissingValueError) as exc:
            gram(phi, S)
        assert exc.value.args[0] == first_missing


def test_verify_examples():
    assert verify_pd(geometric(CTX2, 0.5, 2)).ok
    bad = scalar_ball_function(CTX2, 1, lambda w: 1.5 if w and abs(w[0]) == 1 else (1.0 if w == E else 0.0))
    res = verify_pd(bad)
    assert not res.ok
    assert set(res.witness) == {E, (1,)} or set(res.witness) == {E, (1,), (-1,)} or (1,) in res.witness
    assert res.min_eigenvalue < -0.4
    # constant identity: rank-one block Gram, PSD
    assert verify_pd(scalar_ball_function(CTX2, 3, lambda w: 1.0)).ok


def test_verify_haagerup_is_positive():
    for t in (0.1, 1.0, 5.0):
        assert verify_pd(haagerup(CTX2, 1, t, 2)).ok
        assert verify_pd(haagerup(CTX2, 2, t, 3)).ok


def test_verify_odd_matches_sampled_grams():
    # the bicentered witness family decides positivity; any sampled set with
    # pairwise differences inside the ball must then have a PSD Gram matrix
    phi3 = geometric(CTX2, 0.45, 3)
    assert verify_pd(phi3).ok
    words = ball(CTX2, 3)
    import random

    rnd = random.Random(13)
    for _ in range(200):
        S = rnd.sample(words, k=rnd.randint(2, 5))
        if all(len(mul(inverse(s), t)) <= 3 for s in S for t in S):
            w = np.linalg.eigvalsh(gram(phi3, S).blocks)
            assert w.min() >= -1e-10 * max(1.0, np.abs(w).max())


def test_verify_translation_invariance():
    phi = geometric(CTX2, 0.45, 2)
    S = ball(CTX2, 1)
    base = gram(phi, S).blocks
    for r in [(1,), (2, 1), (-2,)]:
        translated = gram(phi, [mul(r, s) for s in S]).blocks
        assert np.allclose(base, translated)


def test_verify_requires_ball_domain():
    from freepd.words import ClassCursor

    phi = geometric(CTX2, 0.5, 2)
    ideal = phi.with_class_value(ClassCursor((1, 1, 1), CTX2), np.array([[0.1]]))
    with pytest.raises(DomainError):
        verify_pd(ideal)


def test_toeplitz_roundtrip_exact():
    phi = geometric(CTX2, 0.6, 2)
    M = toeplitz_of(phi)
    back = function_of_toeplitz(M, CTX2)
    assert back == phi
    M2 = toeplitz_of(back)
    assert np.array_equal(M.blocks, M2.blocks)
    with pytest.raises(ValueError, match="nonnegative"):
        toeplitz_of(phi, -1)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(m=st.sampled_from([1, 2, 3]), k=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
def test_toeplitz_roundtrip_on_a_permuted_index(m, k, seed):
    ctx = GroupContext(m)
    rng = np.random.default_rng(seed)
    phi = random_pd_function(ctx, k, 2, rng)
    M = toeplitz_of(phi)
    perm = rng.permutation(len(M.index))
    rows = (perm[:, None] * k + np.arange(k)).reshape(-1)
    shuffled = GramMatrix(tuple(M.index[i] for i in perm), k, M.blocks[np.ix_(rows, rows)])
    assert function_of_toeplitz(shuffled, ctx) == phi


def test_toeplitz_identity_gives_delta():
    M = GramMatrix(index=tuple(ball(CTX2, 1)), k=1, blocks=np.eye(5, dtype=complex))
    phi = function_of_toeplitz(M, CTX2)
    assert np.allclose(phi.value(E), 1.0)
    for w in ball(CTX2, 2):
        if w != E:
            assert np.allclose(phi.value(w), 0.0)


def test_toeplitz_rejects_violation():
    blocks = np.eye(5, dtype=complex)
    blocks[0, 1] = 0.5  # pair (e, a1) indexes a1
    blocks[1, 0] = 0.5
    # pair (a1^-1, e) also indexes a1 but holds 0: not Toeplitz
    M = GramMatrix(index=tuple(ball(CTX2, 1)), k=1, blocks=blocks)
    with pytest.raises(ValueError, match="not Toeplitz"):
        function_of_toeplitz(M, CTX2)


def test_toeplitz_rejects_non_psd():
    words = ball(CTX2, 1)
    blocks = np.eye(5, dtype=complex)
    for i, s in enumerate(words):
        for j, t in enumerate(words):
            if len(mul(inverse(s), t)) == 1:
                blocks[i, j] = 0.9
            elif len(mul(inverse(s), t)) == 2:
                blocks[i, j] = -0.5
    M = GramMatrix(index=tuple(words), k=1, blocks=blocks)
    with pytest.raises(NotPsdError):
        function_of_toeplitz(M, CTX2)


def test_kolmogorov_examples():
    # n = 0: a single isometric block
    phi = geometric(CTX2, 0.5, 1)
    omega = kolmogorov(phi, 0)
    assert np.allclose(omega[E].conj().T @ omega[E], np.eye(1))
    # m = 1, n = 1: the 3x3 Gram matrix over {e, a1, a1^-1} has rank 3
    # (determinant (1 - r^2)^2 by hand), and omega_e* omega_a1 = r
    r = 0.5
    phi1 = geometric(CTX1, r, 2)
    omega = kolmogorov(phi1)
    assert omega[E].shape[0] == 3
    assert np.allclose(omega[E].conj().T @ omega[(1,)], r)


def test_kolmogorov_reproduces_function():
    phi = random_pd_function(CTX2, 2, 2, RNG)
    omega = kolmogorov(phi)
    for s in ball(CTX2, 1):
        for t in ball(CTX2, 1):
            got = omega[s].conj().T @ omega[t]
            assert np.abs(got - phi.value(mul(inverse(s), t))).max() <= 1e-9


def test_radialize_examples():
    phi = haagerup(CTX2, 1, 0.8, 2)
    rad = radialize(phi)
    for w in ball(CTX2, 2):
        assert np.allclose(rad.value(w), phi.value(w), atol=1e-14)
    # arithmetic mean over the four letters
    values = {E: [[1.0]], (1,): [[0.8]], (2,): [[0.4]], (1, 1): [[0.3]], (1, 2): [[0.3]], (1, -2): [[0.3]], (-1, 2): [[0.3]], (-1, -2): [[0.3]], (2, 2): [[0.3]]}
    phi = PdFunction(CTX2, 1, BallDomain(2), {w: np.array(v, dtype=complex) for w, v in values.items()})
    rad = radialize(phi)
    assert np.allclose(rad.value((1,)), 0.6)
    assert np.allclose(rad.value((-2,)), 0.6)


def test_radialize_preserves_positivity():
    for i in range(10):
        phi = random_pd_function(CTX2, 1 + i % 2, 2, RNG)
        assert verify_pd(phi).ok
        assert verify_pd(radialize(phi)).ok


def test_json_roundtrip_bit_exact():
    phi = random_pd_function(CTX2, 2, 2, RNG)
    doc = phi.to_json_dict()
    text = jsonio.dumps(doc)
    back = pdfunction_from_json(__import__("json").loads(text))
    assert back == phi
    assert jsonio.dumps(back.to_json_dict()) == text


def test_json_schema_errors():
    with pytest.raises(jsonio.SchemaError):
        pdfunction_from_json({"schema": "nope"})
    doc = geometric(CTX2, 0.5, 1).to_json_dict()
    doc["entries"][0]["word"] = [99]
    with pytest.raises(jsonio.SchemaError):
        pdfunction_from_json(doc)
    doc = geometric(CTX2, 0.5, 1).to_json_dict()
    for n in (True, 1.0, "1"):  # the radius is an int, as m and k are
        doc["domain"]["n"] = n
        with pytest.raises(jsonio.SchemaError, match="unsupported domain"):
            pdfunction_from_json(doc)


def test_conflicting_values_for_one_class():
    # (-1,) is the other member of the class of (1,): its value is the adjoint
    values = {E: np.eye(1), (1,): np.array([[0.3]]), (-1,): np.array([[0.1]])}
    with pytest.raises(ValueError, match=r"^conflicting values for the class of \(1,\)$"):
        PdFunction(CTX1, 1, BallDomain(1), values)
    values[(-1,)] = np.array([[0.3]])
    assert PdFunction(CTX1, 1, BallDomain(1), values).value((-1,))[0, 0] == 0.3


def test_gram_names_a_missing_pair_off_the_first_row():
    # row 0 is known (e, a1 and a2 lie in S_1); the pair (a1, a2) needs a1^-1 a2
    phi = geometric(CTX2, 0.5, 1)
    with pytest.raises(MissingValueError) as exc:
        gram(phi, [E, (1,), (2,)])
    assert exc.value.args[0] == "gram entry ((1,), (2,)) needs a value at (-1, 2), outside the domain"


def test_toeplitz_of_needs_twice_the_radius():
    phi = geometric(CTX2, 0.5, 2)
    with pytest.raises(DomainError, match=r"^needs values on S_4, but the domain is S_2$"):
        toeplitz_of(phi, 2)


def test_function_of_toeplitz_needs_a_ball_index():
    M = GramMatrix(index=(E, (1,)), k=1, blocks=np.eye(2))
    with pytest.raises(ValueError, match=r"^index set is not the ball S_1$"):
        function_of_toeplitz(M, CTX2)


def test_restriction():
    phi = geometric(CTX2, 0.5, 3)
    phi2 = phi.restricted_to_ball(2)
    assert phi2.ball_radius() == 2
    for w in ball(CTX2, 2):
        assert np.array_equal(phi2.value(w), phi.value(w))
    with pytest.raises(DomainError) as exc:
        phi2.restricted_to_ball(3)
    assert exc.value.args[0] == "domain ball(3) needs a value at (1, 1, 1) (18 classes missing)"

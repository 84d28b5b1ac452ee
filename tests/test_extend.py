import json
from unittest import mock

import numpy as np
import pytest

from freepd import jsonio
from freepd.completion import ContractionNormError
from freepd.linalg import Tolerance
from freepd.extend import (
    check_max_orthogonal,
    extend_to_ball,
    extract_params,
    oracle_from_params,
    params_from_json,
    params_to_json,
    trace_from_json,
    zero_oracle,
)
from freepd.pdfun import (
    BallDomain,
    PdFunction,
    function_of_toeplitz,
    radialize,
    toeplitz_of,
    verify_pd,
)
from freepd.sampling import random_gamma_oracle, random_pd_function
from freepd.words import ClassCursor, E, GroupContext, WordIndex, ball, inverse, mul

CTX2 = GroupContext(2)
CTX1 = GroupContext(1)
RNG = np.random.default_rng(99)


def scalar_function(ctx, n, f):
    values = {rep: np.array([[f(rep)]], dtype=complex) for rep in BallDomain(n).class_reps(ctx)}
    return PdFunction(ctx, 1, BallDomain(n), values)


def test_first_class_value_under_zero_and_unit_oracle():
    # (1, 1) is the first class of S_2, so its window sees only S_1
    phi = scalar_function(CTX2, 1, lambda w: 0.5 if len(w) == 1 else 1.0)
    out, _ = extend_to_ball(phi, 2, zero_oracle)
    assert np.allclose(out.value((1, 1)), 0.25)
    out1, _ = extend_to_ball(phi, 2, lambda cur, dd: np.ones(dd.gamma_shape))
    assert np.allclose(out1.value((1, 1)), 1.0)  # 0.25 + 0.75


def test_extend_from_trivial_prior():
    phi = scalar_function(CTX2, 0, lambda w: 1.0)
    g = np.array([[0.3 - 0.4j]])
    out, _ = extend_to_ball(phi, 1, lambda cur, dd: g)
    assert np.allclose(out.value((1,)), g)
    assert abs(out.value((1,))[0, 0]) <= 1.0


def test_extend_to_ball_is_identity_at_same_radius():
    phi = scalar_function(CTX2, 1, lambda w: 0.5 if len(w) == 1 else 1.0)
    out, trace = extend_to_ball(phi, 1)
    assert out == phi
    assert trace.steps == ()


def test_central_extension_of_geometric_is_geometric():
    phi = scalar_function(CTX2, 1, lambda w: 0.5 if len(w) == 1 else 1.0)
    out, trace = extend_to_ball(phi, 3)
    for w in ball(CTX2, 3):
        assert np.allclose(out.value(w), 0.5 ** len(w), atol=1e-12)
    assert len(trace.steps) == 6 + 18
    assert verify_pd(out).ok


def test_extension_preserves_positivity_random_oracle():
    for i in range(8):
        k = 1 + i % 2
        phi = random_pd_function(CTX2, k, 2, RNG)
        out, _ = extend_to_ball(phi, 3, random_gamma_oracle(seed=i))
        res = verify_pd(out, tol=Tolerance(psd_eps=1e-8, rank_eps=1e-10))
        assert res.ok, res.min_eigenvalue


def test_extract_params_central_is_zero():
    phi = random_pd_function(CTX2, 1, 2, RNG)
    out, _ = extend_to_ball(phi, 3, zero_oracle)
    params = extract_params(out, 2)
    assert params
    for g in params.values():
        assert np.abs(g).max(initial=0.0) <= 1e-9


def test_parameter_roundtrip_both_directions():
    for i in range(4):
        k = 1 + i % 2
        phi = random_pd_function(CTX2, k, 2, RNG)
        out, trace = extend_to_ball(phi, 3, random_gamma_oracle(seed=100 + i))
        planted = trace.params()
        recovered = extract_params(out, 2)
        assert recovered.keys() == planted.keys()
        for cur in planted:
            assert np.abs(recovered[cur] - planted[cur]).max() <= 1e-8
        rebuilt, _ = extend_to_ball(phi, 3, oracle_from_params(recovered))
        for w in ball(CTX2, 3):
            assert np.abs(rebuilt.value(w) - out.value(w)).max() <= 1e-8


def test_trace_replay_is_bit_exact():
    phi = random_pd_function(CTX2, 2, 2, RNG)
    out, trace = extend_to_ball(phi, 3, random_gamma_oracle(seed=5))
    replay, _ = extend_to_ball(phi, 3, oracle_from_params(trace.params()))
    assert replay == out  # exact array equality, not approximate


def test_trace_json_roundtrip():
    phi = random_pd_function(CTX2, 1, 2, RNG)
    out, trace = extend_to_ball(phi, 3, random_gamma_oracle(seed=6))
    doc = trace.to_json_dict()
    text = jsonio.dumps(doc)
    back = trace_from_json(json.loads(text))
    assert back.start_n == trace.start_n
    assert len(back.steps) == len(trace.steps)
    for a, b in zip(back.steps, trace.steps):
        assert a.cursor == b.cursor
        assert a.clique == b.clique
        assert np.array_equal(a.central, b.central)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.filled, b.filled)
    replay, _ = extend_to_ball(phi, 3, oracle_from_params(back.params()))
    assert replay == out


def test_trace_start_radius_is_a_non_negative_integer():
    _, trace = extend_to_ball(random_pd_function(CTX2, 1, 2, RNG), 3, random_gamma_oracle(seed=6))
    doc = trace.to_json_dict()
    for value in ("x", True, -1, 2.0):
        with pytest.raises(jsonio.SchemaError, match="'start_n' must be a non-negative integer"):
            trace_from_json({**doc, "start_n": value})


def test_params_json_roundtrip():
    phi = random_pd_function(CTX2, 1, 2, RNG)
    out, trace = extend_to_ball(phi, 3, random_gamma_oracle(seed=8))
    doc = params_to_json(CTX2, 1, 2, 3, trace.params())
    ctx, k, from_n, to_n, params = params_from_json(json.loads(jsonio.dumps(doc)))
    assert (ctx, k, from_n, to_n) == (CTX2, 1, 2, 3)
    for cur, g in trace.params().items():
        assert np.array_equal(params[cur], g)


def test_params_json_replays_empty_parameters():
    # a (0, d) parameter is written as [] and read back as (0, 0); the
    # replay takes it as the empty parameter its step expects
    phi = random_pd_function(GroupContext(3), 1, 1, np.random.default_rng(0))
    out, trace = extend_to_ball(phi, 4, random_gamma_oracle(0))
    assert any(g.shape[0] == 0 < g.shape[1] for g in trace.params().values())
    doc = params_to_json(phi.ctx, 1, 1, 4, trace.params())
    *_, params = params_from_json(json.loads(jsonio.dumps(doc)))
    replay, _ = extend_to_ball(phi, 4, oracle_from_params(params))
    assert replay == out


def test_each_new_function_builds_at_most_one_word_index():
    # the engine, restriction and the Toeplitz inverse hand the result the
    # table they filled, and radialization reuses its input's index
    phi = random_pd_function(CTX2, 1, 2, RNG)
    builds = []
    init = WordIndex.__init__

    def counted(self, ctx, R):
        builds.append(R)
        init(self, ctx, R)

    with mock.patch.object(WordIndex, "__init__", counted):
        ext, _ = extend_to_ball(phi, 4, random_gamma_oracle(seed=1))
        assert builds == [4]
        assert radialize(ext).table.index is ext.table.index
        small = ext.restricted_to_ball(2)
        M = toeplitz_of(ext)
        assert builds == [4, 2]
        assert function_of_toeplitz(M, CTX2) == ext
        assert builds == [4, 2, 4]
    assert small == PdFunction(CTX2, 1, BallDomain(2), {w: ext.value(w) for w in ball(CTX2, 2)})


def test_restriction_coherence():
    # extending to S_3 and restricting to S_2 equals extending to S_2,
    # for the same oracle decisions on the shared classes
    phi = random_pd_function(CTX2, 1, 1, RNG)
    big, _ = extend_to_ball(phi, 3, random_gamma_oracle(seed=17))
    small, _ = extend_to_ball(phi, 2, random_gamma_oracle(seed=17))
    assert big.restricted_to_ball(2) == small


def test_translation_coherence():
    # the value filled at s_nu equals the completion computed from a
    # translated window r * C_nu (same entries up to permutation)
    from freepd.cayley import clique_C
    from freepd.completion import PartialBlockMatrix, complete

    phi = random_pd_function(CTX2, 1, 2, RNG)
    nu = ClassCursor((1, 1, 1), CTX2)  # the first class of S_3
    out, _ = extend_to_ball(phi, 3, zero_oracle)
    C = clique_C(nu)
    for r in [(2,), (-1,), (2, 1)]:
        translated = sorted((mul(r, w) for w in C), key=CTX2.sort_key)
        i_e = translated.index(mul(r, E))
        i_s = translated.index(mul(r, nu.rep))
        N = len(translated)
        A = np.zeros((N, N), dtype=complex)
        for i, s in enumerate(translated):
            for j, t in enumerate(translated):
                if {i, j} == {i_e, i_s}:
                    continue
                A[i, j] = phi.value(mul(inverse(s), t))[0, 0]
        P = PartialBlockMatrix(A, (i_e, i_s), 1)
        filled = complete(P, np.zeros((1, 1)))[i_e, i_s]
        assert np.allclose(filled, out.value(nu.rep)[0, 0])


def test_oracle_norm_policy():
    phi = random_pd_function(CTX2, 1, 1, RNG)
    # tiny overshoot is renormalized silently
    out, _ = extend_to_ball(phi, 2, lambda cur, dd: (1.0 + 1e-10) * np.ones(dd.gamma_shape))
    assert verify_pd(out, tol=Tolerance(psd_eps=1e-7, rank_eps=1e-10)).ok
    with pytest.raises(ContractionNormError):
        extend_to_ball(phi, 2, lambda cur, dd: 1.1 * np.ones(dd.gamma_shape))


def test_step_defects_shape():
    phi = random_pd_function(CTX2, 2, 2, RNG)
    nu = ClassCursor((1, 1, 1), CTX2)
    seen = {}

    def oracle(cur, dd):
        seen[cur] = dd
        return np.zeros(dd.gamma_shape)

    extend_to_ball(phi, 3, oracle)
    dd = seen[nu]
    assert dd.gamma_shape == (2, 2)
    assert dd.central.shape == (2, 2)


def test_check_max_orthogonal_central_passes():
    for n in (1, 2):
        phi = random_pd_function(CTX2, 1, n, RNG)
        out, _ = extend_to_ball(phi, n + 1, zero_oracle)
        report = check_max_orthogonal(out, n, tol=1e-8)
        assert report.ok, report.worst_violation


def test_check_max_orthogonal_flags_planted_gamma():
    phi = random_pd_function(CTX2, 1, 1, RNG)
    target = ClassCursor((1, 1), CTX2)

    def oracle(cur, dd):
        if cur == target:
            return 0.9 * np.ones(dd.gamma_shape)
        return np.zeros(dd.gamma_shape)

    out, _ = extend_to_ball(phi, 2, oracle)
    report = check_max_orthogonal(out, 1, tol=1e-8)
    assert not report.ok
    assert report.worst_violation >= 1e-3
    assert report.worst_class == target


def test_check_max_orthogonal_needs_room():
    phi = random_pd_function(CTX2, 1, 1, RNG)
    with pytest.raises(ValueError):
        check_max_orthogonal(phi, 1)


def test_quasimultiplicative_block_case_is_central():
    from freepd.quasimult import GeneratorAssignment, as_pdfunction, quasi_mult
    from freepd.sampling import random_contraction

    blocks = tuple(random_contraction((2, 2), RNG, norm=0.85) for _ in range(2))
    g = GeneratorAssignment(CTX2, 2, blocks)
    phi1 = as_pdfunction(g, 1)
    ext, _ = extend_to_ball(phi1, 3, zero_oracle)
    for w in ball(CTX2, 3):
        assert np.abs(ext.value(w) - quasi_mult(g, w)).max() <= 1e-10


def test_quasimultiplicative_parameters_vanish():
    # letterwise-product functions with strict contractions carry the zero
    # parameter sequence
    from freepd.quasimult import GeneratorAssignment, as_pdfunction
    from freepd.sampling import random_contraction

    blocks = tuple(random_contraction((2, 2), RNG, norm=0.8) for _ in range(2))
    phi = as_pdfunction(GeneratorAssignment(CTX2, 2, blocks), 3)
    for g in extract_params(phi, 1).values():
        assert np.abs(g).max(initial=0.0) <= 1e-9


def test_quasimultiplicative_orthogonal_at_every_level():
    from freepd.quasimult import GeneratorAssignment, as_pdfunction
    from freepd.sampling import random_contraction

    blocks = tuple(random_contraction((2, 2), RNG, norm=0.8) for _ in range(2))
    phi = as_pdfunction(GeneratorAssignment(CTX2, 2, blocks), 4)
    for level in (1, 2, 3):
        report = check_max_orthogonal(phi, level, tol=1e-8)
        assert report.ok, (level, report.worst_violation)


def levinson(gammas):
    """Toeplitz values c_0..c_N of Szego parameters, and the prediction errors.

    An independent reference for F_1: at step n, f and b hold the
    coefficients, on omega_0..omega_N, of the residuals of omega_n and of
    omega_0 after projection onto span{omega_1..omega_(n-1)}, and
    errors[n - 1] is their common squared norm.
    """
    N = len(gammas)
    c = np.zeros(N + 1, dtype=complex)
    c[0] = 1.0
    f = np.zeros(N + 2, dtype=complex)
    b = np.zeros(N + 2, dtype=complex)
    f[1], b[0] = 1.0, 1.0
    errors = [1.0]
    for n, g in enumerate(gammas, start=1):
        central = -sum(
            np.conj(b[i]) * f[j] * (c[j - i] if j >= i else np.conj(c[i - j]))
            for i in range(n)
            for j in range(1, n + 1)
            if (i, j) != (0, n)
        )
        c[n] = central + g * errors[-1]
        f, b = np.roll(f, 1) - g * np.roll(b, 1), b - np.conj(g) * f
        errors.append(errors[-1] * (1 - abs(g) ** 2))
    return c, errors


def test_levinson_reference_is_the_one_entry_completion():
    # the reference itself, against the completion formula on the Toeplitz matrix
    rng = np.random.default_rng(11)
    gammas = rng.uniform(0, 0.9, 8) * np.exp(2j * np.pi * rng.uniform(size=8))
    c, errors = levinson(gammas)
    for n in range(2, 9):
        T = np.array([[c[j - i] if j >= i else np.conj(c[i - j]) for j in range(n + 1)] for i in range(n + 1)])
        mid = list(range(1, n))
        x = np.linalg.solve(T[np.ix_(mid, mid)], T[mid, n])
        assert abs(1 - T[n, mid] @ x - errors[n - 1]) <= 1e-12
        assert abs(T[0, mid] @ x + gammas[n - 1] * errors[n - 1] - c[n]) <= 1e-12


@pytest.mark.parametrize("heavy", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_f1_extension_is_the_szego_recursion(seed, heavy):
    # on F_1 the engine's steps are the Szego recursion: from Phi(a) = gamma_1,
    # the oracle's gamma_n at a^n must give the Levinson values c_n; in the
    # heavy set 30 % of the |gamma_n| are 0.999, so the errors fall below 1e-24
    N = 30
    rng = np.random.default_rng(seed)
    modulus = rng.uniform(0, 0.999, N)
    if heavy:
        modulus[rng.choice(N, size=3 * N // 10, replace=False)] = 0.999
    gammas = modulus * np.exp(2j * np.pi * rng.uniform(size=N))
    c, errors = levinson(gammas)
    determinate = []

    def oracle(cursor, defects):
        n = cursor.length
        if defects.gamma_shape == (1, 1):
            return np.array([[gammas[n - 1]]])
        determinate.append(n)  # the engine resolves no defect here
        return np.zeros(defects.gamma_shape)

    phi = PdFunction(CTX1, 1, BallDomain(1), {E: np.eye(1), (1,): np.array([[gammas[0]]])})
    out, _ = extend_to_ball(phi, N, oracle)
    assert max(abs(out.value((1,) * n)[0, 0] - c[n]) for n in range(N + 1)) <= 1e-8
    # a defect may only go unresolved where the reference defect is negligible
    assert all(errors[n - 1] <= 1e-10 for n in determinate), determinate


def test_random_oracle_extension_stays_positive_at_radius_5():
    for seed in range(6):
        phi = random_pd_function(CTX2, 1, 2, np.random.default_rng(seed))
        out, _ = extend_to_ball(phi, 5, random_gamma_oracle(seed))
        res = verify_pd(out)
        assert res.ok, (seed, res.min_eigenvalue)


def test_extract_replay_values_at_radius_4():
    for seed in range(6):
        phi = random_pd_function(CTX2, 1, 2, np.random.default_rng(seed))
        out, _ = extend_to_ball(phi, 4, random_gamma_oracle(seed))
        replay, _ = extend_to_ball(phi, 4, oracle_from_params(extract_params(out, 2)))
        drift = max(np.abs(replay.value(w) - out.value(w)).max() for w in ball(CTX2, 4))
        assert drift <= 1e-8, (seed, drift)

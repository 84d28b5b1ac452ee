import dataclasses
import json
from unittest import mock

import numpy as np
import pytest

from freepd import jsonio
from freepd.cayley import clique_C, sigma_set
from freepd.completion import (
    CompletionError,
    ContractionNormError,
    PartialBlockMatrix,
    analyze,
    extract_gamma,
)
from freepd.linalg import Tolerance, _renormalized
from freepd.extend import (
    check_max_orthogonal,
    extend_to_ball,
    extract_params,
    oracle_from_params,
    params_from_json,
    params_to_json,
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
        res = verify_pd(out, tol=Tolerance(psd_eps=1e-8))
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


def boundary_params(seed: int) -> tuple[PdFunction, dict[ClassCursor, np.ndarray]]:
    """An F_2 k=2 function on S_2 and parameters for its S_3 classes.

    Each parameter has norm 0.5 but the last two, of norm 1 + 1e-12: the
    norm rule scales those back to norm 1, and scaling back is not
    idempotent, so a second pass may change their last bits.
    """
    phi = random_pd_function(CTX2, 2, 2, np.random.default_rng(seed))
    rng = np.random.default_rng(1000 + seed)
    cursors = list(WordIndex(CTX2, 3).classes(3))
    params = {}
    for i, cursor in enumerate(cursors):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        params[cursor] = g * ((1 + 1e-12 if i >= len(cursors) - 2 else 0.5) / np.linalg.norm(g, 2))
    return phi, params


def test_a_trace_replays_bit_for_bit_at_the_norm_boundary():
    # the trace holds the parameters its oracle chose, and its replay
    # applies complete's norm rule to them once, as the run did
    for seed in range(30):
        phi, params = boundary_params(seed)
        out, trace = extend_to_ball(phi, 3, oracle_from_params(params))
        *_, recorded = params_from_json(trace.to_json_dict())
        replay, _ = extend_to_ball(phi, 3, oracle_from_params(recorded))
        assert replay == out, seed


def test_each_step_checks_its_parameter_norm_once():
    phi = random_pd_function(CTX2, 1, 2, np.random.default_rng(0))
    with mock.patch("freepd.completion._renormalized", wraps=_renormalized) as checks:
        _, trace = extend_to_ball(phi, 4, random_gamma_oracle(0))
    assert checks.call_count == len(trace.steps) == 72


def test_the_trace_records_each_parameter_in_its_steps_shape():
    # an oracle may answer a (1, 1) step with a scalar, an empty step with a
    # (0, 0) array and any step with nested lists; the trace holds each in
    # the step's shape, and its file replays bit for bit
    phi = random_pd_function(GroupContext(3), 1, 1, np.random.default_rng(0))
    draw = random_gamma_oracle(0)
    shapes, forms = [], set()

    def oracle(cursor, dd):
        shapes.append(dd.gamma_shape)
        g = draw(cursor, dd)
        if 0 in dd.gamma_shape:
            form, answer = dd.gamma_shape, np.zeros((0, 0))
        elif len(shapes) % 2:
            form, answer = "scalar", np.asarray(g[0, 0])
        else:
            form, answer = "list", g.tolist()
        forms.add(form)
        return answer

    out, trace = extend_to_ball(phi, 4, oracle)
    assert forms == {"scalar", "list", (0, 1), (1, 0)}
    assert [step.gamma.shape for step in trace.steps] == shapes
    doc = json.loads(jsonio.dumps(trace.to_json_dict()))
    assert doc["schema"] == "trace.v1"
    *_, params = params_from_json(doc)
    replay, _ = extend_to_ball(phi, 4, oracle_from_params(params))
    assert replay == out


def _owner(a: np.ndarray) -> np.ndarray:
    """The array whose memory ``a`` views, or ``a`` itself."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_the_trace_holds_blocks_not_windows():
    # each step keeps k x k arrays and views of the output table only, so a
    # step's completed Gram window is freed when the step ends
    for k in (1, 2):
        phi = random_pd_function(CTX2, k, 2, np.random.default_rng(k))
        for oracle in (zero_oracle, random_gamma_oracle(seed=k)):
            out, trace = extend_to_ball(phi, 4, oracle)
            table = _owner(out.table.blocks)
            for step in trace.steps:
                for field in dataclasses.fields(step):
                    a = getattr(step, field.name)
                    if isinstance(a, np.ndarray):
                        owner = _owner(a)
                        assert owner is table or owner.nbytes <= k * k * a.itemsize, field.name


def test_trace_json_roundtrip():
    phi = random_pd_function(CTX2, 1, 2, RNG)
    out, trace = extend_to_ball(phi, 3, random_gamma_oracle(seed=6))
    doc = trace.to_json_dict()
    text = jsonio.dumps(doc)
    ctx, k, from_n, to_n, params = params_from_json(json.loads(text))
    assert (ctx, k, from_n, to_n) == (CTX2, 1, 2, 3)
    assert list(params) == [step.cursor for step in trace.steps]
    for cur, g in trace.params().items():
        assert np.array_equal(params[cur], g)
    replay, _ = extend_to_ball(phi, 3, oracle_from_params(params))
    assert replay == out


def test_trace_start_radius_is_a_non_negative_integer():
    _, trace = extend_to_ball(random_pd_function(CTX2, 1, 2, RNG), 3, random_gamma_oracle(seed=6))
    doc = trace.to_json_dict()
    for value in ("x", True, -1, 2.0):
        with pytest.raises(jsonio.SchemaError, match="'start_n' must be a non-negative integer"):
            params_from_json({**doc, "start_n": value})


def test_trace_steps_are_checked_as_params_are():
    phi = random_pd_function(CTX2, 1, 2, np.random.default_rng(6))
    _, trace = extend_to_ball(phi, 3, random_gamma_oracle(seed=6))
    doc = trace.to_json_dict()
    first = doc["steps"][0]
    with pytest.raises(jsonio.SchemaError, match=r"'steps' names the class of \(1, 1, 1\) twice"):
        params_from_json({**doc, "steps": [*doc["steps"], {**first, "class": [-1, -1, -1]}]})
    with pytest.raises(jsonio.SchemaError, match=r"class \(1, 2\) has a length outside \(2, inf\]"):
        params_from_json({**doc, "steps": [{**first, "class": [1, 2]}]})
    # an empty trace runs from its start radius to itself
    assert params_from_json({**doc, "steps": []})[2:] == (2, 2, {})


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
    # table they filled, radialization reuses its input's index, and the
    # checks and readers of a function build none
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
        assert verify_pd(ext)
        check_max_orthogonal(ext, 3)
        assert len(extract_params(ext, 2)) == 18 + 54  # the classes of lengths 3 and 4
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
        pair = [mul(r, E), mul(r, nu.rep)]
        translated = sorted((mul(r, w) for w in C), key=CTX2.sort_key)
        translated = [w for w in translated if w not in pair] + pair
        N = len(translated)
        A = np.zeros((N, N), dtype=complex)
        for i, s in enumerate(translated):
            for j, t in enumerate(translated):
                if {i, j} == {N - 2, N - 1}:
                    continue
                A[i, j] = phi.value(mul(inverse(s), t))[0, 0]
        P = PartialBlockMatrix(A, 1)
        filled = complete(P, np.zeros((1, 1)))[0, 0]
        assert np.allclose(filled, out.value(nu.rep)[0, 0])


def test_oracle_norm_policy():
    phi = random_pd_function(CTX2, 1, 1, RNG)
    # tiny overshoot is renormalized silently
    out, _ = extend_to_ball(phi, 2, lambda cur, dd: (1.0 + 1e-10) * np.ones(dd.gamma_shape))
    assert verify_pd(out, tol=Tolerance(psd_eps=1e-7)).ok
    with pytest.raises(ContractionNormError):
        extend_to_ball(phi, 2, lambda cur, dd: 1.1 * np.ones(dd.gamma_shape))
    # GAMMA_NORM_SLACK is 1e-9: an overshoot of 1e-8 is refused at the first class
    message = r"^oracle at class \(1, 1\): completion parameter has operator norm 1\.00000001 > 1$"
    with pytest.raises(ContractionNormError, match=message):
        extend_to_ball(phi, 2, lambda cur, dd: (1.0 + 1e-8) * np.ones(dd.gamma_shape))


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


@pytest.mark.parametrize(
    "seed, heavy, tol",
    [
        pytest.param(seed, heavy, tol, id=f"{seed}-{heavy}{suffix}")
        for tol, suffix in ((Tolerance(), ""), (Tolerance(psd_eps=1e-12), "-psd_eps=1e-12"))
        for seed in range(5)
        for heavy in (False, True)
    ],
)
def test_f1_extension_is_the_szego_recursion(seed, heavy, tol):
    # on F_1 the engine's steps are the Szego recursion: from Phi(a) = gamma_1,
    # the oracle's gamma_n at a^n must give the Levinson values c_n; in the
    # heavy set 30 % of the |gamma_n| are 0.999, so the errors fall below 1e-24.
    # A tighter tolerance only tightens the windows' partial-positivity test:
    # the Schur complements' rounding is not refused at psd_eps 1e-12
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
    out, _ = extend_to_ball(phi, N, oracle, tol)
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


def _reference_report(phi, n):
    """check_max_orthogonal class by class: one analyze per class of its window Sigma(e, t) + {e, t}."""
    index = phi.table.index
    worst, worst_class = 0.0, None
    for cursor in index.classes(n + 1):
        t = cursor.rep
        words = [*sigma_set(phi.ctx, E, t, index), E, t]
        P = PartialBlockMatrix(phi.table.gram_blocks([index.ids[w] for w in words]), phi.k)
        violation = float(np.linalg.norm(phi.value(t) - analyze(P).central, 2))
        if violation > worst:
            worst, worst_class = violation, cursor
    return worst, worst_class


def _reference_params(phi, n):
    """extract_params class by class: one extract_gamma per class of its clique window, e and s_nu last."""
    index = phi.table.index
    out = {}
    for length in range(n + 1, phi.ball_radius() + 1):
        for cursor in index.classes(length):
            clique = clique_C(cursor, index)
            words = [w for w in clique if w not in (E, cursor.rep)] + [E, cursor.rep]
            P = PartialBlockMatrix(phi.table.gram_blocks([index.ids[w] for w in words]), phi.k)
            out[cursor] = extract_gamma(P, phi.value(cursor.rep))
    return out


def _outcome(compute):
    try:
        return "value", compute()
    except ValueError as exc:
        return type(exc), str(exc)


def _damaged_f3() -> PdFunction:
    """The central extension of a random F_3 function to S_3, the class of (1, -2) scaled by 3."""
    ctx3 = GroupContext(3)
    values = extend_to_ball(random_pd_function(ctx3, 1, 1, np.random.default_rng(7)), 3)[0].table.by_class()
    values[(1, -2)] = 3.0 * values[(1, -2)]
    return PdFunction(ctx3, 1, BallDomain(3), values)


def test_params_decides_each_completion_without_completing_its_window(monkeypatch):
    # extract_gamma tests a filled entry on the 2k x 2k Schur block analyze
    # already holds, so params never builds a completed (p k)^2 window
    phi = random_pd_function(CTX2, 2, 2, np.random.default_rng(7))
    central, _ = extend_to_ball(phi, 4)
    oracle, trace = extend_to_ball(phi, 4, random_gamma_oracle(7))
    damaged = _damaged_f3()

    def no_window(self, filled):
        raise AssertionError("a completed window was built")

    monkeypatch.setattr(PartialBlockMatrix, "completed_with", no_window)
    assert all(not g.any() for g in extract_params(central, 2).values())
    recovered = extract_params(oracle, 2)
    for cursor, gamma in trace.params().items():
        assert np.abs(recovered[cursor] - gamma).max() <= 1e-8
    with pytest.raises(CompletionError, match="does not give a PSD completion"):
        extract_params(damaged, 0)


def test_stacked_checks_equal_the_per_class_loops():
    # check-ortho analyses each level in stacks of Sigma-windows and params
    # each length in stacks of clique windows of one size: both give what
    # the class-by-class loops give, bit for bit, on a central and a
    # random-oracle extension and on functions that are not positive.  In
    # the damaged one, a stack meets a failure that a class earlier in the
    # order, in another stack, fails differently: the error is that class's
    phi = random_pd_function(CTX2, 2, 2, np.random.default_rng(7))
    central, _ = extend_to_ball(phi, 4)
    oracle, _ = extend_to_ball(phi, 4, random_gamma_oracle(7))
    values = {E: np.eye(1), (1,): np.array([[1.5]]), (2,): np.zeros((1, 1))}
    bad = PdFunction(CTX2, 1, BallDomain(1), values)
    damaged = _damaged_f3()
    with pytest.raises(CompletionError, match="does not give a PSD completion"):
        extract_params(damaged, 0)
    for f in (central, oracle, bad, damaged):
        N = f.ball_radius()
        for n in range(N):
            report = check_max_orthogonal(f, n)
            assert (report.worst_violation, report.worst_class) == _reference_report(f, n)
        for n in range(N):
            got, expected = _outcome(lambda: extract_params(f, n)), _outcome(lambda: _reference_params(f, n))
            assert got[0] == expected[0]
            if got[0] != "value":
                assert got[1] == expected[1]
                continue
            assert list(got[1]) == list(expected[1])
            for cursor, gamma in expected[1].items():
                assert got[1][cursor].shape == gamma.shape and np.array_equal(got[1][cursor], gamma)
    assert check_max_orthogonal(central, 3).worst_violation > 0.0  # the reports are not all zero
    assert check_max_orthogonal(oracle, 3).worst_class is not None

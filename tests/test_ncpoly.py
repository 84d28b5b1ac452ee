import functools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freepd import jsonio, ncpoly
from freepd.ncpoly import (
    InfeasibleReport,
    NcContextError,
    NcPolynomial,
    SosCertificate,
    _GramProblem,
    certificate_from_json,
    certificate_to_json,
    eval_unitaries,
    factor_sos,
    ncpolynomial_from_json,
    sample_positivity,
    split_squares,
)
from freepd.sampling import haar_unitary, unitary_part
from freepd.words import E, GroupContext, ball, inverse, mul

CTX1 = GroupContext(1)
CTX2 = GroupContext(2)
RNG = np.random.default_rng(12)


def scalar_poly(ctx, terms):
    return NcPolynomial(ctx, 1, {w: np.array([[v]], dtype=complex) for w, v in terms.items()})


def random_poly(ctx, c, degree, rng):
    return NcPolynomial(
        ctx, c, {w: rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)) for w in ball(ctx, degree)}
    )


P_SHIFTED = scalar_poly(CTX1, {E: 2.0, (1,): 1.0, (-1,): 1.0})  # = (1+X)^* (1+X)


def test_nc_mul_example():
    one_plus = scalar_poly(CTX1, {E: 1.0, (1,): 1.0})
    prod = one_plus.adjoint() * one_plus
    assert prod == P_SHIFTED


def test_nc_mul_unit_and_involution():
    p = random_poly(CTX2, 2, 2, RNG)
    unit = NcPolynomial(CTX2, 2, {E: np.eye(2)})
    assert p * unit == p
    assert unit * p == p
    assert p.adjoint().adjoint() == p


def test_product_adjoint_rule():
    p = random_poly(CTX2, 2, 1, RNG)
    q = random_poly(CTX2, 2, 1, RNG)
    lhs = (p * q).adjoint()
    rhs = q.adjoint() * p.adjoint()
    assert lhs.terms.keys() == rhs.terms.keys()
    for w in lhs.terms:
        assert np.abs(lhs.terms[w] - rhs.terms[w]).max() <= 1e-12


def test_nc_mul_reduces_words():
    p = scalar_poly(CTX1, {(1,): 1.0})
    q = scalar_poly(CTX1, {(-1,): 1.0})
    assert (p * q).terms.keys() == {E}


def test_context_mismatch():
    with pytest.raises(NcContextError):
        scalar_poly(CTX1, {E: 1.0}) * scalar_poly(CTX2, {E: 1.0})


def test_degree_and_hermitian():
    assert P_SHIFTED.degree == 1
    assert P_SHIFTED.is_hermitian()
    assert not scalar_poly(CTX1, {(1,): 1.0}).is_hermitian()
    assert scalar_poly(CTX1, {E: 1.0}).degree == 0


def test_eval_examples():
    assert np.allclose(eval_unitaries(P_SHIFTED, [np.array([[-1.0]])]), 0.0)
    const = NcPolynomial(CTX2, 2, {E: np.eye(2)})
    U = [haar_unitary(3, RNG) for _ in range(2)]
    assert np.allclose(eval_unitaries(const, U), np.eye(6))


def test_eval_hermitian_output():
    p = random_poly(CTX2, 2, 1, RNG)
    p = p + p.adjoint()
    assert p.is_hermitian()
    U = [haar_unitary(3, RNG) for _ in range(2)]
    M = eval_unitaries(p, U)
    assert np.abs(M - M.conj().T).max() <= 1e-10


def test_eval_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        eval_unitaries(P_SHIFTED, [np.array([[0.5]])])


def test_sample_positivity_examples():
    assert sample_positivity(P_SHIFTED, trials=200, d_max=3, seed=1) >= -1e-10
    indef = scalar_poly(CTX1, {(1,): 1.0, (-1,): 1.0})
    assert sample_positivity(indef, trials=200, d_max=3, seed=1) < -1.0
    const = scalar_poly(CTX1, {E: 1.0})
    assert np.isclose(sample_positivity(const, trials=10, d_max=2, seed=0), 1.0)


def test_sample_requires_hermitian():
    with pytest.raises(ValueError):
        sample_positivity(scalar_poly(CTX1, {(1,): 1.0}), trials=5, d_max=2, seed=0)


@settings(derandomize=True, max_examples=40, deadline=None)
@example(group_degree=(1, 2), c=2, rank=5, seed=0)
@given(
    group_degree=st.sampled_from([(1, 1), (2, 1), (1, 2)]),
    c=st.sampled_from([1, 2]),
    rank=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_jacobian_is_the_linearized_class_sum(group_degree, c, rank, seed):
    m, degree = group_degree
    ctx = GroupContext(m)
    rng = np.random.default_rng(seed)
    prob = _GramProblem(random_poly(ctx, c, degree, rng))
    shape = (rank, prob.size)
    B = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    dB = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    dF = prob.class_sums(B.conj().T @ dB + dB.conj().T @ B).reshape(-1)
    expected = np.empty(2 * dF.size)
    expected[0::2] = dF.real
    expected[1::2] = dF.imag
    got = prob.jacobian(B) @ np.concatenate([dB.real.reshape(-1), dB.imag.reshape(-1)])
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


kernel_property = settings(derandomize=True, max_examples=40, deadline=None)
polynomials = {
    "m": st.sampled_from([1, 2, 3]),
    "c": st.sampled_from([1, 2]),
    "degree": st.sampled_from([1, 2]),
    "seed": st.integers(0, 2**32 - 1),
}


def kron_reference(p, Us):
    """p(U) at one tuple of d x d unitaries: one word product and one np.kron per term."""
    d = Us[0].shape[0]
    out = np.zeros((p.c * d, p.c * d), dtype=complex)
    for w, A in p.terms.items():
        W = np.eye(d, dtype=complex)
        for x in w:
            U = Us[abs(x) - 1]
            W = W @ (U if x > 0 else U.conj().T)
        out += np.kron(A, W)
    return out


def streaming_sample(p, trials, d_max, seed):
    """The least sampled eigenvalue, one trial at a time."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        d = int(rng.integers(1, d_max + 1))
        M = kron_reference(p, [haar_unitary(d, rng) for _ in range(p.ctx.m)])
        worst = min(worst, float(np.linalg.eigvalsh((M + M.conj().T) / 2.0).min()))
    return worst


@kernel_property
@example(m=2, c=1, degree=3, seed=0)  # odd degree: the classes of length 4 sum to zero
@given(**polynomials)
def test_slot_map_sums_like_the_scatter(m, c, degree, seed):
    # the bincount over the slot map adds each class sum in the order of an
    # np.add.at scatter over (Gram row, Gram column, class), bit for bit
    ctx = GroupContext(m)
    rng = np.random.default_rng(seed)
    p = random_poly(ctx, c, degree, rng)
    prob = _GramProblem(p)
    h = (degree + 1) // 2
    index = ball(ctx, h)
    assert prob.index == index
    # slots numbered by the ball order of S_2h, from word arithmetic alone
    class_words = ball(ctx, 2 * h)
    ids = {w: i for i, w in enumerate(class_words)}
    N = len(index)
    ar = np.arange(c)
    ii, jj = np.divmod(np.arange(N * N), N)
    rows = ii[:, None, None] * c + ar[:, None]
    cols = jj[:, None, None] * c + ar
    cls = np.array([ids[mul(inverse(s), t)] for s in index for t in index])
    counts = np.bincount(cls, minlength=len(class_words)).astype(float)
    targets = np.stack([p.coefficient(w) for w in class_words])
    G = rng.normal(size=(N * c, N * c)) + 1j * rng.normal(size=(N * c, N * c))
    sums = np.zeros_like(targets)
    np.add.at(sums, cls, G[rows, cols])
    assert np.array_equal(prob.class_sums(G), sums.reshape(-1))
    out = G.copy()
    out[rows, cols] += ((targets - sums) / counts[:, None, None])[cls]
    assert np.array_equal(prob.affine_project(G), (out + out.conj().T) / 2.0)


@kernel_property
@given(**polynomials, d=st.integers(1, 3), stack=st.integers(1, 4))
def test_stacked_evaluation_equals_the_kron_loop(m, c, degree, seed, d, stack):
    rng = np.random.default_rng(seed)
    p = random_poly(GroupContext(m), c, degree, rng)
    tuples = [[haar_unitary(d, rng) for _ in range(m)] for _ in range(stack)]
    got = eval_unitaries(p, [np.stack([Us[k] for Us in tuples]) for k in range(m)])
    assert got.shape == (stack, c * d, c * d)
    for M, Us in zip(got, tuples):
        assert np.array_equal(M, kron_reference(p, Us))
        assert np.array_equal(eval_unitaries(p, Us), M)


@kernel_property
@given(
    **polynomials,
    trials=st.integers(1, 30),
    d_max=st.integers(1, 4),
    chunk=st.sampled_from([1, 40, 1 << 18]),
)
def test_sampling_equals_the_streaming_loop(m, c, degree, seed, trials, d_max, chunk):
    # the same draws and the same minimum as one trial at a time, for any chunk budget
    p = random_poly(GroupContext(m), c, degree, np.random.default_rng(seed))
    p = p + p.adjoint()
    with mock.patch.object(ncpoly, "_SAMPLE_CHUNK", chunk):
        got = sample_positivity(p, trials, d_max, seed)
    assert got == streaming_sample(p, trials, d_max, seed)


@kernel_property
@given(d=st.integers(1, 4), stack=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_stacked_unitary_part_equals_haar_unitary(d, stack, seed):
    # one normal draw for a stack of Ginibre matrices holds the values of, and
    # leaves the generator as, one haar_unitary call per matrix; one stacked QR
    # of it gives each call's unitary bit for bit
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(stack, 2, d, d))
    drawn_state = rng.bit_generator.state
    rng = np.random.default_rng(seed)
    one_by_one = [haar_unitary(d, rng) for _ in range(stack)]
    assert rng.bit_generator.state == drawn_state
    got = unitary_part(G[:, 0] + 1j * G[:, 1])
    assert got.shape == (stack, d, d)
    for U, V in zip(got, one_by_one):
        assert np.array_equal(U, V)


def test_factor_hand_example():
    cert = factor_sos(P_SHIFTED, tol=1e-8)
    assert isinstance(cert, SosCertificate)
    assert cert.residual <= 1e-8
    qs = split_squares(cert)
    total = qs[0].adjoint() * qs[0]
    for Q in qs[1:]:
        total = total + Q.adjoint() * Q
    assert (P_SHIFTED - total).max_coefficient_norm() <= 1e-8


def test_factor_planted():
    for seed in (0, 1):
        c = 1 + seed
        rng = np.random.default_rng(seed)
        q0 = random_poly(CTX2, c, 1, rng)
        p = q0.adjoint() * q0
        cert = factor_sos(p, tol=1e-6, max_iter=20_000)
        assert isinstance(cert, SosCertificate)
        assert cert.residual <= 1e-6
        assert cert.iterations <= 20_000


def test_polish_survives_a_failed_least_squares_solve():
    # a least-squares solve that does not converge ends its polish attempt
    # and never escapes factor_sos; with c = 2 the search reaches the polish
    q0 = random_poly(CTX2, 2, 1, np.random.default_rng(0))
    p = q0.adjoint() * q0
    calls = []

    def no_convergence(*args, **kwargs):
        calls.append(args[0].shape)
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    with mock.patch.object(np.linalg, "lstsq", no_convergence):
        result = factor_sos(p, tol=1e-6, max_iter=1000)
    assert calls
    assert isinstance(result, (SosCertificate, InfeasibleReport))
    if isinstance(result, SosCertificate):
        assert result.residual <= 1e-6


def test_polish_skips_a_jacobian_above_the_entry_cap():
    # with no rung under the cap the polish never forms a Jacobian, and the
    # projections run on to the iteration budget
    q0 = random_poly(CTX2, 2, 1, np.random.default_rng(0))
    p = q0.adjoint() * q0
    calls = []
    jacobian = _GramProblem.jacobian

    def counted(prob, B):
        calls.append(4 * prob.targets.size * B.shape[0] * prob.size)
        return jacobian(prob, B)

    with mock.patch.object(_GramProblem, "jacobian", counted):
        factor_sos(p, tol=1e-6, max_iter=1000)
        assert calls  # under the default cap this search polishes
        cap = min(calls) - 1
        calls.clear()
        with mock.patch.object(ncpoly, "JACOBIAN_ENTRY_CAP", cap):
            result = factor_sos(p, tol=1e-6, max_iter=1000)
    assert not calls
    assert isinstance(result, InfeasibleReport)
    assert result.iterations == 1000
    assert result.witness is None


def diameter_n_square(ctx, n, c, rng):
    """q* q for a random q whose support has diameter n.

    The support is g D for a word g of S_1 and a random part D of S_h
    (n = 2h) or of S_(h-1) u a S_(h-1) (n = 2h - 1) that keeps two words
    at distance n, so q* q has degree n.  Every support of diameter n is
    such a translate; q* q does not depend on g beyond the order in which
    its terms are summed.
    """
    h = (n + 1) // 2
    a, b = (int(x) for x in rng.permutation([1, 2]) * rng.choice((-1, 1), size=2))
    if n % 2 == 0:
        base, ends = ball(ctx, h), [(a,) * h, (b,) * h]
    else:
        near = ball(ctx, h - 1)
        base, ends = near + [mul((a,), w) for w in near], [(b,) * (h - 1), (a,) * h]
    keep = {w for w in base if rng.random() < 0.5} | set(ends)
    g = ball(ctx, 1)[rng.integers(0, 2 * ctx.m + 1)]
    q = NcPolynomial(
        ctx, c, {mul(g, w): rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)) for w in keep}
    )
    return q.adjoint() * q


def assert_certified_on_half_ball(p, tol):
    h = (p.degree + 1) // 2
    cert = factor_sos(p, tol=tol)
    assert isinstance(cert, SosCertificate), cert
    assert cert.residual <= tol
    assert cert.index == tuple(ball(p.ctx, h))
    assert all(len(w) <= h for w in cert.factors)
    qs = split_squares(cert)
    total = qs[0].adjoint() * qs[0]
    for Q in qs[1:]:
        total = total + Q.adjoint() * Q
    assert (p - total).max_coefficient_norm() <= tol


@settings(derandomize=True, max_examples=10, deadline=None)
@example(n=3, c=2, squares=2, seed=28074550)  # needs the polish rank 2c + 1
@given(
    n=st.sampled_from([2, 3, 4]),
    c=st.sampled_from([1, 1, 2]),
    squares=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sums_of_planted_squares_certify_on_the_half_ball(n, c, squares, seed):
    # a sum of squares q* q whose supports have diameter <= n has a Gram
    # certificate over S_ceil(n/2), and the search finds it there
    rng = np.random.default_rng(seed)
    p = diameter_n_square(CTX2, n, c, rng)
    for _ in range(squares - 1):
        p = p + diameter_n_square(CTX2, n, c, rng)
    assert p.degree == n
    assert_certified_on_half_ball(p, 1e-6)


def test_degree_four_planted_square_certifies():
    rng = np.random.default_rng(3000)
    q0 = random_poly(CTX2, 1, 2, rng)
    p = q0.adjoint() * q0
    assert p.degree == 4
    assert_certified_on_half_ball(p, 1e-6)


def test_factor_certificate_contract():
    rng = np.random.default_rng(3)
    q0 = random_poly(CTX2, 2, 1, rng)
    p = q0.adjoint() * q0
    cert = factor_sos(p, tol=1e-6)
    assert isinstance(cert, SosCertificate)
    d = p.degree
    # factor degree bound and dimension bound
    for w, B in cert.factors.items():
        assert len(w) <= d
        assert B.shape == (cert.rank, cert.c)
    assert cert.rank <= len(cert.index) * cert.c
    # gram is PSD and matches the stacked factors
    B = np.hstack([cert.factors[w] for w in cert.index])
    assert np.abs(B.conj().T @ B - cert.gram).max() <= 1e-12
    assert np.linalg.eigvalsh(cert.gram).min() >= -1e-12
    # soundness: sampled evaluations stay nearly nonnegative
    assert sample_positivity(p, trials=200, d_max=3, seed=7) >= -10 * 1e-6


def assert_separating_witness(p, report):
    """The report's witness is a PSD Gram matrix of a function phi' with <p, phi'> < 0.

    The checks read the matrix and p only: phi' is read off the blocks by
    word arithmetic over the index S_ceil(deg p / 2).
    """
    c, index = p.c, ball(p.ctx, (p.degree + 1) // 2)
    W = report.witness
    assert W.shape == (len(index) * c, len(index) * c)
    phi = {}
    for i, s in enumerate(index):
        for j, t in enumerate(index):
            block = W[i * c : (i + 1) * c, j * c : (j + 1) * c]
            x = mul(inverse(s), t)
            assert np.array_equal(phi.setdefault(x, block), block), x
    n = W.shape[0]
    assert np.linalg.eigvalsh(W).min() >= -n * np.finfo(float).eps * np.linalg.norm(W, 2)
    pairing = sum(np.trace(phi[x].conj().T @ A).real for x, A in p.terms.items())
    assert pairing < 0
    assert report.separation == pytest.approx(pairing, rel=1e-9, abs=1e-12)


def test_factor_infeasible_report():
    indef = scalar_poly(CTX1, {(1,): 1.0, (-1,): 1.0})
    report = factor_sos(indef, tol=1e-8, max_iter=1500)
    assert isinstance(report, InfeasibleReport)
    assert report.gap > 1e-3
    # the first gap check finds a positive definite function separating p
    assert report.iterations == 25
    assert_separating_witness(indef, report)
    # cross-check: sampling independently exhibits negativity
    assert sample_positivity(indef, trials=200, d_max=3, seed=2) <= -0.5
    # the boundary square (1 + X)* (1 + X) beside it certifies
    assert isinstance(factor_sos(P_SHIFTED, tol=1e-8), SosCertificate)


def test_exhausted_budget_carries_no_witness():
    # 2(1 - eps)|c| + c X + conj(c) X*, eps = 0.001, is not positive, but too
    # close to the boundary for a witness within 100 iterations
    p = scalar_poly(CTX1, {E: 2 * 0.999, (1,): 1.0, (-1,): 1.0})
    report = factor_sos(p, tol=1e-8, max_iter=100)
    assert isinstance(report, InfeasibleReport)
    assert report.iterations == 100
    assert report.witness is None and report.separation is None


def linear_polynomial(ctx, coefficients, eps):
    """2(1 - eps) sum |c_i| + sum_i (c_i X_i + conj(c_i) X_i*): positive exactly when eps <= 0."""
    a0 = 2 * (1 - eps) * sum(abs(z) for z in coefficients)
    terms = {E: a0}
    for i, z in enumerate(coefficients, start=1):
        terms[(i,)], terms[(-i,)] = z, np.conj(z)
    return scalar_poly(ctx, terms)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    m=st.integers(1, 3),
    eps=st.floats(0.1, 1.0),
    c=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_witness_stops_exactly_the_non_positive_polynomials(m, eps, c, seed):
    # an indefinite linear polynomial at distance eps from the boundary stops
    # on a separating witness by iteration 200
    ctx, rng = GroupContext(m), np.random.default_rng(seed)
    coefficients = rng.uniform(0.5, 1.5, m) * np.exp(2j * np.pi * rng.uniform(size=m))
    p = linear_polynomial(ctx, coefficients, eps)
    report = factor_sos(p, tol=1e-8, max_iter=200)
    assert isinstance(report, InfeasibleReport) and report.witness is not None
    assert report.iterations <= 200
    assert_separating_witness(p, report)
    # sums of squares never do: the boundary square sum_i |c_i| (1 + u_i X_i)* (1 + u_i X_i)
    # of the same coefficients, and a sum of two planted squares
    q1, q2 = random_poly(ctx, c, 1, rng), random_poly(ctx, c, 1, rng)
    for square in (linear_polynomial(ctx, coefficients, 0.0), q1.adjoint() * q1 + q2.adjoint() * q2):
        result = factor_sos(square, tol=1e-6, max_iter=1000)
        assert not isinstance(result, InfeasibleReport) or result.witness is None


def test_factor_requires_hermitian():
    with pytest.raises(ValueError):
        factor_sos(scalar_poly(CTX1, {(1,): 1.0}))


def test_split_squares_resums():
    rng = np.random.default_rng(9)
    q1 = random_poly(CTX2, 1, 1, rng)
    q2 = random_poly(CTX2, 1, 1, rng)
    p = q1.adjoint() * q1 + q2.adjoint() * q2
    cert = factor_sos(p, tol=1e-6)
    assert isinstance(cert, SosCertificate)
    qs = split_squares(cert)
    total = qs[0].adjoint() * qs[0]
    for Q in qs[1:]:
        total = total + Q.adjoint() * Q
    assert (p - total).max_coefficient_norm() <= 1e-6


def test_split_single_square_when_rank_c():
    cert = factor_sos(P_SHIFTED, tol=1e-8)
    qs = split_squares(cert)
    assert len(qs) == max(1, -(-cert.rank // cert.c))


def test_zero_polynomial():
    zero = NcPolynomial(CTX1, 1, {})
    cert = factor_sos(zero, tol=1e-10, max_iter=100)
    assert isinstance(cert, SosCertificate)
    assert cert.residual == 0.0


def test_ncpoly_json_roundtrip():
    p = random_poly(CTX2, 2, 1, RNG)
    p = p + p.adjoint()
    doc = p.to_json_dict()
    back = ncpolynomial_from_json(json.loads(jsonio.dumps(doc)))
    assert back == p
    # terms listed at one word add up
    doc = P_SHIFTED.to_json_dict()
    doc["terms"] += [{"word": [1], "value": [[[0.5, 0.0]]]}, {"word": [-1], "value": [[[0.5, 0.0]]]}]
    assert ncpolynomial_from_json(doc) == scalar_poly(CTX1, {E: 2.0, (1,): 1.5, (-1,): 1.5})
    with pytest.raises(jsonio.SchemaError):
        ncpolynomial_from_json({"schema": "pdfun.v1"})


def test_certificate_factor_word_listed_twice_is_refused():
    doc = certificate_to_json(factor_sos(P_SHIFTED, tol=1e-8))
    doc["factors"].append(doc["factors"][0])
    with pytest.raises(jsonio.SchemaError, match=r"'factors' lists the word \[\] twice"):
        certificate_from_json(doc)


def certificate_doc() -> dict:
    """The cert.v1 document of P_SHIFTED over the index S_1 of F_1: [], [1], [-1]."""
    return json.loads(_certificate_text())


@functools.cache
def _certificate_text() -> str:
    return jsonio.dumps(certificate_to_json(factor_sos(P_SHIFTED, tol=1e-8)))


@pytest.mark.parametrize("value", ["12", True, 7.9, -1, None])
def test_certificate_iterations_must_be_a_natural(value):
    doc = certificate_doc()
    doc["iterations"] = value
    with pytest.raises(jsonio.SchemaError, match="'iterations' must be a non-negative integer"):
        certificate_from_json(doc)


@pytest.mark.parametrize("value", ["nan", False, float("nan"), float("inf"), -1e-3, pytest.param(10**400, id="huge"), None])
def test_certificate_residual_must_be_a_finite_non_negative_number(value):
    doc = certificate_doc()
    doc["residual"] = value
    with pytest.raises(jsonio.SchemaError, match="'residual' must be a finite non-negative number"):
        certificate_from_json(doc)


@pytest.mark.parametrize(
    "edit",
    [
        lambda fs: fs.pop(),  # a factor missing
        lambda fs: fs.reverse(),  # out of index order
        lambda fs: fs[1].update(word=[1, 1]),  # a word outside the index
        lambda fs: fs.append({"word": [1, 1], "value": fs[0]["value"]}),  # one word too many
    ],
    ids=["missing", "reordered", "foreign", "extra"],
)
def test_certificate_factor_words_must_be_the_index_words(edit):
    doc = certificate_doc()
    edit(doc["factors"])
    with pytest.raises(jsonio.SchemaError, match="'factors' words must be the 'index' words"):
        certificate_from_json(doc)


@pytest.mark.parametrize("shape", [(2, 3), (2, 2), (4, 4)])
def test_certificate_gram_must_span_the_index(shape):
    doc = certificate_doc()
    doc["gram"] = jsonio.matrix_to_json(np.eye(*shape))
    with pytest.raises(jsonio.SchemaError, match=r"matrix has shape .*, expected \(3, 3\)"):
        certificate_from_json(doc)


def test_certificate_json_roundtrip():
    cert = factor_sos(P_SHIFTED, tol=1e-8)
    doc = certificate_to_json(cert)
    back = certificate_from_json(json.loads(jsonio.dumps(doc)))
    assert back.index == cert.index
    assert back.residual == cert.residual
    assert np.array_equal(back.gram, cert.gram)
    for w in cert.index:
        assert np.array_equal(back.factors[w], cert.factors[w])

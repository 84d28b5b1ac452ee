import functools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freepd import jsonio, ncpoly
from freepd.linalg import DATA_RTOL
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


def test_hermitian_test_is_relative_to_the_coefficients():
    # coefficients one ulp apart are Hermitian at every scale (the ulp of 1e6 is
    # 1.16e-10); a relative asymmetry of 1e-6 is not
    for scale in (1.0, 1e6):
        near = np.nextafter(scale, np.inf)
        assert scalar_poly(CTX1, {E: 2 * scale, (1,): scale, (-1,): near}).is_hermitian()
        far = scale * (1 + 1e-6)
        assert not scalar_poly(CTX1, {E: 2 * scale, (1,): scale, (-1,): far}).is_hermitian()


def test_hermitian_test_compares_every_block_with_its_partner():
    # each block is compared with the adjoint of its partner at s^-1, a zero
    # block where p has no term: one entry moved just past DATA_RTOL times the
    # coefficient scale breaks the symmetry, and one moved just short of it does not
    q = random_poly(CTX2, 2, 1, np.random.default_rng(11))
    p = q.adjoint() * q
    w = (1, -2)
    assert w in p.terms and inverse(w) in p.terms
    bound = DATA_RTOL * max(1.0, max(np.abs(B).max() for B in p.terms.values()))
    for factor, hermitian in ((0.99, True), (1.01, False)):
        nudge = np.zeros((2, 2))
        nudge[0, 1] = factor * bound
        moved = {**p.terms, inverse(w): p.terms[inverse(w)] + nudge}
        assert NcPolynomial(CTX2, 2, moved).is_hermitian() is hermitian
        unpaired = {**p.terms, (1, 1, 1): nudge}
        assert NcPolynomial(CTX2, 2, unpaired).is_hermitian() is hermitian


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


def dense_jacobian(prob, B):
    """Real Jacobian of the class sums of B* B in (Re B, Im B), rows interleaved re/im.

    Entry (i, j) of d(B* B) sums conj(dB[r, i]) B[r, j] + conj(B[r, i]) dB[r, j]
    over the factor rows r; each product scatters the real 2 x 2 block of
    w -> z conj(w) (sign 1) or w -> z w (sign -1) into the equation rows of
    the slot map.
    """
    R, n, neq = B.shape[0], prob.size, prob.targets.size
    eqs = prob.entry[..., None]
    J = np.zeros((neq, 2, 2, R * n))

    def scatter(z, gram_index, sign):
        var = np.arange(R) * n + gram_index[..., None]
        re_row = np.stack([z.real, sign * z.imag], -1)
        im_row = np.stack([z.imag, -sign * z.real], -1)
        np.add.at(J, (eqs, slice(None), slice(None), var), np.stack([re_row, im_row], -2))

    rows, cols = np.indices((n, n))
    scatter(B.T[cols], rows, 1.0)
    scatter(B.T[rows].conj(), cols, -1.0)
    return J.reshape(2 * neq, -1)


def real_parts(z):
    """A complex array as the real vector (Re z, Im z), the polish's unknowns."""
    return np.concatenate([z.real.reshape(-1), z.imag.reshape(-1)])


@settings(derandomize=True, max_examples=40, deadline=None)
@example(group_degree=(1, 2), c=2, rank=5, seed=0)
@given(
    group_degree=st.sampled_from([(1, 1), (2, 1), (1, 2)]),
    c=st.sampled_from([1, 2]),
    rank=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_jacobian_is_the_linearized_class_sum(group_degree, c, rank, seed):
    # the polish's two products are J v and J^T rho of the dense Jacobian, and
    # adjoint to each other under the real inner product Re sum conj(x) y
    m, degree = group_degree
    ctx = GroupContext(m)
    rng = np.random.default_rng(seed)
    prob = _GramProblem(random_poly(ctx, c, degree, rng))
    shape = (rank, prob.size)
    B = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    dB = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = rng.normal(size=prob.targets.size) + 1j * rng.normal(size=prob.targets.size)
    J = dense_jacobian(prob, B)
    Jv = prob.jac_product(B, dB)
    expected = J @ real_parts(dB)
    assert np.abs(np.stack([Jv.real, Jv.imag], -1).reshape(-1) - expected).max() <= 1e-12 * np.abs(expected).max()
    JTrho = prob.jac_adjoint(B, rho)
    expected = J.T @ np.stack([rho.real, rho.imag], -1).reshape(-1)
    assert np.abs(real_parts(JTrho) - expected).max() <= 1e-12 * np.abs(expected).max()
    left, right = np.vdot(rho, Jv).real, np.vdot(dB, JTrho).real
    assert abs(left - right) <= 1e-12 * np.linalg.norm(Jv) * np.linalg.norm(rho)


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
@example(m=2, c=2, degree=3, seed=0, d=2, stack=3)  # words share prefixes of length 2
@given(
    **{**polynomials, "degree": st.sampled_from([1, 2, 3])},
    d=st.integers(1, 3),
    stack=st.integers(1, 4),
)
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


def test_planted_squares_certify_at_the_first_gap_check():
    # the first gap check runs at iteration 1 and polishes, so each of acceptance_10's
    # twenty planted squares (seeds 3000-3019, c = 1 and 2 in turn) certifies there
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        c = 1 if seed % 2 == 0 else 2
        q0 = NcPolynomial(
            CTX2, c, {w: rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)) for w in ball(CTX2, 1)}
        )
        cert = factor_sos(q0.adjoint() * q0, tol=1e-6)
        assert isinstance(cert, SosCertificate), f"seed {seed}: {cert}"
        assert cert.iterations == 1, f"seed {seed}"


def test_polish_whose_products_vanish_returns_its_seed():
    # at a zero factor both products vanish, so CG stops before its first
    # division and the attempt returns its seed and residual
    q0 = random_poly(CTX2, 2, 1, np.random.default_rng(0))
    prob = _GramProblem(q0.adjoint() * q0)
    seed = np.zeros((3, prob.size), dtype=complex)
    with np.errstate(all="raise"):
        B, res = ncpoly._gauss_newton_polish(prob, seed, 1e-7)
    assert np.array_equal(B, seed)
    assert res == prob.stacked_residual(seed)[1] > 0.0


def test_polish_memory_stays_that_of_the_slot_map():
    # F_2, degree 8, c = 1 at rank 4: a dense Jacobian would hold 2 * 13,121 x
    # 2 * 4 * 161 float64 (270 MB); one matrix-free Gauss-Newton step from
    # near the factor of a sum of four squares certifies it in under 8 MiB
    rng = np.random.default_rng(8)
    qs = [random_poly(CTX2, 1, 4, rng) for _ in range(4)]
    p = qs[0].adjoint() * qs[0]
    for q in qs[1:]:
        p = p + q.adjoint() * q
    prob = _GramProblem(p)
    assert (prob.size, prob.targets.size) == (161, 13_121)
    Q = np.vstack([np.hstack([q.coefficient(w) for w in prob.index]) for q in qs])
    seed = Q + 1e-6 * rng.normal(size=Q.shape)
    assert prob.stacked_residual(seed)[1] > 1e-4
    tracemalloc.start()
    try:
        B, res = ncpoly._gauss_newton_polish(prob, seed, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res <= 1e-8
    assert peak <= 8 << 20


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
    # the first gap check, at iteration 1, finds a positive definite function separating p
    assert report.iterations == 1
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


def test_split_squares_pads_the_last_square():
    # c = 2 over the index S_1 of F_2: the factor rows go c at a time into
    # the squares, the last group zero-padded, and the squares resum to the
    # polynomial of the Gram matrix
    rng = np.random.default_rng(4)
    index, c = tuple(ball(CTX2, 1)), 2
    for R in (0, 2, 3, 5):
        B = rng.normal(size=(R, len(index) * c)) + 1j * rng.normal(size=(R, len(index) * c))
        G = B.conj().T @ B
        factors = {w: B[:, i * c : (i + 1) * c] for i, w in enumerate(index)}
        qs = split_squares(SosCertificate(index, 2, c, G, factors, residual=0.0, iterations=1))
        assert len(qs) == max(1, -(-R // c))
        p = {}
        for i, s in enumerate(index):
            for j, t in enumerate(index):
                w = mul(inverse(s), t)
                p[w] = p.get(w, 0) + G[i * c : (i + 1) * c, j * c : (j + 1) * c]
        total = sum((Q.adjoint() * Q for Q in qs[1:]), qs[0].adjoint() * qs[0])
        assert (NcPolynomial(CTX2, c, p) - total).max_coefficient_norm() <= 1e-10


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


def test_certificate_index_must_not_be_empty():
    doc = certificate_doc()
    doc.update(index=[], gram=[], factors=[])
    with pytest.raises(jsonio.SchemaError, match="'index' must list at least one word"):
        certificate_from_json(doc)


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: rows + [[[0.0, 0.0]]],  # three rows where the others have two
        lambda rows: rows[:1],  # one row
        lambda rows: [],  # no rows
        lambda rows: [row + [[0.0, 0.0]] for row in rows],  # two columns for c = 1
    ],
    ids=["taller", "shorter", "empty", "wider"],
)
def test_certificate_factor_blocks_must_share_one_shape(edit):
    doc = certificate_doc()  # a rank-2 certificate of a c = 1 polynomial
    doc["factors"][1]["value"] = edit(doc["factors"][1]["value"])
    with pytest.raises(jsonio.SchemaError, match=r"'factors' blocks must share one shape \(R, 1\)"):
        certificate_from_json(doc)


def test_rank_0_certificate_json_roundtrip():
    # p = 0 is certified with no squares: each factor block is (0, c), written as []
    for c in (1, 2):
        cert = factor_sos(NcPolynomial(CTX2, c, {}), tol=1e-8)
        assert cert.rank == 0
        back = certificate_from_json(json.loads(jsonio.dumps(certificate_to_json(cert))))
        assert back.rank == 0
        assert all(back.factors[w].shape == (0, c) for w in back.index)
        (square,) = split_squares(back)
        assert square == NcPolynomial(CTX2, c, {})


def test_certificate_json_roundtrip():
    cert = factor_sos(P_SHIFTED, tol=1e-8)
    doc = certificate_to_json(cert)
    back = certificate_from_json(json.loads(jsonio.dumps(doc)))
    assert back.index == cert.index
    assert back.residual == cert.residual
    assert np.array_equal(back.gram, cert.gram)
    for w in cert.index:
        assert np.array_equal(back.factors[w], cert.factors[w])

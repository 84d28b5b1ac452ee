"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass line
and the wall time per criterion.
"""

import itertools
import time

import networkx as nx
import numpy as np

from freepd.cayley import clique_C
from freepd.completion import PartialBlockMatrix, analyze, complete
from freepd.extend import (
    check_max_orthogonal,
    extend_to_ball,
    extract_params,
    oracle_from_params,
    zero_oracle,
)
from freepd.linalg import Tolerance
from freepd.ncpoly import (
    InfeasibleReport,
    NcPolynomial,
    SosCertificate,
    factor_sos,
    sample_positivity,
    split_squares,
)
from freepd.pdfun import (
    BallDomain,
    PdFunction,
    function_of_toeplitz,
    radialize,
    toeplitz_of,
    verify_pd,
)
from freepd.quasimult import GeneratorAssignment, as_pdfunction, haagerup, quasi_mult
from freepd.sampling import random_contraction, random_gamma_oracle, random_pd_function
from freepd.words import (
    E,
    ClassCursor,
    GroupContext,
    ball,
    classes_up_to,
    inverse,
    mul,
)
from test_cayley import cutoff_graph

CTX2 = GroupContext(2)
CTX1 = GroupContext(1)


def _report(number, title, t0):
    print(f"\nACCEPTANCE {number} ({title}): PASS [{time.time() - t0:.1f}s]")


def test_acceptance_01_chordality():
    t0 = time.time()
    S3 = ball(CTX2, 3)
    count = 0
    for nu in classes_up_to(CTX2, 3):
        assert nx.is_chordal(cutoff_graph(S3, nu)), f"cutoff {nu.rep} not chordal"
        count += 1
    assert count == 27
    _report(1, "every cutoff graph on S_3 is chordal", t0)


def test_acceptance_02_unique_new_edge():
    t0 = time.time()
    for nu in classes_up_to(CTX2, 3):
        if nu.rep == E:
            continue
        C = clique_C(nu)
        hits = [
            (s, t)
            for s, t in itertools.combinations(C, 2)
            if ClassCursor(mul(inverse(s), t), CTX2) == nu
        ]
        assert len(hits) == 1, f"clique of {nu.rep} has {len(hits)} new edges"
    _report(2, "completion clique has exactly one new edge", t0)


def test_acceptance_03_completion_correctness():
    t0 = time.time()
    rng = np.random.default_rng(33)
    for trial in range(500):
        k = 1 if trial % 2 == 0 else 2
        p = int(rng.integers(2, 7))
        n = p * k
        W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A = W.conj().T @ W / n + 0.05 * np.eye(n)
        i, j = sorted(int(x) for x in rng.choice(p, size=2, replace=False))
        # the window puts blocks i and j last, and hides that pair
        order = [a for a in range(p) if a not in (i, j)] + [i, j]
        idx = (np.array(order)[:, None] * k + np.arange(k)).ravel()
        M = A[np.ix_(idx, idx)]
        M[-2 * k : -k, -k:] = 0.0
        M[-k:, -2 * k : -k] = 0.0
        P = PartialBlockMatrix(M, k)
        gamma = random_contraction(analyze(P).gamma_shape, rng)
        w = np.linalg.eigvalsh(P.completed_with(complete(P, gamma)))
        assert w.min() >= -1e-9 * max(1.0, np.abs(w).max())
        # independent Schur-formula oracle for the central entry
        others = [a for a in range(p) if a not in (i, j)]
        idx = np.concatenate([np.arange(a * k, (a + 1) * k) for a in others]) if others else None
        if idx is None:
            oracle = np.zeros((k, k), dtype=complex)
        else:
            A_EE = A[np.ix_(idx, idx)]
            A_kE = A[i * k : (i + 1) * k][:, idx]
            A_El = A[np.ix_(idx, np.arange(j * k, (j + 1) * k))]
            oracle = A_kE @ np.linalg.pinv(A_EE) @ A_El
        central = complete(P, np.zeros(analyze(P).gamma_shape))
        assert np.abs(central - oracle).max() <= 1e-10
    _report(3, "500 one-entry completions PSD, central entry matches Schur oracle", t0)


def test_acceptance_04_extension_preserves_positivity():
    t0 = time.time()
    rng = np.random.default_rng(44)
    floor = Tolerance(psd_eps=1e-8)
    for trial in range(100):
        k = 1 if trial % 2 == 0 else 2
        phi = random_pd_function(CTX2, k, 2, rng)
        ext, _ = extend_to_ball(phi, 3, random_gamma_oracle(seed=1000 + trial))
        res = verify_pd(ext, tol=floor)
        assert res.ok, f"trial {trial}: min eigenvalue {res.min_eigenvalue}"
    _report(4, "100 random extensions to S_3 stay positive definite", t0)


def test_acceptance_05_parametrization_bijection():
    t0 = time.time()
    rng = np.random.default_rng(55)
    for trial in range(50):
        k = 1 if trial % 2 == 0 else 2
        phi = random_pd_function(CTX2, k, 2, rng)
        ext, trace = extend_to_ball(phi, 3, random_gamma_oracle(seed=2000 + trial))
        planted = trace.params()
        recovered = extract_params(ext, 2)
        assert recovered.keys() == planted.keys()
        for cur in planted:
            assert np.abs(recovered[cur] - planted[cur]).max() <= 1e-8
        rebuilt, _ = extend_to_ball(phi, 3, oracle_from_params(recovered))
        for w in ball(CTX2, 3):
            assert np.abs(rebuilt.value(w) - ext.value(w)).max() <= 1e-8
    _report(5, "50 parameter sequences round-trip within 1e-8", t0)


def test_acceptance_06_order_independence():
    t0 = time.time()
    rng = np.random.default_rng(66)
    phi = random_pd_function(CTX2, 1, 2, rng)
    reference, _ = extend_to_ball(phi, 3, zero_oracle)
    words3 = ball(CTX2, 3)
    letters = (1, -1, 2, -2)
    n_orders = 0
    for perm in itertools.permutations(letters):
        ctx = GroupContext(2, perm)
        values = {rep: phi.value(rep) for rep in BallDomain(2).class_reps(ctx)}
        phi_perm = PdFunction(ctx, 1, BallDomain(2), values)
        ext, _ = extend_to_ball(phi_perm, 3, zero_oracle)
        for w in words3:
            assert np.abs(ext.value(w) - reference.value(w)).max() <= 1e-8, (perm, w)
        n_orders += 1
    assert n_orders == 24
    _report(6, "central extension agrees across all 24 letter orders", t0)


def test_acceptance_07_maximal_orthogonality():
    t0 = time.time()
    rng = np.random.default_rng(77)
    done = 0
    for n in (1, 2):
        for trial in range(10):
            k = 1 if trial % 2 == 0 else 2
            phi = random_pd_function(CTX2, k, n, rng)
            ext, _ = extend_to_ball(phi, n + 1, zero_oracle)
            report = check_max_orthogonal(ext, n, tol=1e-8)
            assert report.ok, f"n={n} trial={trial}: {report.worst_violation}"
            done += 1
    assert done == 20
    # a planted contraction of norm 0.9 at a full-rank step must be detected
    for n in (1, 2):
        for seed in range(2):
            phi = random_pd_function(CTX2, 1, n, np.random.default_rng(700 + seed))
            target = ClassCursor((1,) * (n + 1), CTX2)

            def oracle(cur, dd):
                g = np.zeros(dd.gamma_shape, dtype=complex)
                if cur == target:
                    g = 0.9 * np.ones(dd.gamma_shape, dtype=complex)
                return g

            ext, _ = extend_to_ball(phi, n + 1, oracle)
            report = check_max_orthogonal(ext, n, tol=1e-8)
            assert not report.ok
            assert report.worst_violation >= 1e-3
    _report(7, "central is maximally orthogonal, planted 0.9 is flagged", t0)


def test_acceptance_08_quasimultiplicative_is_central():
    t0 = time.time()
    words4 = ball(CTX2, 4)
    for r in (0.3, 0.7, 0.95):
        g = GeneratorAssignment(CTX2, 1, (np.array([[r]]), np.array([[r]])))
        ext, _ = extend_to_ball(as_pdfunction(g, 1), 4, zero_oracle)
        for w in words4:
            assert np.abs(ext.value(w) - r ** len(w)).max() <= 1e-8
    rng = np.random.default_rng(88)
    blocks = tuple(random_contraction((2, 2), rng, norm=0.85) for _ in range(2))
    gb = GeneratorAssignment(CTX2, 2, blocks)
    ext, _ = extend_to_ball(as_pdfunction(gb, 1), 4, zero_oracle)
    for w in words4:
        assert np.abs(ext.value(w) - quasi_mult(gb, w)).max() <= 1e-8
    # the radial family is reproduced from its values on the generators
    t = 0.8
    h1 = haagerup(CTX2, 1, t, 1)
    ext, _ = extend_to_ball(h1, 4, zero_oracle)
    for w in words4:
        assert np.abs(ext.value(w) - np.exp(-t * len(w))).max() <= 1e-8
    _report(8, "quasi-multiplicative functions are their central extensions", t0)


def test_acceptance_09_toeplitz_correspondence():
    t0 = time.time()
    rng = np.random.default_rng(99)
    for trial in range(25):
        k = 1 if trial % 2 == 0 else 2
        phi = random_pd_function(CTX2, k, 2, rng)
        M = toeplitz_of(phi)
        assert function_of_toeplitz(M, CTX2) == phi
        assert np.array_equal(toeplitz_of(function_of_toeplitz(M, CTX2)).blocks, M.blocks)
    for trial in range(25):
        k = 1 if trial % 2 == 0 else 2
        blocks = tuple(
            random_contraction((k, k), rng, norm=rng.uniform(0.5, 0.9)) for _ in range(2)
        )
        phi4 = as_pdfunction(GeneratorAssignment(CTX2, k, blocks), 4)
        M = toeplitz_of(phi4)
        assert function_of_toeplitz(M, CTX2) == phi4
        assert np.array_equal(toeplitz_of(function_of_toeplitz(M, CTX2)).blocks, M.blocks)
    _report(9, "50 Toeplitz round-trips exact on stored values", t0)


def test_acceptance_10_sos_factorization():
    t0 = time.time()
    # (a) the shifted square factors to high accuracy
    p_a = NcPolynomial(CTX1, 1, {E: [[2.0]], (1,): [[1.0]], (-1,): [[1.0]]})
    cert = factor_sos(p_a, tol=1e-8)
    assert isinstance(cert, SosCertificate)
    assert cert.residual <= 1e-8
    certificates = [(p_a, cert)]
    # (b) twenty planted squares over F_2
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        c = 1 if seed % 2 == 0 else 2
        q0 = NcPolynomial(
            CTX2,
            c,
            {w: rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)) for w in ball(CTX2, 1)},
        )
        p = q0.adjoint() * q0
        cert = factor_sos(p, tol=1e-6, max_iter=20_000)
        assert isinstance(cert, SosCertificate), f"seed {seed}: {cert}"
        assert cert.residual <= 1e-6
        assert cert.iterations <= 20_000
        qs = split_squares(cert)
        total = qs[0].adjoint() * qs[0]
        for Q in qs[1:]:
            total = total + Q.adjoint() * Q
        assert (p - total).max_coefficient_norm() <= 1e-6
        certificates.append((p, cert))
    # (c) sampled evaluations stay nonnegative for every certified polynomial
    for i, (p, cert) in enumerate(certificates):
        assert sample_positivity(p, trials=200, d_max=3, seed=i) >= -1e-6
    # (d) an indefinite polynomial is reported infeasible and sampled negative
    p_d = NcPolynomial(CTX1, 1, {(1,): [[1.0]], (-1,): [[1.0]]})
    report = factor_sos(p_d, tol=1e-8, max_iter=2000)
    assert isinstance(report, InfeasibleReport)
    assert sample_positivity(p_d, trials=200, d_max=3, seed=0) <= -0.5
    _report(10, "sum-of-squares certificates found, sound, and refused", t0)


def test_acceptance_11_radialization():
    t0 = time.time()
    rng = np.random.default_rng(111)
    for trial in range(50):
        k = 1 if trial % 2 == 0 else 2
        phi = random_pd_function(CTX2, k, 2, rng)
        rad = radialize(phi)
        assert verify_pd(rad).ok
        assert radialize(rad) == rad  # radial input is an exact fixed point
    h = haagerup(CTX2, 1, 0.7, 2)
    assert radialize(h) == h
    _report(11, "radialization preserves positivity, fixes radial input", t0)

import numpy as np
import pytest

from freepd.linalg import (
    DEFAULT_TOL,
    NotHermitianError,
    NotPsdError,
    Tolerance,
    eig_hermitian,
    gram_factor,
    is_psd,
    pinv,
    psd_project,
)

RNG = np.random.default_rng(42)


def random_hermitian(n, rng=RNG):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2


def test_eig_examples():
    w, V = eig_hermitian(np.eye(3))
    assert np.allclose(w, [1, 1, 1])
    # char. polynomial of [[2,1],[1,2]]: (2-x)^2 - 1 -> x = 3, 1
    w, _ = eig_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [3.0, 1.0])
    # [[0, i], [-i, 0]]: x^2 - 1 -> x = 1, -1
    w, _ = eig_hermitian(np.array([[0, 1j], [-1j, 0]]))
    assert np.allclose(w, [1.0, -1.0])


def test_eig_contract():
    for n in (2, 5, 12):
        A = random_hermitian(n)
        w, V = eig_hermitian(A)
        assert np.all(np.diff(w) <= 1e-12)
        scale = max(1.0, np.abs(w).max())
        assert np.abs(A @ V - V * w).max() <= 1e-9 * scale
        assert np.abs(V.conj().T @ V - np.eye(n)).max() <= 1e-10


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        is_psd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_is_psd_examples():
    assert is_psd(np.eye(4))
    assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
    assert is_psd(np.zeros((3, 3)))


def test_gram_factor_examples():
    W = gram_factor(np.eye(3))
    assert W.shape == (3, 3)
    assert np.allclose(W.conj().T @ W, np.eye(3))
    W = gram_factor(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert W.shape == (1, 2)
    assert np.allclose(W.conj().T @ W, [[1, 1], [1, 1]])


def test_gram_factor_property():
    for n, rank in ((4, 4), (6, 3), (5, 1)):
        B = RNG.normal(size=(rank, n)) + 1j * RNG.normal(size=(rank, n))
        A = B.conj().T @ B
        W = gram_factor(A)
        assert W.shape[0] == rank
        assert np.abs(W.conj().T @ W - A).max() <= 1e-9 * np.linalg.norm(A, 2)


def test_gram_factor_rejects_indefinite():
    with pytest.raises(NotPsdError):
        gram_factor(np.diag([1.0, -1.0]))


def test_pinv_examples():
    assert np.allclose(pinv(np.eye(3)), np.eye(3))
    assert np.allclose(pinv(np.zeros((2, 2))), np.zeros((2, 2)))
    assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_pinv_penrose_identities():
    for shape, rank in (((5, 3), 2), ((4, 6), 3)):
        B = RNG.normal(size=(rank, shape[1])) + 1j * RNG.normal(size=(rank, shape[1]))
        C = RNG.normal(size=(shape[0], rank)) + 1j * RNG.normal(size=(shape[0], rank))
        A = C @ B
        P = pinv(A)
        scale = np.linalg.norm(A, 2)
        assert np.abs(A @ P @ A - A).max() <= 1e-9 * scale
        assert np.abs(P @ A @ P - P).max() <= 1e-9 * max(scale, 1.0)
        assert np.abs((A @ P) - (A @ P).conj().T).max() <= 1e-9
        assert np.abs((P @ A) - (P @ A).conj().T).max() <= 1e-9


def test_pinv_empty():
    assert pinv(np.zeros((0, 0))).shape == (0, 0)
    assert pinv(np.zeros((0, 3))).shape == (3, 0)


def test_psd_project_examples():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert np.allclose(psd_project(A), A)
    assert np.allclose(psd_project(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))
    assert np.allclose(psd_project(-np.eye(3)), np.zeros((3, 3)))


def test_psd_project_idempotent_and_nonexpansive():
    for _ in range(20):
        A = random_hermitian(6)
        B = random_hermitian(6)
        PA, PB = psd_project(A), psd_project(B)
        assert is_psd(PA)
        assert np.abs(psd_project(PA) - PA).max() <= 1e-12
        assert np.linalg.norm(PA - PB) <= np.linalg.norm(A - B) + 1e-12


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(psd_eps=0.0)
    with pytest.raises(ValueError):
        Tolerance(rank_eps=-1e-3)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            Tolerance(psd_eps=bad)
        with pytest.raises(ValueError):
            Tolerance(rank_eps=bad)
    assert DEFAULT_TOL.psd_eps == 1e-10

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freepd.completion import (
    CompletionError,
    ContractionNormError,
    PartialBlockMatrix,
    PartialPositivityError,
    analyze,
    complete,
    extract_gamma,
)
from freepd.sampling import random_contraction

RNG = np.random.default_rng(2024)


def hide_pair(full: np.ndarray, missing, k: int) -> PartialBlockMatrix:
    i, j = missing
    M = np.array(full, dtype=complex)
    M[i * k : (i + 1) * k, j * k : (j + 1) * k] = 0.0
    M[j * k : (j + 1) * k, i * k : (i + 1) * k] = 0.0
    return PartialBlockMatrix(M, missing, k)


def random_partial(p: int, k: int, rng, margin=0.1) -> PartialBlockMatrix:
    n = p * k
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = W.conj().T @ W / n + margin * np.eye(n)
    i, j = sorted(rng.choice(p, size=2, replace=False))
    return hide_pair(A, (int(i), int(j)), k), A


def test_worked_scalar_example():
    # diag 1, A01 = A12 = 0.5, missing (0, 2): Schur formula by hand gives
    # central 0.5 * 1 * 0.5 = 0.25 and defects sqrt(1 - 0.25) = sqrt(0.75)
    P = hide_pair(np.array([[1, 0.5, 0], [0.5, 1, 0.5], [0, 0.5, 1.0]]), (0, 2), 1)
    dd = analyze(P)
    assert np.allclose(dd.central, [[0.25]])
    assert np.allclose(np.abs(dd.defect_k), [[np.sqrt(0.75)]])
    assert np.allclose(np.abs(dd.defect_l), [[np.sqrt(0.75)]])


def test_boundary_completions():
    P = hide_pair(np.array([[1, 0.5, 0], [0.5, 1, 0.5], [0, 0.5, 1.0]]), (0, 2), 1)
    full0 = complete(P, [[0.0]])
    assert np.allclose(full0[0, 2], 0.25)
    assert np.linalg.eigvalsh(full0).min() >= -1e-12
    full1 = complete(P, [[1.0]])
    assert np.allclose(full1[0, 2], 1.0)
    w = np.linalg.eigvalsh(full1)
    assert w.min() >= -1e-12
    assert w.min() <= 1e-12  # boundary contraction forces a rank drop
    fullm = complete(P, [[-1.0]])
    assert np.allclose(fullm[0, 2], -0.5)
    assert np.linalg.eigvalsh(fullm).min() >= -1e-12


def test_empty_E_convention():
    # 2x2 with unknown off-diagonal: central completion is 0, defects are
    # the full column factors
    P = hide_pair(np.diag([4.0, 1.0]), (0, 1), 1)
    dd = analyze(P)
    assert np.allclose(dd.central, [[0.0]])
    assert np.allclose(np.abs(dd.defect_k), [[2.0]])
    assert np.allclose(np.abs(dd.defect_l), [[1.0]])
    full = complete(P, [[1.0]])
    assert np.allclose(full[0, 1], 2.0)


def test_block_case():
    I2 = np.eye(2)
    A = np.zeros((6, 6), dtype=complex)
    for i in range(3):
        A[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = I2
    A[0:2, 2:4] = 0.5 * I2
    A[2:4, 0:2] = 0.5 * I2
    A[2:4, 4:6] = 0.5 * I2
    A[4:6, 2:4] = 0.5 * I2
    P = PartialBlockMatrix(A, (0, 2), 2)
    dd = analyze(P)
    assert np.allclose(dd.central, 0.25 * I2)


def test_completion_psd_for_all_contractions():
    for trial in range(60):
        k = 1 + trial % 2
        p = int(RNG.integers(3, 7))
        P, _ = random_partial(p, k, RNG)
        dd = analyze(P)
        gamma = random_contraction(dd.gamma_shape, RNG)
        full = complete(P, gamma)
        scale = np.linalg.norm(full, 2)
        assert np.linalg.eigvalsh(full).min() >= -1e-9 * scale


def test_non_contraction_breaks_psd():
    # the completion formula with a norm > 1.1 parameter on full-rank
    # defects must leave the PSD cone
    for trial in range(20):
        k = 1 + trial % 2
        P, _ = random_partial(4, k, RNG)
        dd = analyze(P)
        g = random_contraction(dd.gamma_shape, RNG, norm=1.1 + RNG.uniform(0, 0.5))
        filled = dd.central + dd.defect_k.conj().T @ g @ dd.defect_l
        assert np.linalg.eigvalsh(P.completed_with(filled)).min() < -1e-12


def test_complete_rejects_bad_gamma():
    P, _ = random_partial(3, 1, RNG)
    dd = analyze(P)
    with pytest.raises(ContractionNormError):
        complete(P, 1.2 * np.ones(dd.gamma_shape))
    with pytest.raises(ContractionNormError):
        complete(P, np.zeros((dd.gamma_shape[0] + 1, dd.gamma_shape[1])))


def test_extract_gamma_examples():
    P = hide_pair(np.array([[1, 0.5, 0], [0.5, 1, 0.5], [0, 0.5, 1.0]]), (0, 2), 1)
    dd = analyze(P)
    assert np.allclose(extract_gamma(P, dd.central), 0.0)
    g0 = np.array([[0.37 + 0.21j]])
    filled = complete(P, g0)[0:1, 2:3]
    assert np.allclose(extract_gamma(P, filled), g0, atol=1e-10)


def test_extract_complete_roundtrip_full_rank():
    for trial in range(40):
        k = 1 + trial % 2
        P, _ = random_partial(int(RNG.integers(2, 6)), k, RNG)
        dd = analyze(P)
        if min(dd.gamma_shape) < k:
            continue
        g0 = random_contraction(dd.gamma_shape, RNG, norm=RNG.uniform(0, 0.95))
        i, j = P.missing
        filled = complete(P, g0)[i * k : (i + 1) * k, j * k : (j + 1) * k]
        assert np.abs(extract_gamma(P, filled) - g0).max() <= 1e-8


def test_extract_rejects_non_psd_completion():
    P = hide_pair(np.array([[1, 0.5, 0], [0.5, 1, 0.5], [0, 0.5, 1.0]]), (0, 2), 1)
    with pytest.raises(CompletionError):
        extract_gamma(P, np.array([[5.0]]))


def test_zero_defect_convention():
    # column j duplicates a known column, so its Schur complement vanishes:
    # gamma is empty and the completion is insensitive to it
    A = np.array(
        [
            [1.0, 0.5, 0.5],
            [0.5, 1.0, 1.0],
            [0.5, 1.0, 1.0],
        ]
    )
    P = hide_pair(A, (0, 2), 1)
    dd = analyze(P)
    assert dd.defect_l.shape[0] == 0
    g = extract_gamma(P, np.array([[0.5]]))
    assert g.shape == (dd.gamma_shape[0], 0)
    full = complete(P, g)
    assert np.allclose(full[0, 2], dd.central)


def test_partial_positivity_error_names_submatrix():
    A = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    P = hide_pair(A, (0, 2), 1)
    with pytest.raises(PartialPositivityError, match="without block"):
        analyze(P)


def test_rank_monotone_at_boundary():
    # boundary contraction with full-rank defects drops the completed rank
    for trial in range(10):
        k = 1 + trial % 2
        P, _ = random_partial(4, k, RNG)
        dd = analyze(P)
        if min(dd.gamma_shape) < k:
            continue
        g = random_contraction(dd.gamma_shape, RNG, norm=1.0)
        full = complete(P, g)
        w = np.linalg.eigvalsh(full)
        assert (w > 1e-10 * w.max()).sum() < 4 * k


def test_null_column_breaks_partial_positivity():
    # A[E,E] = [[1, 1], [1, 1]] is singular and column 0 has a component
    # (1/sqrt 2) along its null vector: the Schur complement of column 0
    # over the kept eigenvalue is 1, yet the submatrix on {0, 1, 2} is not PSD
    A = np.array(
        [
            [1.0, 0.5, -0.5, 0.0],
            [0.5, 1.0, 1.0, 0.3],
            [-0.5, 1.0, 1.0, 0.3],
            [0.0, 0.3, 0.3, 1.0],
        ]
    )
    with pytest.raises(PartialPositivityError, match="submatrix without block 3"):
        analyze(hide_pair(A, (0, 3), 1))


@st.composite
def singular_windows(draw):
    """A PSD Gram window whose known part A[E,E] is singular.

    The E-columns span fewer than |E| k dimensions; the two missing-pair
    columns are generic, so each has a component outside that span and
    they are independent of each other.
    """
    k = draw(st.integers(1, 2))
    p = draw(st.integers(3, 6))
    rank = draw(st.integers(0, (p - 2) * k - 1))
    i, j = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = rank + 2 * k

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    span = normal(dim, rank)
    cols = []
    for a in range(p):
        cols.append(normal(dim, k) if a in (i, j) else span @ normal(rank, k))
    W = np.hstack(cols)
    return hide_pair(W.conj().T @ W, (i, j), k), rng


@settings(derandomize=True, max_examples=200, deadline=None)
@given(singular_windows())
def test_complete_extract_roundtrip_on_singular_windows(window):
    P, rng = window
    dd = analyze(P)
    k = P.k
    for F in (dd.defect_k, dd.defect_l):
        assume(F.shape[0] == k and np.linalg.svd(F, compute_uv=False).min() ** 2 >= 1e-6)
    g0 = random_contraction(dd.gamma_shape, rng, norm=rng.uniform(0, 0.99))
    i, j = P.missing
    filled = complete(P, g0)[i * k : (i + 1) * k, j * k : (j + 1) * k]
    assert np.abs(extract_gamma(P, filled) - g0).max() <= 1e-8

"""The stacked completion kernel is bit-identical to the per-matrix one.

:func:`analyze` runs both bordered positivity tests in one ``eigvalsh``
and both defect factorizations in one ``eigh``.  These properties pin it,
bit for bit and error for error, to a reference that makes one LAPACK
call per matrix and factors each Schur complement through the checked
:func:`eig_hermitian`, and a stack of windows to each window alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepd.completion import PartialBlockMatrix, PartialPositivityError, analyze
from freepd.linalg import (
    DEFAULT_TOL,
    RANK_EPS,
    NotPsdError,
    Tolerance,
    _gram_factors,
    eig_hermitian,
    gram_factor,
)

kernel_property = settings(derandomize=True, max_examples=300, deadline=None)


def _reference_factor(S):
    """The floor-free factor: the eigenpairs above the ``RANK_EPS`` cut, nothing refused."""
    w, V = eig_hermitian(S)
    keep = w > RANK_EPS * max(w.max(initial=0.0), 0.0)
    return np.sqrt(w[keep])[:, None] * V[:, keep].conj().T


def _reference_gram_factor(S, tol):
    w = eig_hermitian(S)[0]
    scale = max(1.0, np.abs(w).max())
    if w[-1] < -tol.psd_eps * scale:
        raise NotPsdError(
            f"matrix is not PSD: min eigenvalue {w[-1]:.3e} below floor "
            f"{-tol.psd_eps * scale:.3e}"
        )
    return _reference_factor(S)


def _reference_analyze(P, tol=DEFAULT_TOL):
    """One ``eigh``, two bordered ``eigvalsh`` and two factor ``eigh`` calls."""
    i, j = P.p - 2, P.p - 1
    k = P.k
    others = np.delete(np.arange(P.p * k).reshape(P.p, k), (i, j), axis=0).ravel()
    rows = P.entries[others]
    A_EE = rows[:, others]
    w, V = np.linalg.eigh(A_EE)
    keep = w > others.size * np.finfo(float).eps * max(w.max(initial=0.0), 0.0)
    w_drop = np.diag(w[~keep])
    scale = max(1.0, np.abs(w).max(initial=0.0))
    S = []
    for x, y in ((i, j), (j, i)):
        B = V.conj().T @ rows[:, x * k : (x + 1) * k]
        R_x = B[keep] / np.sqrt(w[keep])[:, None]
        S_x = P.entries[x * k : (x + 1) * k, x * k : (x + 1) * k] - R_x.conj().T @ R_x
        S.append((S_x + S_x.conj().T) / 2.0)
        mu = np.linalg.eigvalsh(np.block([[w_drop, B[~keep]], [B[~keep].conj().T, S[-1]]]))
        if mu.min() < -tol.psd_eps * max(scale, np.abs(mu).max()):
            raise PartialPositivityError(
                f"partial positivity violated: submatrix without block {y} is not PSD"
            )
    A_kE = P.entries[i * k : (i + 1) * k, others]
    return (
        A_kE @ (V[:, keep] @ (B[keep] / w[keep][:, None])),
        _reference_factor(S[0]),
        _reference_factor(S[1]),
    )


def _outcome(compute):
    """The arrays ``compute()`` returns, or the type and text of what it raises."""
    try:
        return "value", compute()
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_same(got, expected):
    assert got[0] == expected[0], (got, expected)
    if got[0] == "value":
        assert len(got[1]) == len(expected[1])
        for a, b in zip(got[1], expected[1]):
            assert a.shape == b.shape and np.array_equal(a, b)
    else:
        assert got[1] == expected[1]


def _gram_window(draw, rng, k, p, kind, rank=None):
    """One Hermitian window of p k-blocks, of the kind :func:`windows` describes."""
    n = p * k
    if kind == "psd":
        rank = n
    elif kind == "indefinite":
        rank = n + 1
    elif rank is None:
        rank = draw(st.integers(0, n - 1))
    if kind == "exact":
        W = rng.integers(-2, 3, (rank, n)) + 1j * rng.integers(-2, 3, (rank, n))
    else:
        W = rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n))
    signs = np.ones(rank)
    if kind == "indefinite":
        signs[: draw(st.integers(1, 2))] = -draw(st.sampled_from([1e-3, 0.1, 1.0]))
    A = (W.conj().T * signs) @ W * draw(st.sampled_from([2.0**-10, 1.0, 2.0**10]))
    return (A + A.conj().T) / 2.0


def _hidden(A, i, j, k):
    """A with its blocks i and j moved, in that order, behind the others, and that pair hidden."""
    order = [a for a in range(len(A) // k) if a not in (i, j)] + [i, j]
    idx = (np.array(order)[:, None] * k + np.arange(k)).ravel()
    M = A[np.ix_(idx, idx)]
    M[-2 * k : -k, -k:] = 0.0
    M[-k:, -2 * k : -k] = 0.0
    return M


@st.composite
def windows(draw):
    """A Hermitian window whose drawn block pair is moved last and hidden.

    ``psd``: a generic positive definite Gram matrix.  ``lowrank``: a Gram
    matrix of fewer vectors than columns, so A[E,E] and the Schur
    complements are singular up to rounding.  ``exact``: the same with
    small Gaussian-integer vectors and a power-of-two scale, so the window
    is computed exactly and A[E,E] is exactly singular.  ``indefinite``: a
    Hermitian matrix with a negative direction, which the hidden pair may
    or may not hide.
    """
    k = draw(st.integers(1, 3))
    p = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["psd", "lowrank", "exact", "indefinite"]))
    i, j = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return PartialBlockMatrix(_hidden(_gram_window(draw, rng, k, p, kind), i, j, k), k)


@kernel_property
@given(windows())
def test_analyze_matches_per_matrix_kernel(P):
    def stacked():
        dd = analyze(P)
        return dd.central, dd.defect_k, dd.defect_l

    _assert_same(_outcome(stacked), _outcome(lambda: _reference_analyze(P)))


@st.composite
def window_stacks(draw, failing: bool):
    """2-6 windows of one shape, the same drawn block pair moved last and hidden in each, as one stack.

    One window is positive definite and one has a Gram matrix of fewer
    vectors than |E| columns, so A[E,E] is full rank in one and rank
    deficient in the other and the dropped count differs inside the stack;
    the rest are of any kind of :func:`windows`.  With ``failing``, one
    window has a negative diagonal block, so a submatrix that both
    positivity tests see is not PSD.
    """
    k = draw(st.integers(1, 3))
    p = draw(st.integers(3, 6))
    i, j = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["psd", draw(st.sampled_from(["lowrank", "exact"]))]
    kinds += draw(st.lists(st.sampled_from(["psd", "lowrank", "exact", "indefinite"]), max_size=3))
    stack = []
    for kind in draw(st.permutations(kinds)):
        rank = draw(st.integers(0, (p - 2) * k - 1)) if kind != "psd" else None
        stack.append(_gram_window(draw, rng, k, p, kind, rank))
    if failing:
        b = draw(st.sampled_from([x for x in range(p) if x not in (i, j)]))
        bad = stack[0].copy()
        bad[b * k : (b + 1) * k, b * k : (b + 1) * k] = -np.eye(k)
        stack.insert(draw(st.integers(0, len(stack))), bad)
    return PartialBlockMatrix(np.array([_hidden(A, i, j, k) for A in stack]), k)


def _alone(P):
    """Each window of a stack on its own: the outcome of ``analyze``, as arrays or an error."""

    def one(W):
        dd = analyze(W)
        return dd.central, dd.defect_k, dd.defect_l

    return [_outcome(lambda W=W: one(PartialBlockMatrix(W, P.k))) for W in P.entries]


@kernel_property
@given(window_stacks(failing=False))
def test_stacked_analyze_is_each_window_alone(P):
    alone = _alone(P)
    failures = [outcome for outcome in alone if outcome[0] != "value"]
    got = _outcome(lambda: [(dd.central, dd.defect_k, dd.defect_l) for dd in analyze(P)])
    if failures:  # an indefinite window: the first one's error
        _assert_same(got, failures[0])
    else:
        assert got[0] == "value" and len(got[1]) == len(alone)
        for arrays, expected in zip(got[1], alone):
            _assert_same(("value", arrays), expected)


@kernel_property
@given(window_stacks(failing=True))
def test_stacked_analyze_raises_the_first_failing_windows_error(P):
    first = next(outcome for outcome in _alone(P) if outcome[0] != "value")
    assert first[0] is PartialPositivityError
    _assert_same(_outcome(lambda: analyze(P)), first)


@st.composite
def hermitian_stacks(draw):
    """1-3 exactly Hermitian matrices of one size: PSD, rank deficient or indefinite."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(draw(st.integers(1, 3))):
        rank = draw(st.integers(0, n + 1))
        W = rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n))
        signs = np.ones(rank)
        if draw(st.booleans()):
            signs[:1] = -draw(st.sampled_from([1e-14, 1e-8, 1.0]))
        A = (W.conj().T * signs) @ W
        stack.append((A + A.conj().T) / 2.0)
    tol = Tolerance(psd_eps=draw(st.sampled_from([1e-12, 1e-10, 1e-6])))
    return np.array(stack), tol


@kernel_property
@given(hermitian_stacks())
def test_stacked_factors_match_gram_factor(case):
    stack, tol = case
    _assert_same(
        _outcome(lambda: _gram_factors(*np.linalg.eigh(stack))),
        _outcome(lambda: [_reference_factor(M) for M in stack]),
    )
    _assert_same(
        _outcome(lambda: [gram_factor(M, tol) for M in stack]),
        _outcome(lambda: [_reference_gram_factor(M, tol) for M in stack]),
    )


def test_first_failing_submatrix_is_named():
    # both submatrices over E + {x} are indefinite: the one tested first,
    # x = p - 2, names the other block, p - 1, as the per-matrix kernel does,
    # whichever of the two blocks 0 and 3 of A the window puts last
    A = np.array(
        [[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0], [0.0, 0.0, 2.0, 1.0]]
    )
    for missing in ((0, 3), (3, 0)):
        P = PartialBlockMatrix(_hidden(A, *missing, 1), 1)
        with pytest.raises(PartialPositivityError, match="without block 3 "):
            analyze(P)
        _assert_same(_outcome(lambda: analyze(P)), _outcome(lambda: _reference_analyze(P)))

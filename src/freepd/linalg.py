"""Dense complex Hermitian linear algebra shared by every other module.

Thin, contract-checked wrappers around LAPACK (via numpy): Hermitian
eigendecomposition, PSD test and projection, Moore-Penrose pseudo-inverse,
and Gram factorization A = W* W with rank(A) rows.

Every numerical threshold of the package is named once, in the table
below, as one of four kinds.  A user tolerance is the default of a
keyword argument and of ``--tol``.  A data rule is a fixed test of input
data, relative to max(1, its largest entry) unless marked absolute.  A
rank cut treats eigenvalues or singular values at most that fraction of
the largest as zero.  A norm slack is how far past 1 a contraction's
norm may round: up to it the contraction is scaled back to norm 1.
A user tolerance must be positive and finite (:func:`check_positive_finite`).
Every PSD test has one floor, :meth:`Tolerance.psd_floor`, at the scale 1
or at a completion window's.  Bounds derived from eps and a size stay
where they are computed: ``completion.analyze``'s rank cut
|E| * eps * max(w) and the two margins of
``ncpoly._GramProblem.separating_witness``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NotPsdError(ValueError):
    """Input matrix has an eigenvalue below the PSD floor."""


#: user tolerance, absolute: orthogonality and SOS coefficient residuals (--tol of check-ortho, factor)
RESIDUAL_TOL = 1e-8
#: data rule: Hermitian matrices and polynomials, conflicting-value, unit (absolute), singular-unit,
#: Toeplitz, generator-norm, unitary substitutions (whose scale is 1)
DATA_RTOL = 1e-12
#: rank cut: pseudo-inverses and Gram factors, also of sum-of-squares certificates
RANK_EPS = 1e-10
#: norm slack: a completion parameter given to ``complete`` or by an oracle
GAMMA_NORM_SLACK = 1e-9
#: norm slack: a parameter recovered by ``extract_gamma``
EXTRACT_NORM_SLACK = 1e-6


def check_positive_finite(value: float, name: str):
    """Refuse a tolerance or rate that is not strictly positive and finite (NaN included)."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Tolerance:
    """The user tolerance of positivity tests: the relative PSD eigenvalue floor."""

    psd_eps: float = 1e-10  # user tolerance (--tol of verify, extend, params)

    def __post_init__(self):
        check_positive_finite(self.psd_eps, "psd_eps")

    def psd_floor(self, w: np.ndarray, scale=1.0):
        """The least eigenvalue a PSD spectrum w may show: -psd_eps * max(scale, max |w|).

        A stack of spectra, one per row, gets one floor per row, and
        ``scale`` may hold one scale per row.
        """
        return -self.psd_eps * np.maximum(scale, np.abs(w).max(axis=-1))


DEFAULT_TOL = Tolerance()


def as_matrix(A, stacked: bool = False) -> np.ndarray:
    """Coerce to a finite complex 2-d array, or a 3-d stack with ``stacked``; NaN/Inf are rejected."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 and not (stacked and M.ndim == 3):
        expected = "a matrix or a stack of matrices" if stacked else "a matrix"
        raise ValueError(f"expected {expected}, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return M


def _check_hermitian(A: np.ndarray):
    """Refuse a matrix, or a stack holding one, not Hermitian within ``DATA_RTOL`` of its own scale."""
    if A.shape[-2] == A.shape[-1]:
        scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1), initial=0.0))
        asymmetry = np.abs(A - A.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
        if np.all(asymmetry <= DATA_RTOL * scale):
            return
    raise NotHermitianError(
        f"matrix of shape {A.shape[-2:]} is not Hermitian within {DATA_RTOL} relative"
    )


def eig_hermitian(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = V diag(w) V* with w real, descending.

    The input must be Hermitian within ``DATA_RTOL`` relative asymmetry; it is
    symmetrized before factorization so the result is exactly Hermitian.
    """
    M = as_matrix(A)
    _check_hermitian(M)
    w, V = np.linalg.eigh((M + M.conj().T) / 2.0)
    return w[::-1].copy(), V[:, ::-1].copy()


def is_psd(A, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the smallest eigenvalue is >= -psd_eps * max(1, ||A||)."""
    M = as_matrix(A)
    _check_hermitian(M)
    if M.size == 0:
        return True
    w = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
    return bool(w[0] >= tol.psd_floor(w))


def gram_factor(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Factor a PSD matrix as A = W* W, with rank(A) rows in W.

    An eigenvalue below the PSD floor raises :class:`NotPsdError`, and
    :func:`_gram_factors` cuts the rest at ``RANK_EPS``.  The columns of W
    are the embedding vectors of the corresponding Gram index, so slicing W
    columnwise yields realization data for blocked inputs.
    """
    M = as_matrix(A)
    _check_hermitian(M)
    if M.size == 0:
        return np.zeros((0, M.shape[1]), dtype=complex)
    w, V = np.linalg.eigh((M + M.conj().T) / 2.0)
    floor = tol.psd_floor(w)
    if w[0] < floor:
        raise NotPsdError(f"matrix is not PSD: min eigenvalue {w[0]:.3e} below floor {floor:.3e}")
    return _gram_factors(w[None], V[None])[0]


def _gram_factors(ws: np.ndarray, Vs: np.ndarray) -> list[np.ndarray]:
    """Factors W* W = V diag(w) V* of stacked ``eigh`` results at the rank cut alone: none refused."""
    factors = []
    for w, V in zip(ws[:, ::-1], Vs[:, :, ::-1]):
        keep = w > RANK_EPS * max(w.max(initial=0.0), 0.0)
        factors.append(np.sqrt(w[keep])[:, None] * V[:, keep].conj().T)
    return factors


def pinv(A) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the relative singular-value cutoff ``RANK_EPS``."""
    return np.linalg.pinv(as_matrix(A), rcond=RANK_EPS)


def psd_project(A) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix: eigenvalues clipped at zero."""
    M = as_matrix(A)
    _check_hermitian(M)
    return _psd_clip((M + M.conj().T) / 2.0)


def _psd_clip(M: np.ndarray) -> np.ndarray:
    """:func:`psd_project` of an exactly Hermitian array, unchecked."""
    w, V = np.linalg.eigh(M)
    P = (V * np.maximum(w, 0.0)) @ V.conj().T
    return (P + P.conj().T) / 2.0


def _renormalized(g: np.ndarray, slack: float, error: type, message: str) -> np.ndarray:
    """g scaled back to operator norm 1, or ``error(message.format(norm))`` beyond 1 + slack."""
    if g.any():  # a zero g has norm 0: no SVD
        norm = np.linalg.norm(g, 2)
        if norm > 1.0 + slack:
            raise error(message.format(norm))
        if norm > 1.0:
            g = g / norm
    return g

"""Dense complex Hermitian linear algebra shared by every other module.

Thin, contract-checked wrappers around LAPACK (via numpy): Hermitian
eigendecomposition, PSD test and projection, Moore-Penrose pseudo-inverse,
and Gram factorization A = W* W with rank(A) rows.  All tolerances are
relative to the matrix scale and can be overridden per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NotPsdError(ValueError):
    """Input matrix has an eigenvalue below the PSD floor."""


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerances: PSD eigenvalue floor and pseudo-inverse rank cutoff."""

    psd_eps: float = 1e-10
    rank_eps: float = 1e-10

    def __post_init__(self):
        if not (0 < self.psd_eps < np.inf and 0 < self.rank_eps < np.inf):
            raise ValueError("tolerances must be strictly positive and finite")

    def psd_floor(self, w: np.ndarray) -> float:
        """The least eigenvalue a PSD spectrum w may show: -psd_eps * max(1, max |w|)."""
        return -self.psd_eps * max(1.0, np.abs(w).max())


DEFAULT_TOL = Tolerance()


def as_matrix(A) -> np.ndarray:
    """Coerce to a finite complex 2-d array; NaN/Inf are rejected."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {M.shape}")
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise ValueError("matrix contains NaN or Inf entries")
    return M


def _check_hermitian(A: np.ndarray, rtol: float = 1e-12):
    scale = max(1.0, np.abs(A).max(initial=0.0))
    if A.shape[0] != A.shape[1] or np.abs(A - A.conj().T).max(initial=0.0) > rtol * scale:
        raise NotHermitianError(
            f"matrix of shape {A.shape} is not Hermitian within {rtol} relative"
        )


def eig_hermitian(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = V diag(w) V* with w real, descending.

    The input must be Hermitian within 1e-12 relative asymmetry; it is
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
    return w.min() >= tol.psd_floor(w)


def gram_factor(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Factor a PSD matrix as A = W* W, with rank(A) rows in W.

    Eigenvalues below the relative rank cutoff are truncated; an
    eigenvalue below the PSD floor raises :class:`NotPsdError`.  The
    columns of W are the embedding vectors of the corresponding Gram
    index, so slicing W columnwise yields realization data for blocked
    inputs.
    """
    M = as_matrix(A)
    _check_hermitian(M)
    if M.size == 0:
        return np.zeros((0, M.shape[1]), dtype=complex)
    return _gram_factors(((M + M.conj().T) / 2.0)[None], tol)[0]


def _gram_factors(M: np.ndarray, tol: Tolerance) -> list[np.ndarray]:
    """:func:`gram_factor` of each exactly Hermitian, finite matrix of a stack, unchecked."""
    ws, Vs = np.linalg.eigh(M)
    factors = []
    for w, V in zip(ws[:, ::-1], Vs[:, :, ::-1]):
        floor = tol.psd_floor(w)
        if w[-1] < floor:
            raise NotPsdError(
                f"matrix is not PSD: min eigenvalue {w[-1]:.3e} below floor {floor:.3e}"
            )
        keep = w > tol.rank_eps * max(w.max(initial=0.0), 0.0)
        factors.append(np.sqrt(w[keep])[:, None] * V[:, keep].conj().T)
    return factors


def pinv(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with relative singular-value cutoff."""
    return np.linalg.pinv(as_matrix(A), rcond=tol.rank_eps)


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

"""One-missing-entry positive completion of a partial block matrix.

A Hermitian block matrix with a single unknown off-diagonal pair has a
positive semidefinite completion exactly when both fully specified
maximal principal submatrices are PSD, and the set of all PSD completions
is parametrized by contractions between two defect spaces.  Writing E for
the indices other than the missing pair (k, l):

    central   = A[k,E] A[E,E]^+ A[E,l]            (the gamma = 0 value)
    S_k       = A[k,k] - A[k,E] A[E,E]^+ A[E,k]   (Schur complement)
    S_l       = A[l,l] - A[l,E] A[E,E]^+ A[E,l]

and with defect factors F_k* F_k = S_k, F_l* F_l = S_l, every completion
of the (k, l) entry has the form

    central + F_k* gamma F_l,   ||gamma|| <= 1,

a Szego-parameter-like correspondence that :func:`extract_gamma` inverts.
The empty-E convention (pseudo-inverse over no indices is the zero map)
gives central completion 0 for a 2x2 with unknown off-diagonal entry.

:func:`analyze` reads all of this from one eigendecomposition
A[E,E] = V diag(w) V*.  Eigenvalues above |E| * eps * max(w) are kept,
A[E,E]^+ is V_keep diag(w_keep)^-1 V_keep*, and with
R_x = diag(w_keep)^(-1/2) V_keep* A[E,x] the Schur complement is
S_x = A[x,x] - R_x* R_x.  The cut is the rounding level of the window,
not a user tolerance: a coarser cut projects away directions that a
nearly singular window still resolves.  It makes three LAPACK calls per
window: that ``eigh``, one ``eigvalsh`` over both bordered
partial-positivity tests stacked, the window's one positivity test, and
one ``eigh`` over both Schur complements stacked, whose eigenpairs above
the ``RANK_EPS`` cut are the defect factors.  On windows of size 1-10
the cost is numpy's per-call overhead, not the factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    EXTRACT_NORM_SLACK,
    GAMMA_NORM_SLACK,
    Tolerance,
    _check_hermitian,
    _gram_factors,
    _renormalized,
    as_matrix,
    is_psd,
    pinv,
)


class PartialPositivityError(ValueError):
    """A fully specified principal submatrix is not PSD."""


class ContractionNormError(ValueError):
    """A completion parameter has operator norm beyond 1 + slack."""


class CompletionError(ValueError):
    """A proposed filled entry does not yield a PSD completion."""


@dataclass(frozen=True)
class PartialBlockMatrix:
    """A p x p Hermitian block matrix with one unknown off-diagonal pair.

    ``entries`` holds the known blocks in a dense (p*k) x (p*k) array with
    the missing pair zero-filled; ``missing`` names the unknown block pair
    (i, j), i != j.  All diagonal blocks must be present and the known
    part must be Hermitian.
    """

    entries: np.ndarray
    missing: tuple[int, int]
    k: int
    p: int = field(init=False)

    def __post_init__(self):
        M = as_matrix(self.entries)
        if M.shape[0] != M.shape[1] or M.shape[0] % self.k != 0:
            raise ValueError(f"entries of shape {M.shape} not square in {self.k}-blocks")
        p = M.shape[0] // self.k
        i, j = self.missing
        if not (0 <= i < p and 0 <= j < p and i != j):
            raise ValueError(f"missing pair {self.missing} invalid for p = {p}")
        object.__setattr__(self, "entries", M)
        object.__setattr__(self, "missing", (int(i), int(j)))
        object.__setattr__(self, "p", p)
        _check_hermitian(M)

    def block(self, i: int, j: int) -> np.ndarray:
        k = self.k
        return self.entries[i * k : (i + 1) * k, j * k : (j + 1) * k]

    def completed_with(self, filled: np.ndarray) -> np.ndarray:
        """Dense matrix with the missing pair set to ``filled`` and its adjoint."""
        i, j = self.missing
        k = self.k
        M = self.entries.copy()
        M[i * k : (i + 1) * k, j * k : (j + 1) * k] = filled
        M[j * k : (j + 1) * k, i * k : (i + 1) * k] = filled.conj().T
        return M


@dataclass(frozen=True)
class DefectData:
    """Completion geometry of a partial matrix: central value and defect factors.

    ``defect_k`` (d_k x k) and ``defect_l`` (d_l x k) factor the Schur
    complements of the two missing-pair columns against the rest; the
    completion parameter gamma lives between the truncated defect spaces,
    as a d_k x d_l matrix.
    """

    central: np.ndarray
    defect_k: np.ndarray
    defect_l: np.ndarray

    @property
    def gamma_shape(self) -> tuple[int, int]:
        return (self.defect_k.shape[0], self.defect_l.shape[0])


def analyze(P: PartialBlockMatrix, tol: Tolerance = DEFAULT_TOL) -> DefectData:
    """Central entry and defect factors of a partially positive matrix.

    Raises :class:`PartialPositivityError` (naming the offending
    submatrix) when a fully specified principal submatrix is not PSD.
    In the eigenbasis of A[E,E], the submatrix over E + {x} is PSD exactly
    when [[diag(w_drop), V_drop* A[E,x]], [., S_x]] is: the V_drop rows
    catch a column x with a component in the null space of A[E,E].
    Both bordered matrices have the shape |drop| + k, so one stacked
    ``eigvalsh`` tests them (a failure on the k side is reported first).
    That is the window's one positivity test: S_x is a principal submatrix
    of its bordered matrix, so by interlacing the test bounds lambda_min(S_x)
    at the window's scale, and one stacked ``eigh`` factors both Schur
    complements with the rank cut ``RANK_EPS`` alone.
    """
    i, j = P.missing
    k = P.k
    block = np.arange(P.p * k) // k
    others = (block != i) & (block != j)
    rows = P.entries[others]
    A_EE = rows[:, others]
    w, V = np.linalg.eigh(A_EE)
    keep = w > A_EE.shape[0] * np.finfo(float).eps * max(w.max(initial=0.0), 0.0)
    scale = max(1.0, np.abs(w).max(initial=0.0))
    # V* A[E,k] and V* A[E,l] stay two products: one fused product rounds differently
    B = [V.conj().T @ rows[:, x * k : (x + 1) * k] for x in (i, j)]
    drop = ~keep
    d = np.count_nonzero(drop)
    bordered = np.zeros((2, d + k, d + k), dtype=complex)
    bordered[:, :d, :d] = np.diag(w[drop])
    root = np.sqrt(w[keep])[:, None]
    for n, x in enumerate((i, j)):
        R_x = B[n][keep] / root
        S_x = P.block(x, x) - R_x.conj().T @ R_x
        bordered[n, d:, d:] = (S_x + S_x.conj().T) / 2.0
        bordered[n, :d, d:] = B[n][drop]
        bordered[n, d:, :d] = B[n][drop].conj().T
    mu = np.linalg.eigvalsh(bordered)
    # not Tolerance.psd_floor: the scale also takes in A_EE's spectrum, which
    # the bordered matrices do not contain
    floor = -tol.psd_eps * np.maximum(scale, np.abs(mu).max(axis=1))
    for y, bad in zip((j, i), mu.min(axis=1) < floor):
        if bad:
            raise PartialPositivityError(
                f"partial positivity violated: submatrix without block {y} is not PSD"
            )
    S = bordered[:, d:, d:]
    if not np.isfinite(S).all():
        raise ValueError("matrix contains NaN or Inf entries")
    defect_k, defect_l = _gram_factors(*np.linalg.eigh(S))
    A_kE = P.entries[i * k : (i + 1) * k, others]
    return DefectData(
        central=A_kE @ (V[:, keep] @ (B[1][keep] / w[keep][:, None])),
        defect_k=defect_k,
        defect_l=defect_l,
    )


def _coerce_gamma(gamma, shape: tuple[int, int]) -> np.ndarray:
    g = np.asarray(gamma, dtype=complex)
    if g.ndim == 0:
        g = g.reshape(1, 1)
    if g.size == 0 and 0 in shape:  # JSON writes every empty matrix as [], read back as (0, 0)
        g = g.reshape(shape)
    if g.shape != shape:
        raise ContractionNormError(
            f"completion parameter has shape {g.shape}, expected {shape}"
        )
    message = "completion parameter has operator norm {:.12g} > 1"
    return _renormalized(g, GAMMA_NORM_SLACK, ContractionNormError, message)


def complete(
    P: PartialBlockMatrix, gamma, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """PSD completion of P determined by the contraction ``gamma``.

    The missing entry is filled with central + F_k* gamma F_l; gamma = 0
    gives the central (maximum-entropy-like) completion.  Overshoots of
    the unit norm up to ``GAMMA_NORM_SLACK`` are renormalized silently,
    anything larger is an error.
    """
    dd = analyze(P, tol)
    g = _coerce_gamma(gamma, dd.gamma_shape)
    filled = dd.central + dd.defect_k.conj().T @ g @ dd.defect_l
    return P.completed_with(filled)


def extract_gamma(
    P: PartialBlockMatrix, filled: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """The contraction parameter of a given PSD completion.

    Inverse of :func:`complete` wherever both defects have full rank; on
    rank-deficient defects the minimal-norm representative is returned
    (components annihilated by zero defects are unrecoverable).
    """
    dd = analyze(P, tol)
    F = as_matrix(filled)
    if F.shape != (P.k, P.k):
        raise ValueError(f"filled entry has shape {F.shape}, expected {(P.k, P.k)}")
    if not is_psd(P.completed_with(F), tol):
        raise CompletionError("the proposed entry does not give a PSD completion")
    g = pinv(dd.defect_k.conj().T) @ (F - dd.central) @ pinv(dd.defect_l)
    message = (
        "extracted parameter has operator norm {:.6g}; "
        "the completion is inconsistent with the defect geometry"
    )
    return _renormalized(g, EXTRACT_NORM_SLACK, CompletionError, message)

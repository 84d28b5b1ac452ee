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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_matrix, gram_factor, is_psd, pinv

#: Operator-norm overshoot treated as floating-point noise and renormalized.
GAMMA_NORM_SLACK = 1e-9


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
        herm = np.abs(M - M.conj().T).max(initial=0.0)
        if herm > 1e-12 * max(1.0, np.abs(M).max(initial=0.0)):
            raise ValueError("known entries are not Hermitian as a pattern")

    def block(self, i: int, j: int) -> np.ndarray:
        k = self.k
        return self.entries[i * k : (i + 1) * k, j * k : (j + 1) * k]

    def _sub(self, rows: list[int], cols: list[int]) -> np.ndarray:
        k = self.k
        ridx = np.concatenate([np.arange(r * k, (r + 1) * k) for r in rows]) if rows else np.empty(0, int)
        cidx = np.concatenate([np.arange(c * k, (c + 1) * k) for c in cols]) if cols else np.empty(0, int)
        return self.entries[np.ix_(ridx, cidx)]

    def principal_without(self, drop: int) -> np.ndarray:
        """The fully specified principal submatrix omitting block index ``drop``."""
        keep = [i for i in range(self.p) if i != drop]
        return self._sub(keep, keep)

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


def _check_partial_positivity(P: PartialBlockMatrix, tol: Tolerance):
    i, j = P.missing
    for drop, name in ((j, f"submatrix without block {j}"), (i, f"submatrix without block {i}")):
        if not is_psd(P.principal_without(drop), tol):
            raise PartialPositivityError(
                f"partial positivity violated: {name} is not PSD"
            )


def analyze(P: PartialBlockMatrix, tol: Tolerance = DEFAULT_TOL) -> DefectData:
    """Central entry and defect factors of a partially positive matrix.

    Raises :class:`PartialPositivityError` (naming the offending
    submatrix) when a fully specified principal submatrix is not PSD.
    """
    _check_partial_positivity(P, tol)
    i, j = P.missing
    others = [a for a in range(P.p) if a not in (i, j)]
    A_EE = P._sub(others, others)
    A_kE = P._sub([i], others)
    A_El = P._sub(others, [j])
    A_Ek = P._sub(others, [i])
    A_lE = P._sub([j], others)
    EEp = pinv(A_EE, tol)
    central = A_kE @ EEp @ A_El
    S_k = P.block(i, i) - A_kE @ EEp @ A_Ek
    S_l = P.block(j, j) - A_lE @ EEp @ A_El
    S_k = (S_k + S_k.conj().T) / 2.0
    S_l = (S_l + S_l.conj().T) / 2.0
    return DefectData(
        central=central,
        defect_k=gram_factor(S_k, tol),
        defect_l=gram_factor(S_l, tol),
    )


def _coerce_gamma(gamma, shape: tuple[int, int]) -> np.ndarray:
    g = np.asarray(gamma, dtype=complex)
    if g.ndim == 0:
        g = g.reshape(1, 1)
    if g.shape != shape:
        raise ContractionNormError(
            f"completion parameter has shape {g.shape}, expected {shape}"
        )
    message = "completion parameter has operator norm {:.12g} > 1"
    return _renormalized(g, GAMMA_NORM_SLACK, ContractionNormError, message)


def _renormalized(g: np.ndarray, slack: float, error: type, message: str) -> np.ndarray:
    """g scaled back to operator norm 1, or ``error(message.format(norm))`` beyond 1 + slack."""
    if g.size:
        norm = np.linalg.norm(g, 2)
        if norm > 1.0 + slack:
            raise error(message.format(norm))
        if norm > 1.0:
            g = g / norm
    return g


def complete(
    P: PartialBlockMatrix, gamma, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """PSD completion of P determined by the contraction ``gamma``.

    The missing entry is filled with central + F_k* gamma F_l; gamma = 0
    gives the central (maximum-entropy-like) completion.  Overshoots of
    the unit norm up to 1e-9 are renormalized silently, anything larger is
    an error.
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
    g = pinv(dd.defect_k.conj().T, tol) @ (F - dd.central) @ pinv(dd.defect_l, tol)
    message = (
        "extracted parameter has operator norm {:.6g}; "
        "the completion is inconsistent with the defect geometry"
    )
    return _renormalized(g, 1e-6, CompletionError, message)

"""One-missing-entry positive completion of a partial block matrix.

A Hermitian block matrix with a single unknown off-diagonal pair has a
positive semidefinite completion exactly when both fully specified
maximal principal submatrices are PSD, and the set of all PSD completions
is parametrized by contractions between two defect spaces.  A window hides
its last two blocks, (k, l) = (p - 2, p - 1), and E is the other p - 2:

    central   = A[k,E] A[E,E]^+ A[E,l]            (the gamma = 0 value)
    S_k       = A[k,k] - A[k,E] A[E,E]^+ A[E,k]   (Schur complement)
    S_l       = A[l,l] - A[l,E] A[E,E]^+ A[E,l]

and with defect factors F_k* F_k = S_k, F_l* F_l = S_l, every completion
of the (k, l) entry has the form

    central + F_k* gamma F_l,   ||gamma|| <= 1,

the entry :func:`complete` returns, a Szego-parameter-like correspondence
that :func:`extract_gamma` inverts.
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
partial-positivity tests stacked, and one ``eigh`` over both Schur
complements stacked, whose eigenpairs above the ``RANK_EPS`` cut are the
defect factors.  :func:`extract_gamma` tests a filled entry F with one
more ``eigvalsh``, of the 2k x 2k Schur block [[S_k, F - central],
[., S_l]]: given partial positivity it is PSD exactly when the completed
window is, and it is tested at the bordered test's floor.  Two ``pinv``
calls then recover gamma.  On windows of size 1-10 the cost is numpy's
per-call overhead, not the factorizations, so a stack of windows of one
shape makes the same calls once for the whole stack (the bordered
``eigvalsh`` once per dropped count, the ``pinv`` calls once per window).
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
    """A p x p Hermitian block matrix whose last block pair is unknown, or a stack of them.

    ``entries`` holds the blocks in a dense (p*k) x (p*k) array, or a
    (C, p*k, p*k) stack of C such windows.  The unknown pair is always
    blocks (p - 2, p - 1): their values in ``entries`` are never read.
    The known part must be Hermitian, and a window holds at least two blocks.
    """

    entries: np.ndarray
    k: int
    p: int = field(init=False)

    def __post_init__(self):
        M = as_matrix(self.entries, stacked=True)
        n = M.shape[-1]
        if M.shape[-2] != n or n % self.k != 0 or n < 2 * self.k:
            raise ValueError(f"entries of shape {M.shape} are not square in two or more {self.k}-blocks")
        object.__setattr__(self, "entries", M)
        object.__setattr__(self, "p", n // self.k)
        _check_hermitian(M)

    def completed_with(self, filled: np.ndarray) -> np.ndarray:
        """Dense matrix with block (p - 2, p - 1) set to ``filled`` and its adjoint, per window of a stack."""
        k = self.k
        M = self.entries.copy()
        M[..., -2 * k : -k, -k:] = filled
        M[..., -k:, -2 * k : -k] = filled.conj().swapaxes(-1, -2)
        return M


@dataclass(frozen=True)
class DefectData:
    """Completion geometry of a partial matrix: central value, Schur complements, defect factors.

    ``schur`` (2 x k x k) holds the Schur complements S_k, S_l of the two
    hidden block columns against the rest, as :func:`analyze` tested them;
    ``defect_k`` (d_k x k) and ``defect_l`` (d_l x k) factor them, and the
    completion parameter gamma lives between the truncated defect spaces,
    as a d_k x d_l matrix.  ``scale`` is the window's floor scale
    max(1, max |w(A[E,E])|), with which :func:`extract_gamma` tests a
    completion as :func:`analyze` tested partial positivity.
    """

    central: np.ndarray
    defect_k: np.ndarray
    defect_l: np.ndarray
    schur: np.ndarray
    scale: float

    @property
    def gamma_shape(self) -> tuple[int, int]:
        return (self.defect_k.shape[0], self.defect_l.shape[0])


def analyze(P: PartialBlockMatrix, tol: Tolerance = DEFAULT_TOL):
    """Central entry and defect factors of a partially positive matrix.

    Raises :class:`PartialPositivityError` (naming the offending
    submatrix) when a fully specified principal submatrix is not PSD.
    In the eigenbasis of A[E,E], the submatrix over E + {x} is PSD exactly
    when [[diag(w_drop), V_drop* A[E,x]], [., S_x]] is: the V_drop rows
    catch a column x with a component in the null space of A[E,E].
    Both bordered matrices have the shape |drop| + k, so one stacked
    ``eigvalsh`` tests them (a failure on the k side is reported first).
    That is the window's one partial-positivity test: S_x is a principal
    submatrix of its bordered matrix, so by interlacing the test bounds
    lambda_min(S_x) at the window's scale, and one stacked ``eigh`` factors
    both Schur complements with the rank cut ``RANK_EPS`` alone.  Its floor
    is ``tol.psd_floor`` at the window's scale max(1, max |w(A[E,E])|),
    which takes in the spectrum of A[E,E] that the bordered matrices do not
    contain; :func:`extract_gamma`'s completion test uses the same floor.

    A stack of windows gets one list of :class:`DefectData`, each what the
    window alone gives, bit for bit: every LAPACK call and product runs on
    the stack, and the bordered test on the windows of each dropped count
    at once.  A failure raises the error of the first failing window.
    """
    k = P.k
    A = P.entries if P.entries.ndim == 3 else P.entries[None]
    e = (P.p - 2) * k  # E is the leading e rows and columns, the hidden pair the last 2k
    # each product below takes its operands in the memory layout of the
    # single-window code it replaced (the BLAS path, and so the rounding,
    # follows the layout): rows and Schur terms C-ordered, V_keep and A_kE
    # F-ordered, as explicit copies make them
    rows = np.ascontiguousarray(A[:, :e])
    A_EE = np.ascontiguousarray(rows[:, :, :e])
    A_kE = np.ascontiguousarray(A[:, e : e + k, :e].swapaxes(1, 2)).swapaxes(1, 2)
    w, V = np.linalg.eigh(A_EE)
    keep = w > e * np.finfo(float).eps * w.max(axis=1, initial=0.0)[:, None]
    scale = np.maximum(1.0, np.abs(w).max(axis=1, initial=0.0))
    # V* A[E,k] and V* A[E,l] stay two products: one fused product rounds differently
    Vh = V.conj().swapaxes(1, 2)
    B = np.stack([Vh @ rows[:, :, e : e + k], Vh @ rows[:, :, e + k :]], axis=1)
    A_xx = np.stack([A[:, e : e + k, e : e + k], A[:, e + k :, e + k :]], axis=1)
    # w ascends, so each window drops its d smallest eigenvalues
    drops = (~keep).sum(axis=1)
    counts = sorted(set(drops.tolist()))
    S = np.empty((A.shape[0], 2, k, k), dtype=complex)
    bad = np.empty((A.shape[0], 2), dtype=bool)
    central = np.empty((A.shape[0], k, k), dtype=complex)
    for d in counts:
        g = slice(None) if len(counts) == 1 else drops == d
        B_g = B[g]
        R = B_g[:, :, d:] / np.sqrt(w[g, None, d:, None])
        S_g = A_xx[g] - R.conj().swapaxes(2, 3) @ R
        m = d + k
        bordered = np.zeros((len(B_g), 2, m, m), dtype=complex)
        bordered.reshape(-1, 2, m * m)[:, :, : d * (m + 1) : m + 1] = w[g, None, :d]  # diag(w_drop)
        bordered[:, :, d:, d:] = (S_g + S_g.conj().swapaxes(2, 3)) / 2.0
        bordered[:, :, :d, d:] = B_g[:, :, :d]
        bordered[:, :, d:, :d] = B_g[:, :, :d].conj().swapaxes(2, 3)
        mu = np.linalg.eigvalsh(bordered)
        bad[g] = mu.min(axis=2) < tol.psd_floor(mu, scale[g, None])
        S[g] = bordered[:, :, d:, d:]
        V_keep = np.ascontiguousarray(V[g].swapaxes(1, 2)[:, d:]).swapaxes(1, 2)
        central[g] = A_kE[g] @ (V_keep @ (B_g[:, 1, d:] / w[g, d:, None]))
    if bad.any() or not np.isfinite(S).all():
        fails = bad.any(axis=1) | ~np.isfinite(S).all(axis=(1, 2, 3))
        for y, side in zip((P.p - 1, P.p - 2), bad[fails.argmax()]):
            if side:
                raise PartialPositivityError(
                    f"partial positivity violated: submatrix without block {y} is not PSD"
                )
        raise ValueError("matrix contains NaN or Inf entries")
    factors = _gram_factors(*np.linalg.eigh(S.reshape(-1, k, k)))
    out = [
        DefectData(central[c], *factors[2 * c : 2 * c + 2], S[c], scale[c])
        for c in range(len(central))
    ]
    return out if P.entries.ndim == 3 else out[0]


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
    """The k x k entry that fills block (p - 2, p - 1) of P for the contraction ``gamma``.

    The entry is central + F_k* gamma F_l, and :func:`extract_gamma` inverts
    it; gamma = 0 gives the central (maximum-entropy-like) completion, and
    ``P.completed_with`` forms the completed matrix.  Overshoots of the unit
    norm up to ``GAMMA_NORM_SLACK`` are renormalized silently, anything
    larger is an error.
    """
    dd = analyze(P, tol)
    g = _coerce_gamma(gamma, dd.gamma_shape)
    return dd.central + dd.defect_k.conj().T @ g @ dd.defect_l


def extract_gamma(
    P: PartialBlockMatrix, filled: np.ndarray, tol: Tolerance = DEFAULT_TOL
):
    """The contraction parameter of the k x k entry ``filled`` at block (p - 2, p - 1).

    The exact inverse of :func:`complete` wherever both defects have full
    rank; on rank-deficient defects the minimal-norm representative is
    returned (components annihilated by zero defects are unrecoverable).  Given
    partial positivity, F completes P to a PSD matrix exactly when the
    Schur block [[S_k, F - central], [., S_l]] is PSD, and that block is
    tested at :func:`analyze`'s floor, ``tol.psd_floor`` at the window's
    ``scale``, with no eigenvalue of the whole window.  A stack of windows
    takes a (C, k, k) stack of entries and gives a list of parameters,
    from one :func:`analyze` and one ``eigvalsh`` of the stacked Schur
    blocks, with the pseudo-inverses taken window by window.  Each check
    runs over the whole stack before the next and names its first failing
    window.
    """
    dd = analyze(P, tol)
    F = as_matrix(filled, stacked=True)
    shape = (*P.entries.shape[:-2], P.k, P.k)
    if F.shape != shape:
        raise ValueError(f"filled entry has shape {F.shape}, expected {shape}")
    dds, Fs = (dd, F) if F.ndim == 3 else ([dd], F[None])
    S = np.array([d.schur for d in dds])
    X = Fs - np.array([d.central for d in dds])
    mu = np.linalg.eigvalsh(np.block([[S[:, 0], X], [X.conj().swapaxes(1, 2), S[:, 1]]]))
    if (mu.min(axis=1) < tol.psd_floor(mu, np.array([d.scale for d in dds]))).any():
        raise CompletionError("the proposed entry does not give a PSD completion")
    message = (
        "extracted parameter has operator norm {:.6g}; "
        "the completion is inconsistent with the defect geometry"
    )
    out = []
    for d, X_c in zip(dds, X):
        g = pinv(d.defect_k.conj().T) @ X_c @ pinv(d.defect_l)
        out.append(_renormalized(g, EXTRACT_NORM_SLACK, CompletionError, message))
    return out if F.ndim == 3 else out[0]

"""Seeded random generators used by stress tests and the CLI.

Everything is driven by an explicit ``numpy.random.Generator`` so runs
are replayable; nothing here touches global RNG state.
"""

from __future__ import annotations

import numpy as np

from .completion import DefectData
from .pdfun import BallDomain, PdFunction
from .words import ClassCursor, GroupContext


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a Ginibre matrix, phases fixed)."""
    return unitary_part(ginibre((d, d), rng))


def unitary_part(Z: np.ndarray) -> np.ndarray:
    """The Q of the QR of each Ginibre matrix in a stack (..., d, d), phases fixed.

    The phases of R's diagonal move into Q's columns, which makes Q Haar
    distributed (Mezzadri 2007).  A stack costs one stacked QR and equals
    the matrices' own factors bit for bit.
    """
    Q, R = np.linalg.qr(Z)
    r = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (r / np.abs(r))[..., None, :]


def ginibre(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_contraction(
    shape: tuple[int, int], rng: np.random.Generator, norm: float | None = None
) -> np.ndarray:
    """Random matrix of operator norm <= 1, by singular-value shrinkage.

    A Ginibre sample is rescaled so its largest singular value equals a
    target drawn uniformly from [0, 1) (or the given ``norm``).
    """
    if 0 in shape:
        return np.zeros(shape, dtype=complex)
    G = ginibre(shape, rng)
    target = rng.uniform(0.0, 1.0) if norm is None else float(norm)
    return G * (target / np.linalg.norm(G, 2))


def random_gamma_oracle(seed: int):
    """Extension oracle emitting seeded random contractions of the right shape."""
    rng = np.random.default_rng(seed)

    def oracle(cursor: ClassCursor, defects: DefectData) -> np.ndarray:
        return random_contraction(defects.gamma_shape, rng)

    return oracle


def random_pd_function(ctx: GroupContext, k: int, n: int, rng: np.random.Generator) -> PdFunction:
    """Random positive definite function on S_n (n in {1, 2}).

    For n = 1 the generator values are independent contractions of norm
    0.4 to 0.75.  For n = 2 the off-unit classes get blocks of norm 0.5 to
    1 times 0.4/(2m), which keeps the ball-1 Gram matrix diagonally
    dominant, so positivity holds with margin and defect spaces stay full
    rank.
    """
    if n not in (1, 2):
        raise ValueError(f"random_pd_function supports n in (1, 2), got {n}")
    if n == 1:
        lo, hi, s = 0.4, 0.75, 1.0
    else:
        lo, hi, s = 0.5, 1.0, 0.4 / (2 * ctx.m)
    values = {
        rep: random_contraction((k, k), rng, norm=rng.uniform(lo, hi) * s)
        for rep in BallDomain(n).class_reps(ctx)
        if rep
    }
    values[()] = np.eye(k, dtype=complex)
    return PdFunction(ctx, k, BallDomain(n), values)

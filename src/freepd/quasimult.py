"""Quasi-multiplicative (Haagerup-type) positive definite functions.

A quasi-multiplicative function is determined by contractive values on
the generators: Phi(e) = I, Phi(s^-1) = Phi(s)*, and Phi(st) = Phi(s)Phi(t)
whenever the lengths add.  Such functions are positive definite, and they
coincide with the central extension of their restriction to S_1.  The
radial scalar family Phi(s) = exp(-t|s|) I is the classical example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .ncpoly import eval_word
from .pdfun import BallDomain, PdFunction
from .words import GroupContext, Word, reduce_word


@dataclass(frozen=True)
class GeneratorAssignment:
    """Contractive k x k blocks Phi(a_1), ..., Phi(a_m)."""

    ctx: GroupContext
    k: int
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.blocks) != self.ctx.m:
            raise ValueError(
                f"need {self.ctx.m} generator blocks, got {len(self.blocks)}"
            )
        coerced = []
        for i, block in enumerate(self.blocks):
            B = as_matrix(block)
            if B.shape != (self.k, self.k):
                raise ValueError(
                    f"block for generator {i + 1} has shape {B.shape}, "
                    f"expected {(self.k, self.k)}"
                )
            norm = np.linalg.norm(B, 2)
            if norm > 1.0 + 1e-12:
                raise ValueError(
                    f"block for generator {i + 1} has norm {norm:.12g} > 1"
                )
            B.flags.writeable = False
            coerced.append(B)
        object.__setattr__(self, "blocks", tuple(coerced))


def quasi_mult(g: GeneratorAssignment, s: Word) -> np.ndarray:
    """Phi(s): the letterwise product of generator blocks and their adjoints."""
    return eval_word(g.blocks, reduce_word(s))


def as_pdfunction(g: GeneratorAssignment, n: int) -> PdFunction:
    """Sample the quasi-multiplicative function on the ball S_n."""
    domain = BallDomain(n)
    values = {rep: quasi_mult(g, rep) for rep in domain.class_reps(g.ctx)}
    return PdFunction(g.ctx, g.k, domain, values)


def haagerup(ctx: GroupContext, k: int, t: float, n: int) -> PdFunction:
    """The radial function Phi(s) = exp(-t |s|) I_k on S_n, for t > 0."""
    if not 0 < t < math.inf:
        raise ValueError(f"decay rate must be positive and finite, got t = {t}")
    eye = np.eye(k, dtype=complex)
    values = {
        rep: math.exp(-t * len(rep)) * eye for rep in BallDomain(n).class_reps(ctx)
    }
    return PdFunction(ctx, k, BallDomain(n), values)

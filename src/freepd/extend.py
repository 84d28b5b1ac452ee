"""Step-by-step extension of positive definite functions over the class order.

Each class nu contributes one new value Phi(s_nu).  The completion window
is the clique containing {e, s_nu} whose other members are already known;
hiding the (e, s_nu) entry of its Gram matrix leaves a partially positive
matrix with a single missing pair, and every positive extension of the
function corresponds to a contraction parameter of that completion.  The
zero parameter at every step yields the central extension, which does not
depend on the letter ordering and is characterized by a residual
orthogonality across each one-step distance gap (checked by
:func:`check_max_orthogonal`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import jsonio
from .cayley import clique_C, sigma_set
from .completion import (
    DefectData,
    ContractionNormError,
    PartialBlockMatrix,
    _coerce_gamma,
    analyze,
    complete,
    extract_gamma,
)
from .linalg import DEFAULT_TOL, Tolerance
from .pdfun import BallDomain, PdFunction, WordValues, gram
from .words import (
    E,
    ClassCursor,
    GroupContext,
    Word,
    WordIndex,
    check_ball_cap,
    classes_of_length,
)

#: Oracle contract: (class cursor, defect data) -> contraction parameter
#: of shape ``defects.gamma_shape``.
ParamOracle = Callable[[ClassCursor, DefectData], np.ndarray]


def zero_oracle(cursor: ClassCursor, defects: DefectData) -> np.ndarray:
    """The central choice: gamma = 0 at every step."""
    return np.zeros(defects.gamma_shape, dtype=complex)


def oracle_from_params(params: Mapping[ClassCursor, np.ndarray]) -> ParamOracle:
    """Replay a recorded parameter sequence; missing classes are an error."""

    def oracle(cursor: ClassCursor, defects: DefectData) -> np.ndarray:
        try:
            return np.asarray(params[cursor], dtype=complex)
        except KeyError:
            raise KeyError(f"no recorded parameter for the class of {cursor.rep}") from None

    return oracle


@dataclass(frozen=True)
class ExtensionStep:
    """One completed class: window, central value, parameter, filled value."""

    cursor: ClassCursor
    clique: tuple[Word, ...]
    central: np.ndarray
    gamma: np.ndarray
    filled: np.ndarray


@dataclass(frozen=True)
class ExtensionTrace:
    """Audit log of an extension run; replaying it is bit-exact."""

    ctx: GroupContext
    k: int
    start_n: int
    steps: tuple[ExtensionStep, ...]

    def params(self) -> dict[ClassCursor, np.ndarray]:
        return {step.cursor: step.gamma for step in self.steps}

    def to_json_dict(self) -> dict:
        return {
            **jsonio.header("trace.v1", self.ctx, self.k),
            "start_n": self.start_n,
            "steps": [
                {
                    "class": jsonio.word_to_json(step.cursor.rep),
                    "clique": [jsonio.word_to_json(w) for w in step.clique],
                    "central": jsonio.matrix_to_json(step.central),
                    "gamma": jsonio.matrix_to_json(step.gamma),
                    "filled": jsonio.matrix_to_json(step.filled),
                }
                for step in self.steps
            ],
        }


def params_to_json(
    ctx: GroupContext,
    k: int,
    from_n: int,
    to_n: int,
    params: Mapping[ClassCursor, np.ndarray],
) -> dict:
    """The ``params.v1`` document: an explicit contraction sequence by class."""
    ordered = sorted(params, key=lambda cur: cur.key())
    return {
        **jsonio.header("params.v1", ctx, k),
        "from_n": from_n,
        "to_n": to_n,
        "params": [
            {
                "class": jsonio.word_to_json(cur.rep),
                "gamma": jsonio.matrix_to_json(params[cur]),
            }
            for cur in ordered
        ],
    }


def params_from_json(doc: dict) -> tuple[GroupContext, int, int, int, dict[ClassCursor, np.ndarray]]:
    ctx, k = jsonio.read_header(doc, "params.v1")
    params: dict[ClassCursor, np.ndarray] = {}
    for item in jsonio.require(doc, "params", list):
        cursor = ClassCursor(jsonio.word_from_json(jsonio.require(item, "class"), ctx.m), ctx)
        if cursor in params:
            raise jsonio.SchemaError(f"'params' names the class of {cursor.rep} twice")
        params[cursor] = jsonio.matrix_from_json(jsonio.require(item, "gamma"))
    return ctx, k, jsonio.natural(doc, "from_n"), jsonio.natural(doc, "to_n"), params


def trace_from_json(doc: dict) -> ExtensionTrace:
    ctx, k = jsonio.read_header(doc, "trace.v1")
    m = ctx.m
    steps = []
    for item in jsonio.require(doc, "steps", list):
        rep = jsonio.word_from_json(jsonio.require(item, "class"), m)
        clique = tuple(jsonio.word_from_json(w, m) for w in jsonio.require(item, "clique", list))
        steps.append(
            ExtensionStep(
                cursor=ClassCursor(rep, ctx),
                clique=clique,
                central=jsonio.matrix_from_json(jsonio.require(item, "central"), (k, k)),
                gamma=jsonio.matrix_from_json(jsonio.require(item, "gamma")),
                filled=jsonio.matrix_from_json(jsonio.require(item, "filled"), (k, k)),
            )
        )
    return ExtensionTrace(ctx=ctx, k=k, start_n=jsonio.natural(doc, "start_n"), steps=tuple(steps))


def _window(values: WordValues, cursor: ClassCursor) -> tuple[PartialBlockMatrix, list[Word]]:
    """Partial Gram matrix over the clique of cursor, with (e, s_nu) hidden.

    ``values`` must know some value at s_nu; the hidden pair is never read
    by :func:`analyze`, :func:`complete` or :func:`extract_gamma`.
    """
    clique = clique_C(cursor, values.index)
    A = values.gram_blocks([values.index.ids[w] for w in clique], clique)
    k = values.blocks.shape[1]
    return PartialBlockMatrix(A, (clique.index(E), clique.index(cursor.rep)), k), clique


def extend_to_ball(
    phi: PdFunction,
    N: int,
    oracle: ParamOracle = zero_oracle,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[PdFunction, ExtensionTrace]:
    """Extend a positive definite function from S_n to S_N, class by class.

    The oracle chooses the contraction parameter at each class; with
    :func:`zero_oracle` this is the central extension.  Each step fills
    central + F_e* gamma F_s at s_nu (its adjoint at the inverse follows),
    keeping the function positive definite on the grown ideal.  The run is
    recorded in a trace whose replay (via :func:`oracle_from_params`)
    reproduces the output bit-for-bit.
    """
    n = phi.ball_radius()
    if N < n:
        raise ValueError(f"cannot extend from S_{n} down to S_{N}")
    ctx, k = phi.ctx, phi.k
    check_ball_cap(ctx.m, N)  # refuse before any work
    index = WordIndex(ctx, N)
    values = WordValues(index, k)
    reps = np.flatnonzero(~phi.table.index.adj[:-1])  # S_n leads S_N, so the ids carry over
    values.put(reps, phi.table.blocks[reps])
    hidden = np.zeros((k, k), dtype=complex)
    steps: list[ExtensionStep] = []
    for length in range(n + 1, N + 1):
        for cursor in classes_of_length(ctx, length):
            i = index.ids[cursor.rep]
            values.put(i, hidden)  # a placeholder: the window never reads it
            P, clique = _window(values, cursor)
            defects = analyze(P, tol)
            try:
                gamma = _coerce_gamma(oracle(cursor, defects), defects.gamma_shape)
            except ContractionNormError as exc:
                raise ContractionNormError(f"oracle at class {cursor.rep}: {exc}") from None
            full = complete(P, gamma, tol)
            i_e, i_s = P.missing
            filled = full[i_e * k : (i_e + 1) * k, i_s * k : (i_s + 1) * k]
            values.put(i, filled)
            steps.append(ExtensionStep(cursor, tuple(clique), defects.central, gamma, filled))
    ext = PdFunction._of_table(ctx, k, BallDomain(N), values)
    return ext, ExtensionTrace(ctx=ctx, k=k, start_n=n, steps=tuple(steps))


def extract_params(
    phi: PdFunction, n: int, tol: Tolerance = DEFAULT_TOL
) -> dict[ClassCursor, np.ndarray]:
    """Recover the contraction parameters of phi beyond S_n.

    For each class past S_n, the (e, s_nu) entry of its window is hidden,
    the window analyzed, and the parameter of the actual value extracted;
    replaying :func:`extend_to_ball` with the result reproduces phi
    (exactly on full-rank defects, minimal-norm representative otherwise).
    """
    N = phi.ball_radius()
    if not 0 <= n <= N:
        raise ValueError(f"base radius must lie in 0..{N}, got {n}")
    values = phi.table
    out: dict[ClassCursor, np.ndarray] = {}
    for length in range(n + 1, N + 1):
        for cursor in classes_of_length(phi.ctx, length):
            P, _ = _window(values, cursor)
            out[cursor] = extract_gamma(P, phi.value(cursor.rep), tol)
    return out


@dataclass(frozen=True)
class OrthogonalityReport:
    """Worst residual pairing across the checked distance gap."""

    ok: bool
    worst_violation: float
    worst_class: ClassCursor | None

    def __bool__(self) -> bool:
        return self.ok


def check_max_orthogonal(phi: PdFunction, n: int, tol: float = 1e-8) -> OrthogonalityReport:
    """Check the defining orthogonality of the central extension at gap n + 1.

    For each class representative t of length n + 1, take the set Sigma of
    words within distance n of both e and t.  The residuals rho_e, rho_t of
    omega_e and omega_t after projection onto span{omega_r : r in Sigma}
    pair to rho_e* rho_t = Phi(t) - A[e,Sigma] A[Sigma,Sigma]^+ A[Sigma,t],
    the distance of Phi(t) from the central value of the Gram window of
    Sigma + {e, t} with (e, t) hidden; it must vanish within ``tol``.  By
    translation invariance the representatives cover all pairs at
    distance n + 1.
    """
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    N = phi.ball_radius()
    if N < n + 1:
        raise ValueError(f"needs values on S_{n + 1}, but the domain is S_{N}")
    index = phi.table.index
    worst = 0.0
    worst_class: ClassCursor | None = None
    for cursor in classes_of_length(phi.ctx, n + 1):
        t = cursor.rep
        # Sigma lies in S_n, so in lexicographic order e comes first and t last
        S = [E, *sigma_set(phi.ctx, E, t, n, index), t]
        P = PartialBlockMatrix(gram(phi, S).blocks, (0, len(S) - 1), phi.k)
        violation = float(np.linalg.norm(phi.value(t) - analyze(P, DEFAULT_TOL).central, 2))
        if violation > worst:
            worst = violation
            worst_class = cursor
    return OrthogonalityReport(ok=worst <= tol, worst_violation=worst, worst_class=worst_class)

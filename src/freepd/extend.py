"""Step-by-step extension of positive definite functions over the class order.

Each class nu contributes one new value Phi(s_nu).  The completion window
is the clique containing {e, s_nu} whose other members are already known;
ordering its words with e and s_nu last and hiding their entry leaves a
partially positive matrix whose last block pair is missing, and every
positive extension of the function corresponds to a contraction parameter
of that completion.  The zero parameter at every step yields the central
extension, which does not depend on the letter ordering and is
characterized by a residual orthogonality across each one-step distance
gap (checked by :func:`check_max_orthogonal`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import jsonio
from .cayley import _common_neighbours, clique_C
from .completion import (
    DefectData,
    ContractionNormError,
    PartialBlockMatrix,
    _coerce_gamma,
    analyze,
    complete,
    extract_gamma,
)
from .linalg import DEFAULT_TOL, RESIDUAL_TOL, Tolerance, check_positive_finite
from .pdfun import BallDomain, PdFunction, WordValues
from .words import (
    E,
    ClassCursor,
    GroupContext,
    Word,
    WordIndex,
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
    """The contraction sequence of a ``params.v1`` document or of a ``trace.v1``.

    A trace's sequence is its ``gamma`` column: it starts at ``start_n`` and
    ends at its longest class.  Its parameters are the ones the run used, so
    replaying it reproduces the run bit for bit; a ``params.v1`` file holds
    re-extracted parameters and replays to rounding.
    """
    trace = doc.get("schema") == "trace.v1"
    ctx, k = jsonio.read_header(doc, "trace.v1" if trace else "params.v1")
    key = "steps" if trace else "params"
    from_n = jsonio.natural(doc, "start_n" if trace else "from_n")
    to_n = math.inf if trace else jsonio.natural(doc, "to_n")
    if from_n > to_n:
        raise jsonio.SchemaError(f"'from_n' = {from_n} exceeds 'to_n' = {to_n}")
    params: dict[ClassCursor, np.ndarray] = {}
    for item in jsonio.require(doc, key, list):
        cursor = ClassCursor(jsonio.word_from_json(jsonio.require(item, "class"), ctx.m), ctx)
        if not from_n < cursor.length <= to_n:
            raise jsonio.SchemaError(f"class {cursor.rep} has a length outside ({from_n}, {to_n}]")
        if cursor in params:
            raise jsonio.SchemaError(f"{key!r} names the class of {cursor.rep} twice")
        params[cursor] = jsonio.matrix_from_json(jsonio.require(item, "gamma"))
    if trace:
        to_n = max((cursor.length for cursor in params), default=from_n)
    return ctx, k, from_n, to_n, params


def _window(values: WordValues, ids) -> PartialBlockMatrix:
    """The one window builder: the partial Gram matrix over the words of ``ids``, its last two hidden.

    ``ids`` lists one window's word ids, or holds one row per window of a
    stack, each ending in e and then s: every window puts its hidden pair
    last.  ``values`` holds some value at s; the hidden pair is never read
    by :func:`analyze`, :func:`complete` or :func:`extract_gamma`.
    """
    return PartialBlockMatrix(values.gram_blocks(ids), values.blocks.shape[1])


#: Window entries analysed at once by ``params`` and ``check-ortho``: whole
#: levels at once raised the peak memory of a ``central`` benchmark round by 8 %.
_WINDOW_CHUNK = 1 << 13


def _chunks(p: int, k: int, count: int):
    """Slices of ``count`` windows of p k-blocks, at most ``_WINDOW_CHUNK`` entries a slice."""
    step = max(1, _WINDOW_CHUNK // (p * k) ** 2)
    return (slice(start, start + step) for start in range(0, count, step))


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
    index = WordIndex(ctx, N)
    values = WordValues(index, k)
    reps = phi.table.index.reps  # S_n leads S_N, so the ids carry over
    values.put(reps, phi.table.blocks[reps])
    hidden = np.zeros((k, k), dtype=complex)
    steps: list[ExtensionStep] = []
    for length in range(n + 1, N + 1):
        for cursor in index.classes(length):
            i = index.ids[cursor.rep]
            values.put(i, hidden)  # a placeholder: the window never reads it
            clique = clique_C(cursor, values.index)
            P = _window(values, _pair_last(index, clique, cursor.rep))
            defects = analyze(P, tol)
            try:
                gamma = _coerce_gamma(oracle(cursor, defects), defects.gamma_shape)
            except ContractionNormError as exc:
                raise ContractionNormError(f"oracle at class {cursor.rep}: {exc}") from None
            values.put(i, complete(P, gamma, tol))
            steps.append(ExtensionStep(cursor, tuple(clique), defects.central, gamma, values.blocks[i]))
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
    Every window is fully known, so the windows of one length and one size
    are extracted as stacks, each parameter that of its window alone, bit
    for bit.  A failure is raised class by class, as the first failing
    class in order names it.
    """
    N = phi.ball_radius()
    if not 0 <= n <= N:
        raise ValueError(f"base radius must lie in 0..{N}, got {n}")
    values = phi.table
    index = values.index
    out: dict[ClassCursor, np.ndarray] = {}
    for length in range(n + 1, N + 1):
        cursors = list(index.classes(length))
        cliques = [clique_C(cursor, index) for cursor in cursors]
        gammas: list = [None] * len(cursors)
        try:
            for p in sorted(set(map(len, cliques))):
                group = [c for c, clique in enumerate(cliques) if len(clique) == p]
                for part in _chunks(p, phi.k, len(group)):
                    members = group[part]
                    ids = np.array([_pair_last(index, cliques[c], cursors[c].rep) for c in members])
                    P = _window(values, ids)
                    for c, gamma in zip(members, extract_gamma(P, values.blocks[ids[:, -1]], tol)):
                        gammas[c] = gamma
        except ValueError:  # a stack checks stage by stage: name the first failing class
            for cursor, clique in zip(cursors, cliques):
                P = _window(values, _pair_last(index, clique, cursor.rep))
                extract_gamma(P, phi.value(cursor.rep), tol)
            raise
        out.update(zip(cursors, gammas))
    return out


def _pair_last(index: WordIndex, clique: list[Word], s: Word) -> list[int]:
    """The ids of a clique with e and s moved, in that order, behind its other words."""
    return [index.ids[w] for w in clique if w != E and w != s] + [0, index.ids[s]]


@dataclass(frozen=True)
class OrthogonalityReport:
    """Worst residual pairing across the checked distance gap."""

    ok: bool
    worst_violation: float
    worst_class: ClassCursor | None

    def __bool__(self) -> bool:
        return self.ok


def check_max_orthogonal(phi: PdFunction, n: int, tol: float = RESIDUAL_TOL) -> OrthogonalityReport:
    """Check the defining orthogonality of the central extension at gap n + 1.

    For each class representative t of length n + 1, take the set Sigma of
    words within distance n of both e and t.  The residuals rho_e, rho_t of
    omega_e and omega_t after projection onto span{omega_r : r in Sigma}
    pair to rho_e* rho_t = Phi(t) - A[e,Sigma] A[Sigma,Sigma]^+ A[Sigma,t],
    the distance of Phi(t) from the central value of the Gram window of
    Sigma + {e, t} with (e, t) hidden; it must vanish within ``tol``.  By
    translation invariance the representatives cover all pairs at
    distance n + 1.  ``tol`` must be positive and finite.
    """
    check_positive_finite(tol, "tol")
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    N = phi.ball_radius()
    if N < n + 1:
        raise ValueError(f"needs values on S_{n + 1}, but the domain is S_{N}")
    index = phi.table.index
    cursors = list(index.classes(n + 1))
    ts = np.array([index.ids[cursor.rep] for cursor in cursors])
    inner = index.ends[n]  # S_n: Sigma's words, and its cutoff class ids, lie below this
    # on the tree every Sigma(e, t) of one length has one size
    p = np.count_nonzero(_common_neighbours(index, ts[:1], inner, inner)) + 2
    violations: list[float] = []
    for part in _chunks(p, phi.k, ts.size):
        t = ts[part]
        sigma = np.nonzero(_common_neighbours(index, t, inner, inner))[1].reshape(t.size, p - 2)
        P = _window(phi.table, np.column_stack([sigma, np.zeros_like(t), t]))
        gaps = phi.table.blocks[t] - np.array([dd.central for dd in analyze(P, DEFAULT_TOL)])
        # the spectral norm of each gap, as np.linalg.norm(gap, 2) takes it
        violations += np.linalg.svd(gaps, compute_uv=False)[:, 0].tolist()
    c = int(np.argmax(violations))  # the first class of the largest violation
    worst = violations[c]
    worst_class = cursors[c] if worst > 0.0 else None
    return OrthogonalityReport(ok=worst <= tol, worst_violation=worst, worst_class=worst_class)

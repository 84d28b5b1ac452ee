"""Noncommutative polynomials in unitary indeterminates and their
sum-of-squares factorization.

A polynomial sum_s A_s X(s) with c x c coefficient blocks is positive
when every substitution of unitaries for the indeterminates yields a PSD
operator.  Positivity is equivalent to the existence of a PSD Gram matrix
G indexed by S_h, h = ceil(d / 2) (d = deg p), whose entries sum, along
each coefficient class {(s, t) : s^-1 t = x}, to A_x (to 0 for |x| > d);
factoring G = B* B then gives p = q* q with q = sum_s B_s X(s) of degree
at most h.  The index is exact, by duality with the extension theorem:

- a functional nonnegative on every such Gram sum is a function on S_d
  that extends to S_2h with a PSD Gram matrix over S_h;
- S_h holds ``verify_pd``'s exact witness sets for S_d, so that function
  is positive definite, and it extends to a positive definite function on
  F_m, which is nonnegative on every positive p;
- both cones are closed and have the same dual, so they are equal.

:func:`factor_sos` searches for such a G with Dykstra's alternating
projections between the PSD cone and the affine constraint set, polished
by a Gauss-Newton solve on a low-rank Gram factor seeded from the Dykstra
iterate (alternating projections alone crawl when the feasible set
touches the boundary of the cone, which is the generic situation here).
Each Gauss-Newton step is a CGLS solve that forms no Jacobian matrix.
A returned certificate carries its own coefficient residual.  At every
gap check (at iteration 1, then every 25 iterations and at the last) the
search also reads a separating function: the difference between the PSD
iterate and its affine projection is the Gram matrix of a function on
S_2h, and shifted at e to be PSD (with a margin for the eigenvalue
rounding) it is positive definite; when it pairs with p below minus the
rounding bound of that sum, p is not positive, and the
:class:`InfeasibleReport` carries the witness.  A report that exhausted
the iteration budget carries none and is not a disproof of positivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import jsonio
from .linalg import DATA_RTOL, RESIDUAL_TOL, _psd_clip, as_matrix, check_positive_finite, gram_factor
from .sampling import unitary_part
from .words import GroupContext, Word, WordIndex, inverse, mul, reduce_word


class NcContextError(ValueError):
    """Operands live over different contexts or block sizes."""


class NcPolynomial:
    """Finite sum of words with c x c coefficient blocks, closed under adjoint."""

    __slots__ = ("ctx", "c", "terms")

    def __init__(self, ctx: GroupContext, c: int, terms: Mapping[Word, np.ndarray]):
        if c < 1:
            raise ValueError(f"coefficient block size must be positive, got {c}")
        store: dict[Word, np.ndarray] = {}
        for word, block in terms.items():
            w = reduce_word(word)
            B = as_matrix(block)
            if B.shape != (c, c):
                raise ValueError(f"coefficient at {w} has shape {B.shape}, expected {(c, c)}")
            store[w] = store[w] + B if w in store else B.copy()
        for w in [w for w, B in store.items() if not B.any()]:
            del store[w]
        for B in store.values():
            B.flags.writeable = False
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "terms", store)

    def __setattr__(self, name, value):
        raise AttributeError("NcPolynomial is immutable")

    @property
    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def coefficient(self, word: Word) -> np.ndarray:
        w = reduce_word(word)
        return self.terms.get(w, np.zeros((self.c, self.c), dtype=complex))

    def is_hermitian(self) -> bool:
        """A_{s^-1} = A_s* for every s, within ``DATA_RTOL`` times max(1, max |A_x|)."""
        scale = max((np.abs(B).max() for B in self.terms.values()), default=0.0)
        bound = DATA_RTOL * max(1.0, scale)
        return all(
            np.abs(self.coefficient(inverse(w)) - B.conj().T).max(initial=0.0) <= bound
            for w, B in self.terms.items()
        )

    def adjoint(self) -> "NcPolynomial":
        return NcPolynomial(
            self.ctx, self.c, {inverse(w): B.conj().T for w, B in self.terms.items()}
        )

    def _check_compatible(self, other: "NcPolynomial"):
        if not isinstance(other, NcPolynomial):
            raise TypeError(f"expected an NcPolynomial, got {type(other).__name__}")
        if self.ctx != other.ctx or self.c != other.c:
            raise NcContextError("operands have different contexts or block sizes")

    def __mul__(self, other: "NcPolynomial") -> "NcPolynomial":
        self._check_compatible(other)
        out: dict[Word, np.ndarray] = {}
        for s, A in self.terms.items():
            for t, B in other.terms.items():
                x = mul(s, t)
                prod = A @ B
                out[x] = out[x] + prod if x in out else prod
        return NcPolynomial(self.ctx, self.c, out)

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        self._check_compatible(other)
        out = {w: B.copy() for w, B in self.terms.items()}
        for w, B in other.terms.items():
            out[w] = out[w] + B if w in out else B
        return NcPolynomial(self.ctx, self.c, out)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        self._check_compatible(other)
        return self + NcPolynomial(self.ctx, self.c, {w: -B for w, B in other.terms.items()})

    def max_coefficient_norm(self) -> float:
        return max((np.linalg.norm(B, 2) for B in self.terms.values()), default=0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.c == other.c
            and self.terms.keys() == other.terms.keys()
            and all(np.array_equal(self.terms[w], other.terms[w]) for w in self.terms)
        )

    def to_json_dict(self) -> dict:
        """The ``ncpoly.v1`` document; it names no letter order, so terms go in the default one."""
        default = GroupContext(self.ctx.m)
        return {
            **jsonio.header("ncpoly.v1", default, self.c),
            "terms": jsonio.entries_to_json(
                (w, self.terms[w]) for w in sorted(self.terms, key=default.sort_key)
            ),
        }


def ncpolynomial_from_json(doc: dict) -> NcPolynomial:
    """Parse an ``ncpoly.v1`` document; the terms listed at one word add up."""
    ctx, c = jsonio.read_header(doc, "ncpoly.v1")
    return NcPolynomial(ctx, c, jsonio.entries_from_json(doc, "terms", ctx.m, (c, c), add=True))


def eval_word(blocks: Sequence[np.ndarray], word: Word) -> np.ndarray:
    """The letterwise product: blocks[i - 1] for the letter +i, its adjoint for -i.

    Blocks of shape (..., d, d) are stacks, multiplied slice by slice.
    """
    d = blocks[0].shape[-1]
    out = np.eye(d, dtype=complex)
    for x in word:
        B = blocks[abs(x) - 1]
        out = out @ (B if x > 0 else B.conj().swapaxes(-1, -2))
    return out


def eval_unitaries(p: NcPolynomial, unitaries: Sequence[np.ndarray]) -> np.ndarray:
    """p(U) = sum_s A_s (x) U(s), a (c d) x (c d) matrix.

    Each of the m substituted matrices must be unitary within ``DATA_RTOL``, the
    data rule at the scale 1 of a unitary: no entry of U* U - I above it.
    Stacks of substitutions, each of shape (..., d, d), give the stack of the p(U).
    Each term's word product extends the products of the prefix it shares with
    the previous term's word, one letter at a time (the matmuls of
    :func:`eval_word`), so at most deg p + 1 products are held.  The terms are
    added in ``p.terms`` order, each by one multiply on the operand shapes
    ``np.kron`` builds, so p(U) has the bits of the ``np.kron`` sum.
    """
    if len(unitaries) != p.ctx.m:
        raise ValueError(f"need {p.ctx.m} unitaries, got {len(unitaries)}")
    Us = [np.asarray(U, dtype=complex) for U in unitaries]
    shape = Us[0].shape
    for i, U in enumerate(Us):
        ok = U.ndim >= 2 and U.shape == shape and shape[-2] == shape[-1] and np.isfinite(U).all()
        if not ok or np.abs(U.conj().swapaxes(-1, -2) @ U - np.eye(shape[-1])).max(initial=0.0) > DATA_RTOL:
            raise ValueError(f"substitution {i + 1} is not unitary within {DATA_RTOL}")
    c, d, S = p.c, shape[-1], int(np.prod(shape[:-2], dtype=int))
    letters = {}
    for i, U in enumerate(Us, 1):
        letters[i], letters[-i] = U, U.conj().swapaxes(-1, -2)
    path, prev = [np.eye(d, dtype=complex)], ()  # path[n]: the product of prev[:n]
    out = np.zeros((1, S, c, d, c, d), dtype=complex)
    for w, A in p.terms.items():
        n = 0
        while n < min(len(w), len(prev)) and w[n] == prev[n]:
            n += 1
        del path[n + 1 :]
        for x in w[n:]:
            path.append(path[-1] @ letters[x])
        prev = w
        W = np.ascontiguousarray(np.broadcast_to(path[-1], shape))
        out += A.reshape(1, 1, c, 1, c, 1) * W.reshape(1, S, 1, d, 1, d)
    return out.reshape(*shape[:-2], c * d, c * d)


#: Cap on c * d_max in positivity sampling, to keep each sampled p(U) desk-scale.
SAMPLE_DIM_CAP = 1024

#: Matrix entries drawn and evaluated at once by positivity sampling.
_SAMPLE_CHUNK = 1 << 18


def sample_positivity(
    p: NcPolynomial, trials: int = 200, d_max: int = 3, seed: int = 0
) -> float:
    """Least eigenvalue of p(U) over seeded Haar-random unitary tuples.

    A clearly negative return certifies that p is not positive; a
    nonnegative return is evidence only.  Dimensions are drawn uniformly
    from 1..d_max.  The trials are drawn one after another, each as its
    dimension d and then one normal draw of shape (m, 2, d, d), the real and
    imaginary parts of m Ginibre matrices: the same stream as m calls of
    :func:`haar_unitary`.  A bounded number of entries at a time, each
    dimension's draws get one stacked QR and are evaluated as one stack;
    the minimum is taken in trial order.
    """
    if trials < 1:
        raise ValueError(f"positivity sampling needs at least one trial, got {trials}")
    if d_max < 1:
        raise ValueError(f"positivity sampling needs d_max >= 1, got {d_max}")
    n = p.c * d_max
    if n > SAMPLE_DIM_CAP:
        raise ValueError(
            f"--dmax {d_max} makes p(U) up to {n} x {n}, above the cap of "
            f"{SAMPLE_DIM_CAP} on c * d_max"
        )
    if not p.is_hermitian():
        raise ValueError("positivity sampling needs a Hermitian polynomial")
    m = p.ctx.m
    rng = np.random.default_rng(seed)
    chunk = max(1, _SAMPLE_CHUNK // ((m + p.c * p.c) * d_max * d_max))
    worst = np.inf
    for start in range(0, trials, chunk):
        dims, draws = [], []
        for _ in range(min(chunk, trials - start)):
            dims.append(int(rng.integers(1, d_max + 1)))
            draws.append(rng.normal(size=(m, 2, dims[-1], dims[-1])))
        mins = np.empty(len(dims))
        for d in set(dims):
            sel = [t for t, e in enumerate(dims) if e == d]
            G = np.stack([draws[t] for t in sel], axis=1)  # (m, trials, 2, d, d)
            M = eval_unitaries(p, list(unitary_part(G[:, :, 0] + 1j * G[:, :, 1])))
            mins[sel] = np.linalg.eigvalsh((M + M.conj().swapaxes(-1, -2)) / 2.0).min(axis=-1)
        worst = min(worst, *mins.tolist())
    return worst


@dataclass(frozen=True)
class SosCertificate:
    """A factorization p = q* q: Gram matrix, factor rows, and its residual."""

    index: tuple[Word, ...]
    m: int
    c: int
    gram: np.ndarray
    factors: dict[Word, np.ndarray]
    residual: float
    iterations: int

    @property
    def rank(self) -> int:
        return next(iter(self.factors.values())).shape[0]


@dataclass(frozen=True)
class InfeasibleReport:
    """No certificate found: distance between the cone and the affine set at the stop.

    With a ``witness`` it is a disproof of positivity: ``witness`` is the PSD
    Gram matrix [phi'(s^-1 t)] over the Gram index of a function phi' on
    S_2h, and ``separation`` = <p, phi'> is negative beyond its rounding
    bound.  When the iteration budget ran out both are None, and the report
    is not a disproof; pair it with :func:`sample_positivity` for negative
    evidence.
    """

    gap: float
    affine_residual: float
    psd_residual: float
    iterations: int
    witness: np.ndarray | None = None
    separation: float | None = None


class _GramProblem:
    """Vectorized block-sum machinery for the Gram feasibility search.

    The Gram ``index`` S_h, h = ceil(deg p / 2), is the first ``ends[h]``
    words of a :class:`WordIndex` of S_2h, which numbers every difference
    s^-1 t of it; the classes of the words of S_2h beyond deg p sum to 0.
    ``entry`` gives, for each entry of G, its slot ``(id * c + a) * c + b``
    among the flattened class sums: entry (a, b) of the block at the pair
    (s, t) of index words adds to entry (a, b) of the sum for the word id of
    s^-1 t.  ``targets`` and ``counts`` are flat over the same slots.
    """

    def __init__(self, p: NcPolynomial):
        c, h = p.c, (p.degree + 1) // 2
        words = WordIndex(p.ctx, 2 * h)
        N = words.ends[h]
        self.index = words.words[:N]
        ar, ids = np.arange(c), np.arange(N)
        table = words.diffs(ids, ids)
        entry = (table[:, None, :, None] * c + ar[:, None, None]) * c + ar
        self.entry = entry.reshape(N * c, N * c)
        self.parts = (2 * self.entry.reshape(-1, 1) + np.arange(2)).reshape(-1)
        targets = np.zeros((words.size, c, c), dtype=complex)
        for w, A in p.terms.items():
            targets[words.ids[w]] = A
        self.targets = targets.reshape(-1)
        self.counts = np.bincount(self.entry.reshape(-1), minlength=self.targets.size).astype(float)
        self.inv = words.inv[: words.size]
        self.c = c
        self.size = N * c

    def class_sums(self, G: np.ndarray) -> np.ndarray:
        """The flat class sums of a C-ordered complex G, each slot added up in row-major
        order of G, by one ``np.bincount`` over its interleaved real view (``parts``)."""
        return np.bincount(self.parts, G.view(float).reshape(-1), 2 * self.targets.size).view(complex)

    def residual(self, G: np.ndarray) -> np.ndarray:
        """The class sums of G minus the targets, flat over the slots."""
        return self.class_sums(G) - self.targets

    def affine_project(self, G: np.ndarray) -> np.ndarray:
        out = G - (self.residual(G) / self.counts)[self.entry]
        return (out + out.conj().T) / 2.0

    def separating_witness(self, F: np.ndarray) -> tuple[np.ndarray, float] | None:
        """A PSD Gram matrix of a function phi' on S_2h with <p, phi'> < 0, or None.

        F is the :meth:`residual` of the PSD iterate Y.  ``affine_project(Y)``
        subtracts one correction per slot, so Y minus it is the Gram matrix D
        of phi = F / counts, taken Hermitian.  Adding tau = max(0, -lambda_min(D))
        plus the margin size * eps * ||D|| (the eigenvalue rounding) at e makes
        it PSD; the pairing <p, phi'> = Re sum conj(phi') targets must then lie
        below -(slots + 2) * eps * sum |conj(phi') targets|, its rounding bound.
        """
        c, eps = self.c, np.finfo(float).eps
        phi = (F / self.counts).reshape(-1, c, c)
        phi = (phi + phi[self.inv].conj().swapaxes(1, 2)) / 2.0
        w = np.linalg.eigvalsh(phi.reshape(-1)[self.entry])
        norm = max(-w[0], w[-1], 0.0)
        phi[0] += (max(0.0, -w[0]) + self.size * eps * norm) * np.eye(c)  # id 0 is e
        flat = phi.reshape(-1)
        terms = flat.conj() * self.targets
        separation = float(terms.sum().real)
        if separation >= -(terms.size + 2) * eps * float(np.abs(terms).sum()):
            return None
        return flat[self.entry], separation

    def affine_gap(self, F: np.ndarray) -> float:
        """The largest spectral norm of one class's block of the :meth:`residual` F."""
        return float(np.linalg.norm(F.reshape(-1, self.c, self.c), 2, axis=(1, 2)).max())

    def stacked_residual(self, B: np.ndarray) -> tuple[np.ndarray, float]:
        """The residual of B* B, and its norm stacked over all classes."""
        F = self.residual(B.conj().T @ B)
        return F, float(np.sqrt(np.vdot(F, F).real))

    def jac_product(self, B: np.ndarray, V: np.ndarray) -> np.ndarray:
        """J V: the class sums of B* V + V* B, the derivative of those of B* B along V."""
        M = B.conj().T @ V
        return self.class_sums(M + M.conj().T)

    def jac_adjoint(self, B: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """J^T rho = B (R + R*), R = rho[entry]: the adjoint of :meth:`jac_product`
        under the real inner product Re sum conj(x) y, as Re tr(R* B* V) = <B R, V>."""
        R = rho[self.entry]
        return B @ (R + R.conj().T)


def _gauss_newton_polish(prob: _GramProblem, B0: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Solve the coefficient equations on a fixed-rank Gram factor.

    At most 40 steps of damped Gauss-Newton on B (real and imaginary parts
    as unknowns); returns the improved factor and its stacked residual.
    G = B* B stays PSD by construction, so a small enough residual
    certifies success.  Each step solves J dB = -F in least squares by CGLS
    (Hestenes-Stiefel) on :meth:`_GramProblem.jac_product` and its adjoint,
    with the unknowns scaled by the norms of B's rows (a zero row stays
    unscaled): at most 200 CG steps, to ||J^T r||^2 <= eps ||J^T F||^2 or a
    direction P with J P = 0.  A step that 25 halvings cannot make decrease
    the residual ends the attempt with the factor reached so far.
    """
    B = B0.copy()
    F, res = prob.stacked_residual(B)
    for _ in range(40):
        if res <= tol:
            break
        norms = np.sqrt((np.abs(B) ** 2).sum(axis=1, keepdims=True))
        scale = np.where(norms > 0.0, norms, 1.0)
        Bs, X, r = B / scale, np.zeros_like(B), -F
        P = s = prob.jac_adjoint(Bs, r)
        gamma = np.vdot(s, s).real
        stop = np.finfo(float).eps * gamma
        for _ in range(200):
            if gamma <= stop:
                break
            q = prob.jac_product(Bs, P)
            delta = np.vdot(q, q).real
            if delta == 0.0:
                break
            alpha = gamma / delta
            X += alpha * P
            r = r - alpha * q
            s = prob.jac_adjoint(Bs, r)
            gamma, last = np.vdot(s, s).real, gamma
            P = s + (gamma / last) * P
        dB = X / scale
        for step in 0.5 ** np.arange(25):
            Bn = B + step * dB
            Fn, rn = prob.stacked_residual(Bn)
            if rn < res:
                B, F, res = Bn, Fn, rn
                break
        else:
            break
    return B, res


def _certificate(prob, m, B, iterations) -> SosCertificate:
    c = prob.c
    drop = np.abs(B).max(axis=1, initial=0.0) > 0.0
    B = B[drop]
    gram = B.conj().T @ B
    factors = {w: B[:, i * c : (i + 1) * c].copy() for i, w in enumerate(prob.index)}
    return SosCertificate(
        index=tuple(prob.index),
        m=m,
        c=c,
        gram=gram,
        factors=factors,
        residual=prob.affine_gap(prob.residual(gram)),
        iterations=iterations,
    )


def factor_sos(
    p: NcPolynomial,
    tol: float = RESIDUAL_TOL,
    max_iter: int = 20_000,
) -> SosCertificate | InfeasibleReport:
    """Search for a sum-of-squares certificate p = q* q.

    Dykstra's alternating projections run between the PSD cone and the
    affine set of Gram matrices with the right coefficient sums, with a
    gap check at iteration 1, then every 25 iterations and at the last.
    At a check where both gaps are at most tol / 10, the PSD iterate is
    factored by :func:`~freepd.linalg.gram_factor` (rank cut ``RANK_EPS``),
    and the factor is returned when its residual is at most ``tol``.  Then the search
    reads the separating witness of :meth:`_GramProblem.separating_witness`
    and, when it proves p not positive, returns an :class:`InfeasibleReport`
    carrying it at once; otherwise, at the first check and then whenever the
    affine gap is at most half the gap of the last attempt, up to 12 times in
    all, a Gauss-Newton solve is attempted on low-rank factors seeded from the
    PSD iterate.  The first check often settles the search: a planted square
    is certified there by its polish, a linear polynomial that is not positive
    is stopped there by its witness.
    Success returns a certificate whose Gram matrix is PSD by construction
    and whose coefficient residual is at most ``tol``; exhaustion returns
    a report with no witness, which is NOT a proof of non-positivity.

    The Gram index is S_h, h = ceil(deg p / 2), and its differences
    number S_2h, so a polynomial whose S_2h passes the ball cap raises
    :class:`~freepd.words.BallSizeError` before any iteration: F_2 from
    degree 11, F_3 and F_4 from degree 7, F_5 from degree 5.  Under it the
    polish tries the ranks c, 2c, 2c + 1 and 3c + 1 (at most |S_h| c), each
    in the memory of the slot map.  ``tol`` must be positive and finite.
    """
    check_positive_finite(tol, "tol")
    if max_iter < 1:
        raise ValueError(f"sum-of-squares search needs max_iter >= 1, got {max_iter}")
    if not p.is_hermitian():
        raise ValueError("sum-of-squares factorization needs a Hermitian polynomial")
    c = p.c
    prob = _GramProblem(p)
    X = prob.affine_project(np.zeros((prob.size, prob.size), dtype=complex))
    correction = np.zeros_like(X)
    ladder = sorted({min(R, prob.size) for R in (c, 2 * c, 2 * c + 1, 3 * c + 1)})
    polish_budget = 12
    polished_gap = np.inf
    for it in range(1, max_iter + 1):
        Z = X + correction
        Y = _psd_clip(Z)
        correction = Z - Y
        X = prob.affine_project(Y)
        last = it == max_iter
        # the last iteration is a gap check, so the report below reads this one's figures
        if it == 1 or it % 25 == 0 or last:
            F = prob.residual(Y)
            affine_gap = prob.affine_gap(F)
            psd_gap = max(0.0, -float(np.linalg.eigvalsh(X).min()))
            if affine_gap <= tol / 10 and psd_gap <= tol / 10:
                cert = _certificate(prob, p.ctx.m, gram_factor(Y), it)
                if cert.residual <= tol:
                    return cert
            found = prob.separating_witness(F)
            if found is not None:
                break
            if polish_budget > 0 and affine_gap <= polished_gap / 2:
                polish_budget -= 1
                polished_gap = affine_gap
                w, V = np.linalg.eigh(Y)
                for R in ladder:
                    seed = np.sqrt(np.clip(w[-R:], 0.0, None))[:, None] * V[:, -R:].conj().T
                    B, res = _gauss_newton_polish(prob, seed, tol / 10)
                    if res <= tol / 10:
                        return _certificate(prob, p.ctx.m, B, it)
    witness, separation = found or (None, None)
    return InfeasibleReport(
        gap=float(np.linalg.norm(Y - X)),
        affine_residual=affine_gap,
        psd_residual=psd_gap,
        iterations=it,
        witness=witness,
        separation=separation,
    )


def split_squares(cert: SosCertificate) -> list[NcPolynomial]:
    """Slice a certificate into square polynomials with sum_j Q_j* Q_j = p.

    The factor rows are zero-padded to a multiple of c (at least c) and
    grouped c at a time, each group giving one polynomial Q_j.
    """
    c, R = cert.c, cert.rank
    rows = max(1, -(-R // c)) * c
    padded = {w: np.pad(B, ((0, rows - R), (0, 0))) for w, B in cert.factors.items()}
    ctx = GroupContext(cert.m)
    return [
        NcPolynomial(ctx, c, {w: B[g : g + c] for w, B in padded.items()})
        for g in range(0, rows, c)
    ]


def certificate_to_json(cert: SosCertificate) -> dict:
    return {
        **jsonio.header("cert.v1", GroupContext(cert.m), cert.c),
        "index": [jsonio.word_to_json(w) for w in cert.index],
        "gram": jsonio.matrix_to_json(cert.gram),
        "factors": jsonio.entries_to_json((w, cert.factors[w]) for w in cert.index),
        "residual": cert.residual,
        "iterations": cert.iterations,
    }


def certificate_from_json(doc: dict) -> SosCertificate:
    """A ``cert.v1`` document: the factor words are the index words, in index order.

    The index is not empty, and the factor blocks share one shape (R, c);
    a block written as ``[]`` reads as (0, c), the rank-0 factor.
    """
    ctx, c = jsonio.read_header(doc, "cert.v1")
    m = ctx.m
    index = tuple(jsonio.word_from_json(w, m) for w in jsonio.require(doc, "index", list))
    if not index:
        raise jsonio.SchemaError("'index' must list at least one word")
    gram = jsonio.matrix_from_json(jsonio.require(doc, "gram"), (len(index) * c,) * 2)
    factors = {
        w: B.reshape(0, c) if B.shape == (0, 0) else B
        for w, B in jsonio.entries_from_json(doc, "factors", m).items()
    }
    if tuple(factors) != index:
        raise jsonio.SchemaError("the 'factors' words must be the 'index' words, in index order")
    shapes = sorted({B.shape for B in factors.values()})
    if len(shapes) != 1 or shapes[0][1] != c:
        raise jsonio.SchemaError(f"the 'factors' blocks must share one shape (R, {c}), got {shapes}")
    return SosCertificate(
        index=index,
        m=m,
        c=c,
        gram=gram,
        factors=factors,
        residual=jsonio.finite_non_negative(doc, "residual"),
        iterations=jsonio.natural(doc, "iterations"),
    )

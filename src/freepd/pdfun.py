"""Partial positive definite functions on F_m with k x k operator values.

A :class:`PdFunction` maps words to k x k complex blocks with Phi(e) = I
and Phi(s^-1) = Phi(s)*, defined either on a ball S_n (all words of
length <= n) or on an order ideal of the class order.  Each class {s, s^-1}
takes one value, stored at its representative with the adjoint at the
inverse, so the symmetry holds by construction.

Positive definiteness means every Gram matrix [Phi(s^-1 t)] over a finite
set with pairwise differences inside the domain is PSD.  On a ball this
reduces to finitely many witness sets: the half-radius ball for even n,
and one bicentered set per generator for odd n, since a tree set of
diameter n always fits, up to translation, inside a ball or a pair of
adjacent balls of radius n//2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import jsonio
from .linalg import (
    DATA_RTOL,
    DEFAULT_TOL,
    NotPsdError,
    Tolerance,
    as_matrix,
    eig_hermitian,
    gram_factor,
    is_psd,
)
from .words import (
    E,
    ClassCursor,
    GroupContext,
    Word,
    WordIndex,
    class_rep,
    inverse,
    mul,
    reduce_word,
)


class MissingValueError(KeyError):
    """A Gram entry falls outside the function's domain."""


class DomainError(ValueError):
    """A domain unsuitable for the requested operation, or a class of it without a value."""


@dataclass(frozen=True)
class BallDomain:
    """All words of length at most n."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"ball radius must be nonnegative, got n = {self.n}")

    def class_reps(self, ctx: GroupContext) -> list[Word]:
        """The class representatives of S_n in lexicographic order."""
        index = WordIndex(ctx, self.n)
        return [index.words[i] for i in index.reps]

    def mask(self, index: WordIndex) -> np.ndarray:
        """Which ids of an index of radius at least n lie in the domain."""
        return np.arange(index.size + 1) < index.ends[self.n]

    def describe(self) -> str:
        return f"ball({self.n})"


@dataclass(frozen=True)
class IdealDomain:
    """All classes up to and including ``last`` in the class order."""

    last: ClassCursor

    @property
    def n(self) -> int:
        """The radius of the smallest ball holding the domain."""
        return self.last.length

    def mask(self, index: WordIndex) -> np.ndarray:
        """Which ids of an index of radius at least n lie in the domain."""
        return index.cls <= index.ids[self.last.rep]

    def describe(self) -> str:
        return f"ideal({self.last.rep})"


class PdFunction:
    """Partial map from words to k x k blocks with Phi(e) = I.

    ``values`` may name any set of words; each is reduced and filed under
    its class representative (a value given at a non-representative is
    adjointed into place, and conflicting duplicates are rejected).  A
    value at e different from the identity is normalized away when
    invertible, by conjugating every block with Phi(e)^(-1/2); a singular
    Phi(e) is rejected.  The values are held once, in ``table``: a read-only
    :class:`WordValues` on the index of the domain's radius.  Instances are
    immutable snapshots.
    """

    __slots__ = ("ctx", "k", "domain", "table")

    def __init__(
        self,
        ctx: GroupContext,
        k: int,
        domain: BallDomain | IdealDomain,
        values: Mapping[Word, np.ndarray],
    ):
        if k < 1:
            raise ValueError(f"block size must be positive, got {k}")
        index = WordIndex(ctx, domain.n)
        table = WordValues(index, k)
        outside = []  # the classes of words beyond the radius, named in _adopt's error
        for word, block in values.items():
            w = reduce_word(word)
            B = as_matrix(block)
            if B.shape != (k, k):
                raise ValueError(f"value at {w} has shape {B.shape}, expected {(k, k)}")
            i = index.ids.get(w)
            if i is None:
                outside.append(class_rep(w, ctx))
                continue
            c = index.cls[i]
            B = B.conj().T if index.adj[i] else B
            if table.known[c] and not np.allclose(
                table.blocks[c], B, rtol=0.0, atol=DATA_RTOL * max(1.0, np.abs(B).max())
            ):
                raise ValueError(f"conflicting values for the class of {index.words[c]}")
            table.blocks[c], table.known[c] = B, True
        self._adopt(ctx, k, domain, table, outside)

    @classmethod
    def _of_table(cls, ctx: GroupContext, k: int, domain, table: "WordValues") -> "PdFunction":
        """The function of the class values a table knows; its index has radius ``domain.n``.

        The table is taken over, not copied, and goes through the same
        normalization, domain checks and freezing as the constructor's own.
        """
        phi = object.__new__(cls)
        phi._adopt(ctx, k, domain, table, [])
        return phi

    def _adopt(self, ctx, k, domain, table, outside):
        """Normalize Phi(e), check the domain, write the adjoints and freeze the table."""
        index = table.index
        if not table.known[0]:  # id 0 is e
            raise ValueError("a value at the unit word is required")
        reps = np.flatnonzero(table.known & ~index.adj)
        unit = table.blocks[0]
        if not np.allclose(unit, np.eye(k), rtol=0.0, atol=DATA_RTOL):
            table.blocks[reps] = _normalize_unit(table.blocks[reps], unit)
        table.blocks[0] = np.eye(k)
        mask = domain.mask(index)
        missing = np.flatnonzero(mask & ~table.known & ~index.adj)
        if missing.size:
            raise DomainError(
                f"domain {domain.describe()} needs a value at {index.words[missing[0]]} "
                f"({missing.size} classes missing)"
            )
        extra = np.flatnonzero(table.known & ~mask)
        if extra.size or outside:
            first = index.words[extra[0]] if extra.size else min(outside, key=ctx.sort_key)
            raise ValueError(f"value at {first} lies outside domain {domain.describe()}")
        table.put(reps, table.blocks[reps])
        table.blocks.flags.writeable = table.known.flags.writeable = False
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, value):
        raise AttributeError("PdFunction is immutable")

    def value(self, word: Word) -> np.ndarray:
        """Phi at a word, as a read-only view into the table."""
        w = reduce_word(word)
        i = self.table.index.ids.get(w, self.table.index.size)
        if not self.table.known[i]:
            raise MissingValueError(f"no value at {w}: outside domain {self.domain.describe()}")
        return self.table.blocks[i]

    def with_class_value(self, cursor: ClassCursor, block: np.ndarray) -> "PdFunction":
        """New snapshot extended by one class; the domain grows to its ideal."""
        if cursor.ctx != self.ctx:
            raise ValueError("cursor context does not match the function")
        values = self.table.by_class()
        values[cursor.rep] = as_matrix(block)
        return PdFunction(self.ctx, self.k, IdealDomain(cursor), values)

    def restricted_to_ball(self, n: int) -> "PdFunction":
        """Restriction to S_n (which must lie inside the current domain)."""
        domain = BallDomain(n)
        table = WordValues(WordIndex(self.ctx, n), self.k)
        # the ids of a smaller ball are the first ids of a larger one; past
        # this table's ball they read its sentinel id, which is never known
        reps = table.index.reps
        ids = np.minimum(reps, self.table.index.size)
        table.blocks[reps], table.known[reps] = self.table.blocks[ids], self.table.known[ids]
        return PdFunction._of_table(self.ctx, self.k, domain, table)

    def ball_radius(self) -> int:
        if not isinstance(self.domain, BallDomain):
            raise DomainError(f"expected a ball domain, got {self.domain.describe()}")
        return self.domain.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, PdFunction):
            return NotImplemented
        # equal domains give equal indexes, and unknown blocks are zero in both
        return (
            self.ctx == other.ctx
            and self.k == other.k
            and self.domain == other.domain
            and np.array_equal(self.table.blocks, other.table.blocks)
        )

    def to_json_dict(self) -> dict:
        """The ``pdfun.v1`` document; entries sorted for byte-stable output."""
        if not isinstance(self.domain, BallDomain):
            raise DomainError("only ball domains serialize to pdfun.v1")
        return {
            **jsonio.header("pdfun.v1", self.ctx, self.k),
            "domain": {"type": "ball", "n": self.domain.n},
            "entries": jsonio.entries_to_json(self.table.by_class().items()),
        }


def _normalize_unit(blocks: np.ndarray, unit: np.ndarray) -> np.ndarray:
    w, V = eig_hermitian(unit)
    if w[-1] <= DATA_RTOL * max(1.0, w[0]):
        raise NotPsdError(
            "the value at the unit word is singular or indefinite; "
            "cannot normalize to the identity"
        )
    inv_sqrt = (V / np.sqrt(w)) @ V.conj().T
    return inv_sqrt @ blocks @ inv_sqrt


def pdfunction_from_json(doc: dict) -> PdFunction:
    """Parse a ``pdfun.v1`` document."""
    ctx, k = jsonio.read_header(doc, "pdfun.v1")
    dom = jsonio.require(doc, "domain")
    if not (isinstance(dom, dict) and dom.get("type") == "ball" and type(dom.get("n")) is int):
        raise jsonio.SchemaError(f"unsupported domain {dom!r}")
    values = jsonio.entries_from_json(doc, "entries", ctx.m, (k, k))
    try:
        return PdFunction(ctx, k, BallDomain(dom["n"]), values)
    except ValueError as exc:
        raise jsonio.SchemaError(str(exc)) from exc


@dataclass(frozen=True)
class GramMatrix:
    """Blocked Gram matrix [Phi(s^-1 t)] over an ordered index set."""

    index: tuple[Word, ...]
    k: int
    blocks: np.ndarray


class WordValues:
    """Blocks at the words of a :class:`WordIndex`, with a mask of the known ones.

    Both members of a class are written together, the adjoint formed once at
    the inverse, so a Gram window is one gather from ``blocks``.  Nothing is
    known at first, and the sentinel id never is.
    """

    def __init__(self, index: WordIndex, k: int):
        self.index = index
        self.blocks = np.zeros((index.size + 1, k, k), dtype=complex)
        self.known = np.zeros(index.size + 1, dtype=bool)

    def put(self, ids, blocks: np.ndarray):
        """Set the values at class representatives, and their adjoints at the inverses.

        ``ids`` is one id with one block, or an array of ids with a stack of blocks.
        """
        inv = self.index.inv[ids]
        # the adjoints first, so that e, its own inverse, keeps its value as given
        self.blocks[inv] = blocks.conj().swapaxes(-1, -2)
        self.blocks[ids] = blocks
        self.known[ids] = self.known[inv] = True

    def by_class(self) -> dict[Word, np.ndarray]:
        """The known values at class representatives, in lexicographic order."""
        reps = np.flatnonzero(self.known & ~self.index.adj)
        return {self.index.words[i]: self.blocks[i] for i in reps}

    def gram_blocks(self, ids, words: Sequence[Word] | None = None) -> np.ndarray:
        """The blocked matrix [Phi(s^-1 t)] over the words with these ids.

        A 2-d array of ids, one row per window, gives a stack of them.  A value
        that is not known raises :class:`MissingValueError` naming the first
        offending pair, row by row, among ``words`` (by default the words of
        the ids).
        """
        ids = np.asarray(ids, dtype=np.intp)
        table = self.index.diffs(ids, ids)
        missing = ~self.known[table]
        if missing.any():
            *window, i, j = np.argwhere(missing)[0]
            if words is None:
                words = [self.index.words[u] for u in ids[tuple(window)]]
            raise _missing_pair(words, i, j)
        *stack, N = ids.shape
        k = self.blocks.shape[1]
        return self.blocks[table].swapaxes(-3, -2).reshape(*stack, N * k, N * k)


def _missing_pair(words: Sequence[Word], i: int, j: int) -> MissingValueError:
    x = mul(inverse(words[i]), words[j])
    return MissingValueError(
        f"gram entry ({words[i]}, {words[j]}) needs a value at {x}, outside the domain"
    )


def gram(phi: PdFunction, S: Sequence[Word]) -> GramMatrix:
    """The Gram matrix of phi over S; raises naming the offending pair.

    S is first translated by S[0]^-1, which leaves every s^-1 t unchanged and
    brings the set into the ball of phi's table when its differences lie there.
    """
    words = [reduce_word(s) for s in S]
    values = phi.table
    index = values.index
    moved = [mul(inverse(words[0]), w) for w in words] if words and words[0] != E else words
    ids = [index.ids.get(w, index.size) for w in moved]
    row = values.known[ids]  # row 0 of the window: Phi(S[0]^-1 s) is the value at the moved s
    if not row.all():
        raise _missing_pair(words, 0, int(np.argmin(row)))
    return GramMatrix(index=tuple(words), k=phi.k, blocks=values.gram_blocks(ids, words))


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a positivity check: worst witness set and its least eigenvalue."""

    ok: bool
    min_eigenvalue: float
    witness: tuple[Word, ...]

    def __bool__(self) -> bool:
        return self.ok


def _witness_sets(phi: PdFunction) -> list[list[Word]]:
    n, ctx, index = phi.ball_radius(), phi.ctx, phi.table.index
    inner = index.words[: index.ends[n // 2]]
    if n % 2 == 0:
        return [inner]
    merged = ({*inner, *(mul((i,), w) for w in inner)} for i in ctx.generators())
    return [sorted(S, key=ctx.sort_key) for S in merged]


def verify_pd(phi: PdFunction, tol: Tolerance = DEFAULT_TOL) -> VerifyResult:
    """Decide positive definiteness of phi on its ball domain.

    For even n = 2h it suffices that the Gram matrix of the radius-h ball
    is PSD; for odd n = 2h + 1, one bicentered set per generator is
    checked.  Any tree set with diameter <= n embeds in one of these up
    to translation, and translation leaves Gram matrices unchanged, so
    the finite family is exact.  Returns the worst set with its least
    eigenvalue.
    """
    worst = np.inf
    worst_set: tuple[Word, ...] = ()
    ok = True
    for S in _witness_sets(phi):
        A = gram(phi, S).blocks
        w = np.linalg.eigvalsh((A + A.conj().T) / 2.0)
        if w.min() < worst:
            worst = float(w.min())
            worst_set = tuple(S)
        if w.min() < tol.psd_floor(w):
            ok = False
    return VerifyResult(ok=ok, min_eigenvalue=worst, witness=worst_set)


def toeplitz_of(phi: PdFunction, n: int | None = None) -> GramMatrix:
    """The Gram matrix of phi over S_n, for phi defined on S_2n.

    Its (s, t) block depends only on s^-1 t, so it is Toeplitz in the
    free-group sense; :func:`function_of_toeplitz` inverts the map.
    """
    radius = phi.ball_radius()
    if n is None:
        n = radius // 2
    if n < 0:
        raise ValueError("ball radius must be nonnegative")
    if 2 * n > radius:
        raise DomainError(f"needs values on S_{2 * n}, but the domain is S_{radius}")
    index = phi.table.index
    return gram(phi, index.words[: index.ends[n]])


def function_of_toeplitz(
    M: GramMatrix, ctx: GroupContext, tol: Tolerance = DEFAULT_TOL
) -> PdFunction:
    """The positive definite function on S_2n encoded by a PSD Toeplitz matrix over S_n.

    Phi(x) is read off the first pair (s, t) of the index, row by row, with
    s^-1 t = x; every x of length <= 2n has one, and the Toeplitz property
    makes the choice irrelevant.  Non-Toeplitz input is rejected naming the
    violating pair of index pairs, non-PSD input is rejected.
    """
    index = list(M.index)
    n = max((len(w) for w in index), default=0)
    words = WordIndex(ctx, 2 * n)
    if sorted(index, key=ctx.sort_key) != words.words[: words.ends[n]]:
        raise ValueError(f"index set is not the ball S_{n}")
    scale = max(1.0, np.abs(M.blocks).max(initial=0.0))
    N, k = len(index), M.k
    ids = [words.ids[w] for w in index]
    flat = words.diffs(ids, ids).reshape(-1)
    first = np.unique(flat, return_index=True)[1]  # by word id: each id of S_2n occurs
    blocks = M.blocks.reshape(N, k, N, k).transpose(0, 2, 1, 3).reshape(N * N, k, k)
    bad = np.flatnonzero(np.abs(blocks - blocks[first[flat]]).max(axis=(1, 2)) > DATA_RTOL * scale)
    if bad.size:
        x = flat[bad[0]]
        (a, b), (i, j) = divmod(first[x], N), divmod(bad[0], N)
        raise ValueError(
            f"not Toeplitz: blocks at ({index[a]}, {index[b]}) and "
            f"({index[i]}, {index[j]}) differ although both index {words.words[x]}"
        )
    if not is_psd(M.blocks, tol):
        raise NotPsdError("the Toeplitz matrix is not positive semidefinite")
    table = WordValues(words, k)
    table.blocks[words.reps], table.known[words.reps] = blocks[first[words.reps]], True
    return PdFunction._of_table(ctx, k, BallDomain(2 * n), table)


def kolmogorov(phi: PdFunction, n: int | None = None) -> dict[Word, np.ndarray]:
    """Finite Kolmogorov data: columns omega_s with omega_s* omega_t = Phi(s^-1 t).

    Factors the Gram matrix over S_n (phi must be defined on S_2n and
    positive there); the returned blocks have rank(Gram) rows each.
    """
    M = toeplitz_of(phi, n)
    W = gram_factor(M.blocks, DEFAULT_TOL)
    k = phi.k
    return {w: W[:, i * k : (i + 1) * k] for i, w in enumerate(M.index)}


def radialize(phi: PdFunction) -> PdFunction:
    """Average phi over each sphere: the radial envelope with the same domain.

    The mean over words of length j is Hermitian because spheres are
    closed under inversion; radial inputs are fixed points.  Positivity
    is preserved (radializing any positive definite extension restricts
    to this function).
    """
    n = phi.ball_radius()
    index = phi.table.index
    table = WordValues(index, phi.k)
    bounds = [0, *index.ends]  # the ids of sphere j run from bounds[j] to bounds[j + 1]
    for j in range(n + 1):
        blocks = phi.table.blocks[bounds[j] : bounds[j + 1]]
        # centered mean: exact on radial input, better conditioned in general;
        # symmetrized so the stored block is Hermitian to the last bit
        mean = blocks[0] + np.mean(blocks - blocks[0], axis=0)
        table.blocks[bounds[j] : bounds[j + 1]] = (mean + mean.conj().T) / 2.0
    table.known[: index.size] = True
    return PdFunction._of_table(phi.ctx, phi.k, BallDomain(n), table)

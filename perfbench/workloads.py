"""The benchmark's workloads: seeded inputs, a fixed round of CLI calls, and checks.

Each workload class builds its input files from the seed in ``__init__``
(part of set-up) and defines ``round``, which makes the same program calls
and the same checks every time.  Program calls go through
``freepd.cli.main`` in-process; only their wall time counts as solve time.
"""

from __future__ import annotations

import contextlib
import io
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from checks import ball_words, class_rep, read_json

#: Factorization tolerance passed to ``factor`` and used by its checks.
SOS_TOL = 1e-6


class Ops:
    """Runs operations (program calls and checks) and counts attempts and failures by kind."""

    def __init__(self, main, tracer=None):
        self.main = main
        self.tracer = tracer
        self.counts: dict[str, list[int]] = {}
        self.failures: list[str] = []
        self.program_s = 0.0

    def _record(self, kind: str, ok: bool, reason: str = ""):
        entry = self.counts.setdefault(kind, [0, 0])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            if len(self.failures) < 20:
                self.failures.append(f"{kind}: {reason}")

    def cli(self, *argv, expect: int = 0) -> tuple[str, str] | None:
        """One ``freepd`` command; returns (stdout, stderr), or None when it failed."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is None:
                    code = self.main(argv)
                else:
                    code = self.tracer.call(argv[0], self.main, argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash of the program is a failed operation, not the end of the run
            self.program_s += time.perf_counter() - t0
            self._record(f"cli.{argv[0]}", False, traceback.format_exc(limit=3))
            return None
        self.program_s += time.perf_counter() - t0
        ok = code == expect
        self._record(f"cli.{argv[0]}", ok, f"exit {code}, expected {expect}: {err.getvalue()[:300]}")
        return (out.getvalue(), err.getvalue()) if ok else None

    def check(self, kind: str, fn, *args):
        try:
            fn(*args)
        except Exception as exc:  # includes CheckFailed, and any output too broken to parse
            self._record(f"check.{kind}", False, f"{type(exc).__name__}: {exc}")
        else:
            self._record(f"check.{kind}", True)


def _default_order(m: int) -> list[int]:
    return [x for i in range(1, m + 1) for x in (i, -i)]


def _contraction(rng: np.random.Generator, k: int, norm: float) -> np.ndarray:
    G = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return G * (norm / np.linalg.norm(G, 2))


def _random_s2(rng: np.random.Generator, m: int, k: int) -> dict[tuple, np.ndarray]:
    """A positive definite function on S_2: small off-unit blocks keep Gram(S_1) dominant."""
    scale = 0.4 / (2 * m)
    order = _default_order(m)
    values = {(): np.eye(k, dtype=complex)}
    for w in sorted({class_rep(w, order) for w in ball_words(m, 2)} - {()}):
        V = _contraction(rng, k, rng.uniform(0.5, 1.0) * scale)
        values[w] = V
        values[checks.inverse(w)] = V.conj().T
    return values


def _ball_in_order(m: int, n: int) -> list[tuple]:
    """S_n sorted by length, then by the default letter order (freepd's ``ball`` order)."""
    rank = {x: i for i, x in enumerate(_default_order(m))}
    return sorted(ball_words(m, n), key=lambda w: (len(w), [rank[x] for x in w]))


class Central:
    """``extend --central``, ``check-ortho`` at every level, ``verify``.

    Quasi-multiplicative inputs on S_1 (F_2 k=2 to S_5, F_3 k=1 to S_4)
    and one random S_2 function on F_2 with k=2 extended to S_5 under two
    letter orders.
    """

    ORDERS = ([1, -1, 2, -2], [2, -1, -2, 1])

    def __init__(self, rng: np.random.Generator, indir: Path):
        self.items = []  # (name, input file, radius n, target N, generator blocks or None)
        for m, k, N in ((2, 2, 5), (3, 1, 4)):
            blocks = [_contraction(rng, k, rng.uniform(0.4, 0.8)) for _ in range(m)]
            values = {w: checks.quasi_mult_value(blocks, w) for w in ball_words(m, 1)}
            path = indir / f"qm_m{m}_k{k}.json"
            checks.write_json(path, checks.pdfun_doc(m, k, 1, _default_order(m), values))
            self.items.append((f"qm_m{m}_k{k}", path, 1, N, blocks))
        values = _random_s2(rng, 2, 2)
        for i, order in enumerate(self.ORDERS):
            path = indir / f"random_order{i}.json"
            checks.write_json(path, checks.pdfun_doc(2, 2, 2, order, values))
            self.items.append((f"random_order{i}", path, 2, 5, None))

    def round(self, ops: Ops, outdir: Path):
        for name, path, n, N, blocks in self.items:
            out = outdir / f"{name}_ext.json"
            ops.cli("extend", path, "--to", N, "--central", "-o", out)
            for level in range(n, N):
                res = ops.cli("check-ortho", out, "--level", level)
                ops.check("ortho_ok", lambda r: checks.check_report(r[0]), res)
            res = ops.cli("verify", out)
            ops.check("verify_ok", lambda r: checks.check_report(r[0]), res)
            ops.check("gram_psd", lambda p: checks.check_psd(read_json(p)), out)
            if blocks is not None:
                ops.check(
                    "quasi_mult", lambda p, b: checks.check_quasi_mult(read_json(p), b), out, blocks
                )
        ops.check(
            "letter_order",
            lambda a, b: checks.check_same_values(read_json(a), read_json(b)),
            outdir / "random_order0_ext.json",
            outdir / "random_order1_ext.json",
        )


class Replay:
    """Random-oracle extension with a trace, parameter extraction, replay, ``verify``.

    Random k=2 S_2 functions on F_2 extended to S_4, plus one zero-parameter
    item whose replay must reproduce the ``--central`` file byte for byte.
    """

    ITEMS = 6

    def __init__(self, rng: np.random.Generator, indir: Path):
        self.items = []  # (input file, oracle seed)
        for i in range(self.ITEMS + 1):
            path = indir / f"random_{i}.json"
            checks.write_json(path, checks.pdfun_doc(2, 2, 2, _default_order(2), _random_s2(rng, 2, 2)))
            self.items.append((path, int(rng.integers(0, 2**31))))

    def round(self, ops: Ops, outdir: Path):
        *random_items, (zero_input, _) = self.items
        for i, (path, seed) in enumerate(random_items):
            ext, trace, params, replay = (
                outdir / f"{i}_{part}.json" for part in ("ext", "trace", "params", "replay")
            )
            ops.cli("extend", path, "--to", 4, "--random-oracle", "--seed", seed, "--trace", trace, "-o", ext)
            ops.cli("params", ext, "--from", 2, "-o", params)
            ops.cli("extend", path, "--to", 4, "--params", params, "-o", replay)
            for out in (ext, replay):
                res = ops.cli("verify", out)
                ops.check("verify_ok", lambda r: checks.check_report(r[0]), res)
                ops.check("gram_psd", lambda p: checks.check_psd(read_json(p)), out)
            ops.check("params", lambda a, b: checks.check_params(read_json(a), read_json(b)), trace, params)
            for out in (ext, trace, params, replay):
                ops.check("reserializes", checks.check_reserializes, out)
        central, zero_params, replay = (
            outdir / f"zero_{part}.json" for part in ("ext", "params", "replay")
        )
        ops.cli("extend", zero_input, "--to", 4, "--central", "-o", central)
        ops.cli("params", central, "--from", 2, "-o", zero_params)
        ops.cli("extend", zero_input, "--to", 4, "--params", zero_params, "-o", replay)
        ops.check("zero_replay_bytes", checks.check_same_bytes, central, replay)
        ops.check("gram_psd", lambda p: checks.check_psd(read_json(p)), central)
        for out in (central, zero_params, replay):
            ops.check("reserializes", checks.check_reserializes, out)


def _haar_unitary(rng: np.random.Generator, c: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)))
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def _symmetric_image(rng: np.random.Generator, m: int, q: dict[tuple, np.ndarray]) -> dict:
    """q under a random symmetry of the factorization problem for q* q.

    Relabels a_i as a_pi(i)^(+-1), multiplies each coefficient by a
    character of F_m (unimodular phases on the generators) and changes the
    coefficient basis by a Haar unitary W.  The Gram feasibility problem
    of the image is the original conjugated by a unitary, so the factor
    search does the same work on it.
    """
    c = next(iter(q.values())).shape[0]
    perm = rng.permutation(m) + 1
    sign = rng.choice((-1, 1), size=m)
    phase = np.exp(2j * np.pi * rng.uniform(size=m))
    W = _haar_unitary(rng, c)
    out = {}
    for w, B in q.items():
        image = tuple(int(np.sign(x) * sign[abs(x) - 1] * perm[abs(x) - 1]) for x in w)
        chi = np.prod([phase[abs(x) - 1] if x > 0 else np.conj(phase[abs(x) - 1]) for x in image])
        out[image] = chi * B @ W
    return out


class Sos:
    """``factor`` then ``sample`` on planted squares; ``factor`` refusals on indefinite items.

    Planted: p = q* q with q of degree 1 and normal complex c x c
    coefficients, drawn as in ``acceptance_10`` (numpy generator seeded
    3000 + i, c = 1 for even i and 2 for odd i, over F_2) and one F_3
    square with c = 1 (seeded 3100).  The workload seed presents each under
    a random symmetry (:func:`_symmetric_image`): fresh random squares would
    make the factor work of a round vary several-fold from seed to seed
    (12 to 57 Gauss-Newton steps per item), far beyond any useful bound.
    Member 1 is left out: its first polish sits on the factor search's
    gate and starts at iteration 200 or 400 depending on rounding.
    Indefinite: p = a0 + sum_i (c_i X_i + conj(c_i) X_i*) over F_2 with
    a0 < 2 sum |c_i|, negative at the scalars X_i = -conj(c_i)/|c_i|; they
    run the full 20,000-iteration budget whatever their coefficients.
    """

    PLANTED = ((2, 3000), (2, 3002), (2, 3003), (2, 3004), (2, 3005), (3, 3100))
    INDEFINITE = 2

    def __init__(self, rng: np.random.Generator, indir: Path):
        self.planted = []  # (input file, terms of p, sample seed)
        for i, (m, base) in enumerate(self.PLANTED):
            c = 1 if base % 2 == 0 else 2
            base_rng = np.random.default_rng(base)
            q = {
                w: base_rng.normal(size=(c, c)) + 1j * base_rng.normal(size=(c, c))
                for w in _ball_in_order(m, 1)
            }
            terms = checks.square(_symmetric_image(rng, m, q))
            path = indir / f"planted_{i}.json"
            checks.write_json(path, checks.ncpoly_doc(m, c, terms))
            self.planted.append((path, terms, int(rng.integers(0, 2**31))))
        self.indefinite = []  # (input file, terms of p, witness scalars)
        for i in range(self.INDEFINITE):
            coef = [
                rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()) for _ in range(2)
            ]
            a0 = rng.uniform(0.0, 0.5) * 2 * sum(abs(z) for z in coef)
            terms = {(): np.array([[a0]], dtype=complex)}
            for gen, z in enumerate(coef, start=1):
                terms[(gen,)] = np.array([[z]])
                terms[(-gen,)] = np.array([[np.conj(z)]])
            path = indir / f"indefinite_{i}.json"
            checks.write_json(path, checks.ncpoly_doc(2, 1, terms))
            self.indefinite.append((path, terms, [-np.conj(z) / abs(z) for z in coef]))

    def round(self, ops: Ops, outdir: Path):
        for i, (path, terms, seed) in enumerate(self.planted):
            cert = outdir / f"planted_{i}_cert.json"
            ops.cli("factor", path, "-o", cert, "--tol", SOS_TOL)
            ops.check(
                "certificate",
                lambda p, t: checks.check_certificate(read_json(p), t, SOS_TOL),
                cert,
                terms,
            )
            res = ops.cli("sample", path, "--trials", 200, "--dmax", 3, "--seed", seed)
            ops.check("sample_nonnegative", lambda r: checks.check_sample(r[0]), res)
        for i, (path, terms, z) in enumerate(self.indefinite):
            res = ops.cli("factor", path, "-o", outdir / f"indefinite_{i}_cert.json", "--tol", SOS_TOL, expect=1)
            ops.check("refusal", lambda r: checks.check_refusal(r[1]), res)
            ops.check("negative_witness", checks.check_negative_at, terms, z)


WORKLOADS = {"central": Central, "replay": Replay, "sos": Sos}

"""Checks of freepd's output files that share no code with freepd.

Word arithmetic, Gram assembly, the quasi-multiplicative product, the
parameter comparison and the sum-of-squares residual are recomputed here
from the JSON files alone, with numpy for the linear algebra.  Every check
raises :class:`CheckFailed` with a reason; returning means it passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, reason: str):
    if not condition:
        raise CheckFailed(reason)


# -- words of F_m: tuples of nonzero ints, +i = a_i, -i = a_i^-1 ---------------


def reduce(letters) -> tuple:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(w: tuple) -> tuple:
    return tuple(-x for x in reversed(w))


def mul(s: tuple, t: tuple) -> tuple:
    return reduce(s + t)


def ball_words(m: int, n: int) -> list[tuple]:
    """Every reduced word of length at most n (in no particular order)."""
    letters = [x for i in range(1, m + 1) for x in (i, -i)]
    layer = [()]
    out = [()]
    for _ in range(n):
        layer = [w + (x,) for w in layer for x in letters if not w or w[-1] != -x]
        out.extend(layer)
    return out


def class_rep(w: tuple, letter_order) -> tuple:
    """The lexicographically smaller of w and w^-1 under a letter order."""
    rank = {x: i for i, x in enumerate(letter_order)}
    inv = inverse(w)
    return min(w, inv, key=lambda u: [rank[x] for x in u])


# -- JSON documents ------------------------------------------------------------


def to_rows(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, complex)]


def from_rows(rows) -> np.ndarray:
    A = np.array(rows, dtype=float)
    if A.size == 0:
        return np.zeros((len(rows), 0), dtype=complex)
    return A[..., 0] + 1j * A[..., 1]


def write_json(path, doc: dict):
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def function_values(doc: dict) -> tuple[int, int, int, dict[tuple, np.ndarray]]:
    """(m, k, n, values) of a ``pdfun.v1`` document, with a value at every word of S_n.

    The file stores one value per class {s, s^-1}; the adjoint is filled in
    at the other member, and the classes must cover the ball exactly.
    """
    require(doc.get("schema") == "pdfun.v1", f"schema {doc.get('schema')!r} is not pdfun.v1")
    m, k, n = doc["m"], doc["k"], doc["domain"]["n"]
    values: dict[tuple, np.ndarray] = {}
    for entry in doc["entries"]:
        w = tuple(entry["word"])
        V = from_rows(entry["value"])
        require(V.shape == (k, k), f"value at {w} has shape {V.shape}")
        values[w] = V
        values[inverse(w)] = V.conj().T
    require(
        set(values) == set(ball_words(m, n)),
        f"the entries do not cover the ball S_{n} of F_{m} exactly",
    )
    require(np.array_equal(values[()], np.eye(k)), "the value at the unit word is not I")
    return m, k, n, values


def pdfun_doc(m: int, k: int, n: int, letter_order, values: dict[tuple, np.ndarray]) -> dict:
    """A ``pdfun.v1`` document holding ``values`` at the class representatives of S_n."""
    reps = {class_rep(w, letter_order) for w in ball_words(m, n)}
    rank = {x: i for i, x in enumerate(letter_order)}
    ordered = sorted(reps, key=lambda w: (len(w), [rank[x] for x in w]))
    return {
        "schema": "pdfun.v1",
        "m": m,
        "k": k,
        "letter_order": list(letter_order),
        "domain": {"type": "ball", "n": n},
        "entries": [{"word": list(w), "value": to_rows(values[w])} for w in ordered],
    }


# -- positive definite functions -----------------------------------------------


def witness_sets(m: int, n: int) -> list[list[tuple]]:
    """Word sets whose Gram matrices decide positivity on S_n.

    Any set of diameter at most n in the tree fits, up to translation,
    inside S_h for n = 2h, or inside S_h together with a S_h for one
    generator a when n = 2h + 1.
    """
    h = n // 2
    inner = ball_words(m, h)
    if n % 2 == 0:
        return [inner]
    return [sorted(set(inner) | {mul((a,), w) for w in inner}) for a in range(1, m + 1)]


def check_psd(doc: dict, floor: float = 1e-10):
    """Every witness Gram matrix [Phi(s^-1 t)] is PSD to the relative floor."""
    m, k, n, values = function_values(doc)
    for S in witness_sets(m, n):
        G = np.block([[values[mul(inverse(s), t)] for t in S] for s in S])
        require(np.abs(G - G.conj().T).max() <= 1e-12, "a witness Gram matrix is not Hermitian")
        w = np.linalg.eigvalsh(G)
        scale = max(1.0, float(np.abs(w).max()))
        require(
            w.min() >= -floor * scale,
            f"witness Gram matrix of {len(S)} words has eigenvalue {w.min():.3e}",
        )


def quasi_mult_value(blocks, w: tuple) -> np.ndarray:
    """The product of the generator blocks (adjoints for inverse letters) along w."""
    out = np.eye(blocks[0].shape[0], dtype=complex)
    for x in w:
        B = blocks[abs(x) - 1]
        out = out @ (B if x > 0 else B.conj().T)
    return out


def check_quasi_mult(doc: dict, blocks, tol: float = 1e-8):
    """Each value equals the product of the generator blocks along its word."""
    _, _, _, values = function_values(doc)
    worst = max(np.abs(V - quasi_mult_value(blocks, w)).max() for w, V in values.items())
    require(worst <= tol, f"a value is {worst:.3e} away from the generator product")


def check_same_values(doc_a: dict, doc_b: dict, tol: float = 1e-8):
    """Two files hold the same function (letter orders may differ)."""
    _, _, _, a = function_values(doc_a)
    _, _, _, b = function_values(doc_b)
    require(a.keys() == b.keys(), "the two functions live on different balls")
    worst = max(np.abs(a[w] - b[w]).max() for w in a)
    require(worst <= tol, f"the two functions differ by {worst:.3e}")


def check_params(trace_doc: dict, params_doc: dict, tol: float = 1e-8, slack: float = 1e-9):
    """Extracted parameters match the trace's and are contractions."""
    require(trace_doc.get("schema") == "trace.v1", "not a trace.v1 document")
    require(params_doc.get("schema") == "params.v1", "not a params.v1 document")
    used = {tuple(s["class"]): from_rows(s["gamma"]) for s in trace_doc["steps"]}
    found = {tuple(p["class"]): from_rows(p["gamma"]) for p in params_doc["params"]}
    require(used.keys() == found.keys(), "extracted classes differ from the extended classes")
    for cls, g in found.items():
        require(g.shape == used[cls].shape, f"parameter at {cls} has shape {g.shape}")
        if g.size:
            require(
                np.abs(g - used[cls]).max() <= tol,
                f"parameter at {cls} is {np.abs(g - used[cls]).max():.3e} from the trace",
            )
            norm = np.linalg.norm(g, 2)
            require(norm <= 1.0 + slack, f"parameter at {cls} has norm {norm:.12g}")


def check_reserializes(path):
    """Re-serializing the parsed file gives back its bytes."""
    text = Path(path).read_bytes()
    again = (json.dumps(json.loads(text), indent=1) + "\n").encode("utf-8")
    require(again == text, f"{Path(path).name} does not re-serialize to the same bytes")


def check_same_bytes(path_a, path_b):
    require(
        Path(path_a).read_bytes() == Path(path_b).read_bytes(),
        f"{Path(path_a).name} and {Path(path_b).name} differ",
    )


def report(text: str) -> dict:
    """The JSON object on the last line a command printed."""
    return json.loads(text.strip().splitlines()[-1])


def check_report(stdout: str):
    """The command's JSON report on standard output says ok."""
    require(report(stdout).get("ok") is True, f"report: {stdout.strip()}")


# -- noncommutative polynomials --------------------------------------------------


def ncpoly_doc(m: int, c: int, terms: dict[tuple, np.ndarray]) -> dict:
    return {
        "schema": "ncpoly.v1",
        "m": m,
        "c": c,
        "terms": [{"word": list(w), "value": to_rows(B)} for w, B in sorted(terms.items())],
    }


def square(terms: dict[tuple, np.ndarray]) -> dict[tuple, np.ndarray]:
    """The coefficients of q* q for q = sum_s B_s X(s)."""
    out: dict[tuple, np.ndarray] = {}
    for s, A in terms.items():
        for t, B in terms.items():
            x = mul(inverse(s), t)
            out[x] = out.get(x, 0) + A.conj().T @ B
    return out


def sos_residual(cert_doc: dict, terms: dict[tuple, np.ndarray]) -> float:
    """max_x || sum_{s^-1 t = x} B_s* B_t - A_x ||_2 over the certificate's factor rows."""
    require(cert_doc.get("schema") == "cert.v1", "not a cert.v1 document")
    factors = {tuple(f["word"]): from_rows(f["value"]) for f in cert_doc["factors"]}
    sums = square(factors)
    c = cert_doc["c"]
    zero = np.zeros((c, c), dtype=complex)
    return max(
        float(np.linalg.norm(sums.get(x, zero) - terms.get(x, zero), 2))
        for x in set(sums) | set(terms)
    )


def check_certificate(cert_doc: dict, terms: dict[tuple, np.ndarray], tol: float):
    """The factor rows reproduce p within tol, and the stated residual is right."""
    res = sos_residual(cert_doc, terms)
    require(res <= tol, f"certificate misses p by {res:.3e} > {tol:g}")
    stated = cert_doc["residual"]
    require(
        abs(res - stated) <= 1e-12 + 1e-6 * res,
        f"certificate states residual {stated:.3e}, recomputed {res:.3e}",
    )


def eval_scalar(terms: dict[tuple, np.ndarray], z) -> np.ndarray:
    """p at the scalar unitaries X_i = z_i (each |z_i| = 1)."""
    out = 0
    for w, A in terms.items():
        out = out + A * np.prod([z[abs(x) - 1] if x > 0 else np.conj(z[abs(x) - 1]) for x in w])
    return out


def check_negative_at(terms: dict[tuple, np.ndarray], z):
    """p has a negative eigenvalue at the given scalar unitaries."""
    require(np.allclose(np.abs(z), 1.0), "the witness scalars are not unimodular")
    P = eval_scalar(terms, z)
    least = float(np.linalg.eigvalsh((P + P.conj().T) / 2).min())
    require(least < -1e-6, f"p at the witness scalars has least eigenvalue {least:.3e}")


def check_sample(stdout: str, floor: float = -1e-6):
    """``sample`` found no eigenvalue of p(U) below the floor."""
    least = report(stdout)["min_eigenvalue"]
    require(least >= floor, f"sampled eigenvalue {least:.3e} below {floor:g}")


def check_refusal(stderr: str):
    """``factor`` refused with the structured ``infeasible`` diagnostic."""
    require(report(stderr).get("error") == "infeasible", f"diagnostic: {stderr.strip()}")

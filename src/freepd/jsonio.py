"""JSON serialization helpers shared by the file formats.

Complex numbers are stored as [re, im] pairs and complex matrices as
nested lists of those pairs.  Floats round-trip exactly (shortest-repr
formatting), so a value written and re-read is bit-identical, and the
same document always serializes to the same bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .words import GroupContext, check_letters


class SchemaError(ValueError):
    """A document does not conform to its declared schema."""


def matrix_to_json(A: np.ndarray) -> list:
    M = np.asarray(A, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _finite_number(x) -> bool:
    """Whether x is a JSON number (``true`` and ``false`` are not) within the float range."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def matrix_from_json(rows, shape: tuple[int, int] | None = None) -> np.ndarray:
    """The matrix of a list of rows of [re, im] pairs, each two finite JSON numbers.

    ``[]`` is the 0 x 0 matrix and ``[[]]`` the 1 x 0 one.
    """
    if not isinstance(rows, list):
        raise SchemaError(f"a complex matrix must be a list of rows, got {rows!r}")
    for row in rows:
        if not isinstance(row, list) or len(row) != len(rows[0]):
            raise SchemaError(f"malformed complex matrix row {row!r}")
        for p in row:
            if not (isinstance(p, list) and len(p) == 2 and all(map(_finite_number, p))):
                raise SchemaError(f"malformed complex entry {p!r}")
    M = np.array([[complex(float(re), float(im)) for re, im in row] for row in rows], dtype=complex)
    M = M.reshape(len(rows), len(rows[0]) if rows else 0)
    if shape is not None and M.shape != tuple(shape):
        raise SchemaError(f"matrix has shape {M.shape}, expected {shape}")
    return M


def word_to_json(word) -> list[int]:
    return [int(x) for x in word]


def word_from_json(obj, m: int):
    """A JSON list of letters of F_m, as the word it spells, unreduced."""
    if isinstance(obj, list):
        try:
            return check_letters(obj, m)
        except ValueError:
            pass
    raise SchemaError(f"malformed word {obj!r} for m = {m}")


def entries_to_json(entries) -> list:
    """A word-keyed block list: one ``{"word", "value"}`` object per (word, block) pair."""
    return [{"word": word_to_json(w), "value": matrix_to_json(B)} for w, B in entries]


def entries_from_json(doc: dict, key: str, m: int, shape=None, add: bool = False) -> dict:
    """The word-keyed block list ``doc[key]`` as a dict in file order.

    A word listed twice is refused, or with ``add`` its blocks are summed.
    """
    out: dict = {}
    for entry in require(doc, key, list):
        word = word_from_json(require(entry, "word"), m)
        if word in out and not add:
            raise SchemaError(f"{key!r} lists the word {list(word)} twice")
        block = matrix_from_json(require(entry, "value"), shape)
        out[word] = out.get(word, 0) + block if add else block
    return out


def _canonical(doc: dict):
    """A document's canonical text, chunk by chunk: stable key order, newline-terminated."""
    yield from json.JSONEncoder(indent=1).iterencode(doc)
    yield "\n"


def dumps(doc: dict) -> str:
    """The canonical serialization, whole."""
    return "".join(_canonical(doc))


def dump_path(path, doc: dict):
    """Write the canonical serialization as it is encoded, never holding all of it at once.

    A write that fails once the file is open removes the file: no truncated document is left.
    """
    f = open(path, "w", encoding="utf-8")
    try:
        with f:  # inside the try: a close that cannot flush is a failed write too
            f.writelines(_canonical(doc))
    except BaseException:
        remove_file(path)
        raise


def remove_file(path):
    """Remove ``path`` if it names a regular file; a device, say, is left alone."""
    if Path(path).is_file():
        Path(path).unlink()


def same_file(a, b) -> bool:
    """Whether two paths name one file once resolved (links followed, ``..`` folded)."""
    try:
        return Path(a).resolve() == Path(b).resolve()
    except RuntimeError:  # a symbolic link loop, which names no file that can be written
        return False


def _unique_keys(pairs: list) -> dict:
    """A JSON object, which must not list one key twice (``json`` alone keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise SchemaError(f"an object lists the key {key!r} twice")
    return obj


def load_path(path) -> dict:
    """The JSON object in the file ``path``; any object in it that repeats a key is refused."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the recursion limit
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"top-level JSON value in {path} must be an object")
    return doc


def require(doc: dict, key: str, kind: type | None = None):
    """``doc[key]``; the document must be an object, and the value of ``kind`` if one is named."""
    if not isinstance(doc, dict):
        raise SchemaError(f"expected an object holding {key!r}, got {doc!r}")
    if key not in doc:
        raise SchemaError(f"missing required key {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{key!r} must be a {kind.__name__}, got {value!r}")
    return value


def natural(doc: dict, key: str) -> int:
    """``doc[key]``, which must be a non-negative integer (``true`` is refused)."""
    value = require(doc, key)
    if type(value) is not int or value < 0:
        raise SchemaError(f"{key!r} must be a non-negative integer, got {value!r}")
    return value


def finite_non_negative(doc: dict, key: str) -> float:
    """``doc[key]``, which must be a finite non-negative JSON number (``false`` is refused)."""
    value = require(doc, key)
    if not _finite_number(value) or value < 0:
        raise SchemaError(f"{key!r} must be a finite non-negative number, got {value!r}")
    return float(value)


#: Header of each schema: its block-size key, and whether it names a letter order.
_HEADERS = {
    "pdfun.v1": ("k", True),
    "params.v1": ("k", True),
    "trace.v1": ("k", True),
    "ncpoly.v1": ("c", False),
    "cert.v1": ("c", False),
}


def header(schema: str, ctx: GroupContext, size: int) -> dict:
    """The header that :func:`read_header` checks, in the order every schema writes it."""
    size_key, ordered = _HEADERS[schema]
    order = {"letter_order": list(ctx.letter_order)} if ordered else {}
    return {"schema": schema, "m": ctx.m, size_key: size, **order}


def read_header(doc: dict, schema: str) -> tuple[GroupContext, int]:
    """Check a document's schema and header; return its group context and block size.

    The header is ``m``, the block size (``k`` or ``c``, both positive
    integers) and, for the schemas that name one, the ``letter_order``: a
    list of JSON integers.
    """
    if doc.get("schema") != schema:
        raise SchemaError(f"expected schema {schema!r}, got {doc.get('schema')!r}")
    size_key, ordered = _HEADERS[schema]
    m = require(doc, "m")
    size = require(doc, size_key)
    if not all(type(x) is int and x >= 1 for x in (m, size)):
        raise SchemaError(f"invalid dimensions m={m!r}, {size_key}={size!r}")
    order = require(doc, "letter_order", list) if ordered else None
    try:
        return GroupContext(m, None if order is None else check_letters(order, m)), size
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc

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

from .words import GroupContext


class SchemaError(ValueError):
    """A document does not conform to its declared schema."""


def matrix_to_json(A: np.ndarray) -> list:
    M = np.asarray(A, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def matrix_from_json(rows, shape: tuple[int, int] | None = None) -> np.ndarray:
    try:
        M = np.array(
            [[complex(float(p[0]), float(p[1])) for p in row] for row in rows],
            dtype=complex,
        )
        if M.ndim == 1:
            M = M.reshape(0, 0) if M.size == 0 else M
    except (TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"malformed complex matrix: {exc}") from exc
    if M.ndim != 2:
        raise SchemaError(f"malformed complex matrix of shape {M.shape}")
    if shape is not None and M.shape != tuple(shape):
        raise SchemaError(f"matrix has shape {M.shape}, expected {shape}")
    if not np.all(np.isfinite(M.view(float))):
        raise SchemaError("matrix contains non-finite entries")
    return M


def word_to_json(word) -> list[int]:
    return [int(x) for x in word]


def word_from_json(obj, m: int):
    if not isinstance(obj, list) or not all(
        isinstance(x, int) and x != 0 and abs(x) <= m for x in obj
    ):
        raise SchemaError(f"malformed word {obj!r} for m = {m}")
    return tuple(obj)


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


def dumps(doc: dict) -> str:
    """Canonical serialization: stable key order, compact, newline-terminated."""
    return json.dumps(doc, indent=1) + "\n"


def dump_path(path, doc: dict):
    Path(path).write_text(dumps(doc), encoding="utf-8")


def load_path(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"top-level JSON value in {path} must be an object")
    return doc


def expect_schema(doc: dict, name: str):
    if doc.get("schema") != name:
        raise SchemaError(f"expected schema {name!r}, got {doc.get('schema')!r}")


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
    if type(value) not in (int, float) or not 0 <= value <= sys.float_info.max:
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
    integers) and, for the schemas that name one, the ``letter_order``.
    """
    expect_schema(doc, schema)
    size_key, ordered = _HEADERS[schema]
    m = require(doc, "m")
    size = require(doc, size_key)
    if not all(type(x) is int and x >= 1 for x in (m, size)):
        raise SchemaError(f"invalid dimensions m={m!r}, {size_key}={size!r}")
    order = require(doc, "letter_order") if ordered else None
    try:
        return GroupContext(m, None if order is None else tuple(order)), size
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc

"""JSON serialization helpers shared by the file formats.

Complex numbers are stored as [re, im] pairs and complex matrices as
nested lists of those pairs.  Floats round-trip exactly (shortest-repr
formatting), so a value written and re-read is bit-identical, and the
same document always serializes to the same bytes: the text of
``json.JSONEncoder(indent=1)``, which one recursion, :func:`_text`, writes
with one template per matrix shape and indent.  :func:`dump_path` writes it
one top-level key, or one item of a top-level list, at a time.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .words import GroupContext, check_letters


class SchemaError(ValueError):
    """A document does not conform to its declared schema."""


def matrix_to_json(A: np.ndarray) -> list:
    M = np.ascontiguousarray(A, dtype=complex)
    return M.view(float).reshape(*M.shape, 2).tolist()


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
    M = np.array(rows, dtype=float).reshape(len(rows), len(rows[0]) if rows else 0, 2).view(complex)[..., 0]
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


def _matrix(rows: list, pad: str, templates: dict) -> str | None:
    """The text after ``pad`` of a list of rows of [re, im] floats, from its template; else None.

    ``templates`` holds the text of each matrix shape and indent met so far,
    with ``%s`` for each number.  A non-float number does not fit a template,
    and neither does a non-finite one: ``float.__repr__`` spells it ``inf`` or
    ``nan``, the encoder ``Infinity`` or ``NaN``, and no finite float's repr
    holds an ``n``.
    """
    n, k = len(rows), len(rows[0])
    if not all(type(row) is list and len(row) == k for row in rows):
        return None
    if not all(type(p) is list and len(p) == 2 for row in rows for p in row):
        return None
    template = templates.get((n, k, pad))
    if template is None:
        pad1, pad2, pad3 = pad + " ", pad + "  ", pad + "   "
        pair = f"[{pad3}%s,{pad3}%s{pad2}]"
        row = f"[{pad2}{(',' + pad2).join([pair] * k)}{pad1}]"
        template = templates[n, k, pad] = f"[{pad1}{(',' + pad1).join([row] * n)}{pad}]"
    try:
        text = template % tuple(map(float.__repr__, [x for row in rows for p in row for x in p]))
    except TypeError:
        return None
    return None if "n" in text else text


def _text(o, pad: str, templates: dict) -> str:
    """The text of ``o`` as ``json.JSONEncoder(indent=1)`` writes it after the newline and indent ``pad``.

    A matrix fills its template, a list of ints is joined at once and other
    lists and objects are written item by item.  Anything rarer (``null``,
    booleans, non-finite floats, tuples, keys that are not strings) goes to
    the encoder itself, its lines moved right by ``pad`` (no JSON string
    holds a raw newline).
    """
    kind = type(o)
    if kind is str:
        return encode_basestring_ascii(o)
    if kind is int:
        return int.__repr__(o)
    if kind is float and abs(o) <= sys.float_info.max:
        return float.__repr__(o)
    if kind is list or kind is dict:
        if not o:
            return "[]" if kind is list else "{}"
        inner = pad + " "
        sep = "," + inner
        if kind is list:
            head = o[0]
            if type(head) is int and all(type(x) is int for x in o):
                return f"[{inner}{sep.join(map(int.__repr__, o))}{pad}]"
            if type(head) is list and head and type(head[0]) is list:
                text = _matrix(o, pad, templates)
                if text is not None:
                    return text
            return f"[{inner}{sep.join([_text(x, inner, templates) for x in o])}{pad}]"
        if all(type(key) is str for key in o):
            items = [f"{encode_basestring_ascii(k)}: {_text(v, inner, templates)}" for k, v in o.items()]
            return f"{{{inner}{sep.join(items)}{pad}}}"
    return json.JSONEncoder(indent=1).encode(o).replace("\n", pad)


def _canonical(doc: dict):
    """A document's canonical text, chunk by chunk: newline-terminated, keys in document order.

    The text is ``json.JSONEncoder(indent=1)``'s, byte for byte, with one set
    of matrix templates per document.  A chunk is one top-level key with its
    value, or one item of a top-level list of objects (a trace's steps, a
    function's entries).
    """
    templates: dict[tuple[int, int, str], str] = {}
    if not (doc and all(type(key) is str for key in doc)):
        yield _text(doc, "\n", templates) + "\n"
        return
    sep = "{"
    for key, value in doc.items():
        head = f"{sep}\n {encode_basestring_ascii(key)}: "
        if type(value) is list and value and type(value[0]) is dict:
            head += "["
            for item in value:
                yield head + "\n  " + _text(item, "\n  ", templates)
                head = ","
            yield "\n ]"
        else:
            yield head + _text(value, "\n ", templates)
        sep = ","
    yield "\n}\n"


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

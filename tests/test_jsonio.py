import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepd import jsonio
from freepd.extend import (
    extend_to_ball,
    oracle_from_params,
    params_from_json,
    params_to_json,
)
from freepd.ncpoly import (
    NcPolynomial,
    SosCertificate,
    certificate_from_json,
    certificate_to_json,
    ncpolynomial_from_json,
)
from freepd.pdfun import pdfunction_from_json
from freepd.sampling import random_gamma_oracle, random_pd_function
from freepd.words import GroupContext, ball, default_letter_order


def reserialized(doc: dict, parse_and_dump) -> tuple[str, str]:
    """The document's bytes, and the bytes after reading them back and writing again."""
    text = jsonio.dumps(doc)
    return text, jsonio.dumps(parse_and_dump(json.loads(text)))


def random_certificate(ctx, k, rng) -> SosCertificate:
    """A certificate over S_1 with random factors: a consistent document, not a factorization."""
    index = ball(ctx, 1)
    B = rng.normal(size=(2 * k, len(index) * k)) + 1j * rng.normal(size=(2 * k, len(index) * k))
    return SosCertificate(
        index=tuple(index),
        m=ctx.m,
        c=k,
        gram=B.conj().T @ B,
        factors={w: B[:, i * k : (i + 1) * k] for i, w in enumerate(index)},
        residual=float(rng.uniform()),
        iterations=int(rng.integers(1, 20_000)),
    )


def replayed_trace(phi, params) -> dict:
    _, trace = extend_to_ball(phi, 3, oracle_from_params(params))
    return trace.to_json_dict()


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    st.sampled_from((1, 2)).flatmap(
        lambda m: st.permutations(default_letter_order(m)).map(lambda o: GroupContext(m, o))
    ),
    st.integers(1, 2),
    st.integers(0, 2**16),
)
def test_every_schema_reserializes_to_the_same_bytes(ctx, k, seed):
    rng = np.random.default_rng(seed)
    phi = random_pd_function(ctx, k, 2, rng)
    _, trace = extend_to_ball(phi, 3, random_gamma_oracle(seed))
    cert = random_certificate(ctx, k, rng)
    poly = NcPolynomial(ctx, k, {w: rng.normal(size=(k, k)) + 0j for w in ball(ctx, 1)})
    cases = [
        (phi.to_json_dict(), lambda d: pdfunction_from_json(d).to_json_dict()),
        (params_to_json(ctx, k, 2, 3, trace.params()), lambda d: params_to_json(*params_from_json(d))),
        # a trace is read as its parameter sequence, whose replay writes the trace again
        (trace.to_json_dict(), lambda d: replayed_trace(phi, params_from_json(d)[4])),
        (poly.to_json_dict(), lambda d: ncpolynomial_from_json(d).to_json_dict()),
        (certificate_to_json(cert), lambda d: certificate_to_json(certificate_from_json(d))),
    ]
    assert sorted(doc["schema"] for doc, _ in cases) == sorted(jsonio._HEADERS)
    for doc, parse_and_dump in cases:
        first, again = reserialized(doc, parse_and_dump)
        assert again == first, doc["schema"]


def with_first_key_repeated(obj: dict) -> str:
    """The JSON text of obj with its first key listed once more, first, with the same value."""
    key = next(iter(obj))
    return "{" + json.dumps(key) + ": " + json.dumps(obj[key]) + ", " + json.dumps(obj)[1:]


def test_every_schema_refuses_a_key_repeated_in_one_object(tmp_path):
    # json alone keeps the last value of a repeated key, whatever the values;
    # here both agree, and the object is still refused, at the top level and
    # inside an entry
    ctx, rng = GroupContext(2), np.random.default_rng(5)
    phi = random_pd_function(ctx, 1, 2, rng)
    _, trace = extend_to_ball(phi, 3, random_gamma_oracle(5))
    poly = NcPolynomial(ctx, 1, {w: rng.normal(size=(1, 1)) + 0j for w in ball(ctx, 1)})
    docs = [
        phi.to_json_dict(),
        params_to_json(ctx, 1, 2, 3, trace.params()),
        trace.to_json_dict(),
        poly.to_json_dict(),
        certificate_to_json(random_certificate(ctx, 1, rng)),
    ]
    assert sorted(doc["schema"] for doc in docs) == sorted(jsonio._HEADERS)
    path = tmp_path / "doc.json"
    for doc in docs:
        # the list of entries: "entries", "params", "steps", "terms" or "factors"
        name = next(key for key, value in doc.items() if isinstance(value, list) and isinstance(value[0], dict))
        entry, *rest = doc[name]
        in_entry = json.dumps({**doc, name: ["@", *rest]}).replace('"@"', with_first_key_repeated(entry))
        cases = [("schema", with_first_key_repeated(doc)), (next(iter(entry)), in_entry)]
        for key, text in cases:
            path.write_text(text)
            with pytest.raises(jsonio.SchemaError, match=f"^an object lists the key '{key}' twice$"):
                jsonio.load_path(path)
        path.write_text(json.dumps(doc))
        assert jsonio.load_path(path) == doc


def test_dump_path_streams_the_bytes_of_dumps(tmp_path):
    # dump_path writes what dumps returns, byte for byte, but as the encoder
    # yields it: its peak allocation does not grow with the file, where
    # building the text whole held every chunk and the joined string at once
    # (about 8 times the file)
    ctx, rng = GroupContext(2), np.random.default_rng(3)
    phi = random_pd_function(ctx, 1, 2, rng)
    ext, trace = extend_to_ball(phi, 5, random_gamma_oracle(3))
    docs = [
        ext.to_json_dict(),
        trace.to_json_dict(),
        params_to_json(ctx, 1, 2, 5, trace.params()),
        certificate_to_json(random_certificate(ctx, 2, rng)),
    ]
    for doc in docs:
        path = tmp_path / f"{doc['schema']}.json"
        tracemalloc.start()
        try:
            jsonio.dump_path(path, doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = path.read_bytes()
        assert written == jsonio.dumps(doc).encode("utf-8"), doc["schema"]
        if doc["schema"] == "trace.v1":
            assert peak < len(written) / 2, (peak, len(written))

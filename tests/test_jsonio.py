import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from freepd import jsonio
from freepd.extend import (
    extend_to_ball,
    params_from_json,
    params_to_json,
    trace_from_json,
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
    index = ball(ctx, 1)
    B = rng.normal(size=(2 * k, len(index) * k)) + 1j * rng.normal(size=(2 * k, len(index) * k))
    cert = SosCertificate(
        index=tuple(index),
        m=ctx.m,
        c=k,
        gram=B.conj().T @ B,
        factors={w: B[:, i * k : (i + 1) * k] for i, w in enumerate(index)},
        residual=float(rng.uniform()),
        iterations=int(rng.integers(1, 20_000)),
    )
    poly = NcPolynomial(ctx, k, {w: rng.normal(size=(k, k)) + 0j for w in index})
    cases = [
        (phi.to_json_dict(), lambda d: pdfunction_from_json(d).to_json_dict()),
        (params_to_json(ctx, k, 2, 3, trace.params()), lambda d: params_to_json(*params_from_json(d))),
        (trace.to_json_dict(), lambda d: trace_from_json(d).to_json_dict()),
        (poly.to_json_dict(), lambda d: ncpolynomial_from_json(d).to_json_dict()),
        (certificate_to_json(cert), lambda d: certificate_to_json(certificate_from_json(d))),
    ]
    assert sorted(doc["schema"] for doc, _ in cases) == sorted(jsonio._HEADERS)
    for doc, parse_and_dump in cases:
        first, again = reserialized(doc, parse_and_dump)
        assert again == first, doc["schema"]

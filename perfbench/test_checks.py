"""Self-tests of the benchmark's checks: each accepts a real output and rejects a corrupted one.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import freepd.cli  # noqa: E402
import freepd.extend  # noqa: E402
from checks import CheckFailed, read_json, write_json  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import _random_s2  # noqa: E402

ORDER = [1, -1, 2, -2]


def cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert freepd.cli.main([str(a) for a in argv]) == 0
    return out.getvalue()


def nudge(doc: dict, entry: int, amount: float = 1e-6) -> dict:
    """The document with the real part of one value's first entry moved by ``amount``."""
    doc = json.loads(json.dumps(doc))
    doc["entries"][entry]["value"][0][0][0] += amount
    return doc


def test_central_value_perturbed(tmp_path):
    blocks = [np.array([[0.5, 0.2j], [0.1, -0.3]]), np.array([[0.1, 0.4], [-0.2j, 0.6]])]
    values = {w: checks.quasi_mult_value(blocks, w) for w in checks.ball_words(2, 1)}
    write_json(tmp_path / "phi.json", checks.pdfun_doc(2, 2, 1, ORDER, values))
    cli("extend", tmp_path / "phi.json", "--to", 3, "--central", "-o", tmp_path / "ext.json")
    ext = read_json(tmp_path / "ext.json")
    checks.check_quasi_mult(ext, blocks)
    checks.check_psd(ext)
    checks.check_same_values(ext, ext)
    bad = nudge(ext, 7)
    with pytest.raises(CheckFailed):
        checks.check_quasi_mult(bad, blocks)
    with pytest.raises(CheckFailed):
        checks.check_same_values(ext, bad)


def test_gram_psd_rejects_a_non_positive_function():
    # Phi = 0.9 on the generators and 0 at length 2: (1, -1/2, ..., -1/2) has negative energy
    values = {w: np.eye(1) * [1.0, 0.9, 0.0][len(w)] for w in checks.ball_words(2, 2)}
    doc = checks.pdfun_doc(2, 1, 2, ORDER, values)
    with pytest.raises(CheckFailed):
        checks.check_psd(doc)


def test_replay_file_byte_changed(tmp_path):
    rng = np.random.default_rng(2)
    write_json(tmp_path / "phi.json", checks.pdfun_doc(2, 1, 2, ORDER, _random_s2(rng, 2, 1)))
    cli("extend", tmp_path / "phi.json", "--to", 3, "--central", "-o", tmp_path / "ext.json")
    cli("params", tmp_path / "ext.json", "--from", 2, "-o", tmp_path / "params.json")
    replay = tmp_path / "replay.json"
    cli("extend", tmp_path / "phi.json", "--to", 3, "--params", tmp_path / "params.json", "-o", replay)
    checks.check_same_bytes(tmp_path / "ext.json", replay)
    checks.check_reserializes(replay)
    data = bytearray(replay.read_bytes())
    at = data.index(b"0.", len(data) // 2) + 2
    data[at] = ord("1") if data[at] != ord("1") else ord("2")
    replay.write_bytes(bytes(data))
    with pytest.raises(CheckFailed):
        checks.check_same_bytes(tmp_path / "ext.json", replay)


def test_reserialize_rejects_noncanonical_bytes(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"a": [1.0, 2.5]}) + "\n")
    with pytest.raises(CheckFailed):
        checks.check_reserializes(path)


def test_planted_parameter_moved(tmp_path):
    rng = np.random.default_rng(3)
    write_json(tmp_path / "phi.json", checks.pdfun_doc(2, 2, 2, ORDER, _random_s2(rng, 2, 2)))
    trace_path = tmp_path / "trace.json"
    cli(
        "extend", tmp_path / "phi.json", "--to", 3, "--random-oracle", "--seed", 5,
        "--trace", trace_path, "-o", tmp_path / "ext.json",
    )
    cli("params", tmp_path / "ext.json", "--from", 2, "-o", tmp_path / "params.json")
    trace, params = read_json(trace_path), read_json(tmp_path / "params.json")
    checks.check_params(trace, params)
    params["params"][3]["gamma"][0][0][1] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_params(trace, params)


def test_certificate_factor_row_perturbed(tmp_path):
    rng = np.random.default_rng(4)
    q = {w: rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1)) for w in checks.ball_words(2, 1)}
    terms = checks.square(q)
    write_json(tmp_path / "p.json", checks.ncpoly_doc(2, 1, terms))
    cli("factor", tmp_path / "p.json", "-o", tmp_path / "cert.json", "--tol", 1e-6)
    cert = read_json(tmp_path / "cert.json")
    checks.check_certificate(cert, terms, 1e-6)
    cert["factors"][2]["value"][0][0][0] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_certificate(cert, terms, 1e-6)


def test_negative_witness_needs_a_negative_value():
    terms = {(): np.array([[4.0]]), (1,): np.array([[1.0]]), (-1,): np.array([[1.0]])}
    with pytest.raises(CheckFailed):
        checks.check_negative_at(terms, [-1.0, 1.0])
    terms[()] = np.array([[1.0]])
    checks.check_negative_at(terms, [-1.0, 1.0])


def test_tracer_counts_calls_and_restores_the_program(tmp_path):
    values = {w: checks.quasi_mult_value([np.eye(1) * 0.5, np.eye(1) * 0.3], w) for w in checks.ball_words(2, 1)}
    write_json(tmp_path / "phi.json", checks.pdfun_doc(2, 1, 1, ORDER, values))
    original = freepd.extend.clique_C
    tracer = Tracer()
    argv = ["extend", str(tmp_path / "phi.json"), "--to", "3", "-o", str(tmp_path / "ext.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert tracer.call("extend", freepd.cli.main, argv) == 0
    assert freepd.extend.clique_C is original
    summary = tracer.round_summary()
    steps = summary["counts"]["extend.steps"]
    assert steps == (12 + 36) // 2  # the classes of length 2 and 3 in F_2
    assert summary["spans"]["cayley.clique_C"]["calls"] == steps
    assert summary["spans"]["completion.analyze"]["calls"] == 2 * steps
    assert summary["spans"]["cli.extend"]["calls"] == 1
    spans = summary["spans"]["cli.extend"]
    assert 0.0 < spans["self_s"] < spans["s"]

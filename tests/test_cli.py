import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freepd
from freepd import jsonio, ncpoly
from freepd.cli import build_parser, main
from freepd.extend import extend_to_ball, extract_params, params_to_json, trace_from_json
from freepd.ncpoly import NcPolynomial, certificate_from_json
from freepd.pdfun import gram, pdfunction_from_json
from freepd.quasimult import haagerup
from freepd.words import E, GroupContext, ball, inverse


def assert_bad_input(code, err):
    assert code == 2
    assert json.loads(err)["error"] == "bad-input"


def run(capfd, *argv):
    code = main(list(argv))
    out, err = capfd.readouterr()
    return code, out, err


def shifted_square() -> NcPolynomial:
    return NcPolynomial(
        GroupContext(1), 1, {E: np.array([[2.0]]), (1,): np.array([[1.0]]), (-1,): np.array([[1.0]])}
    )


def write_shifted_square(path):
    jsonio.dump_path(path, shifted_square().to_json_dict())


def test_haagerup_verify_roundtrip(tmp_path, capfd):
    f = tmp_path / "h.json"
    code, _, _ = run(capfd, "haagerup", "--m", "2", "--t", "0.7", "--n", "2", "-o", str(f))
    assert code == 0
    code, out, err = run(capfd, "verify", str(f))
    assert code == 0
    assert json.loads(out)["ok"] is True
    # the output file re-validates against its schema
    phi = pdfunction_from_json(jsonio.load_path(f))
    assert phi.ball_radius() == 2
    code, _, err = run(capfd, "haagerup", "--m", "2", "--t", "0.7", "--n", "-1", "-o", str(f))
    assert_bad_input(code, err)
    assert "radius" in json.loads(err)["detail"]
    for t in ("inf", "nan", "0"):
        code, _, err = run(capfd, "haagerup", "--m", "2", "--t", t, "--n", "1", "-o", str(f))
        assert_bad_input(code, err)
        assert "decay rate" in json.loads(err)["detail"]
    # a radius far past the interpreter's recursion limit, reachable on F_1
    code, _, _ = run(capfd, "haagerup", "--m", "1", "--t", "1", "--n", "1000", "-o", str(f))
    assert code == 0
    assert len(jsonio.load_path(f)["entries"]) == 1001


def test_verify_rejects_non_positive(tmp_path, capfd):
    f = tmp_path / "bad.json"
    doc = {
        "schema": "pdfun.v1",
        "m": 2,
        "k": 1,
        "letter_order": [1, -1, 2, -2],
        "domain": {"type": "ball", "n": 1},
        "entries": [
            {"word": [], "value": [[[1.0, 0.0]]]},
            {"word": [1], "value": [[[1.5, 0.0]]]},
            {"word": [2], "value": [[[0.0, 0.0]]]},
        ],
    }
    jsonio.dump_path(f, doc)
    code, out, err = run(capfd, "verify", str(f))
    assert code == 1
    assert json.loads(out)["ok"] is False
    diag = json.loads(err)
    assert diag["error"] == "not-positive"
    assert diag["witness"]


def test_malformed_input_exits_2(tmp_path, capfd):
    f = tmp_path / "junk.json"
    f.write_text("{not json")
    code, _, err = run(capfd, "verify", str(f))
    assert code == 2
    assert json.loads(err)["error"] == "bad-input"
    code, _, err = run(capfd, "verify", str(tmp_path / "missing.json"))
    assert code == 2
    f2 = tmp_path / "wrong.json"
    jsonio.dump_path(f2, {"schema": "other.v1"})
    code, _, err = run(capfd, "verify", str(f2))
    assert code == 2
    for argv in (
        ["extend", str(f2), "-o", str(tmp_path / "out.json")],  # no --to
        ["check-ortho", str(f2), "--level", "1", "--tol", "-1e-8"],  # -1e-8 read as an option
        ["factor", str(f2), "-o", str(tmp_path / "cert.json"), "--max-iter", "many"],
        ["frobnicate"],
        [],
    ):
        code, _, err = run(capfd, *argv)
        assert_bad_input(code, err)
    h = tmp_path / "h.json"
    run(capfd, "haagerup", "--m", "2", "--t", "0.7", "--n", "2", "-o", str(h))
    code, _, err = run(capfd, "extend", str(h), "--to", "12", "-o", str(tmp_path / "x.json"))
    assert_bad_input(code, err)
    assert json.loads(err)["detail"] == (
        "ball of radius 12 in F_2 has 1062881 words, above the cap of 200000"
    )
    code, _, err = run(capfd, "check-ortho", str(h), "--level", "-1")
    assert_bad_input(code, err)
    assert json.loads(err)["detail"] == "level must be nonnegative, got -1"
    # a huge radius, generator count or unitary dimension is refused at once, before any work
    huge = str(10**12)
    poly = tmp_path / "p.json"
    jsonio.dump_path(poly, {"schema": "ncpoly.v1", "m": 10**12, "c": 1, "terms": []})
    square = tmp_path / "sq.json"
    write_shifted_square(square)
    for argv in (
        ["extend", str(h), "--to", huge, "-o", str(tmp_path / "x.json")],
        ["haagerup", "--m", "1", "--t", "0.7", "--n", huge, "-o", str(tmp_path / "x.json")],
        ["haagerup", "--m", huge, "--t", "0.7", "--n", "1", "-o", str(tmp_path / "x.json")],
        ["sample", str(poly)],
    ):
        code, _, err = run(capfd, *argv)
        assert_bad_input(code, err)
        assert "above the cap" in json.loads(err)["detail"]
    code, _, err = run(capfd, "sample", str(square), "--dmax", "1000000", "--trials", "1")
    assert_bad_input(code, err)
    assert json.loads(err)["detail"] == (
        "--dmax 1000000 makes p(U) up to 1000000 x 1000000, above the cap of 1024 on c * d_max"
    )
    with pytest.raises(SystemExit) as exc:
        main(["extend", "--help"])
    assert exc.value.code == 0
    assert capfd.readouterr().out.startswith("usage: freepd extend")


def test_extend_params_roundtrip_byte_identical(tmp_path, capfd):
    h = tmp_path / "h.json"
    run(capfd, "haagerup", "--m", "2", "--t", "0.9", "--n", "2", "-o", str(h))
    out1 = tmp_path / "ext.json"
    trace = tmp_path / "trace.json"
    code, _, _ = run(capfd, "extend", str(h), "--to", "3", "--central", "-o", str(out1), "--trace", str(trace))
    assert code == 0
    params = tmp_path / "params.json"
    code, _, _ = run(capfd, "params", str(out1), "--from", "2", "-o", str(params))
    assert code == 0
    out2 = tmp_path / "ext2.json"
    code, _, _ = run(capfd, "extend", str(h), "--to", "3", "--params", str(params), "-o", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    code, _, err = run(capfd, "params", str(out1), "--from", "4", "-o", str(tmp_path / "p4.json"))
    assert_bad_input(code, err)
    # trace file re-validates
    doc = jsonio.load_path(trace)
    assert doc["schema"] == "trace.v1"
    assert len(doc["steps"]) == 18  # the length-3 classes of F_2


def test_extend_deterministic(tmp_path, capfd):
    h = tmp_path / "h.json"
    run(capfd, "haagerup", "--m", "2", "--t", "0.5", "--n", "1", "-o", str(h))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capfd, "extend", str(h), "--to", "3", "--random-oracle", "--seed", "11", "-o", str(a))
    run(capfd, "extend", str(h), "--to", "3", "--random-oracle", "--seed", "11", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_check_ortho_cli(tmp_path, capfd):
    h = tmp_path / "h.json"
    run(capfd, "haagerup", "--m", "2", "--t", "0.6", "--n", "1", "-o", str(h))
    ext = tmp_path / "ext.json"
    run(capfd, "extend", str(h), "--to", "2", "--central", "-o", str(ext))
    code, out, _ = run(capfd, "check-ortho", str(ext), "--level", "1")
    assert code == 0
    assert json.loads(out)["ok"] is True
    # --tol is taken as given: a random-oracle extension passes at a tolerance
    # one float above its reported worst violation and fails one float below
    rnd = tmp_path / "rnd.json"
    run(capfd, "extend", str(h), "--to", "2", "--random-oracle", "--seed", "2", "-o", str(rnd))
    code, out, _ = run(capfd, "check-ortho", str(rnd), "--level", "1")
    worst = json.loads(out)["worst_violation"]
    assert code == 1 and worst > 1e-8
    for tol, expect in ((np.nextafter(worst, np.inf), 0), (np.nextafter(worst, 0.0), 1)):
        code, out, _ = run(capfd, "check-ortho", str(rnd), "--level", "1", "--tol", repr(float(tol)))
        report = json.loads(out)
        assert code == expect
        assert report["ok"] is (expect == 0) and report["worst_violation"] == worst
    # and must be positive and finite
    for tol in ("0", "-1", "inf"):
        for cmd in (["check-ortho", str(ext), "--level", "1"], ["verify", str(ext)]):
            code, _, err = run(capfd, *cmd, "--tol", tol)
            assert_bad_input(code, err)


def test_check_ortho_flags_random_extension(tmp_path, capfd):
    h = tmp_path / "h.json"
    run(capfd, "haagerup", "--m", "2", "--t", "0.4", "--n", "1", "-o", str(h))
    ext = tmp_path / "ext.json"
    run(capfd, "extend", str(h), "--to", "2", "--random-oracle", "--seed", "2", "-o", str(ext))
    code, out, err = run(capfd, "check-ortho", str(ext), "--level", "1")
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert json.loads(err)["error"] == "orthogonality-violation"


def test_check_ortho_on_non_positive_input(tmp_path, capfd):
    # Phi(a_1) = 1.5 on S_1 is not positive definite; at level 0 the window
    # is {e, a_1}, whose central value is 0, so the violation is 1.5
    f = tmp_path / "bad.json"
    doc = {
        "schema": "pdfun.v1",
        "m": 2,
        "k": 1,
        "letter_order": [1, -1, 2, -2],
        "domain": {"type": "ball", "n": 1},
        "entries": [
            {"word": [], "value": [[[1.0, 0.0]]]},
            {"word": [1], "value": [[[1.5, 0.0]]]},
            {"word": [2], "value": [[[0.0, 0.0]]]},
        ],
    }
    jsonio.dump_path(f, doc)
    code, out, err = run(capfd, "check-ortho", str(f), "--level", "0")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["worst_violation"] == pytest.approx(1.5)
    diag = json.loads(err)
    assert diag["error"] == "orthogonality-violation"
    assert diag["worst_class"] == [1]


def test_extend_refuses_a_non_positive_input_at_its_first_step(tmp_path, capfd):
    # a real F_2 function on S_2 whose Gram matrix over S_1 has least
    # eigenvalue -0.196: the sequential engine refuses it at its first step,
    # and a batched central extension must refuse it too rather than extend it
    values = {
        (): 1.0,
        (1,): 0.5639,
        (2,): 0.4583,
        (1, 1): 0.4804,
        (1, 2): 0.599,
        (1, -2): -0.0265,
        (-1, 2): 0.139,
        (-1, -2): 0.9721,
        (2, 2): 0.3399,
    }
    doc = {
        "schema": "pdfun.v1",
        "m": 2,
        "k": 1,
        "letter_order": [1, -1, 2, -2],
        "domain": {"type": "ball", "n": 2},
        "entries": [{"word": list(w), "value": [[[v, 0.0]]]} for w, v in values.items()],
    }
    f = tmp_path / "bad.json"
    jsonio.dump_path(f, doc)
    phi = pdfunction_from_json(doc)
    S1 = [E, (1,), (-1,), (2,), (-2,)]
    assert np.linalg.eigvalsh(gram(phi, S1).blocks).min() == pytest.approx(-0.196, abs=5e-4)
    code, _, err = run(capfd, "extend", str(f), "--central", "--to", "3", "-o", str(tmp_path / "e.json"))
    assert code == 1
    assert json.loads(err)["error"] == "math-failure"
    assert not (tmp_path / "e.json").exists()


def test_radialize_cli(tmp_path, capfd):
    h = tmp_path / "h.json"
    run(capfd, "haagerup", "--m", "2", "--t", "0.6", "--n", "2", "-o", str(h))
    r = tmp_path / "rad.json"
    code, _, _ = run(capfd, "radialize", str(h), "-o", str(r))
    assert code == 0
    assert r.read_bytes() == h.read_bytes()  # radial input is a fixed point


def test_factor_cli_success(tmp_path, capfd):
    f = tmp_path / "p.json"
    write_shifted_square(f)
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capfd, "factor", str(f), "-o", str(cert_path))
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-8
    cert = certificate_from_json(jsonio.load_path(cert_path))
    assert cert.residual <= 1e-8


def test_factor_cli_infeasible_and_sample(tmp_path, capfd):
    f = tmp_path / "q.json"
    p = NcPolynomial(GroupContext(1), 1, {(1,): np.array([[1.0]]), (-1,): np.array([[1.0]])})
    jsonio.dump_path(f, p.to_json_dict())
    code, _, err = run(capfd, "factor", str(f), "-o", str(tmp_path / "c.json"), "--max-iter", "800")
    assert code == 1
    diag = json.loads(err)
    assert diag["error"] == "infeasible"
    assert diag["gap"] > 0
    assert diag["separation"] < 0
    code, out, _ = run(capfd, "sample", str(f), "--trials", "100", "--seed", "3")
    assert code == 0
    assert json.loads(out)["min_eigenvalue"] <= -0.5
    for argv in (
        ["sample", str(f), "--trials", "0"],
        ["sample", str(f), "--dmax", "0"],
        ["factor", str(f), "-o", str(tmp_path / "c.json"), "--max-iter", "0"],
        ["factor", str(f), "-o", str(tmp_path / "c.json"), "--max-iter", "-3"],
    ):
        code, _, err = run(capfd, *argv)
        assert_bad_input(code, err)


def fresh_process(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command in a new interpreter."""
    src = str(Path(freepd.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "freepd.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_every_call(tmp_path, capfd):
    # the parser is built once; a usage error and then two valid calls in one
    # process each return what a new process returns
    assert build_parser() is build_parser()
    f = tmp_path / "p.json"
    write_shifted_square(f)
    for argv in (
        ["sample", str(f), "--trials", "5", "--dmax", "x"],
        ["factor", str(f), "-o", str(tmp_path / "c.json")],
        ["sample", str(f), "--trials", "50", "--seed", "1"],
    ):
        here = run(capfd, *argv)
        assert here == fresh_process(*argv)
    assert here[0] == 0
    assert json.loads(here[1])["trials"] == 50


def pinned_polynomial(m: int, c: int) -> NcPolynomial:
    """p + p* for p with seeded normal c x c coefficients on the ball of radius 2 of F_m."""
    ctx = GroupContext(m)
    rng = np.random.default_rng(10 * m + c)
    p = NcPolynomial(ctx, c, {w: rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)) for w in ball(ctx, 2)})
    return p + p.adjoint()


#: The stdout of ``sample --dmax D --seed 7`` on ``pinned_polynomial(m, c)``, keyed
#: by (m, c, D), as recorded when each Haar unitary was drawn and factored on its
#: own (numpy 2.4.6, OpenBLAS 0.3.31).
SAMPLE_STDOUT = {
    (2, 1, 3): '{"min_eigenvalue": -15.892691115472193, "trials": 200, "d_max": 3}\n',
    (2, 1, 4): '{"min_eigenvalue": -14.920150670438778, "trials": 200, "d_max": 4}\n',
    (2, 2, 3): '{"min_eigenvalue": -24.63181588444877, "trials": 200, "d_max": 3}\n',
    (2, 2, 4): '{"min_eigenvalue": -25.41842630383678, "trials": 200, "d_max": 4}\n',
    (3, 1, 3): '{"min_eigenvalue": -24.002957389004848, "trials": 200, "d_max": 3}\n',
    (3, 1, 4): '{"min_eigenvalue": -24.59818508305979, "trials": 200, "d_max": 4}\n',
}


def sample_pinned(tmp_path, capfd, m: int, c: int, dmax: int) -> tuple[int, str, str]:
    f = tmp_path / "p.json"
    jsonio.dump_path(f, pinned_polynomial(m, c).to_json_dict())
    return run(capfd, "sample", str(f), "--dmax", str(dmax), "--seed", "7")


@pytest.mark.parametrize("m, c, dmax", sorted(SAMPLE_STDOUT))
def test_sample_prints_the_pinned_bytes(tmp_path, capfd, m, c, dmax):
    assert sample_pinned(tmp_path, capfd, m, c, dmax) == (0, SAMPLE_STDOUT[m, c, dmax], "")


def test_sample_prints_the_pinned_bytes_one_trial_per_chunk(tmp_path, capfd):
    with mock.patch.object(ncpoly, "_SAMPLE_CHUNK", 1):
        assert sample_pinned(tmp_path, capfd, 2, 2, 4) == (0, SAMPLE_STDOUT[2, 2, 4], "")


def test_factor_linalg_failure_is_a_math_failure(tmp_path, capfd):
    f = tmp_path / "p.json"
    write_shifted_square(f)
    failure = np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    with mock.patch("freepd.cli.factor_sos", side_effect=failure):
        code, _, err = run(capfd, "factor", str(f), "-o", str(tmp_path / "c.json"))
    assert code == 1
    assert json.loads(err) == {"error": "math-failure", "detail": str(failure)}


def test_factor_refuses_a_gram_problem_above_the_ball_cap(tmp_path, capfd):
    # the Gram index of a degree-7 polynomial over F_3 is S_4, whose
    # differences span S_8 (585,937 words): refused before the first iteration
    w = (1, 2, 3, 1, 2, 3, 1)
    p = NcPolynomial(GroupContext(3), 1, {E: [[2.0]], w: [[0.5]], inverse(w): [[0.5]]})
    f = tmp_path / "p.json"
    jsonio.dump_path(f, p.to_json_dict())
    with mock.patch("freepd.ncpoly._psd_clip", side_effect=AssertionError("the search started")):
        code, _, err = run(capfd, "factor", str(f), "-o", str(tmp_path / "c.json"))
    assert_bad_input(code, err)
    assert "ball of radius 8 in F_3 has 585937 words" in json.loads(err)["detail"]


def test_extend_flag_conflict(tmp_path, capfd):
    h = tmp_path / "h.json"
    run(capfd, "haagerup", "--m", "2", "--t", "0.6", "--n", "1", "-o", str(h))
    out = tmp_path / "x.json"
    for flags in (
        ["--central", "--params", str(h)],
        ["--central", "--random-oracle", "--seed", "1"],
        ["--params", str(h), "--random-oracle"],
    ):
        code, _, err = run(capfd, "extend", str(h), "--to", "2", *flags, "-o", str(out))
        assert_bad_input(code, err)
        assert "not allowed with" in json.loads(err)["detail"]
        assert not out.exists()


def test_custom_letter_order(tmp_path, capfd):
    h = tmp_path / "h.json"
    code, _, _ = run(
        capfd, "haagerup", "--m", "2", "--t", "0.7", "--n", "1", "--order", "2,-2,1,-1", "-o", str(h)
    )
    assert code == 0
    assert jsonio.load_path(h)["letter_order"] == [2, -2, 1, -1]


def test_bad_header_is_bad_input(tmp_path, capfd):
    h = tmp_path / "h.json"
    run(capfd, "haagerup", "--m", "2", "--t", "0.6", "--n", "1", "-o", str(h))
    header = {"m": "x", "k": 1, "letter_order": [1, -1, 2, -2]}
    params = tmp_path / "params.json"
    jsonio.dump_path(params, {"schema": "params.v1", **header, "from_n": 1, "to_n": 2, "params": []})
    code, _, err = run(capfd, "extend", str(h), "--to", "2", "--params", str(params), "-o", str(tmp_path / "x.json"))
    assert_bad_input(code, err)
    trace = {"schema": "trace.v1", **header, "start_n": 1, "steps": []}
    with pytest.raises(jsonio.SchemaError):
        trace_from_json(trace)
    # a huge m is refused by the letter count alone, before any letter set is built
    pdfun = jsonio.load_path(h)
    pdfun["m"] = 10**12
    jsonio.dump_path(h, pdfun)
    code, _, err = run(capfd, "verify", str(h))
    assert_bad_input(code, err)
    # a ball far above the enumeration cap is refused, not walked class by class
    pdfun.update(m=2, domain={"type": "ball", "n": 40}, entries=[{"word": [], "value": [[[1.0, 0.0]]]}])
    jsonio.dump_path(h, pdfun)
    code, _, err = run(capfd, "verify", str(h))
    assert_bad_input(code, err)


def test_pdfun_word_listed_twice_is_bad_input(tmp_path, capfd):
    h = tmp_path / "h.json"
    run(capfd, "haagerup", "--m", "2", "--t", "0.6", "--n", "1", "-o", str(h))
    doc = jsonio.load_path(h)
    for value in ([[[0.1, 0.0]]], doc["entries"][1]["value"]):  # conflicting, then equal
        twice = {**doc, "entries": [*doc["entries"], {"word": doc["entries"][1]["word"], "value": value}]}
        jsonio.dump_path(h, twice)
        code, _, err = run(capfd, "verify", str(h))
        assert_bad_input(code, err)
        assert json.loads(err)["detail"] == "'entries' lists the word [1] twice"


def replay_with_params(tmp_path, capfd, edit) -> tuple[int, str]:
    """Exit code and stderr of ``extend --params`` from a params.v1 file changed by ``edit``."""
    h, ext, params = (tmp_path / name for name in ("h.json", "ext.json", "params.json"))
    run(capfd, "haagerup", "--m", "2", "--t", "0.6", "--n", "1", "-o", str(h))
    run(capfd, "extend", str(h), "--to", "2", "--random-oracle", "--seed", "3", "-o", str(ext))
    run(capfd, "params", str(ext), "--from", "1", "-o", str(params))
    doc = jsonio.load_path(params)
    edit(doc)
    jsonio.dump_path(params, doc)
    code, _, err = run(capfd, "extend", str(h), "--to", "2", "--params", str(params), "-o", str(tmp_path / "x.json"))
    return code, err


def test_params_class_named_twice_is_bad_input(tmp_path, capfd):
    # the class {a1 a2, a2^-1 a1^-1}, named by its representative and then by
    # either member with another parameter
    for word in ([1, 2], [-2, -1]):
        code, err = replay_with_params(
            tmp_path, capfd, lambda doc: doc["params"].append({"class": word, "gamma": [[[0.0, 0.0]]]})
        )
        assert_bad_input(code, err)
        assert json.loads(err)["detail"] == "'params' names the class of (1, 2) twice"


def test_params_radii_are_non_negative_integers(tmp_path, capfd):
    for key in ("from_n", "to_n"):
        for value in ("x", True, -1, 1.0, None):
            code, err = replay_with_params(tmp_path, capfd, lambda doc: doc.update({key: value}))
            assert_bad_input(code, err)
            assert json.loads(err)["detail"] == (
                f"{key!r} must be a non-negative integer, got {value!r}"
            )


#: Flag values that reach the program as text, invalid or at a boundary.
ODD_VALUES = ("nan", "inf", "-inf", "-1", "0", "-1e-8", "1e-8", "x")

#: The same for a radius, a generator count or a unitary dimension, which may also be huge.
ODD_SIZES = (*ODD_VALUES, "1000000000000")

#: What a mutated JSON document may hold in place of one of its values.
JUNK = (None, True, "x", -1, 0, 1, 2, 10**12, 0.5, float("nan"), [], {}, [0], [[[1.0, 0.0]]], [1, -1, 2, -2])


@functools.cache
def fuzz_documents() -> dict[str, str]:
    """Valid small inputs, as text: Haagerup on S_1 of F_2, its central extension to S_2,
    the parameters of that extension, and a positive ncpoly.v1."""
    phi = haagerup(GroupContext(2), 1, 0.7, 1)
    ext, _ = extend_to_ball(phi, 2)
    params = params_to_json(phi.ctx, 1, 1, 2, extract_params(ext, 1))
    docs = {
        "base": phi.to_json_dict(),
        "ext": ext.to_json_dict(),
        "params": params,
        "ncpoly": shifted_square().to_json_dict(),
    }
    return {name: jsonio.dumps(doc) for name, doc in docs.items()}


def mutated(data, text: str) -> str:
    """The document as it is (half of the time), truncated, or with one value replaced or deleted."""
    how = data.draw(st.sampled_from(("keep", "keep", "keep", "truncate", "replace", "delete")))
    if how == "keep":
        return text
    if how == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    slots = []  # (container, key) for every value inside the document

    def walk(node):
        keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            slots.append((node, key))
            walk(node[key])

    walk(doc)
    node, key = data.draw(st.sampled_from(slots))
    if how == "delete":
        del node[key]
    else:
        node[key] = data.draw(st.sampled_from(JUNK))
    return json.dumps(doc)


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_cli_fuzz_exits_cleanly(tmp_path_factory, data):
    # every command, on mutated inputs and odd flag values: exit 0, 1 or 2, never a
    # traceback or a warning; a failure leaves exactly one JSON line on stderr
    tmp = tmp_path_factory.getbasetemp() / "fuzz"
    tmp.mkdir(exist_ok=True)
    out = str(tmp / "out.json")

    def source(*names):
        """A path to one of the named documents, mutated, or to no file."""
        name = data.draw(st.sampled_from(names * 3 + ("missing", "directory")))
        if name == "directory":
            return str(tmp)
        path = tmp / f"{name}.json"
        if name != "missing":
            path.write_text(mutated(data, fuzz_documents()[name]))
        return str(path)

    def flag(name, *good, odd=ODD_VALUES):
        """The flag with a valid value, with an odd one (one time in eight), or absent (likewise)."""
        pick = data.draw(st.integers(0, 7))
        if pick == 7:
            return []
        return [name, data.draw(st.sampled_from(odd if pick == 6 else good))]

    pdfun = ("base", "ext")
    command = data.draw(
        st.sampled_from(("verify", "extend", "params", "check-ortho", "haagerup", "radialize", "factor", "sample"))
    )
    if command == "verify":
        argv = ["verify", source(*pdfun), *flag("--tol", "1e-10", "0.5")]
    elif command == "extend":
        mode = data.draw(st.sampled_from(([], ["--central"], ["--random-oracle"], ["--params", source("params")])))
        argv = ["extend", source(*pdfun), *mode, *flag("--to", "2", "3", odd=ODD_SIZES), *flag("--seed", "0", "5")]
        argv += [*flag("--tol", "1e-10"), "-o", out]
        if data.draw(st.booleans()):
            argv += ["--trace", str(tmp / "trace.json")]
    elif command == "params":
        argv = ["params", source(*pdfun), *flag("--from", "0", "1", "2", odd=ODD_SIZES), *flag("--tol", "1e-10"), "-o", out]
    elif command == "check-ortho":
        argv = ["check-ortho", source(*pdfun), *flag("--level", "0", "1", odd=ODD_SIZES), *flag("--tol", "1e-8")]
    elif command == "haagerup":
        argv = ["haagerup", *flag("--m", "1", "2", odd=ODD_SIZES), *flag("--k", "1", "2"), *flag("--t", "0.5", "3")]
        argv += [*flag("--n", "0", "1", "2", odd=ODD_SIZES), "-o", out]
        if data.draw(st.booleans()):
            argv += ["--order", data.draw(st.sampled_from(("2,-1,-2,1", "1,-1", "1,1,-2,2", "x", "")))]
    elif command == "radialize":
        argv = ["radialize", source(*pdfun), "-o", out]
    elif command == "factor":
        # --max-iter is always given and small, so an infeasible input stops early
        max_iter = data.draw(st.sampled_from(("-1", "0", "1", "20", "x")))
        argv = ["factor", source("ncpoly"), *flag("--tol", "1e-6"), "--max-iter", max_iter, "-o", out]
    else:
        argv = ["sample", source("ncpoly"), *flag("--trials", "5"), *flag("--dmax", "1", "2", odd=ODD_SIZES)]
        argv += flag("--seed", "0", "3")
    stdout, stderr = io.StringIO(), io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(stdout),
        contextlib.redirect_stderr(stderr),
    ):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    for line in stdout.getvalue().splitlines():
        json.loads(line, parse_constant=_no_constants)
    if code:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert "error" in json.loads(lines[0], parse_constant=_no_constants)
    else:
        assert stderr.getvalue() == ""

import math

import numpy as np
import pytest

from freepd.extend import extend_to_ball, zero_oracle
from freepd.pdfun import verify_pd
from freepd.quasimult import GeneratorAssignment, as_pdfunction, haagerup, quasi_mult
from freepd.sampling import random_contraction
from freepd.words import E, GroupContext, ball, mul

CTX2 = GroupContext(2)
RNG = np.random.default_rng(31)


def test_quasi_mult_examples():
    t = 0.7
    g = GeneratorAssignment(CTX2, 1, (np.array([[math.exp(-t)]]), np.array([[math.exp(-t)]])))
    for w in ball(CTX2, 3):
        assert np.allclose(quasi_mult(g, w), math.exp(-t * len(w)))
    assert np.allclose(quasi_mult(g, E), 1.0)

    B1 = np.array([[0.5, 0.3], [0.0, 0.5]])
    B2 = random_contraction((2, 2), RNG, norm=0.8)
    gb = GeneratorAssignment(CTX2, 2, (B1, B2))
    assert np.allclose(quasi_mult(gb, (1, 2)), B1 @ B2)
    assert np.allclose(quasi_mult(gb, (-1,)), B1.conj().T)


def test_norm_violation_rejected():
    with pytest.raises(ValueError, match="norm"):
        GeneratorAssignment(CTX2, 1, (np.array([[1.5]]), np.array([[0.5]])))
    with pytest.raises(ValueError):
        GeneratorAssignment(CTX2, 1, (np.array([[0.5]]),))


def test_generator_norm_slack_is_renormalized():
    # an overshoot of 1e-13 is rounding noise and is scaled back to norm 1; 1e-11 is refused
    g = GeneratorAssignment(CTX2, 1, (np.array([[1.0 + 1e-13]]), np.array([[0.5]])))
    assert np.linalg.norm(g.blocks[0], 2) <= 1.0
    with pytest.raises(ValueError, match="norm"):
        GeneratorAssignment(CTX2, 1, (np.array([[1.0 + 1e-11]]), np.array([[0.5]])))


def test_generator_blocks_are_copied_before_they_are_frozen():
    mine = np.array([[0.5 + 0j]])
    g = GeneratorAssignment(CTX2, 1, (mine, np.array([[0.5]])))
    assert mine.flags.writeable
    assert not g.blocks[0].flags.writeable
    mine[0, 0] = 0.25
    assert g.blocks[0][0, 0] == 0.5


def test_quasi_multiplicativity_when_lengths_add():
    blocks = tuple(random_contraction((2, 2), RNG, norm=0.9) for _ in range(2))
    g = GeneratorAssignment(CTX2, 2, blocks)
    words = ball(CTX2, 2)
    for s in words:
        for t in words:
            if len(mul(s, t)) == len(s) + len(t):
                # same factors, different association order: equal to rounding
                lhs = quasi_mult(g, mul(s, t))
                rhs = quasi_mult(g, s) @ quasi_mult(g, t)
                assert np.abs(lhs - rhs).max() <= 1e-14


def test_positivity_on_S4():
    for i in range(4):
        k = 1 + i % 2
        blocks = tuple(random_contraction((k, k), RNG, norm=RNG.uniform(0.5, 0.95)) for _ in range(2))
        g = GeneratorAssignment(CTX2, k, blocks)
        assert verify_pd(as_pdfunction(g, 4)).ok


def test_haagerup_examples():
    t = math.log(2.0)
    phi = haagerup(CTX2, 1, t, 2)
    for w in ball(CTX2, 2):
        assert np.allclose(phi.value(w), 0.5 ** len(w))
    # large decay approaches the delta at the unit
    sharp = haagerup(CTX2, 1, 20.0, 2)
    for w in ball(CTX2, 2):
        if w != E:
            assert np.abs(sharp.value(w)).max() <= 1e-8
    with pytest.raises(ValueError):
        haagerup(CTX2, 1, 0.0, 2)
    with pytest.raises(ValueError):
        haagerup(CTX2, 1, -1.0, 2)


def test_haagerup_positive_definite():
    for t in (0.1, 1.0, 5.0):
        assert verify_pd(haagerup(CTX2, 1, t, 2)).ok


def test_central_extension_reproduces_quasimult_scalar():
    for r in (0.3, 0.7):
        g = GeneratorAssignment(CTX2, 1, (np.array([[r]]), np.array([[r]])))
        ext, _ = extend_to_ball(as_pdfunction(g, 1), 4, zero_oracle)
        for w in ball(CTX2, 4):
            assert np.abs(ext.value(w) - r ** len(w)).max() <= 1e-8

"""Factoring positive noncommutative polynomials as sums of squares.

A polynomial in unitary indeterminates is positive when every unitary
substitution yields a PSD operator.  Positivity is certified by a PSD
Gram matrix over the ball of radius ceil(degree / 2), factored as
G = B* B to give p = q* q; slicing the factor rows gives a sum of
squares.  When no certificate exists, the search stops on a positive
definite function that pairs negatively with p, which disproves
positivity; random unitary sampling gives independent negative evidence.
"""

import numpy as np

from freepd import (
    E,
    GroupContext,
    InfeasibleReport,
    NcPolynomial,
    ball,
    eval_unitaries,
    factor_sos,
    sample_positivity,
    split_squares,
)

ctx = GroupContext(1)

p = NcPolynomial(ctx, 1, {E: [[2.0]], (1,): [[1.0]], (-1,): [[1.0]]})
print("p = 2 + X + X^-1  (equals (1 + X)*(1 + X))")
print("  p(U) at U = -1:", eval_unitaries(p, [np.array([[-1.0]])])[0, 0].real)
print("  sampled min eigenvalue:", f"{sample_positivity(p, 200, 3, seed=0):.2e}")

cert = factor_sos(p, tol=1e-8)
print("  certificate residual:", f"{cert.residual:.2e}",
      "| Gram rank:", cert.rank, "| iterations:", cert.iterations)
q = split_squares(cert)
print("  number of squares:", len(q))

print("\na planted block example over F_2:")
ctx2 = GroupContext(2)
rng = np.random.default_rng(8)
q0 = NcPolynomial(ctx2, 2, {w: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                            for w in ball(ctx2, 1)})
p2 = q0.adjoint() * q0
cert2 = factor_sos(p2, tol=1e-6)
print("  degree:", p2.degree, "| residual:", f"{cert2.residual:.2e}",
      "| Gram rank:", cert2.rank)
qs = split_squares(cert2)
total = qs[0].adjoint() * qs[0]
for Q in qs[1:]:
    total = total + Q.adjoint() * Q
print("  re-summed squares match p:", f"{(p2 - total).max_coefficient_norm():.2e}")

print("\nan indefinite polynomial is refused by a separating positive definite function:")
bad = NcPolynomial(ctx, 1, {(1,): [[1.0]], (-1,): [[1.0]]})
result = factor_sos(bad, tol=1e-8, max_iter=1500)
assert isinstance(result, InfeasibleReport) and result.witness is not None
print("  stopped at iteration:", result.iterations,
      "| <p, phi'>:", f"{result.separation:.3f}",
      "| sampled min eigenvalue:", f"{sample_positivity(bad, 200, 3, seed=1):.3f}")

"""One-missing-entry positive completion, parametrized by a contraction.

A Hermitian matrix with one unknown off-diagonal pair has PSD completions
exactly when both specified maximal principal submatrices are PSD.  The
completions form a matrix ball: central value plus defect factors times a
contraction gamma.  gamma = 0 is the central (maximum-entropy-like)
choice; unit-norm gamma lands on the boundary of the PSD cone.
"""

import numpy as np

from freepd import PartialBlockMatrix, analyze, complete, extract_gamma

# the hidden pair is the last two blocks: entries (1, 2) and (2, 1) are unknown
A = np.array(
    [
        [1.0, 0.5, 0.5],
        [0.5, 1.0, 0.0],
        [0.5, 0.0, 1.0],
    ],
    dtype=complex,
)
P = PartialBlockMatrix(A, k=1)

dd = analyze(P)
print("central entry      :", dd.central[0, 0].real)
print("defect factors     :", abs(dd.defect_k[0, 0]), abs(dd.defect_l[0, 0]))

print("\nsweep of the completion parameter gamma:")
for g in (-1.0, -0.5, 0.0, 0.5, 1.0):
    filled = complete(P, np.array([[g]]))
    eigs = np.linalg.eigvalsh(P.completed_with(filled))
    print(
        f"  gamma = {g:+.1f} -> entry {filled[0, 0].real:+.3f}, "
        f"eigenvalues {np.round(eigs, 3)}"
    )

print("\nthe correspondence inverts: completions map back to their gamma")
g0 = np.array([[0.37 + 0.21j]])
print("  planted gamma    :", g0[0, 0])
print("  extracted gamma  :", extract_gamma(P, complete(P, g0))[0, 0])

print("\na contraction of norm > 1 leaves the PSD cone:")
bad = dd.central + dd.defect_k.conj().T @ np.array([[1.3]]) @ dd.defect_l
print("  min eigenvalue at gamma = 1.3:", np.linalg.eigvalsh(P.completed_with(bad)).min())

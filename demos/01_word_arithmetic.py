"""Words in the free group, lexicographic classes, and tree geometry.

The free group F_m is indexed by reduced words: tuples of nonzero
integers where +i means the i-th generator and -i its inverse.  Its
Cayley graph is a tree, and everything downstream (Gram matrices,
completions, extensions) is organized along that tree.
"""

from freepd import (
    ClassCursor,
    E,
    GroupContext,
    ball,
    classes_up_to,
    distance,
    inverse,
    mul,
    sigma_set,
    tree_median,
)

ctx = GroupContext(2)  # F_2 with the order a1 < a1^-1 < a2 < a2^-1

print("products reduce automatically:")
print("  (a1 a2)(a2^-1 a1) =", mul((1, 2), (-2, 1)))
print("  (a1 a2)(a2 a1)^-1 =", mul((1, 2), inverse((2, 1))))

print("\nball sizes |S_n| for m = 2:", [len(ball(ctx, n)) for n in range(5)])

print("\nthe first ten classes {s, s^-1} in lexicographic order:")
cur = ClassCursor(E, ctx)
for _ in range(10):
    print("  ", cur.rep, "->", cur.members())
    cur = cur.successor()

print("\ntree distances: d(s, t) = |s^-1 t|")
for s, t in [(E, (1, 2)), ((1,), (1, 2)), ((1,), (-1,))]:
    print(f"  d({s}, {t}) = {distance(s, t)}")

print("\nthe median of three vertices lies on all three geodesics:")
print("  median(e, a1 a2, a1 a2^-1) =", tree_median(E, (1, 2), (1, -2)))

print("\nwords within distance 2 of both e and a1 a2 a1 (a one-step gap):")
print("  ", sigma_set(ctx, E, (1, 2, 1)))

print("\nclasses up to length 2:", [c.rep for c in classes_up_to(ctx, 2)])

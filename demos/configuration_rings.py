"""Tour of the non-equivariant configuration rings.

Run with:  python3 demos/configuration_rings.py
"""

from equiconf import confring, oracles

# H*(Conf_k(R^n)) is generated by classes x_ij of degree n-1, one per ordered
# pair of points, with x_ji = (-1)^n x_ij, x_ij^2 = 0, and a three-term
# relation on every triple. Products are brought into a normal form whose
# monomials have pairwise distinct larger endpoints.

print("generator symmetry depends on the ambient parity:")
print("  n = 3:  x21 ->", confring.normal_form(2, 3, [(2, 1)]))
print("  n = 4:  x21 ->", confring.normal_form(2, 4, [(2, 1)]))

print()
print("a repeated maximum rewrites via the three-term relation:")
lhs = confring.normal_form(3, 3, [(1, 3), (2, 3)])
print("  x13 * x23 =", lhs, "  (k = 3 points in R^3)")

# The same reduction can be done with no rewriting at all: span the relation
# ideal degreewise and solve a linear system. The two must agree.
print("  ideal-span oracle gives:", oracles.oracle_element(3, 3, [(1, 3), (2, 3)]))

print()
print("Poincare polynomials factor as prod_j (1 + j t^(n-1)):")
for k in (3, 4, 5):
    print(f"  Conf_{k}(R^3):", oracles.poincare_polynomial(k, 3))

print()
print("relabeling points is a ring automorphism:")
a = confring.normal_form(3, 3, [(1, 2), (1, 3)])
print("  x12*x13 under the 3-cycle (1 2 3):",
      confring.label_action((2, 3, 1), a))

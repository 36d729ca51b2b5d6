"""Walk through the scalar fields and the root combinatorics of gl(m|n).

Everything is exact: field elements are table indices, weights are
coordinate vectors, and the root system carries integral structure data
(heights, coroots, rho).
"""

from glmn import (make_field, build_algebra, Character, classify_character,
                  weight_variety)
from glmn.ffield import artin_schreier_roots

# The prime field F_5 and an extension F_25.  Elements print as little
# endian digit vectors on the power basis of a fixed irreducible modulus.
F = make_field(5)
F25 = make_field(5, 2)
print("F_25 modulus (c0, c1, c2):", F25.modulus)
x = F25.element([1, 1])  # 1 + t
print("(1 + t)^24 =", F25.format_index(F25.power(x.idx, 24)), "(must be 1)")

# Artin-Schreier equations x^p - x = c drive the weight variety: over F_5
# the equation with c = 1 has no roots, over F_{5^5} it has exactly five.
print("roots of x^5 - x = 1 over F_5:      ", artin_schreier_roots(F, 1))
F5_5 = make_field(5, 5)
print("number over F_{5^5}:                ", len(artin_schreier_roots(F5_5, 1)))

# gl(2|1): three diagonal units, two odd positive roots, one even.
alg = build_algebra(2, 1, F)
rs = alg.root_system()
print("\npositive roots of gl(2|1), ascending height:")
for r in rs.positive:
    kind = "odd " if r.parity else "even"
    print(f"  eps{r.i}-eps{r.j}  ({kind}, height {r.height}, "
          f"coroot diag {list(rs.coroot_diag(r))})")
print("rho =", list(rs.rho), " (rho(h_alpha) = 1 on every simple coroot)")

# Characters live on the even part; their vanishing pattern decides which
# pipeline applies downstream.
for values, label in [({}, "zero"),
                      ({(1, 1): 1, (2, 2): 1, (3, 3): 1}, "semisimple"),
                      ({(2, 1): 1}, "standard Levi")]:
    chi = Character(alg, values)
    print(f"\nchi = {chi!r}: {classify_character(rs, chi)}")

# The weight variety X of a nonzero semisimple character forces a field
# extension; the library extends F_5 to F_{5^5} once, where chi keeps its
# indices.
chi = Character(alg, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
alg2, chi2, weights = weight_variety(alg, chi)
print(f"\n|X| = {len(weights)} over F_{{5^{alg2.field.k}}} "
      f"(extended from F_5)")
print("first point of X:", weights[0])

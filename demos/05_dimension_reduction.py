"""The parabolic dimension reduction and standard Levi isomorphisms.

A semisimple character chi singles out Phi' = {alpha > 0 : chi(h_alpha)
!= 0}; inducing a simple module of the centralizer Levi over the parabolic
multiplies the dimension by p^{dim N_0bar} 2^{dim N_1bar} and stays
simple.  For a standard Levi character, reflections in the dot action give
explicit isomorphisms between baby Vermas.
"""

from glmn import (make_field, build_algebra, Character, Weight,
                  weight_variety, levi_data, order_phi_prime, kw_verify,
                  levi_scan, normalize_character)

F = make_field(5)

# gl(2|1), chi = diag(1,1,1): both odd coroots pair to 2, the even one to
# zero, so Phi' consists of the two odd positive roots.
alg = build_algebra(2, 1, F)
chi = Character(alg, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
alg2, chi2, weights = weight_variety(alg, chi)
rs2 = alg2.root_system()
ld = levi_data(rs2, chi2)
print("Phi' =", [r.key for r in ld.phi_prime],
      " dim N = (%d|%d)" % (ld.n_even, ld.n_odd))
print("admissible order with per-step simple systems:",
      order_phi_prime(rs2, chi2))

rep = kw_verify(alg2, chi2, weights[0])
print("\nreduction at the first weight of X:")
for key in ("dim_m_prime", "predicted_dim", "dim_m", "induced_simple",
            "chi_l_nilpotent"):
    print(f"  {key}: {rep[key]}")

# Standard Levi form: chi supported on f-vectors of simple even roots.
chi_levi = Character(alg, {(2, 1): 1})
lam = Weight(F, [3, 1, 2])
scan = levi_scan(alg, chi_levi, lam)
entry = scan["alphas"][0]
print(f"\nstandard Levi chi(E21)=1 at lambda = (3,1,2):")
print(f"  a = lambda(h_alpha) = {entry['a']}; "
      f"s_alpha . lambda = {entry['weight']}")
print(f"  induced hom rank {entry['rank']} of {scan['dim']}: "
      f"isomorphism = {entry['isomorphism']}")
print(f"  simple heads match: {entry['heads_match']}")

# Every chi is conjugate under the even group to a standard Levi form, by a
# Jordan basis of its avatar blocks: chi(E12) = 1 is nilpotent, and the
# swap of the two even basis vectors takes it to chi(E21) = 1 above.
nilpotent = Character(alg, {(1, 2): 1})
g, standard = normalize_character(alg, nilpotent)
print(f"\nnormalize {nilpotent!r}\n  ->  {standard!r} by g =")
print(g.data)
print(f"  standard Levi: {standard == chi_levi}")

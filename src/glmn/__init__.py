"""Exact computations with gl(m|n) over finite fields: reduced enveloping
algebras, (graded) baby Verma modules, simplicity criteria, and the
parabolic dimension reduction."""

__version__ = "0.1.0"

from .ffield import Field, FieldElement, make_field, artin_schreier_roots
from .linalg import Matrix, Subspace, row_reduce, kernel_basis
from .algebra import (SuperAlgebra, Character, Weight, Root, RootSystem,
                      build_algebra, supertrace, p_power, root_system,
                      reflect, weyl_move_to_simple, classify_character,
                      weight_variety)
from .enveloping import (PBWMonomial, PBWElement, ReductionContext,
                         reduction_context, normalize, multiply, ad_action,
                         hc_gamma, monomial_weight)
from .verma import (ModuleRep, SimplicityPolynomials, induce,
                    build_baby_verma, build_even_verma,
                    build_simple_g0_module, build_graded_verma, f_direct,
                    f_formula, f1_direct, maximal_vectors, induced_hom)
from .analysis import (CompositionSeries, spin, is_simple, simple_head,
                       composition_series, regular_module,
                       trivial_submodules, frobenius_gram)
from .kw import (CharacterDecomposition, LeviData, decompose_character,
                 levi_data, order_phi_prime, kw_verify, dot_action,
                 levi_scan, conjugate_character, normalize_character)

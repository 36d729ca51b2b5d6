"""Exact computations with gl(m|n) over finite fields: reduced enveloping
algebras, (graded) baby Verma modules, simplicity criteria, and the
parabolic dimension reduction.  The submodules and their public names load
on first use (PEP 562): `import glmn` imports nothing."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "ffield": "Field FieldElement make_field artin_schreier_roots",
    "linalg": "Matrix Subspace row_reduce kernel_basis",
    "algebra": "SuperAlgebra Character Weight Root RootSystem build_algebra supertrace "
               "p_power root_system reflect weyl_move_to_simple classify_character weight_variety",
    "enveloping": "PBWMonomial PBWElement ReductionContext reduction_context normalize "
                  "multiply ad_action hc_gamma monomial_weight",
    "verma": "ModuleRep SimplicityPolynomials induce build_baby_verma build_even_verma "
             "build_simple_g0_module build_graded_verma f_direct f_formula f1_direct "
             "maximal_vectors induced_hom",
    "analysis": "spin is_simple simple_head",
    "series": "CompositionSeries composition_series regular_module trivial_submodules "
              "frobenius_gram",
    "kw": "CharacterDecomposition LeviData decompose_character levi_data order_phi_prime "
          "kw_verify dot_action levi_scan levi_scans conjugate_character normalize_character",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "checks", "cli", "errors"}
__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})

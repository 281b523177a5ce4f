"""Numerical harmonic analysis on concrete compact groups.

Builds finite, circle, and SU(2) group models with explicit Haar quadrature,
their irreducible-representation catalogs and Peter-Weyl bases, and the
machinery around not-necessarily-complete orthonormal families: omission
families with Riemann-Lebesgue tail bounds, weighted semi-Fourier expansion
and its defect, Parseval-equality membership, the matrix-sequence coefficient
space, and lifts of circle families to a truncated K*A*N model.

The package is lazy (PEP 562): ``import grouplab`` loads neither numpy nor
any submodule, and never touches ``os.environ``.  Each public name below is
looked up in its submodule on first use, so ``grouplab.build_catalog`` is
``grouplab.catalog.build_catalog``.  The lazy import is what lets the CLI
(``grouplab.cli``) choose BLAS settings before numpy first loads.
"""

import importlib

__version__ = "0.1.0"

#: Each submodule -> the public names the package takes from it.
_PUBLIC = {
    "_kernels": ("backend_name",),
    "catalog": ("IrrepLabel", "RepCatalog", "build_catalog", "matrix_coefficient", "peter_weyl_basis"),
    "fourier": ("fourier_transform", "synthesize"),
    "groups": (
        "GroupModel",
        "circle_group",
        "cyclic_group",
        "dihedral_group",
        "haar_integrate",
        "make_group",
        "su2_group",
        "symmetric_group",
    ),
    "hilbert": (
        "ExpansionWeights",
        "L2Function",
        "OrthonormalFamily",
        "coefficients",
        "diag_reciprocal_weights",
        "expand",
        "inner",
        "parseval_defect",
        "project",
        "random_function",
        "unit_weights",
    ),
    "iwasawa": ("IwasawaModel", "LiftedFamily", "check_K_semicomplete", "lift_family", "make_iwasawa_model"),
    "parseval": (
        "MatrixSequence",
        "MembershipVerdict",
        "block_decompose",
        "hs_inner",
        "inverse_H",
        "isometry_defect",
        "membership",
        "transform_H",
    ),
    "semicomplete": (
        "OmissionSpec",
        "SemicompletenessReport",
        "build_riemann_lebesgue_family",
        "choose_omissions",
        "omission_tail_bound",
        "semi_fourier_expand",
        "semicompleteness_defect",
        "validate_weights",
    ),
}
#: Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

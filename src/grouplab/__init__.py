"""Numerical harmonic analysis on concrete compact groups.

Builds finite, circle, and SU(2) group models with explicit Haar quadrature,
their irreducible-representation catalogs and Peter-Weyl bases, and the
machinery around not-necessarily-complete orthonormal families: omission
families with Riemann-Lebesgue tail bounds, weighted semi-Fourier expansion
and its defect, Parseval-equality membership, the matrix-sequence coefficient
space, and lifts of circle families to a truncated K*A*N model.
"""

from ._kernels import backend_name
from .catalog import IrrepLabel, RepCatalog, build_catalog, matrix_coefficient, peter_weyl_basis
from .fourier import fourier_transform, synthesize
from .groups import (
    GroupModel,
    circle_group,
    cyclic_group,
    dihedral_group,
    haar_integrate,
    make_group,
    su2_group,
    symmetric_group,
)
from .hilbert import (
    ExpansionWeights,
    L2Function,
    OrthonormalFamily,
    coefficients,
    diag_reciprocal_weights,
    expand,
    inner,
    parseval_defect,
    project,
    random_function,
    unit_weights,
)
from .iwasawa import (
    IwasawaModel,
    LiftedFamily,
    check_K_semicomplete,
    lift_family,
    make_iwasawa_model,
)
from .parseval import (
    MatrixSequence,
    MembershipVerdict,
    block_decompose,
    hs_inner,
    inverse_H,
    isometry_defect,
    membership,
    transform_H,
)
from .semicomplete import (
    OmissionSpec,
    SemicompletenessReport,
    build_riemann_lebesgue_family,
    choose_omissions,
    omission_tail_bound,
    semi_fourier_expand,
    semicompleteness_defect,
    validate_weights,
)

__version__ = "0.1.0"

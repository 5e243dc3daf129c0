"""jetjac: exact jet-scheme computations over Q and prime fields.

Computes Hasse-Schmidt derivation components of polynomials, the
equations of jet schemes of hypersurfaces, classical and higher-order
Jacobian matrices together with their block extensions, exact ranks and
determinantal minors, and rank-based singularity certificates.
"""

from .field import (
    BadCharacteristic,
    BadCoordinate,
    BadFieldSelector,
    CharacteristicTooLarge,
    DivisionByZero,
    DomainError,
    FieldElement,
    FieldError,
    FieldSpec,
    MixedFields,
    is_prime,
)
from .hasse import (
    BadJetOrder,
    CommutationReport,
    HSExpansion,
    NotBasePolynomial,
    TooManyTerms,
    check_commutation,
    hs_components,
    hs_values,
    jet_series,
)
from .jacobian import (
    BadDifferentialOrder,
    EmptyIndexFamily,
    EmptyInput,
    IndexFamilies,
    JacmMatrix,
    PolyMatrix,
    ShapeMismatch,
    TooManyCells,
    TooManyMultiIndices,
    exponent_vectors,
    index_families,
    jac,
    jac_m,
    taylor_coefficients,
)
from .jetmatrix import (
    DnMatrix,
    FdbdReport,
    check_fdbd,
    dn_matrix,
    jet_jacobian,
    reverse_blocks,
)
from .jetscheme import (
    CokernelReport,
    ConstantPolynomial,
    FreeRankComparison,
    JetSchemeDesc,
    NobileCertificate,
    NoSmoothPointFound,
    NotBasePoint,
    NotSingularBase,
    PointNotOnScheme,
    Presentation,
    RankReport,
    RankTooLong,
    extend_to_jet,
    find_smooth_point,
    generic_cokernel_rank,
    higher_rank_test,
    jet_equations,
    nobile_certificate,
    on_jet_scheme,
    presentation_of,
    rank_counterexample_check,
    zero_jet_over,
)
from .linalg import (
    BadMinorSize,
    BadTrialCount,
    MinorSet,
    NotSquare,
    ScalarMatrix,
    TooManyMinorTerms,
    TooManyMinors,
    eval_matrix,
    generic_rank,
    minors,
    poly_det,
    rank,
    rank_at,
)
from .poly import (
    BadBaseCount,
    BadExponent,
    BadPower,
    CoefficientTooLong,
    JetVariable,
    MalformedMonomial,
    MissingCoordinate,
    MultiIndex,
    ParseError,
    Point,
    Polynomial,
    UnknownVariable,
    WrongCoordinateCount,
    jet_grid,
    parse_poly,
    parse_polys,
)

__version__ = "0.1.0"

"""Named domain errors of the library calls that no CLI input reaches:
each raises its class, a DomainError, with its message."""

import pytest

from jetjac import (
    BadDifferentialOrder,
    BadJetOrder,
    BadTrialCount,
    DomainError,
    EmptyIndexFamily,
    FieldSpec,
    MissingCoordinate,
    MixedFields,
    NoSmoothPointFound,
    Point,
    PointNotOnScheme,
    Polynomial,
    extend_to_jet,
    find_smooth_point,
    generic_cokernel_rank,
    jet_jacobian,
    nobile_certificate,
    parse_poly,
    presentation_of,
    taylor_coefficients,
)

from _corpus import Q

GF101 = FieldSpec.prime_field(101)
CUSP = parse_poly("x1^3 - x2^2", 2, Q)

CASES = {
    "presentation_m0": (lambda: presentation_of(CUSP, 1, 0), BadDifferentialOrder, "m must be >= 1"),
    "presentation_negative_n": (lambda: presentation_of(CUSP, -1, 1), BadJetOrder, "n must be >= 0"),
    "presentation_constant": (
        lambda: presentation_of(Polynomial.constant(Q, 1), 1, 1),
        EmptyIndexFamily,
        "need s >= 1 and m >= 1",
    ),
    "extend_short_base": (
        lambda: extend_to_jet(CUSP, Point.from_base([1], Q), 2),
        MissingCoordinate,
        "base coordinate x2 is not assigned",
    ),
    "extend_off_the_curve": (
        lambda: extend_to_jet(CUSP, Point.from_base([1, 2], Q), 2),
        PointNotOnScheme,
        "the base point is not on the hypersurface",
    ),
    "smooth_point_of_a_constant": (
        lambda: find_smooth_point(parse_poly("3", 2, Q)),
        NoSmoothPointFound,
        "the equation has no variables to solve for",
    ),
    "cokernel_no_trials": (
        lambda: generic_cokernel_rank(presentation_of(CUSP, 1, 2), trials=0),
        BadTrialCount,
        "trials must be >= 1",
    ),
    "certificate_short_base": (
        lambda: nobile_certificate(CUSP, 1, 2, Point.from_base([0], Q)),
        MissingCoordinate,
        "base point assigns no value to x2",
    ),
    "certificate_base_over_gf101": (
        lambda: nobile_certificate(CUSP, 1, 2, Point.from_base([0, 0], GF101)),
        MixedFields,
        "point over Fp:101, polynomial over Q",
    ),
    "jet_jacobian_negative_n": (lambda: jet_jacobian([CUSP], -1), BadJetOrder, "n must be >= 0"),
    "taylor_pass_without_coordinates": (
        lambda: taylor_coefficients(CUSP, {}, 2, 1),
        MissingCoordinate,
        "point assigns no value to x1",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_raises_its_named_domain_error(name):
    call, error, message = CASES[name]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert isinstance(caught.value, DomainError)
    assert str(caught.value) == message

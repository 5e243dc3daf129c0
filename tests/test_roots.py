"""Root finding over GF(p) and Q for smooth-point sampling.

`_linear_power` is checked against repeated products by x + delta, each
reduced by `_divmod`, `_residue_roots` against the residue scan in
`_oracles` and `_rational_roots` against the divisor search there (and
sympy), and `find_smooth_point` against points recorded from the
scan-based sampler over GF(p) and the divisor search over Q, so the
root order and with it every seeded output stay fixed; its slope test
at a root is checked at multiple roots, and by the partials it builds.
Its lines through a singular base are checked for smooth points, for
solving each linear h with no root finder, and for the one budget they
share with the coordinate trials; the coordinate trials' univariates,
for the term cap counted before the first of them.
"""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetjac import (
    FieldSpec,
    JetVariable,
    MissingCoordinate,
    MixedFields,
    NoSmoothPointFound,
    Point,
    Polynomial,
    TooManyTerms,
    find_smooth_point,
    hasse,
    jetscheme,
    nobile_certificate,
    parse_poly,
)
from jetjac.linalg import trial_rng
from jetjac.roots import _divmod, _linear_power, _rational_roots, _residue_roots

from _oracles import multiplicity, rational_roots_divisors, residue_roots_scan

SMALL_PRIMES = (2, 3, 5, 7)
PRIMES = SMALL_PRIMES + (101, 32003)

SEEDS = (0, 1, 2, "a:7", 12345)

# base coordinates of find_smooth_point(f, seed) for each seed in SEEDS,
# recorded over GF(p) from the sampler that scanned every residue and
# over Q (p = 0) from the rational root search over divisor pairs; None
# means NoSmoothPointFound (x1^5 - x1 + x2^3 - x2 - 1 has no points over
# GF(2) or GF(3), and none of the sampled restrictions has a rational root)
RECORDED_POINTS = {
    (0, "x1^3 - x2^2"): [(1, 1), (1, 1), (4, 8), (4, 8), (4, -8)],
    (0, "x1^3 - x2^2 + x1*x2*x3 + x3^4"): [(5, -9, 1), (8, -19, 1), (-8, 16, -4), (-4, 8, 4), (8, 19, -1)],
    (0, "x1^5 - x1 + x2^3 - x2 - 1"): [None, None, None, None, None],
    (0, "x1*x2 - x2^2*x1^2"): [(0, 1), (0, -4), (0, -4), (0, 8), (0, -8)],
    (2, "x1^3 - x2^2"): [(1, 1), (1, 1), (1, 1), (1, 1), (1, 1)],
    (2, "x1^3 - x2^2 + x1*x2*x3 + x3^4"): [(1, 1, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 1)],
    (2, "x1^5 - x1 + x2^3 - x2 - 1"): [None, None, None, None, None],
    (2, "x1*x2 - x2^2*x1^2"): [(0, 1), (1, 0), (1, 0), (0, 1), (1, 0)],
    (3, "x1^3 - x2^2"): [(1, 1), (1, 1), (1, 2), (1, 2), (1, 2)],
    (3, "x1^3 - x2^2 + x1*x2*x3 + x3^4"): [(1, 1, 0), (2, 0, 1), (2, 0, 2), (0, 2, 1), (2, 0, 1)],
    (3, "x1^5 - x1 + x2^3 - x2 - 1"): [None, None, None, None, None],
    (3, "x1*x2 - x2^2*x1^2"): [(0, 1), (1, 0), (1, 0), (0, 2), (1, 0)],
    (101, "x1^3 - x2^2"): [(24, 47), (9, 27), (25, 24), (30, 72), (58, 9)],
    (101, "x1^3 - x2^2 + x1*x2*x3 + x3^4"): [(15, 47, 4), (74, 17, 45), (68, 24, 74), (77, 72, 58), (0, 9, 3)],
    (101, "x1^5 - x1 + x2^3 - x2 - 1"): [(28, 85), (29, 27), (3, 24), (100, 20), (74, 9)],
    (101, "x1*x2 - x2^2*x1^2"): [(0, 47), (0, 27), (0, 24), (0, 72), (0, 9)],
    (32003, "x1^3 - x2^2"): [(2040, 12224), (13846, 7100), (26161, 6398), (24397, 18619), (20524, 2480)],
    (32003, "x1^3 - x2^2 + x1*x2*x3 + x3^4"): [
        (6203, 12224, 1268), (5844, 7100, 25493), (5920, 24622, 10109), (12215, 18619, 27916), (8336, 2480, 800),
    ],
    (32003, "x1^5 - x1 + x2^3 - x2 - 1"): [(22897, 12224), (8709, 7100), (7402, 6398), (31261, 26438), (28484, 2480)],
    (32003, "x1*x2 - x2^2*x1^2"): [(0, 12224), (0, 7100), (0, 6398), (0, 18619), (0, 2480)],
}


@pytest.mark.parametrize("p, text", sorted(RECORDED_POINTS))
def test_find_smooth_point_matches_the_recorded_points(p, text):
    f = parse_poly(text, 3 if "x3" in text else 2, FieldSpec.prime_field(p))
    for seed, want in zip(SEEDS, RECORDED_POINTS[p, text]):
        if want is None:
            with pytest.raises(NoSmoothPointFound):
                find_smooth_point(f, seed=seed)
            continue
        point = find_smooth_point(f, seed=seed)
        got = tuple(point[JetVariable(i, 0)].value for i in range(1, f.base_count + 1))
        assert got == want, seed


def _times(a, b, p=0):
    """The product of two coefficient lists, reduced mod p when p > 0."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out] if p else out


@st.composite
def univariates(draw, p):
    """Coefficient lists (ascending) of univariate polynomials: random
    ones of degree up to 2p for small p (up to 12 otherwise), products
    of planted and repeated linear factors with a random cofactor,
    constants and multiples of x^p - x.  Coefficients are arbitrary
    integers, and the top ones may vanish mod p."""
    ints = st.integers(-3 * p, 3 * p)
    top = 2 * p if p in SMALL_PRIMES else 12
    kind = draw(st.sampled_from(("random", "planted", "constant", "x^p - x")))
    if kind == "random":
        return draw(st.lists(ints, min_size=1, max_size=top + 1))
    if kind == "constant":
        return [draw(ints)] + [draw(st.sampled_from((0, p, -p)))] * draw(st.integers(0, 2))
    out = draw(st.lists(ints, min_size=1, max_size=4))
    if kind == "x^p - x" and p <= 101:
        return _times(out, [0, -1] + [0] * (p - 2) + [1], p)
    for root in draw(st.lists(st.integers(0, p - 1), max_size=6)):
        for _ in range(draw(st.integers(1, 3))):
            out = _times(out, [-root, 1], p)
    return out


def residue_lists(p, min_size=0, max_size=8):
    return st.lists(st.integers(0, p - 1), min_size=min_size, max_size=max_size)


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
@settings(max_examples=10)
def test_linear_power_matches_repeated_products(p, data):
    # one walk of products checks every e up to 300, (p - 1)/2 and p
    g = data.draw(residue_lists(p, 2, 6)) + [1]  # monic, of degree 2 to 6
    delta = data.draw(st.integers(0, p - 1))
    want = [1]
    for e in range(1, max(p, 300) + 1):
        want = _divmod(_times(want, [delta, 1], p), g, p)[1]
        if e <= 300 or e in ((p - 1) // 2, p):
            assert _linear_power(delta, e, g, p) == want, e


def test_find_smooth_point_reads_the_other_partials_at_a_multiple_root(monkeypatch):
    # every frozen coordinate is 0: x1^2 + x2 gives x1^2, whose double root
    # 0 is smooth through the partial by x2; x1^2 - x2^2 is singular there
    monkeypatch.setattr(jetscheme, "draw", lambda rng, p: 0)
    for spec in (FieldSpec.rationals(), FieldSpec.prime_field(101)):
        point = find_smooth_point(parse_poly("x1^2 + x2", 2, spec), seed=0)
        assert point == Point.from_base([0, 0], spec)
        with pytest.raises(NoSmoothPointFound):
            find_smooth_point(parse_poly("x1^2 - x2^2", 2, spec), seed=0)


def test_certificate_builds_partials_only_for_its_samples(monkeypatch):
    # 2 that read each cokernel sample off a nonzero partial, built once
    # for the 20 samples; the singular-base check and any multiple root
    # met by a search (none here: each line through the cusp meets it in
    # the simple root of a linear h) read the slopes of f off
    # taylor_coefficients, which builds no Polynomial.  Building the s
    # partials in every search made 2 + 2 + 20 * 2 = 44
    built = []
    partial = Polynomial.partial

    def counted(g, v):
        built.append(v)
        return partial(g, v)

    monkeypatch.setattr(Polynomial, "partial", counted)
    cusp = parse_poly("x1^3 - x2^2", 2, FieldSpec.rationals())
    nobile_certificate(cusp, 1, 2, Point.from_base([0, 0], FieldSpec.rationals()))
    assert len(built) == 2


# singular at the origin, with whether a line through it meets V(f) again
# in the root of a linear h: the cusp, the quartic (in its tangent cone
# x2 = 0), A_3 (never: h = v1^2 - v2^4 t^2), the E_6 curve, the umbrella,
# and three inputs whose coordinate trials over Q found no smooth point in
# SMOOTH_POINT_ATTEMPTS (the E_6 surface in its tangent cone x1 = 0; the
# 8-variable cubic is a cube mod 3, (x1 + ... + x8)^3, with no smooth
# point over GF(3))
LINE_SOURCES = [
    ("x1^3 - x2^2", True),
    ("x1^3 - x2^2 + x1*x2*x3 + x3^4", True),
    ("x1^2 - x2^4", False),
    ("x1^3 + x2^4", True),
    ("x1^2 - x2^2*x3", True),
    ("x1^2 + x2^2 + x3^2 + x4^3", True),
    ("x1^3 + x2^3 + x3^3 + x4^3 + x5^3 + x6^3 + x7^3 + x8^3 - 3*x1*x2*x3*x4", True),
    ("x1^2 + x2^3 + x3^4", True),
]


def _count_root_finders(monkeypatch) -> list:
    calls = []
    for name in ("_rational_roots", "_residue_roots"):

        def counted(*args, _inner=getattr(jetscheme, name)):
            calls.append(args)
            return _inner(*args)

        monkeypatch.setattr(jetscheme, name, counted)
    return calls


@pytest.mark.parametrize("p", (0, 3, 101, 32003))
@pytest.mark.parametrize("text, linear", LINE_SOURCES)
def test_lines_through_the_singular_base_find_smooth_points(p, text, linear, monkeypatch):
    spec = FieldSpec.prime_field(p)
    s = max(int(name) for name in re.findall(r"x(\d+)", text))
    f = parse_poly(text, s, spec)
    origin = Point.from_base([0] * s, spec)
    if (p, s) == (3, 8):
        with pytest.raises(NoSmoothPointFound):
            find_smooth_point(f, seed="0:0", through=origin)
        return
    assert linear or f.degree() - multiplicity(f, origin) > 1  # a line meets V(f) again in deg f - mu points
    calls = _count_root_finders(monkeypatch)
    for t in range(20):
        seed = f"0:{t}"
        point = find_smooth_point(f, seed=seed, through=origin)
        assert f.evaluate(point).is_zero, seed
        assert any(not f.partial(JetVariable(i, 0)).evaluate(point).is_zero for i in range(1, s + 1)), seed
        if not linear:
            # no line is tried, and the coordinate trials are those of a search without one
            assert point == find_smooth_point(f, seed=seed), seed
    if linear:
        assert calls == []  # every point is the root of a linear h


@pytest.mark.parametrize(
    "text, lines",
    [
        # h = v1^2 + v2^4 t^2 is never linear: no line is tried
        ("x1^2 - x2^4", 0),
        # h is linear on every line, but f_3 vanishes on GF(2)^2, and the origin is the one point of V(f)
        ("x1^2 + x1*x2 + x2^2 + x1^2*x2 + x1*x2^2", jetscheme.SMOOTH_POINT_ATTEMPTS // 2),
    ],
)
def test_lines_and_coordinate_trials_share_one_budget(text, lines, monkeypatch):
    spec = FieldSpec.prime_field(2)
    f = parse_poly(text, 2, spec)
    labels = []

    def recording_rng(seed, trial, label="trial"):
        labels.append(label)
        return trial_rng(seed, trial, label)

    monkeypatch.setattr(jetscheme, "trial_rng", recording_rng)
    calls = _count_root_finders(monkeypatch)
    with pytest.raises(NoSmoothPointFound):
        find_smooth_point(f, seed=0, through=Point.from_base([0, 0], spec))
    assert labels == ["smooth-line"] * lines + ["smooth-point"] * (jetscheme.SMOOTH_POINT_ATTEMPTS - lines)
    assert len(calls) <= jetscheme.SMOOTH_POINT_ATTEMPTS - lines


def test_the_point_lines_pass_through_is_checked():
    Q = FieldSpec.rationals()
    cusp = parse_poly("x1^3 - x2^2", 2, Q)
    with pytest.raises(MixedFields):
        find_smooth_point(cusp, through=Point.from_base([0, 0], FieldSpec.prime_field(101)))
    with pytest.raises(MissingCoordinate, match="x2"):
        find_smooth_point(cusp, through=Point.from_base([0], Q))


@pytest.mark.parametrize("p", (0, 101))
def test_a_long_taylor_pass_is_not_made_for_the_lines(p, monkeypatch):
    # at (1, 1) the pass to order 60 would make 31 * 31 parts for
    # x1^30*x2^30 and one for the 1, past LINE_PASS_PARTS per term: no pass
    # is made, no line drawn, and the coordinate trials give their points
    spec = FieldSpec.prime_field(p)
    f = parse_poly("x1^30*x2^30 - 1", 2, spec)
    passes = []
    taylor = jetscheme.taylor_coefficients
    monkeypatch.setattr(jetscheme, "taylor_coefficients", lambda *args: passes.append(args[3]) or taylor(*args))
    through = Point.from_base([1, 1], spec)
    for t in range(5):
        assert find_smooth_point(f, seed=f"0:{t}", through=through) == find_smooth_point(f, seed=f"0:{t}")
    # the coordinate trials read the same pass at m = 0, and no other pass is made
    assert set(passes) == {0}


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_residue_roots_match_the_scan(p, data):
    coeffs = data.draw(univariates(p))
    want = residue_roots_scan(coeffs, p)
    got = _residue_roots(coeffs, p)
    assert list(got) == want
    if all(c % p == 0 for c in coeffs):
        assert isinstance(got, range)
    else:
        assert isinstance(got, list)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_x_to_the_p_minus_x_has_every_residue_as_root(p):
    assert _residue_roots([0, -1] + [0] * (p - 2) + [1], p) == list(range(p))


@pytest.mark.parametrize("p", PRIMES + (1000000007,))
def test_zero_polynomial_gives_every_residue_without_a_list(p):
    for coeffs in ([], [0], [0, p, -2 * p]):
        assert _residue_roots(coeffs, p) == range(p)


def test_large_characteristic():
    p = 1000000007
    roots = [3, 5, 5, 999999999]
    g = [7]
    for r in roots:
        g = _times(g, [-r, 1], p)
    assert _residue_roots(g, p) == [3, 5, 999999999]
    assert _residue_roots([1, 0, 1], p) == []  # p = 3 mod 4: -1 is no square


@st.composite
def rational_univariates(draw):
    """Coefficient lists (ascending, Fraction) of small univariate
    polynomials over Q: products of planted linear factors b*x - a, some
    repeated and some with a = 0, with a random cofactor, scaled by a
    random fraction; and zero polynomials, constants and linears."""
    small = st.integers(-6, 6)
    kind = draw(st.sampled_from(("planted", "planted", "planted", "zero", "constant", "linear")))
    if kind == "zero":
        return [Fraction(0)] * draw(st.integers(0, 3))
    if kind == "constant":
        return [Fraction(draw(small.filter(bool)))] + [Fraction(0)] * draw(st.integers(0, 2))
    if kind == "linear":
        return [Fraction(draw(small)), Fraction(draw(small.filter(bool)))]
    out = draw(st.lists(small, min_size=1, max_size=3).filter(any))
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.integers(-9, 9)), draw(st.integers(1, 6))
        for _ in range(draw(st.integers(1, 3))):
            out = _times(out, [-a, b])
    scale = Fraction(draw(small.filter(bool)), draw(st.integers(1, 5)))
    return [c * scale for c in out]


@given(coeffs=rational_univariates())
@settings(max_examples=300)
def test_rational_roots_match_the_divisor_search(coeffs):
    assert _rational_roots(coeffs) == rational_roots_divisors(coeffs)


@given(coeffs=rational_univariates())
@settings(max_examples=100)
def test_rational_roots_match_sympy(coeffs):
    sympy = pytest.importorskip("sympy")
    if not any(coeffs):
        return  # sympy has no root set for the zero polynomial; ours is [0]
    x = sympy.Symbol("x")
    want = sympy.Poly(list(reversed(coeffs)), x, domain=sympy.QQ).ground_roots()
    assert set(_rational_roots(coeffs)) == {Fraction(int(r.p), int(r.q)) for r in want}


def test_rational_roots_contracts():
    assert _rational_roots([]) == [0]
    assert _rational_roots([Fraction(0), Fraction(0)]) == [0]
    assert _rational_roots([Fraction(5)]) == []
    assert _rational_roots([Fraction(0), Fraction(0), Fraction(3)]) == [0]
    assert _rational_roots([Fraction(-1), Fraction(0), Fraction(4)]) == [Fraction(1, 2), Fraction(-1, 2)]


def test_rational_root_with_a_22_digit_numerator():
    # trial division up to the square root of the constant term hangs here
    a, b = 10**21 + 7, 3
    assert len(str(a)) == 22 and math.gcd(a, b) == 1
    g = _times(_times([-a, b], [3, 0, 1]), [5, 2])
    assert _rational_roots([Fraction(c) for c in g]) == [Fraction(-5, 2), Fraction(a, b)]


@pytest.mark.parametrize("p", (0, 32003))
def test_coordinate_lines_are_counted_against_the_term_cap(p, monkeypatch):
    # x1^5 - x2^2 solved for x1 is a univariate of 6 coefficients; the
    # lines through the cusp's origin meet it first, in the root of a linear h
    spec = FieldSpec.prime_field(p)
    f = parse_poly("x1^5 - x2^2", 2, spec)
    calls = _count_root_finders(monkeypatch)
    monkeypatch.setattr(hasse, "TERM_CAP", 5)
    with pytest.raises(TooManyTerms, match=r"^would generate at least 6 terms \(cap 5\)$"):
        find_smooth_point(f, seed=0)
    assert calls == []
    cusp = parse_poly("x1^3 - x2^2", 2, spec)
    monkeypatch.setattr(hasse, "TERM_CAP", 1)
    assert cusp.evaluate(find_smooth_point(cusp, seed=0, through=Point.from_base([0, 0], spec))).is_zero
    with pytest.raises(TooManyTerms):
        find_smooth_point(cusp, seed=0)
    monkeypatch.setattr(hasse, "TERM_CAP", 6)
    assert f.evaluate(find_smooth_point(f, seed=0)).is_zero

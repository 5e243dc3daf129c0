"""Jet schemes of hypersurfaces and their singularity rank criteria.

The order-n jet scheme of V(f) is cut out by f, d_1(f), ..., d_n(f) in the
jet variables.  A point of it is non-singular exactly when the blocked
order-m Jacobian has full rank (n+1)M there, assuming the jet scheme is
irreducible; that hypothesis is never decided here, only recorded.  The
certificate produced by nobile_certificate assembles the desk-scale
evidence that blowing up the higher-differentials module cannot be an
isomorphism over a singular base point: zero-jet membership, rank
deficiency there, the expected generic cokernel rank, and a rank jump
between singular and generic jets, witnessed by the sampled jet of least
cokernel rank: D_n(L) has full rank (n+1)M where a sample is gens - rels.

Every test at a point works in Taylor mode and builds no symbolic d_k:
membership checks f(a(t)) = 0 mod t^(n+1), jet lifting solves for the
t^k coefficient order by order on one set of growing series, and the
rank criteria rank D_n(Jac_m f) at the jet with linalg.rank_at, which
reads the rank off the diagonal block Jac_m f(a_0) when it has full rank
(at a smooth base) or when the jet is a zero jet; that block is one
Taylor pass over f (jacobian.taylor_coefficients), with no symbolic
partial, and so is the univariate of a coordinate line.  A certificate
builds no matrix.  Its fact (ii) evaluates a proven formula: the rank at
the zero jet over a base of multiplicity mu is (n+1) C(m - mu + s, s),
and 0 when mu > m, as the row space of Jac_m f(a) is the ideal of
f(a + y) in k[y]/(y)^(m+1); singular-check there is the independent
matrix check.  The symbolic equations and presentation matrices are
built only when a caller reads them.

Smooth points are sampled on lines P + t v through a given point P, the
certificate's singular base, and by solving f for one coordinate with the
others frozen.  On a line f(P + t v) = t^k h(t) with deg h <= deg f - k
(projection from a point; Harris, Algebraic Geometry: A First Course,
1992): h is linear when the multiplicity of f at P is deg f - 1, or, for
directions in the tangent cone at P, where the lowest form of f vanishes,
when f keeps two consecutive orders there, and its root is then rational
and direct.  The roots of the univariate polynomial of a coordinate line
come from jetjac.roots.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import hasse
from .field import DomainError, MixedFields
from .hasse import BadJetOrder, TooManyTerms, _require_base, hs_components, hs_values, jet_series
from .jacobian import (
    BadDifferentialOrder,
    EmptyIndexFamily,
    JacmMatrix,
    PolyMatrix,
    _digit_bounds,
    exponent_vectors,
    jac_m,
    taylor_coefficients,
)
from .jetmatrix import DnMatrix, dn_matrix
from .linalg import BadTrialCount, draw, eval_matrix, rank, rank_at, trial_rng
from .poly import JetVariable, MissingCoordinate, Point, Polynomial, _raw_value
from .roots import _derivative, _eval_mod, _rational_roots, _residue_roots

SMOOTH_POINT_ATTEMPTS = 200  # seeded trials of find_smooth_point
LINE_PASS_PARTS = 10  # per term of f, the most the Taylor pass of find_smooth_point's lines makes


class ConstantPolynomial(ValueError, DomainError):
    """A hypersurface equation must be nonconstant."""


class PointNotOnScheme(ValueError, DomainError):
    """The point does not satisfy the jet-scheme equations."""


class NotSingularBase(ValueError, DomainError):
    """The base point is not a singular point of the hypersurface."""


class NotBasePoint(ValueError):
    """A point with a coordinate of positive jet order, or none at all, given as a base point."""


class RankTooLong(ValueError, DomainError):
    """A free rank has more decimal digits than int() converts to text
    (sys.get_int_max_str_digits), so the comparison cannot be printed."""


class NoSmoothPointFound(RuntimeError, DomainError):
    """Smooth-point sampling exhausted its budget (the equation may be
    degenerate, e.g. a p-th power in characteristic p)."""


IRREDUCIBILITY_ASSUMPTION = "jet scheme irreducible (user assertion)"
NORMALITY_ASSUMPTION = "jet scheme normal (user assertion)"
HYPERSURFACE_ASSUMPTION = "hypersurface irreducible (user assertion)"


@dataclass(frozen=True)
class JetSchemeDesc:
    """V(f, d_1(f), ..., d_n(f)) inside affine s(n+1)-space."""

    f: Polynomial
    s: int
    n: int

    @functools.cached_property
    def equations(self) -> tuple[Polynomial, ...]:
        """The symbolic d_0(f), ..., d_n(f), built on first read."""
        return hs_components(self.f, self.n).components


def jet_equations(f: Polynomial, n: int) -> JetSchemeDesc:
    """Equations of the order-n jet scheme of the hypersurface V(f)."""
    if f.is_constant:
        raise ConstantPolynomial("the hypersurface equation is constant")
    _require_base(f)
    if n < 0:
        raise BadJetOrder("n must be >= 0")
    return JetSchemeDesc(f, f.base_count, n)


def on_jet_scheme(desc: JetSchemeDesc, point: Point) -> bool:
    """Whether every defining equation vanishes at the point, that is
    f(a(t)) = 0 mod t^(n+1) for the jet a."""
    series = jet_series(point, desc.f.spec, desc.s, desc.n)
    return not any(hs_values(desc.f, desc.n, series, {}))


@dataclass(frozen=True)
class RankReport:
    rank: int
    bound: int
    full: bool
    assumptions: tuple[str, ...] = ()


def higher_rank_test(desc: JetSchemeDesc, point: Point, m: int) -> RankReport:
    """Rank of the blocked order-m Jacobian at a point of the jet scheme;
    full rank (n+1)M detects smoothness under the irreducibility
    assumption, in any characteristic.  For m = 1 this is the classical
    criterion: the Jacobian of (f, d_1 f, ..., d_n f) has rank n + 1."""
    if m < 1:
        raise BadDifferentialOrder("m must be >= 1")
    D = DnMatrix(JacmMatrix([desc.f], m), desc.n)
    if not on_jet_scheme(desc, point):
        raise PointNotOnScheme("the point does not lie on the jet scheme")
    r = rank_at(D, point)
    return RankReport(r, D.rows, r == D.rows, (IRREDUCIBILITY_ASSUMPTION,))


@dataclass(frozen=True)
class Presentation:
    """A module presented as the cokernel of the transpose of
    `matrix` = D_n(L), L = Jac_m f, with gens = (n+1)N and rels = (n+1)M."""

    name: str
    gens: int
    rels: int
    module_label: str
    f: Polynomial
    n: int
    m: int

    @functools.cached_property
    def L(self) -> PolyMatrix:
        """The symbolic Jac_m f, built on first read."""
        return jac_m([self.f], self.m)

    @functools.cached_property
    def matrix(self) -> PolyMatrix:
        """The symbolic D_n(L), built on first read."""
        return dn_matrix(self.L, self.n)


def _count(what: str, top: int, k: int, copies: int = 1) -> int:
    """copies * (C(top, k) - 1), or RankTooLong when it has more digits
    than int() converts to text, found before C(top, k) is computed when
    C(top, k) >= (top // j)^j, j = min(k, top - k), already makes it too
    long."""
    limit = sys.get_int_max_str_digits()
    bits, too_long = _digit_bounds(limit) if limit else (math.inf, math.inf)
    j = min(k, top - k)
    if j * ((top // max(j, 1)).bit_length() - 1) < bits:
        count = copies * (math.comb(top, k) - 1)
        if count < too_long:
            return count
    raise RankTooLong(f"{what} has more than {limit} digits, too many to print")


def presentation_of(f: Polynomial, n: int, m: int) -> Presentation:
    """Presentation matrix of the order-m differentials of the hypersurface
    ring, tensored over the order-n jet algebra when n > 0, counted from
    M = C(m+s-1, s) and N = C(m+s, s) - 1 (RankTooLong past printing)."""
    if m < 1:
        raise BadDifferentialOrder("m must be >= 1")
    if n < 0:
        raise BadJetOrder("n must be >= 0")
    s = f.base_count
    if s < 1:
        raise EmptyIndexFamily("need s >= 1 and m >= 1")
    gens = _count("the generator count", m + s, s, n + 1)
    if n == 0:
        label = "Omega1" if m == 1 else "OmegaM"
        name = f"order-{m} differentials"
    else:
        label = "Omega1_tensor_Bn" if m == 1 else "OmegaM_tensor_Bn"
        name = f"order-{m} differentials over order-{n} jets"
    return Presentation(
        name=name,
        gens=gens,
        rels=(n + 1) * math.comb(m + s - 1, s),
        module_label=label,
        f=f,
        n=n,
        m=m,
    )


def _require_base_point(base: Point) -> None:
    if any(order for order, _ in base.values):
        raise NotBasePoint("expected a base point (order-0 coordinates only)")
    if not base.values:
        raise NotBasePoint("expected a base point with at least one coordinate")


def zero_jet_over(base: Point, n: int) -> Point:
    """The jet whose base coordinates are `base` and whose positive-order
    coordinates all vanish; it lies on the jet scheme whenever the base
    point lies on the hypersurface."""
    _require_base_point(base)
    s = max(i for _, i in base.values)
    zeros = {(k, i): 0 for k in range(1, n + 1) for i in range(1, s + 1)}
    return Point._make(base.spec, base.values | zeros)


# -- smooth point and smooth jet sampling -----------------------------


def _univariate_in(f: Polynomial, vals: dict) -> list:
    """Coefficients (ascending) of f as a univariate polynomial in the base
    variable x_i with vals[(0, i)] None, every other x_i frozen at its raw
    value: order 0 of taylor_coefficients, whose keys end in x_i^e or in ()."""
    s = f.base_count
    coeffs = {dk[s][2] if len(dk) > s else 0: c for dk, c in taylor_coefficients(f, vals, s, 0).items()}
    return [coeffs.get(k, 0) for k in range(max(coeffs, default=0) + 1)]


@functools.lru_cache(maxsize=8)
def _expansion(f: Polynomial, base: tuple) -> tuple[dict, tuple | None]:
    """f(P + y) at the point P of raw base coordinates `base`, from one
    taylor_coefficients pass to order deg f (at least 1), as (forms, line).
    forms[j] lists (c, ((i, e), ...)) for each nonzero c*y^delta with
    |delta| = j, i running over the 0-based indices of delta_i = e > 0.
    line is (zero, j) when every line P + t v with v_i = 0 for i in zero
    meets V(f) where f_j(v) + t f_(j+1)(v) = 0, every other form vanishing
    on it: zero is empty when the nonzero orders of f are j and j + 1, and
    otherwise holds the variables of the lowest nonzero form f_mu, which
    vanishes on the tangent cone they cut out, when the terms free of them
    have the orders j and j + 1 alone.  line is None when neither holds,
    and ({}, None) is returned with no pass when it would make more than
    LINE_PASS_PARTS parts per term of f: a term c*x^g makes prod(g_i + 1)
    over the nonzero P_i, one for each delta <= g there, and just one at
    the origin.  The last few (f, P) are kept, so every trial of a
    certificate's sampler shares one pass."""
    parts = sum(math.prod(e + 1 for _, i, e in key if base[i - 1]) for key in f.terms)
    if parts > LINE_PASS_PARTS * len(f.terms):
        return {}, None
    forms: dict[int, list] = {}
    vals = {(0, i): x for i, x in enumerate(base, 1)}
    for delta, c in taylor_coefficients(f, vals, len(base), max(f.degree(), 1)).items():
        forms.setdefault(sum(delta), []).append((c, tuple((i, e) for i, e in enumerate(delta) if e)))
    line = None
    if forms:
        cone = frozenset(i for _, exps in forms[min(forms)] for i, _ in exps)
        for zero in (frozenset(), cone):
            kept = sorted(
                j for j, form in forms.items() if any(zero.isdisjoint(i for i, _ in exps) for _, exps in form)
            )
            if len(kept) == 2 and kept[1] - kept[0] == 1:
                line = zero, kept[0]
                break
    return forms, line


def _on_line(f: Polynomial, forms: dict, base: tuple, line: tuple, seed, t: int) -> Point | None:
    """Trial t of the lines through the point P of raw coordinates `base`
    that `line` = (zero, j) of _expansion describes: a seeded direction v
    with v_i = 0 for i in zero, on which f(P + t v) = t^j (h_0 + h_1 t),
    h_k = f_(j+k)(v).  When h_0 and h_1 are nonzero, the root r = -h_0/h_1
    gives a point of V(f) where the partial of f along v, r^j h_1, is
    nonzero; None otherwise."""
    spec = f.spec
    p = spec.characteristic
    zero, j = line
    rng = trial_rng(seed, t, "smooth-line")
    v = [0 if i in zero else draw(rng, p) for i in range(len(base))]
    h = []
    for form in (forms[j], forms[j + 1]):
        acc = 0
        for c, exps in form:
            for i, e in exps:
                c *= pow(v[i], e, p) if p else v[i] ** e
            acc += c
        h.append(acc % p if p else acc)
    if not (h[0] and h[1]):
        return None
    r = -h[0] * pow(h[1], -1, p) % p if p else -Fraction(h[0]) / h[1]
    return Point._make(spec, {(0, i): spec.raw(x + r * y) for i, (x, y) in enumerate(zip(base, v), 1)})


def find_smooth_point(f: Polynomial, seed=0, through: Point | None = None) -> Point:
    """A point of V(f) where some first partial is nonzero.

    Each trial solves a univariate polynomial on a line, and there are
    SMOOTH_POINT_ATTEMPTS of them.  Given a point P `through` (MixedFields
    over another field) on whose lines, or on whose lines in the tangent
    cone, f(P + t v) = t^j (h_0 + h_1 t) (_expansion), the first half of
    the trials draw such lines (_on_line), read off the forms of f at P
    from one Taylor pass shared by every call with the same f and P, and
    skipped when it would be long (LINE_PASS_PARTS); the root of a linear
    h is rational and simple, so no root finder runs.  The other trials,
    all of them otherwise, freeze all coordinates but one at seeded
    random values and solve for the last, so that without `through` the
    point of a seed depends on f alone.  Their univariates are dense, so
    before the first of them TooManyTerms is raised when some deg_{x_i} f
    + 1 exceeds hasse.TERM_CAP.  A line whose h has a higher
    degree is not tried: over Q its root is no likelier than on a
    coordinate line, and it costs more to find.

    On a coordinate line, roots come over Q from p-adic lifting of the
    roots mod a small prime and rational reconstruction, over GF(p) from
    splitting gcd(g, x^p - x) into its linear factors, in both cases in
    time polynomial in the bit size of the coefficients.  Roots in GF(p)
    are tried in ascending order, rational roots 0 first and then by
    (|numerator|, denominator, positive before negative).  Deterministic
    in seed.  A trial keeps its coordinates as the raw values of a Point,
    made from that dict when found.  At a root r, g'(r) is the partial by
    the solved coordinate, so a simple root is smooth; only a multiple
    root reads the s first partials, as order 1 of taylor_coefficients,
    with no Polynomial built.  NotBasePolynomial when f has a jet variable.
    """
    _require_base(f)
    s = f.base_count
    spec = f.spec
    p = spec.characteristic
    if s < 1 or f.is_constant:
        raise NoSmoothPointFound("the equation has no variables to solve for")
    lines = 0
    if through is not None:
        if through.spec != spec:
            raise MixedFields(f"point over {through.spec}, polynomial over {spec}")
        base = tuple(through.values.get((0, i)) for i in range(1, s + 1))
        if None in base:
            raise MissingCoordinate(f"point assigns no value to x{base.index(None) + 1}")
        forms, line = _expansion(f, base)
        if line is not None:
            lines = SMOOTH_POINT_ATTEMPTS // 2
            for t in range(lines):
                point = _on_line(f, forms, base, line, seed, t)
                if point is not None:
                    return point
    # a coordinate line's univariate is dense: deg_{x_i} f + 1 coefficients
    width = 1 + max(e for key in f.terms for _, _, e in key)
    if width > hasse.TERM_CAP:
        raise TooManyTerms(width)
    for t in range(SMOOTH_POINT_ATTEMPTS - lines):
        rng = trial_rng(seed, t, "smooth-point")
        solve = t % s + 1  # x_solve is solved for
        vals = {(0, i): None if i == solve else draw(rng, p) for i in range(1, s + 1)}
        coeffs = _univariate_in(f, vals)
        slope = _derivative(coeffs)
        roots = _residue_roots(coeffs, p) if p else _rational_roots(coeffs)
        for root in roots:
            x = vals[0, solve] = spec.raw(root)
            # f vanishes at the root, so a nonzero coefficient is a slope
            if _eval_mod(slope, x, p) or taylor_coefficients(f, vals, s, 1):
                return Point._make(spec, vals)
    raise NoSmoothPointFound(
        f"no smooth point of V(f) found in {SMOOTH_POINT_ATTEMPTS} attempts; "
        "the equation may be degenerate (e.g. a p-th power in characteristic p)"
    )


def extend_to_jet(f: Polynomial, base, n: int, seed=0) -> Point:
    """Extend coordinates over a smooth base point to a jet on the scheme.

    `base` is a Point over f's field (MixedFields otherwise), or a mapping
    read as Point(f.spec, base), that must assign all base variables; it
    may also fix higher-order ones.  At each order k the missing
    coordinates are filled with seeded random values except one at a
    nonzero gradient position, which is solved from the order-k equation
    (the equation is affine in the order-k coordinates with the first
    partials of f as coefficients).  Its value d_k(f) at the jet so far
    is the t^k coefficient of f(a(t)), computed by Taylor mode with the
    solved coordinate set to 0.  One series per variable and one cache of
    series products serve every order: order k appends a coefficient to
    each series and grows the products, which are cut back to k
    coefficients once the solved value is set, so the lift costs O(n^2)
    coefficient products.  The jet is one dict of raw values, from which
    taylor_coefficients reads f and its gradient at the base point, and
    which becomes the Point returned.
    """
    if n < 0:
        raise BadJetOrder("n must be >= 0")
    spec = f.spec
    p = spec.characteristic
    if isinstance(base, Point) and base.spec != spec:
        raise MixedFields(f"point over {base.spec}, polynomial over {spec}")
    vals = dict((base if isinstance(base, Point) else Point(spec, base)).values)
    s = f.base_count
    for i in range(1, s + 1):
        if (0, i) not in vals:
            raise MissingCoordinate(f"base coordinate x{i} is not assigned")
    taylor = taylor_coefficients(f, vals, s, 1)
    if (0,) * s in taylor:
        raise PointNotOnScheme("the base point is not on the hypersurface")
    grad = {i: taylor.get(delta, 0) for i, delta in enumerate(exponent_vectors(1, s), 1)}
    rng = trial_rng(seed, n, "jet-fill")
    series = {i: [vals[0, i]] for i in range(1, s + 1)}
    cache: dict = {}
    for k in range(1, n + 1):
        unknown = [i for i in range(1, s + 1) if (k, i) not in vals]
        solvable = [i for i in unknown if grad[i]]
        solve_i = solvable[0] if solvable else None
        for i in unknown:
            vals[k, i] = 0 if i == solve_i else draw(rng, p)  # the offset is d_k(f) with the target at 0
        for i in range(1, s + 1):
            series[i].append(vals[k, i])
        # d_k(f) at the coordinates of orders <= k: the t^k coefficient of f(a(t))
        value = hs_values(f, k, series, cache)[k]
        if solve_i:
            vals[k, solve_i] = series[solve_i][k] = spec.raw(Fraction(-value, grad[solve_i]))
            for grown in cache.values():
                del grown[k:]  # coefficient k was computed with the target at 0
        elif value:
            raise PointNotOnScheme(f"the order-{k} coordinates violate the jet equation")
    return Point._make(spec, vals)


@dataclass(frozen=True)
class CokernelReport:
    """Cokernel rank of a presentation at sampled smooth jets, each read
    off the rank of the base block, which a nonzero first partial fixes;
    `witness` is the first base point whose sample, the exact cokernel
    rank at every jet over it, is `cokernel_rank`."""

    expected: int
    samples: tuple[int, ...]
    cokernel_rank: int
    all_match: bool
    trials: int
    seed: object
    witness: Point


def generic_cokernel_rank(pres: Presentation, trials: int = 20, seed=0, through: Point | None = None) -> CokernelReport:
    """Sample jets over smooth base points of V(f), read the rank of the
    presentation matrix there and report generators minus rank, compared
    against the free rank expected away from the singular locus.

    Trial t takes the base block A_0 = L(a_0) at the smooth base point
    a_0 = find_smooth_point(f, seed=f"{seed}:{t}", through=through), on a
    line through `through`, such as the certificate's singular base, when
    those lines meet V(f) in the root of a linear h.  At the zero jet over
    a_0, D_n(L) is block diagonal with n + 1 copies of A_0, so its exact
    cokernel rank is the sample gens - (n+1) rank A_0, and by
    linalg.rank_at every jet over a_0 gives the same sample.  If f(a_0) = 0
    and c = d_i f(a_0) != 0, the sample is gens - rels, with no matrix:
    row beta of A_0 holds the coefficients of y^beta g, g(y) = f(a_0 + y),
    and on the columns beta + e_i, beta ordered by (|beta|, -beta_i), the
    minor is upper triangular with c on its diagonal, in any
    characteristic.  Other bases (only a replaced sampler hands one over)
    build L and are ranked by eval_matrix and rank; a deficient A_0 could
    only over-count a cokernel, so all_match and the rank jump would fail,
    never certify.  The witness is the first base point of least sample."""
    if trials < 1:
        raise BadTrialCount("trials must be >= 1")
    f = pres.f
    _require_base(f)
    expected = pres.gens - pres.rels
    p = f.spec.characteristic
    # built once for all trials: evaluating f and a prebuilt partial at a
    # base costs less than a Taylor pass there
    partials = [f.partial(JetVariable(i, 0)) for i in range(1, f.base_count + 1)]
    samples = []
    for t in range(trials):
        base = find_smooth_point(f, seed=f"{seed}:{t}", through=through)
        vals, powers = base.values, {}
        smooth = not _raw_value(f, vals, p, powers) and any(_raw_value(g, vals, p, powers) for g in partials)
        sample = expected if smooth else pres.gens - (pres.n + 1) * rank(eval_matrix(pres.L, base))
        if not samples or sample < least:
            witness, least = base, sample
        samples.append(sample)
    return CokernelReport(
        expected=expected,
        samples=tuple(samples),
        cokernel_rank=min(samples),
        all_match=all(x == expected for x in samples),
        trials=trials,
        seed=seed,
        witness=witness,
    )


@dataclass(frozen=True)
class FreeRankComparison:
    """Free ranks of the two order-m differential modules attached to the
    affine line: over the jet-variable polynomial ring, and the base
    module tensored with the truncation.  They differ for m > 1."""

    n: int
    m: int
    jet_ring_rank: int
    tensor_rank: int
    isomorphic: bool

    @property
    def verdict(self) -> str:
        return "consistent with an isomorphism" if self.isomorphic else "not isomorphic"


def rank_counterexample_check(n: int = 1, m: int = 2) -> FreeRankComparison:
    """Compare the two ranks for the affine line from first principles:
    the order-m differentials of a polynomial ring in v variables form a
    free module of rank C(m+v, v) - 1 (no relations), and the jet algebra
    of one base variable is a polynomial ring in n+1 variables.  A rank
    too long to print is RankTooLong (_count)."""
    if n < 0:
        raise BadJetOrder("n must be >= 0")
    if m < 1:
        raise BadDifferentialOrder("m must be >= 1")
    jet_ring_rank = _count("a free rank", m + n + 1, n + 1)
    tensor_rank = _count("a free rank", m + 1, 1, n + 1)
    return FreeRankComparison(
        n, m, jet_ring_rank, tensor_rank, jet_ring_rank == tensor_rank
    )


@dataclass(frozen=True)
class NobileCertificate:
    """Desk-scale evidence that the blowup of the order-m differentials
    module over the order-n jet scheme is not an isomorphism when the base
    hypersurface point is singular.

    The four facts, each exact: (i) the zero jet over the singular base
    lies on the jet scheme; (ii) the blocked order-m Jacobian is
    rank-deficient there, so all its maximal minors vanish: its rank, the
    proven (n+1) C(m - mu + s, s) at the multiplicity mu >= 2 of f at the
    base, is evaluated with no matrix (singular-check at the zero jet is
    the independent matrix computation); (iii) the generic cokernel rank
    matches the free rank, identifying the module blowup with the blowup
    of the minors ideal; (iv) the minors do not vanish at sampled smooth
    jets, witnessing the rank jump behind non-principality.
    Irreducibility and normality remain user assertions, restated in
    `assumptions`.  `witness_jet`, the zero jet over the base point
    `cokernel.witness` sampled in (iii), is built on first read; the exact
    rank there is `witness_rank` = gens - `cokernel.cokernel_rank`."""

    f: Polynomial
    n: int
    m: int
    base: Point
    membership: bool
    rank: int
    bound: int
    full: bool
    cokernel: CokernelReport
    rank_jump: bool
    witness_rank: int
    assumptions: tuple[str, ...]
    trials: int
    seed: object

    @functools.cached_property
    def witness_jet(self) -> Point:
        """The zero jet over `cokernel.witness`, built on first read."""
        return zero_jet_over(self.cokernel.witness, self.n)

    @property
    def all_facts_hold(self) -> bool:
        return (
            self.membership
            and self.rank < self.bound
            and self.cokernel.all_match
            and self.rank_jump
        )

    @property
    def verdict(self) -> str:
        if self.all_facts_hold:
            return "blowup not an isomorphism (under stated assumptions)"
        return "inconclusive: some certificate fact failed"


def nobile_certificate(
    f: Polynomial,
    n: int,
    m: int,
    singular_base: Point,
    trials: int = 20,
    seed=0,
) -> NobileCertificate:
    """Assemble the four-fact singularity certificate at a singular base
    point (all first partials of f vanish there); raises NotSingularBase
    otherwise.  One taylor_coefficients pass reads f(base + y) to order
    m: orders 0 and 1 make that check, and the least nonzero order, if at
    most m, is the multiplicity mu.  The sampler of the cokernel samples
    is handed the base, for its lines through it."""
    _require_base(f)
    if m < 1:
        raise BadDifferentialOrder("m must be >= 1")
    if trials < 1:
        raise BadTrialCount("trials must be >= 1")
    s = f.base_count
    vals = singular_base.values
    for i in range(1, s + 1):
        if (0, i) not in vals:
            raise MissingCoordinate(f"base point assigns no value to x{i}")
    if singular_base.spec != f.spec:
        raise MixedFields(f"point over {singular_base.spec}, polynomial over {f.spec}")
    taylor = taylor_coefficients(f, vals, s, m)
    if (0,) * s in taylor:
        raise NotSingularBase("the base point is not on the hypersurface")
    for i, delta in enumerate(exponent_vectors(1, s), 1):
        if delta in taylor:
            raise NotSingularBase(f"partial derivative by x{i} is {taylor[delta]} != 0 at the base point")
    jet_equations(f, n)  # a constant f, or n < 0, is refused here
    _require_base_point(singular_base)  # its zero jet is on the jet scheme, as f(base) = 0
    pres = presentation_of(f, n, m)
    mu = min(map(sum, taylor), default=m + 1)
    zero_rank, bound = (n + 1) * math.comb(m - mu + s, s), pres.rels
    cokernel = generic_cokernel_rank(pres, trials=trials, seed=seed, through=singular_base)
    witness_rank = pres.gens - cokernel.cokernel_rank
    rank_jump = witness_rank == bound and zero_rank < bound
    assumptions = (
        HYPERSURFACE_ASSUMPTION,
        IRREDUCIBILITY_ASSUMPTION,
        NORMALITY_ASSUMPTION,
    )
    return NobileCertificate(
        f=f,
        n=n,
        m=m,
        base=singular_base,
        membership=True,
        rank=zero_rank,
        bound=bound,
        full=zero_rank == bound,
        cokernel=cokernel,
        rank_jump=rank_jump,
        witness_rank=witness_rank,
        assumptions=assumptions,
        trials=trials,
        seed=seed,
    )

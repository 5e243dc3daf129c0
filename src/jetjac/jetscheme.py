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
partial.  A certificate builds
no matrix.  Its fact (ii) evaluates a proven formula: the rank at the
zero jet over a base of multiplicity mu is (n+1) C(m - mu + s, s), and 0
when mu > m, as the row space of Jac_m f(a) is the ideal of f(a + y) in
k[y]/(y)^(m+1); singular-check there is the independent matrix check.
The symbolic equations and presentation matrices are built only when a
caller reads them.

Smooth points are sampled by solving f for one coordinate with the others
frozen.  Over GF(p) the roots of that univariate polynomial g come from
gcd(g, x^p - x) and equal-degree splitting (von zur Gathen & Gerhard,
Modern Computer Algebra, ch. 14); both power a linear base modulo g
left to right, so a bit of the exponent costs one squaring and a shift,
and the cost grows with log p, not with p.  Over Q the roots of the
primitive squarefree part of g modulo the smallest odd prime that keeps
it squarefree are lifted by Newton steps until the modulus exceeds
2 |g_0 g_d|, read back as fractions by rational reconstruction and each
confirmed by exact integer evaluation (Modern Computer Algebra, ch. 15
and section 5.10; Loos 1983), so the cost grows with the bit length of
the coefficients, not with their size.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .field import DomainError, MixedFields, is_prime
from .hasse import BadJetOrder, _require_base, hs_components, hs_values, jet_series
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
from .poly import JetVariable, MissingCoordinate, Point, Polynomial, _rational, _raw_value

SMOOTH_POINT_ATTEMPTS = 200  # seeded trials of find_smooth_point


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

    def __str__(self):
        status = "full" if self.full else "deficient"
        return f"rank {self.rank} of bound {self.bound} ({status})"


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
    values = dict(base.values)
    values.update(((k, i), 0) for k in range(1, n + 1) for i in range(1, s + 1))
    return Point._make(base.spec, values)


# -- smooth point and smooth jet sampling -----------------------------


# Dense univariate polynomials over GF(p): coefficient lists, ascending,
# reduced mod p, without trailing zeros; divisors are monic.


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic b."""
    r = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db]
        if c:
            q[i] = c
            for j in range(db):
                r[i + j] = (r[i + j] - c * b[j]) % p
    return q, _trim(r[:db])


def _linear_power(delta: int, e: int, g: list[int], p: int) -> list[int]:
    """(x + delta)^e mod the monic g of degree at least 2, for e >= 1,
    left to right: each bit of e after the first squares, folds the
    square down from its top coefficient and takes it mod p once; a set
    bit then multiplies by x + delta, a shift and a scaled add."""
    dg = len(g) - 1
    out = [delta, 1]
    for bit in bin(e)[3:]:
        prod = [0] * (2 * len(out) - 1)
        for i, x in enumerate(out):
            if x:
                prod[2 * i] += x * x
                x *= 2
                for j in range(i + 1, len(out)):
                    prod[i + j] += x * out[j]
        for top in range(len(prod) - 1, dg - 1, -1):
            c = prod[top] % p
            if c:
                for j, y in enumerate(g, top - dg):
                    prod[j] -= c * y
        out = [c % p for c in prod[:dg]]
        if bit == "1":
            out.insert(0, 0)
            if delta:
                for i in range(len(out) - 1):
                    out[i] += delta * out[i + 1]
            if len(out) > dg:
                c = out.pop()
                out = [(x - c * y) % p for x, y in zip(out, g)]
            elif delta:
                out = [x % p for x in out]
    return _trim(out)


def _minus(a: list[int], k: int, c: int, p: int) -> list[int]:
    """a - c*x^k."""
    a = a + [0] * (k + 1 - len(a))
    a[k] = (a[k] - c) % p
    return _trim(a)


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a nonzero a and b."""
    a = _monic(a, p)
    while b:
        b = _monic(b, p)
        a, b = b, _divmod(a, b, p)[1]
    return a


def _split(h: list[int], p: int, delta: int = 0) -> list[int]:
    """Roots of the monic h, a product of distinct linear factors, by
    equal-degree splitting: for odd p, gcd(h, (x + d)^((p-1)/2) - 1),
    the power from _linear_power, keeps the roots r with r + d a nonzero
    square.  Some d < p separates any two roots; the d already tried
    separate none of the roots of a factor, so its search goes on from
    the next one."""
    if len(h) <= 2:
        return [-h[0] % p] if len(h) == 2 else []
    if p == 2:
        return [0, 1]  # h divides x^2 - x, so h = x^2 + x
    while True:
        w = _minus(_linear_power(delta, (p - 1) // 2, h, p), 0, 1, p)
        d = _gcd(h, w, p)
        delta += 1
        if 1 < len(d) < len(h):
            return _split(d, p, delta) + _split(_divmod(h, d, p)[0], p, delta)


def _residue_roots(coeffs: list[int], p: int) -> list[int] | range:
    """Roots in GF(p), ascending, of the polynomial with these integer
    coefficients (ascending), in O(deg^2 log p) field operations: its
    distinct linear factors are gcd(g, x^p - x), with x^p mod g from
    _linear_power, split by _split; a linear g gives its root directly.
    A polynomial that vanishes mod p gives the lazy range(p)."""
    g = _trim([c % p for c in coeffs])
    if not g:
        return range(p)
    g = _monic(g, p)
    if len(g) <= 2:
        return [-g[0] % p] if len(g) == 2 else []
    h = _gcd(g, _minus(_linear_power(0, p, g, p), 1, 1, p), p)
    return sorted(_split(h, p))


# Rational roots over Q: roots mod a small prime p, lifted p-adically by
# Newton steps and read back as fractions by rational reconstruction
# (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 15 and 5.10;
# Loos 1983, SIAM J. Comput. 12).  Integer polynomials are coefficient
# lists, ascending, without trailing zeros.


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient."""
    c = math.gcd(*a)
    return [x // (c if a[-1] > 0 else -c) for x in a]


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """q and r with lc(b)^k a = q b + r, k = deg a - deg b + 1 and
    deg r < deg b, over the integers (deg a >= deg b)."""
    r = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db]
        r = [x * b[-1] for x in r]
        for j, y in enumerate(b):
            r[i + j] -= c * y
        q = [x * b[-1] for x in q]
        q[i] = c
    return q, _trim(r[:db])


def _squarefree_part(g: list[int]) -> list[int]:
    """The primitive g / gcd(g, g') of a primitive g of positive degree,
    the gcd from a primitive pseudo-remainder sequence."""
    a, b = g, _primitive(_derivative(g))
    while b:
        r = _pseudo_divmod(a, b)[1]
        a, b = b, _primitive(r) if r else r
    return g if len(a) == 1 else _primitive(_pseudo_divmod(g, a)[0])


def _lifting_prime(g: list[int], dg: list[int]) -> int:
    """The smallest odd prime p that does not divide the leading
    coefficient of the squarefree g, with derivative dg, and keeps g
    squarefree mod p."""
    p = 3
    while True:
        if g[-1] % p:
            gp = _trim([c % p for c in g])
            if len(_gcd(gp, _trim([c % p for c in dg]), p)) == 1:
                return p
        p += 2
        while not is_prime(p):
            p += 2


def _eval_mod(a: list, x, m: int):
    """a(x), mod m when m > 0 and exact when m = 0."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m if m else acc * x + c
    return acc


def _reconstruct(r: int, m: int, bound: int) -> tuple[int, int]:
    """(a, b) with a = b*r mod m, |a| <= bound and b != 0, from the half
    extended Euclidean algorithm on m and r; when some fraction with
    numerator at most `bound` and denominator at most m / (bound + 1) is
    congruent to r, it is a / b."""
    r0, r1, t0, t1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of a univariate polynomial with rational
    coefficients (ascending order): 0 first, then the others by
    (|numerator|, denominator, positive before negative).  The zero
    polynomial gives [0], a nonzero constant gives [].

    A root a/b in lowest terms of the primitive squarefree part g has
    |a| <= |g_0| and b <= |g_d|, so a root mod p of g lifted until
    p^e > 2 |g_0 g_d| determines it; each candidate is confirmed by the
    integer sum of g_i a^i b^(d-i)."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return [Fraction(0)]  # identically zero: pick the origin
    low = 0
    while coeffs[low] == 0:
        low += 1
    roots = [Fraction(0)] if low else []
    coeffs = coeffs[low:]
    if len(coeffs) == 1:
        return roots
    den = math.lcm(*(c.denominator for c in coeffs))
    g = _squarefree_part(_primitive([c.numerator * (den // c.denominator) for c in coeffs]))
    dg = _derivative(g)
    bound = abs(g[0])
    p = _lifting_prime(g, dg)
    found = []
    for r in _residue_roots(g, p):
        m = p
        while m <= 2 * bound * g[-1]:
            m *= m
            r = (r - _eval_mod(g, r, m) * pow(_eval_mod(dg, r, m), -1, m)) % m
        a, b = _reconstruct(r, m, bound)
        if b > g[-1]:
            continue
        acc, bp = 0, 1
        for c in reversed(g):
            acc = acc * a + c * bp
            bp *= b
        if acc == 0:
            found.append(Fraction(a, b))
    return roots + sorted(found, key=lambda x: (abs(x.numerator), x.denominator, x < 0))


def _univariate_in(f: Polynomial, target: int, vals: dict):
    """Coefficients (ascending) of f as a univariate polynomial in the
    base variable x_target, every other x_i frozen at the raw scalar
    vals[(0, i)]."""
    p = f.spec.characteristic
    coeffs: dict[int, object] = {}
    for key, c in f.terms.items():
        t, k = c, 0
        for _, i, e in key:
            if i == target:
                k = e
            else:
                t = t * pow(vals[0, i], e, p) if p else t * vals[0, i] ** e
        acc = coeffs.get(k, 0) + t
        coeffs[k] = acc % p if p else acc
    top = max(coeffs, default=0)
    return [coeffs.get(k, 0) for k in range(top + 1)]


def find_smooth_point(f: Polynomial, seed=0) -> Point:
    """A point of V(f) where some first partial is nonzero.

    Freezes all but one coordinate at seeded random values and solves the
    remaining univariate equation: over Q by p-adic lifting of its roots
    mod a small prime and rational reconstruction, over GF(p) by splitting
    gcd(g, x^p - x) into its linear factors, in both cases in time
    polynomial in the bit size of the coefficients.  Roots in GF(p) are
    tried in ascending order, rational roots 0 first and then by
    (|numerator|, denominator, positive before negative).  Deterministic
    in seed; at most SMOOTH_POINT_ATTEMPTS trials.  A trial keeps its
    coordinates as the raw values of a Point, made from that dict when
    found.  At a root r, g'(r) is the partial by the solved coordinate,
    so a simple root is smooth; only a multiple root reads the s first
    partials, as order 1 of taylor_coefficients, with no Polynomial built.
    """
    s = f.base_count
    spec = f.spec
    p = spec.characteristic
    if s < 1 or f.is_constant:
        raise NoSmoothPointFound("the equation has no variables to solve for")
    for t in range(SMOOTH_POINT_ATTEMPTS):
        rng = trial_rng(seed, t, "smooth-point")
        solve = t % s + 1  # x_solve is solved for
        vals = {(0, i): None if i == solve else draw(rng, p) for i in range(1, s + 1)}
        coeffs = _univariate_in(f, solve, vals)
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
    `witness` is the zero jet over the first base point whose sample, the
    exact cokernel rank there, is `cokernel_rank`."""

    expected: int
    samples: tuple[int, ...]
    cokernel_rank: int
    all_match: bool
    trials: int
    seed: object
    witness: Point

    def __str__(self):
        verdict = "matches" if self.all_match else "DIFFERS from"
        return (
            f"generic cokernel rank {self.cokernel_rank} {verdict} the expected "
            f"{self.expected} (probabilistic; trials={self.trials}, seed={self.seed})"
        )


def generic_cokernel_rank(pres: Presentation, trials: int = 20, seed=0) -> CokernelReport:
    """Sample jets over smooth base points of V(f), read the rank of the
    presentation matrix there and report generators minus rank, compared
    against the free rank expected away from the singular locus.

    Trial t takes the base block A_0 = L(a_0) at the smooth base point
    a_0 = find_smooth_point(f, seed=f"{seed}:{t}").  At the zero jet over
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
    never certify.  The witness is the zero jet over the first least."""
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
        base = find_smooth_point(f, seed=f"{seed}:{t}")
        vals, powers = base.values, {}
        smooth = not _raw_value(f, vals, p, powers) and any(_raw_value(g, vals, p, powers) for g in partials)
        sample = expected if smooth else pres.gens - (pres.n + 1) * rank(eval_matrix(pres.L, base))
        if not samples or sample < min(samples):
            witness = base
        samples.append(sample)
    return CokernelReport(
        expected=expected,
        samples=tuple(samples),
        cokernel_rank=min(samples),
        all_match=all(x == expected for x in samples),
        trials=trials,
        seed=seed,
        witness=zero_jet_over(witness, pres.n),
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

    def __str__(self):
        return (
            f"free rank over the jet polynomial ring: {self.jet_ring_rank}; "
            f"free rank of the tensored module: {self.tensor_rank}; {self.verdict}"
        )


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
    `assumptions`.  `witness_jet`, the zero jet over a base point sampled
    in (iii), is `cokernel.witness`; the exact rank there is
    `witness_rank` = gens - `cokernel.cokernel_rank`."""

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
    witness_jet: Point
    witness_rank: int
    assumptions: tuple[str, ...]
    trials: int
    seed: object

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

    def __str__(self):
        lines = [
            f"singularity certificate for f = {self.f}, n = {self.n}, m = {self.m}",
            f"base point: {self.base}",
            f"(i)   zero jet on the jet scheme: {self.membership}",
            f"(ii)  rank at the zero jet: {self.rank} < bound {self.bound}: {self.rank < self.bound}",
            f"(iii) {self.cokernel}",
            f"(iv)  rank jump at a smooth jet (rank {self.witness_rank}): {self.rank_jump}",
            "assumptions: " + "; ".join(self.assumptions),
            f"verdict: {self.verdict}",
        ]
        return "\n".join(lines)


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
    most m, is the multiplicity mu."""
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
    cokernel = generic_cokernel_rank(pres, trials=trials, seed=seed)
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
        witness_jet=cokernel.witness,
        witness_rank=witness_rank,
        assumptions=assumptions,
        trials=trials,
        seed=seed,
    )

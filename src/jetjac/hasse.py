"""Hasse-Schmidt derivation components d_k(f) of base polynomials.

d_k(f) is the t^k coefficient of f(a_1(t), ..., a_s(t)) with
a_i(t) = sum_j x_i^(j) t^j, truncated after t^n.  Two kernels compute it.
The symbolic components (hs_components) expand each power a_i(t)^e by the
multinomial theorem straight into sparse terms and multiply the powers of
one monomial of f as term lists, on raw dicts with the monomial keys of
poly, so no Polynomial arithmetic runs and each component is built once.
A term of d_k holds one key triple per variable in it, at most deg f,
whatever s and k are.  Their values at a jet (hs_values, Taylor mode)
come from truncated series of raw scalars, since evaluation at a point
is a ring homomorphism and commutes with taking t^k coefficients.  One
kernel builds every such series: a product grown one coefficient at a
time by one convolution, resumable from any length (an online product,
van der Hoeven, "Relax, but don't be too lazy", JSC 34, 2002).  Powers
a_i(t)^e come by squaring, and both they and the products of monomial
prefixes are kept in a cache that a jet growing order by order keeps.
Over Q the symbolic kernel runs on integers: it expands D*f, with D the
lcm of the coefficient denominators of f, and divides each term by D as
it stores it.  It counts the terms before it builds them and raises
TooManyTerms above TERM_CAP.  The tests keep an independent oracle:
structural recursion through the convolution Leibniz rule
d_k(fg) = sum_{i+j=k} d_i(f) d_j(g).

check_commutation verifies the derivative interchange rule
partial_{x_i^(j)} (d_k f) = d_{k-j} (partial_{x_i} f) for all admissible
(i, j, k); both matrix identities downstream rest on it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter, mul

from .field import DomainError, FieldSpec, MixedFields
from .poly import JetVariable, MissingCoordinate, Point, Polynomial, _rational, jet_grid


# at most this many terms in d_0(f), ..., d_n(f) together
TERM_CAP = 100_000


class NotBasePolynomial(ValueError, DomainError):
    """Input contains jet variables of positive order."""


class BadJetOrder(ValueError, DomainError):
    """A jet order n below 0."""


class TooManyTerms(ValueError, DomainError):
    """The components d_0(f), ..., d_n(f) would exceed TERM_CAP terms."""

    def __init__(self, count: int):
        super().__init__(f"would generate at least {count} terms (cap {TERM_CAP})")
        self.count = count


@dataclass(frozen=True)
class HSExpansion:
    """The components [d_0(f), ..., d_n(f)] of a base polynomial f."""

    f: Polynomial
    n: int
    components: tuple[Polynomial, ...]

    def __getitem__(self, k: int) -> Polynomial:
        return self.components[k]

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)


def _require_base(f: Polynomial):
    if f.max_order > 0:
        raise NotBasePolynomial(
            "expected a polynomial in the base variables only, "
            f"found jet order {f.max_order}"
        )


def _grow(out, a, b, n, p, rational):
    # grows out, the product of the t-series a and b, to its first n + 1
    # terms, one convolution per new term; a and b hold at least n + 1.
    # Terms past the sum of the last nonzero terms of a and b are 0, so a
    # series that ends early, as at a zero jet, costs little.  It divides
    # by nothing mod p, so it serves every characteristic.  With rational
    # (over Q, some term a Fraction) each sum is taken on the least
    # common denominator: one gcd per term, not two per product
    if len(out) > n:
        return out
    da, db = (next((i for i in range(n, -1, -1) if x[i]), -1) for x in (a, b))
    top = min(n, da + db) if min(da, db) >= 0 else -1
    for k in range(len(out), top + 1):
        xs, ys = a[: k + 1], b[k::-1]
        if not rational:
            c = sum(map(mul, xs, ys))
            out.append(c % p if p else c)
            continue
        dens = [x.denominator * y.denominator for x, y in zip(xs, ys)]
        den = math.lcm(*dens)
        num = sum(x.numerator * y.numerator * (den // d) for x, y, d in zip(xs, ys, dens))
        out.append(Fraction(num, den))
    out += [0] * (n + 1 - len(out))
    return out


def _substituted(f, n, series, cache, p=0):
    """The t-series of f(a_1(t), ..., a_s(t)) truncated after t^n, where
    series[i] lists at least n + 1 raw scalars of a_i(t).  cache keeps
    the series of each power a_i(t)^e, e >= 2, under its key triple
    (0, i, e), squared from a_i^(e div 2) and times a_i for odd e, and
    the product of each monomial key prefix of two or more triples.  A
    call grows every list it reads to n + 1 terms, so one cache serves
    every f substituted into the same series, and a series that grows
    order by order keeps it once each list is cut back to the terms that
    still hold.  Over Q an integral value is stored as an int, as
    FieldSpec.raw stores it."""
    rational = not p and not all(type(c) is int for a in series.values() for c in a)

    def power(i, e):
        # a_i(t)^e, grown to n + 1 with the powers below it, from the top bit of e down
        a = series[i]
        out, x = a, 1
        for bit in bin(e)[3:]:
            x *= 2
            out = _grow(cache.setdefault((0, i, x), []), out, out, n, p, rational)
            if bit == "1":
                x += 1
                out = _grow(cache.setdefault((0, i, x), []), out, a, n, p, rational)
        return out

    acc = [0] * (n + 1)
    for key, coeff in f.terms.items():
        prod = power(*key[0][1:]) if key else [1] + [0] * n
        for end in range(2, len(key) + 1):
            out = cache.setdefault(key[:end], [])
            if len(out) <= n:
                _grow(out, prod, power(*key[end - 1][1:]), n, p, rational)
            prod = out
        for k, c in enumerate(prod[: n + 1]):
            if c:
                acc[k] += coeff * c
    return [c % p for c in acc] if p else list(map(_rational, acc))


def _power_terms(i, e, n, p):
    """a(t)^e truncated after t^n, for a(t) = sum_j y_j t^j with
    y_j = x_i^(j), by the multinomial theorem: the pairs (w, bucket), w
    ascending over the weights that occur, where bucket lists
    (c, coeff) for the monomials y_0^c_0 ... y_w^c_w of weight
    sum_j j c_j = w, with c the monomial key, whose triples (j, i, c_j)
    hold the nonzero c_j, j ascending.  Only weights that occur are
    stored, so nothing of size n is allocated.
    With r = c_1 + ... + c_w parts of positive order, c_0 = e - r and
    coeff = e! / (c_0! c_1! ... c_w!) = C(e, r) r! / (c_1! ... c_w!).
    Moving one factor from y_0 to y_j multiplies the exact coefficient by
    c_0 / (c_j + 1), so e! is never formed.  Over GF(p) the coefficient
    is reduced mod p, and for e >= p the expansion is that of
    a^(e mod p) (a^p)^(e div p), with the Frobenius a(t)^p =
    sum_j y_j^p t^(jp): so every coefficient is a multinomial of a
    number below p and none vanishes (Lucas' theorem), and the monomials
    whose coefficient vanishes mod p are never visited.  Raises
    TooManyTerms once more than TERM_CAP monomials are listed: each of
    them is a term of d_w of any f with x_i^e in a monomial."""
    by_weight = defaultdict(list)
    listed = 0

    def add(w, c, coeff):
        nonlocal listed
        listed += 1
        if listed > TERM_CAP:
            raise TooManyTerms(listed)
        by_weight[w].append((c, coeff))

    if p and e >= p:
        # the exponents of a term of (a^p)^(e div p) are multiples of p and
        # those of a^(e mod p) are below p, so the products are distinct
        low = _power_terms(i, e % p, n, p)
        for w_high, high in _power_terms(i, e // p, n // p, p):
            for w_low, found in _upto(low, n - p * w_high):
                for c_high, k_high in high:
                    for c_low, k_low in found:
                        c = {j: x for j, _, x in c_low}
                        for j, _, x in c_high:
                            c[j] = c.get(j, 0) + p * x
                        key = tuple((j, i, x) for j, x in sorted(c.items()))
                        add(w_low + p * w_high, key, k_high * k_low % p)
        return sorted(by_weight.items())

    def visit(w, coeff, top, c0, parts):
        # the monomial y_0^c0 prod y_j^c_j over the (j, i, c_j) in parts,
        # j ascending, then each that moves one more factor from y_0 to
        # some y_j with j <= top, so that every multiset of parts comes once
        add(w, ((0, i, c0),) + parts if c0 else parts, coeff % p if p else coeff)
        if not c0:
            return
        for j in range(min(top, n - w), 0, -1):
            # parts were moved to y_top, then to lower orders: y_top heads parts
            cj = parts[0][2] if parts and parts[0][0] == j else 0
            grown = ((j, i, cj + 1),) + (parts[1:] if cj else parts)
            visit(w + j, coeff * c0 // (cj + 1), j, c0 - 1, grown)

    visit(0, 1, n, e, ())
    return sorted(by_weight.items())


def _upto(by_weight, top):
    # the (w, bucket) pairs of a _power_terms list with w <= top
    return by_weight[: bisect_right(by_weight, top, key=itemgetter(0))]


def _product_count(factors, n, count):
    """count plus the number of products of one term of each factor (a
    _power_terms list) whose weights sum to at most n.  The sizes by
    weight of the products of all factors but the last are convolved,
    and the last factor is counted from its cumulative bucket lengths,
    one bisection per weight of the others.  Each pair of weights met in
    a convolution is at least one product, and each factor holds y_0^e,
    of weight 0, so a convolution that meets more than TERM_CAP pairs
    stops there with TooManyTerms and the lower bound counted so far."""
    if not factors:
        return count + 1
    sizes = {0: 1}
    for by_weight in factors[:-1]:
        grown, pairs = {}, 0
        for a, size in sizes.items():
            for w, found in _upto(by_weight, n - a):
                grown[a + w] = grown.get(a + w, 0) + size * len(found)
                pairs += 1
            if pairs > TERM_CAP:
                raise TooManyTerms(count + sum(grown.values()))
        sizes = grown
    last = factors[-1]
    below = [0, *accumulate(len(found) for _, found in last)]
    return count + sum(size * below[bisect_right(last, n - a, key=itemgetter(0))] for a, size in sizes.items())


def hs_components(f: Polynomial, n: int) -> HSExpansion:
    """Components via substitution: d_k(f) is the t^k coefficient of
    f(sum_j x_1^(j) t^j, ..., sum_j x_s^(j) t^j) truncated mod t^(n+1).
    A monomial of f is a product of powers a_i(t)^e in distinct variables,
    so its terms are the products of one term of each power, with weights
    summing to at most n.  Any such product is a term of the result: it
    is nonzero, and it is no other product, of this monomial or another,
    since its exponents of x_i^(0), ..., x_i^(n) sum to the e of x_i.  So
    the terms of every monomial are counted, and checked against
    TERM_CAP, before any is built or anything of size n is allocated."""
    _require_base(f)
    if n < 0:
        raise BadJetOrder("n must be >= 0")
    s = f.base_count
    spec = f.spec
    p = spec.characteristic
    # over Q the kernel expands D*f on integers and divides each term by D
    # as it is stored; D = 1 over GF(p) and for integral f
    D = math.lcm(*(c.denominator for c in f.terms.values()))
    powers: dict = {}  # by the key triple (0, i, e) of x_i^e: _power_terms(i, e, n, p)
    monomials = []  # (coeff, the _power_terms lists of its powers)
    count = 0
    for key, coeff in f.terms.items():
        factors = []
        for t in key:
            if t not in powers:
                _, i, e = t
                powers[t] = _power_terms(i, e, n, p)
            factors.append(powers[t])
        count = _product_count(factors, n, count)
        if count > TERM_CAP:
            raise TooManyTerms(count)
        monomials.append((coeff, factors))
    acc = [{} for _ in range(n + 1)]
    for coeff, factors in monomials:
        products = [(0, coeff.numerator * (D // coeff.denominator), ())]
        for by_weight in factors:
            products = [
                (w0 + w, c0 * cw, pieces + piece)
                for w0, c0, pieces in products
                for w, found in by_weight
                if w0 + w <= n
                for piece, cw in found
            ]
        # the pieces of one variable run by order; those of several interleave
        merge = len(factors) > 1
        for w, c0, pieces in products:
            if p:
                c0 %= p
            elif D != 1:
                c0 = Fraction(c0, D) if c0 % D else c0 // D
            acc[w][tuple(sorted(pieces)) if merge else pieces] = c0
    components = tuple(Polynomial._make(spec, found, s, k) for k, found in enumerate(acc))
    return HSExpansion(f, n, components)


def jet_series(point: Point, spec: FieldSpec, s: int, n: int) -> dict[int, list]:
    """The jet as raw coefficient lists a_i = [a_i^(0), ..., a_i^(n)],
    i = 1..s, for hs_values.  The point must be over `spec` and assign
    every x_i^(j) with j <= n."""
    if point.spec != spec:
        raise MixedFields(f"point over {point.spec}, polynomial over {spec}")
    try:
        return {i: [point.values[j, i] for j in range(n + 1)] for i in range(1, s + 1)}
    except KeyError:
        v = next(v for v in jet_grid(s, n) if (v.order, v.base) not in point.values)
        raise MissingCoordinate(f"point assigns no value to {v.name}") from None


def hs_values(g: Polynomial, n: int, series: dict[int, list], cache: dict) -> list:
    """Raw values [d_0(g)(a), ..., d_n(g)(a)] at the jet a given by
    `series` (from jet_series): the t-coefficients of g(a(t)), with
    a_i(t) = sum_j a_i^(j) t^j.  Evaluation is a ring homomorphism, so
    they equal the components evaluated at a, without building them.
    `cache` keeps the series of powers and monomials of the a_i(t); pass
    one dict for every g at the same jet."""
    _require_base(g)
    return _substituted(g, n, series, cache, g.spec.characteristic)


@dataclass(frozen=True)
class CommutationReport:
    ok: bool
    cases_checked: int
    counterexample: tuple[int, int, int] | None  # (i, j, k)

    def __str__(self):
        if self.ok:
            return f"PASS: derivative interchange holds in all {self.cases_checked} cases"
        i, j, k = self.counterexample
        return (
            f"FAIL: partial_(x{i}^({j})) d_{k} != d_{k - j} partial_(x{i}) "
            f"(after {self.cases_checked} cases)"
        )


def check_commutation(f: Polynomial, n: int) -> CommutationReport:
    """Check partial_{x_i^(j)} d_k(f) == d_{k-j}(partial_{x_i} f) exactly
    for all i = 1..s and 0 <= j <= k <= n; a failure is reported, not raised."""
    _require_base(f)
    expansion = hs_components(f, n)
    cases = 0
    for i in range(1, f.base_count + 1):
        dfi = f.partial(JetVariable(i, 0))
        dfi_expansion = hs_components(dfi, n)
        for k in range(n + 1):
            for j in range(k + 1):
                cases += 1
                lhs = expansion[k].partial(JetVariable(i, j))
                rhs = dfi_expansion[k - j]
                if lhs != rhs:
                    return CommutationReport(False, cases, (i, j, k))
    return CommutationReport(True, cases, None)

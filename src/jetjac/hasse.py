"""Hasse-Schmidt derivation components d_k(f) of base polynomials.

d_k(f) is the t^k coefficient of f(a_1(t), ..., a_s(t)) with
a_i(t) = sum_j x_i^(j) t^j, truncated after t^n.  One truncated-series
kernel computes it over two coefficient rings: polynomial series give the
symbolic components (hs_components), and raw-scalar series give their
values at a jet directly (hs_values, Taylor mode), since evaluation at a
point is a ring homomorphism and commutes with taking t^k coefficients.
Powers a_i(t)^e come from the binomial theorem on a_i(t) = x_i + O(t), so
they cost at most n series products whatever e is.  Over Q the symbolic
kernel runs on integers: it expands D*f, with D the lcm of the coefficient
denominators of f, and divides the components by D once at the end.
The tests keep an independent oracle: structural recursion through the
convolution Leibniz rule d_k(fg) = sum_{i+j=k} d_i(f) d_j(g).

check_commutation verifies the derivative interchange rule
partial_{x_i^(j)} (d_k f) = d_{k-j} (partial_{x_i} f) for all admissible
(i, j, k); both matrix identities downstream rest on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .field import FieldSpec, MixedFields
from .poly import JetVariable, MissingCoordinate, Point, Polynomial, jet_grid


class NotBasePolynomial(ValueError):
    """Input contains jet variables of positive order."""


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


def _series_mul(a, b, n, zero, p=0):
    """Product of two t-series truncated after t^n.  Coefficients are
    polynomials, or raw scalars that are reduced mod p when p > 0."""
    out = [zero] * (n + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(n + 1 - i):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    if p:
        out = [c % p for c in out]
    return out


def _series_pow(a, e, n, one, zero, p=0):
    """a^e truncated after t^n, for either coefficient ring of _series_mul.
    With a = a_0 + b and b = O(t), the binomial theorem gives
    a^e = sum_{r <= min(e, n)} C(e, r) a_0^(e-r) b^r, since b^r = O(t^r);
    b^r = b^(r-1) b costs one series product per r.  When a_0 is zero,
    a^e = b^e, which vanishes when e > n.  hs_components passes series of
    integer-coefficient polynomials over Q, and they stay integral here."""
    if e < 2:
        return a if e else [one] + [zero] * n
    a0 = a[0]
    b = [zero] + a[1:]
    if not a0:
        if e > n:
            return [zero] * (n + 1)
        result = b
        for _ in range(e - 1):
            result = _series_mul(result, b, n, zero, p)
        return result
    top = min(e, n)
    # a0_powers[i] = a_0^(e - top + i), so a_0^(e-r) = a0_powers[top - r]
    if e == top:
        a0_powers = [one]
    else:
        a0_powers = [pow(a0, e - top, p) if p else a0 ** (e - top)]
    for _ in range(top):
        a0_powers.append(a0_powers[-1] * a0 % p if p else a0_powers[-1] * a0)
    result = [a0_powers[top]] + [zero] * n
    b_r = b
    for r in range(1, top + 1):
        if r > 1:
            b_r = _series_mul(b_r, b, n, zero, p)
        scale = a0_powers[top - r] * math.comb(e, r)
        if p:
            scale %= p
        if scale:
            for k in range(r, n + 1):
                if b_r[k]:
                    result[k] = result[k] + scale * b_r[k]
    if p:
        result = [c % p for c in result]
    return result


def _substituted(f, n, var_series, powers, one, zero, p=0):
    """The t-series of f(a_1(t), ..., a_s(t)) truncated after t^n, where
    var_series[i] is the series a_i(t).  powers caches a_i(t)^e by (i, e)
    and may be shared by every f substituted into the same series."""
    acc = [zero] * (n + 1)
    for exps, coeff in f.terms.items():
        prod = [one * coeff] + [zero] * n
        for idx, e in enumerate(exps):
            if e:
                key = (f.ambient[idx].base, e)
                powed = powers.get(key)
                if powed is None:
                    powed = _series_pow(var_series[key[0]], e, n, one, zero, p)
                    powers[key] = powed
                prod = _series_mul(prod, powed, n, zero, p)
        for k in range(n + 1):
            if prod[k]:
                acc[k] = acc[k] + prod[k]
    if p:
        acc = [c % p for c in acc]
    return acc


def hs_components(f: Polynomial, n: int) -> HSExpansion:
    """Components via substitution: d_k(f) is the t^k coefficient of
    f(sum_j x_1^(j) t^j, ..., sum_j x_s^(j) t^j) truncated mod t^(n+1)."""
    _require_base(f)
    if n < 0:
        raise ValueError("n must be >= 0")
    s = f.base_count
    spec = f.spec
    grid = jet_grid(s, n)
    # the series start from integer-coefficient monomials, so over Q the
    # products below stay integral until the one division by D
    unit = (0,) * len(grid)
    zero = Polynomial.zero(spec, grid)
    one = Polynomial._make(spec, grid, {unit: 1})
    var_series = {i: [] for i in range(1, s + 1)}
    for idx, v in enumerate(grid):
        var_series[v.base].append(Polynomial._make(spec, grid, {unit[:idx] + (1,) + unit[idx + 1 :]: 1}))
    # D = 1 over GF(p) and for integral f over Q: the raw coefficients are ints
    D = math.lcm(*(c.denominator for c in f.terms.values()))
    cleared = {exps: c.numerator * (D // c.denominator) for exps, c in f.terms.items()}
    acc = _substituted(Polynomial._make(spec, f.ambient, cleared), n, var_series, {}, one, zero)
    components = []
    for k, series_k in enumerate(acc):
        # d_k has weight k, so it uses only the x_i^(j) with j <= k: the
        # first s (k + 1) variables of grid, which make up jet_grid(s, k)
        w = s * (k + 1)
        if D == 1:
            terms = {exps[:w]: c for exps, c in series_k.terms.items()}
        else:
            terms = {
                exps[:w]: Fraction(c, D) if c % D else c // D
                for exps, c in series_k.terms.items()
            }
        components.append(Polynomial._make(spec, grid[:w], terms))
    return HSExpansion(f, n, tuple(components))


def jet_series(point: Point, spec: FieldSpec, s: int, n: int) -> dict[int, list]:
    """The jet as raw coefficient lists a_i = [a_i^(0), ..., a_i^(n)],
    i = 1..s, for hs_values.  The point must be over `spec` and assign
    every x_i^(j) with j <= n."""
    if point.spec != spec:
        raise MixedFields(f"point over {point.spec}, polynomial over {spec}")
    coords = point.coords
    for v in jet_grid(s, n):
        if v not in coords:
            raise MissingCoordinate(f"point assigns no value to {v.name}")
    return {
        i: [coords[JetVariable(i, j)].value for j in range(n + 1)]
        for i in range(1, s + 1)
    }


def hs_values(g: Polynomial, n: int, series: dict[int, list], powers: dict) -> list:
    """Raw values [d_0(g)(a), ..., d_n(g)(a)] at the jet a given by
    `series` (from jet_series): the t-coefficients of g(a(t)), with
    a_i(t) = sum_j a_i^(j) t^j.  Evaluation is a ring homomorphism, so
    they equal the components evaluated at a, without building them.
    `powers` caches a_i(t)^e; pass one dict for every g at the same jet."""
    _require_base(g)
    spec = g.spec
    return _substituted(
        g, n, series, powers, spec.one.value, spec.zero.value, spec.characteristic
    )


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

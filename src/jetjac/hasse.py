"""Hasse-Schmidt derivation components d_k(f) of base polynomials.

d_k(f) is the t^k coefficient of f(a_1(t), ..., a_s(t)) with
a_i(t) = sum_j x_i^(j) t^j, truncated after t^n.  One truncated-series
kernel computes it over two coefficient rings: polynomial series give the
symbolic components (hs_components), and raw-scalar series give their
values at a jet directly (hs_values, Taylor mode), since evaluation at a
point is a ring homomorphism and commutes with taking t^k coefficients.
The tests keep an independent oracle: structural recursion through the
convolution Leibniz rule d_k(fg) = sum_{i+j=k} d_i(f) d_j(g).

check_commutation verifies the derivative interchange rule
partial_{x_i^(j)} (d_k f) = d_{k-j} (partial_{x_i} f) for all admissible
(i, j, k); both matrix identities downstream rest on it.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _series_pow(base, e, n, one, zero, p=0):
    result = [one] + [zero] * n
    square = base
    while e:
        if e & 1:
            result = _series_mul(result, square, n, zero, p)
        e >>= 1
        if e:
            square = _series_mul(square, square, n, zero, p)
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
    zero = Polynomial.zero(spec, grid)
    one = Polynomial.constant(spec, 1, grid)
    var_series = {
        i: [Polynomial.variable(spec, JetVariable(i, j), grid) for j in range(n + 1)]
        for i in range(1, s + 1)
    }
    acc = _substituted(f, n, var_series, {}, one, zero)
    components = tuple(acc[k].restricted(jet_grid(s, k)) for k in range(n + 1))
    return HSExpansion(f, n, components)


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

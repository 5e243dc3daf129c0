"""Reference algebra the output checks use, written apart from jetjac.

Polynomials are dicts from monomials to coefficients.  A monomial is a
sorted tuple of ((base, order), exponent) pairs, so x1^3*x2_1 is
(((1, 0), 3), ((2, 1), 1)).  Coefficients are Fractions over Q and
residues in [0, p) over GF(p); p = 0 stands for Q throughout.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_TERM = re.compile(r"([+-]?)([^+-]+)")
_VAR = re.compile(r"x(\d+)(?:_(\d+))?(?:\^(\d+))?")


def reduce(c, p: int):
    """A rational number as a coefficient of the field."""
    c = Fraction(c)
    if p:
        return c.numerator * pow(c.denominator, -1, p) % p
    return c


def parse(text: str, p: int) -> dict:
    """Parse the jetjac polynomial grammar (as the program prints it)."""
    terms: dict = {}
    text = text.replace(" ", "")
    if text == "0":
        return terms
    for sign, body in _TERM.findall(text):
        coeff = Fraction(-1 if sign == "-" else 1)
        mono: dict = {}
        for factor in body.split("*"):
            m = _VAR.fullmatch(factor)
            if m is None:
                coeff *= Fraction(factor)
            else:
                var = (int(m.group(1)), int(m.group(2) or 0))
                mono[var] = mono.get(var, 0) + int(m.group(3) or 1)
        key = tuple(sorted(mono.items()))
        total = reduce(terms.get(key, 0) + reduce(coeff, p), p)
        if total:
            terms[key] = total
        else:
            terms.pop(key, None)
    return terms


def render(terms: dict) -> str:
    """Source text for a polynomial over Q (coefficients may be a/b)."""
    parts = []
    for mono, c in sorted(terms.items()):
        powers = [f"x{i}" + (f"_{j}" if j else "") + (f"^{e}" if e > 1 else "") for (i, j), e in mono]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not powers else []) + powers)
        parts.append(f"{sign} {body}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def evaluate(terms: dict, point: dict, p: int):
    """Value at a point {(base, order): value}."""
    total = 0
    for mono, c in terms.items():
        t = c
        for var, e in mono:
            t = t * (pow(point[var], e, p) if p else point[var] ** e)
        total = (total + t) % p if p else total + t
    return total


def partial(terms: dict, var) -> dict:
    out = {}
    for mono, c in terms.items():
        powers = dict(mono)
        e = powers.pop(var, 0)
        if e:
            if e > 1:
                powers[var] = e - 1
            out[tuple(sorted(powers.items()))] = c * e
    return out


def substitute(terms: dict, scale, lam: dict) -> dict:
    """scale * f(lam_1 x_1, ..., lam_s x_s) over Q."""
    out = {}
    for mono, c in terms.items():
        t = Fraction(c) * scale
        for (i, _), e in mono:
            t *= Fraction(lam[i]) ** e
        out[mono] = t
    return {m: c for m, c in out.items() if c}


def series_coefficients(terms: dict, jet: dict, n: int, p: int) -> list:
    """Coefficients of t^0..t^n in f(a_1(t), ..., a_s(t)) with
    a_i(t) = sum_j jet[(i, j)] t^j: the values of d_0(f)..d_n(f) at the jet."""

    def mul(a, b):
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(n + 1 - i):
                    out[i + j] += ai * b[j]
        return [c % p for c in out] if p else out

    total = [0] * (n + 1)
    for mono, c in terms.items():
        prod = [c] + [0] * n
        for (i, _), e in mono:
            series = [jet[(i, j)] for j in range(n + 1)]
            for _ in range(e):
                prod = mul(prod, series)
        total = [x + y for x, y in zip(total, prod)]
    return [c % p for c in total] if p else total


def families(s: int, m: int) -> tuple[int, int]:
    """(M, N): rows and columns of Jac_m for one polynomial in s variables."""
    return math.comb(m + s - 1, s), math.comb(m + s, s) - 1

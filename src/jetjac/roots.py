"""Roots of dense univariate polynomials over GF(p) and over Q.

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
the coefficients, not with their size.  A prime that keeps g itself
squarefree proves g squarefree, so the pseudo-remainder sequence that
computes the squarefree part runs only when no odd prime up to
SQUAREFREE_PRIMES_UP_TO does.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .field import is_prime

SQUAREFREE_PRIMES_UP_TO = 23  # the 8 odd primes tried on g before its squarefree part is computed


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


def _lifting_prime(g: list[int], dg: list[int], last: float = math.inf) -> int | None:
    """The smallest odd prime p, up to `last`, that does not divide the
    leading coefficient of g, with derivative dg, and keeps g squarefree
    mod p, or None if there is none.  Such a p proves g squarefree over Q."""
    p = 3
    while p <= last:
        if g[-1] % p:
            gp = _trim([c % p for c in g])
            if len(_gcd(gp, _trim([c % p for c in dg]), p)) == 1:
                return p
        p += 2
        while not is_prime(p):
            p += 2
    return None


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
    g = _primitive([c.numerator * (den // c.denominator) for c in coeffs])
    dg = _derivative(g)
    p = _lifting_prime(g, dg, SQUAREFREE_PRIMES_UP_TO)
    if p is None:
        g = _squarefree_part(g)
        dg = _derivative(g)
        p = _lifting_prime(g, dg)
    bound = abs(g[0])
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

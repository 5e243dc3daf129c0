"""Deterministic random polynomial corpus shared across test modules."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from jetjac import FieldSpec, Point, Polynomial

MASTER_SEED = 20260810

Q = FieldSpec.rationals()
GF2 = FieldSpec.prime_field(2)
GF5 = FieldSpec.prime_field(5)


def corpus_params(count, master_seed=MASTER_SEED, max_s=3, max_deg=4, max_n=3, max_terms=6):
    """Reproducible (s, n, integer term dict) triples."""
    rng = random.Random(master_seed)
    out = []
    for _ in range(count):
        s = rng.randint(1, max_s)
        n = rng.randint(0, max_n)
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * s
            for _ in range(rng.randint(0, max_deg)):
                exps[rng.randrange(s)] += 1
            c = rng.randint(-9, 9)
            if c:
                key = tuple(exps)
                terms[key] = terms.get(key, 0) + c
        out.append((s, n, terms))
    return out


def poly_from_int_terms(s, terms, spec):
    sparse = {tuple((0, i + 1, e) for i, e in enumerate(exps) if e): c for exps, c in terms.items()}
    return Polynomial(spec, sparse, base_count=s)


def random_base_polynomial(rng, s, max_deg, max_terms, spec, nonzero=False):
    """One random polynomial in the base variables x1..xs."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * s
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(s)] += 1
        c = rng.randint(-9, 9)
        if c:
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + c
    poly = poly_from_int_terms(s, terms, spec)
    if nonzero and poly.is_zero:
        return Polynomial.constant(spec, 1, s)
    return poly


# -- hypothesis strategies for the Taylor-mode oracle tests -------------

GF3 = FieldSpec.prime_field(3)
GF32003 = FieldSpec.prime_field(32003)
ORACLE_FIELDS = (Q, GF2, GF3, GF32003)


def _coefficients(spec):
    ints = st.integers(-9, 9)
    if spec.characteristic:
        return ints
    return st.builds(Fraction, ints, st.integers(1, 5))


@st.composite
def base_polynomials(draw, spec, s):
    """Random polynomials in x1..xs.  Some terms carry a p-th power of a
    variable, such as x1^2*x2 over GF(2), whose low d_k vanish."""
    p = spec.characteristic
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        exps = [draw(st.integers(0, 3)) for _ in range(s)]
        if p and draw(st.booleans()):
            exps[draw(st.integers(0, s - 1))] = p
        c = draw(_coefficients(spec))
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + c
    return poly_from_int_terms(s, terms, spec)


@st.composite
def jets(draw, spec, s, n):
    """A point assigning x_i^(j) for i <= s, j <= n: the zero jet over a
    random base point, or random coordinates (a/b over Q)."""
    coords = _coefficients(spec)
    base = [draw(coords) for _ in range(s)]
    if draw(st.booleans()):
        rest = [0] * (s * n)
    else:
        rest = [draw(coords) for _ in range(s * n)]
    return Point.from_flat(base + rest, s, n, spec)

"""Slow reference implementations that the library's fast paths are
checked against."""

import math
import re
from fractions import Fraction

from jetjac import (
    BadCoordinate,
    BadExponent,
    CokernelReport,
    DnMatrix,
    FieldSpec,
    HSExpansion,
    JetVariable,
    NobileCertificate,
    NotBasePolynomial,
    NotSingularBase,
    ParseError,
    Point,
    PolyMatrix,
    Polynomial,
    ScalarMatrix,
    TooManyMinors,
    UnknownVariable,
    WrongCoordinateCount,
    eval_matrix,
    find_smooth_point,
    index_families,
    jac_m,
    jet_equations,
    on_jet_scheme,
    rank,
    rank_at,
    zero_jet_over,
)
from jetjac.field import check_coordinate
from jetjac.jetscheme import HYPERSURFACE_ASSUMPTION, IRREDUCIBILITY_ASSUMPTION, NORMALITY_ASSUMPTION
from jetjac.poly import _rational


class BadMultiIndex(ValueError):
    """A multi-index with a negative entry, given to divided_partial."""


def divided_partial(f: Polynomial, delta) -> Polynomial:
    """The divided-power (Hasse) derivative of f for a multi-index delta
    over the base variables: on x^g it yields prod_i C(g_i, delta_i) *
    x^(g - delta), and 0 when some g_i < delta_i (BadMultiIndex for a
    negative entry).  The binomials are integers reduced into the field,
    so the operator is well defined in characteristic p even when delta!
    vanishes there.  One delta per pass over f: the per-delta oracle of
    jacobian.divided_partials and taylor_coefficients."""
    delta = tuple(delta)
    if any(d < 0 for d in delta):
        raise BadMultiIndex("multi-index entries must be naturals")
    needed = {i + 1: d for i, d in enumerate(delta) if d}  # by base index
    if not needed:
        return f
    p = f.spec.characteristic
    out = {}
    for key, c in f.terms.items():
        # one pass over the key: lower each needed exponent g by d,
        # scaling by C(g, d), and drop the term if some g < d
        lowered = []
        divided = 0
        for t in key:
            d = 0 if t[0] else needed.get(t[1], 0)
            if not d:
                lowered.append(t)
            elif t[2] < d:
                break
            else:
                c *= math.comb(t[2], d)
                divided += 1
                if t[2] > d:
                    lowered.append((0, t[1], t[2] - d))
        else:
            # a needed variable missing from the key has g = 0 < d
            if divided == len(needed):
                c = c % p if p else _rational(c)
                if c:
                    out[tuple(lowered)] = c
    return Polynomial._make(f.spec, out, f.base_count, f.max_order)


def hs_components_leibniz(f: Polynomial, n: int) -> HSExpansion:
    """The components d_0(f), ..., d_n(f) by structural recursion: the
    derivation sends x_i to x_i^(k), kills constants for k >= 1, is
    additive over terms and expands products one variable factor at a
    time through the convolution rule d_k(gh) = sum_{i+j=k} d_i(g) d_j(h).
    Independent of the series substitution that hs_components uses."""
    if f.max_order > 0:
        raise NotBasePolynomial(f"found jet order {f.max_order}")
    if n < 0:
        raise ValueError("n must be >= 0")
    s = f.base_count
    spec = f.spec
    zero = Polynomial.zero(spec, s)
    dvar = {
        i: [Polynomial.variable(spec, JetVariable(i, k)) for k in range(n + 1)]
        for i in range(1, s + 1)
    }
    acc = [zero] * (n + 1)
    for mono, coeff in f.monomials():
        vec = [Polynomial.constant(spec, coeff, s)] + [zero] * n
        for v, e in mono.items():
            base_vec = dvar[v.base]
            for _ in range(e):
                nxt = [zero] * (n + 1)
                for i in range(n + 1):
                    vi = base_vec[i]
                    for j in range(n + 1 - i):
                        if not vec[j].is_zero:
                            nxt[i + j] = nxt[i + j] + vi * vec[j]
                vec = nxt
        for k in range(n + 1):
            if not vec[k].is_zero:
                acc[k] = acc[k] + vec[k]
    # d_k has base_count s and max_order k
    components = tuple(
        Polynomial(spec, {tuple((v.order, v.base, e) for v, e in m.items()): c for m, c in acc[k].monomials()}, s, k)
        for k in range(n + 1)
    )
    return HSExpansion(f, n, components)


def polynomial_str(self: Polynomial) -> str:
    """The canonical printer as it was before it became one pass: signs
    from Fraction comparisons, names looked up per term, pieces joined
    pairwise, and terms sorted by (degree, dense exponent tuple) over the
    canonically sorted variables.  Polynomial.__str__ must match it byte
    for byte."""
    if not self.terms:
        return "0"
    monos = list(self.monomials())
    ambient = sorted({v for mono, _ in monos for v in mono})
    dense = [(tuple(mono.get(v, 0) for v in ambient), c.value) for mono, c in monos]
    ordered = sorted(dense, key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    pieces = []
    for exps, c in ordered:
        if self.spec.characteristic == 0 and c < 0:
            sign, mag = "-", -c
        else:
            sign, mag = "+", c
        powers = [
            v.name if e == 1 else f"{v.name}^{e}"
            for v, e in zip(ambient, exps)
            if e
        ]
        if not powers:
            body = str(mag)
        elif mag == 1:
            body = "*".join(powers)
        else:
            body = "*".join([str(mag)] + powers)
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += sign + body
    return out


def evaluate_termwise(f: Polynomial, point) -> object:
    """The raw value of f at a point, computed as Polynomial.evaluate did
    before it shared one core with the rest of the library: every power
    of every term is taken anew, and nothing is cached."""
    p = f.spec.characteristic
    acc = 0
    for mono, c in f.monomials():
        t = c.value
        for v, e in mono.items():
            val = point.coords[v].value
            t = t * pow(val, e, p) if p else t * val**e
        acc = (acc + t) % p if p else acc + t
    return f.spec.raw(acc)


def multiplicity(f: Polynomial, a: Point) -> int:
    """The multiplicity of f at the base point a: the least |delta| with
    the divided partial Delta^delta f nonzero at a, by Taylor's formula
    f(a + y) = sum_delta (Delta^delta f)(a) y^delta, valid in every
    characteristic.  Each delta is taken alone, norm by norm, and no
    matrix is built.  f must be nonzero."""
    s = f.base_count

    def deltas(norm, width):
        # every delta in N^width with |delta| = norm
        if width == 1:
            yield (norm,)
            return
        for head in range(norm, -1, -1):
            for rest in deltas(norm - head, width - 1):
                yield (head,) + rest

    # delta = the exponent of a term of top degree leaves its coefficient
    for norm in range(f.degree() + 1):
        if any(divided_partial(f, delta).evaluate(a).value for delta in deltas(norm, s)):
            return norm


def nobile_certificate_by_matrix(f: Polynomial, n: int, m: int, base: Point, trials: int = 20, seed=0) -> NobileCertificate:
    """The certificate of nobile_certificate with every fact read off a
    matrix: the base is checked by evaluating f and its first partials,
    fact (ii) ranks D_n(Jac_m f) at the zero jet with rank_at, and each
    cokernel sample ranks the base block Jac_m f(a_0) at its sampled base
    point a_0, drawn on lines through the base as the certificate draws
    it, whether or not a first partial is nonzero there.  The
    expected rank is the shape of D_n(Jac_m f), not a count.  Parameters
    are taken as valid."""
    if not f.evaluate(base).is_zero:
        raise NotSingularBase("the base point is not on the hypersurface")
    for i in range(1, f.base_count + 1):
        g = f.partial(JetVariable(i, 0)).evaluate(base)
        if not g.is_zero:
            raise NotSingularBase(f"partial derivative by x{i} is {g} != 0 at the base point")
    zjet = zero_jet_over(base, n)
    assert on_jet_scheme(jet_equations(f, n), zjet)
    L = jac_m([f], m)
    D = DnMatrix(L, n)
    zero_rank = rank_at(D, zjet)
    expected = D.cols - D.rows
    samples, bases = [], []
    for t in range(trials):
        bases.append(find_smooth_point(f, seed=f"{seed}:{t}", through=base))
        samples.append(D.cols - (n + 1) * rank(eval_matrix(L, bases[-1])))
    low = min(samples)
    cokernel = CokernelReport(
        expected=expected,
        samples=tuple(samples),
        cokernel_rank=low,
        all_match=all(x == expected for x in samples),
        trials=trials,
        seed=seed,
        witness=bases[samples.index(low)],
    )
    witness_rank = D.cols - low
    return NobileCertificate(
        f=f,
        n=n,
        m=m,
        base=base,
        membership=True,
        rank=zero_rank,
        bound=D.rows,
        full=zero_rank == D.rows,
        cokernel=cokernel,
        rank_jump=witness_rank == D.rows and zero_rank < D.rows,
        witness_rank=witness_rank,
        assumptions=(HYPERSURFACE_ASSUMPTION, IRREDUCIBILITY_ASSUMPTION, NORMALITY_ASSUMPTION),
        trials=trials,
        seed=seed,
    )


def residue_roots_scan(coeffs: list[int], p: int) -> list[int]:
    """Roots in GF(p), ascending, of the univariate polynomial with the
    given integer coefficients (ascending), by evaluating it at every
    residue; every residue when it vanishes identically mod p."""
    if all(c % p == 0 for c in coeffs):
        return list(range(p))
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def rational_roots_divisors(coeffs) -> list[Fraction]:
    """Rational roots of the univariate polynomial with these rational
    coefficients (ascending), by the rational root theorem: with the
    denominators cleared and the root 0 divided out, every root is
    +-a/b in lowest terms with a dividing the lowest and b the highest
    coefficient.  The divisor pairs are tried by increasing a, then b,
    + before -, each by the integer sum of c_i a^i b^(d-i); 0 comes
    first.  The zero polynomial gives [0], a nonzero constant [].
    Trial division up to the square root: small coefficients only."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return [Fraction(0)]
    low = 0
    while coeffs[low] == 0:
        low += 1
    roots = [Fraction(0)] if low else []
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs[low:]]

    def divisors(n):
        small = [d for d in range(1, math.isqrt(abs(n)) + 1) if n % d == 0]
        return sorted(set(small + [abs(n) // d for d in small]))

    for a in divisors(ints[0]):
        for b in divisors(ints[-1]):
            if math.gcd(a, b) != 1:
                continue
            for num in (a, -a):
                acc, bp = 0, 1
                for c in reversed(ints):
                    acc = acc * num + c * bp
                    bp *= b
                if acc == 0:
                    roots.append(Fraction(num, b))
    return roots


def transpose(mx):
    """The transpose of a PolyMatrix or of a ScalarMatrix."""
    flat = mx.entries if isinstance(mx, PolyMatrix) else mx.values
    swapped = tuple(flat[i * mx.cols + j] for j in range(mx.cols) for i in range(mx.rows))
    if isinstance(mx, PolyMatrix):
        return PolyMatrix(mx.cols, mx.rows, swapped)
    return ScalarMatrix(mx.cols, mx.rows, swapped, mx.spec)


def leibniz_det(rows: list[list[Polynomial]], spec) -> Polynomial:
    """Determinant by the Leibniz formula: the sum over permutations s of
    sign(s) * a[0][s(0)] * ... * a[k-1][s(k-1)], with the sign read off
    the inversion count.  Permutations through a zero entry are skipped,
    since their product vanishes.  The 0 x 0 determinant is 1."""
    k = len(rows)
    total = Polynomial.zero(spec)

    def extend(i, used, product):
        nonlocal total
        if i == k:
            inversions = sum(1 for a in range(k) for b in range(a + 1, k) if used[a] > used[b])
            total = total - product if inversions % 2 else total + product
            return
        for j in range(k):
            if j not in used and not rows[i][j].is_zero:
                extend(i + 1, used + (j,), product * rows[i][j])

    extend(0, (), Polynomial.constant(spec, 1))
    return total


def laplace_walk_polynomials(mx, k: int, cap: int) -> dict:
    """linalg._laplace_walk as it was before it ran on packed term dicts:
    the same walk, rows and signs, with every product, negation and sum a
    Polynomial operation, so each minor is over the union of the ambients
    of the entries it multiplies."""
    one = Polynomial.constant(mx.spec, 1)
    if k == 0:
        return {(): {0: one}}
    nonzero = [[(c, e) for c, e in enumerate(mx.row(i)) if e] for i in range(mx.rows)]
    order = sorted(range(mx.rows), key=lambda i: (len(nonzero[i]), i))
    found = {}
    stored = 0
    stack = [[0, (), 0, {0: one}]]
    while stack:
        frame = stack[-1]
        pos, taken, inversions, level = frame
        if pos > len(order) - (k - len(taken)):
            stack.pop()
            continue
        frame[0] = pos + 1
        r = order[pos]
        grown = {}
        for cols, minor in level.items():
            for c, entry in nonzero[r]:
                bit = 1 << c
                if cols & bit:
                    continue
                term = entry * minor
                if (cols >> c).bit_count() & 1:
                    term = -term
                key = cols | bit
                grown[key] = grown[key] + term if key in grown else term
        grown = {cols: value for cols, value in grown.items() if value}
        if not grown:
            continue
        stored += len(grown)
        if stored > cap:
            raise TooManyMinors(stored, cap)
        row_sel = taken + (r,)
        inversions += sum(1 for q in taken if q > r)
        if len(row_sel) < k:
            stack.append([pos + 1, row_sel, inversions, grown])
        elif inversions & 1:
            found[tuple(sorted(row_sel))] = {cols: -value for cols, value in grown.items()}
        else:
            found[tuple(sorted(row_sel))] = grown
    return found


def exponent_vectors_recursive(norm: int, s: int):
    """The multi-indices in N^s of the given norm, lexicographically
    descending, by recursion on the first coordinate, as
    jacobian.exponent_vectors listed them before it became iterative."""
    if s == 1:
        yield (norm,)
        return
    for first in range(norm, -1, -1):
        for rest in exponent_vectors_recursive(norm - first, s - 1):
            yield (first,) + rest


def jac_m_by_cells(fs: list[Polynomial], m: int) -> PolyMatrix:
    """The order-m Jacobian as jacobian.jac_m built it before it read f
    once: every (beta, alpha) cell tests whether alpha dominates beta, and
    each new delta = alpha - beta takes one more pass over f through
    divided_partial.  The cells of one delta share one object,
    and the other cells share f's zero."""
    s = max(f.base_count for f in fs)
    fam = index_families(s, m)
    entries = []
    for f in fs:
        zero = Polynomial.zero(f.spec, f.base_count, f.max_order)
        partials = {}
        for beta in fam.lambda0:
            for alpha in fam.lambda_:
                if all(a >= b for a, b in zip(alpha, beta)):
                    delta = tuple(a - b for a, b in zip(alpha, beta))
                    if delta not in partials:
                        partials[delta] = divided_partial(f, delta)
                    entries.append(partials[delta])
                else:
                    entries.append(zero)
    return PolyMatrix(len(fs) * fam.M, fam.N, tuple(entries))


# -- the parsers as they were before they read their input in one pass -----

_TOKEN_BY_MATCH = re.compile(r"(?P<ws>\s+)|(?P<num>\d+)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*/^])")
_VAR_BY_MATCH = re.compile(r"x(\d+)(?:_(\d+))?$")


def _integer(digits: str, position: int) -> int:
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too long", position) from None


def tokenize_by_match(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_BY_MATCH.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _ParserByTokens:
    def __init__(self, tokens, s: int, spec: FieldSpec, length: int):
        self.tokens = tokens
        self.i = 0
        self.s = s
        self.spec = spec
        self.length = length

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, "", self.length)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self):
        terms = []  # list of ({JetVariable: exp}, raw coeff)
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text in "+-":
            self.take()
            sign = -1 if text == "-" else 1
        if self.peek()[0] is None:
            raise ParseError("empty polynomial", self.peek()[2])
        terms.append(self.term(sign))
        while self.peek()[0] is not None:
            kind, text, pos = self.take()
            if kind != "op" or text not in "+-":
                raise ParseError(f"expected '+' or '-', found {text!r}", pos)
            terms.append(self.term(-1 if text == "-" else 1))
        return terms

    def term(self, sign: int):
        mono: dict[JetVariable, int] = {}
        coeff = self.factor(mono, Fraction(sign))
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text == "*":
                self.take()
                coeff = self.factor(mono, coeff)
            else:
                return mono, coeff

    def factor(self, mono, coeff):
        kind, text, pos = self.take()
        if kind == "num":
            value = Fraction(_integer(text, pos))
            if self.peek()[:2] == ("op", "/"):
                self.take()
                kind2, text2, pos2 = self.take()
                if kind2 != "num":
                    raise ParseError("expected an integer denominator", pos2)
                den = _integer(text2, pos2)
                if den == 0:
                    raise ParseError("zero denominator", pos2)
                value /= den
            return coeff * value
        if kind == "name":
            m = _VAR_BY_MATCH.match(text)
            if m is None:
                raise UnknownVariable(f"unknown variable {text!r}", pos)
            base = _integer(m.group(1), pos + 1)
            order = _integer(m.group(2), pos + m.start(2)) if m.group(2) else 0
            if not 1 <= base <= self.s:
                raise UnknownVariable(
                    f"variable {text!r} outside x1..x{self.s}", pos
                )
            v = JetVariable(base, order)
            e = 1
            if self.peek()[:2] == ("op", "^"):
                self.take()
                kind2, text2, pos2 = self.take()
                if kind2 == "op" and text2 == "-":
                    raise BadExponent("negative exponent", pos2)
                if kind2 != "num":
                    raise ParseError("expected an exponent", pos2)
                e = _integer(text2, pos2)
            mono[v] = mono.get(v, 0) + e
            return coeff
        raise ParseError(f"expected a coefficient or variable, found {text!r}", pos)


def parse_poly_by_tokens(src: str, s: int, spec: FieldSpec = None) -> Polynomial:
    """poly.parse_poly as it was before it read its tokens in one pass:
    a token list of (kind, text, position), a recursive-descent parser
    that keeps a JetVariable per factor and a Fraction coefficient per
    term, and the Polynomial constructor over the terms summed by their
    monomials in order of first occurrence.  parse_poly must give the
    same terms, base_count and max_order, or the same error class,
    message and position."""
    if spec is None:
        spec = FieldSpec.rationals()
    if s < 1:
        raise ValueError("s must be >= 1")
    tokens = tokenize_by_match(src)
    parsed = _ParserByTokens(tokens, s, spec, len(src)).parse()
    # the constructor sums the terms whose monomials agree once sorted
    sparse: dict[tuple, object] = {}
    for mono, coeff in parsed:
        key = tuple(mono.items())
        prev = sparse.get(key)
        sparse[key] = coeff if prev is None else prev + coeff
    return Polynomial(spec, {tuple((v.order, v.base, e) for v, e in key): c for key, c in sparse.items()}, s)


def parse_point_by_fractions(text: str, s: int, n: int, spec: FieldSpec) -> Point:
    """cli.parse_point as it was before it read its coordinates in one
    pass: each coordinate checked, the count checked, then each one
    checked again and read by Fraction(str) on its way into a Point.
    parse_point must give the same point or the same error."""
    values = [check_coordinate(v.strip()) for v in text.split(",")]
    if len(values) != s * (n + 1):
        raise WrongCoordinateCount(f"expected {s * (n + 1)} coordinates, got {len(values)}")
    out = {}
    for j in range(n + 1):
        for i in range(1, s + 1):
            coordinate = check_coordinate(values[j * s + i - 1])
            try:
                x = Fraction(coordinate)
            except ValueError:  # more digits than int() converts
                raise BadCoordinate(f"coordinate of {len(coordinate)} characters is too long") from None
            out[j, i] = spec.raw(x)
    return Point._make(spec, out)

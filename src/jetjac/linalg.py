"""Exact linear algebra over the coefficient field.

A matrix at a point is a ScalarMatrix of raw scalars, which rank reads
without wrapping them in field elements.  eval_matrix wraps the
values_at of each matrix kind: a DnMatrix D_n(L) by Taylor mode, a
JacmMatrix by one Taylor pass per distinct f (jacobian.taylor_coefficients),
with no symbolic partial, and any other polynomial matrix once per
distinct entry object.  Rank uses one elimination routine per scalar
kind: over Q each row is cleared of denominators (a row of ints is taken
as it is) and integer Bareiss elimination runs with exact integer division; over
GF(p) plain Gaussian elimination runs with one inverse per pivot.  Both
leave a row whose head is zero untouched.  rank_at ranks D_n(L) at a
jet by the block rule: every diagonal block is the b x a matrix
A_0 = L(a_0), so when A_0 has full row or column rank, or every block
above the diagonal vanishes, the rank is (n+1) rank(A_0);
only otherwise is the whole (n+1)b x (n+1)a matrix laid out by
DnMatrix.values_at and eliminated.  A_0 = eval_matrix(L, a) is ranked
first: by the Taylor pass when L is a JacmMatrix, and otherwise each
distinct entry object of L is evaluated once by poly._raw_value, the
evaluator that Polynomial.evaluate wraps too, with one table of powers
for all of them.  The series of L to order n, which reads the symbolic
L, is computed only when A_0 does not decide the rank.
Minors and determinants of polynomial matrices come from one
division-free Laplace expansion, shared between all row selections with
a common prefix.  It multiplies and adds raw term dicts whose monomials
are packed into ints: B bits per variable that occurs in an entry,
with B the bit length of k e for k x k minors and e the largest
exponent in any entry.  A k x k minor is a sum of products of k entries, so no exponent
in it exceeds k e < 2^B, no field carries into the next, and multiplying
two monomials is adding two ints.  MINOR_CAP bounds the minors listed
and stored, MINOR_TERM_CAP the terms stored on the way.
Generic rank is probabilistic: the maximum exact rank over seeded random
evaluation points, always reported with its seed.  Every matrix is
drawn over its variables() by one loop; D_n(L) is (n+1) times the
generic rank of L, which needs the base coordinates alone.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .field import DomainError, FieldSpec
from .hasse import jet_series
from .jacobian import JacmMatrix, PolyMatrix, ScalarMatrix
from .jetmatrix import DnMatrix
from .poly import Point, Polynomial, _Memo, _rational

MINOR_CAP = 100_000
MINOR_TERM_CAP = 2_000_000
SAMPLE_RANGE = 10  # rational evaluation coordinates are drawn from [-10, 10]


def draw(rng: random.Random, p: int) -> int:
    """One seeded coordinate, raw: a uniform residue over GF(p), an
    integer in [-SAMPLE_RANGE, SAMPLE_RANGE] over Q."""
    return rng.randrange(p) if p else rng.randint(-SAMPLE_RANGE, SAMPLE_RANGE)


class TooManyMinors(ValueError, DomainError):
    """The requested minor enumeration exceeds the cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"would generate {count} minors (cap {cap})")
        self.count = count


class TooManyMinorTerms(ValueError, DomainError):
    """The intermediate minors of an enumeration exceed MINOR_TERM_CAP
    terms together."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"intermediate minors would store at least {count} terms (cap {cap})")
        self.count = count


class NotSquare(ValueError):
    """A determinant of a matrix that is not square."""


class BadMinorSize(ValueError, DomainError):
    """A minor size k outside 0..min(rows, cols)."""


class BadTrialCount(ValueError, DomainError):
    """A sampling budget of fewer than one trial."""


def eval_matrix(mx: PolyMatrix | JacmMatrix | DnMatrix, point: Point) -> ScalarMatrix:
    """A matrix at a point, from the raw values of mx.values_at(point),
    which makes the field and coordinate checks of its kind."""
    return ScalarMatrix(mx.rows, mx.cols, mx.values_at(point), point.spec)


def rank(mx: ScalarMatrix) -> int:
    """Exact rank: integer Bareiss over Q, Gaussian elimination over GF(p)."""
    rows, cols = mx.rows, mx.cols
    if rows == 0 or cols == 0:
        return 0
    values = mx.values
    row_values = [values[i * cols : (i + 1) * cols] for i in range(rows)]
    p = mx.spec.characteristic
    if p:
        return _rank_mod_p([list(row) for row in row_values], cols, p)
    return _rank_integer([_integer_row(row) for row in row_values], cols)


def rank_at(mx: PolyMatrix | JacmMatrix | DnMatrix, point: Point) -> int:
    """rank(eval_matrix(mx, point)), read off the diagonal block of a
    DnMatrix where the block rule decides it.

    At a jet a, D = D_n(L) is block upper-triangular with block (i, j) =
    A_(j-i), the t^(j-i) coefficient of L(a(t)), so every diagonal block
    is the b x a matrix A_0 = L(a_0).  With r0 = rank A_0, D has rank
    (n+1) r0 when
      - r0 = min(b, a): full row rank of A_0 makes y D = 0 give y_0 = 0
        from the first block column, then y_1 = 0 from the second, and so
        on; full column rank makes D x = 0 give x_n = 0 from the last
        block row, then x_(n-1) = 0, and so on;
      - every A_k with k >= 1 is zero, as at every zero jet: D is then
        block diagonal with n + 1 copies of A_0.
    A_0 = eval_matrix(L, a) comes first; L holds base variables alone.
    The series of L(a(t)) to order n (D.series_at) is computed only when
    A_0 is deficient and some coordinate of positive order is nonzero, so
    a zero jet takes no series of L at all; only when some A_k is then
    nonzero is the whole (n+1)b x (n+1)a matrix laid out (D.values_at,
    within DENSE_CAP cells) and eliminated.  The point is checked to order
    n in every case; generic_rank ranks L alone and so never lays the
    matrix out.  A matrix without rows or columns has rank 0 at any point,
    and any other matrix is evaluated by eval_matrix."""
    if mx.rows == 0 or mx.cols == 0:
        return 0
    if not isinstance(mx, DnMatrix):
        return rank(eval_matrix(mx, point))
    n, L = mx.n, mx.L
    series = jet_series(point, mx.spec, mx.s, n)
    r0 = rank(eval_matrix(L, point))
    if r0 == min(L.rows, L.cols) or not any(any(v[1:]) for v in series.values()):
        return (n + 1) * r0
    if not any(any(v[1:]) for v in mx.series_at(point)):
        return (n + 1) * r0
    # not through eval_matrix, whose benchmark span counts the terms of mx.entries
    return rank(ScalarMatrix(mx.rows, mx.cols, mx.values_at(point), mx.spec))


def _integer_row(fracs) -> list[int]:
    # scaling a row by the lcm of its denominators leaves the rank unchanged;
    # a row of ints is taken as it is
    if set(map(type, fracs)) == {int}:
        return list(fracs)
    scale = math.lcm(*(x.denominator for x in fracs))
    return [x.numerator * (scale // x.denominator) for x in fracs]


def _rank_integer(a: list[list[int]], cols: int) -> int:
    """Bareiss elimination on integer rows.  After step k every entry
    below the pivots is a minor of the input, so dividing by the previous
    pivot p_(k-1) is exact.  A row whose head is zero is left untouched,
    as in _rank_mod_p: it keeps the minors of the step j that last
    changed it (the input, with p_j = 1, if none did), which are its
    step-(k-1) minors times p_j/p_(k-1).  So its next update divides by
    p_j, exactly, and a row chosen as pivot is first multiplied by
    p_(k-1)/p_j, exactly too."""
    rows = len(a)
    last = [1] * rows  # per row, the pivot of the step that last changed it
    r = 0
    prev = 1
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[pivot_row], a[r] = a[r], a[pivot_row]
        last[pivot_row], last[r] = last[r], last[pivot_row]
        top = a[r]
        if last[r] != prev:
            top[c:] = [x * prev // last[r] for x in top[c:]]
        pivot = top[c]
        tail = top[c + 1 :]
        for i in range(r + 1, rows):
            row = a[i]
            head = row[c]
            if head:
                scale = last[i]
                row[c + 1 :] = [
                    (pivot * x - head * y) // scale for x, y in zip(row[c + 1 :], tail)
                ]
                last[i] = pivot
        prev = pivot
        r += 1
        if r == rows:
            break
    return r


def _rank_mod_p(a: list[list[int]], cols: int, p: int) -> int:
    """Gaussian elimination on residue rows, one inverse per pivot; rows
    whose head is already zero are left untouched."""
    rows = len(a)
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[pivot_row], a[r] = a[r], a[pivot_row]
        top = a[r]
        inv = pow(top[c], -1, p)
        tail = top[c + 1 :]
        for i in range(r + 1, rows):
            row = a[i]
            if row[c]:
                factor = row[c] * inv % p
                row[c + 1 :] = [(x - factor * y) % p for x, y in zip(row[c + 1 :], tail)]
        r += 1
        if r == rows:
            break
    return r


def poly_det(mx: PolyMatrix) -> Polynomial:
    """Determinant of a square polynomial matrix: its one full-size minor."""
    if mx.rows != mx.cols:
        raise NotSquare("determinant needs a square matrix")
    return minors(mx, mx.rows).values[0]


@dataclass(frozen=True)
class MinorSet:
    """All k x k minors of a polynomial matrix, with their index tuples."""

    k: int
    selections: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    values: tuple[Polynomial, ...]

    def __len__(self):
        return len(self.values)


def minors(mx: PolyMatrix, k: int) -> MinorSet:
    """Every k x k minor of mx as a polynomial (the determinantal
    generators of the rank-deficiency locus), listed by row selection and
    then column selection, each in itertools.combinations order.

    At most MINOR_CAP minors are listed, and at most MINOR_CAP
    intermediate minors are stored while computing them (TooManyMinors
    otherwise), with at most MINOR_TERM_CAP terms among them
    (TooManyMinorTerms otherwise)."""
    if k < 0 or k > min(mx.rows, mx.cols):
        raise BadMinorSize(f"k must be between 0 and min({mx.rows}, {mx.cols})")
    count = math.comb(mx.rows, k) * math.comb(mx.cols, k)
    if count > MINOR_CAP:
        raise TooManyMinors(count, MINOR_CAP)
    found = _laplace_walk(mx, k)
    zero = Polynomial.zero(mx.spec)
    selections = []
    values = []
    for row_sel in itertools.combinations(range(mx.rows), k):
        by_columns = found.get(row_sel, {})
        for col_sel in itertools.combinations(range(mx.cols), k):
            selections.append((row_sel, col_sel))
            values.append(by_columns.get(sum(1 << c for c in col_sel), zero))
    return MinorSet(k, tuple(selections), tuple(values))


def _laplace_walk(mx: PolyMatrix, k: int) -> dict:
    """The nonzero k x k minors of mx as {row selection: {column bitmask:
    minor}}.

    Rows are taken one at a time, depth first.  For the rows R taken so
    far, a level maps each column set S with minor(R, S) != 0 to that
    minor.  Expanding along the new row r needs no division:
        minor(R + r, S) = sum over c in S of
                          (-1)^#{c' in S : c' > c} * a[r][c] * minor(R, S - c).
    A prefix is expanded once for every selection that starts with it,
    and is dropped with its extensions once its level is empty, since
    every larger minor on those rows expands into it.  R is in walk
    order, so a finished minor takes the sign of that permutation.

    The walk runs on raw term dicts.  The variables that occur in some
    entry are numbered in key order, and each monomial key of each
    distinct entry object is packed once into one int with B bits per
    variable, so multiplying two monomials adds two ints.  With e the
    largest exponent in any entry, B is the bit length of k e: a minor of
    size at most k is a sum of products of at most k entries, so none of
    its exponents exceeds k e < 2^B and no field carries into the next.  Each new minor sums its
    signed products straight into one dict, whose coefficients are then
    reduced mod p, or normalised over Q, once; only the k x k minors are
    unpacked into monomial keys, each packed monomial once per walk.  A
    minor takes mx.dims as its base_count and max_order.  At most
    MINOR_CAP intermediate minors are stored (TooManyMinors, checked per
    level), holding at most MINOR_TERM_CAP terms together
    (TooManyMinorTerms, checked as each minor is stored, so the budget
    also bounds the memory held)."""
    spec = mx.spec
    if k == 0:
        return {(): {0: Polynomial.constant(spec, 1)}}
    p = spec.characteristic
    triples = {t for g in mx.distinct for key in g.terms for t in key}
    width = (k * max((e for _, _, e in triples), default=0)).bit_length()
    # the variables in key order, each with its field of bits
    fields = [(o, b, i * width) for i, (o, b) in enumerate(sorted({t[:2] for t in triples}))]
    shift = {(o, b): s for o, b, s in fields}
    mask = (1 << width) - 1
    packs = []
    for g in mx.distinct:
        packed = [(sum(e << shift[o, b] for o, b, e in key), a) for key, a in g.terms.items()]
        packs.append((packed, [(m, -a) for m, a in packed]))
    cols, layout = mx.cols, mx.layout
    nonzero = [
        [(c, 1 << c, *packs[j]) for c, j in enumerate(layout[i * cols : (i + 1) * cols]) if packs[j][0]]
        for i in range(mx.rows)
    ]
    shape = mx.dims
    # a packed monomial of a k x k minor unpacked into its key, once
    keys = _Memo(lambda m: tuple((o, b, x) for o, b, s in fields if (x := m >> s & mask)))
    # sparsest rows first: a sparse row extends each minor in few ways, so
    # the levels near the root, which the most selections share, stay small
    order = sorted(range(mx.rows), key=lambda i: (len(nonzero[i]), i))
    found = {}
    stored = stored_terms = 0
    # a frame is [next position in order, rows taken, their inversions, level]
    stack = [[0, (), 0, {0: {0: 1}}]]
    while stack:
        frame = stack[-1]
        pos, taken, inversions, level = frame
        if pos > len(order) - (k - len(taken)):
            stack.pop()
            continue
        frame[0] = pos + 1
        r = order[pos]
        row = nonzero[r]
        targets = {cols | bit for cols in level for _, bit, _, _ in row if not cols & bit}
        grown = {}
        for target in targets:
            acc = {}
            get = acc.get
            for c, bit, plus, minus in row:
                if target & bit:
                    minor = level.get(target ^ bit)
                    if minor is None:
                        continue
                    terms = minor.items()
                    for m1, a1 in minus if (target >> c + 1).bit_count() & 1 else plus:
                        for m2, a2 in terms:
                            m = m1 + m2
                            acc[m] = get(m, 0) + a1 * a2
            if p:
                acc = {m: residue for m, a in acc.items() if (residue := a % p)}
            else:
                acc = {m: _rational(a) for m, a in acc.items() if a}
            if acc:
                grown[target] = acc
                stored_terms += len(acc)
                if stored_terms > MINOR_TERM_CAP:
                    raise TooManyMinorTerms(stored_terms, MINOR_TERM_CAP)
        if not grown:
            continue
        stored += len(grown)
        if stored > MINOR_CAP:
            raise TooManyMinors(stored, MINOR_CAP)
        row_sel = taken + (r,)
        inversions += sum(1 for q in taken if q > r)
        if len(row_sel) < k:
            stack.append([pos + 1, row_sel, inversions, grown])
            continue
        sign = -1 if inversions & 1 else 1
        found[tuple(sorted(row_sel))] = {
            cols: Polynomial._make(spec, {keys[m]: sign * a % p if p else sign * a for m, a in minor.items()}, *shape)
            for cols, minor in grown.items()
        }
    return found


def random_point(spec: FieldSpec, variables, rng: random.Random) -> Point:
    """A point with coordinates drawn from a fixed range: integers in
    [-SAMPLE_RANGE, SAMPLE_RANGE] over Q, uniform residues over GF(p)."""
    p = spec.characteristic
    return Point._make(spec, {(v.order, v.base): draw(rng, p) for v in variables})


def trial_rng(seed: int, trial: int, label: str = "trial") -> random.Random:
    # string seeding is hash-stable across processes
    return random.Random(f"{label}:{seed}:{trial}")


def generic_rank(mx: PolyMatrix | JacmMatrix | DnMatrix, trials: int = 20, seed: int = 0) -> int:
    """Rank at a random point, maximized over seeded trials; each point
    is drawn over mx.variables(), so a JacmMatrix gives the same result
    as the jac_m it stands for.  A DnMatrix D_n(L) is ranked as
    (n+1) times the generic rank of L, drawn over L.variables(), its base
    coordinates.  If r is the generic rank of L and the base block A_0 =
    L(a_0) of a jet a has rank r, then D_n(L) has rank (n+1) r at a, in
    every characteristic: over k[[t]] the Smith form of L(a(t)) has at
    most r nonzero invariant factors, since every (r+1)-minor of L
    vanishes, and its first r are units, since some r-minor is nonzero
    at a_0; each unit contributes n + 1 to the rank of D_n(L)(a).

    This is a probabilistic lower bound for the rank over the fraction
    field; it equals it with high probability.  Over a small GF(p) every
    point can miss it.  Deterministic in seed.
    """
    if trials < 1:
        raise BadTrialCount("trials must be >= 1")
    factor = 1
    if isinstance(mx, DnMatrix):
        factor, mx = mx.n + 1, mx.L
    spec, variables = mx.spec, mx.variables()
    best = 0
    limit = min(mx.rows, mx.cols)
    for t in range(trials):
        point = random_point(spec, variables, trial_rng(seed, t, "generic-rank"))
        best = max(best, rank_at(mx, point))
        if best == limit:
            break
    return factor * best

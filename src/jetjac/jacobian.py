"""Classical and higher-order Jacobian matrices of polynomial tuples.

The order-m Jacobian of f stacks, per polynomial, the block whose rows are
indexed by multi-indices beta with |beta| <= m-1 and whose columns by alpha
with 1 <= |alpha| <= m; the (beta, alpha) entry is the divided-power
derivative of f by alpha - beta, or 0 when alpha does not dominate beta.
Both index families are enumerated by degree and then lexicographically
descending with x1 heaviest, which pins the matrix layout; other sources
may order them differently.

Delta^delta f is the y^delta coefficient of f(x + y), in every
characteristic, and taylor_coefficients is the one pass over the terms
of f that takes every such coefficient with |delta| <= m, each
coordinate kept as a variable or substituted by a value.  Its readers
keep every variable (divided_partials, for the symbolic jac_m),
substitute every one (a point query, which needs no symbolic partial),
or keep one with m = 0 (a coordinate line of
jetscheme.find_smooth_point).  The cells (beta, alpha = beta + delta)
depend on (s, m) alone, and so does the plan that lays them out
(_block_plan, kept for the last few (s, m)): each row is the row of
beta - e_i read through one index list.  JacmMatrix stands for Jac_m(fs)
unexpanded, with the shape, variables and errors of jac_m, and lays out
its values at a point by the same plan; the symbolic jac_m is built
only where a matrix is printed or expanded.  Budget messages print a
count while int() converts it to text, and otherwise say how many
digits it has.

PolyMatrix and ScalarMatrix are the dense matrix types of the package:
polynomial entries, and raw field values such as a matrix at a point.
A PolyMatrix knows which entries share one object (jac_m repeats one
object per delta, and D_n(L) one per block), so every pass that reads
entry contents (evaluation, expansion, printing, the variables and
dims) reads each distinct object once and lays the results out by
`layout`.  Each matrix kind gives its raw values at a point, row by row,
by values_at, which makes its own field and coordinate checks;
linalg.eval_matrix wraps them in a ScalarMatrix.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from operator import itemgetter

from .field import DomainError, FieldElement, FieldSpec, MixedFields
from .poly import JetVariable, MissingCoordinate, MultiIndex, Point, Polynomial, _name, _rational, _raw_value, jet_grid

# at most this many exponents in the row and column families together
INDEX_CAP = 2_000_000
# at most this many cells in a symbolic Jac_m or D_n(L)
CELL_CAP = 1_000_000


class EmptyInput(ValueError, DomainError):
    """A matrix builder received no polynomials."""


class BadDifferentialOrder(ValueError, DomainError):
    """A differential order m below 1."""


class EmptyIndexFamily(ValueError, DomainError):
    """Index families need s >= 1 base variables and an order m >= 1."""


class TooManyMultiIndices(ValueError, DomainError):
    """The index families of (s, m) would hold more than INDEX_CAP
    exponents."""


class TooManyCells(ValueError, DomainError):
    """A matrix would have more cells than its budget: CELL_CAP for a
    symbolic one, jetmatrix.DENSE_CAP for D_n(L) at a jet."""


class ShapeMismatch(ValueError):
    """A matrix's entry count is not rows x cols, or its shape is not a
    multiple of a block shape."""


@functools.cache
def _digit_bounds(limit: int) -> tuple[int, int]:
    # the bit length of 10^(limit + 1), and the least count too long to print
    return (10 ** (limit + 1)).bit_length(), 10**limit


def _shown(count: int) -> str:
    """count in decimal when int() converts it to text, and otherwise how
    many digits it has, as "10^L or more" for the limit L of
    sys.get_int_max_str_digits."""
    limit = sys.get_int_max_str_digits()
    if not limit or count < _digit_bounds(limit)[1]:
        return str(count)
    return f"10^{limit} or more"


def _check_cells(rows: int, cols: int, cap: int | None = None):
    cap = CELL_CAP if cap is None else cap  # read when called
    if rows * cols > cap:
        raise TooManyCells(f"a {_shown(rows)} x {_shown(cols)} matrix has {_shown(rows * cols)} cells (cap {cap})")


def _bracketed(table: list[list[str]]) -> str:
    """The text layout of a matrix: one "[a, b, ...]" line per row of
    rendered entries."""
    return "\n".join("[" + ", ".join(row) + "]" for row in table)


def exponent_vectors(norm: int, s: int):
    """All multi-indices in N^s of the given norm, lexicographically
    descending with the first coordinate heaviest.  Each one follows from
    the last without recursion: the last nonzero coordinate before the
    final one gives up a unit, and its right neighbour takes that unit
    plus the final coordinate, so (2, 0, 0) is followed by (1, 1, 0),
    (1, 0, 1) and (0, 2, 0)."""
    if s < 1:
        raise EmptyIndexFamily("need s >= 1")
    if norm < 0:
        return
    v = [norm] + [0] * (s - 1)
    while True:
        yield tuple(v)
        i = s - 2
        while i >= 0 and not v[i]:
            i -= 1
        if i < 0:
            return
        # v[i + 1:] is zero but for its last coordinate
        rest = v[-1]
        v[-1] = 0
        v[i] -= 1
        v[i + 1] = rest + 1


@dataclass(frozen=True)
class IndexFamilies:
    """The row family (norms 0..m-1) and column family (norms 1..m)."""

    s: int
    m: int
    lambda0: tuple[MultiIndex, ...]
    lambda_: tuple[MultiIndex, ...]

    @property
    def M(self) -> int:
        return len(self.lambda0)

    @property
    def N(self) -> int:
        return len(self.lambda_)


def _check_families(s: int, m: int):
    # the budget of index_families, checked before any family is listed
    if s < 1 or m < 1:
        raise EmptyIndexFamily("need s >= 1 and m >= 1")
    exponents = (math.comb(m + s - 1, s) + math.comb(m + s, s) - 1) * s
    if exponents > INDEX_CAP:
        raise TooManyMultiIndices(
            f"the index families of s = {_shown(s)}, m = {_shown(m)} hold {_shown(exponents)} exponents"
            f" (cap {INDEX_CAP})"
        )


def index_families(s: int, m: int) -> IndexFamilies:
    """The families of (s, m), counted before they are listed: M + N
    multi-indices of s exponents each, at most INDEX_CAP exponents in all
    (TooManyMultiIndices otherwise)."""
    _check_families(s, m)
    lambda0 = tuple(
        beta for d in range(m) for beta in exponent_vectors(d, s)
    )
    lambda_ = tuple(
        alpha for d in range(1, m + 1) for alpha in exponent_vectors(d, s)
    )
    fam = IndexFamilies(s, m, lambda0, lambda_)
    assert fam.M == math.comb(m + s - 1, s)
    assert fam.N == math.comb(m + s, s) - 1
    return fam


@dataclass(frozen=True)
class PolyMatrix:
    """Dense matrix of polynomials.

    `distinct` holds the distinct entry objects in order of first
    occurrence and `layout`, per entry, the index of its object there;
    both are found on first read, or handed over by jac_m through
    PolyMatrix._make."""

    rows: int
    cols: int
    entries: tuple[Polynomial, ...]

    def __post_init__(self):
        if self.rows * self.cols != len(self.entries):
            raise ShapeMismatch(f"{len(self.entries)} entries for a {self.rows} x {self.cols} matrix")
        # entries share a few spec objects: hash a spec only when they do not
        if len({id(e.spec) for e in self.entries}) > 1 and len({e.spec for e in self.entries}) > 1:
            raise MixedFields("matrix entries belong to different fields")

    @classmethod
    def _make(cls, rows: int, cols: int, distinct: tuple, layout: tuple) -> "PolyMatrix":
        # trusted fast path: entry k is distinct[layout[k]], and distinct
        # lists objects of one field in order of first occurrence
        obj = object.__new__(cls)
        entries = tuple(map(distinct.__getitem__, layout))
        obj.__dict__.update(rows=rows, cols=cols, entries=entries, distinct=distinct, layout=layout)
        return obj

    @property
    def spec(self) -> FieldSpec:
        return self.entries[0].spec if self.entries else FieldSpec.rationals()

    def at(self, i: int, j: int) -> Polynomial:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Polynomial, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    @functools.cached_property
    def distinct(self) -> tuple[Polynomial, ...]:
        return tuple({id(e): e for e in self.entries}.values())

    @functools.cached_property
    def layout(self) -> tuple[int, ...]:
        index = {id(g): i for i, g in enumerate(self.distinct)}
        return tuple(map(index.__getitem__, map(id, self.entries)))

    @property
    def dims(self) -> tuple[int, int]:
        """(s, r): the largest base_count and the largest max_order of an
        entry, (0, 0) without entries."""
        distinct = self.distinct
        return max((g.base_count for g in distinct), default=0), max((g.max_order for g in distinct), default=0)

    def variables(self) -> tuple[JetVariable, ...]:
        """x1..xs and every variable that occurs in an entry, canonically
        ordered."""
        used = {v for g in self.distinct for v in g.variables()}
        return tuple(sorted(used.union(jet_grid(self.dims[0], 0))))

    def values_at(self, point: Point) -> tuple:
        """The raw values at the point, row by row: each distinct entry object
        evaluated once by poly._raw_value, with one table of powers for all
        (MixedFields or MissingCoordinate where the point does not fit)."""
        if self.entries and self.spec != point.spec:
            raise MixedFields(f"point over {point.spec}, polynomial over {self.spec}")
        p, powers = point.spec.characteristic, {}
        distinct = [_raw_value(g, point.values, p, powers) for g in self.distinct]
        return tuple(map(distinct.__getitem__, self.layout))

    def rendered(self) -> list[list[str]]:
        """The rows of the matrix as printed entries, each distinct object
        printed once."""
        texts = [str(g) for g in self.distinct]
        flat = list(map(texts.__getitem__, self.layout))
        cols = self.cols
        return [flat[i * cols : (i + 1) * cols] for i in range(self.rows)]

    def __str__(self) -> str:
        return _bracketed(self.rendered())


@dataclass(frozen=True)
class ScalarMatrix:
    """Dense matrix over the field, such as a PolyMatrix at a point.

    `values` holds raw scalars in row-major order (ints and Fractions over
    Q, never floats; canonical residue ints over GF(p)), which is what
    elimination reads; at, row and str give field elements.
    """

    rows: int
    cols: int
    values: tuple
    spec: FieldSpec

    def __post_init__(self):
        if self.rows * self.cols != len(self.values):
            raise ShapeMismatch(f"{len(self.values)} values for a {self.rows} x {self.cols} matrix")

    def at(self, i: int, j: int) -> FieldElement:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        return FieldElement(self.spec, self.values[i * self.cols + j])

    def row(self, i: int) -> tuple[FieldElement, ...]:
        return tuple(
            FieldElement(self.spec, v)
            for v in self.values[i * self.cols : (i + 1) * self.cols]
        )

    def __str__(self) -> str:
        return _bracketed([[str(e) for e in self.row(i)] for i in range(self.rows)])


def jac(fs: list[Polynomial]) -> PolyMatrix:
    """The r x s Jacobian: entry (l, i) = partial f_l / partial x_i, which
    is the order-1 Jacobian jac_m(fs, 1)."""
    return jac_m(fs, 1)


def taylor_coefficients(f: Polynomial, vals, s: int, m: int) -> dict[tuple, object]:
    """The y^delta coefficients of f(x + y), |delta| <= m, as raw terms
    from one pass over the terms of f: {delta + key: c} for each nonzero
    term c*x^key of the coefficient of y^delta, delta in N^s and key
    canonical, as in Polynomial.terms.

    vals decides each variable of f by what it holds for its (j, i) key:
    a raw scalar is substituted, None keeps the variable, and no entry
    raises MissingCoordinate.  By Taylor's formula f(x + y) = sum_delta
    (Delta^delta f)(x) y^delta, a term c*x^g adds c*prod_i C(g_i,
    delta_i)*x^(g - delta) for each delta <= g with |delta| <= m, only
    delta_i = g_i where x_i = 0.  The binomials are integers reduced into
    the field, so one that vanishes mod p drops its contribution.  Jet
    variables, and base variables past x_s, are factors of each delta's
    term.  Each sum is reduced mod p, or made an int when integral over
    Q, once, so it holds in every characteristic.  With every variable
    substituted each key is delta alone and its value that of the
    divided partial at the point, order 0 being f(a); no Polynomial is
    built."""
    p = f.spec.characteristic
    sums: dict = {}
    options: dict = {}  # per key triple, its (delta_i, factor, kept triples) choices
    for key, c in f.terms.items():
        parts = [((0,) * s, c, m)]  # (delta + the key so far, coefficient, norm left)
        for t in key:
            choices = options.get(t)
            if choices is None:
                order, b, g = t
                if (order, b) not in vals:
                    raise MissingCoordinate(f"point assigns no value to {_name(order, b)}")
                x = vals[order, b]
                if order or b > s:  # a factor
                    choices = [(0, 1, (t,)) if x is None else (0, pow(x, g, p) if p else x**g, ())]
                else:
                    choices = [
                        (e, k, ((0, b, g - e),) if e < g else ())
                        if x is None
                        else (e, k * (pow(x, g - e, p) if p else x ** (g - e)), ())
                        for e in range(0 if x is None or x else g, min(g, m) + 1)
                        if (k := math.comb(g, e) % p if p else math.comb(g, e))
                    ]
                options[t] = choices
            i = t[1] - 1
            parts = [
                ((dk[:i] + (e,) + dk[i + 1 :] if e else dk) + kept, cc * k, left - e)
                for dk, cc, left in parts
                for e, k, kept in choices
                if e <= left
            ]
        for dk, cc, _ in parts:
            sums[dk] = sums.get(dk, 0) + cc
    if p:
        return {dk: v for dk, acc in sums.items() if (v := acc % p)}
    return {dk: _rational(acc) for dk, acc in sums.items() if acc}


def divided_partials(f: Polynomial, s: int, m: int) -> dict[MultiIndex, Polynomial]:
    """{delta: Delta^delta f}, the divided-power (Hasse) derivatives of f,
    for every delta in N^s with |delta| <= m: the taylor_coefficients of f with
    every variable kept, so jet variables, and base variables past x_s,
    are not differentiated.  Every partial keeps f's base_count and
    max_order; delta = 0 gives f itself."""
    found = {delta: {} for d in range(m + 1) for delta in exponent_vectors(d, s)}
    for dk, c in taylor_coefficients(f, dict.fromkeys(t[:2] for key in f.terms for t in key), s, m).items():
        found[dk[:s]][dk[s:]] = c
    return {
        delta: Polynomial._make(f.spec, terms, f.base_count, f.max_order) if any(delta) else f
        for delta, terms in found.items()
    }


@functools.lru_cache(maxsize=8)
def _block_plan(s: int, m: int) -> tuple[tuple[MultiIndex, ...], tuple]:
    """(lambda_, steps) for one f's M x N block of Jac_m, which depends on
    (s, m) alone, so the last few are kept.

    Cell (beta, alpha) holds the divided partial of alpha - beta: f where
    alpha = beta, and zero where alpha does not dominate beta.  A row is
    kept with two more cells, standing for alpha = 0 and for an alpha
    that does not dominate e_i; row 0 holds the partials of lambda_, then
    f and the zero.  Any other row beta, with beta_i > 0 for its first
    nonzero i, is the row of beta - e_i read at the position of alpha -
    e_i for each alpha.  So steps lists, for each row beta > 0 in order,
    (k, get): the row is get(row k), one itemgetter pass with no
    multi-index built; _block_rows runs them on slots or on values."""
    fam = index_families(s, m)
    lam = fam.lambda_
    N = len(lam)
    position = {alpha: j for j, alpha in enumerate(lam)}
    position[(0,) * s] = N
    gets = [
        itemgetter(*[position[a[:i] + (a[i] - 1,) + a[i + 1 :]] if a[i] else N + 1 for a in lam], N + 1, N + 1)
        for i in range(s)
    ]
    steps = []
    for beta in fam.lambda0[1:]:
        i = next(i for i, b in enumerate(beta) if b)
        below = beta[:i] + (beta[i] - 1,) + beta[i + 1 :]
        steps.append((position[below] + 1 if any(below) else 0, gets[i]))
    return lam, tuple(steps)


def _block_rows(first: tuple, steps: tuple, N: int) -> list:
    # the cells of a block, row by row, from row 0 with its two more cells
    rows = [first]
    for k, get in steps:
        rows.append(get(rows[k]))
    return list(itertools.chain.from_iterable(row[:N] for row in rows))


def jac_m(fs: list[Polynomial], m: int) -> PolyMatrix:
    """The order-m Jacobian: r*M x N divided-power derivative matrix,
    built by JacmMatrix(fs, m).symbolic.

    For m = 1 this is the usual Jacobian.  Its cells are counted from
    M = C(m+s-1, s) and N = C(m+s, s) - 1 before any entry is built: at
    most CELL_CAP (TooManyCells otherwise); then the fields of fs are
    checked once (MixedFields).
    """
    return JacmMatrix(fs, m).symbolic


@dataclass(frozen=True)
class JacmMatrix:
    """Jac_m(fs) left unexpanded: rows, cols, spec, dims and variables()
    are those of jac_m(fs, m), and building it makes the checks of jac_m.
    values_at puts it at a point from one taylor_coefficients pass per
    distinct f, laid out by _block_plan; `entries`, `distinct`, `layout`
    and printing read the symbolic matrix, built on first read."""

    fs: tuple[Polynomial, ...]
    m: int
    s: int = field(init=False, repr=False, compare=False)
    rows: int = field(init=False, repr=False, compare=False)
    cols: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fs, m = tuple(self.fs), self.m
        if not fs:
            raise EmptyInput("no polynomials given")
        if m < 1:
            raise BadDifferentialOrder("m must be >= 1")
        s = max(f.base_count for f in fs)
        _check_families(s, m)
        rows, cols = len(fs) * math.comb(m + s - 1, s), math.comb(m + s, s) - 1
        _check_cells(rows, cols)
        if len({f.spec for f in fs}) > 1:
            raise MixedFields("matrix entries belong to different fields")
        self.__dict__.update(fs=fs, s=s, rows=rows, cols=cols)

    @property
    def spec(self) -> FieldSpec:
        return self.fs[0].spec

    @property
    def dims(self) -> tuple[int, int]:
        return self.s, max(f.max_order for f in self.fs)

    @functools.cached_property
    def _keys(self) -> tuple[tuple, tuple]:
        # the (j, i) keys of variables(), and of the other variables of fs:
        # for m = 1 the entries are the first partials, which keep a jet
        # variable only from a term with a base exponent nonzero mod p
        p = self.spec.characteristic
        used = {(0, i) for i in range(1, self.s + 1)}
        unused = set()
        for f in self.fs:
            for key in f.terms:
                kept = self.m > 1 or any(not o and (not p or g % p) for o, _, g in key)
                (used if kept else unused).update(t[:2] for t in key)
        return tuple(sorted(used)), tuple(unused - used)

    def variables(self) -> tuple[JetVariable, ...]:
        return tuple(JetVariable(b, o) for o, b in self._keys[0])

    def values_at(self, point: Point) -> tuple:
        """The raw values of Jac_m(fs) at the point, row by row, from one
        taylor_coefficients pass per distinct f: MixedFields unless the
        point is over the field of fs, MissingCoordinate unless it assigns
        every variable of variables(); a variable of fs outside them
        occurs in no entry, and is read as 0."""
        if self.spec != point.spec:
            raise MixedFields(f"point over {point.spec}, polynomial over {self.spec}")
        used, unused, vals = *self._keys, point.values
        for key in used:
            if key not in vals:
                raise MissingCoordinate(f"point assigns no value to {_name(*key)}")
        if any(key not in vals for key in unused):
            vals = {**dict.fromkeys(unused, 0), **vals}
        lam, steps = _block_plan(self.s, self.m)
        values, blocks = [], {}
        zero = (0,) * self.s
        for f in self.fs:
            block = blocks.get(id(f))
            if block is None:
                taylor = taylor_coefficients(f, vals, self.s, self.m)
                first = (*map(taylor.get, lam, itertools.repeat(0)), taylor.get(zero, 0), 0)
                block = blocks[id(f)] = _block_rows(first, steps, len(lam))
            values += block
        return tuple(values)

    @functools.cached_property
    def symbolic(self) -> PolyMatrix:
        """The symbolic Jac_m(fs), built on first read.  Each f is read
        once, by divided_partials, and its block laid out by _block_plan,
        each delta's cells holding one object and the others f or f's
        zero; that layout is handed to PolyMatrix."""
        s, m = self.s, self.m
        lam, steps = _block_plan(s, m)
        N = len(lam)
        # slot j < N holds the partial of lam[j], N holds f and N + 1 the zero
        template = _block_rows(tuple(range(N + 2)), steps, N)
        slots = max(template[-N:]) + 1  # the last row holds the zero if any row does, else f when M > 1
        distinct, layout, offsets = [], [], {}
        for f in self.fs:
            offset = offsets.get(id(f))
            if offset is None:  # a repeated f repeats its block's objects
                offset = offsets[id(f)] = len(distinct)
                partials = divided_partials(f, s, m)
                zero = Polynomial.zero(f.spec, f.base_count, f.max_order)
                distinct += [*map(partials.__getitem__, lam), f, zero][:slots]
            layout += map(offset.__add__, template) if offset else template
        return PolyMatrix._make(self.rows, N, tuple(distinct), tuple(layout))

    @property
    def entries(self) -> tuple[Polynomial, ...]:
        return self.symbolic.entries

    @property
    def distinct(self) -> tuple[Polynomial, ...]:
        return self.symbolic.distinct

    @property
    def layout(self) -> tuple[int, ...]:
        return self.symbolic.layout

    def __str__(self) -> str:
        return str(self.symbolic)

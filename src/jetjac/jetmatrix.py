"""Block matrices built from Hasse-Schmidt components of matrix entries.

dn_matrix lays out the upper block-triangular matrix whose (i, j) block is
d_{j-i} applied entrywise to L (blocks with j < i vanish); jet_jacobian
differentiates the components d_k(f_l) by every jet variable, which comes
out lower block-triangular.  The two constructions contain the same data:
reversing the block order on both axes of one of them makes them equal
entrywise, and check_fdbd verifies exactly that.

DnMatrix stands for D_n(L) until it is put at a point; its values_at
then gives D_n(L) there by Taylor mode, laying out the values of d_0,
..., d_n of each entry of L at the jet (series_at), and never builds the
symbolic blocks; the entries share one series cache, so a power or
monomial is built once.  L may be a jacobian.JacmMatrix, Jac_m(fs)
unexpanded: DnMatrix checks its fs, and its base block A_0 is one Taylor
pass per f, so only the series of L, and printing, read the symbolic
Jac_m.  At a jet a the result is block upper-triangular and Toeplitz:
block (i, j) is A_(j-i), the t^(j-i) coefficient of L(a(t)), and every
diagonal block is A_0 = L(a_0).  linalg.rank_at reads the rank off A_0,
or off the series where every A_k with k >= 1 vanishes, before any
layout; values_at counts its (n+1)b x (n+1)a cells against DENSE_CAP
first.  linalg.generic_rank ranks L alone and draws no jet.
dn_matrix, the symbolic construction, serves printing and the tests; it
counts its (n+1)^2 b a cells against jacobian.CELL_CAP before it builds
any.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .field import FieldSpec
from .hasse import BadJetOrder, _require_base, _substituted, hs_components, jet_series
from .jacobian import JacmMatrix, PolyMatrix, ShapeMismatch, _check_cells, jac
from .poly import JetVariable, Point, Polynomial, jet_grid

# at most this many cells in D_n(L) laid out at a jet
DENSE_CAP = 50_000_000


def dn_matrix(L: PolyMatrix, n: int) -> PolyMatrix:
    """The (n+1)b x (n+1)a block matrix with block (i, j) = d_{j-i}(L)
    for j >= i and 0 otherwise; d is applied to each entry of L, once
    per distinct entry object.  At most CELL_CAP cells (TooManyCells
    otherwise)."""
    s = DnMatrix(L, n).s  # checks n and each entry of L
    _check_cells((n + 1) * L.rows, (n + 1) * L.cols)
    components = [hs_components(g, n).components for g in L.distinct]
    zero = Polynomial.zero(L.spec, s)
    entries = _blocks(list(map(components.__getitem__, L.layout)), n, L.rows, L.cols, zero)
    return PolyMatrix((n + 1) * L.rows, (n + 1) * L.cols, tuple(entries))


def _blocks(series: list, n: int, b: int, a: int, zero) -> list:
    # the cells, row by row, of the (n+1)b x (n+1)a block matrix whose
    # block (i, j) holds term j - i of the series of each of the b x a
    # entries (given row by row) for j >= i, and zero for j < i.  Block
    # row i is the top block row shifted right by i blocks
    top = [[x[k] for k in range(n + 1) for x in series[r * a : (r + 1) * a]] for r in range(b)]
    out = []
    for bi in range(n + 1):
        for r in range(b):
            out += [zero] * (bi * a)
            out += top[r][: (n + 1 - bi) * a]
    return out


@dataclass(frozen=True)
class DnMatrix:
    """D_n(L) left unexpanded: rows, cols, spec and dims are those of
    dn_matrix(L, n), and variables() is jet_grid(s, n), every coordinate
    of a jet over the base variables of L, of which dn_matrix(L,
    n).variables() is a subset.  Building it checks n and each distinct
    entry object of L once (each f of a JacmMatrix, whose entries keep
    the jet order of their f) and keeps s, the largest base index of L, so
    series_at and values_at put it at any number of points by Taylor mode
    without checking L again; a value at a point is computed once per
    object of L and laid out through L.layout."""

    L: PolyMatrix
    n: int
    s: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise BadJetOrder("n must be >= 0")
        for g in self.L.fs if isinstance(self.L, JacmMatrix) else self.L.distinct:
            _require_base(g)
        object.__setattr__(self, "s", self.L.dims[0])

    @property
    def rows(self) -> int:
        return (self.n + 1) * self.L.rows

    @property
    def cols(self) -> int:
        return (self.n + 1) * self.L.cols

    @property
    def spec(self) -> FieldSpec:
        return self.L.spec

    @property
    def dims(self) -> tuple[int, int]:
        return self.s, self.n

    def variables(self) -> tuple[JetVariable, ...]:
        return jet_grid(self.s, self.n)

    def series_at(self, point: Point) -> list[list]:
        """[d_0(g)(a), ..., d_n(g)(a)] per entry g of L, row by row: g(a(t))
        truncated after t^n, once per distinct entry object, from one series
        cache (MixedFields or MissingCoordinate unless the point is a jet
        over the field of L to order n)."""
        series = jet_series(point, self.spec, self.s, self.n)
        cache: dict = {}
        distinct = [_substituted(g, self.n, series, cache, self.spec.characteristic) for g in self.L.distinct]
        return list(map(distinct.__getitem__, self.L.layout))

    def values_at(self, point: Point) -> tuple:
        """The raw values of D_n(L) at the jet, row by row: block (i, j) holds
        the t^(j-i) coefficients of series_at for j >= i.  At most DENSE_CAP
        cells, counted before any value (TooManyCells otherwise)."""
        _check_cells(self.rows, self.cols, DENSE_CAP)
        return tuple(_blocks(self.series_at(point), self.n, self.L.rows, self.L.cols, self.spec.zero.value))


def jet_jacobian(fs: list[Polynomial], n: int) -> PolyMatrix:
    """The Jacobian of (d_0(f), ..., d_n(f)) with respect to all jet
    variables up to order n: row block k differentiates d_k(f_l), column
    block j differentiates by x_1^(j), ..., x_s^(j).  At most CELL_CAP
    cells, counted before any component is built (TooManyCells
    otherwise)."""
    if n < 0:
        raise BadJetOrder("n must be >= 0")
    s = max(f.base_count for f in fs)
    _check_cells((n + 1) * len(fs), (n + 1) * s)
    expansions = [hs_components(f, n) for f in fs]
    entries = []
    for k in range(n + 1):
        for ex in expansions:
            dk = ex[k]
            for j in range(n + 1):
                for i in range(1, s + 1):
                    entries.append(dk.partial(JetVariable(i, j)))
    return PolyMatrix((n + 1) * len(fs), (n + 1) * s, tuple(entries))


def reverse_blocks(mx: PolyMatrix, b: int, a: int) -> PolyMatrix:
    """Reverse the block-row and block-column order of a blocked matrix."""
    if mx.rows % b or mx.cols % a:
        raise ShapeMismatch(f"a {mx.rows} x {mx.cols} matrix is not made of {b} x {a} blocks")
    nb, na = mx.rows // b, mx.cols // a
    entries = []
    for i in range(mx.rows):
        bi, r = divmod(i, b)
        src_row = (nb - 1 - bi) * b + r
        for j in range(mx.cols):
            bj, c = divmod(j, a)
            entries.append(mx.at(src_row, (na - 1 - bj) * a + c))
    return PolyMatrix(mx.rows, mx.cols, tuple(entries))


@dataclass(frozen=True)
class FdbdReport:
    """Outcome of comparing the two constructions of the jet Jacobian data."""

    ok: bool
    n: int
    block_shape: tuple[int, int]
    permutation: str
    first_mismatch: tuple[int, int] | None

    def __str__(self):
        b, a = self.block_shape
        if self.ok:
            return (
                f"PASS: block matrix of the Jacobian equals the jet Jacobian "
                f"after {self.permutation} ({self.n + 1} blocks of {b}x{a} per axis)"
            )
        return f"FAIL: entry mismatch at {self.first_mismatch}"


def check_fdbd(fs: list[Polynomial], n: int) -> FdbdReport:
    """Verify that applying the block construction to the Jacobian of fs
    agrees with the Jacobian of the components d_0(f), ..., d_n(f), after
    reversing block rows and block columns of the former (the two are
    displayed in opposite triangular orientations)."""
    jacobian = jac(fs)
    blocked = dn_matrix(jacobian, n)
    direct = jet_jacobian(fs, n)
    reversed_blocked = reverse_blocks(blocked, jacobian.rows, jacobian.cols)
    permutation = "reversing block row and block column order"
    if reversed_blocked == direct:
        return FdbdReport(True, n, (jacobian.rows, jacobian.cols), permutation, None)
    mismatch = next(
        (i, j)
        for i in range(direct.rows)
        for j in range(direct.cols)
        if reversed_blocked.at(i, j) != direct.at(i, j)
    )
    return FdbdReport(False, n, (jacobian.rows, jacobian.cols), permutation, mismatch)

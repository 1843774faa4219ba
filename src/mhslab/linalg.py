"""Exact subspace calculus over Q and Q(i).

Everything downstream reduces to these primitives.  A subspace is stored
as a reduced row-echelon basis, so equality of subspaces is a syntactic
check.  Matrices are tuples of tuples, acting on column vectors.

Exact arithmetic runs on Python integers in two kernels.  Row reductions
scale rows to primitive integer rows and eliminate them (`_int_rref`).
Products (`mat_mul`, `mat_vec`, `kron_mat` and the membership test of
`Subspace.reduce`) scale each row of the left factor and each column of
the right one to integers over one denominator and form every entry as
one integer, or Gaussian integer, dot product (`_dots`).  Either kernel
builds one Fraction, or one GaussRat of two, per output entry, and the
field's shared zero and one for the entries 0 and 1; an echelon row or a
kron_mat row that is a unit vector is the shared `unit_row`, which is
also the row of `identity`.  A product is over Q(i) when either factor
holds a GaussRat and over Q otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import mul, neg
from typing import Iterable, Optional, Sequence, Tuple

from .errors import DimensionMismatchError, FieldMismatchError
from .field import Q, QI, GaussRat, Scalar, as_scalar, one, zero

Vector = Tuple[Scalar, ...]
Matrix = Tuple[Vector, ...]


# -- basic matrix helpers ---------------------------------------------------

def mat(field: str, rows: Iterable[Iterable]) -> Matrix:
    out = tuple(tuple(as_scalar(field, x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionMismatchError("ragged matrix")
    return out


@lru_cache(maxsize=None)
def unit_row(field: str, n: int, k: int) -> Vector:
    """Row k of the n x n identity, one shared tuple for every caller.
    Each row is built on its first use and kept, n entries apiece, so a
    unit row costs O(n) whether or not its identity is ever built."""
    return tuple(one(field) if j == k else zero(field) for j in range(n))


@lru_cache(maxsize=32)
def identity(field: str, n: int) -> Matrix:
    """The n x n identity, shared between callers: matrices are tuples,
    and each row is the shared `unit_row`."""
    return tuple(unit_row(field, n, k) for k in range(n))


def zeros(field: str, m: int, n: int) -> Matrix:
    z = zero(field)
    return tuple(tuple(z for _ in range(n)) for _ in range(m))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a . b by the integer product kernel `_dots`: each row of a and each
    column of b scaled to integers over one denominator, and each entry
    one integer (over Q(i) Gaussian) dot product divided by the product
    of the two denominators.  The product is over Q(i) when a or b holds
    a GaussRat and over Q otherwise.  The columns of a must match the
    rows of b, also when b has none."""
    if a and len(a[0]) != len(b):
        raise DimensionMismatchError(f"cannot multiply {len(a[0])}-col by {len(b)}-row")
    return _dots(a, transpose(b))


def mat_vec(a: Matrix, v: Vector) -> Vector:
    """a . v by the integer product kernel, as mat_mul: an empty v holds
    no GaussRat, so a . v is then the shared zero of Q in each entry."""
    if a and len(a[0]) != len(v):
        raise DimensionMismatchError("matrix/vector size mismatch")
    return tuple(row[0] for row in _dots(a, (v,)))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        raise DimensionMismatchError("cannot add matrices of different shapes")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def kron_mat(a: Matrix, b: Matrix) -> Matrix:
    """a (x) b: the int_kron of each row of a with each row of b, over
    the product of their denominators, in the field of mat_mul."""
    gauss = _holds_gauss(a) or _holds_gauss(b)
    return tuple(_vector(gauss, int_kron(QI if gauss else Q, ra, rb), da * db)
                 for da, ra in _scaled(gauss, a) for db, rb in _scaled(gauss, b))


def conj_mat(a: Matrix) -> Matrix:
    return tuple(tuple(x.conj() if isinstance(x, GaussRat) else x for x in row)
                 for row in a)


def to_qi_mat(a: Matrix) -> Matrix:
    return tuple(tuple(as_scalar(QI, x) for x in row) for row in a)


# -- the integer product kernel ---------------------------------------------

_ZERO_Q, _ZERO_QI = zero(Q), zero(QI)
_ONE_Q, _ONE_QI = one(Q), one(QI)


def _holds_gauss(m: Iterable[Sequence]) -> bool:
    return GaussRat in map(type, chain.from_iterable(m))


def _scaled(gauss: bool, vecs: Iterable[Sequence[Scalar]]) -> list:
    """Each vector v as (d, ints) with v = ints / d: ints is v's integer
    row in the layout of int_rows, over Q(i) when gauss, and d is the
    lcm of the denominators of its parts."""
    out = []
    for v in vecs:
        parts = [y for x in v for y in ((x.re, x.im) if type(x) is GaussRat
                                        else (x, 0))] if gauss else v
        dens = [y.denominator for y in parts]
        d = lcm(*dens)
        out.append((d, [y.numerator for y in parts] if d == 1 else
                    [y.numerator * (d // q) for y, q in zip(parts, dens)]))
    return out


def _q(x: int, d: int) -> Fraction:
    return (_ONE_Q if x == d else Fraction(x, d)) if x else _ZERO_Q


def _qi(x: int, y: int, d: int) -> GaussRat:
    return ((_ONE_QI if x == d and not y else GaussRat(_q(x, d), _q(y, d)))
            if x or y else _ZERO_QI)


def _vector(gauss: bool, ints: list, d: int) -> Vector:
    """The scalars of ints / d, an integer row in the layout of int_rows:
    one Fraction, or one GaussRat of two, per entry, and the field's
    shared zero and one for the entries 0 and 1.  A unit vector, whose
    one nonzero int is d in a real column, is the shared `unit_row`, the
    row of `identity`: over Q(i) a d in an imaginary column is the
    scalar i."""
    if ints.count(0) == len(ints) - 1 and d in ints:
        k = ints.index(d)
        if not gauss:
            return unit_row(Q, len(ints), k)
        if k % 2 == 0:
            return unit_row(QI, len(ints) // 2, k // 2)
    if not gauss:
        return tuple(_q(x, d) for x in ints)
    return tuple(_qi(x, y, d) for x, y in zip(ints[::2], ints[1::2]))


def _twisted(c: list) -> Tuple[list, list]:
    """The pairs (x, y) of an integer row over Q(i) turned into (x, -y) and
    into (y, x): u . c is the dot product of u with the first for its real
    part and with the second for its imaginary part."""
    re, im = c.copy(), c.copy()
    re[1::2] = map(neg, c[1::2])
    im[::2], im[1::2] = c[1::2], c[::2]
    return re, im


def _dots(rows: Sequence[Sequence[Scalar]],
          cols: Sequence[Sequence[Scalar]]) -> Matrix:
    """The matrix of the products row . col, by the integer product kernel.

    Each row and each column is scaled to integers over one denominator
    (`_scaled`), each entry is one integer dot product, and only then is
    it divided by the product of the two denominators.  Over Q(i) the
    dot product is Gaussian: against the column's pairs (x, y) turned
    into (x, -y) for the real part and (y, x) for the imaginary part.
    The result is over Q(i) when a row or a column holds a GaussRat, and
    over Q otherwise.  A dot product runs over whole rows, zeros
    included, in one `sum(map(mul, ...))`: on the small matrices the
    library multiplies that is faster than gathering the support."""
    gauss = _holds_gauss(rows) or _holds_gauss(cols)
    rs, cs = _scaled(gauss, rows), _scaled(gauss, cols)
    if not gauss:
        return tuple(tuple(_q(sum(map(mul, r, c)), dr * dc) for dc, c in cs)
                     for dr, r in rs)
    cs = [(dc, *_twisted(c)) for dc, c in cs]
    return tuple(tuple(_qi(sum(map(mul, r, re)), sum(map(mul, r, im)), dr * dc)
                       for dc, re, im in cs)
                 for dr, r in rs)


# -- row reduction ----------------------------------------------------------

def _primitive(row: list) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref(rows: Sequence[Sequence[Scalar]], field: str) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon of rows over field; returns (nonzero rows, pivot columns).

    Gauss-Jordan elimination without fractions, in one integer core for
    both fields: `int_rows` scales the rows to primitive integer rows and
    `_int_rref` eliminates them and builds the echelon basis.
    """
    if not rows or not rows[0]:
        return (), ()
    return _int_rref(int_rows(field, rows), field)


def int_rows(field: str, rows: Iterable[Sequence[Scalar]]) -> list:
    """Each row of field scalars as a primitive integer row with the same
    span.  Over Q a row is scaled by the lcm of its denominators.  Over
    Q(i) entry j becomes the ints (re, im) in columns 2j and 2j + 1 of
    one row, scaled the same way."""
    return [_primitive(ints) for _, ints in _scaled(field == QI, rows)]


def int_kron(field: str, u: list, v: list) -> list:
    """u (x) v of two integer rows in the layout of int_rows: over Q(i)
    each (re, im) pair of u multiplies each pair of v as Gaussian
    integers."""
    if field == Q:
        return [x * y for x in u for y in v]
    vs = list(zip(v[::2], v[1::2]))
    out = []
    for a, b in zip(u[::2], u[1::2]):
        if a or b:
            out += [w for c, d in vs for w in (a * c - b * d, a * d + b * c)]
        else:
            out += [0] * len(v)
    return out


def _eliminate(m: list) -> list:
    """Gauss-Jordan elimination of the integer rows m in place, keeping
    every row primitive; returns the pivot columns, and m[:len(pivots)]
    are the echelon rows (divided by their pivots, the reduced ones).

    Each column pivots on the first remaining row whose entry there is
    smallest in absolute value (a 1 or -1 is taken at once).  With p
    and f the pivot and a row's entry, g = gcd(p, f), a = p / g and
    b = f / g, row i becomes a * row - b * prow, formed as a new list: a
    small pivot keeps a, the factor every other entry of the row is
    scaled by, small, and a unit pivot makes a = 1, when the scaling is
    skipped.  b * prow is subtracted only on the support of the pivot
    row, listed once a row needs it.  The rows handed in are never
    changed.  The reduced echelon form is unique, so the pivot choice
    changes the rows only by their scale, and no output."""
    nrows, pivots, r = len(m), [], 0
    for c in range(len(m[0])):
        pr, least = None, 0
        for i in range(r, nrows):
            f = m[i][c]
            if f:
                f = abs(f)
                if pr is None or f < least:
                    pr, least = i, f
                    if f == 1:
                        break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        support = None
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                if support is None:
                    support = [(j, y) for j, y in enumerate(prow) if y]
                g = gcd(p, f)
                a, b = p // g, f // g
                row = m[i].copy() if a == 1 else [a * x for x in m[i]]
                for j, y in support:
                    row[j] -= b * y
                m[i] = _primitive(row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _restricted(m: list) -> list:
    """Q(i) integer rows in the layout of int_rows restricted to Q: a row
    v becomes R(v) and R(i*v), the second with each pair (x, y) turned
    into (-y, x).  The Q-span of the result is the Q(i)-span of m."""
    return [r for v in m
            for r in (v, [w for x, y in zip(v[::2], v[1::2]) for w in (-y, x)])]


def _int_rref(m: list, field: str) -> Tuple[Matrix, Tuple[int, ...]]:
    """The reduced echelon basis and pivots, over field, of the span of
    the nonempty integer rows m in the layout of int_rows; the list m is
    consumed.

    Rows are eliminated by cross-multiplication and kept primitive by
    dividing out the gcd of their components, which bounds each entry by
    a minor of the input.  Fractions are built only for the output, when
    each pivot row is divided by its pivot, and every 1 is the shared
    one of the field.  The reduced echelon form is unique, so the result
    is the one exact division would give.
    """
    if field == Q:
        pivots = _eliminate(m)
        return (tuple(_vector(False, row, row[c]) for row, c in zip(m, pivots)),
                tuple(pivots))
    # The span of the restricted rows is stable under i, so its reduced
    # echelon basis is {R(b), R(i*b)} for the Q(i) echelon basis b, with
    # pivots 2c and 2c + 1: the rows with an even pivot are the answer.
    m = _restricted(m)
    rows = [(row, c) for row, c in zip(m, _eliminate(m)) if c % 2 == 0]
    return (tuple(_vector(True, row, row[c]) for row, c in rows),
            tuple(c // 2 for _, c in rows))


@dataclass(frozen=True, slots=True)
class Subspace:
    """A subspace of F^n given by its reduced echelon basis (rows)."""

    field: str
    ambient_dim: int
    basis: Matrix
    pivots: Tuple[int, ...]

    @classmethod
    def span(cls, field: str, ambient_dim: int, rows: Iterable[Iterable]) -> "Subspace":
        m = mat(field, rows)
        if m and len(m[0]) != ambient_dim:
            raise DimensionMismatchError(
                f"rows of length {len(m[0])} in ambient dimension {ambient_dim}")
        return cls._of(field, ambient_dim, *_rref(m, field))

    @classmethod
    def span_ints(cls, field: str, ambient_dim: int, m: list) -> "Subspace":
        """The span of integer rows in the layout of int_rows, such as
        their int_kron products; the list m is consumed."""
        return cls._of(field, ambient_dim,
                       *(_int_rref(m, field) if m else ((), ())))

    @classmethod
    def _of(cls, field: str, ambient_dim: int, basis: Matrix,
            pivots: Tuple[int, ...]) -> "Subspace":
        """The subspace with this reduced echelon basis: the shared zero or
        full subspace when it is one of them."""
        if not basis:
            return cls.zero(field, ambient_dim)
        if len(basis) == ambient_dim:
            return cls.full(field, ambient_dim)
        return cls(field, ambient_dim, basis, pivots)

    # Subspaces are immutable, so every zero and full subspace of one
    # ambient space can be the same object.
    @classmethod
    @lru_cache(maxsize=32)
    def zero(cls, field: str, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, (), ())

    @classmethod
    @lru_cache(maxsize=32)
    def full(cls, field: str, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, identity(field, ambient_dim),
                   tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, v: Sequence) -> bool:
        return self.reduce(v) is not None

    def reduce(self, v: Sequence) -> Optional[Vector]:
        """Coordinates of v in the echelon basis, or None if v is outside.

        The coordinates are v's entries at the pivots, and v lies in the
        subspace exactly when it is the coordinates times the basis.  The
        echelon basis has the unit vectors at the pivots, so one kernel
        product checks the other columns."""
        w = [as_scalar(self.field, x) for x in v]
        if len(w) != self.ambient_dim:
            raise DimensionMismatchError("vector length mismatch")
        coords = tuple(w[p] for p in self.pivots)
        pivots = set(self.pivots)
        free = [c for c in range(len(w)) if c not in pivots]
        cols = [tuple(row[c] for row in self.basis) for c in free]
        if _dots((coords,), cols)[0] != tuple(w[c] for c in free):
            return None
        return coords

    def contains_subspace(self, other: "Subspace") -> bool:
        _check_compatible(self, other)
        return all(self.contains(v) for v in other.basis)

    def to_qi(self) -> "Subspace":
        """Scalar extension of a Q-subspace to Q(i); echelon form is stable."""
        if self.field == QI:
            return self
        return Subspace(QI, self.ambient_dim, to_qi_mat(self.basis), self.pivots)

    def conj(self) -> "Subspace":
        if self.field == Q:
            return self
        # Pivots are 1 (real), so conjugation preserves the echelon form.
        return Subspace(QI, self.ambient_dim, conj_mat(self.basis), self.pivots)


def _check_compatible(u: Subspace, v: Subspace) -> None:
    if u.field != v.field:
        raise FieldMismatchError(f"{u.field} vs {v.field}")
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatchError(f"{u.ambient_dim} vs {v.ambient_dim}")


def rref(field: str, rows: Iterable[Iterable], ambient_dim: Optional[int] = None) -> Subspace:
    rows = [list(r) for r in rows]
    if ambient_dim is None:
        if not rows:
            raise DimensionMismatchError("cannot infer ambient dimension from no rows")
        ambient_dim = len(rows[0])
    return Subspace.span(field, ambient_dim, rows)


def add(u: Subspace, v: Subspace) -> Subspace:
    """u + v.  A zero or full operand gives the other one or itself with
    no reduction: every Subspace holds its reduced echelon basis."""
    _check_compatible(u, v)
    if u.is_zero() or v.is_full():
        return v
    if v.is_zero() or u.is_full():
        return u
    return Subspace.span(u.field, u.ambient_dim, u.basis + v.basis)


def kernel(field: str, a: Matrix, ncols: Optional[int] = None) -> Subspace:
    """Kernel of the matrix a acting on column vectors: the annihilator of
    the row space of a."""
    if ncols is None:
        if not a:
            raise DimensionMismatchError("cannot infer kernel ambient from empty matrix")
        ncols = len(a[0])
    if not a:
        return Subspace.full(field, ncols)
    return annihilator(Subspace.span(field, ncols, a))


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """The common kernel of the equations of u and of v."""
    _check_compatible(u, v)
    if u.is_zero() or v.is_full():
        return u
    if v.is_zero() or u.is_full():
        return v
    return kernel(u.field, quotient_map(u) + quotient_map(v), u.ambient_dim)


def image(field: str, a: Matrix, nrows: Optional[int] = None) -> Subspace:
    """Column span of a."""
    if not a:
        if nrows is None:
            raise DimensionMismatchError("empty matrix needs explicit row count")
        return Subspace.zero(field, nrows)
    return Subspace.span(field, len(a), transpose(a))


def apply_to_subspace(a: Matrix, u: Subspace) -> Subspace:
    """Image a(u) inside the target space."""
    return Subspace.span(u.field, len(a), [mat_vec(a, b) for b in u.basis])


def annihilator(u: Subspace) -> Subspace:
    """Functionals vanishing on u, in dual coordinates: the span of the
    rows of quotient_map(u), which are the equations of u."""
    return Subspace.span(u.field, u.ambient_dim, quotient_map(u))


def quotient_map(u: Subspace) -> Matrix:
    """Projection F^n -> F^(n-k) with kernel exactly u (non-pivot coordinates)."""
    n = u.ambient_dim
    pivset = set(u.pivots)
    nonpiv = [c for c in range(n) if c not in pivset]
    rows = []
    for c in nonpiv:
        row = [zero(u.field)] * n
        row[c] = one(u.field)
        for i, p in enumerate(u.pivots):
            row[p] = -u.basis[i][c]
        rows.append(tuple(row))
    return tuple(rows)


def split_quotient(u: Subspace) -> Tuple[Matrix, Matrix]:
    """quotient_map(u) and the right inverse of it that solve_matrix gives."""
    proj = quotient_map(u)
    return proj, solve_matrix(u.field, proj, identity(u.field, len(proj)))


def coords_map(u: Subspace) -> Matrix:
    """Selection matrix F^n -> F^k computing echelon coordinates on u."""
    rows = []
    for p in u.pivots:
        row = [zero(u.field)] * u.ambient_dim
        row[p] = one(u.field)
        rows.append(tuple(row))
    return tuple(rows)


def inclusion_map(u: Subspace) -> Matrix:
    """Embedding F^k -> F^n sending coordinates to basis combinations."""
    return transpose(u.basis)


def solve(field: str, a: Matrix, b: Vector) -> Optional[Vector]:
    """One solution of a x = b, or None: the one-column solve_matrix."""
    x = solve_matrix(field, a, tuple((y,) for y in b))
    return None if x is None else tuple(row[0] for row in x)


def solve_matrix(field: str, a: Matrix, b: Matrix) -> Optional[Matrix]:
    """X with a X = b from one reduction of [a | b], or None if a pivot
    falls in the b columns.  X has the reduced rows of the b columns at
    the pivots of a and zeros on the free variables, the one solution
    that vanishes there.  A b with no columns gives (); one with columns
    must have a row per equation."""
    k = len(b[0]) if b else 0
    if not k:
        return ()
    if len(b) != len(a):
        raise DimensionMismatchError(
            f"right-hand side has {len(b)} rows for {len(a)} equations")
    n = len(a[0])
    red, pivots = _rref([[as_scalar(field, x) for x in ra] +
                         [as_scalar(field, y) for y in rb]
                         for ra, rb in zip(a, b)], field)
    if pivots and pivots[-1] >= n:
        return None
    x = [(zero(field),) * k] * n
    for row, p in zip(red, pivots):
        x[p] = row[n:]
    return tuple(x)


def invert(field: str, a: Matrix) -> Matrix:
    n = len(a)
    x = solve_matrix(field, a, identity(field, n))
    if x is None or any(len(row) != n for row in a):
        raise DimensionMismatchError("matrix is not invertible")
    if mat_mul(a, x) != identity(field, n):
        raise DimensionMismatchError("matrix is not invertible")
    return x


# -- rational structure -----------------------------------------------------

def rational_part(u: Subspace) -> Subspace:
    """Largest Q-subspace B with B tensor Q(i) inside u (u over Q(i)): the
    rational part of the integer rows of its basis."""
    if u.field == Q:
        return u
    return rational_part_ints(u.ambient_dim, int_rows(QI, u.basis))


def rational_part_ints(n: int, rows: list) -> Subspace:
    """The rational part of the Q(i)-span of independent integer rows in
    the layout of int_rows, of Q(i)^n: as many of them as n span
    everything, and the list is not changed.

    As a Q-space the span is spanned by the restricted rows.  With the
    imaginary columns first, the rows of their echelon basis that pivot
    in a real column vanish on every imaginary column: their real
    columns are the echelon basis of B, the rational vectors of the
    span.  Only those entries become Fractions."""
    if len(rows) == n:
        return Subspace.full(Q, n)
    m = [v[1::2] + v[::2] for v in _restricted(rows)]
    real = [(r, c) for r, c in zip(m, _eliminate(m) if m else []) if c >= n]
    return Subspace._of(Q, n, tuple(_vector(False, r[n:], r[c])
                                    for r, c in real),
                        tuple(c - n for _, c in real))


def rational_hull(n: int, rows: Iterable[Sequence[Scalar]]) -> Subspace:
    """Smallest Q-subspace B of Q^n with B tensor Q(i) holding the Q(i)
    rows: the span of their real and imaginary parts."""
    return Subspace.span_ints(Q, n, [part for v in int_rows(QI, rows)
                                     for part in (v[::2], v[1::2])])

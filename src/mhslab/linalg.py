"""Exact subspace calculus over Q and Q(i).

Everything downstream reduces to these primitives.  A subspace is stored
as a reduced row-echelon basis, so equality of subspaces is a syntactic
check.  Matrices are tuples of tuples, acting on column vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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


def identity(field: str, n: int) -> Matrix:
    return tuple(tuple(one(field) if i == j else zero(field) for j in range(n))
                 for i in range(n))


def zeros(field: str, m: int, n: int) -> Matrix:
    z = zero(field)
    return tuple(tuple(z for _ in range(n)) for _ in range(m))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatchError(f"cannot multiply {len(a[0])}-col by {len(b)}-row")
    bt = transpose(b)
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), 0 * row[0])
                       for col in bt)
                 for row in a)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if a and len(a[0]) != len(v):
        raise DimensionMismatchError("matrix/vector size mismatch")
    return tuple(sum((x * y for x, y in zip(row, v)), 0 * v[0]) if v else 0
                 for row in a)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def kron_vec(u: Vector, v: Vector) -> Vector:
    return tuple(x * y for x in u for y in v)


def kron_mat(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def conj_mat(a: Matrix) -> Matrix:
    return tuple(tuple(x.conj() if isinstance(x, GaussRat) else x for x in row)
                 for row in a)


def to_qi_mat(a: Matrix) -> Matrix:
    return tuple(tuple(as_scalar(QI, x) for x in row) for row in a)


# -- row reduction ----------------------------------------------------------

_ZERO_Q = Fraction(0)
_ZERO_QI = GaussRat(0)


def _primitive(row: list) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref(rows: Sequence[Sequence[Scalar]], field: str) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon of rows over field; returns (nonzero rows, pivot columns).

    Gauss-Jordan elimination without fractions: each row is scaled to
    integers (over Q(i), Gaussian integers held as interleaved real and
    imaginary ints), eliminated by cross-multiplication and kept primitive
    by dividing out the gcd of its integer components.  Fractions are
    built only for the output, when each pivot row is divided by its
    pivot.  The reduced echelon form is unique, so the result is the one
    exact division would give.
    """
    if not rows or not rows[0]:
        return (), ()
    if field == Q:
        return _rref_z(rows)
    return _rref_zi(rows)


def _rref_z(rows) -> Tuple[Matrix, Tuple[int, ...]]:
    m = []
    for row in rows:
        den = lcm(*[x.denominator for x in row])
        m.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    nrows, pivots, r = len(m), [], 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                m[i] = _primitive([a * x - b * y for x, y in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    basis = tuple(tuple(Fraction(x, row[p]) if x else _ZERO_Q for x in row)
                  for row, p in zip(m, pivots))
    return basis, tuple(pivots)


def _rref_zi(rows) -> Tuple[Matrix, Tuple[int, ...]]:
    # Row entry j is re + i*im with re = row[2j], im = row[2j + 1].
    m = []
    for row in rows:
        den = lcm(*[d for x in row for d in (x.re.denominator, x.im.denominator)])
        m.append(_primitive([y.numerator * (den // y.denominator)
                             for x in row for y in (x.re, x.im)]))
    nrows, pivots, r = len(m), [], 0
    for c in range(0, len(m[0]), 2):
        pr = next((i for i in range(r, nrows) if m[i][c] or m[i][c + 1]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        pre, pim = prow[c], prow[c + 1]
        for i in range(nrows):
            fre, fim = m[i][c], m[i][c + 1]
            if (fre or fim) and i != r:
                g = gcd(pre, pim, fre, fim)
                a, b, s, t = pre // g, pim // g, fre // g, fim // g
                row = m[i]
                # (a + bi) * row_i - (s + ti) * row_r, component by component.
                m[i] = _primitive([
                    v for xr, xi, yr, yi in zip(row[::2], row[1::2], prow[::2], prow[1::2])
                    for v in (a * xr - b * xi - s * yr + t * yi,
                              a * xi + b * xr - s * yi - t * yr)])
        pivots.append(c // 2)
        r += 1
        if r == nrows:
            break
    basis = []
    for row, c in zip(m, pivots):
        re, im = row[::2], row[1::2]
        a, b = re[c], im[c]
        den = a
        if b:  # x / p = x * conj(p) / |p|^2
            re, im = ([x * a + y * b for x, y in zip(re, im)],
                      [y * a - x * b for x, y in zip(re, im)])
            den = a * a + b * b
        basis.append(tuple(
            GaussRat(Fraction(x, den) if x else _ZERO_Q,
                     Fraction(y, den) if y else _ZERO_Q) if x or y else _ZERO_QI
            for x, y in zip(re, im)))
    return tuple(basis), tuple(pivots)


@dataclass(frozen=True)
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
        basis, pivots = _rref(m, field)
        return cls(field, ambient_dim, basis, pivots)

    @classmethod
    def zero(cls, field: str, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, (), ())

    @classmethod
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
        """Coordinates of v in the echelon basis, or None if v is outside."""
        w = [as_scalar(self.field, x) for x in v]
        if len(w) != self.ambient_dim:
            raise DimensionMismatchError("vector length mismatch")
        coords = []
        for row, p in zip(self.basis, self.pivots):
            c = w[p]
            coords.append(c)
            if c:
                for j in range(len(w)):
                    w[j] = w[j] - c * row[j]
        if any(w):
            return None
        return tuple(coords)

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
    _check_compatible(u, v)
    return Subspace.span(u.field, u.ambient_dim, u.basis + v.basis)


def kernel(field: str, a: Matrix, ncols: Optional[int] = None) -> Subspace:
    """Kernel of the matrix a acting on column vectors."""
    if ncols is None:
        if not a:
            raise DimensionMismatchError("cannot infer kernel ambient from empty matrix")
        ncols = len(a[0])
    if not a:
        return Subspace.full(field, ncols)
    red, pivots = _rref([[as_scalar(field, x) for x in row] for row in a], field)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    vecs = []
    for c in free:
        v = [zero(field)] * ncols
        v[c] = one(field)
        for i, p in enumerate(pivots):
            v[p] = -red[i][c]
        vecs.append(v)
    return Subspace.span(field, ncols, vecs)


def equations(u: Subspace) -> Matrix:
    """Rows r with u = {x : r . x = 0 for all r} (dot product, no conjugation)."""
    return kernel(u.field, u.basis, u.ambient_dim).basis


def intersect(u: Subspace, v: Subspace) -> Subspace:
    _check_compatible(u, v)
    if u.is_full():
        return v
    if v.is_full():
        return u
    return kernel(u.field, equations(u) + equations(v), u.ambient_dim)


def image(field: str, a: Matrix, nrows: Optional[int] = None) -> Subspace:
    """Column span of a."""
    if not a:
        if nrows is None:
            raise DimensionMismatchError("empty matrix needs explicit row count")
        return Subspace.zero(field, nrows)
    return Subspace.span(field, len(a), transpose(a))


def apply_to_subspace(a: Matrix, u: Subspace, field: Optional[str] = None) -> Subspace:
    """Image a(u) inside the target space."""
    field = field or u.field
    nrows = len(a)
    vecs = [mat_vec(a, tuple(as_scalar(field, x) for x in b)) for b in u.basis]
    return Subspace.span(field, nrows, vecs)


def preimage(a: Matrix, u: Subspace) -> Subspace:
    """{x : a x in u}."""
    if not a:
        raise DimensionMismatchError("empty matrix in preimage")
    if len(a) != u.ambient_dim:
        raise DimensionMismatchError("matrix target does not match subspace ambient")
    eqs = equations(u)
    if not eqs:
        return Subspace.full(u.field, len(a[0]))
    return kernel(u.field, mat_mul(eqs, a), len(a[0]))


def annihilator(u: Subspace) -> Subspace:
    """Functionals vanishing on u, in dual coordinates."""
    return kernel(u.field, u.basis, u.ambient_dim)


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
    """One solution of a x = b, or None."""
    if not a:
        return () if not any(b) else None
    n = len(a[0])
    aug = [[as_scalar(field, x) for x in row] + [as_scalar(field, y)]
           for row, y in zip(a, b)]
    red, pivots = _rref(aug, field)
    x = [zero(field)] * n
    for row, p in zip(red, pivots):
        if p == n:
            return None
        x[p] = row[n]
    return tuple(x)


def solve_matrix(field: str, a: Matrix, b: Matrix) -> Optional[Matrix]:
    """X with a X = b, solved column by column."""
    cols = []
    for col in transpose(b):
        x = solve(field, a, col)
        if x is None:
            return None
        cols.append(x)
    return transpose(tuple(cols))


def invert(field: str, a: Matrix) -> Matrix:
    n = len(a)
    x = solve_matrix(field, a, identity(field, n))
    if x is None or len(a[0]) != n:
        raise DimensionMismatchError("matrix is not invertible")
    if mat_mul(a, x) != identity(field, n):
        raise DimensionMismatchError("matrix is not invertible")
    return x


# -- rational structure -----------------------------------------------------

def rational_part(u: Subspace) -> Subspace:
    """Largest Q-subspace B with B tensor Q(i) inside u (u over Q(i))."""
    if u.field == Q:
        return u
    n, k = u.ambient_dim, u.dim
    if k == 0:
        return Subspace.zero(Q, n)
    # v = sum (a_j + i d_j) b_j is rational iff sum a_j Im(b_j) + d_j Re(b_j) = 0.
    rows = []
    for c in range(n):
        row = [u.basis[j][c].im for j in range(k)] + \
              [u.basis[j][c].re for j in range(k)]
        rows.append(tuple(row))
    sols = kernel(Q, tuple(rows), 2 * k)
    vecs = []
    for s in sols.basis:
        a, d = s[:k], s[k:]
        v = [sum((a[j] * u.basis[j][c].re - d[j] * u.basis[j][c].im
                  for j in range(k)), Fraction(0)) for c in range(n)]
        vecs.append(v)
    return Subspace.span(Q, n, vecs)


def is_defined_over_q(u: Subspace) -> bool:
    return rational_part(u).dim == u.dim

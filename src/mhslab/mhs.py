"""Mixed Hodge structures: datatype, validation, functors, splitting.

A mixed Hodge structure is (dim, W, F) with W an increasing filtration
over Q and F a decreasing filtration over Q(i); validity means each
weight-graded piece is pure of its weight.  Filtrations store only their
jump steps; queries resolve to the nearest lower (W) / higher (F) step.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from . import linalg as la
from .errors import (DimensionMismatchError, FieldMismatchError, MhsError,
                     NotAnMhsError, NotASubobjectError, ResourceGuardError)
from .field import Q, QI, zero
from .linalg import Matrix, Subspace, Vector

GUARD_ENV = "MHSLAB_TENSOR_GUARD"
DEFAULT_GUARD = 10 ** 4


def _prune(steps: List[Tuple[int, Subspace]], decreasing: bool
           ) -> Tuple[Tuple[int, Subspace], ...]:
    """The jumps among sorted steps, read from the end where the filtration
    is zero: leading zero steps and repeats of the step before are dropped."""
    out = []
    for n, s in (reversed(steps) if decreasing else steps):
        if not ((s.is_zero() and not out) or (out and out[-1][1] == s)):
            out.append((n, s))
    return tuple(reversed(out) if decreasing else out)


@dataclass(frozen=True, slots=True)
class WeightFiltration:
    """Increasing, exhaustive, separated filtration over Q."""

    ambient_dim: int
    steps: Tuple[Tuple[int, Subspace], ...]  # sorted by weight, jumps only

    @classmethod
    def of(cls, ambient_dim: int, mapping: Dict[int, Subspace]) -> "WeightFiltration":
        items = sorted(mapping.items())
        for _, s in items:
            if s.field != Q:
                raise FieldMismatchError("weight filtration must be over Q")
            if s.ambient_dim != ambient_dim:
                raise DimensionMismatchError("weight step in wrong ambient dimension")
        return cls(ambient_dim, _prune(items, decreasing=False))

    def at(self, n: int) -> Subspace:
        best = None
        for m, s in self.steps:
            if m <= n:
                best = s
            else:
                break
        return best if best is not None else Subspace.zero(Q, self.ambient_dim)

    @property
    def jumps(self) -> Tuple[int, ...]:
        return tuple(n for n, _ in self.steps)

    def problems(self) -> List[str]:
        out = []
        prev: Optional[Subspace] = None
        for n, s in self.steps:
            if prev is not None and not s.contains_subspace(prev):
                out.append(f"W is not increasing at weight {n}")
            prev = s
        if self.ambient_dim > 0:
            if not self.steps:
                out.append("W has no steps")
            elif not self.steps[-1][1].is_full():
                out.append("W is not exhaustive (top step is not everything)")
        return out


@dataclass(frozen=True, slots=True)
class HodgeFiltration:
    """Decreasing, exhaustive, separated filtration over Q(i)."""

    ambient_dim: int
    steps: Tuple[Tuple[int, Subspace], ...]  # sorted ascending, jumps only

    @classmethod
    def of(cls, ambient_dim: int, mapping: Dict[int, Subspace]) -> "HodgeFiltration":
        items = sorted(mapping.items())
        for _, s in items:
            if s.field != QI:
                raise FieldMismatchError("Hodge filtration must be over Q(i)")
            if s.ambient_dim != ambient_dim:
                raise DimensionMismatchError("Hodge step in wrong ambient dimension")
        return cls(ambient_dim, _prune(items, decreasing=True))

    def at(self, p: int) -> Subspace:
        for q, s in self.steps:
            if q >= p:
                return s
        return Subspace.zero(QI, self.ambient_dim)

    @property
    def jumps(self) -> Tuple[int, ...]:
        return tuple(p for p, _ in self.steps)

    def problems(self) -> List[str]:
        out = []
        prev: Optional[Subspace] = None
        for p, s in self.steps:
            if prev is not None and not prev.contains_subspace(s):
                out.append(f"F is not decreasing at step {p}")
            prev = s
        if self.ambient_dim > 0:
            if not self.steps:
                out.append("F has no steps")
            elif not self.steps[0][1].is_full():
                out.append("F is not exhaustive (lowest listed step is not everything)")
        return out


@dataclass(frozen=True, slots=True)
class MixedHodgeStructure:
    dim: int
    W: WeightFiltration
    F: HodgeFiltration

    def __post_init__(self):
        if self.W.ambient_dim != self.dim or self.F.ambient_dim != self.dim:
            raise DimensionMismatchError("filtrations do not match ambient dimension")


# -- graded coordinates -----------------------------------------------------

@dataclass(frozen=True, slots=True)
class GradedPiece:
    """Gr^W_n as the block [offset, offset + dim) of graded coordinates."""

    weight: int
    dim: int
    offset: int      # the first coordinate of the piece's graded block
    pi: Matrix       # over Q, dim x ambient; valid on W_n
    section: Matrix  # over Q, ambient x dim; pi . section = id, image in W_n


@functools.lru_cache(maxsize=16)
def graded_pieces(w: WeightFiltration) -> Tuple[GradedPiece, ...]:
    """Canonical coordinates on each Gr^W_n, with a canonical rational
    section: in the echelon coordinates of W_n, la.split_quotient of W_{n-1}.

    Cached by the value of w, which fixes the result: the many structures
    built from one triple (its members, their weight cuts and Hom spaces)
    share a few weight filtrations, held as distinct but equal objects.
    """
    pieces = []
    prev = Subspace.zero(Q, w.ambient_dim)
    for n, wn in w.steps:
        g = wn.dim - prev.dim
        if g == 0:
            prev = wn
            continue
        sel = la.coords_map(wn)
        proj, c = la.split_quotient(la.apply_to_subspace(sel, prev))
        pieces.append(GradedPiece(n, g, prev.dim, la.mat_mul(proj, sel),
                                  la.mat_mul(la.inclusion_map(wn), c)))
        prev = wn
    return tuple(pieces)


@dataclass(frozen=True, slots=True)
class GradedBasis:
    """The W-adapted basis B whose columns are the sections of the graded
    pieces, in ascending weight.  In the coordinates B^-1 . v, W_n is
    spanned by the first dims[k] unit vectors, n being the k-th jump."""

    dims: Tuple[int, ...]       # dim W_n at each jump n of W
    basis: Optional[Matrix]     # B over Q, or None when B is the identity
    inverse: Optional[Matrix]   # B^-1, or None with basis


@functools.lru_cache(maxsize=16)
def graded_basis(w: WeightFiltration) -> GradedBasis:
    """The graded basis of w, cached by its value as graded_pieces is.  B
    is the identity when W_n is spanned by the first dim W_n coordinates
    at every jump, as on the coordinate flag of a Tate triple."""
    dims = tuple(s.dim for _, s in w.steps)
    b = la.transpose(tuple(c for piece in graded_pieces(w)
                           for c in la.transpose(piece.section)))
    if b == la.identity(Q, w.ambient_dim):
        return GradedBasis(dims, None, None)
    return GradedBasis(dims, b, la.invert(Q, b))


class _WeightMeets:
    """F^p . W_n and F^p Gr^W_n at every jump n of W, from one reduction
    of F^p.  g is graded_basis(w), which the caller looks up once for all
    the steps of F.

    The basis of F^p goes to graded coordinates, where W_n is spanned by
    the first d_n unit vectors, and is reduced with its columns reversed.
    Each echelon row then ends at its pivot L, and the rows with L < d_n
    span F^p . W_n: dims[k] counts them at the k-th jump of W.  at(k)
    maps them back by B and takes their reduced echelon form, except
    where the meet is F^p, W_n or 0.  graded(k) reads F^p Gr^W_n off the
    same rows, with no map back.  F^p = 0 needs no reduction, nor does
    F^p = everything, which meets W_n in W_n."""

    __slots__ = ("f", "w", "g", "rows", "dims", "_at")

    def __init__(self, f: Subspace, w: WeightFiltration, g: GradedBasis):
        self.f, self.w, self.g, self._at = f, w, g, {}
        if f.is_full():
            self.rows, self.dims = (), self.g.dims
            return
        rows = f.basis if self.g.inverse is None else tuple(
            la.mat_vec(self.g.inverse, v) for v in f.basis)
        rev = Subspace.span_ints(QI, f.ambient_dim,
                                 la.int_rows(QI, [v[::-1] for v in rows]))
        # Reversed pivots ascend, so the rows ending before d_n come last.
        self.rows = tuple(v[::-1] for v in rev.basis)
        self.dims = tuple(rev.dim - bisect.bisect_left(rev.pivots, f.ambient_dim - d)
                          for d in self.g.dims)

    def at(self, k: int) -> Subspace:
        """F^p . W_n for the k-th jump n of W."""
        if k not in self._at:
            self._at[k] = self._meet(k)
        return self._at[k]

    def _meet(self, k: int) -> Subspace:
        count, f = self.dims[k], self.f
        if count == f.dim:
            return f
        if count == self.g.dims[k]:
            return self.w.steps[k][1].to_qi()
        if count == 0:
            return Subspace.zero(QI, f.ambient_dim)
        rows = self.rows[len(self.rows) - count:]
        if self.g.basis is not None:
            rows = [la.mat_vec(self.g.basis, v) for v in rows]
        return Subspace.span_ints(QI, f.ambient_dim, la.int_rows(QI, rows))

    def graded(self, k: int) -> Subspace:
        """F^p Gr^W_n for the k-th jump n of W, in the coordinates of the
        graded piece: the span of the block-k columns [d_{n-1}, d_n) of
        the rows that end in that block.  On W_n the block-n graded
        coordinates are pi_n, which is 1 on section_n and kills W_{n-1},
        home of the lower sections; so the rows ending below the block
        project to 0, and those ending in it are independent there, their
        last entries being distinct.  No row ending there leaves 0, and
        as many as the block is wide, the whole piece."""
        lo = self.g.dims[k - 1] if k else 0
        below = self.dims[k - 1] if k else 0
        count, width = self.dims[k] - below, self.g.dims[k] - lo
        if count == width:
            return Subspace.full(QI, width)
        if count == 0:
            return Subspace.zero(QI, width)
        end = len(self.rows) - below
        return Subspace.span_ints(QI, width, la.int_rows(
            QI, [v[lo:lo + width] for v in self.rows[end - count:end]]))


# -- validation -------------------------------------------------------------

def validate_mhs(m: MixedHodgeStructure) -> List[str]:
    """Empty list iff m is a mixed Hodge structure; otherwise the failures.

    Gr^W_n is pure of weight n when G^p (+) conj G^{n+1-p} is all of it
    for each p, G being the filtration gr_w induces there.  That can fail
    only for p in [lo, hi], and G^p and G^{n+1-p} stay put between the
    starts where p passes a jump j of F (p = j + 1) or n + 1 - p meets one
    (p = n + 1 - j): one test per run, naming every p of a failing run."""
    problems = m.W.problems() + m.F.problems()
    if problems:
        return problems
    fj = m.F.jumps
    for n, pure in gr_w(m):
        lo, hi = min(min(fj), n - max(fj)) - 1, max(max(fj), n - min(fj)) + 1
        starts = sorted({lo} | {c for j in fj for c in (j + 1, n + 1 - j)
                                if lo < c <= hi})
        for first, end in zip(starts, starts[1:] + [hi + 1]):
            fp, opp = pure.F.at(first), pure.F.at(n - first + 1).conj()
            if fp.dim + opp.dim != pure.dim or la.add(fp, opp).dim != pure.dim:
                problems += [f"Gr_{n} is not pure of weight {n}: "
                             f"F^{p} (+) conj(F^{n - p + 1}) fails"
                             for p in range(first, end)]
    return problems


def is_valid(m: MixedHodgeStructure) -> bool:
    return not validate_mhs(m)


def check_valid(m: MixedHodgeStructure) -> MixedHodgeStructure:
    problems = validate_mhs(m)
    if problems:
        raise NotAnMhsError(problems)
    return m


# -- constructors -----------------------------------------------------------

def make_mhs(dim: int, w_steps: Dict[int, Subspace], f_steps: Dict[int, Subspace]) -> MixedHodgeStructure:
    return MixedHodgeStructure(dim, WeightFiltration.of(dim, w_steps),
                               HodgeFiltration.of(dim, f_steps))


@functools.lru_cache(maxsize=64)
def tate_twist(k: int) -> MixedHodgeStructure:
    """Q(k): dimension 1, weight -2k, Hodge filtration jumping at -k.
    Structures are immutable, so the triples built from one twist share
    one object."""
    return make_mhs(1, {-2 * k: Subspace.full(Q, 1)},
                    {-k: Subspace.full(QI, 1)})


def zero_mhs() -> MixedHodgeStructure:
    return MixedHodgeStructure(0, WeightFiltration(0, ()), HodgeFiltration(0, ()))


# -- functors ---------------------------------------------------------------

def guard_limit() -> int:
    """The ceiling in GUARD_ENV on the size of the tensor spaces formed."""
    raw = os.environ.get(GUARD_ENV)
    try:
        return DEFAULT_GUARD if raw is None else int(raw)
    except ValueError:
        raise ResourceGuardError(f"{GUARD_ENV} must be an integer, got {raw!r}")


def check_guard(dim: int) -> None:
    """Refuse a tensor space of dimension above the ceiling."""
    limit = guard_limit()
    if dim > limit:
        raise ResourceGuardError(
            f"tensor space of dimension {dim} exceeds the "
            f"ceiling {limit} (set {GUARD_ENV} to raise it)")


def _adapted_basis(steps: Iterable[Tuple[int, Subspace]]
                   ) -> List[Tuple[int, Vector]]:
    """A basis of the top step, each vector tagged with the first step in
    `steps` that contains it.

    Pass the steps of W upward and those of F downward.  In reduced echelon
    form the pivots of a subspace are among the pivots of any larger one,
    so the rows with a pivot not met before are independent, and each step
    adds as many of them as its dimension grows.
    """
    seen = set()
    out = []
    for n, s in steps:
        for row, c in zip(s.basis, s.pivots):
            if c not in seen:
                seen.add(c)
                out.append((n, row))
    return out


def _int_basis(field: str, steps: Iterable[Tuple[int, Subspace]]
               ) -> List[Tuple[int, list]]:
    """_adapted_basis as primitive integer rows (la.int_rows), same tags."""
    tagged = _adapted_basis(steps)
    return list(zip([t for t, _ in tagged],
                    la.int_rows(field, [v for _, v in tagged])))


def _products(field: str, factors: List[List[Tuple[int, list]]]
              ) -> List[Tuple[int, list]]:
    """The kron products u_1 (x) ... (x) u_k of one tagged integer row
    per factor, in kron order, each tagged with the sum of its factors'
    tags."""
    out = factors[0]
    for f in factors[1:]:
        out = [(s + t, la.int_kron(field, u, v)) for s, u in out for t, v in f]
    return out


def _span_independent(field: str, dim: int, rows: list) -> Subspace:
    """The span of independent integer rows in the layout of la.int_rows,
    such as products of adapted bases or images of basis vectors: as many
    of them as the dimension span everything."""
    return (Subspace.full(field, dim) if len(rows) == dim
            else Subspace.span_ints(field, dim, rows))


def _tensor_steps(field: str, dim: int, prods: List[Tuple[int, list]],
                  keep) -> Dict[int, Subspace]:
    """For each candidate jump k, the span of the integer products u (x) v
    of the adapted bases with keep(tag(u) + tag(v), k)."""
    return {k: _span_independent(field, dim, [v for t, v in prods if keep(t, k)])
            for k in {t for t, _ in prods}}


def _image_steps(field: str, dim: int, parts) -> Dict[int, Subspace]:
    """For each jump k of the filtrations G in the (matrix a, G) pairs, the
    span of the images a.v over the basis vectors v of every G.at(k), in
    one reduction.  The images must be independent, as block inclusions,
    the sections of a point and incl(W_p) + psi are."""
    return {k: _span_independent(field, dim, la.int_rows(
                field, [la.mat_vec(a, v) for a, g in parts for v in g.at(k).basis]))
            for k in {k for _, g in parts for k in g.jumps}}


def _block_sum(ms: List[MixedHodgeStructure]) -> MixedHodgeStructure:
    """The direct sum, in one pass over the inclusions of the blocks:
    column slices of the identity."""
    dim = sum(m.dim for m in ms)
    ident = la.identity(Q, dim)
    incls = [la.transpose(ident[e - m.dim:e])
             for m, e in zip(ms, itertools.accumulate(m.dim for m in ms))]
    return make_mhs(dim, _image_steps(Q, dim, list(zip(incls, (m.W for m in ms)))),
                    _image_steps(QI, dim, list(zip(incls, (m.F for m in ms)))))


def direct_sum(m: MixedHodgeStructure, n: MixedHodgeStructure) -> MixedHodgeStructure:
    return _block_sum([m, n])


def tensor(m: MixedHodgeStructure, n: MixedHodgeStructure) -> MixedHodgeStructure:
    """W_k = span{u (x) v : w(u) + w(v) <= k} and F^p = span{u (x) v :
    f(u) + f(v) >= p} over adapted bases, one reduction per jump."""
    dim = m.dim * n.dim
    check_guard(dim)
    w = _tensor_steps(Q, dim, _products(Q, [_int_basis(Q, m.W.steps),
                                            _int_basis(Q, n.W.steps)]),
                      lambda t, k: t <= k)
    f = _tensor_steps(QI, dim, _products(QI, [_int_basis(QI, reversed(m.F.steps)),
                                              _int_basis(QI, reversed(n.F.steps))]),
                      lambda t, p: t >= p)
    return make_mhs(dim, w, f)


def dual(m: MixedHodgeStructure) -> MixedHodgeStructure:
    """W_k is the annihilator of W_{-k-1} and F^p that of F^{1-p}.  They
    change only where -k-1 or 1-p meets a jump, so only those k and p are
    formed, with the first k and the last p of the range they bound."""
    w = {k: la.annihilator(m.W.at(-k - 1))
         for k in [-n for n in m.W.jumps] + [-n - 1 for n in m.W.jumps[-1:]]}
    f = {p: la.annihilator(m.F.at(1 - p))
         for p in [-q for q in m.F.jumps] + [1 - q for q in m.F.jumps[:1]]}
    return make_mhs(m.dim, w, f)


def hom(m: MixedHodgeStructure, n: MixedHodgeStructure) -> MixedHodgeStructure:
    """Internal Hom, as tensor(dual(m), n) on the nose."""
    return tensor(dual(m), n)


def hom_vec(a: Matrix, src_dim: int, tgt_dim: int) -> Tuple:
    """Flatten a linear map (tgt x src matrix) into hom-space coordinates."""
    return tuple(a[j][i] for i in range(src_dim) for j in range(tgt_dim))


def hom_mat(v, src_dim: int, tgt_dim: int) -> Matrix:
    """Inverse of hom_vec."""
    return tuple(tuple(v[i * tgt_dim + j] for i in range(src_dim))
                 for j in range(tgt_dim))


def _restrict(m: MixedHodgeStructure, a_q: Subspace) -> MixedHodgeStructure:
    """sub_mhs unchecked, for a subspace that carries a subobject (W_pM)."""
    sel = la.coords_map(a_q)
    a_qi = a_q.to_qi()
    k = a_q.dim
    w = {n: la.apply_to_subspace(sel, la.intersect(s, a_q))
         for n, s in m.W.steps}
    f = {p: la.apply_to_subspace(sel, la.intersect(s, a_qi))
         for p, s in m.F.steps}
    return make_mhs(k, w, f) if k > 0 else zero_mhs()


def sub_mhs(m: MixedHodgeStructure, a_q: Subspace) -> MixedHodgeStructure:
    """Induced structure on a rational subspace; raises if not a subobject.
    A subspace enters the library here, so the result is validated."""
    if a_q.field != Q or a_q.ambient_dim != m.dim:
        raise DimensionMismatchError("subspace must be rational, in the ambient space")
    sub = _restrict(m, a_q)
    problems = validate_mhs(sub)
    if problems:
        raise NotASubobjectError(problems)
    return sub


def try_sub_mhs(m: MixedHodgeStructure, a_q: Subspace) -> Optional[MixedHodgeStructure]:
    try:
        return sub_mhs(m, a_q)
    except NotASubobjectError:
        return None


def quotient_mhs(m: MixedHodgeStructure, a_q: Subspace) -> MixedHodgeStructure:
    """Quotient by a validated subobject; filtrations are pushed forward."""
    sub_mhs(m, a_q)  # raises if not a subobject
    return _push_forward(m, a_q)


def _push_forward(m: MixedHodgeStructure, a_q: Subspace) -> MixedHodgeStructure:
    """quotient_mhs for a subobject a_q (checked by sub_mhs, or W_pM): a
    quotient of a mixed Hodge structure by a subobject is one, unchecked."""
    p = la.quotient_map(a_q)
    k = m.dim - a_q.dim
    if k == 0:
        return zero_mhs()
    w = {n: la.apply_to_subspace(p, s) for n, s in m.W.steps}
    f = {q: la.apply_to_subspace(p, s) for q, s in m.F.steps}
    return make_mhs(k, w, f)


def gr_w(m: MixedHodgeStructure) -> List[Tuple[int, MixedHodgeStructure]]:
    """The associated graded, one structure per nonzero weight piece, with
    F^p Gr^W_n the image of F^p M . W_n, taken at the jumps of F.  Each
    step F^p is reduced once in the graded coordinates of W
    (_WeightMeets, as for the bigrading), and every piece reads its F^p
    off that reduction.  W must be a filtration, so that its k-th jump
    carries the k-th graded piece."""
    g = graded_basis(m.W)
    meets = [(p, _WeightMeets(f, m.W, g)) for p, f in m.F.steps]
    return [(piece.weight, make_mhs(
                piece.dim, {piece.weight: Subspace.full(Q, piece.dim)},
                {p: meet.graded(k) for p, meet in meets}))
            for k, piece in enumerate(graded_pieces(m.W))]


# -- Hodge classes ----------------------------------------------------------

def hodge_classes(m: MixedHodgeStructure) -> Subspace:
    """Rational vectors in W_0 and F^0: the weight-zero Hodge classes.
    W_0 is rational, so they are W_0 . rational_part(F^0), over Q."""
    if m.dim == 0:
        return Subspace.zero(Q, 0)
    return la.intersect(m.W.at(0), la.rational_part(m.F.at(0)))


def power_hodge_classes(m: MixedHodgeStructure, a: int, b: int) -> Subspace:
    """hodge_classes of M^(x a) (x) (M^v)^(x b), the a factors M first,
    in the coordinates of the chained tensor product, for a + b >= 1."""
    if a < 0 or b < 0 or a + b == 0:
        raise MhsError("a tensor power needs a, b >= 0 and a + b >= 1")
    dim = m.dim ** (a + b)
    if dim == 0:
        return Subspace.zero(Q, 0)
    return _power_classes(dim, _power_bases(m), a, b)


def _power_bases(m: MixedHodgeStructure) -> Tuple[list, list, list, list]:
    """The factors of every tensor power of M: the adapted bases of W of
    M and of M^v, then those of F, as tagged integer rows (_int_basis)."""
    md = dual(m)
    return (_int_basis(Q, m.W.steps), _int_basis(Q, md.W.steps),
            _int_basis(QI, reversed(m.F.steps)),
            _int_basis(QI, reversed(md.F.steps)))


def _power_classes(dim: int, bases: Tuple[list, list, list, list],
                   a: int, b: int) -> Subspace:
    """power_hodge_classes from the bases of _power_bases, dim = m.dim^(a+b).

    Only W_0 and F^0 of the power are used: over the adapted bases of M
    and M^v, W_0 is the span of the integer products with weight tags
    summing to at most 0, and F^0 of those with Hodge tags summing to at
    least 0.  The products of F^0 go to la.rational_part_ints as they
    are, with no echelon basis of F^0.  No intermediate tensor product
    is formed.
    """
    wm, wd, fm, fd = bases
    w0 = [v for t, v in _products(Q, [wm] * a + [wd] * b) if t <= 0]
    f0 = [v for t, v in _products(QI, [fm] * a + [fd] * b) if t >= 0]
    return la.intersect(_span_independent(Q, dim, w0),
                        la.rational_part_ints(dim, f0))


# -- Deligne bigrading and splitting ----------------------------------------

def deligne_bigrading(m: MixedHodgeStructure
                      ) -> Tuple[Tuple[Tuple[int, int], Subspace], ...]:
    """The ((p, q), I^{p,q}) pairs of a valid m, n = p + q, with
    I^{p,q} = F^p . W_n . (conj F^q . W_n + sum_{j>=2} conj F^{q-j+1} . W_{n-j}).
    Between two jumps of W a term grows with j, so the term at each jump
    b = n - j holds the others: the sum runs over the jumps b <= n - 2 of
    W, with terms conj F^{b-p+1} . W_b.

    Each step F^p is reduced once in the graded coordinates of W
    (_WeightMeets), which gives dim F^p . W_n at every jump n and so the
    Hodge numbers h^{p,q} of Gr^W_n; F^p . W_n itself is formed only
    where it is read.  I^{p,q} lies in F^p . W_n and has dimension
    h^{p,q}, so it is that intersection wherever the dimensions agree
    (everywhere on a graded-Tate m); the correction sum is formed only
    at the other (p, n)."""
    if m.dim == 0:
        return ()
    # I^{p,q} lies in F^p and W_{p+q} and meets F^{p+1} and W_{p+q-1} in
    # zero, so it vanishes unless p is a jump of F and p + q one of W.
    fj = m.F.jumps
    w = m.W.jumps
    g = graded_basis(m.W)
    meets = [_WeightMeets(f, m.W, g) for _, f in m.F.steps]

    def dim(i: int, k: int) -> int:
        """dim F^{fj[i]} . W_{w[k]}: 0 above F's last jump or below W's first."""
        return meets[i].dims[k] if i < len(fj) and k >= 0 else 0

    def conj_fw(q: int, k: int) -> Subspace:
        """conj F^q . W_{w[k]}, W being rational."""
        i = bisect.bisect_left(fj, q)
        return meets[i].at(k).conj() if i < len(fj) else Subspace.zero(QI, m.dim)

    comps = []
    for i, p in enumerate(fj):
        for k, n in enumerate(w):
            # h^{p,n-p} = dim F^p Gr^W_n - dim F^{p+1} Gr^W_n.
            h = dim(i, k) - dim(i, k - 1) - dim(i + 1, k) + dim(i + 1, k - 1)
            if not h:
                continue
            comp = meets[i].at(k)
            if comp.dim != h:
                rows = list(conj_fw(n - p, k).basis)
                for j, b in enumerate(w):
                    if b <= n - 2:
                        rows += conj_fw(b - p + 1, j).basis
                comp = la.intersect(comp, Subspace.span(QI, m.dim, rows))
            comps.append(((p, n - p), comp))
    return tuple(comps)


@dataclass(frozen=True, slots=True)
class DeligneFrame:
    """A basis adapted to a Deligne bigrading, each vector with its type
    (p, q), and its dual rows: duals[i] . vectors[j] is 1 if i = j, else 0."""

    types: Tuple[Tuple[int, int], ...]
    vectors: Tuple[Vector, ...]
    duals: Matrix

    def select(self, keep) -> Tuple[Matrix, Matrix]:
        """S, the vectors whose type has keep(p, q), as columns, and T, their
        dual rows: S . T projects onto their span along the other vectors."""
        picked = [i for i, t in enumerate(self.types) if keep(*t)]
        return (la.transpose(tuple(self.vectors[i] for i in picked)),
                tuple(self.duals[i] for i in picked))

    def span(self, keep) -> Subspace:
        """The Q(i) span of the vectors whose type has keep(p, q)."""
        return Subspace.span(QI, len(self.vectors), [
            v for t, v in zip(self.types, self.vectors) if keep(*t)])


def frame_hom(a: DeligneFrame, b: DeligneFrame) -> DeligneFrame:
    """The Deligne frame of Hom(A, B) from frames of A and B: for u in a,
    with dual row r_u, and v in b, x -> v (r_u . x) has type (p_v - p_u,
    q_v - q_u), and in hom_vec coordinates (dual slot first, a's index
    outer) it is kron(r_u, v), with dual row kron(u, r_v)."""
    return DeligneFrame(tuple((pv - pu, qv - qu) for pu, qu in a.types
                              for pv, qv in b.types),
                        la.kron_mat(a.duals, b.vectors),
                        la.kron_mat(a.vectors, b.duals))


def deligne_frame(m: MixedHodgeStructure) -> DeligneFrame:
    """The bases of the I^{p,q} of deligne_bigrading, in its order, and the
    rows of the one inverse of the matrix they form as columns."""
    comps = deligne_bigrading(m)
    vectors = tuple(v for _, comp in comps for v in comp.basis)
    return DeligneFrame(tuple(pq for pq, comp in comps for _ in comp.basis),
                        vectors, la.invert(QI, la.transpose(vectors)))


def _type_hull(frame: DeligneFrame, s: Subspace) -> Subspace:
    """The rational hull of the projections S . (T . v) of a basis v of the
    rational s onto the frame vectors of each type (p, q), with S and T of
    DeligneFrame.select and no square matrix formed.  The projectors sum
    to the identity, so it holds s, and it is s exactly when each of them
    maps s (x) Q(i) into itself."""
    rows = []
    for t in sorted(set(frame.types)):
        sk, tk = frame.select(lambda p, q: (p, q) == t)
        rows += [la.mat_vec(sk, la.mat_vec(tk, v)) for v in s.basis]
    return la.rational_hull(s.ambient_dim, rows)


def generated_subobject(frame: DeligneFrame, s: Subspace) -> Subspace:
    """The smallest subobject holding the rational s, in the structure with
    Deligne frame frame: rounds of _type_hull from s, until a round adds
    nothing or the span is everything."""
    while not s.is_full():
        grown = _type_hull(frame, s)
        if grown.dim == s.dim:
            break
        s = grown
    return s


def check_subobject(frame: DeligneFrame, a_q: Subspace, name: str) -> None:
    """Raise unless the rational a_q underlies a subobject of the structure
    called name, with Deligne frame frame: unless a_q (x) Q(i) is the sum
    of its intersections with the I^{p,q}, that is, unless one round of
    generated_subobject's closure adds nothing to it."""
    if a_q.field != Q or a_q.ambient_dim != len(frame.vectors):
        raise DimensionMismatchError(
            "subspace must be rational, in the ambient space")
    if _type_hull(frame, a_q).dim > a_q.dim:
        raise NotASubobjectError([f"the subspace (x) Q(i) is not the sum of its "
                                  f"intersections with the I^{{p,q}} of {name}"])


def graded_frame(w: WeightFiltration, frame: DeligneFrame) -> DeligneFrame:
    """The Deligne frame of Gr^W M in graded coordinates, carried from the
    frame of M, whose weight filtration is w: a vector v of weight n
    becomes pi_n . v in block n, and its dual row r becomes r . section_n
    in block n.  No inversion is needed: section_n . pi_n . v differs
    from v by a vector of W_{n-1}, which r kills, so the rows stay dual."""
    z = zero(QI)
    blocks = {piece.weight: (piece, la.transpose(piece.section))
              for piece in graded_pieces(w)}
    vectors, duals = [], []
    for (p, q), v, r in zip(frame.types, frame.vectors, frame.duals):
        piece, section_t = blocks[p + q]
        at = piece.offset
        before, after = (z,) * at, (z,) * (w.ambient_dim - at - piece.dim)
        vectors.append(before + la.mat_vec(piece.pi, v) + after)
        duals.append(before + la.mat_vec(section_t, r) + after)
    return DeligneFrame(frame.types, tuple(vectors), tuple(duals))


def deligne_splitting(m: MixedHodgeStructure) -> Matrix:
    """The canonical isomorphism a_M : M_C -> Gr^W M_C in graded
    coordinates, S_gr . T for the vectors S_gr of the graded frame as
    columns and the dual rows T of M's frame: it maps each frame vector v
    of weight n to pi_n . v, so it sends each I^{p,q} identically onto its
    image in Gr^W_{p+q}, preserves W and F, and is the identity on Gr^W."""
    frame = deligne_frame(m)
    return la.mat_mul(la.transpose(graded_frame(m.W, frame).vectors),
                      frame.duals)


def deligne_sections(m: MixedHodgeStructure) -> Tuple[Tuple[int, Matrix], ...]:
    """The inverse of deligne_splitting, block by block: the column blocks
    of S . T_gr, for the vectors S of M's frame as columns and the dual
    rows T_gr of the graded frame.  On Gr^W_n it is P_n . section_n."""
    frame = deligne_frame(m)
    st = la.mat_mul(la.transpose(frame.vectors), graded_frame(m.W, frame).duals)
    return tuple((g.weight, tuple(r[g.offset:g.offset + g.dim] for r in st))
                 for g in graded_pieces(m.W))


def graded_mhs(pieces: Iterable[Tuple[int, MixedHodgeStructure]]
               ) -> MixedHodgeStructure:
    """The split structure on graded coordinates, from (weight, pure piece)
    pairs such as gr_w(m) or the pieces of a triple: the target of
    deligne_splitting."""
    return _block_sum([pure for _, pure in pieces])

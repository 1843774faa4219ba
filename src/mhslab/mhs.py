"""Mixed Hodge structures: datatype, validation, functors, splitting.

A mixed Hodge structure is (dim, W, F) with W an increasing filtration
over Q and F a decreasing filtration over Q(i); validity means each
weight-graded piece is pure of its weight.  Filtrations store only their
jump steps; queries resolve to the nearest lower (W) / higher (F) step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from . import linalg as la
from .errors import (DimensionMismatchError, FieldMismatchError,
                     NotAnMhsError, NotASubobjectError)
from .field import Q, QI
from .linalg import Matrix, Subspace, Vector


def _prune_increasing(steps: List[Tuple[int, Subspace]]) -> Tuple[Tuple[int, Subspace], ...]:
    out = []
    for n, s in steps:
        if s.is_zero() and not out:
            continue  # the default below all steps is already zero
        if out and out[-1][1] == s:
            continue
        out.append((n, s))
    return tuple(out)


def _prune_decreasing(steps: List[Tuple[int, Subspace]]) -> Tuple[Tuple[int, Subspace], ...]:
    out = []
    for n, s in reversed(steps):
        if s.is_zero() and not out:
            continue  # the default above all steps is already zero
        if out and out[-1][1] == s:
            continue
        out.append((n, s))
    return tuple(reversed(out))


@dataclass(frozen=True)
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
        return cls(ambient_dim, _prune_increasing(items))

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


@dataclass(frozen=True)
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
        return cls(ambient_dim, _prune_decreasing(items))

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


@dataclass(frozen=True)
class MixedHodgeStructure:
    dim: int
    W: WeightFiltration
    F: HodgeFiltration

    def __post_init__(self):
        if self.W.ambient_dim != self.dim or self.F.ambient_dim != self.dim:
            raise DimensionMismatchError("filtrations do not match ambient dimension")


MHS = MixedHodgeStructure


@dataclass(frozen=True)
class Bigrading:
    """Deligne bigrading: components (p, q) -> subspace over Q(i)."""

    dim: int
    components: Tuple[Tuple[Tuple[int, int], Subspace], ...]

    def at(self, p: int, q: int) -> Subspace:
        for (a, b), s in self.components:
            if (a, b) == (p, q):
                return s
        return Subspace.zero(QI, self.dim)

    def items(self):
        return self.components


# -- graded coordinates -----------------------------------------------------

@dataclass(frozen=True)
class GradedPiece:
    weight: int
    dim: int
    pi_q: Matrix    # over Q, dim x ambient; valid on W_n
    pi_qi: Matrix   # scalar extension of pi_q
    section: Matrix  # over Q, ambient x dim; pi . section = id, image in W_n
    offset: int      # block offset in graded coordinates


def graded_pieces(w: WeightFiltration) -> Tuple[GradedPiece, ...]:
    """Canonical coordinates on each Gr^W_n, with a canonical rational section."""
    pieces = []
    offset = 0
    prev = Subspace.zero(Q, w.ambient_dim)
    for n, wn in w.steps:
        g = wn.dim - prev.dim
        if g == 0:
            prev = wn
            continue
        sel = la.coords_map(wn)
        inner = la.apply_to_subspace(sel, prev)
        proj = la.quotient_map(inner)
        pi = la.mat_mul(proj, sel)
        incl = la.inclusion_map(wn)
        pw = la.mat_mul(pi, incl)  # g x dim(wn), surjective
        c = la.solve_matrix(Q, pw, la.identity(Q, g))
        section = la.mat_mul(incl, c)
        pieces.append(GradedPiece(n, g, pi, la.to_qi_mat(pi), section, offset))
        offset += g
        prev = wn
    return tuple(pieces)


def graded_embedding(piece: GradedPiece, total: int) -> Matrix:
    """Embedding of the piece's coordinate block into graded coordinates."""
    rows = []
    for i in range(total):
        row = [0] * piece.dim
        if piece.offset <= i < piece.offset + piece.dim:
            row[i - piece.offset] = 1
        rows.append(row)
    return la.mat(Q, rows)


# -- validation -------------------------------------------------------------

def _purity_window(n: int, fjumps: Iterable[int]) -> range:
    fjumps = list(fjumps)
    if not fjumps:
        return range(0)
    lo = min(min(fjumps), n - max(fjumps)) - 1
    hi = max(max(fjumps), n - min(fjumps)) + 1
    return range(lo, hi + 1)


def _graded_f(m: MixedHodgeStructure, piece: GradedPiece, p: int) -> Subspace:
    wn = m.W.at(piece.weight).to_qi()
    return la.apply_to_subspace(piece.pi_qi, la.intersect(m.F.at(p), wn))


def validate_mhs(m: MixedHodgeStructure) -> List[str]:
    """Empty list iff m is a mixed Hodge structure; otherwise the failures."""
    problems = m.W.problems() + m.F.problems()
    if problems:
        return problems
    for piece in graded_pieces(m.W):
        n = piece.weight
        for p in _purity_window(n, m.F.jumps):
            fp = _graded_f(m, piece, p)
            opp = _graded_f(m, piece, n - p + 1).conj()
            if la.intersect(fp, opp).dim != 0 or la.add(fp, opp).dim != piece.dim:
                problems.append(
                    f"Gr_{n} is not pure of weight {n}: "
                    f"F^{p} (+) conj(F^{n - p + 1}) fails")
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


def tate_twist(k: int) -> MixedHodgeStructure:
    """Q(k): dimension 1, weight -2k, Hodge filtration jumping at -k."""
    return make_mhs(1, {-2 * k: Subspace.full(Q, 1)},
                    {-k: Subspace.full(QI, 1)})


def zero_mhs() -> MixedHodgeStructure:
    return MixedHodgeStructure(0, WeightFiltration(0, ()), HodgeFiltration(0, ()))


# -- functors ---------------------------------------------------------------

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


def _tensor_steps(field: str, dim: int, a: List[Tuple[int, Vector]],
                  b: List[Tuple[int, Vector]], keep) -> Dict[int, Subspace]:
    """For each candidate jump k, the span of the products u (x) v of the
    adapted bases with keep(tag(u) + tag(v), k).  The products are
    independent, so as many of them as the dimension span everything."""
    prods = [(x + y, la.kron_vec(u, v)) for x, u in a for y, v in b]
    out = {}
    for k in {x + y for x, _ in a for y, _ in b}:
        rows = [v for t, v in prods if keep(t, k)]
        out[k] = (Subspace.full(field, dim) if len(rows) == dim
                  else Subspace.span(field, dim, rows))
    return out


def direct_sum(m: MixedHodgeStructure, n: MixedHodgeStructure) -> MixedHodgeStructure:
    dim = m.dim + n.dim
    def pad_m(s: Subspace, field):
        z = [0] * n.dim
        return [list(row) + z for row in s.basis]
    def pad_n(s: Subspace, field):
        z = [0] * m.dim
        return [z + list(row) for row in s.basis]
    w = {}
    for k in sorted(set(m.W.jumps) | set(n.W.jumps)):
        w[k] = Subspace.span(Q, dim, pad_m(m.W.at(k), Q) + pad_n(n.W.at(k), Q))
    f = {}
    for p in sorted(set(m.F.jumps) | set(n.F.jumps)):
        f[p] = Subspace.span(QI, dim, pad_m(m.F.at(p), QI) + pad_n(n.F.at(p), QI))
    return make_mhs(dim, w, f)


def tensor(m: MixedHodgeStructure, n: MixedHodgeStructure) -> MixedHodgeStructure:
    """W_k = span{u (x) v : w(u) + w(v) <= k} and F^p = span{u (x) v :
    f(u) + f(v) >= p} over adapted bases, one reduction per jump."""
    dim = m.dim * n.dim
    w = _tensor_steps(Q, dim, _adapted_basis(m.W.steps),
                      _adapted_basis(n.W.steps), lambda t, k: t <= k)
    f = _tensor_steps(QI, dim, _adapted_basis(reversed(m.F.steps)),
                      _adapted_basis(reversed(n.F.steps)), lambda t, p: t >= p)
    return make_mhs(dim, w, f)


def dual(m: MixedHodgeStructure) -> MixedHodgeStructure:
    dim = m.dim
    w: Dict[int, Subspace] = {}
    if m.W.jumps:
        for k in range(-max(m.W.jumps) - 1, -min(m.W.jumps) + 1):
            w[k] = la.annihilator(m.W.at(-k - 1))
    f: Dict[int, Subspace] = {}
    if m.F.jumps:
        for p in range(-max(m.F.jumps), -min(m.F.jumps) + 2):
            f[p] = la.annihilator(m.F.at(-p + 1))
    return make_mhs(dim, w, f)


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


def sub_mhs(m: MixedHodgeStructure, a_q: Subspace) -> MixedHodgeStructure:
    """Induced structure on a rational subspace; raises if not a subobject."""
    if a_q.field != Q or a_q.ambient_dim != m.dim:
        raise DimensionMismatchError("subspace must be rational, in the ambient space")
    sel = la.coords_map(a_q)
    sel_qi = la.to_qi_mat(sel)
    a_qi = a_q.to_qi()
    k = a_q.dim
    w = {n: la.apply_to_subspace(sel, la.intersect(s, a_q))
         for n, s in m.W.steps}
    f = {p: la.apply_to_subspace(sel_qi, la.intersect(s, a_qi))
         for p, s in m.F.steps}
    if k > 0 and not w:
        w = {0: Subspace.full(Q, k)}
    sub = make_mhs(k, w, f) if k > 0 else zero_mhs()
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
    """quotient_mhs for a caller that has already built sub_mhs(m, a_q)."""
    p = la.quotient_map(a_q)
    p_qi = la.to_qi_mat(p)
    k = m.dim - a_q.dim
    if k == 0:
        return zero_mhs()
    w = {n: la.apply_to_subspace(p, s) for n, s in m.W.steps}
    f = {q: la.apply_to_subspace(p_qi, s) for q, s in m.F.steps}
    return check_valid(make_mhs(k, w, f))


def gr_w(m: MixedHodgeStructure) -> List[Tuple[int, MixedHodgeStructure]]:
    """The associated graded, one pure structure per nonzero weight piece."""
    out = []
    for piece in graded_pieces(m.W):
        f = {p: _graded_f(m, piece, p) for p in _purity_window(piece.weight, m.F.jumps)}
        pure = make_mhs(piece.dim, {piece.weight: Subspace.full(Q, piece.dim)}, f)
        out.append((piece.weight, pure))
    return out


# -- Hodge classes ----------------------------------------------------------

def hodge_classes(m: MixedHodgeStructure) -> Subspace:
    """Rational vectors in W_0 and F^0: the weight-zero Hodge classes."""
    if m.dim == 0:
        return Subspace.zero(Q, 0)
    return la.rational_part(la.intersect(m.W.at(0).to_qi(), m.F.at(0)))


# -- Deligne bigrading and splitting ----------------------------------------

def deligne_bigrading(m: MixedHodgeStructure) -> Bigrading:
    """I^{p,q} = F^p . W_{p+q} . (conj F^q . W_{p+q} + sum_j conj F^{q-j+1} . W_{p+q-j})."""
    check_valid(m)
    if m.dim == 0:
        return Bigrading(0, ())
    # I^{p,q} lies in F^p and W_{p+q} and meets F^{p+1} and W_{p+q-1} in
    # zero, so it vanishes unless p is a jump of F and p + q one of W.
    comps = []
    for p in m.F.jumps:
        for n in m.W.jumps:
            q = n - p
            wn = m.W.at(n).to_qi()
            corr = la.intersect(m.F.at(q).conj(), wn)
            j = 2
            while True:
                wlow = m.W.at(n - j).to_qi()
                if wlow.is_zero():
                    break
                corr = la.add(corr, la.intersect(m.F.at(q - j + 1).conj(), wlow))
                j += 1
            comp = la.intersect(la.intersect(m.F.at(p), wn), corr)
            if comp.dim:
                comps.append(((p, q), comp))
    return Bigrading(m.dim, tuple(comps))


def deligne_splitting(m: MixedHodgeStructure) -> Matrix:
    """The canonical isomorphism a_M : M_C -> Gr^W M_C in graded coordinates.

    Sends each I^{p,q} identically onto its image in Gr^W_{p+q}; preserves
    W and F; induces the identity on the associated graded.
    """
    if m.dim == 0:
        return ()
    big = deligne_bigrading(m)
    pieces = {piece.weight: piece for piece in graded_pieces(m.W)}
    src_cols = []
    tgt_cols = []
    for (p, q), comp in big.items():
        piece = pieces[p + q]
        emb = la.to_qi_mat(graded_embedding(piece, m.dim))
        for v in comp.basis:
            src_cols.append(v)
            tgt_cols.append(la.mat_vec(emb, la.mat_vec(piece.pi_qi, v)))
    if len(src_cols) != m.dim:
        raise NotAnMhsError(["bigrading does not span the space"])
    s = la.transpose(tuple(src_cols))
    t = la.transpose(tuple(tgt_cols))
    return la.mat_mul(t, la.invert(QI, s))


def graded_mhs(m: MixedHodgeStructure) -> MixedHodgeStructure:
    """The split structure on graded coordinates (target of deligne_splitting)."""
    if m.dim == 0:
        return zero_mhs()
    pieces = gr_w(m)
    out = None
    for _, pure in pieces:
        out = pure if out is None else direct_sum(out, pure)
    return out

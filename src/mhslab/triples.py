"""Triples, section tuples, the parametrizing space, truncation, fibers.

A triple mu = (rational space, weight filtration, graded pure structures)
fixes everything about a mixed Hodge structure except the position of the
Hodge filtration.  Points of T(mu) are tuples of sections of each
W_n -> Gr_n; two points give the same structure exactly when their
transported Hodge filtrations coincide, and that filtration is the
canonical representative of a point of S(mu).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from . import linalg as la
from . import mhs as mh
from .errors import MhsError, NotAnMhsError
from .field import Q, QI, GaussRat
from .linalg import Matrix, Subspace
from .mhs import HodgeFiltration, MixedHodgeStructure, WeightFiltration


@dataclass(frozen=True, slots=True)
class Triple:
    """(dim, W, graded): a weight filtration plus pure structures on Gr^W."""

    dim: int
    W: WeightFiltration
    graded: Tuple[Tuple[int, MixedHodgeStructure], ...]  # ascending weight


@dataclass(frozen=True, slots=True)
class TPoint:
    """Sections alpha_n : Gr^W_n -> W_n (x) Q(i), one per graded piece."""

    sections: Tuple[Tuple[int, Matrix], ...]  # ascending weight

    def section(self, n: int) -> Matrix:
        for m, a in self.sections:
            if m == n:
                return a
        raise KeyError(n)


@dataclass(frozen=True, slots=True)
class SPoint:
    """A point of the parametrizing space, represented by its filtration."""

    triple: Triple
    F: HodgeFiltration


@dataclass(frozen=True, slots=True)
class LieData:
    w_minus1_end: Subspace      # over Q, inside End of the graded space
    f0_w_minus1_end: Subspace   # over QI


# -- validation ---------------------------------------------------------------

def triple_problems(mu: Triple) -> List[str]:
    out = mu.W.problems()
    if out:
        return out
    pieces = mh.graded_pieces(mu.W)
    weights = [p.weight for p in pieces]
    if [n for n, _ in mu.graded] != weights:
        out.append("graded weights do not match the jumps of W")
        return out
    for piece, (n, g) in zip(pieces, mu.graded):
        if g.dim != piece.dim:
            out.append(f"graded piece at weight {n} has wrong dimension")
            continue
        if g.W.jumps != (n,):
            out.append(f"graded piece at weight {n} is not concentrated in weight {n}")
            continue
        probs = mh.validate_mhs(g)
        if probs:
            out.append(f"graded piece at weight {n} is not a pure structure: "
                       + "; ".join(probs))
    return out


def check_triple(mu: Triple) -> Triple:
    problems = triple_problems(mu)
    if problems:
        raise NotAnMhsError(problems)
    return mu


def triple_of(m: MixedHodgeStructure) -> Triple:
    """The triple underlying a validated structure: keep W, split off Gr^W."""
    mh.check_valid(m)
    return Triple(m.dim, m.W, tuple(mh.gr_w(m)))


def tpoint_problems(mu: Triple, alpha: TPoint) -> List[str]:
    out = []
    pieces = mh.graded_pieces(mu.W)
    if [n for n, _ in alpha.sections] != [p.weight for p in pieces]:
        return ["section weights do not match the jumps of W"]
    for piece, (n, a) in zip(pieces, alpha.sections):
        if len(a) != mu.dim or (a and len(a[0]) != piece.dim):
            out.append(f"section at weight {n} has wrong shape")
            continue
        if la.mat_mul(piece.pi, a) != la.identity(QI, piece.dim):
            out.append(f"section at weight {n} does not split the projection")
        wn = mu.W.at(n).to_qi()
        if not wn.contains_subspace(la.image(QI, a, mu.dim)):
            out.append(f"section at weight {n} does not land in W_{n}")
    return out


def check_tpoint(mu: Triple, alpha: TPoint) -> TPoint:
    problems = tpoint_problems(mu, alpha)
    if problems:
        raise NotAnMhsError(problems)
    return alpha


# -- building structures from points ------------------------------------------

def build_mhs(mu: Triple, alpha: TPoint) -> MixedHodgeStructure:
    """Transport each graded Hodge filtration into the ambient space.
    mu must have passed check_triple and alpha is checked here, so the
    result is a mixed Hodge structure by construction, not validated."""
    return _build_mhs(mu, check_tpoint(mu, alpha))


def _build_mhs(mu: Triple, alpha: TPoint) -> MixedHodgeStructure:
    """build_mhs unchecked, for a point of mu by construction (_sample)."""
    f = mh._image_steps(QI, mu.dim, [(a, g.F) for (_, g), (_, a)
                                     in zip(mu.graded, alpha.sections)])
    return MixedHodgeStructure(mu.dim, mu.W, HodgeFiltration.of(mu.dim, f))


def spoint(mu: Triple, alpha: TPoint) -> SPoint:
    return SPoint(mu, build_mhs(mu, alpha).F)


def mhs_of_spoint(s: SPoint) -> MixedHodgeStructure:
    return MixedHodgeStructure(s.triple.dim, s.triple.W, s.F)


def matches_triple(mu: Triple, m: MixedHodgeStructure) -> bool:
    """Whether m has the weight filtration and associated graded of mu."""
    if m.dim != mu.dim or m.W != mu.W:
        return False
    return list(mh.gr_w(m)) == list(mu.graded)


def sections_from_mhs(mu: Triple, m: MixedHodgeStructure) -> TPoint:
    """The canonical point: the Deligne sections of m."""
    if not matches_triple(mu, m):
        raise NotAnMhsError(["structure is not associated to the triple"])
    return TPoint(mh.deligne_sections(m))


def total_section_matrix(alpha: TPoint) -> Matrix:
    """The map from graded block coordinates to the ambient space."""
    cols: List[Tuple] = []
    for _, a in alpha.sections:
        cols.extend(la.transpose(a))
    return la.transpose(tuple(cols))


def equal_in_S(mu: Triple, alpha: TPoint, beta: TPoint) -> bool:
    """Filtration criterion: the two transported filtrations coincide."""
    return build_mhs(mu, alpha).F == build_mhs(mu, beta).F


def equal_in_S_group(mu: Triple, alpha: TPoint, beta: TPoint) -> bool:
    """Group criterion: alpha^{-1} beta preserves the graded filtration."""
    a = total_section_matrix(alpha)
    b = total_section_matrix(beta)
    u = la.mat_mul(la.invert(QI, a), b)
    gm = mh.graded_mhs(mu.graded)
    for p, s in gm.F.steps:
        if not s.contains_subspace(la.apply_to_subspace(u, s)):
            return False
    return True


# -- dimension of the parametrizing space -------------------------------------

def lie_data(mu: Triple) -> LieData:
    """W_{-1}End of the graded structure, the rational part of the span of
    the vectors of weight p + q < 0 of End's frame (mh.frame_hom of its
    Deligne frame with itself), and F^0 W_{-1}End, those with p >= 0.
    Frame vectors are independent, so the rational part is read off
    their integer rows, with no echelon form of their span."""
    check_triple(mu)
    g = mh.deligne_frame(mh.graded_mhs(mu.graded))
    end = mh.frame_hom(g, g)
    w_m1 = [v for (p, q), v in zip(end.types, end.vectors) if p + q < 0]
    return LieData(la.rational_part_ints(len(end.vectors), la.int_rows(QI, w_m1)),
                   end.span(lambda p, q: p >= 0 and p + q < 0))


def dim_S(mu: Triple) -> int:
    data = lie_data(mu)
    return data.w_minus1_end.dim - data.f0_w_minus1_end.dim


# -- sampling -----------------------------------------------------------------

def _random_fraction(rng: random.Random, height: int, nonzero: bool) -> Fraction:
    num = rng.randint(1, height) if nonzero else rng.randint(-height, height)
    if nonzero and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, height))


def _sample(mu: Triple, rng: random.Random, height: int,
            imaginary: bool) -> TPoint:
    """A point of mu, which the caller has passed through check_triple;
    a point by construction, so _build_mhs takes it unchecked."""
    secs = []
    prev = Subspace.zero(Q, mu.dim)
    for piece in mh.graded_pieces(mu.W):
        base = la.to_qi_mat(piece.section)
        if prev.dim:
            incl = la.inclusion_map(prev)
            r = la.mat(QI, [[GaussRat(_random_fraction(rng, height, False),
                                      _random_fraction(rng, height, True)
                                      if imaginary else 0)
                             for _ in range(piece.dim)]
                            for _ in range(prev.dim)])
            base = la.mat_add(base, la.mat_mul(incl, r))
        secs.append((piece.weight, base))
        prev = mu.W.at(piece.weight)
    return TPoint(tuple(secs))


def sample_point(mu: Triple, seed, height: int) -> TPoint:
    """Deterministic sample with nonzero imaginary off-diagonal entries."""
    if height < 1:
        raise MhsError("height must be at least 1")
    return _sample(check_triple(mu), random.Random(str(seed)), height,
                   imaginary=True)


def sample_rational_point(mu: Triple, seed, height: int) -> TPoint:
    """Deterministic sample with all-rational off-diagonal entries."""
    if height < 1:
        raise MhsError("height must be at least 1")
    return _sample(check_triple(mu), random.Random(str(seed)), height,
                   imaginary=False)


# -- truncation ---------------------------------------------------------------

def zero_triple() -> Triple:
    return Triple(0, WeightFiltration(0, ()), ())


def truncate(mu: Triple, p: int) -> Tuple[Triple, Triple]:
    """The two truncated triples carried by W_p and by the quotient.

    Both keep the graded pieces of mu as they are, because the graded
    coordinates of W_p and of M/W_p are those of M: the change of
    coordinates pi_new . proj . section from Gr_n M to Gr_n of either side
    is the identity.
    - coords_map(W_p) sends the echelon basis of each W_n, n <= p, to an
      echelon basis with the same pivot order.
    - For v in W_n, n > p, the graded coordinates of proj(v) and of v are
      both its coefficients on the rows of W_n whose pivots are new at n,
      taken modulo W_{n-1}, which contains W_p.

    It reads only W, so pencil_from_json may truncate a triple unchecked.
    """
    wp = mu.W.at(p)
    if wp.is_zero():
        return zero_triple(), mu
    if wp.is_full():
        return mu, zero_triple()
    sel, proj = la.coords_map(wp), la.quotient_map(wp)
    low = Triple(wp.dim, WeightFiltration.of(wp.dim, {
        n: la.apply_to_subspace(sel, s) for n, s in mu.W.steps if n <= p}),
        tuple((n, g) for n, g in mu.graded if n <= p))
    kq = mu.dim - wp.dim
    high = Triple(kq, WeightFiltration.of(kq, {
        n: la.apply_to_subspace(proj, s) for n, s in mu.W.steps if n > p}),
        tuple((n, g) for n, g in mu.graded if n > p))
    return low, high


def truncate_point(mu: Triple, p: int, alpha: TPoint) -> Tuple[TPoint, TPoint]:
    """Restrict and project a section tuple to the truncated triples; in
    the graded coordinates they share with mu (see truncate), each section
    is just its image in W_p or M/W_p.  mu must have passed check_triple;
    alpha is checked here."""
    check_tpoint(mu, alpha)
    wp = mu.W.at(p)
    if wp.is_zero():
        return TPoint(()), alpha
    if wp.is_full():
        return alpha, TPoint(())
    sel, proj = la.coords_map(wp), la.quotient_map(wp)
    return (TPoint(tuple((n, la.mat_mul(sel, a))
                         for n, a in alpha.sections if n <= p)),
            TPoint(tuple((n, la.mat_mul(proj, a))
                         for n, a in alpha.sections if n > p)))


# -- fibers -------------------------------------------------------------------

def fiber_dim(mu: Triple, p: int, x: SPoint, y: SPoint) -> int:
    """Dimension of the space of points lying over a truncated pair, dim H
    - dim F^0 H for H = Hom(y, x): the number of pairs of a Hodge type
    (a, .) of a piece of mu above p and (c, .) of one at or below p with
    c < a, read off the Hodge numbers of mu's pieces, so it depends only
    on mu and p.  mu must have passed check_triple."""
    hodge = [(n, j, g.F.at(j).dim - g.F.at(j + 1).dim)
             for n, g in mu.graded for j in g.F.jumps]
    return sum(hx * hy for nx, c, hx in hodge if nx <= p
               for ny, a, hy in hodge if ny > p and c < a)


# -- pencils ------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Pencil:
    """psi(t) = psi0 + t * dpsi inside a fiber of truncation at p."""

    triple: Triple
    p: int
    x: SPoint
    y: SPoint
    psi0: Matrix
    dpsi: Matrix

    def problems(self) -> List[str]:
        """The gate of a pencil, before pencil_member.  The triple first;
        a point of a checked triple is an F that induces its graded
        pieces, which are pure."""
        out = triple_problems(self.triple)
        wp = self.triple.W.at(self.p)
        if out or wp.is_zero() or wp.is_full():
            return out or ["truncation index must split the weights"]
        for name, s, side in zip("xy", (self.x, self.y),
                                 truncate(self.triple, self.p)):
            if (s.triple != side or s.F.problems()
                    or not matches_triple(side, mhs_of_spoint(s))):
                out.append(f"{name} is not a point of its truncated triple")
        proj = la.quotient_map(wp)
        k = self.triple.dim - wp.dim
        if la.mat_mul(proj, self.psi0) != la.identity(QI, k):
            out.append("base is not a section of the projection")
        if la.mat_mul(proj, self.dpsi) != la.zeros(QI, k, k):
            out.append("direction does not take values in the weight subspace")
        if self.dpsi == la.zeros(QI, self.triple.dim, k):
            out.append("direction is zero")
        return out

    def check(self) -> "Pencil":
        problems = self.problems()
        if problems:
            raise NotAnMhsError(problems)
        return self

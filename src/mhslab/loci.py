"""Subobject lifting, derived structures, and Hodge loci along pencils.

A pencil is an affine line of gluing sections inside one fiber of the
truncation map; the locus of parameters where a fixed rational vector is
a weight-zero Hodge class in a derived structure (built from the family
member by duals, tensors, homs, weight subs and quotients) is computed
exactly along the pencil's unipotent orbit and cross-validated by exact
evaluation at the candidate points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import linalg as la
from . import mhs as mh
from .errors import LocusError, ParseError
from .field import Q, QI, GaussRat, one, parse_q, zero
from .linalg import Matrix, Subspace
from .mhs import MixedHodgeStructure
from .triples import Pencil


# -- subobject lifting --------------------------------------------------------

def can_lift(m: MixedHodgeStructure, a_tilde_q: Subspace) -> Optional[Subspace]:
    """Lift a rational subobject of the associated graded into m, if possible.

    a_tilde_q lives in graded block coordinates and must be a subobject of
    Gr^W M, tested on the graded frame (S_gr, T_gr) carried from the
    Deligne frame (S, T) of m.  The Deligne sections S . T_gr carry it
    onto the span of S . (T_gr . b) over its basis b.  The lift exists
    exactly when that image is defined over Q, that is, when its rational
    part has its dimension; it is then unique, and is that rational part."""
    frame = mh.deligne_frame(m)
    graded = mh.graded_frame(m.W, frame)
    mh.check_subobject(graded, a_tilde_q, "Gr^W M")
    s = la.transpose(frame.vectors)
    image = Subspace.span(QI, m.dim, [la.mat_vec(s, la.mat_vec(graded.duals, b))
                                      for b in a_tilde_q.basis])
    lift = la.rational_part(image)
    return lift if lift.dim == a_tilde_q.dim else None


# -- construction term language ----------------------------------------------

SELF = "SELF"


def _check_term(term) -> None:
    if term == SELF:
        return
    if not isinstance(term, (list, tuple)) or not term:
        raise ParseError(f"malformed construction term {term!r}")
    head = term[0]
    if head == "DUAL" and len(term) == 2:
        _check_term(term[1])
    elif head in ("TENSOR", "HOM") and len(term) == 3:
        _check_term(term[1])
        _check_term(term[2])
    elif head == "WSUB" and len(term) == 3 and type(term[1]) is int:
        _check_term(term[2])
    elif head == "QUOT" and len(term) == 3:
        if not (isinstance(term[1], (list, tuple)) and all(
                isinstance(row, (list, tuple)) and
                all(isinstance(x, str) for x in row) for row in term[1])):
            raise ParseError(f"QUOT rows must be lists of scalar strings, "
                             f"got {term[1]!r}")
        _check_term(term[2])
    else:
        raise ParseError(f"malformed construction term {term!r}")


def _quot_subspace(spec_rows, ambient: int) -> Subspace:
    if any(len(row) != ambient for row in spec_rows):
        raise ParseError(f"QUOT rows must have length {ambient}")
    return Subspace.span(Q, ambient,
                         [[parse_q(x) for x in row] for row in spec_rows])


def eval_construction(term, m: MixedHodgeStructure) -> MixedHodgeStructure:
    """Evaluate a construction term at a single structure, exactly."""
    return _checked_derive(term, m, ())[0]


def _checked_derive(term, m: MixedHodgeStructure, xs: Sequence[Matrix]
                    ) -> Tuple[MixedHodgeStructure, List[Matrix]]:
    """derive on a term that passes _check_term; a term nested past the
    interpreter's stack is an input error, as deep JSON is."""
    try:
        _check_term(term)
        return derive(term, m, xs)
    except RecursionError:
        raise ParseError("input is nested too deeply") from None


def derive(term, m: MixedHodgeStructure, xs: Sequence[Matrix]
           ) -> Tuple[MixedHodgeStructure, List[Matrix]]:
    """The derived structure of m and the endomorphism each x induces on it.

    Each x acts as a derivation: minus its transpose on a dual, kron(x, 1)
    + kron(1, x) on a tensor, and by restriction or passage to the
    quotient on weight subs and quotients.  A quotient needs every x to
    preserve the subspace.  Each action stays over the field of its x;
    with no xs this is the plain evaluation of the term.  Every action is
    a dense square matrix on the derived space, so this suits a few xs
    (the pencil direction of locus_on_pencil); unipotent.mt_lie_upper_bound
    reads the action of all of End off the Hodge classes instead.
    """
    if term == SELF:
        return m, list(xs)
    head = term[0]
    if head == "DUAL":
        d, ys = derive(term[1], m, xs)
        return mh.dual(d), [la.mat_scale(-1, la.transpose(y)) for y in ys]
    if head in ("TENSOR", "HOM"):  # Hom(A, B) is tensor(dual(A), B)
        a, yas = derive(["DUAL", term[1]] if head == "HOM" else term[1],
                        m, xs)
        b, ybs = derive(term[2], m, xs)
        ia, ib = la.identity(Q, a.dim), la.identity(Q, b.dim)
        return mh.tensor(a, b), [
            la.mat_add(la.kron_mat(ya, ib), la.kron_mat(ia, yb))
            for ya, yb in zip(yas, ybs)]
    if head == "WSUB":
        d, ys = derive(term[2], m, xs)
        wp = d.W.at(term[1])
        sel, incl = la.coords_map(wp), la.inclusion_map(wp)
        # sel . y first: a zero step has no sel rows, and the product of
        # no rows is its 0 x 0 action.
        return mh._restrict(d, wp), [la.mat_mul(la.mat_mul(sel, y), incl)
                                   for y in ys]
    if head == "QUOT":
        d, ys = derive(term[2], m, xs)
        a_q = _quot_subspace(term[1], d.dim)
        quo = mh.quotient_mhs(d, a_q)
        a_c = a_q.to_qi()
        if not all(a_c.contains(la.mat_vec(y, u))
                   for y in ys for u in a_q.basis):
            raise LocusError("the quotiented subspace is not preserved "
                             "along the pencil")
        # proj . y first, as for WSUB: a quotient by everything has no
        # proj rows.
        proj, section = la.split_quotient(a_q)
        return quo, [la.mat_mul(la.mat_mul(proj, y), section) for y in ys]
    raise ParseError(f"unknown construction head {head!r}")


# -- pencils ------------------------------------------------------------------

def pencil_member(pencil: Pencil, t: GaussRat) -> MixedHodgeStructure:
    """The member at t of a pencil that passed Pencil.check: F glues x.F
    under incl(W_p) and y.F under psi(t).  It is still validated at each
    t, although it is a structure by construction (see the README)."""
    mu = pencil.triple
    psi = la.mat_add(pencil.psi0, la.mat_scale(t, pencil.dpsi))
    incl = la.inclusion_map(mu.W.at(pencil.p))
    f = mh._image_steps(QI, mu.dim, [(incl, pencil.x.F), (psi, pencil.y.F)])
    return mh.check_valid(MixedHodgeStructure(
        mu.dim, mu.W, mh.HodgeFiltration.of(mu.dim, f)))


@dataclass(frozen=True, slots=True)
class LocusResult:
    """Where along the pencil a vector is a weight-zero Hodge class.

    Constraints are triples (a, b, c) for a*t + b*conj(t) + c = 0 over
    Q(i); kind is ALL exactly when no nontrivial constraint remains.
    locus_on_pencil gives at most one: (1, 0, c), or (0, 0, 1) when the
    locus is empty.
    """

    kind: str  # "ALL" or "AFFINE_SUBSET"
    constraints: Tuple[Tuple[GaussRat, GaussRat, GaussRat], ...]
    outside_w0: bool = False

    @property
    def is_all(self) -> bool:
        return self.kind == "ALL"

    def solution(self) -> Optional[GaussRat]:
        """The single solution, when the constraints pin one down."""
        for a, b, c in self.constraints:
            if a and not b:
                return -c / a
        return None


# -- the locus computation ----------------------------------------------------

_EMPTY = (zero(QI), zero(QI), one(QI))  # 0 = 1: no solution
# Results are immutable, so the answers that hold no scalar of their own
# are shared.
_ALL = LocusResult("ALL", ())
_NONE = LocusResult("AFFINE_SUBSET", (_EMPTY,))
_OUTSIDE_W0 = LocusResult("AFFINE_SUBSET", (_EMPTY,), outside_w0=True)


def _trim(p: List[GaussRat]) -> List[GaussRat]:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _poly_gcd(a: List[GaussRat], b: List[GaussRat]) -> List[GaussRat]:
    """Monic gcd over Q(i); coefficients lowest degree first, [] is zero."""
    a, b = _trim(a), _trim(b)
    while b:
        while len(a) >= len(b):
            c, s = a[-1] / b[-1], len(a) - len(b)
            a = _trim([x - c * b[i - s] if i >= s else x
                       for i, x in enumerate(a)])
        a, b = b, a
    return [x / a[-1] for x in a] if a else []


def _is_hodge_at(pencil: Pencil, v, construction, t: GaussRat) -> bool:
    d = eval_construction(construction, pencil_member(pencil, t))
    vq = tuple(Fraction(x) for x in v)
    if not d.W.at(0).contains(vq):
        return False
    return d.F.at(0).contains(tuple(GaussRat(x) for x in vq))


def locus_on_pencil(pencil: Pencil, v: Sequence, construction) -> LocusResult:
    """Hodge locus of a rational vector along the pencil.

    Returns one monic constraint t + c = 0, the unsatisfiable 1 = 0, or
    ALL when the vector is a Hodge class at every member.  The member at
    t is the base member moved by 1 + tX with X = dpsi . proj (X^2 = 0),
    so v is Hodge at t exactly when exp(-tY) v lies in F^0 of the derived
    base structure, Y being the action of X there.  The equations of that
    F^0 turn exp(-tY) v into polynomials in t, and the locus is the zero
    set of their gcd, for every t.  The answer is cross-validated by exact
    evaluation at the solution and at control points.
    """
    pencil.check()
    wp = pencil.triple.W.at(pencil.p)
    x = la.mat_mul(pencil.dpsi, la.quotient_map(wp))
    d, (y,) = _checked_derive(construction,
                              pencil_member(pencil, GaussRat(0)), [x])
    vq = tuple(Fraction(c) for c in v)
    if len(vq) != d.dim:
        raise LocusError("vector does not live in the derived space")
    if not d.W.at(0).contains(vq):
        return _OUTSIDE_W0
    # coeffs[k] is the coefficient of t^k in exp(-tY) v; Y is nilpotent.
    coeffs = []
    w = vc = tuple(GaussRat(c) for c in vq)
    while any(w):
        coeffs.append(w)
        w = tuple(c * Fraction(-1, len(coeffs)) for c in la.mat_vec(y, w))
    eqs = la.quotient_map(d.F.at(0))
    g: List[GaussRat] = []
    for poly in la.transpose(tuple(la.mat_vec(eqs, c) for c in coeffs)):
        g = _poly_gcd(g, poly)
    if len(g) > 2:
        raise LocusError("the locus is not cut out by one linear constraint")
    if not g:
        result = _ALL
    elif len(g) == 1:
        result = _NONE
    else:
        result = LocusResult("AFFINE_SUBSET", ((one(QI), zero(QI), g[0]),))
    _cross_validate(pencil, v, construction, result,
                    d.F.at(0).contains(vc))
    return result


def _cross_validate(pencil: Pencil, v, construction, result: LocusResult,
                    hodge_at_0: bool) -> None:
    """Confirm the answer by exact evaluation; hodge_at_0 is whether v is
    Hodge at the base member, read off the structure the walk built."""
    if result.is_all:
        if not (hodge_at_0 and all(_is_hodge_at(pencil, v, construction, t)
                                   for t in (GaussRat(1), GaussRat(0, 1)))):
            raise LocusError("locus computation disagrees with "
                             "exact evaluation on an ALL locus")
        return
    sol = result.solution()
    if sol is None:
        if hodge_at_0 or _is_hodge_at(pencil, v, construction, GaussRat(1)):
            raise LocusError("exact evaluation found a point on an empty "
                             "locus")
        return
    ok = all(a * sol + c == 0 for a, _, c in result.constraints)
    if ok != _is_hodge_at(pencil, v, construction, sol):
        raise LocusError("locus computation disagrees with "
                         "exact evaluation at the candidate point")
    off = sol + 1
    if _is_hodge_at(pencil, v, construction, off) and \
            any(a * off + c != 0 for a, _, c in result.constraints):
        raise LocusError("exact evaluation found a point the computed "
                         "locus misses")

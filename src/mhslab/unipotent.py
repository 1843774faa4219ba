"""Extension classes, splitting tests, and the unipotent radical.

For a structure M and a weight cut p, the extension of the quotient by
the subobject is measured by a class in Hom(M/W_pM, W_pM) tensored with
Q(i), well defined modulo F^0 and rational vectors.  When M is
graded-Tate (every graded piece a sum of copies of one Tate object), the
smallest subobject modulo which that class splits is computed exactly,
as the subobject generated by the imaginary part of the class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from . import linalg as la
from . import mhs as mh
from . import serialize as se
from . import triples as tr
from .errors import (DegenerateRangeError, MhsError, RegimeError,
                     ResourceGuardError)
from .field import Q, GaussRat
from .linalg import Matrix, Subspace
from .mhs import MixedHodgeStructure
from .triples import Triple


# -- the weight cut -----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class WeightCut:
    """M at one weight cut p: W_pM, the maps between M, W_pM and M/W_pM,
    and the Deligne frame of M, built once per (M, p).  The structures of
    the two sides and of Hom(M/W_pM, W_pM) are not formed: the class and
    the frame of Hom are read off the frame of M."""

    m: MixedHodgeStructure
    p: int
    wp: Subspace                  # W_pM
    proj: Matrix                  # over Q, M -> M/W_pM
    incl: Matrix                  # over Q, W_pM -> M
    section: Matrix               # over Q, a right inverse of proj
    frame: mh.DeligneFrame        # mh.deligne_frame(m)


def weight_cut(m: MixedHodgeStructure, p: int,
               frame: Optional[mh.DeligneFrame] = None) -> WeightCut:
    """The cut at p, with the Deligne frame of M (formed here when not
    given; a caller with several cuts of one M passes it to each)."""
    wp = _cut_step(m, p)
    proj, section = la.split_quotient(wp)
    return WeightCut(m, p, wp, proj, la.inclusion_map(wp), section,
                     frame or mh.deligne_frame(m))


def _cut_step(m: MixedHodgeStructure, p: int) -> Subspace:
    """W_pM, when it leaves something on both sides.  Every reader of a
    cut forms vectors or maps of Hom(M/W_pM, W_pM), so its dimension is
    held to the tensor guard."""
    wp = m.W.at(p)
    if wp.is_zero() or wp.is_full():
        raise DegenerateRangeError(
            f"weight cut {p} leaves nothing on one side")
    mh.check_guard(wp.dim * (m.dim - wp.dim))
    return wp


def _h_frame(cut: WeightCut) -> mh.DeligneFrame:
    """The Deligne frame of H, mh.frame_hom of the frames of the two
    sides, read off M's by functoriality: a frame vector b of M of weight
    at most p restricts to b[pivots] in W_pM, with dual row r_b . incl;
    one of weight above p, a, descends to proj . a in M/W_pM, with dual
    row r_a . section."""
    s_low, t_low = cut.frame.select(lambda p, q: p + q <= cut.p)
    s_high, t_high = cut.frame.select(lambda p, q: p + q > cut.p)
    low = mh.DeligneFrame(tuple(t for t in cut.frame.types if sum(t) <= cut.p),
                          la.transpose(tuple(s_low[c] for c in cut.wp.pivots)),
                          la.mat_mul(t_low, cut.incl))
    high = mh.DeligneFrame(tuple(t for t in cut.frame.types if sum(t) > cut.p),
                           la.transpose(la.mat_mul(cut.proj, s_high)),
                           la.mat_mul(t_high, cut.section))
    return mh.frame_hom(high, low)


# -- extension classes --------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ExtClassRep:
    """e = (rational section) - (Hodge section), in H coordinates over Q(i)."""

    e: Tuple[GaussRat, ...]


def _ext_class(cut: WeightCut) -> ExtClassRep:
    """P_{>p} . section, P_{>p} projecting onto the frame vectors of weight
    above p, is a Hodge section: it maps F^q(M/W_pM) into F^qM, since a
    lift of a vector of F^q(M/W_pM) into F^qM differs from the rational
    one by a vector of W_pM, which P_{>p} kills.  The rational section
    differs from it by S_{<=p} . (T_{<=p} . section), a map into W_pM."""
    s, t = cut.frame.select(lambda p, q: p + q <= cut.p)
    diff = la.mat_mul(tuple(s[c] for c in cut.wp.pivots),
                      la.mat_mul(t, cut.section))
    return ExtClassRep(mh.hom_vec(diff, cut.m.dim - cut.wp.dim, cut.wp.dim))


def ext_class_rep(m: MixedHodgeStructure, p: int,
                  rng: Optional[random.Random] = None) -> ExtClassRep:
    """A representative of the extension class at the weight cut p.

    With an rng, the rational section is shifted by a random rational map
    M/W_pM -> W_pM and the Hodge section by a random vector of F^0 H, read
    off H's frame as the span of its vectors of type (p, q) with p >= 0;
    the class modulo F^0 + rational is unchanged.
    """
    cut = weight_cut(m, p)
    e = _ext_class(cut).e
    if rng is not None:
        k, w = m.dim - cut.wp.dim, cut.wp.dim
        noise = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(k)] for _ in range(w)]
        e = [x + y for x, y in zip(e, mh.hom_vec(noise, k, w))]
        for v in _h_frame(cut).span(lambda p, q: p >= 0).basis:
            c = GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            e = [x - c * y for x, y in zip(e, v)]
    return ExtClassRep(tuple(e))


def _splits(f0: Subspace, a_q: Subspace, rep: ExtClassRep) -> bool:
    """Membership of the class in V + rational vectors, V = a_q (x) Q(i)
    + F^0 H.  As a Q-space V is spanned by b and i*b over a basis b of V,
    so e = v + r with r rational exactly when Im e lies in the Q-span of
    Im b and Re b, the rational hull of V."""
    v = la.add(a_q.to_qi(), f0)
    return la.rational_hull(f0.ambient_dim, v.basis).contains(
        tuple(x.im for x in rep.e))


def splits_mod(m: MixedHodgeStructure, p: int, a_q: Subspace,
               rep: Optional[ExtClassRep] = None) -> bool:
    """Whether the extension class at p dies modulo the subobject a_q.

    Both a_q and F^0 H are read off the frame of H = Hom(M/W_pM, W_pM),
    which comes from M's: a_q must underlie a subobject of H, so its
    scalar extension is stable under the projector of each frame type of
    H (else NotASubobjectError), and F^0 H is the span of the frame
    vectors of type (p, q) with p >= 0.  The test decides membership of
    the class in a_q (x) Q(i) + F^0 H + rational vectors; a rep given
    spares only the class.
    """
    cut = weight_cut(m, p)
    h = _h_frame(cut)
    mh.check_subobject(h, a_q, "Hom(M/W_pM, W_pM)")
    return _splits(h.span(lambda p, q: p >= 0), a_q, rep or _ext_class(cut))


# -- the graded-Tate regime ---------------------------------------------------

@dataclass(frozen=True, slots=True)
class UpResult:
    subspace: Subspace  # over Q, inside Hom(M/W_pM, W_pM)
    regime: str         # "TATE_EXACT"
    large: bool


def _check_graded_tate(frame: mh.DeligneFrame) -> mh.DeligneFrame:
    """The Deligne frame of M, unless M is not graded-Tate.  The I^{p,q}
    have the Hodge numbers of Gr^W M, so every Gr^W_n is a sum of copies
    of Q(-n/2) exactly when every frame vector has a type with p = q;
    otherwise this raises for the lowest weight p + q of another type."""
    off = [p + q for p, q in frame.types if p != q]
    if off:
        raise RegimeError(f"the graded piece of weight {min(off)} is not Tate "
                          f"(the structure must be graded-Tate)")
    return frame


def _u_p(cut: WeightCut) -> UpResult:
    """u_p of a graded-Tate M: H = Hom(M/W_pM, W_pM) has only negative
    weights, so F^0 H = 0 and the class e splits modulo a subobject B
    exactly when Im(e) lies in B.  u_p is the smallest such B,
    mh.generated_subobject of span(Im e) on the frame of H.  A span of 0
    (a rational class) or of all of H is a subobject already, so H's
    frame is built only for a span in between."""
    dim = cut.wp.dim * (cut.m.dim - cut.wp.dim)
    s = Subspace.span(Q, dim, [tuple(x.im for x in _ext_class(cut).e)])
    if not (s.is_zero() or s.is_full()):
        s = mh.generated_subobject(_h_frame(cut), s)
    return UpResult(s, "TATE_EXACT", s.is_full())


def u_p_tate(m: MixedHodgeStructure, p: int) -> UpResult:
    """The exact unipotent-radical block at the weight cut p of a
    graded-Tate M: the smallest subobject of Hom(M/W_pM, W_pM) modulo
    which the extension class splits, found as the subobject generated
    by the imaginary part of the class."""
    return _u_p(weight_cut(m, p, _check_graded_tate(mh.deligne_frame(m))))


def u_large_detail(m: MixedHodgeStructure) -> List[Tuple[int, UpResult]]:
    """u_p at every weight cut, lowest weight first, from one Deligne
    frame of m."""
    frame = _check_graded_tate(mh.deligne_frame(m))
    return [(p, _u_p(weight_cut(m, p, frame))) for p in m.W.jumps[:-1]]


def is_u_large(m: MixedHodgeStructure) -> bool:
    return all(res.large for _, res in u_large_detail(m))


# -- bounded-degree Lie-algebra upper bound -----------------------------------

def _image_rows(v: list, n: int, a: int, deg: int) -> List[list]:
    """The linear map x -> x.v for a class v of M^(x a) (x) (M^v)^(x deg-a),
    as the nonzero ones of its n^deg rows of n^2 columns in hom
    coordinates (column i*n + j is x[j][i]).  x acts on each primal slot
    as x and on each dual slot as -x^T; the coefficients are read off v
    by index arithmetic, so an integer v gives integer rows."""
    rows = []
    for idx in range(n ** deg):
        row = [0] * (n * n)
        for s in range(deg):
            stride = n ** (deg - 1 - s)
            k = idx // stride % n            # the index in slot s
            base = idx - k * stride
            for i in range(n):
                c = v[base + i * stride]     # v with slot s set to i
                if not c:
                    continue
                if s < a:
                    row[i * n + k] += c      # coefficient of x[k][i]
                else:
                    row[k * n + i] -= c      # coefficient of x[i][k]
        if any(row):
            rows.append(row)
    return rows


def mt_lie_upper_bound(m: MixedHodgeStructure, d: int) -> Subspace:
    """Endomorphisms annihilating all weight-zero Hodge classes in tensor
    powers of degree at most d (primal and dual slots mixed).

    An upper bound for the Lie algebra acting on the structure: shrinks
    as d grows, and is closed under the commutator bracket.  Each power
    contributes only its classes (mhs.power_hodge_classes, from W_0 and
    F^0 alone) and the image x.v of each class v, read off v slot by
    slot; no tensor structure or derivation matrix is built.  Each class
    is scaled to a primitive integer row, so the images are integer rows
    and the bound is the annihilator of their span_ints.  M^v and the
    integer bases every power is formed from are built once, after the
    guard.
    """
    if d < 1:
        raise MhsError("tensor degree must be at least 1")
    n, limit = m.dim, mh.guard_limit()
    if n == 0:
        return Subspace.zero(Q, 0)
    # Each degree contributes deg + 1 powers of dimension n^deg, and each
    # class of a power is read slot by slot, deg slots.  The running total
    # of (deg + 1) * deg * n^deg is checked degree by degree, so that a
    # refusal comes before any large power is formed, even as an integer.
    total = 0
    for deg in range(1, d + 1):
        total += (deg + 1) * deg * n ** deg
        if total > limit:
            raise ResourceGuardError(
                f"tensor powers of degree at most {deg} have total size "
                f"{total} (dimension times degree), above the ceiling {limit} "
                f"(set {mh.GUARD_ENV} to raise it)")
    bases, constraint_rows = mh._power_bases(m), []
    for deg in range(1, d + 1):
        for a in range(deg + 1):
            # a factors M, then deg - a factors M^v.
            classes = mh._power_classes(n ** deg, bases, a, deg - a)
            for v in la.int_rows(Q, classes.basis):
                constraint_rows += _image_rows(v, n, a, deg)
    return la.annihilator(Subspace.span_ints(Q, n * n, constraint_rows))


def end_subspace_is_bracket_closed(s: Subspace, n: int) -> bool:
    """Whether a subspace of End (in hom coordinates) is a Lie subalgebra."""
    mats = [mh.hom_mat(row, n, n) for row in s.basis]
    for x in mats:
        for y in mats:
            bracket = la.mat_add(la.mat_mul(x, y),
                                 la.mat_scale(Fraction(-1), la.mat_mul(y, x)))
            if not s.contains(mh.hom_vec(bracket, n, n)):
                return False
    return True


# -- the genericity experiment ------------------------------------------------

def genericity_experiment(mu: Triple, n_samples: int, seed,
                          height: int) -> dict:
    """Sample the family and measure how often the radical is large.

    Adds three all-rational control points, which are expected to be
    degenerate; the report is a plain JSON-ready dictionary and is a
    pure function of (mu, n_samples, seed, height).  The triple is
    checked here; each member is built from the sections _sample draws,
    which are a point of mu by construction, so no point is checked.
    The regime is checked on each member's Deligne frame by
    u_large_detail: the frame types are the Hodge types of mu's pieces,
    so a triple that is not graded-Tate raises at the first member, a
    control when n_samples is 0.
    """
    tr.check_triple(mu)
    if n_samples < 0:
        raise MhsError("the number of samples must be at least 0")
    if height < 1:
        raise MhsError("height must be at least 1")
    cuts = mu.W.jumps[:-1]
    n_large_per_p = {p: 0 for p in cuts}
    all_large = 0
    for i in range(n_samples):
        alpha = tr._sample(mu, random.Random(f"{seed}:{i}"), height,
                           imaginary=True)
        m = tr._build_mhs(mu, alpha)
        detail = u_large_detail(m)
        for p, res in detail:
            if res.large:
                n_large_per_p[p] += 1
        if all(res.large for _, res in detail):
            all_large += 1
    degenerate = []
    for j in range(3):
        alpha = tr._sample(mu, random.Random(f"{seed}:deg:{j}"), height,
                           imaginary=False)
        m = tr._build_mhs(mu, alpha)
        detail = u_large_detail(m)
        degenerate.append({
            "params": se.tpoint_to_json(alpha)["sections"],
            "u_p_dims": {str(p): res.subspace.dim for p, res in detail},
            "failing_p": [p for p, res in detail if not res.large],
        })
    return {
        "triple": se.triple_to_json(mu),
        "seed": str(seed),
        "height": height,
        "n_samples": n_samples,
        "per_p": [{"p": p, "n_large": n_large_per_p[p]} for p in cuts],
        "all_large_count": all_large,
        "degenerate": degenerate,
    }

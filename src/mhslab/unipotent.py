"""Extension classes, splitting tests, and the unipotent radical.

For a structure M and a weight cut p, the extension of the quotient by
the subobject is measured by a class in Hom(M/W_pM, W_pM) tensored with
Q(i), well defined modulo F^0 and rational vectors.  The smallest
subobject modulo which that class splits is computed exactly when every
graded piece is a one-dimensional Tate object with pairwise-distinct
weight gaps; outside that regime only the checker is offered.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg as la
from . import loci as lo
from . import mhs as mh
from . import serialize as se
from . import triples as tr
from .errors import (DegenerateRangeError, MhsError, RegimeError,
                     ResourceGuardError)
from .field import Q, QI, GaussRat, as_scalar
from .linalg import Matrix, Subspace
from .mhs import MixedHodgeStructure
from .triples import Triple

GUARD_ENV = "MHSLAB_TENSOR_GUARD"
DEFAULT_GUARD = 10 ** 4


# -- the weight cut -----------------------------------------------------------

@dataclass(frozen=True)
class WeightCut:
    """M at one weight cut p: W_pM, the structures on both sides, the maps
    between them and h = Hom(M/W_pM, W_pM), built once per (M, p)."""

    m: MixedHodgeStructure
    wp: Subspace                  # W_pM
    sub: MixedHodgeStructure      # on W_pM
    quo: MixedHodgeStructure      # on M/W_pM
    proj: Matrix                  # over Q, M -> M/W_pM
    incl: Matrix                  # over Q, W_pM -> M
    section: Matrix               # over Q, a right inverse of proj
    h: MixedHodgeStructure


def weight_cut(m: MixedHodgeStructure, p: int) -> WeightCut:
    wp = m.W.at(p)
    if wp.is_zero() or wp.is_full():
        raise DegenerateRangeError(
            f"weight cut {p} leaves nothing on one side")
    sub = mh.sub_mhs(m, wp)
    quo = mh._push_forward(m, wp)  # sub_mhs has checked the subobject
    proj = la.quotient_map(wp)
    section = la.solve_matrix(Q, proj, la.identity(Q, quo.dim))
    return WeightCut(m, wp, sub, quo, proj, la.inclusion_map(wp),
                     section, mh.hom(quo, sub))


# -- the dagger construction --------------------------------------------------

@dataclass(frozen=True)
class HomDagger:
    """Maps M/W_pM -> M whose projection back down is a scalar.

    Coordinates: the first r = dim Hom(M/W_pM, W_pM) coordinates are the
    kernel of lambda (in hom coordinates of that small space); the last
    coordinate is the coefficient of a fixed rational section, so lambda
    is simply the last coordinate.
    """

    mhs: MixedHodgeStructure
    lam: Tuple[Fraction, ...]     # rational functional, = last coordinate
    inclusion: Matrix             # over Q: small hom coords -> dagger coords

    @property
    def r(self) -> int:
        return self.mhs.dim - 1


def hom_dagger(m: MixedHodgeStructure, p: int) -> HomDagger:
    cut = weight_cut(m, p)
    k, w = cut.quo.dim, cut.wp.dim
    big = mh.hom(cut.quo, m)
    # Basis of the dagger space: the kernel block, then one section.
    kernel_emb = la.kron_mat(la.identity(Q, k), cut.incl)  # k*m.dim x k*w
    dagger_rows = (list(la.transpose(kernel_emb))
                   + [mh.hom_vec(cut.section, k, m.dim)])
    basis = la.mat(Q, dagger_rows)        # (r+1) x k*m.dim, rows = coords
    span = Subspace.span(Q, k * m.dim, dagger_rows)
    cols, spans = la.transpose(basis), {Q: span, QI: span.to_qi()}

    def coords(step: Subspace) -> Matrix:
        """Dagger coordinates of a basis of the step inside the span."""
        inside = la.intersect(step, spans[step.field]).basis
        return la.transpose(la.solve_matrix(step.field, cols,
                                            la.transpose(inside)))

    r = k * w
    dag = mh.make_mhs(
        r + 1,
        {n: Subspace.span(Q, r + 1, coords(s)) for n, s in big.W.steps},
        {q: Subspace.span(QI, r + 1, coords(s)) for q, s in big.F.steps})
    mh.check_valid(dag)
    lam = tuple(Fraction(1) if i == r else Fraction(0) for i in range(r + 1))
    inclusion = la.mat(Q, [[1 if i == j else 0 for j in range(r)]
                           for i in range(r + 1)])
    return HomDagger(dag, lam, inclusion)


# -- extension classes --------------------------------------------------------

@dataclass(frozen=True)
class ExtClassRep:
    """e = f_rational - f_hodge, in small hom coordinates over Q(i)."""

    e: Tuple[GaussRat, ...]
    f_rational: Tuple
    f_hodge: Tuple


def _f0_section_solutions(cut: WeightCut):
    """Particular + homogeneous solutions of: vec in F^0 Hom(M/W_p, M),
    projection of the map is the identity."""
    k = cut.quo.dim
    f0 = mh.hom(cut.quo, cut.m).F.at(0)
    gens = la.transpose(f0.basis)                 # columns over QI
    # Row (i, j) of the system is entry (j, i) of proj . gen, in the order
    # of hom coordinates, so its right-hand side is the identity there.
    sys = la.mat_mul(la.kron_mat(la.identity(QI, k), la.to_qi_mat(cut.proj)),
                     gens)
    rhs = mh.hom_vec(la.identity(QI, k), k, k)
    part = la.solve(QI, sys, rhs)
    if part is None:
        raise MhsError("no Hodge-filtration section exists; "
                       "the input is not a valid structure")
    hom_kernel = la.kernel(QI, sys, f0.dim)
    return gens, part, hom_kernel


def _ext_class(cut: WeightCut,
               rng: Optional[random.Random] = None) -> ExtClassRep:
    k, w, n = cut.quo.dim, cut.wp.dim, cut.m.dim
    f0 = cut.section
    if rng is not None:
        noise = la.mat(Q, [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                            for _ in range(k)] for _ in range(w)])
        f0 = la.mat_add(f0, la.mat_mul(cut.incl, noise))
    f_rational = tuple(GaussRat(x) for x in mh.hom_vec(f0, k, n))
    gens, part, hom_kernel = _f0_section_solutions(cut)
    coeffs = list(part)
    if rng is not None and hom_kernel.dim:
        for kv in hom_kernel.basis:
            c = GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            coeffs = [x + c * y for x, y in zip(coeffs, kv)]
    f_hodge = tuple(sum((c * gens[t][j] for j, c in enumerate(coeffs)),
                        GaussRat(0)) for t in range(k * n))
    diff = tuple(x - y for x, y in zip(f_rational, f_hodge))
    # Pull the difference back to Hom(M/W_p, W_p) coordinates.
    a = mh.hom_mat(diff, k, n)
    b = la.solve_matrix(QI, la.to_qi_mat(cut.incl), a)
    if b is None:
        raise MhsError("extension difference does not land in the subobject")
    e = tuple(mh.hom_vec(b, k, w))
    return ExtClassRep(e, f_rational, f_hodge)


def ext_class_rep(m: MixedHodgeStructure, p: int,
                  rng: Optional[random.Random] = None) -> ExtClassRep:
    """A representative of the extension class at the weight cut p.

    With an rng, both sections are shifted by random admissible vectors;
    the class modulo F^0 + rational is unchanged.
    """
    return _ext_class(weight_cut(m, p), rng)


def _in_mixed_span(e: Sequence, qi_gens: Sequence, q_gens: Sequence) -> bool:
    """Decide e in span_{Q(i)}(qi_gens) + span_Q(q_gens) exactly.

    Restricting Q(i)-scalars to Q doubles the generators; real and
    imaginary coordinates are split and the membership becomes a plain
    rational solvability question.
    """
    def realify(v):
        vals = [as_scalar(QI, x) for x in v]
        return tuple(x.re for x in vals) + tuple(x.im for x in vals)
    cols = []
    for g in qi_gens:
        cols.append(realify(g))
        cols.append(realify(tuple(GaussRat(0, 1) * as_scalar(QI, x)
                                  for x in g)))
    for g in q_gens:
        cols.append(realify(g))
    target = realify(e)
    if not cols:
        return all(x == 0 for x in target)
    return la.solve(Q, la.transpose(la.mat(Q, cols)), target) is not None


def _splits(cut: WeightCut, a_q: Subspace, rep: ExtClassRep) -> bool:
    """Membership of the class in a_q (x) Q(i) + F^0 h + rational vectors."""
    h = cut.h
    qi_gens = [tuple(GaussRat(x) for x in row) for row in a_q.basis]
    qi_gens += list(h.F.at(0).basis)
    return _in_mixed_span(rep.e, qi_gens, list(la.identity(Q, h.dim)))


def splits_mod(m: MixedHodgeStructure, p: int, a_q: Subspace,
               rep: Optional[ExtClassRep] = None) -> bool:
    """Whether the extension class at p dies modulo the subobject a_q.

    a_q must underlie a subobject of Hom(M/W_pM, W_pM); the test decides
    membership of the class in a_q (x) Q(i) + F^0 + rational vectors.
    """
    cut = weight_cut(m, p)
    mh.sub_mhs(cut.h, a_q)  # raises NotASubobjectError when not a subobject
    return _splits(cut, a_q, rep if rep is not None else _ext_class(cut))


def total_ext_class_rep(m: MixedHodgeStructure) -> Tuple[GaussRat, ...]:
    """The sum of all per-cut classes, pushed into End coordinates."""
    if len(m.W.jumps) < 2:
        raise DegenerateRangeError("structure has a single weight")
    total = tuple(GaussRat(0) for _ in range(m.dim * m.dim))
    for p in m.W.jumps[:-1]:
        cut = weight_cut(m, p)
        b = mh.hom_mat(_ext_class(cut).e, cut.quo.dim, cut.wp.dim)
        end = la.mat_mul(la.to_qi_mat(cut.incl),
                         la.mat_mul(b, la.to_qi_mat(cut.proj)))
        total = tuple(x + y for x, y in
                      zip(total, mh.hom_vec(end, m.dim, m.dim)))
    return total


def total_splits_mod(m: MixedHodgeStructure, a_q: Subspace) -> bool:
    """Splitting test for the total class, inside W_{-1}End coordinates."""
    end = mh.hom(m, m)
    w_m1 = end.W.at(-1)
    if not w_m1.contains_subspace(a_q):
        raise MhsError("candidate is not inside the weight -1 part of End")
    mh.sub_mhs(end, a_q)
    e = total_ext_class_rep(m)
    qi_gens = [tuple(GaussRat(x) for x in row) for row in a_q.basis]
    qi_gens += list(la.intersect(end.F.at(0), w_m1.to_qi()).basis)
    q_gens = list(w_m1.basis)
    return _in_mixed_span(e, qi_gens, q_gens)


# -- the rank-one Tate regime -------------------------------------------------

@dataclass(frozen=True)
class UpResult:
    subspace: Subspace  # over Q, inside Hom(M/W_pM, W_pM)
    regime: str         # "TATE_EXACT"
    large: bool


def _regime_weights(w: mh.WeightFiltration) -> List[int]:
    """The weights of a rank-one graded-Tate object with distinct gaps."""
    pieces = mh.graded_pieces(w)
    if any(piece.dim != 1 for piece in pieces):
        raise RegimeError("graded pieces must all be one-dimensional "
                          "(checker only: use splits_mod with candidates)")
    weights = [piece.weight for piece in pieces]
    if any(n % 2 for n in weights):
        raise RegimeError("one-dimensional pieces of odd weight are not "
                          "Tate objects")
    gaps = [b - a for a, b in combinations(weights, 2)]
    if len(set(gaps)) != len(gaps):
        raise RegimeError("weight gaps must be pairwise distinct "
                          "(checker only: use splits_mod with candidates)")
    return weights


def u_p_tate(m: MixedHodgeStructure, p: int) -> UpResult:
    """The exact unipotent-radical block at the weight cut p.

    The subobjects of H = Hom(M/W_pM, W_pM) inject into subsets of its
    rank-one graded blocks (weights are pairwise distinct), each subset
    lifting uniquely if at all; the result is the smallest liftable
    subobject modulo which the extension class splits.  Every candidate
    is lifted through one inverse Deligne splitting of H.
    """
    _regime_weights(m.W)
    cut = weight_cut(m, p)
    h = cut.h
    rep = _ext_class(cut)
    gh = mh.graded_mhs(h)
    alpha = la.invert(QI, mh.deligne_splitting(h))
    pieces = mh.graded_pieces(h.W)
    r = h.dim
    for size in range(r + 1):
        for subset in combinations(range(len(pieces)), size):
            rows = []
            for idx in subset:
                emb = mh.graded_embedding(pieces[idx], r)
                rows.extend(la.transpose(emb))
            a_tilde = Subspace.span(Q, r, rows)
            a_q = lo.lift_graded(h, gh, alpha, a_tilde)
            if a_q is not None and _splits(cut, a_q, rep):
                return UpResult(a_q, "TATE_EXACT", a_q.is_full())
    raise AssertionError("the full space always lifts and splits")


def u_large_detail(m: MixedHodgeStructure) -> List[Tuple[int, UpResult]]:
    """u_p at every weight cut, lowest weight first."""
    _regime_weights(m.W)
    return [(p, u_p_tate(m, p)) for p in m.W.jumps[:-1]]


def is_u_large(m: MixedHodgeStructure) -> bool:
    return all(res.large for _, res in u_large_detail(m))


# -- bounded-degree Lie-algebra upper bound -----------------------------------

def _guard_limit() -> int:
    raw = os.environ.get(GUARD_ENV)
    if raw is None:
        return DEFAULT_GUARD
    try:
        return int(raw)
    except ValueError:
        raise ResourceGuardError(f"{GUARD_ENV} must be an integer, got {raw!r}")


def mt_lie_upper_bound(m: MixedHodgeStructure, d: int) -> Subspace:
    """Endomorphisms annihilating all weight-zero Hodge classes in tensor
    powers of degree at most d (primal and dual slots mixed).

    An upper bound for the Lie algebra acting on the structure: shrinks
    as d grows, and is closed under the commutator bracket.
    """
    if d < 1:
        raise MhsError("tensor degree must be at least 1")
    limit = _guard_limit()
    n = m.dim
    if n == 0:
        return Subspace.zero(Q, 0)
    constraint_rows: List[Tuple] = []
    # Ordered to match hom coordinates: slot i*n+j is the (j, i) entry.
    basis_maps = [mh.hom_mat(tuple(1 if t == s else 0
                                   for t in range(n * n)), n, n)
                  for s in range(n * n)]
    for deg in range(1, d + 1):
        if n ** deg > limit:
            raise ResourceGuardError(
                f"tensor space of dimension {n ** deg} exceeds the "
                f"ceiling {limit} (set {GUARD_ENV} to raise it)")
        for a in range(deg + 1):
            # a factors M, then deg - a factors M^v, left-associated.
            term = reduce(lambda u, f: ["TENSOR", u, f],
                          [lo.SELF] * a + [["DUAL", lo.SELF]] * (deg - a))
            t, actions = lo.derive(term, m, basis_maps)
            for v in mh.hodge_classes(t).basis:
                constraint_rows.extend(
                    zip(*(la.mat_vec(act, v) for act in actions)))
            del t, actions  # not alive while the next power is built
    if not constraint_rows:
        return Subspace.full(Q, n * n)
    return la.kernel(Q, la.mat(Q, constraint_rows), n * n)


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
    pure function of (mu, n_samples, seed, height).
    """
    tr.check_triple(mu)
    _regime_weights(mu.W)
    cuts = mu.W.jumps[:-1]
    n_large_per_p = {p: 0 for p in cuts}
    all_large = 0
    for i in range(n_samples):
        alpha = tr.sample_point(mu, f"{seed}:{i}", height)
        m = tr.build_mhs(mu, alpha)
        detail = u_large_detail(m)
        for p, res in detail:
            if res.large:
                n_large_per_p[p] += 1
        if all(res.large for _, res in detail):
            all_large += 1
    degenerate = []
    for j in range(3):
        alpha = tr.sample_rational_point(mu, f"{seed}:deg:{j}", height)
        m = tr.build_mhs(mu, alpha)
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

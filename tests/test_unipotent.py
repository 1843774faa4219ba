"""Extension classes, unipotent-radical blocks, Lie-algebra bounds."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Sequence

import pytest
import helpers
from helpers import (checked_hom, graded_offsets, hodge_section_class,
                     oracle_structures, random_mhs, random_pure_piece,
                     tate_triple)

from mhslab import corpus
from mhslab import linalg as la
from mhslab import loci as lo
from mhslab import mhs as mh
from mhslab import triples as tr
from mhslab import unipotent as un
from mhslab.errors import (DegenerateRangeError, MhsError,
                           NotASubobjectError, RegimeError, ResourceGuardError)
from mhslab.field import Q, QI, GaussRat, I, as_scalar
from mhslab.linalg import Matrix, Subspace

HALF = GaussRat(Fraction(1, 2))
Z_VALUES = [GaussRat(0), HALF, GaussRat(Fraction(2, 3)), GaussRat(3),
            I, GaussRat(1, 1), GaussRat(Fraction(1, 2), Fraction(1, 3))]


def tate3_mhs(seed="gen", rational=False, height=10):
    mu = corpus.tate3_triple()
    maker = tr.sample_rational_point if rational else tr.sample_point
    return tr.build_mhs(mu, maker(mu, seed, height))


def partly_rational_mhs(seed, rational_weight, height=4):
    """A three-step member whose section at one weight is rational and
    whose other sections are generic."""
    mu = corpus.tate3_triple()
    generic = tr.sample_point(mu, seed, height)
    rational = tr.sample_rational_point(mu, seed, height)
    return tr.build_mhs(mu, tr.TPoint(tuple(
        r if r[0] == rational_weight else g
        for g, r in zip(generic.sections, rational.sections))))


PARTLY_RATIONAL = [partly_rational_mhs("pr", -2), partly_rational_mhs("pr", 0)]
EQUAL_GAPS = tate_triple((-4, -2, 0))


# -- weight cuts -----------------------------------------------------------------

def test_degenerate_cut_rejected():
    m = corpus.kummer_mhs(I)
    entry_points = [un.weight_cut, un.ext_class_rep,
                    lambda m, p: un.splits_mod(m, p, Subspace.zero(Q, 1)),
                    un.u_p_tate]
    for p in [-4, 0, 5]:
        for fn in entry_points:
            with pytest.raises(DegenerateRangeError):
                fn(m, p)


# -- extension classes ------------------------------------------------------------

def test_kummer_class_value():
    # For the Kummer structure the single class is -z in the 1-dim hom space.
    for z in [I, HALF, GaussRat(1, 1)]:
        rep = un.ext_class_rep(corpus.kummer_mhs(z), -2)
        assert len(rep.e) == 1
        assert (rep.e[0] + z).is_rational()


@pytest.mark.parametrize("z", Z_VALUES)
def test_splits_mod_zero_is_rationality(z):
    m = corpus.kummer_mhs(z)
    zero = Subspace.zero(Q, 1)
    assert un.splits_mod(m, -2, zero) == z.is_rational()
    # Modulo the full hom space every class dies.
    assert un.splits_mod(m, -2, Subspace.full(Q, 1))


def test_splits_mod_choice_independence():
    for z in [HALF, I, GaussRat(Fraction(1, 2), Fraction(1, 3))]:
        m = corpus.kummer_mhs(z)
        zero = Subspace.zero(Q, 1)
        expected = un.splits_mod(m, -2, zero)
        for k in range(20):
            rep = un.ext_class_rep(m, -2, random.Random(f"choice:{k}"))
            assert un.splits_mod(m, -2, zero, rep) == expected


def test_splits_mod_monotone_in_the_subobject():
    m = tate3_mhs("mono")
    for p in (-6, -2):
        h_dim = (m.dim - m.W.at(p).dim) * m.W.at(p).dim
        if un.splits_mod(m, p, Subspace.zero(Q, h_dim)):
            assert un.splits_mod(m, p, Subspace.full(Q, h_dim))


def _outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except MhsError as exc:
        return type(exc), str(exc)


def _kind(outcome):
    """A boolean outcome, or the type of what was raised."""
    return outcome if isinstance(outcome, bool) else outcome[0]


def test_splits_mod_with_a_rep_spares_only_the_class(monkeypatch):
    """splits_mod reads its subobject test and F^0 H off H's frame, which
    comes from M's, so it bigrades M once per call that gets past the
    cut, with a rep or without; a rep spares the class.  Every outcome,
    errors included, is the one without a rep, and of the same kind as
    by the sub_mhs route."""
    m = tate3_mhs("rep")
    cases = [(p, a_q, un.ext_class_rep(m, p))
             for p in (-6, -2)
             for a_q in (Subspace.zero(Q, 2), Subspace.full(Q, 2),
                         Subspace.span(Q, 2, [(1, 1)]))]
    cases += [(p, Subspace.zero(Q, 1), cases[0][2]) for p in (-8, 0)]

    def outcomes(fn, with_rep):
        out = [_outcome(fn, m, p, a_q, r if with_rep else None)
               for p, a_q, r in cases]
        monkeypatch.setenv(mh.GUARD_ENV, "1")
        out += [_outcome(fn, m, -2, a_q, r if with_rep else None)
                for _, a_q, r in cases[:3]]
        monkeypatch.delenv(mh.GUARD_ENV)
        return out
    expected = outcomes(un.splits_mod, False)
    assert {_kind(x) for x in expected} == {
        True, False, NotASubobjectError, DegenerateRangeError,
        ResourceGuardError}
    assert ([_kind(x) for x in outcomes(helpers.sub_mhs_splits_mod, False)]
            == [_kind(x) for x in expected])
    bigradings, classes = [], []
    bigrading, ext_class = mh.deligne_bigrading, un._ext_class
    monkeypatch.setattr(mh, "deligne_bigrading",
                        lambda s: bigradings.append(s) or bigrading(s))
    monkeypatch.setattr(un, "_ext_class",
                        lambda cut: classes.append(cut) or ext_class(cut))
    assert outcomes(un.splits_mod, True) == expected
    assert len(bigradings) == 6 and not classes


# The splitting test by restriction of scalars on every generator, kept
# as the oracle for un._splits, which reads imaginary parts only.

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


def mixed_span_splits(h, a_q, rep):
    qi_gens = [tuple(GaussRat(x) for x in row) for row in a_q.basis]
    qi_gens += list(h.F.at(0).basis)
    return _in_mixed_span(rep.e, qi_gens, list(la.identity(Q, h.dim)))


def _rational_candidates(dim, rng):
    """Zero, everything, each coordinate line and two random subspaces."""
    unit = la.identity(Q, dim)
    yield Subspace.zero(Q, dim)
    yield Subspace.full(Q, dim)
    for row in unit:
        yield Subspace.span(Q, dim, [row])
    for k in (1, dim - 1):
        yield Subspace.span(Q, dim, [[Fraction(rng.randint(-3, 3),
                                               rng.randint(1, 3))
                                      for _ in range(dim)] for _ in range(k)])


def test_splits_matches_the_mixed_span_oracle():
    structures = ([corpus.kummer_mhs(z) for z in Z_VALUES]
                  + [corpus.two_weight_mhs()]
                  + [random_mhs(s) for s in range(6)])
    outcomes, f0_dims = set(), []
    for i, cut in enumerate(_cuts(structures)):
        rng = random.Random(f"splits:{i}")
        h = checked_hom(cut)
        f0 = un._h_frame(cut).span(lambda p, q: p >= 0)
        f0_dims.append(f0.dim)
        reps = [un._ext_class(cut)] + [
            un.ext_class_rep(cut.m, cut.p, random.Random(f"redraw:{i}:{k}"))
            for k in range(2)]
        for a_q in _rational_candidates(h.dim, rng):
            for rep in reps:
                got = un._splits(f0, a_q, rep)
                assert got == mixed_span_splits(h, a_q, rep)
                outcomes.add(got)
    assert outcomes == {True, False} and max(f0_dims) > 0


def solved_ext_class(cut, rng=None):
    """Reference for the class: the Hodge section solved as a vector of
    F^0 Hom(M/W_pM, M) whose projection is the identity, shifted with an
    rng by the kernel of that system (which is F^0 h)."""
    w, n = cut.wp.dim, cut.m.dim
    k = n - w
    f0 = cut.section
    if rng is not None:
        noise = la.mat(Q, [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                            for _ in range(k)] for _ in range(w)])
        f0 = la.mat_add(f0, la.mat_mul(cut.incl, noise))
    f_rational = tuple(GaussRat(x) for x in mh.hom_vec(f0, k, n))
    f0_hom = mh.hom(mh.quotient_mhs(cut.m, cut.wp), cut.m).F.at(0)
    gens = la.transpose(f0_hom.basis)
    system = la.mat_mul(la.kron_mat(la.identity(QI, k),
                                    la.to_qi_mat(cut.proj)), gens)
    coeffs = list(la.solve(QI, system, mh.hom_vec(la.identity(QI, k), k, k)))
    if rng is not None:
        for kv in la.kernel(QI, system, f0_hom.dim).basis:
            c = GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            coeffs = [x + c * y for x, y in zip(coeffs, kv)]
    f_hodge = tuple(sum((c * gens[t][j] for j, c in enumerate(coeffs)),
                        GaussRat(0)) for t in range(k * n))
    diff = tuple(x - y for x, y in zip(f_rational, f_hodge))
    b = la.solve_matrix(QI, la.to_qi_mat(cut.incl), mh.hom_mat(diff, k, n))
    return tuple(mh.hom_vec(b, k, w))


def _cuts(structures):
    for m in structures:
        for p in m.W.jumps[:-1]:
            yield un.weight_cut(m, p)


def test_ext_class_is_the_solved_one_on_graded_tate_members():
    four = tate_triple((-14, -6, -2, 0))
    members = ([corpus.kummer_mhs(z) for z in Z_VALUES]
               + [tate3_mhs(s, height=4) for s in ("o1", "o2")]
               + [tate3_mhs("o3", rational=True)] + PARTLY_RATIONAL
               + [tr.build_mhs(EQUAL_GAPS, tr.sample_point(EQUAL_GAPS, "o", 5)),
                  tr.build_mhs(four, tr.sample_point(four, "o", 4))])
    for i, cut in enumerate(_cuts(members)):
        assert un._ext_class(cut).e == solved_ext_class(cut)
        assert (un.ext_class_rep(cut.m, cut.p, random.Random(i)).e
                == solved_ext_class(cut, random.Random(i)))


def test_ext_class_equals_the_solved_one_modulo_f0_and_rationals():
    structures = [corpus.two_weight_mhs()] + [random_mhs(s) for s in range(12)]
    f0_dims = []
    for i, cut in enumerate(_cuts(structures)):
        h = checked_hom(cut)
        f0 = h.F.at(0).basis
        rational = la.identity(Q, h.dim)
        f0_dims.append(len(f0))
        for rng in (None, random.Random(i)):
            new = un.ext_class_rep(cut.m, cut.p, rng).e
            old = solved_ext_class(cut, None if rng is None
                                   else random.Random(f"old:{i}"))
            assert _in_mixed_span([x - y for x, y in zip(new, old)],
                                  f0, rational)
    assert max(f0_dims) > 0  # some cut has a choice of Hodge section


def _tate_members():
    """Graded-Tate members: Kummer members, partly rational ones, and
    samples of triples with three to five steps, each with a rational
    control.  With equal gaps, two blocks of h can have one weight."""
    out = [corpus.kummer_mhs(z) for z in Z_VALUES] + PARTLY_RATIONAL
    for weights in ((-6, -2, 0), (-4, -2, 0), (-6, -4, -2, 0),
                    (-14, -6, -2, 0), (-22, -14, -6, -2, 0)):
        mu = tate_triple(weights)
        out += [tr.build_mhs(mu, tr.sample_point(mu, f"tent:{s}", 5))
                for s in range(2)]
        out.append(tr.build_mhs(mu, tr.sample_rational_point(mu, "tent", 5)))
    return out


def _other_members():
    """Valid oracle structures and members of the CM and two-weight
    triples: F^0 h is nonzero at some of their cuts."""
    out = [m for m in oracle_structures() if mh.is_valid(m)]
    for mu in (corpus.tate_cm_triple(), corpus.two_weight_triple()):
        out += [tr.build_mhs(mu, tr.sample_point(mu, f"other:{s}", 5))
                for s in range(2)]
    return out


def _is_subobject(h, a_q):
    """Whether mh.check_subobject accepts a_q on the frame h of H."""
    try:
        mh.check_subobject(h, a_q, "H")
    except NotASubobjectError:
        return False
    return True


def test_rational_hulls_match_the_real_and_imaginary_rows():
    """At every cut of the graded-Tate and other oracle members, _u_p and
    _splits read from rational hulls what the closure by type and the
    splitting test spanned from real and imaginary rows of scalars give,
    and the lazy closure gives what the closure run until a round adds
    nothing gives: for u_p, for zero, everything, each coordinate line and
    random subspaces, and for the class and a redraw of it.  u_p is a
    subobject of the checked Hom at every cut; on the graded-Tate cuts it
    is also the closure by weight, which elsewhere can give a span that is
    not one.  On the same candidates the per-type projector test of H's
    frame accepts exactly the subobjects mh.sub_mhs accepts."""
    outcomes, subobjects = set(), set()
    tate = _tate_members()
    n_cuts, by_weight_not_sub = 0, 0
    for i, cut in enumerate(_cuts(tate + _other_members())):
        n_cuts += 1
        up = un._u_p(cut).subspace
        by_type = helpers.h_type_projectors(cut).values()
        assert up == helpers.parts_u_p(cut, by_type) == helpers.stable_u_p(cut)
        hom = checked_hom(cut)
        assert mh.try_sub_mhs(hom, up) is not None
        by_weight = helpers.parts_u_p(cut, helpers.h_projectors(cut).values())
        if any(cut.m is m for m in tate):
            assert by_weight == up
        elif by_weight != up:
            assert mh.try_sub_mhs(hom, by_weight) is None
            by_weight_not_sub += 1
        h = helpers.unchecked_hom(cut.m, cut.wp)
        frame = un._h_frame(cut)
        reps = [un._ext_class(cut),
                un.ext_class_rep(cut.m, cut.p, random.Random(f"hull:{i}"))]
        for a_q in [up, *_rational_candidates(h.dim, random.Random(i))]:
            sub = _is_subobject(frame, a_q)
            assert sub == (mh.try_sub_mhs(h, a_q) is not None)
            subobjects.add(sub)
            for rep in reps:
                got = un._splits(h.F.at(0), a_q, rep)
                assert got == helpers.parts_splits(h, a_q, rep)
                outcomes.add(got)
    assert outcomes == subobjects == {True, False}
    assert n_cuts == 180 and by_weight_not_sub > 0


def test_f0_of_h_is_read_off_the_frame():
    """At every cut of the valid oracle structures, the span of H's frame
    vectors of type (p, q) with p >= 0 is F^0 of H formed as a Hom."""
    f0_dims = []
    for cut in _cuts(m for m in oracle_structures() if mh.is_valid(m)):
        f0 = un._h_frame(cut).span(lambda p, q: p >= 0)
        assert f0 == helpers.unchecked_hom(cut.m, cut.wp).F.at(0)
        f0_dims.append(f0.dim)
    assert 0 in f0_dims and max(f0_dims) > 0


def test_u_p_builds_h_frame_only_between_zero_and_h(monkeypatch):
    """H's frame is built only at a cut where span(Im e) is neither 0 nor
    all of H: not for the three rational controls of the experiment nor
    for a Kummer member, where dim H = 1, and at each of the two cuts of
    its two samples."""
    frames, h_frame = [], un._h_frame
    monkeypatch.setattr(un, "_h_frame",
                        lambda cut: frames.append(cut.p) or h_frame(cut))
    for z in Z_VALUES:
        assert un.u_p_tate(corpus.kummer_mhs(z), -2).large == (
            not z.is_rational())
    un.genericity_experiment(corpus.tate3_triple(), 0, "cnt", 10)
    assert frames == []
    un.genericity_experiment(corpus.tate3_triple(), 2, "cnt", 10)
    assert frames == [-6, -2, -6, -2]


def test_ext_class_matches_the_adapted_basis_hodge_section():
    """The class read off M's projectors equals the one from the
    adapted-basis Hodge section where F^0 h = 0, and differs from it by a
    vector of F^0 h elsewhere."""
    f0_dims = []
    for cut in _cuts(_tate_members()):
        assert checked_hom(cut).F.at(0).is_zero()
        assert un._ext_class(cut).e == hodge_section_class(cut)
    for cut in _cuts(_other_members()):
        f0 = checked_hom(cut).F.at(0)
        f0_dims.append(f0.dim)
        diff = [x - y for x, y in zip(un._ext_class(cut).e,
                                      hodge_section_class(cut))]
        assert f0.contains(diff)
    assert max(f0_dims) > 0


def test_h_projectors_match_the_per_cut_bigrading():
    """The weight projectors S_k . T_k of H's frame equal, entry for entry,
    the kron sums of M's weight projectors (helpers.h_projectors) and
    those read off a Deligne bigrading of H itself."""
    for cut in _cuts(_tate_members() + _other_members()):
        h = un._h_frame(cut)
        got = {k: la.mat_mul(*h.select(lambda p, q: p + q == k))
               for k in sorted({p + q for p, q in h.types})}
        want = helpers.deligne_projectors(checked_hom(cut))
        assert helpers.h_projectors(cut) == want
        assert list(got) == list(want) and got == want


def test_h_frame_spans_the_per_cut_bigrading_type_by_type():
    """Grouped by type (p, q), the vectors of H's frame span the component
    of that type in a Deligne bigrading of H itself, and its dual rows
    are dual to them: T . S is the identity."""
    other_types = sum(helpers.assert_deligne_frame(un._h_frame(cut), checked_hom(cut))
                      for cut in _cuts(_tate_members() + _other_members()))
    assert other_types > 0  # some H has types other than (k, k)


# -- unipotent radical in the graded-Tate regime -------------------------------

def test_u_p_kummer():
    res = un.u_p_tate(corpus.kummer_mhs(I), -2)
    assert res.regime == "TATE_EXACT" and res.large and res.subspace.dim == 1
    res = un.u_p_tate(corpus.kummer_mhs(HALF), -2)
    assert not res.large and res.subspace.dim == 0


def test_u_p_tate3():
    m = tate3_mhs("large")
    detail = un.u_large_detail(m)
    assert [p for p, _ in detail] == [-6, -2]
    assert all(res.large for _, res in detail)
    assert un.is_u_large(m)
    m_rat = tate3_mhs("rat", rational=True)
    assert not un.is_u_large(m_rat)


def test_u_p_is_a_subobject_modulo_which_the_class_splits():
    for seed in ["a", "b"]:
        m = tate3_mhs(seed, height=4)
        for p in (-6, -2):
            res = un.u_p_tate(m, p)
            assert un.splits_mod(m, p, res.subspace)
            # Minimality: no liftable proper subobject of it also splits.
            if res.subspace.dim > 0:
                assert not un.splits_mod(
                    m, p, Subspace.zero(Q, res.subspace.ambient_dim))


def test_every_u_p_is_a_subobject_of_the_checked_hom():
    """_u_p does not check its answer: the rational closure under the
    projectors of H is a subobject by construction.  This is the oracle."""
    for m in _tate_members():
        for p, res in un.u_large_detail(m):
            wp = m.W.at(p)
            h = mh.hom(mh.quotient_mhs(m, wp), mh.sub_mhs(m, wp))
            mh.sub_mhs(h, res.subspace)  # raises unless a subobject


def _u_p_everywhere(members):
    """u_large_detail of each member, and u_p_tate at each of its cuts."""
    return [(un.u_large_detail(m), [un.u_p_tate(m, p) for p in m.W.jumps[:-1]])
            for m in members]


def test_detail_builds_no_structure(monkeypatch):
    """The regime is read off the frame, so neither verb forms Gr^W M."""
    members = _tate_members()
    expected = _u_p_everywhere(members)
    for detail, ups in expected:
        assert [res for _, res in detail] == ups

    def forbidden(*args):
        raise AssertionError("u_p built a structure or read Gr^W")
    for name in ("hom", "make_mhs", "graded_frame", "gr_w"):
        monkeypatch.setattr(mh, name, forbidden)
    assert _u_p_everywhere(members) == expected


def _u_p_by_public_search(m, p):
    """u_p by the candidate-by-candidate search through the public
    can_lift and splits_mod, each call recomputing its own data.  Valid
    when every graded piece of Hom(M/W_pM, W_pM) has rank one: then each
    subobject lifts a unique set of graded blocks."""
    wp = m.W.at(p)
    h = mh.hom(mh.quotient_mhs(m, wp), mh.sub_mhs(m, wp))
    rep = un.ext_class_rep(m, p)
    unit = la.identity(Q, h.dim)
    blocks = [unit[offset:offset + g.dim] for offset, g in graded_offsets(h.W)]
    for size in range(h.dim + 1):
        for subset in combinations(range(len(blocks)), size):
            rows = [row for idx in subset for row in blocks[idx]]
            a_q = lo.can_lift(h, Subspace.span(Q, h.dim, rows))
            if a_q is not None and un.splits_mod(m, p, a_q, rep):
                return a_q
    raise AssertionError("no candidate splits the class")


@pytest.mark.parametrize("m, p", [
    (corpus.kummer_mhs(I), -2),
    (corpus.kummer_mhs(HALF), -2),
    *[(m, p) for m in (tate3_mhs("or1", height=4), tate3_mhs("or2", height=4),
                       tate3_mhs("or-rat", rational=True, height=4),
                       *PARTLY_RATIONAL)
      for p in (-6, -2)],
    # Equal weight gaps: Q(0) + Q(1) + Q(2).
    *[(tr.build_mhs(EQUAL_GAPS, tr.sample_point(EQUAL_GAPS, "eq", 4)), p)
      for p in (-4, -2)],
])
def test_u_p_matches_the_public_search(m, p):
    assert un.u_p_tate(m, p).subspace == _u_p_by_public_search(m, p)


def test_partly_rational_members_have_a_line_at_the_low_cut():
    for m in PARTLY_RATIONAL:
        assert un.u_p_tate(m, -6).subspace.dim == 1


def test_regime_errors():
    with pytest.raises(RegimeError):
        un.u_p_tate(corpus.two_weight_mhs(), -1)  # dim-2 graded piece
    # Equal weight gaps (0, -2, -4) are inside the graded-Tate regime.
    m = tr.build_mhs(EQUAL_GAPS, tr.sample_point(EQUAL_GAPS, "gap", 5))
    assert un.u_p_tate(m, -2).subspace == _u_p_by_public_search(m, -2)
    # Odd one-dimensional weight.
    odd = mh.make_mhs(1, {1: Subspace.full(Q, 1)},
                      {0: Subspace.full(QI, 1), 1: Subspace.zero(QI, 1)})
    with pytest.raises(RegimeError):
        un.u_large_detail(odd)
    # An even-weight rank-two piece of Hodge types (1, -1) and (-1, 1).
    piece = random_pure_piece(random.Random(2), 0)
    assert piece.dim == 2 and piece.F.jumps == (-1, 1)
    with pytest.raises(RegimeError):
        un.u_p_tate(mh.direct_sum(mh.tate_twist(1), piece), -2)


def test_u_p_on_the_cm_triple_is_all_of_h_behind_the_gate():
    """On Q(3) + E(-3) + Q(0), at seeds 0, b and c and at both cuts, every
    type of H has p < 0, so F^0 H = 0, and the subobject generated by
    span(Im e) is all of H (dim 3, types (-3, -3), (-2, -1), (-1, -2)):
    the class splits modulo it.  The regime gate still refuses the
    triple, which is not graded-Tate."""
    mu = corpus.tate_cm_triple()
    for seed in ("0", "b", "c"):
        m = tr.build_mhs(mu, tr.sample_point(mu, seed, 5))
        for p in (-6, -3):
            cut = un.weight_cut(m, p)
            h = un._h_frame(cut)
            assert sorted(h.types) == [(-3, -3), (-2, -1), (-1, -2)]
            hom = checked_hom(cut)
            assert h.span(lambda p, q: p >= 0).is_zero()
            assert hom.F.at(0).is_zero()
            up = un._u_p(cut).subspace
            assert up.is_full() and up.dim == 3
            mh.sub_mhs(hom, up)
            assert un.splits_mod(m, p, up)
            with pytest.raises(RegimeError):
                un.u_p_tate(m, p)
        with pytest.raises(RegimeError):
            un.u_large_detail(m)


def intersection_graded_tate(m):
    """Reference for _check_graded_tate: the rank of F^{n/2} on Gr^W_n
    from two intersections with the weight steps."""
    for n in m.W.jumps:
        f, top, below = m.F.at(n // 2), m.W.at(n), m.W.at(n - 1)
        if n % 2 or (la.intersect(f, top.to_qi()).dim
                     - la.intersect(f, below.to_qi()).dim
                     != top.dim - below.dim):
            raise RegimeError(f"the graded piece of weight {n} is not Tate "
                              f"(the structure must be graded-Tate)")


def _regime_message(check, m):
    try:
        check(m)
    except RegimeError as exc:
        return str(exc)
    return None


def test_graded_tate_check_matches_the_intersection_oracle():
    """On every valid oracle structure, the check read off the frame
    types agrees with the ranks of F^{n/2} on each Gr^W_n.  Only a valid
    structure has a frame, and every caller validates first."""
    messages = []
    for m in oracle_structures():
        if not mh.is_valid(m):
            continue
        messages.append(_regime_message(
            lambda m: un._check_graded_tate(mh.deligne_frame(m)), m))
        assert messages[-1] == _regime_message(intersection_graded_tate, m)
    assert None in messages and len(set(messages)) > 2


def _bounded_height_candidates(h):
    """Subspaces of the graded coordinates of h: in each rank-one block
    nothing or everything, in each rank-two block nothing, everything or
    a primitive line of height at most 2."""
    lines = [(a, b) for a in range(3) for b in range(-2, 3)
             if gcd(a, b) == 1 and (a, b) > (0, 0)]
    choices = []
    for offset, g in graded_offsets(h.W):
        unit = la.identity(Q, h.dim)[offset:offset + g.dim]
        options = [[], list(unit)]
        if g.dim == 2:
            options += [[tuple(a * x + b * y for x, y in zip(*unit))]
                        for a, b in lines]
        choices.append(options)
    for rows in product(*choices):
        yield Subspace.span(Q, h.dim, [r for block in rows for r in block])


@pytest.mark.parametrize("rational", [False, True])
def test_u_p_with_a_rank_two_piece_against_bounded_height_candidates(
        rational, monkeypatch):
    # Q(0) + Q(1) + Q(2) + Q(3) at the cut -4: Hom(M/W_pM, W_pM) has a
    # rank-two piece of weight -4, where the public search does not apply.
    mu = tate_triple((-6, -4, -2, 0))
    maker = tr.sample_rational_point if rational else tr.sample_point
    m = tr.build_mhs(mu, maker(mu, "rank-two", 4))
    wp = m.W.at(-4)
    h = mh.hom(mh.quotient_mhs(m, wp), mh.sub_mhs(m, wp))
    u = un.u_p_tate(m, -4).subspace
    mh.sub_mhs(h, u)  # raises when u_p is not a subobject
    assert un.splits_mod(m, -4, u)
    assert u.dim == (0 if rational else 4)
    rep = un.ext_class_rep(m, -4)
    # can_lift reads the Deligne frame of h afresh on every call; form
    # it once.
    frame, read = mh.deligne_frame(h), mh.deligne_frame
    monkeypatch.setattr(mh, "deligne_frame",
                        lambda s: frame if s is h else read(s))
    for cand in _bounded_height_candidates(h):
        if cand.dim < u.dim:
            a_q = lo.can_lift(h, cand)
            assert a_q is None or not un.splits_mod(m, -4, a_q, rep)


# -- Lie-algebra upper bound ---------------------------------------------------------

def test_mt_bound_kummer_split_vs_nonsplit():
    end_w_m1 = mh.hom(corpus.kummer_mhs(I),
                      corpus.kummer_mhs(I)).W.at(-1)
    g2_split = un.mt_lie_upper_bound(corpus.kummer_mhs(HALF), 2)
    assert la.intersect(g2_split, end_w_m1).is_zero()
    g2_generic = un.mt_lie_upper_bound(corpus.kummer_mhs(I), 2)
    assert g2_generic.contains_subspace(end_w_m1)


def test_mt_bound_decreasing_and_bracket_closed():
    for m in [corpus.kummer_mhs(I), corpus.kummer_mhs(HALF)]:
        g1 = un.mt_lie_upper_bound(m, 1)
        g2 = un.mt_lie_upper_bound(m, 2)
        assert g1.contains_subspace(g2)
        assert un.end_subspace_is_bracket_closed(g1, m.dim)
        assert un.end_subspace_is_bracket_closed(g2, m.dim)


def _count_eliminations(monkeypatch):
    """The entries (rows x columns) of each integer matrix la._eliminate
    is handed, in call order."""
    sizes, eliminate = [], la._eliminate
    monkeypatch.setattr(la, "_eliminate", lambda m: sizes.append(
        len(m) * len(m[0])) or eliminate(m))
    return sizes


def test_degree3_bound_counts_its_eliminations_and_entries(monkeypatch):
    """Operation counts, which are deterministic and compare across
    machines: the degree-3 bound on the benchmark's first member at seed
    4242 runs 24 eliminations over 6,099 integer entries.  There were 33
    over 13,824 when F^0 of each power was reduced to an echelon basis
    before its rational part and the constraint rows, zero rows
    included, were scaled to integers inside la.kernel."""
    mu = corpus.tate3_triple()
    m = tr.build_mhs(mu, tr.sample_point(mu, "4242.0", 10))
    sizes = _count_eliminations(monkeypatch)
    un.mt_lie_upper_bound(m, 3)
    assert (len(sizes), sum(sizes)) == (24, 6099)


def _u_p_blocks_in_end(m):
    """Every basis vector of every u_p block, pushed into End coordinates."""
    for p, res in un.u_large_detail(m):
        wp = m.W.at(p)
        incl = la.to_qi_mat(la.inclusion_map(wp))
        proj = la.to_qi_mat(la.quotient_map(wp))
        for row in res.subspace.basis:
            b = mh.hom_mat(tuple(GaussRat(x) for x in row),
                           m.dim - wp.dim, wp.dim)
            end = la.mat_mul(incl, la.mat_mul(b, proj))
            yield mh.hom_vec(end, m.dim, m.dim)


def test_u_p_lies_inside_the_degree2_bound():
    m = tate3_mhs("up-in-g", height=4)
    g2 = un.mt_lie_upper_bound(m, 2)
    for v in _u_p_blocks_in_end(m):
        assert g2.to_qi().contains(v)


def _derivation_action(x: Matrix, signs: Sequence[int], dim: int) -> Matrix:
    """Sum over factors of 1 x .. x (x or -x^T) x .. x 1."""
    n = len(signs)
    total = la.zeros(Q, dim ** n, dim ** n)
    for k, sign in enumerate(signs):
        factor = x if sign > 0 else la.mat_scale(Fraction(-1), la.transpose(x))
        term = la.identity(Q, 1)
        for j in range(n):
            term = la.kron_mat(term, factor if j == k else la.identity(Q, dim))
        total = la.mat_add(total, term)
    return total


def _per_row_bound(m, d):
    """The reference for mt_lie_upper_bound: one mat_vec per constraint
    row, each row read off its own image of the class vector, with each
    action built as a sum of kron chains by _derivation_action."""
    n = m.dim
    md = mh.dual(m)
    rows = []
    basis_maps = [mh.hom_mat(tuple(1 if t == s else 0 for t in range(n * n)),
                             n, n) for s in range(n * n)]
    for deg in range(1, d + 1):
        for a in range(deg + 1):
            t = None
            for x in [m] * a + [md] * (deg - a):
                t = x if t is None else mh.tensor(t, x)
            classes = mh.hodge_classes(t)
            if classes.is_zero():
                continue
            signs = [1] * a + [-1] * (deg - a)
            actions = [_derivation_action(x, signs, n) for x in basis_maps]
            for v in classes.basis:
                for i in range(n ** deg):
                    rows.append(tuple(la.mat_vec(act, v)[i]
                                      for act in actions))
    if not rows:
        return Subspace.full(Q, n * n)
    return la.kernel(Q, la.mat(Q, rows), n * n)


def test_mt_bound_matches_the_per_row_loop():
    for m in [corpus.kummer_mhs(I), corpus.kummer_mhs(HALF)]:
        for d in (1, 2, 3):
            assert un.mt_lie_upper_bound(m, d) == _per_row_bound(m, d)
    # Here a space has several classes, and each one adds constraints.
    m = corpus.two_weight_mhs()
    assert un.mt_lie_upper_bound(m, 1) == _per_row_bound(m, 1)
    m = mh.direct_sum(corpus.kummer_mhs(I), mh.tate_twist(0))
    for d in (1, 2):
        assert un.mt_lie_upper_bound(m, d) == _per_row_bound(m, d)


@pytest.mark.parametrize("seed", range(12))
def test_mt_bound_matches_the_per_row_loop_on_random_structures(seed):
    # These have non-Tate graded pieces, unlike the cases above.
    m = random_mhs(seed, max_dim=3)
    for d in ((1, 2, 3) if m.dim <= 2 else (1, 2)):
        assert un.mt_lie_upper_bound(m, d) == _per_row_bound(m, d)


def test_mt_bound_builds_no_tensor_structure(monkeypatch):
    m = tate3_mhs("no-tensor", height=4)
    expected = un.mt_lie_upper_bound(m, 2)

    def forbidden(*args):
        raise AssertionError("the bound built a tensor structure")
    monkeypatch.setattr(mh, "tensor", forbidden)
    monkeypatch.setattr(lo, "derive", forbidden)
    assert un.mt_lie_upper_bound(m, 2) == expected


def test_walker_actions_match_the_kron_chains():
    m = corpus.kummer_mhs(I)
    n = m.dim
    basis_maps = [mh.hom_mat(tuple(1 if t == s else 0 for t in range(n * n)),
                             n, n) for s in range(n * n)]
    for deg in (1, 2, 3):
        for a in range(deg + 1):
            factors = [lo.SELF] * a + [["DUAL", lo.SELF]] * (deg - a)
            term = factors[0]
            for f in factors[1:]:
                term = ["TENSOR", term, f]
            t, actions = lo.derive(term, m, basis_maps)
            chain = None
            for x in [m] * a + [mh.dual(m)] * (deg - a):
                chain = x if chain is None else mh.tensor(chain, x)
            assert t == chain
            signs = [1] * a + [-1] * (deg - a)
            assert actions == [_derivation_action(x, signs, n)
                               for x in basis_maps]


def test_degree3_bound_on_a_three_step_member():
    m = tate3_mhs("g3", height=4)
    g3 = un.mt_lie_upper_bound(m, 3)
    assert un.end_subspace_is_bracket_closed(g3, m.dim)
    assert un.mt_lie_upper_bound(m, 2).contains_subspace(g3)
    for v in _u_p_blocks_in_end(m):
        assert g3.to_qi().contains(v)


def test_weight_cut_validates_neither_side(monkeypatch):
    m = tate3_mhs("cut-count")
    calls = []
    validate = mh.validate_mhs
    monkeypatch.setattr(mh, "validate_mhs",
                        lambda s: calls.append(s) or validate(s))
    for p in m.W.jumps[:-1]:
        calls.clear()
        un.weight_cut(m, p)
        assert len(calls) == 0  # W_pM is a subobject of a valid M


def test_weight_cut_sides_are_the_checked_sub_and_quotient():
    """The unchecked H of the oracles for F^0 H and the subobject test
    (helpers.unchecked_hom) is the Hom of the checked sides, and its
    dimension is the one u_p uses."""
    members = [m for m in oracle_structures() if mh.is_valid(m)]
    members += [tate3_mhs(f"sides:{s}", rational) for s in range(2)
                for rational in (False, True)]
    members += _other_members()[-4:]
    for m in members:
        frame = mh.deligne_frame(m)
        for p in m.W.jumps[:-1]:
            cut = un.weight_cut(m, p, frame)
            assert cut == un.weight_cut(m, p)
            sub = mh.sub_mhs(m, cut.wp)  # raises unless valid
            assert mh._restrict(m, cut.wp) == sub
            quo = mh.quotient_mhs(m, cut.wp)
            assert mh.is_valid(quo) and mh._push_forward(m, cut.wp) == quo
            h = helpers.unchecked_hom(m, cut.wp)
            assert h == mh.hom(quo, sub)
            assert h.dim == cut.wp.dim * (m.dim - cut.wp.dim)


def test_detail_bigrades_each_member_once(monkeypatch):
    calls = []
    bigrading = mh.deligne_bigrading
    monkeypatch.setattr(mh, "deligne_bigrading",
                        lambda m: calls.append(m) or bigrading(m))
    for weights in ((-6, -2, 0), (-22, -14, -6, -2, 0)):
        mu = tate_triple(weights)
        m = tr.build_mhs(mu, tr.sample_point(mu, "once", 5))
        calls.clear()
        un.u_large_detail(m)
        assert calls == [m]


def test_resource_guard(monkeypatch):
    m = corpus.kummer_mhs(I)
    monkeypatch.setenv(mh.GUARD_ENV, "10")
    products = []
    for name in ("_products", "_int_basis"):
        monkeypatch.setattr(mh, name, lambda *args, build=getattr(mh, name):
                            products.append(args) or build(*args))
    with pytest.raises(ResourceGuardError):
        un.mt_lie_upper_bound(m, 4)  # 2*1*2 + 3*2*4 = 28 > 10 by degree 2
    assert not products  # refused before any power or its bases were formed
    monkeypatch.setenv(mh.GUARD_ENV, "sixteen")
    with pytest.raises(ResourceGuardError):
        un.mt_lie_upper_bound(m, 2)
    monkeypatch.delenv(mh.GUARD_ENV)
    assert un.mt_lie_upper_bound(m, 2).dim >= 1


def test_resource_guard_counts_every_power(monkeypatch):
    # On Q(1) every power has dimension 1; the degree-d bound reads
    # deg + 1 of them at each degree, deg slots each: 1*2 + 2*3 + ... +
    # d*(d + 1) = d(d + 1)(d + 2)/3 in all.
    m = mh.tate_twist(1)
    monkeypatch.setenv(mh.GUARD_ENV, "20")
    assert un.mt_lie_upper_bound(m, 3) == un.mt_lie_upper_bound(m, 1)
    with pytest.raises(ResourceGuardError, match=r"degree at most 4 have "
                       r"total size 40 \(dimension times degree\), above "
                       r"the ceiling 20"):
        un.mt_lie_upper_bound(m, 4)
    # The refusal names the first degree over the ceiling, not n^d.  The
    # total counted dimensions alone until it admitted degree 139 on Q(1),
    # which took seconds; it now stops at degree 30 (9,920; 10,912 at 31).
    monkeypatch.delenv(mh.GUARD_ENV)
    assert un.mt_lie_upper_bound(m, 30) == un.mt_lie_upper_bound(m, 1)
    with pytest.raises(ResourceGuardError, match="degree at most 31 have "
                       "total size 10912 "):
        un.mt_lie_upper_bound(m, 139)
    with pytest.raises(ResourceGuardError, match="degree at most 7 "):
        un.mt_lie_upper_bound(corpus.kummer_mhs(I), 10 ** 7)
    # The three-step member at degree 3 reads 2*3 + 6*9 + 12*27 = 384.
    assert 384 <= mh.DEFAULT_GUARD


# -- the experiment --------------------------------------------------------------------

def test_experiment_shape_and_determinism():
    mu = corpus.tate3_triple()
    rep1 = un.genericity_experiment(mu, 3, "t", 10)
    rep2 = un.genericity_experiment(mu, 3, "t", 10)
    assert rep1 == rep2
    assert rep1["n_samples"] == 3 and rep1["seed"] == "t"
    assert {d["p"] for d in rep1["per_p"]} == {-6, -2}
    assert len(rep1["degenerate"]) == 3
    for control in rep1["degenerate"]:
        assert control["failing_p"]  # rational points are degenerate
    assert 0 <= rep1["all_large_count"] <= 3


def test_experiment_checks_the_triple_once_and_builds_each_grading_once(
        monkeypatch):
    calls, validated, bigraded = [], [], []
    problems = tr.triple_problems
    monkeypatch.setattr(tr, "triple_problems",
                        lambda mu: calls.append(mu) or problems(mu))
    validate = mh.validate_mhs
    monkeypatch.setattr(mh, "validate_mhs",
                        lambda m: validated.append(m) or validate(m))
    bigrading = mh.deligne_bigrading
    monkeypatch.setattr(mh, "deligne_bigrading",
                        lambda m: bigraded.append(m) or bigrading(m))
    reductions, point_checks = [], []
    rref = la._rref
    monkeypatch.setattr(la, "_rref", lambda rows, field:
                        reductions.append(1) or rref(rows, field))
    eliminations = _count_eliminations(monkeypatch)
    check_tpoint = tr.check_tpoint
    monkeypatch.setattr(tr, "check_tpoint", lambda mu, alpha:
                        point_checks.append(1) or check_tpoint(mu, alpha))
    mh.graded_pieces.cache_clear()
    mh.graded_basis.cache_clear()
    un.genericity_experiment(corpus.tate3_triple(), 2, "cnt", 10)
    assert len(calls) == 1
    # The sampled sections are a point by construction, so no member's
    # point is checked.
    assert point_checks == []
    # One bigrading per member (2 samples and 3 controls) gives the class
    # and the frame of H at both cuts, with no structure on either side or
    # on H.  There were 92 reductions before the images of the sections
    # were spanned as integer rows, 106 before the closure of u_p spanned
    # rational hulls of integer rows, both of which reach _int_rref directly
    # (81 eliminations in all, then and now), 121 when each sampled point was
    # checked, 171 when build_mhs added the image of each piece to a
    # running sum, 198 when the graded-Tate check formed the direct sum
    # of the graded pieces, 395 when each cut read its sides off the
    # bigrading and built H, 772 with a bigrading of each H and
    # intersections for each side, and 1,163 when equations were reduced
    # twice more and solve_matrix went column by column.  The 81 fell
    # to 77 when u_p stopped forming H's frame for a span of 0 or all of
    # H and stopped the closure once the span was all of H, and to 67
    # (over 946 integer entries, 1,486 before) when the bigrading reduced
    # each Hodge step once in graded coordinates instead of intersecting
    # it with each step of W; that also took the reductions through
    # _rref from 82 to 42.  They fell to 39, and the eliminations to 64
    # over 934 entries, when gr_w read the graded pieces of the triple off
    # the same reduction of each Hodge step instead of intersecting.
    assert len(bigraded) == 5
    assert len(reductions) == 39
    assert len(eliminations) == 64 and sum(eliminations) == 934
    assert mh.graded_pieces.cache_info().misses <= 8
    # gr_w and the bigrading look the graded basis up once per structure,
    # for all its Hodge steps: 8 lookups, 4 of them builds.  There were 18
    # when each Hodge step looked it up.
    basis = mh.graded_basis.cache_info()
    assert basis.hits + basis.misses == 8
    # The 3 graded pieces of the triple; no member, cut or u_p is
    # validated (the subobject property of u_p is checked by the tests).
    assert len(validated) == 3
    with pytest.raises(MhsError, match="height"):
        un.genericity_experiment(corpus.tate3_triple(), 1, "cnt", 0)


def test_experiment_makes_no_gauss_rat_product(monkeypatch):
    """linalg forms each entry of a product as one integer dot product, so
    the experiment calls GaussRat.__mul__ nowhere.  There were 451 calls,
    all in linalg's products, when they multiplied scalars: 134 in the
    sums of mat_mul, 97 in those of mat_vec, 90 and 98 in their probes
    for the product's zero, and 32 in kron_mat."""
    calls, gauss_mul = [], GaussRat.__mul__

    def spy(x, y):
        calls.append(1)
        return gauss_mul(x, y)

    monkeypatch.setattr(GaussRat, "__mul__", spy)
    monkeypatch.setattr(GaussRat, "__rmul__", spy)
    mh.graded_pieces.cache_clear()
    mh.graded_basis.cache_clear()
    un.genericity_experiment(corpus.tate3_triple(), 2, "cnt", 10)
    assert calls == []
    assert I * 2 == 2 * I and len(calls) == 2


def test_experiment_rejects_a_negative_sample_count():
    with pytest.raises(MhsError, match="number of samples"):
        un.genericity_experiment(corpus.tate3_triple(), -2, "s", 10)
    assert un.genericity_experiment(corpus.tate3_triple(), 0, "s", 10)[
        "n_samples"] == 0

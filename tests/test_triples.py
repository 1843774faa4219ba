"""Parametrizing space: triples, section tuples, truncation, fibers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (added_build_mhs, graded_offsets, hom_fiber_dim,
                     hom_lie_data, oracle_structures, random_mhs,
                     random_triple, tate_triple)
from mhslab import corpus
from mhslab import linalg as la
from mhslab import mhs as mh
from mhslab import triples as tr
from mhslab import unipotent as un
from mhslab.errors import NotAnMhsError
from mhslab.field import Q, QI, GaussRat, I
from mhslab.linalg import Subspace

SEEDS = range(10)


# -- triples and points --------------------------------------------------------

def test_corpus_triples_validate():
    for mu in [corpus.kummer_triple(), corpus.tate3_triple(),
               corpus.two_weight_triple(), tr.zero_triple()]:
        assert not tr.triple_problems(mu)


def test_bad_triple_rejected():
    mu = corpus.kummer_triple()
    # Swap in a graded piece of the wrong weight.
    bad = tr.Triple(mu.dim, mu.W, ((-2, mh.tate_twist(1)),
                                   (0, mh.tate_twist(1))))
    assert tr.triple_problems(bad)
    with pytest.raises(NotAnMhsError):
        tr.check_triple(bad)


def test_tpoint_validation():
    mu = corpus.kummer_triple()
    alpha = corpus.kummer_tpoint(I)
    assert not tr.tpoint_problems(mu, alpha)
    # A non-section (pi . alpha != id) is rejected.
    bad = tr.TPoint(((-2, la.mat(QI, [[2], [0]])), alpha.sections[1]))
    assert tr.tpoint_problems(mu, bad)


def test_build_kummer():
    for z in [GaussRat(0), GaussRat(Fraction(1, 2)), I, GaussRat(1, 1)]:
        m = tr.build_mhs(corpus.kummer_triple(), corpus.kummer_tpoint(z))
        assert m == corpus.kummer_mhs(z)


def test_triple_of_round_trip():
    for s in SEEDS:
        m = random_mhs(s, max_dim=5)
        mu = tr.triple_of(m)
        assert not tr.triple_problems(mu)
        assert tr.matches_triple(mu, m)
        assert mu.W == m.W


# -- build / sections round trip -----------------------------------------------

def test_build_sections_identity():
    for s in SEEDS:
        mu = random_triple(s, max_dim=5)
        alpha = tr.sample_point(mu, f"pt:{s}", 7)
        m = tr.build_mhs(mu, alpha)
        beta = tr.sections_from_mhs(mu, m)
        assert not tr.tpoint_problems(mu, beta)
        assert tr.build_mhs(mu, beta) == m
        assert tr.equal_in_S(mu, alpha, beta)


def _sections_oracle(m):
    """sections_from_mhs as it was before the projectors: the blocks of
    the inverse splitting at each graded offset."""
    ainv = la.invert(QI, mh.deligne_splitting(m))
    return tr.TPoint(tuple(
        (piece.weight,
         tuple(row[offset:offset + piece.dim] for row in ainv))
        for offset, piece in graded_offsets(m.W)))


def test_sections_match_the_inverse_splitting_oracle():
    cases = [(random_triple(s),
              tr.sample_point(random_triple(s), f"oracle:{s}", 7))
             for s in range(16)]
    for weights in ((-6, -2, 0), (-14, -6, -2, 0)):
        mu = tate_triple(weights)
        cases += [(mu, tr.sample_point(mu, "oracle", 10)),
                  (mu, tr.sample_rational_point(mu, "oracle", 10))]
    for mu, alpha in cases:
        m = tr.build_mhs(mu, alpha)
        assert tr.sections_from_mhs(mu, m) == _sections_oracle(m)


# -- equality criteria ----------------------------------------------------------

def _perturbed_point(mu, alpha, k):
    """A different representative of the same point: compose the total
    section matrix with exp(u) = 1 + u for u in F^0 of W_{-1}End(graded)."""
    data = tr.lie_data(mu)
    f0 = data.f0_w_minus1_end
    if f0.is_zero():
        return alpha
    u = mh.hom_mat(f0.basis[k % f0.dim], mu.dim, mu.dim)
    total = la.mat_mul(tr.total_section_matrix(alpha),
                       la.mat_add(la.identity(QI, mu.dim), u))
    cols = la.transpose(total)
    secs, at = [], 0
    for n, a in alpha.sections:
        g = len(la.transpose(a))
        secs.append((n, la.transpose(cols[at:at + g])))
        at += g
    return tr.TPoint(tuple(secs))


def test_equality_criteria_agree_on_equal_pairs():
    for s in SEEDS:
        mu = random_triple(s, max_dim=5)
        alpha = tr.sample_point(mu, f"eq:{s}", 7)
        beta = _perturbed_point(mu, alpha, s)
        assert not tr.tpoint_problems(mu, beta)
        assert tr.equal_in_S(mu, alpha, beta)
        assert tr.equal_in_S_group(mu, alpha, beta)


def test_equality_criteria_agree_on_random_pairs():
    for s in SEEDS:
        mu = random_triple(s, max_dim=5)
        alpha = tr.sample_point(mu, f"a:{s}", 7)
        beta = tr.sample_point(mu, f"b:{s}", 7)
        assert tr.equal_in_S(mu, alpha, beta) == \
            tr.equal_in_S_group(mu, alpha, beta)


def test_distinct_points_when_space_is_positive_dimensional():
    mu = corpus.kummer_triple()
    alpha = tr.sample_point(mu, "x", 7)
    beta = tr.sample_point(mu, "y", 7)
    assert not tr.equal_in_S(mu, alpha, beta)


# -- sampling -------------------------------------------------------------------

def test_sampler_determinism():
    mu = corpus.tate3_triple()
    assert tr.sample_point(mu, 42, 10) == tr.sample_point(mu, 42, 10)
    assert tr.sample_point(mu, 42, 10) != tr.sample_point(mu, 43, 10)


def test_sampler_field_of_definition():
    mu = corpus.tate3_triple()
    imag = tr.sample_point(mu, 1, 10)
    rat = tr.sample_rational_point(mu, 1, 10)
    def entries(alpha):
        return [x for _, a in alpha.sections for row in a for x in row]
    assert any(not x.is_rational() for x in entries(imag))
    assert all(x.is_rational() for x in entries(rat))


def test_sampled_points_build_valid_structures():
    for s in SEEDS:
        mu = random_triple(s, max_dim=5)
        for maker in [tr.sample_point, tr.sample_rational_point]:
            alpha = maker(mu, f"v:{s}", 6)
            assert not tr.tpoint_problems(mu, alpha)
            m = tr.build_mhs(mu, alpha)
            assert mh.is_valid(m) and tr.matches_triple(mu, m)
    # build_mhs does not validate what it builds; these are its checks.
    for i, m in enumerate(m for m in oracle_structures() if mh.is_valid(m)):
        mu = tr.triple_of(m)
        assert tr.build_mhs(mu, tr.sections_from_mhs(mu, m)) == m
        for maker in [tr.sample_point, tr.sample_rational_point]:
            built = tr.build_mhs(mu, maker(mu, f"oracle:{i}", 6))
            assert mh.is_valid(built) and tr.matches_triple(mu, built)


# -- dimension of the space -----------------------------------------------------

def test_dim_s_examples():
    assert tr.dim_S(corpus.kummer_triple()) == 1
    assert tr.dim_S(corpus.tate3_triple()) == 3
    pure = tr.triple_of(mh.tate_twist(2))
    assert tr.dim_S(pure) == 0
    assert tr.dim_S(tr.zero_triple()) == 0
    # With k steps of rank one, each pair of steps adds one dimension.
    assert [tr.dim_S(tate_triple(tuple(range(-2 * (k - 1), 1, 2))))
            for k in range(3, 9)] == [3, 6, 10, 15, 21, 28]


def _hom_oracle_triples():
    """The triples of the valid oracle structures, the Tate-CM triple and
    random triples of dimension at most 5."""
    return ([tr.triple_of(m) for m in oracle_structures() if mh.is_valid(m)]
            + [corpus.tate_cm_triple()] + [random_triple(s, 5) for s in range(40)])


def test_lie_data_matches_the_hom_oracle():
    for mu in _hom_oracle_triples():
        assert tr.lie_data(mu) == hom_lie_data(mu)


def test_lie_data_bracket_closed():
    for mu in [corpus.kummer_triple(), corpus.tate3_triple(),
               corpus.two_weight_triple()]:
        data = tr.lie_data(mu)
        assert un.end_subspace_is_bracket_closed(data.w_minus1_end, mu.dim)


# -- truncation -----------------------------------------------------------------

def test_truncate_tate3():
    mu = corpus.tate3_triple()
    low, high = tr.truncate(mu, -2)
    assert low.dim == 2 and [n for n, _ in low.graded] == [-6, -2]
    assert high.dim == 1 and [n for n, _ in high.graded] == [0]
    assert not tr.triple_problems(low) and not tr.triple_problems(high)
    # Degenerate cuts return the zero triple on one side.
    assert tr.truncate(mu, -7) == (tr.zero_triple(), mu)
    assert tr.truncate(mu, 0)[1] == tr.zero_triple()


def test_truncation_commutes_with_build():
    for s in SEEDS:
        mu = random_triple(s, max_dim=5)
        cuts = [p for p in mu.W.jumps
                if not mu.W.at(p).is_zero() and not mu.W.at(p).is_full()]
        alpha = tr.sample_point(mu, f"tr:{s}", 6)
        m = tr.build_mhs(mu, alpha)
        for p in cuts:
            low, high = tr.truncate(mu, p)
            a_low, a_high = tr.truncate_point(mu, p, alpha)
            wp = mu.W.at(p)
            sel = la.coords_map(wp)
            # Build of the truncated point = truncation of the built structure.
            m_low = tr.build_mhs(low, a_low)
            sub = mh.sub_mhs(m, wp)
            assert m_low.F == sub.F and m_low.W == sub.W
            m_high = tr.build_mhs(high, a_high)
            quo = mh.quotient_mhs(m, wp)
            assert m_high.F == quo.F and m_high.W == quo.W


# The truncation that re-expressed every kept piece through the change of
# coordinates t = pi_new . proj . section, kept as the oracle for truncate,
# which keeps the pieces as they are because t is always the identity.

def _transport(mu, proj, keep, new_w, new_dim):
    new_pieces = {p.weight: p for p in mh.graded_pieces(new_w)}
    graded = []
    for piece, (n, g) in zip(mh.graded_pieces(mu.W), mu.graded):
        if not keep(n):
            continue
        t = la.mat_mul(new_pieces[n].pi,
                       la.to_qi_mat(la.mat_mul(proj, piece.section)))
        f = {p: la.apply_to_subspace(t, g.F.at(p))
             for p in g.F.jumps}
        graded.append((n, mh.make_mhs(g.dim, {n: Subspace.full(Q, g.dim)}, f)))
    return tr.Triple(new_dim, new_w, tuple(graded))


def transport_truncate(mu, p):
    tr.check_triple(mu)
    wp = mu.W.at(p)
    if wp.is_zero():
        return tr.zero_triple(), mu
    if wp.is_full():
        return mu, tr.zero_triple()
    sel = la.coords_map(wp)
    k = wp.dim
    w_low = mh.WeightFiltration.of(
        k, {n: la.apply_to_subspace(sel, s) for n, s in mu.W.steps if n <= p})
    low = _transport(mu, sel, lambda n: n <= p, w_low, k)
    proj = la.quotient_map(wp)
    kq = mu.dim - k
    w_high = mh.WeightFiltration.of(
        kq, {n: la.apply_to_subspace(proj, s) for n, s in mu.W.steps if n > p})
    high = _transport(mu, proj, lambda n: n > p, w_high, kq)
    return low, high


def _transport_point(mu, new, proj, keep, alpha):
    new_pieces = {piece.weight: piece for piece in mh.graded_pieces(new.W)}
    proj_qi = la.to_qi_mat(proj)
    secs = []
    for piece, (n, a) in zip(mh.graded_pieces(mu.W), alpha.sections):
        if not keep(n):
            continue
        t = la.mat_mul(new_pieces[n].pi,
                       la.to_qi_mat(la.mat_mul(proj, piece.section)))
        secs.append((n, la.mat_mul(la.mat_mul(proj_qi, a), la.invert(QI, t))))
    return tr.TPoint(tuple(secs))


def transport_truncate_point(mu, p, alpha, low, high):
    """The oracle for truncate_point(mu, p, alpha), given the truncated
    triples (low, high) at p."""
    wp = mu.W.at(p)
    if wp.is_zero():
        return tr.TPoint(()), alpha
    if wp.is_full():
        return alpha, tr.TPoint(())
    a_low = _transport_point(mu, low, la.coords_map(wp), lambda n: n <= p,
                             alpha)
    a_high = _transport_point(mu, high, la.quotient_map(wp), lambda n: n > p,
                              alpha)
    return a_low, a_high


def _scrambled_flag(mu, seed):
    """mu on the flag spanned by rows of a unit upper triangular matrix taken
    in a random order: the pivots new at a step may lie left of the old."""
    rng = random.Random(f"scramble:{seed}")
    order = list(range(mu.dim))
    rng.shuffle(order)
    rows = [[1 if i == j else (rng.randint(-3, 3) if j > i else 0)
             for j in range(mu.dim)] for i in order]
    steps, k = {}, 0
    for n, g in mu.graded:
        k += g.dim
        steps[n] = Subspace.span(Q, mu.dim, rows[:k])
    return tr.check_triple(tr.Triple(
        mu.dim, mh.WeightFiltration.of(mu.dim, steps), mu.graded))


def _oracle_triples():
    named = [corpus.tate3_triple(), tate_triple((-14, -6, -2, 0)),
             corpus.two_weight_triple(), corpus.kummer_triple()]
    randoms = [random_triple(s) for s in range(40)]
    scrambled = [_scrambled_flag(mu, s) for s, mu in
                 enumerate(named + [random_triple(s, max_dim=5)
                                    for s in range(8)])]
    return named + randoms + scrambled


def test_truncation_matches_transport_oracle():
    for i, mu in enumerate(_oracle_triples()):
        points = [maker(mu, f"oracle:{i}", 7)
                  for maker in (tr.sample_point, tr.sample_rational_point)]
        for p in (min(mu.W.jumps) - 1,) + mu.W.jumps:
            low, high = transport_truncate(mu, p)
            assert tr.truncate(mu, p) == (low, high), (i, p)
            for alpha in points:
                assert (tr.truncate_point(mu, p, alpha) ==
                        transport_truncate_point(mu, p, alpha, low, high)
                        ), (i, p)


# -- fibers ---------------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 40), st.integers(0, 10 ** 6), st.booleans())
def test_build_mhs_matches_the_added_oracle(seed, point, rational):
    mu = random_triple(seed)
    sample = tr.sample_rational_point if rational else tr.sample_point
    alpha = sample(mu, point, 6)
    assert tr.build_mhs(mu, alpha) == added_build_mhs(mu, alpha)


def test_build_mhs_of_the_zero_triple_is_zero():
    zero = tr.TPoint(())
    assert tr.build_mhs(tr.zero_triple(), zero) == mh.zero_mhs()
    assert added_build_mhs(tr.zero_triple(), zero) == mh.zero_mhs()


def test_members_hold_their_triples_weight_filtration(monkeypatch):
    """A member keeps its triple's W itself, not an equal copy: from
    build_mhs, and from the sampled and control points of the
    genericity experiment."""
    mu = corpus.tate3_triple()
    for maker in (tr.sample_point, tr.sample_rational_point):
        assert tr.build_mhs(mu, maker(mu, "w", 5)).W is mu.W
    members, detail = [], un.u_large_detail
    monkeypatch.setattr(un, "u_large_detail",
                        lambda m: members.append(m) or detail(m))
    un.genericity_experiment(mu, 2, "w", 5)
    assert len(members) == 5 and all(m.W is mu.W for m in members)


def test_fiber_dim_examples():
    mu = corpus.kummer_triple()
    low, high = tr.truncate(mu, -2)
    alpha = corpus.kummer_tpoint(I)
    a_low, a_high = tr.truncate_point(mu, -2, alpha)
    x, y = tr.spoint(low, a_low), tr.spoint(high, a_high)
    assert tr.fiber_dim(mu, -2, x, y) == 1

    mu3 = corpus.tate3_triple()
    low3, high3 = tr.truncate(mu3, -2)
    b = tr.sample_point(mu3, "f", 5)
    b_low, b_high = tr.truncate_point(mu3, -2, b)
    x3, y3 = tr.spoint(low3, b_low), tr.spoint(high3, b_high)
    assert tr.fiber_dim(mu3, -2, x3, y3) == 2


def test_fiber_dim_matches_the_hom_oracle():
    """At every cut, the degenerate ones included, of points of each
    triple."""
    for i, mu in enumerate(_hom_oracle_triples()):
        alpha = tr.sample_point(mu, f"fiber:{i}", 5)
        for p in (min(mu.W.jumps) - 1,) + mu.W.jumps:
            low, high = tr.truncate(mu, p)
            a_low, a_high = tr.truncate_point(mu, p, alpha)
            x, y = tr.spoint(low, a_low), tr.spoint(high, a_high)
            assert tr.fiber_dim(mu, p, x, y) == hom_fiber_dim(mu, p, x, y)


def test_fiber_dims_are_positive_across_corpus_cuts():
    for mu in [corpus.kummer_triple(), corpus.tate3_triple(),
               corpus.two_weight_triple()]:
        alpha = tr.sample_point(mu, "cuts", 5)
        for p in mu.W.jumps[:-1]:
            low, high = tr.truncate(mu, p)
            a_low, a_high = tr.truncate_point(mu, p, alpha)
            x, y = tr.spoint(low, a_low), tr.spoint(high, a_high)
            assert tr.fiber_dim(mu, p, x, y) >= 1

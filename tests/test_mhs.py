"""Mixed Hodge structures: validation, functors, bigrading, sub/quotient."""

from fractions import Fraction

import pytest

from helpers import random_mhs, tate_triple
from mhslab import corpus
from mhslab import linalg as la
from mhslab import mhs as mh
from mhslab import triples as tr
from mhslab.errors import NotAnMhsError, NotASubobjectError
from mhslab.field import Q, QI, GaussRat, I
from mhslab.linalg import Subspace

SEEDS = range(12)


# -- validation ---------------------------------------------------------------

def test_corpus_validates():
    for m in [corpus.tate_mhs(0), corpus.tate_mhs(3), corpus.tate_mhs(-2),
              corpus.kummer_mhs(GaussRat(0)),
              corpus.kummer_mhs(GaussRat(Fraction(1, 2))),
              corpus.kummer_mhs(I),
              corpus.kummer_mhs(GaussRat(1, 1)),
              corpus.two_weight_mhs()]:
        assert mh.is_valid(m), mh.validate_mhs(m)


def test_invalid_purity_rejected():
    # Weight 0 but Hodge filtration concentrated in degree 1 only:
    # Gr F^1 + conj Gr F^0 cannot be everything.
    m = mh.make_mhs(1, {0: Subspace.full(Q, 1)}, {1: Subspace.full(QI, 1)})
    problems = mh.validate_mhs(m)
    assert problems
    with pytest.raises(NotAnMhsError):
        mh.check_valid(m)


def test_invalid_non_opposed_rejected():
    # dim 2, pure weight 0, F^1 a non-real line with F^1 + conj F^1 != all.
    line = Subspace.span(QI, 2, [(GaussRat(1), GaussRat(0))])
    m = mh.make_mhs(2, {0: Subspace.full(Q, 2)},
                    {0: Subspace.full(QI, 2), 1: line})
    assert not mh.is_valid(m)


def test_random_structures_validate():
    for s in SEEDS:
        assert mh.is_valid(random_mhs(s))


# -- functors -----------------------------------------------------------------

def test_tate_normalization():
    m = mh.tate_twist(1)
    assert m.W.jumps == (-2,)
    assert m.F.jumps == (-1,)
    assert mh.dual(m) == mh.tate_twist(-1)
    assert mh.tensor(mh.tate_twist(1), mh.tate_twist(2)) == mh.tate_twist(3)


def test_functor_outputs_validate():
    for s in SEEDS:
        m = random_mhs(s, max_dim=4)
        assert mh.is_valid(mh.dual(m))
        assert mh.is_valid(mh.direct_sum(m, mh.tate_twist(1)))
    for s in range(6):
        m = random_mhs(s, max_dim=3)
        assert mh.is_valid(mh.tensor(m, m))
        assert mh.is_valid(mh.hom(m, m))


def _chained_tensor(m, n):
    """The reference for mh.tensor: each step is the sum over the jumps
    a of m of W_a(m) (x) W_(k-a)(n) (and likewise for F), added one
    product at a time."""
    def sub(u, v, field):
        rows = [la.kron_vec(a, b) for a in u.basis for b in v.basis]
        return Subspace.span(field, u.ambient_dim * v.ambient_dim, rows)
    dim = m.dim * n.dim
    w = {}
    for k in sorted({a + b for a in m.W.jumps for b in n.W.jumps}):
        total = Subspace.zero(Q, dim)
        for a in m.W.jumps:
            total = la.add(total, sub(m.W.at(a), n.W.at(k - a), Q))
        w[k] = total
    f = {}
    for p in sorted({a + b for a in m.F.jumps for b in n.F.jumps}):
        total = Subspace.zero(QI, dim)
        for a in m.F.jumps:
            total = la.add(total, sub(m.F.at(a), n.F.at(p - a), QI))
        f[p] = total
    return mh.make_mhs(dim, w, f)


def _three_step(seed):
    mu = corpus.tate3_triple()
    return tr.build_mhs(mu, tr.sample_point(mu, seed, 10))


def test_tensor_matches_chained_sums():
    structures = [corpus.tate_mhs(0), corpus.tate_mhs(3), corpus.tate_mhs(-2),
                  corpus.kummer_mhs(GaussRat(0)),
                  corpus.kummer_mhs(GaussRat(Fraction(1, 2))),
                  corpus.kummer_mhs(I), corpus.kummer_mhs(GaussRat(1, 1)),
                  corpus.two_weight_mhs()]
    structures += [mh.dual(m) for m in structures]
    for m in structures:
        for n in structures:
            assert mh.tensor(m, n) == _chained_tensor(m, n)
        assert mh.tensor(m, mh.zero_mhs()) == _chained_tensor(m, mh.zero_mhs())
        assert mh.tensor(mh.zero_mhs(), m) == _chained_tensor(mh.zero_mhs(), m)
    members = [_three_step("oracle:1"), _three_step("oracle:2")]
    for m in members:
        for n in members:
            assert mh.hom(m, n) == _chained_tensor(mh.dual(m), n)
    # The four left-associated degree-3 powers that mt_lie_upper_bound uses.
    m = members[0]
    md = mh.dual(m)
    for a in range(4):
        factors = [m] * a + [md] * (3 - a)
        fast = slow = factors[0]
        for x in factors[1:]:
            fast, slow = mh.tensor(fast, x), _chained_tensor(slow, x)
        assert fast == slow


def test_double_dual_identity():
    for s in SEEDS:
        m = random_mhs(s, max_dim=4)
        assert mh.dual(mh.dual(m)) == m


def test_hom_is_tensor_with_dual():
    for s in SEEDS:
        m = random_mhs(s, max_dim=3)
        n = random_mhs(f"other:{s}", max_dim=3)
        assert mh.hom(m, n) == mh.tensor(mh.dual(m), n)


def test_hom_from_unit_is_identity():
    for s in SEEDS:
        m = random_mhs(s, max_dim=4)
        h = mh.hom(mh.tate_twist(0), m)
        assert h == m


def test_hom_vec_mat_round_trip():
    a = la.mat(Q, [[1, 2, 3], [4, 5, 6]])  # map Q^3 -> Q^2
    v = mh.hom_vec(a, 3, 2)
    assert mh.hom_mat(v, 3, 2) == a
    # Composition corresponds to matrix product of the underlying maps.
    b = la.mat(Q, [[1, 1, 1], [0, 1, 0]])
    assert mh.hom_mat(mh.hom_vec(b, 3, 2), 3, 2) == b


# -- morphisms and strictness -------------------------------------------------

def test_splitting_is_filtered_isomorphism():
    for s in SEEDS:
        m = random_mhs(s, max_dim=5)
        a = mh.deligne_splitting(m)
        gm = mh.graded_mhs(m)
        # a_M maps M_C to its graded, respecting W (rationally) and F.
        for n in m.W.jumps:
            w = m.W.at(n).to_qi()
            gw = gm.W.at(n).to_qi()
            assert gw.contains_subspace(la.apply_to_subspace(a, w))
        for p in m.F.jumps:
            img = la.apply_to_subspace(a, m.F.at(p))
            assert gm.F.at(p).contains_subspace(img)
        assert la.invert(QI, a) is not None


# -- bigrading ----------------------------------------------------------------

def _bigrading_axioms(m):
    big = dict(mh.deligne_bigrading(m).items())
    # Direct sum of everything is the full space.
    total = Subspace.zero(QI, m.dim)
    dims = 0
    for s in big.values():
        total = la.add(total, s)
        dims += s.dim
    assert total.is_full() and dims == m.dim
    # W and F are recovered as partial sums.
    for n in m.W.jumps:
        w = Subspace.zero(QI, m.dim)
        for (p, q), s in big.items():
            if p + q <= n:
                w = la.add(w, s)
        assert w == m.W.at(n).to_qi()
    for pj in m.F.jumps:
        f = Subspace.zero(QI, m.dim)
        for (p, q), s in big.items():
            if p >= pj:
                f = la.add(f, s)
        assert f == m.F.at(pj)
    # Conjugation symmetry modulo lower weight.
    for (p, q), s in big.items():
        target = big.get((q, p), Subspace.zero(QI, m.dim)).conj()
        lower = Subspace.zero(QI, m.dim)
        for (a, b), t in big.items():
            if a + b <= p + q - 2:
                lower = la.add(lower, t)
        assert la.add(target, lower).contains_subspace(s)


def test_bigrading_axioms_on_corpus():
    for m in [corpus.kummer_mhs(I), corpus.kummer_mhs(GaussRat(1, 1)),
              corpus.two_weight_mhs(), corpus.tate_mhs(2)]:
        _bigrading_axioms(m)


def test_bigrading_axioms_random():
    for s in SEEDS:
        _bigrading_axioms(random_mhs(s, max_dim=5))


def grid_bigrading(m):
    """Reference: I^{p,q} over the whole square (p, q) grid around the
    jumps of F and W, as `deligne_bigrading` scanned it before it visited
    only p in F.jumps and p + q in W.jumps."""
    mh.check_valid(m)
    if m.dim == 0:
        return mh.Bigrading(0, ())
    wj, fj = m.W.jumps, m.F.jumps
    lo = min(min(fj), min(wj) - max(fj)) - 1
    hi = max(max(fj), max(wj) - min(fj)) + 1
    comps = []
    for p in range(lo, hi + 1):
        for q in range(lo, hi + 1):
            n = p + q
            if n < min(wj) or n > max(wj):
                continue
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
    return mh.Bigrading(m.dim, tuple(comps))


def _bigrading_cases():
    yield from [corpus.kummer_mhs(I), corpus.kummer_mhs(GaussRat(1, 1)),
                corpus.two_weight_mhs(), corpus.tate_mhs(2)]
    for s in SEEDS[:6]:
        yield random_mhs(s, max_dim=5)
    three = tate_triple((-6, -2, 0))
    m = tr.build_mhs(three, tr.sample_point(three, "grid", 10))
    yield mh.hom(m, m)
    four = tate_triple((-14, -6, -2, 0))
    m = tr.build_mhs(four, tr.sample_point(four, "grid", 10))
    for p in (-14, -6, -2):
        wp = m.W.at(p)
        yield mh.hom(mh.quotient_mhs(m, wp), mh.sub_mhs(m, wp))


def test_bigrading_on_jumps_matches_grid():
    for m in _bigrading_cases():
        assert mh.deligne_bigrading(m) == grid_bigrading(m)


def test_kummer_bigrading_explicit():
    z = I
    m = corpus.kummer_mhs(z)
    big = dict(mh.deligne_bigrading(m).items())
    assert set(big) == {(-1, -1), (0, 0)}
    assert big[(-1, -1)] == Subspace.span(QI, 2, [(GaussRat(1), GaussRat(0))])
    # F^0 is one-dimensional here, so I^{0,0} is F^0 itself.
    assert big[(0, 0)].contains((z, GaussRat(1)))


# -- sub / quotient / graded --------------------------------------------------

def test_kummer_subquotient():
    z = I
    m = corpus.kummer_mhs(z)
    w = Subspace.span(Q, 2, [(1, 0)])
    sub = mh.sub_mhs(m, w)
    assert sub == mh.tate_twist(1)
    quo = mh.quotient_mhs(m, w)
    assert quo == mh.tate_twist(0)
    # The non-weight line is not a subobject (its F restriction has wrong type).
    bad = Subspace.span(Q, 2, [(0, 1)])
    assert mh.try_sub_mhs(m, bad) is None
    with pytest.raises(NotASubobjectError):
        mh.sub_mhs(m, bad)


def test_gr_w_pieces():
    m = corpus.two_weight_mhs()
    pieces = dict(mh.gr_w(m))
    assert set(pieces) == {-1, 0}
    assert pieces[-1].dim == 2 and mh.is_valid(pieces[-1])
    assert pieces[0].dim == 2 and pieces[0] == mh.direct_sum(
        mh.tate_twist(0), mh.tate_twist(0))


def test_graded_mhs_is_direct_sum_of_gr():
    for s in SEEDS:
        m = random_mhs(s, max_dim=5)
        g = mh.graded_mhs(m)
        assert mh.is_valid(g)
        # Same weight jumps with the same graded dimensions (the graded
        # structure lives in block coordinates, so the flags differ).
        assert g.W.jumps == m.W.jumps
        for n in m.W.jumps:
            assert g.W.at(n).dim == m.W.at(n).dim
        assert sum(pure.dim for _, pure in mh.gr_w(m)) == m.dim


# -- Hodge classes ------------------------------------------------------------

def test_hodge_classes_examples():
    assert mh.hodge_classes(mh.tate_twist(0)).is_full()
    assert mh.hodge_classes(mh.tate_twist(1)).is_zero()
    z = GaussRat(Fraction(1, 2))
    k = corpus.kummer_mhs(z)
    h = mh.hodge_classes(mh.hom(k, k))
    assert h.dim >= 1  # at least the identity
    assert h.contains(mh.hom_vec(la.identity(Q, 2), 2, 2))


def test_hodge_classes_live_in_w0():
    for s in SEEDS:
        m = random_mhs(s, max_dim=5)
        h = mh.hodge_classes(m)
        w0 = m.W.at(0)
        for v in h.basis:
            assert w0.contains(v)
        # Equal to the Hodge classes of the weight <= 0 part.
        if not w0.is_zero():
            sub = mh.sub_mhs(m, w0)
            hs = mh.hodge_classes(sub)
            assert hs.dim == h.dim


def test_identity_is_hodge_class_in_end():
    for s in SEEDS:
        m = random_mhs(s, max_dim=4)
        h = mh.hodge_classes(mh.hom(m, m))
        assert h.contains(mh.hom_vec(la.identity(Q, m.dim), m.dim, m.dim))

"""Mixed Hodge structures: validation, functors, bigrading, sub/quotient."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (folded_graded_mhs, graded_offsets, kron_vec,
                     oracle_structures, padded_direct_sum, random_mhs,
                     tate_triple, walked_bigrading)
from mhslab import cli, corpus
from mhslab import linalg as la
from mhslab import loci as lo
from mhslab import mhs as mh
from mhslab import serialize as se
from mhslab import triples as tr
from mhslab.errors import MhsError, NotAnMhsError, NotASubobjectError
from mhslab.field import Q, QI, GaussRat, I, zero
from mhslab.linalg import Subspace

SEEDS = range(12)


def two_jump_mhs(k, valid=True):
    """Dimension 2 with W jumping at -2k and 0 and F at -k and 0: Q(0)
    extended by Q(k), or, with F^0 inside W_{-2k}, not a structure.  The
    gaps between the jumps grow with k, the number of jumps does not."""
    f0 = (GaussRat(1), GaussRat(0)) if not valid else (
        GaussRat(Fraction(1, 3), 2), GaussRat(1))
    return mh.make_mhs(2, {-2 * k: Subspace.span(Q, 2, [(1, 0)]),
                           0: Subspace.full(Q, 2)},
                       {-k: Subspace.full(QI, 2),
                        0: Subspace.span(QI, 2, [f0])})


GAP_CASES = (two_jump_mhs(10), two_jump_mhs(10, valid=False))


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


def purity_window(n, fjumps):
    """Every integer p at which purity in weight n can fail, as
    validate_mhs walked them before it visited only the runs of steps."""
    fjumps = list(fjumps)
    if not fjumps:
        return range(0)
    lo = min(min(fjumps), n - max(fjumps)) - 1
    hi = max(max(fjumps), n - min(fjumps)) + 1
    return range(lo, hi + 1)


def _window_graded_f(m, piece, p):
    """F^p on a graded piece, as the image of F^p M ∩ W_n, at any p."""
    wn = m.W.at(piece.weight).to_qi()
    return la.apply_to_subspace(piece.pi, la.intersect(m.F.at(p), wn))


def window_validate(m):
    """Reference for validate_mhs: the purity test by intersection and
    sum, with F of each graded piece formed anew for every p."""
    problems = m.W.problems() + m.F.problems()
    if problems:
        return problems
    for piece in mh.graded_pieces(m.W):
        n = piece.weight
        for p in purity_window(n, m.F.jumps):
            fp = _window_graded_f(m, piece, p)
            opp = _window_graded_f(m, piece, n - p + 1).conj()
            if la.intersect(fp, opp).dim != 0 or la.add(fp, opp).dim != piece.dim:
                problems.append(
                    f"Gr_{n} is not pure of weight {n}: "
                    f"F^{p} (+) conj(F^{n - p + 1}) fails")
    return problems


def window_gr_w(m):
    """Reference for gr_w: F of each graded piece over the purity window."""
    out = []
    for piece in mh.graded_pieces(m.W):
        f = {p: _window_graded_f(m, piece, p)
             for p in purity_window(piece.weight, m.F.jumps)}
        out.append((piece.weight, mh.make_mhs(
            piece.dim, {piece.weight: Subspace.full(Q, piece.dim)}, f)))
    return out


def test_validate_and_gr_w_match_the_window_oracle():
    invalid = 0
    for m in oracle_structures() + GAP_CASES:
        problems = mh.validate_mhs(m)
        assert problems == window_validate(m)
        invalid += bool(problems)
        if not (m.W.problems() or m.F.problems()):
            assert mh.gr_w(m) == window_gr_w(m)
    assert invalid >= 100


def test_graded_pieces_cache_matches_the_uncached_function_and_is_bounded():
    build = mh.graded_pieces.__wrapped__
    ws = {m.W for m in oracle_structures()}
    for m in oracle_structures():
        assert mh.graded_pieces(m.W) == build(m.W)
    info = mh.graded_pieces.cache_info()
    assert info.maxsize is not None and len(ws) > info.maxsize
    assert info.currsize <= info.maxsize


# -- functors -----------------------------------------------------------------

def test_tate_normalization():
    m = mh.tate_twist(1)
    assert m.W.jumps == (-2,)
    assert m.F.jumps == (-1,)
    assert mh.dual(m) == mh.tate_twist(-1)
    assert mh.tensor(mh.tate_twist(1), mh.tate_twist(2)) == mh.tate_twist(3)
    # Structures are immutable: the triples built from Q(k) share one object.
    assert mh.tate_twist(1) is m


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
        rows = [kron_vec(a, b) for a in u.basis for b in v.basis]
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


def range_dual(m):
    """Reference for mh.dual: every integer k and p between the bounds set
    by the jumps, as dual walked them before it visited only the jumps."""
    w = {}
    if m.W.jumps:
        for k in range(-max(m.W.jumps) - 1, -min(m.W.jumps) + 1):
            w[k] = la.annihilator(m.W.at(-k - 1))
    f = {}
    if m.F.jumps:
        for p in range(-max(m.F.jumps), -min(m.F.jumps) + 2):
            f[p] = la.annihilator(m.F.at(-p + 1))
    return mh.make_mhs(m.dim, w, f)


def test_dual_matches_the_range_oracle():
    for m in oracle_structures() + GAP_CASES + (mh.zero_mhs(),):
        assert mh.dual(m) == range_dual(m)


def test_step_walks_reduce_as_often_at_any_gap(monkeypatch, tmp_path):
    """validate, split and functors visit steps, not the integers between
    them, so they make as many reductions at k = 10 as at k = 10^5.  Every
    reduction, of scalar rows or of the integer products that tensor
    spans, goes through the integer core _int_rref."""
    calls = []
    rref = la._int_rref
    monkeypatch.setattr(la, "_int_rref",
                        lambda m, field: calls.append(1) or rref(m, field))
    counts = {}
    for k in (10, 10 ** 5):
        path = tmp_path / f"gap{k}.json"
        path.write_text(se.dumps(se.mhs_to_json(two_jump_mhs(k))))
        invalid = two_jump_mhs(k, valid=False)
        for verb in ("validate", "split", "functors"):
            calls.clear()
            assert cli.main([verb, str(path), "--out",
                             str(tmp_path / "out.json")]) == 0
            counts[k, verb] = len(calls)
        calls.clear()
        assert len(mh.validate_mhs(invalid)) > 2 * k
        counts[k, "invalid"] = len(calls)
    for key in ("validate", "split", "functors", "invalid"):
        assert counts[10, key] == counts[10 ** 5, key], key


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
        gm = mh.graded_mhs(mh.gr_w(m))
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
    big = dict(mh.deligne_bigrading(m))
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
        return ()
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
    return tuple(comps)


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
    yield GAP_CASES[0]


def test_bigrading_on_jumps_matches_grid():
    for m in _bigrading_cases():
        assert mh.deligne_bigrading(m) == grid_bigrading(m)


# -- Deligne projectors ---------------------------------------------------------

def _splitting_oracle(m):
    """T . S^-1, as deligne_splitting built it before the projectors: S
    has bases of the I^{p,q} as columns, T their images placed in graded
    coordinates."""
    if m.dim == 0:
        return ()
    big = mh.deligne_bigrading(m)
    pieces = {piece.weight: (offset, piece)
              for offset, piece in graded_offsets(m.W)}
    z = (zero(QI),)
    src_cols = []
    tgt_cols = []
    for (p, q), comp in big:
        offset, piece = pieces[p + q]
        before, after = offset, m.dim - offset - piece.dim
        for v in comp.basis:
            src_cols.append(v)
            tgt_cols.append(z * before + la.mat_vec(piece.pi, v) + z * after)
    if len(src_cols) != m.dim:
        raise NotAnMhsError(["bigrading does not span the space"])
    s = la.transpose(tuple(src_cols))
    t = la.transpose(tuple(tgt_cols))
    return la.mat_mul(t, la.invert(QI, s))


def _inverted_splitting_projectors(m, alpha):
    """The weight projectors as u_p read them off the splitting alpha of
    m: the blocks of its inverse and of itself at each graded offset."""
    inv = la.invert(QI, alpha)
    return [la.mat_mul(tuple(row[offset:offset + g.dim] for row in inv),
                       alpha[offset:offset + g.dim])
            for offset, g in graded_offsets(m.W)]


@functools.lru_cache(maxsize=None)
def _projector_cases():
    """The valid oracle structures, then three- and four-step members at
    fresh seeds with the Hom structures of their weight cuts."""
    out = [m for m in oracle_structures() if mh.is_valid(m)]
    for weights in ((-6, -2, 0), (-14, -6, -2, 0)):
        mu = tate_triple(weights)
        for s in range(2):
            m = tr.build_mhs(mu, tr.sample_point(mu, f"projectors:{s}", 10))
            out.append(m)
            for p in weights[:-1]:
                wp = m.W.at(p)
                out.append(mh.hom(mh.quotient_mhs(m, wp), mh.sub_mhs(m, wp)))
    return tuple(out)


def test_bigrading_matches_the_walk_on_the_projector_cases(monkeypatch):
    """Also on Hom spaces of weight cuts.  A component is F^p . W_n, read
    off one reduction of F^p in graded coordinates, wherever that has
    dimension h^{p,q}: at every (p, n) of a graded-Tate structure, which
    therefore makes no la.intersect call.  Elsewhere the correction sum
    intersects."""
    tate = [m for m in _projector_cases() if _is_graded_tate(m)]
    assert len(tate) >= 8
    calls = []
    intersect = la.intersect
    monkeypatch.setattr(la, "intersect",
                        lambda u, v: calls.append(1) or intersect(u, v))
    corrected = 0
    for m in _projector_cases():
        calls.clear()
        big = mh.deligne_bigrading(m)
        corrected += bool(calls)
        if m in tate:
            assert calls == []
        assert big == walked_bigrading(m)
    assert corrected > 0


def _pencil_members():
    """Members at t = 0, 1 and i of the three-step pencil through cut -2
    of a sampled point, based at its weight-0 section in direction e1,
    and of pencils of random triples, whose W is no coordinate flag."""
    three = tate_triple((-6, -2, 0))
    alpha = tr.sample_point(three, "pen", 10)
    pencils = [(three, -2, alpha, alpha.section(0), la.mat(QI, [[1], [0], [0]]))]
    for seed in range(6):
        mu = helpers.random_triple(seed)
        alpha = tr.sample_point(mu, f"pen:{seed}", 6)
        for p in mu.W.jumps[:-1]:
            wp = mu.W.at(p)
            incl = la.to_qi_mat(la.inclusion_map(wp))
            psi0 = la.solve_matrix(QI, la.to_qi_mat(la.quotient_map(wp)),
                                   la.identity(QI, mu.dim - wp.dim))
            dpsi = la.mat_mul(incl, tuple((GaussRat(1),) * (mu.dim - wp.dim)
                                          for _ in range(wp.dim)))
            pencils.append((mu, p, alpha, psi0, dpsi))
    out = []
    for mu, p, alpha, psi0, dpsi in pencils:
        low, high = tr.truncate(mu, p)
        a_low, a_high = tr.truncate_point(mu, p, alpha)
        pencil = lo.Pencil(mu, p, tr.spoint(low, a_low), tr.spoint(high, a_high),
                           psi0, dpsi).check()
        out += [lo.pencil_member(pencil, t) for t in (GaussRat(0), GaussRat(1), I)]
    return out


@functools.lru_cache(maxsize=None)
def _table_cases():
    """The projector cases; 200 three-step members, 40 of them rational;
    20 four-step members; members of the CM, two-weight and Kummer
    triples; and pencil members."""
    out = list(_projector_cases())
    three, four = tate_triple((-6, -2, 0)), tate_triple((-14, -6, -2, 0))
    out += [tr.build_mhs(three, tr.sample_point(three, f"table:{s}", 10))
            for s in range(160)]
    out += [tr.build_mhs(three, tr.sample_rational_point(three, f"table:{s}", 10))
            for s in range(40)]
    out += [tr.build_mhs(four, tr.sample_point(four, f"table:{s}", 10))
            for s in range(20)]
    for mu in (corpus.tate_cm_triple(), corpus.two_weight_triple(),
               corpus.kummer_triple()):
        out += [tr.build_mhs(mu, tr.sample_point(mu, f"table:{s}", 10))
                for s in range(3)]
    out += [corpus.two_weight_mhs()] + _pencil_members()
    return tuple(out)


def test_bigrading_matches_the_table_of_intersections():
    """The one reduction per Hodge step gives the components the whole
    table of F^p . W_n gave (helpers.table_bigrading), as the same
    reduced echelon subspaces, and so the same frame."""
    for m in _table_cases():
        assert mh.deligne_bigrading(m) == helpers.table_bigrading(m)


def test_weight_meets_match_the_intersections():
    """dims[k], at(k) and graded(k) of each step F^p are dim F^p . W_n,
    F^p . W_n and its image F^p Gr^W_n under pi_n at every jump n, also
    where W is no coordinate flag, so that the graded basis B is not the
    identity."""
    cases = [m for m in _table_cases() if m.dim]
    flags = [m for m in cases if mh.graded_basis(m.W).basis is not None]
    assert len(flags) >= 20
    for m in cases:
        for _, f in m.F.steps:
            meets = mh._WeightMeets(f, m.W, mh.graded_basis(m.W))
            for k, ((_, wn), piece) in enumerate(zip(m.W.steps,
                                                     mh.graded_pieces(m.W))):
                meet = la.intersect(f, wn.to_qi())
                assert meets.dims[k] == meet.dim
                assert meets.at(k) == meet
                assert meets.graded(k) == la.apply_to_subspace(piece.pi, meet)


def _gr_w_cases():
    """The structures of oracle_structures() whose W and F are
    filtrations, and a sampled and a rational member of random triples
    of dimension at most 5, most of them off the coordinate flag."""
    cases = [m for m in oracle_structures()
             if not (m.W.problems() or m.F.problems())]
    for s in range(30):
        mu = helpers.random_triple(s, 5)
        cases += [tr.build_mhs(mu, tr.sample_point(mu, s, 6)),
                  tr.build_mhs(mu, tr.sample_rational_point(mu, s, 6))]
    return cases


def test_gr_w_matches_the_intersection_oracle_and_intersects_nothing(
        monkeypatch):
    """gr_w reads each F^p Gr^W_n off one reduction of F^p in graded
    coordinates: the same reduced echelon subspaces as the image of
    F^p . W_n (helpers.intersection_gr_w), with no la.intersect call."""
    cases = _gr_w_cases()
    assert sum(mh.graded_basis(m.W).basis is not None for m in cases) >= 40
    expected = [helpers.intersection_gr_w(m) for m in cases]
    calls = []
    monkeypatch.setattr(la, "intersect", lambda u, v: calls.append(1))
    for m, graded in zip(cases, expected):
        assert mh.gr_w(m) == graded
    assert calls == []


def test_graded_basis_is_adapted_and_cached():
    """B's columns are the sections of the pieces in ascending weight, so
    the first dim W_n of them span W_n; it is held once per value of W."""
    for m in _table_cases():
        g = mh.graded_basis(m.W)
        assert g.dims == tuple(s.dim for _, s in m.W.steps)
        b = la.identity(Q, m.dim) if g.basis is None else g.basis
        assert g.inverse is None or la.mat_mul(b, g.inverse) == la.identity(Q, m.dim)
        for d, (_, wn) in zip(g.dims, m.W.steps):
            assert Subspace.span(Q, m.dim, la.transpose(b)[:d]) == wn
    mu = tate_triple((-6, -2, 0))
    w = mh.WeightFiltration.of(3, dict(mu.W.steps))
    assert w is not mu.W and mh.graded_basis(w) is mh.graded_basis(mu.W)
    assert mh.graded_basis(w).basis is None


def _is_graded_tate(m):
    return all(n % 2 == 0 and pure.F.at(n // 2).is_full()
               for n, pure in mh.gr_w(m))


_bigrading_once = functools.lru_cache(maxsize=None)(mh.deligne_bigrading)


@pytest.fixture
def bigrading_once(monkeypatch):
    """One bigrading per structure for every map read off it; the
    bigrading itself is checked against the grid oracle above."""
    monkeypatch.setattr(mh, "deligne_bigrading", _bigrading_once)


def test_splitting_and_projectors_match_the_inverted_splitting_oracles(
        bigrading_once):
    """The splitting S_gr . T, and the weight projectors S_n . T_n of the
    frame (helpers.deligne_projectors), against the blocks of the
    inverted splitting T . S^-1."""
    assert mh.deligne_splitting(mh.zero_mhs()) == _splitting_oracle(mh.zero_mhs())
    assert helpers.deligne_projectors(mh.zero_mhs()) == {}
    for m in _projector_cases():
        alpha = _splitting_oracle(m)
        assert mh.deligne_splitting(m) == alpha
        proj = helpers.deligne_projectors(m)
        assert list(proj) == [g.weight for g in mh.graded_pieces(m.W)]
        assert list(proj.values()) == _inverted_splitting_projectors(m, alpha)


def test_projectors_decompose_the_space_into_weights(bigrading_once):
    for m in _projector_cases():
        proj = helpers.deligne_projectors(m)
        big = mh.deligne_bigrading(m)
        zeros = la.zeros(QI, m.dim, m.dim)
        total = zeros
        for n, pn in proj.items():
            for k, pk in proj.items():
                assert la.mat_mul(pn, pk) == (pn if k == n else zeros)
            image = Subspace.zero(QI, m.dim)
            for (p, q), comp in big:
                if p + q == n:
                    image = la.add(image, comp)
            assert la.image(QI, pn, m.dim) == image
            total = la.mat_add(total, pn)
        assert total == la.identity(QI, m.dim)


def test_graded_frame_is_a_deligne_frame_of_the_graded(bigrading_once):
    """The frame of Gr^W M carried from M's has dual rows (T_gr . S_gr is
    the identity, with no inversion), M's types, and, type by type,
    vectors spanning the components of the bigrading of the split
    structure graded_mhs(gr_w(m)).  The splitting maps each vector of M's
    frame onto the matching vector of the graded frame."""
    for m in _projector_cases():
        frame = mh.deligne_frame(m)
        graded = mh.graded_frame(m.W, frame)
        assert graded.types == frame.types
        helpers.assert_deligne_frame(graded, mh.graded_mhs(mh.gr_w(m)))
        split = mh.deligne_splitting(m)
        assert [la.mat_vec(split, v) for v in frame.vectors] == list(graded.vectors)


def test_frame_hom_is_a_deligne_frame_of_the_hom():
    """frame_hom of the Deligne frames of A and B has dual rows and,
    type by type, spans the bigrading of mh.hom(A, B), on every ordered
    pair of Tate, CM, Kummer, two-weight and small random structures;
    the CM pieces and some random ones give types with p != q."""
    structures = ([corpus.tate_mhs(0), corpus.tate_mhs(-2), corpus.cm_piece(-1),
                   corpus.cm_piece(1), corpus.kummer_mhs(I),
                   corpus.two_weight_mhs()]
                  + [m for m in map(random_mhs, range(8)) if m.dim <= 3])
    other_types = 0
    for a in structures:
        for b in structures:
            h = mh.frame_hom(mh.deligne_frame(a), mh.deligne_frame(b))
            other_types += helpers.assert_deligne_frame(h, mh.hom(a, b))
    assert other_types > 0


def test_kummer_bigrading_explicit():
    z = I
    m = corpus.kummer_mhs(z)
    big = dict(mh.deligne_bigrading(m))
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


_ENTRIES = {Q: [0, 1, -1, 2, Fraction(1, 2)],
            QI: [0, 1, -1, GaussRat(0, 1), GaussRat(1, -2)]}


@st.composite
def filtered_spaces(draw):
    """A space of dimension 0 to 3 with W and F steps of random rows at
    random indices: nested or not, exhaustive or not."""
    dim = draw(st.integers(0, 3))

    def steps(field):
        rows = st.lists(st.lists(st.sampled_from(_ENTRIES[field]),
                                 min_size=dim, max_size=dim), max_size=dim)
        return {k: Subspace.span(field, dim, draw(rows))
                for k in draw(st.sets(st.integers(-3, 3), max_size=3))}

    return mh.make_mhs(dim, steps(Q), steps(QI))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(filtered_spaces(), filtered_spaces())
def test_direct_sum_matches_the_padded_oracle(m, n):
    assert mh.direct_sum(m, n) == padded_direct_sum(m, n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_direct_sum_of_oracle_structures_matches_the_padded_oracle(data):
    """Valid structures and perturbed ones, whose steps need not nest."""
    m, n = (data.draw(st.sampled_from(oracle_structures())) for _ in "mn")
    assert mh.direct_sum(m, n) == padded_direct_sum(m, n)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(filtered_spaces(), max_size=4))
def test_graded_mhs_matches_the_folded_oracle(structures):
    pieces = [(0, m) for m in structures]
    assert mh.graded_mhs(pieces) == folded_graded_mhs(pieces)


def test_graded_mhs_of_gr_w_matches_the_folded_oracle():
    assert mh.graded_mhs([]) == mh.zero_mhs()
    for m in oracle_structures():
        if mh.is_valid(m):
            pieces = mh.gr_w(m)
            assert mh.graded_mhs(pieces) == folded_graded_mhs(pieces)


def test_graded_mhs_is_direct_sum_of_gr():
    for s in SEEDS:
        m = random_mhs(s, max_dim=5)
        g = mh.graded_mhs(mh.gr_w(m))
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


def _chained_power(m, a, b):
    """M^(x a) (x) (M^v)^(x b), left-associated through mh.tensor."""
    out = None
    for x in [m] * a + [mh.dual(m)] * b:
        out = x if out is None else mh.tensor(out, x)
    return out


def test_power_hodge_classes_match_the_chained_tensor():
    structures = [corpus.tate_mhs(0), corpus.tate_mhs(3), corpus.tate_mhs(-2),
                  corpus.kummer_mhs(GaussRat(0)),
                  corpus.kummer_mhs(GaussRat(Fraction(1, 2))),
                  corpus.kummer_mhs(I), corpus.kummer_mhs(GaussRat(1, 1)),
                  corpus.two_weight_mhs(), _three_step("powers"),
                  mh.zero_mhs()]
    for m in structures:
        for deg in (1, 2, 3):
            for a in range(deg + 1):
                assert (mh.power_hodge_classes(m, a, deg - a)
                        == mh.hodge_classes(_chained_power(m, a, deg - a)))
    with pytest.raises(MhsError):
        mh.power_hodge_classes(corpus.kummer_mhs(I), 0, 0)


def _same_classes(got, want):
    assert got == want and got.pivots == want.pivots
    assert all(type(x) is Fraction for row in got.basis for x in row)


def test_classes_over_q_from_integer_products_match_the_q_i_oracles():
    """The classes of every power of degree at most 3, from integer
    products and W_0 . rational_part(F^0), equal those from scalar
    products and the Q(i) intersection, in value and entry type: on the
    oracle structures (powers of dimension at most 16), on three members
    of the degree-3 benchmark triple and on a CM member."""
    cm = corpus.tate_cm_triple()
    tate3 = tate_triple((-6, -2, 0))
    members = [tr.build_mhs(tate3, tr.sample_point(tate3, f"4242.{r}", 10))
               for r in range(3)] + [tr.build_mhs(cm, tr.sample_point(cm, "0", 10))]
    for m, cap in ([(m, 16) for m in oracle_structures()]
                   + [(m, 64) for m in members]):
        _same_classes(mh.hodge_classes(m), helpers.hodge_classes(m))
        for deg in (1, 2, 3):
            if m.dim ** deg > cap:
                continue
            for a in range(deg + 1):
                _same_classes(mh.power_hodge_classes(m, a, deg - a),
                              helpers.power_hodge_classes(m, a, deg - a))


def _power_members():
    """Corpus members and members of the Tate, equal-gap and CM triples,
    sampled and rational."""
    members = [corpus.tate_mhs(0), corpus.tate_mhs(3), corpus.two_weight_mhs()]
    members += [corpus.kummer_mhs(z) for z in (GaussRat(0), I, GaussRat(1, 1))]
    for mu in (tate_triple((-6, -2, 0)), tate_triple((-4, -2, 0)),
               corpus.tate_cm_triple()):
        members += [tr.build_mhs(mu, tr.sample_point(mu, s, 10))
                    for s in ("a", "b")]
        members.append(tr.build_mhs(mu, tr.sample_rational_point(mu, "r", 10)))
    return members


def _small_powers():
    """(m, a, b) for every power of degree at most 3 and dimension at most
    64 of the _power_members."""
    return [(m, a, deg - a) for m in _power_members() for deg in (1, 2, 3)
            if m.dim ** deg <= 64 for a in range(deg + 1)]


def test_rational_part_of_every_power_f0_matches_the_kernel_oracle(
        monkeypatch):
    """The integer products spanning F^0 of every power of degree at most
    3, on corpus members and on members of the Tate, equal-gap and CM
    triples: their rational part by one elimination of restricted rows
    equals the one from the kernel of Im parts of their span.  The
    sweep meets F^0 = 0, F^0 spanned by as many products as the
    dimension, and F^0 spanned by real products."""
    f0s, rational_part_ints = [], la.rational_part_ints
    monkeypatch.setattr(la, "rational_part_ints", lambda n, rows: f0s.append(
        (n, [list(r) for r in rows])) or rational_part_ints(n, rows))
    for m, a, b in _small_powers():
        mh.power_hodge_classes(m, a, b)
    assert {n for n, _ in f0s} >= {1, 3, 9, 16, 27, 64}
    assert any(not rows for _, rows in f0s)
    assert any(len(rows) == n for n, rows in f0s)
    assert any(0 < len(rows) < n and not any(x for r in rows for x in r[1::2])
               for n, rows in f0s)
    for n, rows in f0s:
        want = helpers.kernel_rational_part(
            Subspace.span_ints(QI, n, [list(r) for r in rows]))
        assert rational_part_ints(n, rows) == want


def test_power_classes_read_off_the_deligne_frame_match():
    """The classes of every power of degree at most 3 and dimension at
    most 64 of the same members, from products of the Deligne frame of M
    and its dual rows with sum p >= 0 and sum (p + q) <= 0, equal
    mh.power_hodge_classes: CM and two-weight members included."""
    powers = _small_powers()
    assert len(powers) == 135
    for m, a, b in powers:
        assert helpers.frame_power_classes(m, a, b) == mh.power_hodge_classes(m, a, b)


def test_identity_is_hodge_class_in_end():
    for s in SEEDS:
        m = random_mhs(s, max_dim=4)
        h = mh.hodge_classes(mh.hom(m, m))
        assert h.contains(mh.hom_vec(la.identity(Q, m.dim), m.dim, m.dim))

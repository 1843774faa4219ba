"""Lifting graded subobjects, construction terms, loci along pencils."""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (added_fiber_filtration, graded_offsets,
                     oracle_structures, random_triple)
from mhslab import corpus
from mhslab import linalg as la
from mhslab import loci as lo
from mhslab import mhs as mh
from mhslab import triples as tr
from mhslab.errors import (LocusError, NotAnMhsError, NotASubobjectError,
                           ParseError)
from mhslab.field import Q, QI, GaussRat, I, one, zero
from mhslab.linalg import Subspace

HALF = GaussRat(Fraction(1, 2))

GR_Q0_LINE = Subspace.span(Q, 2, [(0, 1)])   # the Q(0) line, graded coords
GR_Q1_LINE = Subspace.span(Q, 2, [(1, 0)])   # the Q(1) line = W_{-2}


def _exhaustive_lifts(m, height=4):
    """All small rational lines of a Kummer structure that are subobjects
    projecting isomorphically onto the graded Q(0) line."""
    found = []
    nums = range(-height, height + 1)
    dens = range(1, height + 1)
    for a in sorted({Fraction(n, d) for n in nums for d in dens}):
        line = Subspace.span(Q, 2, [(a, 1)])
        if mh.try_sub_mhs(m, line) is not None:
            found.append(line)
    return found


# -- lifting -------------------------------------------------------------------

@pytest.mark.parametrize("z", [GaussRat(0), HALF, I, GaussRat(1, 1)])
def test_can_lift_matches_exhaustive_search(z):
    m = corpus.kummer_mhs(z)
    lift = lo.can_lift(m, GR_Q0_LINE)
    oracle = _exhaustive_lifts(m)
    if z.is_rational():
        assert lift is not None
        assert oracle and all(s == lift for s in oracle)  # unique
    else:
        assert lift is None
        assert not oracle


def test_can_lift_trivial_cases():
    m = corpus.kummer_mhs(I)
    assert lo.can_lift(m, Subspace.zero(Q, 2)) == Subspace.zero(Q, 2)
    assert lo.can_lift(m, Subspace.full(Q, 2)) == Subspace.full(Q, 2)
    # The weight subspace always lifts to itself.
    assert lo.can_lift(m, GR_Q1_LINE) == GR_Q1_LINE


def test_can_lift_explicit_value():
    m = corpus.kummer_mhs(HALF)
    lift = lo.can_lift(m, GR_Q0_LINE)
    assert lift == Subspace.span(Q, 2, [(Fraction(1, 2), 1)])


def test_can_lift_rejects_non_subobjects():
    m = corpus.kummer_mhs(I)
    # A line that is not a subobject of the graded space (wrong weight type).
    with pytest.raises(NotASubobjectError):
        lo.can_lift(m, Subspace.span(Q, 2, [(1, 1)]))


def _graded_block_sums(m):
    """Every sum of graded blocks of m, in graded coordinates: each is a
    subobject of the associated graded."""
    unit = la.identity(Q, m.dim)
    blocks = [unit[offset:offset + g.dim] for offset, g in graded_offsets(m.W)]
    for size in range(len(blocks) + 1):
        for subset in itertools.combinations(blocks, size):
            yield Subspace.span(Q, m.dim, [r for b in subset for r in b])


def _random_candidates(rng, m, count=6):
    """Seeded random rational subspaces of the graded coordinates of m,
    most of them not subobjects of Gr^W M."""
    for _ in range(count):
        rows = [[rng.randint(-2, 2) for _ in range(m.dim)]
                for _ in range(rng.randint(1, m.dim))]
        yield Subspace.span(Q, m.dim, rows)


def _lift_or_error(lift, m, a, *args):
    """lift(m, a, *args), or the kind of error it raised."""
    try:
        return lift(m, a, *args)
    except NotASubobjectError:
        return NotASubobjectError


def test_can_lift_matches_the_inverse_splitting_oracle():
    """On every graded block sum of the valid oracle structures and on
    seeded random rational subspaces: the same lift, None, or rejection
    as a non-subobject."""
    outcomes = set()
    rng = random.Random("can-lift")
    for m in oracle_structures():
        if not mh.is_valid(m):
            continue
        split = helpers.inverse_splitting(m)
        for a in [*_graded_block_sums(m), *_random_candidates(rng, m)]:
            lift = _lift_or_error(lo.can_lift, m, a)
            assert lift == _lift_or_error(helpers.can_lift, m, a, split)
            outcomes.add("rejected" if lift is NotASubobjectError else
                         "none" if lift is None else "lifted")
            if lift not in (None, NotASubobjectError):
                assert lift.dim == a.dim
                mh.sub_mhs(m, lift)  # raises unless the lift is a subobject
    assert outcomes == {"rejected", "none", "lifted"}


def _tate3_member():
    mu = corpus.tate3_triple()
    return tr.build_mhs(mu, tr.sample_point(mu, "a", 10))


def test_can_lift_reads_one_frame_and_no_graded_structure(monkeypatch):
    """can_lift forms the Deligne frame of m once and reads the graded
    side off it: it forms no Gr^W M, validates nothing and restricts to
    no subobject, also when it rejects a non-subobject."""
    m = _tate3_member()
    frames = []
    frame = mh.deligne_frame

    def counted_frame(s):
        frames.append(s)
        return frame(s)

    def forbidden(*args):
        raise AssertionError("can_lift formed or checked a structure")
    monkeypatch.setattr(mh, "deligne_frame", counted_frame)
    for name in ("gr_w", "graded_mhs", "sub_mhs", "validate_mhs"):
        monkeypatch.setattr(mh, name, forbidden)
    for rows in ([(0, 0, 1)], [(1, 0, 0), (0, 1, 0)]):
        frames.clear()
        lo.can_lift(m, Subspace.span(Q, 3, rows))
        assert frames == [m]
    frames.clear()
    with pytest.raises(NotASubobjectError):
        lo.can_lift(m, Subspace.span(Q, 3, [(1, 1, 0)]))
    assert frames == [m]


def test_can_lift_validates_once_and_inverts_only_for_the_projectors(
        monkeypatch):
    m = _tate3_member()
    mh.graded_pieces(m.W)  # the cached coordinates, formed by any build
    validations, inside, reductions, eliminations = [], [], [], []
    validate, frame = mh.validate_mhs, mh.deligne_frame
    invert, rref, eliminate = la.invert, la._rref, la._eliminate

    def counted_validate(s):
        validations.append(s)
        return validate(s)

    def marked_frame(s):
        inside.append(True)
        try:
            return frame(s)
        finally:
            inside.pop()

    def guarded_invert(field, a):
        assert inside, "can_lift inverted outside the Deligne frame"
        return invert(field, a)

    def counted_rref(rows, field):
        reductions.append(field)
        return rref(rows, field)

    monkeypatch.setattr(mh, "validate_mhs", counted_validate)
    monkeypatch.setattr(mh, "deligne_frame", marked_frame)
    monkeypatch.setattr(la, "invert", guarded_invert)
    monkeypatch.setattr(la, "_rref", counted_rref)
    monkeypatch.setattr(la, "_eliminate", lambda rows: eliminations.append(
        len(rows) * len(rows[0])) or eliminate(rows))
    assert lo.can_lift(m, Subspace.full(Q, 3)) == Subspace.full(Q, 3)
    assert len(validations) == 0
    # The frame's inversion and the span of the lifts.  There were 10
    # reductions through _rref (8 eliminations over 318 integer entries)
    # while the bigrading read a table of intersections; reducing each
    # Hodge step once in graded coordinates reaches _int_rref directly.
    assert len(reductions) == 2
    assert len(eliminations) == 6 and sum(eliminations) == 210


# -- construction terms ----------------------------------------------------------

def test_a_construction_nested_past_the_stack_is_a_parse_error():
    """_check_term and derive recurse once per level of a term, so a term
    nested deeper than the stack allows is an input error, as in the CLI,
    not a RecursionError."""
    for depth in (990, 10_000):
        term = lo.SELF
        for _ in range(depth):
            term = ["DUAL", term]
        with pytest.raises(ParseError, match="^input is nested too deeply$"):
            lo.eval_construction(term, corpus.kummer_mhs(I))
        with pytest.raises(ParseError, match="^input is nested too deeply$"):
            lo.locus_on_pencil(kummer_pencil(), [1, 0], term)


def test_eval_construction_terms():
    m = corpus.kummer_mhs(I)
    assert lo.eval_construction(lo.SELF, m) == m
    assert lo.eval_construction(["DUAL", lo.SELF], m) == mh.dual(m)
    assert lo.eval_construction(["HOM", lo.SELF, lo.SELF], m) == mh.hom(m, m)
    assert lo.eval_construction(["TENSOR", lo.SELF, lo.SELF], m) \
        == mh.tensor(m, m)
    assert lo.eval_construction(["WSUB", -2, lo.SELF], m) == mh.tate_twist(1)
    assert lo.eval_construction(["QUOT", [["1", "0"]], lo.SELF], m) \
        == mh.tate_twist(0)


def test_malformed_terms_rejected():
    m = corpus.kummer_mhs(I)
    for bad in [["DUAL"], ["HOM", lo.SELF], ["NOPE", lo.SELF], [], 7,
                ["WSUB", "x", lo.SELF]]:
        with pytest.raises(ParseError):
            lo.eval_construction(bad, m)


# -- pencils ----------------------------------------------------------------------

def kummer_pencil(shift=GaussRat(0)):
    """The Kummer family as a pencil: member at t is kummer_mhs(t + shift)."""
    mu = corpus.kummer_triple()
    alpha = corpus.kummer_tpoint(GaussRat(0))
    low, high = tr.truncate(mu, -2)
    a_low, a_high = tr.truncate_point(mu, -2, alpha)
    x, y = tr.spoint(low, a_low), tr.spoint(high, a_high)
    psi0 = la.mat(QI, [[shift], [1]])
    dpsi = la.mat(QI, [[1], [0]])
    return lo.Pencil(mu, -2, x, y, psi0, dpsi)


def test_slotted_dataclasses_pickle_and_deep_copy():
    pen = kummer_pencil()
    for obj in (pen.triple.W.steps[0][1], corpus.kummer_mhs(I), pen.triple,
                pen.x, pen, lo.locus_on_pencil(pen, PROJ_VEC, END)):
        # Subspace, MixedHodgeStructure, Triple, SPoint, Pencil, LocusResult
        assert not hasattr(obj, "__dict__")
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(back) is type(obj)
            assert back == obj and hash(back) == hash(obj)


def test_pencil_members():
    pencil = kummer_pencil()
    assert not pencil.problems()
    for t in [GaussRat(0), HALF, I]:
        assert lo.pencil_member(pencil, t) == corpus.kummer_mhs(t)


def test_pencil_member_reassembles_kummer():
    """Glue the truncations of the Kummer point at z along psi(t) =
    (z + t, 1): the member at t is the Kummer structure at z + t."""
    mu = corpus.kummer_triple()
    z = GaussRat(Fraction(1, 3), Fraction(2, 5))
    low, high = tr.truncate(mu, -2)
    a_low, a_high = tr.truncate_point(mu, -2, corpus.kummer_tpoint(z))
    pencil = lo.Pencil(mu, -2, tr.spoint(low, a_low), tr.spoint(high, a_high),
                       la.mat(QI, [[z], [1]]), la.mat(QI, [[1], [0]])).check()
    for t in (GaussRat(0), GaussRat(1), I):
        assert lo.pencil_member(pencil, t) == corpus.kummer_mhs(z + t)
    # A gluing map that is not a section of the projection is rejected
    # where the pencil enters, by Pencil.check.
    bad = lo.Pencil(mu, -2, pencil.x, pencil.y, la.mat(QI, [[z], [2]]),
                    pencil.dpsi)
    assert bad.problems() == ["base is not a section of the projection"]
    with pytest.raises(NotAnMhsError, match="base is not a section"):
        bad.check()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 40), st.integers(0, 10 ** 6))
def test_pencil_member_matches_the_added_oracle(seed, point):
    """Glue the truncations of a sampled point back along psi(t) = psi0 +
    t.dpsi, psi0 a section of the projection moved by a random map into
    W_p and dpsi another, nonzero, at t = 0, 1 and i."""
    mu = random_triple(seed)
    alpha = tr.sample_point(mu, point, 6)
    rng = random.Random(point)
    for p in mu.W.jumps[:-1]:
        low, high = tr.truncate(mu, p)
        a_low, a_high = tr.truncate_point(mu, p, alpha)
        x, y = tr.spoint(low, a_low), tr.spoint(high, a_high)
        wp = mu.W.at(p)
        k = mu.dim - wp.dim
        maps = [[[GaussRat(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(k)] for _ in range(wp.dim)]
                for _ in range(2)]
        if not any(map(any, maps[1])):
            maps[1][0][0] = GaussRat(1)  # the direction must be nonzero
        incl = la.to_qi_mat(la.inclusion_map(wp))
        shift, dpsi = (la.mat_mul(incl, la.mat(QI, r)) for r in maps)
        psi0 = la.mat_add(la.solve_matrix(
            QI, la.to_qi_mat(la.quotient_map(wp)), la.identity(QI, k)), shift)
        pencil = lo.Pencil(mu, p, x, y, psi0, dpsi).check()
        for t in (GaussRat(0), GaussRat(1), I):
            psi = la.mat_add(psi0, la.mat_scale(t, dpsi))
            m = lo.pencil_member(pencil, t)
            assert m.W == mu.W
            assert m.F == added_fiber_filtration(mu, p, x, y, psi)


def test_bad_pencils_rejected():
    good = kummer_pencil()
    bad_base = lo.Pencil(good.triple, good.p, good.x, good.y,
                         la.mat(QI, [[0], [2]]), good.dpsi)
    assert bad_base.problems()
    zero_dir = lo.Pencil(good.triple, good.p, good.x, good.y, good.psi0,
                         la.mat(QI, [[0], [0]]))
    assert zero_dir.problems()
    with pytest.raises(NotAnMhsError):
        lo.locus_on_pencil(zero_dir, [1, 0, 0, 1], ["HOM", lo.SELF, lo.SELF])


def test_pencils_check_their_triple_and_points():
    good = kummer_pencil()
    bad = tr.Triple(good.triple.dim, good.triple.W,
                    ((-2, mh.tate_twist(1)), (0, mh.tate_twist(1))))
    assert lo.Pencil(bad, good.p, good.x, good.y, good.psi0,
                     good.dpsi).problems() == tr.triple_problems(bad)
    # x of the wrong triple, x with the Hodge filtration of Q(0) on Q(1),
    # and y with an F that has no steps.
    shifted = tr.SPoint(good.x.triple,
                        mh.HodgeFiltration.of(1, {0: Subspace.full(QI, 1)}))
    empty = tr.SPoint(good.y.triple, mh.HodgeFiltration(1, ()))
    for x, y, name in ((good.y, good.y, "x"), (shifted, good.y, "x"),
                       (good.x, empty, "y")):
        pencil = lo.Pencil(good.triple, good.p, x, y, good.psi0, good.dpsi)
        assert pencil.problems() == [
            f"{name} is not a point of its truncated triple"]
        with pytest.raises(NotAnMhsError):
            lo.locus_on_pencil(pencil, ID_VEC, END)


END = ["HOM", lo.SELF, lo.SELF]
ID_VEC = [1, 0, 0, 1]          # identity endomorphism in hom coordinates
PROJ_VEC = [0, 0, 0, 1]        # idempotent projecting onto the Q(0) line
RAISE_VEC = [0, 1, 0, 0]       # weight-raising map, outside W_0


def test_locus_identity_is_all():
    res = lo.locus_on_pencil(kummer_pencil(), ID_VEC, END)
    assert res.is_all and not res.outside_w0


def test_locus_splitting_witness_is_single_point():
    res = lo.locus_on_pencil(kummer_pencil(), PROJ_VEC, END)
    assert res.kind == "AFFINE_SUBSET" and not res.outside_w0
    assert res.solution() == GaussRat(0)


def test_locus_respects_reparametrization():
    # Shifting the base point of the pencil shifts the single solution.
    res = lo.locus_on_pencil(kummer_pencil(shift=GaussRat(1)), PROJ_VEC, END)
    assert res.solution() == GaussRat(-1)
    res = lo.locus_on_pencil(kummer_pencil(shift=I), PROJ_VEC, END)
    assert res.solution() == -I


def test_locus_outside_w0():
    res = lo.locus_on_pencil(kummer_pencil(), RAISE_VEC, END)
    assert res.outside_w0 and res.kind == "AFFINE_SUBSET"
    assert res.constraints == ((GaussRat(0), GaussRat(0), GaussRat(1)),)


def test_locus_of_zero_vector_is_all():
    res = lo.locus_on_pencil(kummer_pencil(), [0, 0, 0, 0], END)
    assert res.is_all


def test_locus_constraints_never_involve_conjugate():
    for v in [ID_VEC, PROJ_VEC, [0, 0, 1, 1]]:
        res = lo.locus_on_pencil(kummer_pencil(), v, END)
        assert all(b == GaussRat(0) for _, b, _ in res.constraints)


def test_locus_agrees_with_pointwise_scan():
    pencil = kummer_pencil()
    res = lo.locus_on_pencil(pencil, PROJ_VEC, END)
    for t in [GaussRat(0), GaussRat(1), GaussRat(-2), I, HALF]:
        member = lo.eval_construction(END, lo.pencil_member(pencil, t))
        pointwise = member.F.at(0).contains(
            tuple(GaussRat(x) for x in PROJ_VEC))
        predicted = all(a * t + b * t.conj() + c == GaussRat(0)
                        for a, b, c in res.constraints)
        assert pointwise == predicted


def tate3_pencil():
    """Through cut -2 of a seeded three-step member, based at its weight-0
    section, in direction e1."""
    mu = corpus.tate3_triple()
    alpha = tr.sample_point(mu, "pen", 10)
    low, high = tr.truncate(mu, -2)
    a_low, a_high = tr.truncate_point(mu, -2, alpha)
    return lo.Pencil(mu, -2, tr.spoint(low, a_low), tr.spoint(high, a_high),
                     alpha.section(0), la.mat(QI, [[1], [0], [0]]))


@pytest.mark.parametrize("k", [5, 9])
def test_locus_empty_at_special_parameters(k):
    # Hodge at no member; a kernel taken over the generic fiber loses rank
    # at special t on this pencil and reports roots that are not Hodge.
    v = [1 if j == k - 1 else 0 for j in range(9)]
    res = lo.locus_on_pencil(tate3_pencil(), v, END)
    assert res.kind == "AFFINE_SUBSET" and not res.outside_w0
    assert res.constraints == ((GaussRat(0), GaussRat(0), GaussRat(1)),)
    assert res.solution() is None


def test_constraints_share_the_field_zero_and_one():
    """Every constraint scalar but c is the field's shared zero or one, on
    a single point, an empty locus and a vector outside W_0: a SPLIT
    answer allocates no scalar of its own."""
    cases = [(kummer_pencil(), PROJ_VEC), (kummer_pencil(shift=I), PROJ_VEC),
             (kummer_pencil(), RAISE_VEC),
             (tate3_pencil(), [0] * 8 + [1])]
    kinds = set()
    for pencil, v in cases:
        res = lo.locus_on_pencil(pencil, v, END)
        kinds.add((res.solution() is None, res.outside_w0))
        for a, b, _ in res.constraints:
            assert a is one(QI) or a is zero(QI)
            assert b is zero(QI)
    assert kinds == {(False, False), (True, False), (True, True)}


def test_answers_without_a_scalar_of_their_own_are_shared():
    """ALL, the empty locus and the answer outside W_0 hold no scalar of
    their own, so each is one object across pencils."""
    def locus(shift, v):
        return lo.locus_on_pencil(kummer_pencil(shift=shift), v, END)
    for v, expect in ((ID_VEC, (True, False)), ([0, 0, 1, 0], (False, False)),
                      (RAISE_VEC, (False, True))):
        res = locus(GaussRat(0), v)
        assert (res.is_all, res.outside_w0) == expect
        assert res.solution() is None
        assert locus(I, v) is res
    assert locus(GaussRat(0), PROJ_VEC) is not locus(GaussRat(0), PROJ_VEC)


@pytest.mark.parametrize("pencil,v,eliminated", [
    (tate3_pencil, [1, 0, 0, 0, 1, 0, 0, 0, 1], (81, 4178)),
    (kummer_pencil, ID_VEC, (37, 392))])
def test_locus_of_the_identity_counts_its_eliminations(monkeypatch, pencil, v,
                                                       eliminated):
    """Operation counts, deterministic across machines, of one locus of
    the identity of End with the coordinate caches cleared.  Every piece
    of Gr^W that validation and the pencil's check read comes off one
    reduction of each Hodge step (mh._WeightMeets), so the call makes no
    la.intersect.  When gr_w intersected F^p with W_n and took the image
    under pi_n, the three-step pencil made 35 intersections and 115
    eliminations over 4,698 integer entries, and the Kummer pencil 16
    and 50 over 480."""
    pencil = pencil()
    intersections, sizes = [], []
    intersect, eliminate = la.intersect, la._eliminate
    monkeypatch.setattr(la, "intersect", lambda u, w: intersections.append(1)
                        or intersect(u, w))
    monkeypatch.setattr(la, "_eliminate", lambda m: sizes.append(
        len(m) * len(m[0])) or eliminate(m))
    mh.graded_pieces.cache_clear()
    mh.graded_basis.cache_clear()
    assert lo.locus_on_pencil(pencil, v, END).is_all
    assert intersections == []
    assert (len(sizes), sum(sizes)) == eliminated


def test_empty_answer_is_checked_by_exact_evaluation(monkeypatch):
    # A gcd wrongly read as a nonzero constant turns the splitting witness,
    # Hodge at t = 0, into an empty locus; exact evaluation must object.
    monkeypatch.setattr(lo, "_poly_gcd", lambda a, b: [GaussRat(1)])
    with pytest.raises(LocusError):
        lo.locus_on_pencil(kummer_pencil(), PROJ_VEC, END)


GRID_TERMS = [lo.SELF, ["DUAL", lo.SELF], END, ["WSUB", 0, END],
              ["QUOT", [["0", "0", "1", "0"]], END],
              ["TENSOR", lo.SELF, ["DUAL", lo.SELF]]]
SHIFT = GaussRat(Fraction(1, 2), 1)
GRID = [GaussRat(a, b) for a in (Fraction(-1, 2), Fraction(1, 2))
        for b in (-1, 1)]  # holds -SHIFT, where the extension splits


@pytest.mark.parametrize("term", GRID_TERMS, ids=str)
def test_locus_matches_pointwise_grid(term):
    pencil = kummer_pencil(shift=SHIFT)
    dim = lo.eval_construction(term, lo.pencil_member(pencil, GaussRat(0))).dim
    for v in itertools.product([0, 1], repeat=dim):
        res = lo.locus_on_pencil(pencil, v, term)
        for t in GRID:
            predicted = res.is_all or all(
                a * t + b * t.conj() + c == 0 for a, b, c in res.constraints)
            assert predicted == lo._is_hodge_at(pencil, v, term, t), (v, t)


def test_locus_rejects_quotient_not_preserved_by_pencil():
    # The weight -2 projector spans a subobject of End at t = 0 only.
    with pytest.raises(LocusError):
        lo.locus_on_pencil(kummer_pencil(), [0, 0, 0, 1],
                           ["QUOT", [["1", "0", "0", "0"]], END])


# -- quotients of derived structures ----------------------------------------------

def test_quotient_at_point():
    end = mh.hom(corpus.kummer_mhs(I), corpus.kummer_mhs(I))
    w_m2_end = Subspace.span(Q, 4, [(0, 0, 1, 0)])  # maps lowering weight by 2
    quo = mh.quotient_mhs(end, w_m2_end)
    assert mh.is_valid(quo) and quo.dim == 3
    dims = {n: pure.dim for n, pure in mh.gr_w(quo)}
    assert dims == {0: 2, 2: 1}
    # Quotient commutes with taking the associated graded (dimensions).
    assert sum(dims.values()) == end.dim - w_m2_end.dim

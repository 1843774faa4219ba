"""Seeded generators for the structures used across the tests, valid and perturbed."""

import bisect
import functools
import random
from fractions import Fraction
from math import gcd

from mhslab import corpus
from mhslab import linalg as la
from mhslab import mhs as mh
from mhslab import triples as tr
from mhslab import unipotent as un
from mhslab.errors import DimensionMismatchError
from mhslab.field import Q, QI, GaussRat, as_scalar, one, zero
from mhslab.linalg import Subspace


def kron_vec(u, v):
    """u (x) v of scalar vectors with every product formed: the oracle for
    la.int_kron."""
    return tuple(x * y for x in u for y in v)


def mat_mul(a, b):
    """a . b with every product formed: the oracle for la.mat_mul."""
    if a and len(a[0]) != len(b):
        raise DimensionMismatchError(
            f"cannot multiply {len(a[0])}-col by {len(b)}-row")
    bt = la.transpose(b)
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), 0 * row[0])
                       for col in bt)
                 for row in a)


def mat_vec(a, v):
    """a . v with every product formed: the oracle for la.mat_vec."""
    if a and len(a[0]) != len(v):
        raise DimensionMismatchError("matrix/vector size mismatch")
    return tuple(sum((x * y for x, y in zip(row, v)), 0 * v[0]) if v
                 else zero(Q) for row in a)


def kron_mat(a, b):
    """a (x) b with every product formed: the oracle for la.kron_mat."""
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def reduce(s: Subspace, v):
    """Subspace.reduce as it subtracted each basis row in turn, times v's
    entry at its pivot: the oracle for the one kernel product."""
    w = [as_scalar(s.field, x) for x in v]
    if len(w) != s.ambient_dim:
        raise DimensionMismatchError("vector length mismatch")
    coords = []
    for row, p in zip(s.basis, s.pivots):
        c = w[p]
        coords.append(c)
        if c:
            for j in range(len(w)):
                w[j] = w[j] - c * row[j]
    if any(w):
        return None
    return tuple(coords)


# -- the dense row update: oracle ---------------------------------------------

def dense_eliminate(m):
    """la._eliminate as it updated every column of a row: row i becomes
    a * row - b * prow over the whole row, through la._primitive, with
    the pivot of each column on the first remaining row of smallest
    absolute entry there.  The oracle for the update on the support of
    the pivot row."""
    nrows, pivots, r = len(m), [], 0
    for c in range(len(m[0])):
        pr = min((i for i in range(r, nrows) if m[i][c]),
                 key=lambda i: abs(m[i][c]), default=None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                m[i] = la._primitive([a * x - b * y for x, y in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def first_nonzero_eliminate(m):
    """la._eliminate as it pivoted each column on the first remaining row
    with a nonzero entry there: the oracle for the pivot on the smallest
    entry, which gives the same pivots and the same echelon rows once
    each is divided by its pivot."""
    nrows, pivots, r = len(m), [], 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        support = None
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                if support is None:
                    support = [(j, y) for j, y in enumerate(prow) if y]
                g = gcd(p, f)
                a, b = p // g, f // g
                row = m[i].copy() if a == 1 else [a * x for x in m[i]]
                for j, y in support:
                    row[j] -= b * y
                m[i] = la._primitive(row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


# -- the free-column kernel and column-by-column solves: oracles -------------

def kernel(field, a, ncols=None):
    """The kernel of a built from its own free-column loop: the oracle for
    la.kernel, which spans the rows of quotient_map instead."""
    if ncols is None:
        if not a:
            raise DimensionMismatchError("cannot infer kernel ambient from empty matrix")
        ncols = len(a[0])
    if not a:
        return Subspace.full(field, ncols)
    red, pivots = la._rref([[as_scalar(field, x) for x in row] for row in a], field)
    vecs = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = [zero(field)] * ncols
        v[c] = one(field)
        for i, p in enumerate(pivots):
            v[p] = -red[i][c]
        vecs.append(v)
    return Subspace.span(field, ncols, vecs)


def equations(u: Subspace):
    """Rows r with u = {x : r . x = 0}: the reduced basis of the kernel of
    u's basis."""
    return kernel(u.field, u.basis, u.ambient_dim).basis


def annihilator(u: Subspace) -> Subspace:
    """Functionals vanishing on u, as the kernel of u's basis."""
    return kernel(u.field, u.basis, u.ambient_dim)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """u and v cut out by the reduced equations of each."""
    if u.is_full():
        return v
    if v.is_full():
        return u
    return kernel(u.field, equations(u) + equations(v), u.ambient_dim)


def solve(field, a, b):
    """One solution of a x = b, zero on the free variables, or None, from
    one reduction of [a | b] per right-hand side."""
    if not a:
        return () if not any(b) else None
    n = len(a[0])
    aug = [[as_scalar(field, x) for x in row] + [as_scalar(field, y)]
           for row, y in zip(a, b)]
    red, pivots = la._rref(aug, field)
    x = [zero(field)] * n
    for row, p in zip(red, pivots):
        if p == n:
            return None
        x[p] = row[n]
    return tuple(x)


def solve_matrix(field, a, b):
    """X with a X = b, solved column by column."""
    cols = []
    for col in la.transpose(b):
        x = solve(field, a, col)
        if x is None:
            return None
        cols.append(x)
    return la.transpose(tuple(cols))


# -- rationality and lifting by solving: oracles -----------------------------

def rational_part(u: Subspace) -> Subspace:
    """The rational part of u solved in 2k unknowns: v = sum (a_j + i d_j) b_j
    over u's basis is rational iff sum a_j Im(b_j) + d_j Re(b_j) = 0.  The
    oracle for la.rational_part, which solves for the k coordinates only."""
    if u.field == Q:
        return u
    n, k = u.ambient_dim, u.dim
    if k == 0:
        return Subspace.zero(Q, n)
    rows = [[u.basis[j][c].im for j in range(k)] +
            [u.basis[j][c].re for j in range(k)] for c in range(n)]
    vecs = []
    for s in la.kernel(Q, la.mat(Q, rows), 2 * k).basis:
        a, d = s[:k], s[k:]
        vecs.append([sum((a[j] * u.basis[j][c].re - d[j] * u.basis[j][c].im
                          for j in range(k)), Fraction(0)) for c in range(n)])
    return Subspace.span(Q, n, vecs)


def is_defined_over_q(u: Subspace) -> bool:
    """Whether the rational part of u has u's dimension."""
    return rational_part(u).dim == u.dim


def has_real_echelon_basis(u: Subspace) -> bool:
    """Whether u = B tensor Q(i) for a rational B, read off the basis: the
    reduced echelon basis of B tensor Q(i) is that of B, so exactly when
    u's is real.  The oracle for rational_part(u).dim == u.dim, as
    linalg.is_defined_over_q read it."""
    return u.field == Q or not any(x.im for b in u.basis for x in b)


def kernel_rational_part(u: Subspace) -> Subspace:
    """The rational part as la.rational_part found it before it eliminated
    the restricted rows of u: the coordinates of v in u's echelon basis
    b_j are its entries at the pivots, so v is rational exactly when they
    are rationals c with sum c_j Im(b_j) = 0 (one kernel), and the sums
    sum c_j Re(b_j) over the kernel's echelon basis are the echelon basis
    of the answer.  A u defined over Q is its own real part."""
    if u.field == Q:
        return u
    n = u.ambient_dim
    if has_real_echelon_basis(u):
        return Subspace(Q, n, tuple(tuple(x.re for x in b) for b in u.basis),
                        u.pivots)
    sols = la.kernel(Q, tuple(tuple(b[c].im for b in u.basis)
                              for c in range(n)), u.dim)
    basis = tuple(tuple(sum((x * b[c].re for x, b in zip(s, u.basis) if x),
                            Fraction(0))
                        for c in range(n))
                  for s in sols.basis)
    return Subspace(Q, n, basis, tuple(u.pivots[q] for q in sols.pivots))


def inverse_splitting(m):
    """The graded structure of m and the inverse of its Deligne splitting,
    which can_lift reads for every subobject of one member."""
    return mh.graded_mhs(mh.gr_w(m)), la.invert(QI, mh.deligne_splitting(m))


def can_lift(m, a_tilde_q, split=None):
    """The lift of a graded subobject by inverting the Deligne splitting,
    testing each weight piece of its image for rationality, and checking
    the lift as a subobject of m: the oracle for loci.can_lift.  split is
    inverse_splitting(m), formed here when not given."""
    gm, alpha = split or inverse_splitting(m)
    mh.sub_mhs(gm, a_tilde_q)
    if a_tilde_q.is_zero():
        return a_tilde_q
    a_c = a_tilde_q.to_qi()
    for n in gm.W.jumps:
        piece = la.intersect(a_c, gm.W.at(n).to_qi())
        if not is_defined_over_q(la.apply_to_subspace(alpha, piece)):
            return None
    lift = rational_part(la.apply_to_subspace(alpha, a_c))
    if lift.dim != a_tilde_q.dim:
        return None
    mh.sub_mhs(m, lift)
    return lift


# -- the splitting test and u_p from real and imaginary rows: oracles --------

def parts_splits(h, a_q, rep):
    """un._splits with the Q-span of Im b and Re b over a basis b of
    V = a_q (x) Q(i) + F^0 h spanned from those scalar rows: the oracle
    for the rational hull of V."""
    v = la.add(a_q.to_qi(), h.F.at(0))
    rows = [tuple(x.im for x in b) for b in v.basis]
    rows += [tuple(x.re for x in b) for b in v.basis]
    return Subspace.span(Q, h.dim, rows).contains(tuple(x.im for x in rep.e))


def deligne_projectors(m):
    """For each weight n, in increasing order, the projector P_n = S_n . T_n
    of M_C onto the sum of the I^{p,q} with p + q = n along the other
    components, from the frame vectors S_n and dual rows T_n of that
    weight, as mhs.deligne_projectors returned them: the oracle for the
    weight factors that splitting, sections and u_p read off a frame."""
    frame = mh.deligne_frame(m)
    return {n: la.mat_mul(*frame.select(lambda p, q: p + q == n))
            for n in m.W.jumps}


def h_projectors(cut):
    """The Deligne weight projectors of H, as unipotent built them before
    H's frame, by functoriality from the weight projectors of M: P_n
    preserves W_pM, so it restricts to P_b(W_pM) = coords . P_b . incl
    (nonzero for b <= p) and descends to P_a(M/W_pM) = proj . P_a .
    section (nonzero for a > p).  The weight-k part of a map phi is the
    sum over b - a = k of P_b(W_pM) . phi . P_a(M/W_pM); in hom
    coordinates (dual slot first) that is kron(P_a(M/W_pM)^T, P_b(W_pM)).
    The oracle for the weight projectors S_k . T_k of un._h_frame."""
    sub, quo = [], []
    for n, pn in deligne_projectors(cut.m).items():
        if n <= cut.p:
            sub.append((n, la.mat_mul(tuple(pn[c] for c in cut.wp.pivots),
                                      cut.incl)))
        else:
            quo.append((n, la.transpose(la.mat_mul(
                la.mat_mul(cut.proj, pn), cut.section))))
    out = {}
    for a, qa in quo:
        for b, sb in sub:
            block = la.kron_mat(qa, sb)
            out[b - a] = la.mat_add(out[b - a], block) if b - a in out else block
    return dict(sorted(out.items()))


def h_type_projectors(cut):
    """For each type (p, q) of H = Hom(M/W_pM, W_pM), the projector of H_C
    onto I^{p,q} along the other components, from a Deligne bigrading of
    the checked Hom (checked_hom) and the inverse of the matrix its bases
    form as columns: the oracle for the type factors of un._h_frame."""
    comps = mh.deligne_bigrading(checked_hom(cut))
    vectors = [v for _, comp in comps for v in comp.basis]
    duals = la.invert(QI, la.transpose(tuple(vectors)))
    out, at = {}, 0
    for pq, comp in comps:
        picked = range(at, at + comp.dim)
        out[pq] = la.mat_mul(la.transpose(tuple(vectors[i] for i in picked)),
                             tuple(duals[i] for i in picked))
        at += comp.dim
    return dict(sorted(out.items()))


def parts_u_p(cut, projectors):
    """The rational closure of span(Im e) under the given projectors of H,
    each round spanning s with the real and imaginary parts of every
    projection: with h_type_projectors, the oracle for the rational hulls
    and the frame of H in un._u_p; with the weight projectors
    h_projectors, the closure by weight, which is the same on
    graded-Tate members."""
    dim = cut.wp.dim * (cut.m.dim - cut.wp.dim)
    s = Subspace.span(Q, dim, [tuple(x.im for x in un._ext_class(cut).e)])
    while True:
        rows = list(s.basis)
        for pi in projectors:
            for v in s.basis:
                w = la.mat_vec(pi, v)
                rows += [tuple(x.re for x in w), tuple(x.im for x in w)]
        grown = Subspace.span(Q, dim, rows)
        if grown.dim == s.dim:
            return s
        s = grown


def stable_u_p(cut):
    """u_p by the closure as un._u_p ran it before it stopped early: H's
    frame and type factors built at every cut, and rational hulls of the
    projections taken from span(Im e) until a round adds nothing, that
    last round included.  The oracle for the lazy closure."""
    dim = cut.wp.dim * (cut.m.dim - cut.wp.dim)
    h = un._h_frame(cut)
    factors = [h.select(lambda p, q, t=t: (p, q) == t)
               for t in sorted(set(h.types))]
    s = Subspace.zero(Q, dim)
    grown = Subspace.span(Q, dim, [tuple(x.im for x in un._ext_class(cut).e)])
    while grown.dim > s.dim:
        s = grown
        grown = la.rational_hull(dim, [la.mat_vec(sk, la.mat_vec(tk, v))
                                       for sk, tk in factors for v in s.basis])
    return s


# -- F^0 H and the subobject test from the structure H: oracles ------------

def unchecked_hom(m, wp):
    """H = Hom(M/W_pM, W_pM) as Hom of the unchecked sides, _push_forward
    and _restrict of W_pM, as unipotent formed it before it read F^0 H
    and the subobject test off H's frame: the oracle for both."""
    return mh.hom(mh._push_forward(m, wp), mh._restrict(m, wp))


def sub_mhs_splits_mod(m, p, a_q, rep=None):
    """splits_mod by the sub_mhs route: H formed by unchecked_hom, a_q
    checked by mh.sub_mhs(H, a_q), and the class tested against F^0 of
    H.  The oracle for un.splits_mod, which reads both off H's frame."""
    cut = un.weight_cut(m, p)
    h = unchecked_hom(m, cut.wp)
    mh.sub_mhs(h, a_q)  # raises NotASubobjectError when not a subobject
    return un._splits(h.F.at(0), a_q, rep or un._ext_class(cut))


# -- Hodge classes over Q(i) from scalar products: oracles -------------------

def hodge_classes(m):
    """The rational part of W_0 (x) Q(i) . F^0: the oracle for
    mh.hodge_classes, which intersects W_0 with the rational part of F^0."""
    if m.dim == 0:
        return Subspace.zero(Q, 0)
    return la.rational_part(la.intersect(m.W.at(0).to_qi(), m.F.at(0)))


def _scalar_products(factors):
    """The tagged kron products of scalar adapted-basis vectors."""
    out = factors[0]
    for f in factors[1:]:
        out = [(s + t, kron_vec(u, v)) for s, u in out for t, v in f]
    return out


def power_hodge_classes(m, a, b):
    """The Hodge classes of M^(x a) (x) (M^v)^(x b) from W_0 and F^0 spanned
    by scalar products of the adapted bases, and intersected over Q(i):
    the oracle for mh.power_hodge_classes, which forms the products as
    integer rows and intersects W_0 with the rational part of F^0."""
    dim = m.dim ** (a + b)
    if dim == 0:
        return Subspace.zero(Q, 0)
    md = mh.dual(m)
    w = _scalar_products([mh._adapted_basis(m.W.steps)] * a
                         + [mh._adapted_basis(md.W.steps)] * b)
    f = _scalar_products([mh._adapted_basis(reversed(m.F.steps))] * a
                         + [mh._adapted_basis(reversed(md.F.steps))] * b)
    w0 = Subspace.span(Q, dim, [v for t, v in w if t <= 0])
    f0 = Subspace.span(QI, dim, [v for t, v in f if t >= 0])
    return la.rational_part(la.intersect(w0.to_qi(), f0))


def frame_power_classes(m, a, b):
    """The Hodge classes of M^(x a) (x) (M^v)^(x b) read off the Deligne
    frame: the products of a frame vectors of M (type (p, q)) and b dual
    rows (type (-p, -q), a frame of M^v) form a frame of the power, each
    of the summed type.  W_0 . F^0 over Q(i) is the span of those with
    sum p >= 0 and sum (p + q) <= 0, and the classes are its rational
    part: the oracle for mh.power_hodge_classes."""
    dim = m.dim ** (a + b)
    if dim == 0:
        return Subspace.zero(Q, 0)
    frame = mh.deligne_frame(m)
    factors = [list(zip(frame.types, frame.vectors))] * a
    factors += [[((-p, -q), t) for (p, q), t in zip(frame.types, frame.duals)]] * b
    prods = factors[0]
    for f in factors[1:]:
        prods = [((p + r, q + s), kron_vec(u, v))
                 for (p, q), u in prods for (r, s), v in f]
    kept = [v for (p, q), v in prods if p >= 0 and p + q <= 0]
    return la.rational_part(Subspace.span(QI, dim, kept))


def graded_offsets(w: mh.WeightFiltration):
    """(offset, piece) for each graded piece of w: the offset is the
    running sum of the dimensions before it, where the piece's block
    starts in graded coordinates."""
    at = 0
    for piece in mh.graded_pieces(w):
        yield at, piece
        at += piece.dim


def random_invertible(rng: random.Random, n: int):
    """A random invertible integer matrix (unit upper x unit lower)."""
    upper = [[1 if i == j else (rng.randint(-3, 3) if j > i else 0)
              for j in range(n)] for i in range(n)]
    lower = [[1 if i == j else (rng.randint(-3, 3) if j < i else 0)
              for j in range(n)] for i in range(n)]
    return la.mat_mul(la.mat(Q, upper), la.mat(Q, lower))


def random_pure_piece(rng: random.Random, weight: int):
    """A pure structure of the given weight, dimension 1 or 2.

    Dimension 1 forces a Tate object (so odd weights are always dim 2);
    dimension 2 carries Hodge types (p, n-p) and (n-p, p) with p > n/2.
    """
    n = weight
    if n % 2 == 0 and rng.random() < 0.5:
        return mh.make_mhs(1, {n: Subspace.full(Q, 1)},
                           {n // 2: Subspace.full(QI, 1)})
    p = n // 2 + 1 + rng.randint(0, 1)  # strictly above n/2
    u = (1, 0)
    v = (rng.randint(-3, 3), rng.choice([1, -1]))
    line = tuple(GaussRat(a, b) for a, b in zip(u, v))
    return mh.make_mhs(2, {n: Subspace.full(Q, 2)},
                       {n - p: Subspace.full(QI, 2),
                        p: Subspace.span(QI, 2, [line])})


@functools.lru_cache(maxsize=None)
def random_triple(seed, max_dim: int = 6) -> tr.Triple:
    """A random triple with a non-coordinate weight flag, dim <= max_dim."""
    rng = random.Random(f"triple:{seed}")
    pieces = []
    total = 0
    weights = sorted(rng.sample(range(-4, 3), rng.randint(1, 3)))
    for w in weights:
        g = random_pure_piece(rng, w)
        if total + g.dim > max_dim:
            break
        pieces.append((w, g))
        total += g.dim
    if not pieces:
        pieces = [(0, mh.tate_twist(0))]
        total = 1
    s = random_invertible(rng, total)
    steps = {}
    k = 0
    for w, g in pieces:
        k += g.dim
        steps[w] = Subspace.span(Q, total, s[:k])
    mu = tr.Triple(total, mh.WeightFiltration.of(total, steps), ())
    # Transport each pure piece into the flag's graded coordinates.
    graded = []
    for piece, (w, g) in zip(mh.graded_pieces(mu.W), pieces):
        graded.append((w, g))
        assert piece.dim == g.dim
    mu = tr.Triple(total, mu.W, tuple(graded))
    tr.check_triple(mu)
    return mu


@functools.lru_cache(maxsize=None)
def random_mhs(seed, max_dim: int = 6, height: int = 5) -> mh.MixedHodgeStructure:
    """A random valid structure: a random triple at a random sampled point."""
    mu = random_triple(seed, max_dim)
    alpha = tr.sample_point(mu, f"mhs:{seed}", height)
    return tr.build_mhs(mu, alpha)


def tate_triple(weights) -> tr.Triple:
    """The graded-Tate triple with one Q(-w/2) per even weight w, on the
    coordinate flag, lowest weight first."""
    n = len(weights)
    flag = {w: Subspace.span(Q, n, la.identity(Q, n)[:k + 1])
            for k, w in enumerate(weights)}
    return tr.Triple(n, mh.WeightFiltration.of(n, flag),
                     tuple((w, mh.tate_twist(-w // 2)) for w in weights))


def _perturbed(rng: random.Random, m: mh.MixedHodgeStructure):
    """m with one filtration step moved to another index or replaced by
    random rows of the same count; most such structures are invalid."""
    w, f = dict(m.W.steps), dict(m.F.steps)
    steps, field = rng.choice([(w, Q), (f, QI)])
    k = rng.choice(sorted(steps))
    if rng.random() < 0.5:
        steps[k + rng.choice([-1, 1])] = steps.pop(k)
    else:
        entries = [0, 1, -1, 2] + ([GaussRat(0, 1), GaussRat(1, 1)]
                                   if field == QI else [])
        steps[k] = Subspace.span(field, m.dim, [
            [rng.choice(entries) for _ in range(m.dim)]
            for _ in range(max(steps[k].dim, 1))])
    return mh.make_mhs(m.dim, w, f)


@functools.lru_cache(maxsize=None)
def oracle_structures():
    """Valid structures (the corpus, seeded random ones, three- and
    four-step members), then 175 perturbed copies of them."""
    valid = [corpus.tate_mhs(0), corpus.tate_mhs(3), corpus.tate_mhs(-2),
             corpus.two_weight_mhs()]
    valid += [corpus.kummer_mhs(z) for z in
              (GaussRat(0), GaussRat(Fraction(1, 2)), GaussRat(0, 1),
               GaussRat(1, 1))]
    valid += [random_mhs(s) for s in range(24)]
    for weights in ((-6, -2, 0), (-14, -6, -2, 0)):
        mu = tate_triple(weights)
        valid += [tr.build_mhs(mu, tr.sample_point(mu, f"oracle:{s}", 10))
                  for s in range(3)]
        valid.append(tr.build_mhs(mu, tr.sample_rational_point(mu, "oracle", 10)))
    rng = random.Random("perturb")
    return tuple(valid + [_perturbed(rng, rng.choice(valid))
                          for _ in range(175)])


# -- the class from an adapted-basis Hodge section: oracle -------------------

def checked_hom(cut):
    """H = Hom(M/W_pM, W_pM) at a weight cut, from the checked functors:
    both sides are validated before the Hom is formed."""
    return mh.hom(mh.quotient_mhs(cut.m, cut.wp), mh.sub_mhs(cut.m, cut.wp))


def hodge_section_class(cut):
    """The extension class at a weight cut, as unipotent read it before the
    Deligne projectors of M: a Hodge section lifts each vector of an
    adapted basis of F on M/W_pM, tagged q, into F^qM, and inverts the
    basis matrix; e is the rational section minus it, in h coordinates."""
    proj = la.to_qi_mat(cut.proj)
    quo = mh.quotient_mhs(cut.m, cut.wp)
    basis, lifts = [], []
    for q, v in mh._adapted_basis(reversed(quo.F.steps)):
        gens = la.transpose(cut.m.F.at(q).basis)
        basis.append(v)
        lifts.append(la.mat_vec(gens, la.solve(QI, la.mat_mul(proj, gens), v)))
    hodge = la.mat_mul(la.transpose(tuple(lifts)),
                       la.invert(QI, la.transpose(tuple(basis))))
    diff = tuple(tuple(x - y for x, y in zip(r, s))
                 for r, s in zip(cut.section, hodge))
    return mh.hom_vec(la.solve_matrix(QI, la.to_qi_mat(cut.incl), diff),
                      quo.dim, cut.wp.dim)


def table_bigrading(m):
    """The Deligne bigrading read off the whole table of F^p . W_n at the
    jumps of F and of W, two reductions of la.intersect per cell, as
    deligne_bigrading formed it before it reduced each step of F once in
    the graded coordinates of W: the oracle for that."""
    if m.dim == 0:
        return ()
    fj = m.F.jumps
    w = [(n, s.to_qi()) for n, s in m.W.steps]
    zero = Subspace.zero(QI, m.dim)
    # table[i][k] = F^{fj[i]} . W_{w[k]}, with a zero row for F above its
    # last jump and a zero column, at k = -1, for W below its first.
    table = [[la.intersect(f, wn) for _, wn in w] + [zero]
             for _, f in m.F.steps]
    table.append([zero] * (len(w) + 1))

    def conj_fw(q, k):
        return table[bisect.bisect_left(fj, q)][k].conj()

    comps = []
    for i, p in enumerate(fj):
        for k, (n, _) in enumerate(w):
            comp = table[i][k]
            h = (comp.dim - table[i][k - 1].dim
                 - table[i + 1][k].dim + table[i + 1][k - 1].dim)
            if not h:
                continue
            if comp.dim != h:
                rows = list(conj_fw(n - p, k).basis)
                for j, (b, _) in enumerate(w):
                    if b <= n - 2:
                        rows += conj_fw(b - p + 1, j).basis
                comp = la.intersect(comp, Subspace.span(QI, m.dim, rows))
            comps.append(((p, n - p), comp))
    return tuple(comps)


def walked_bigrading(m):
    """The Deligne bigrading by the correction sum at every jump of F and
    of W, as deligne_bigrading formed it before it read the components of
    dimension h^{p,q} off its table of F^p . W_n: the oracle for that."""
    if m.dim == 0:
        return ()
    w = [(n, s.to_qi()) for n, s in m.W.steps]
    comps = []
    for p in m.F.jumps:
        lower, k = Subspace.zero(QI, m.dim), 0  # the sum over b < w[k][0]
        for n, wn in w:
            while w[k][0] <= n - 2:
                b, wb = w[k]
                lower = la.add(lower, la.intersect(m.F.at(b - p + 1).conj(), wb))
                k += 1
            corr = la.add(la.intersect(m.F.at(n - p).conj(), wn), lower)
            comp = la.intersect(la.intersect(m.F.at(p), wn), corr)
            if comp.dim:
                comps.append(((p, n - p), comp))
    return tuple(comps)


def intersection_gr_w(m):
    """The associated graded with F^p Gr^W_n the image under pi_n of
    la.intersect(F^p, W_n), two reductions and a third for the image per
    (p, n), as mh.gr_w formed it before it read each piece off one
    reduction of each step of F (mh._WeightMeets): the oracle for that."""
    out = []
    for piece in mh.graded_pieces(m.W):
        wn = m.W.at(piece.weight).to_qi()
        f = {p: la.apply_to_subspace(piece.pi, la.intersect(s, wn))
             for p, s in m.F.steps}
        out.append((piece.weight, mh.make_mhs(
            piece.dim, {piece.weight: Subspace.full(Q, piece.dim)}, f)))
    return out


# -- sums of images by padding, folding and add chains: oracles ---------------

def padded_direct_sum(m, n):
    """m (+) n with each step the span of m's rows padded by zeros on the
    right and n's on the left: the oracle for mh.direct_sum."""
    dim = m.dim + n.dim

    def pad_m(s):
        return [list(row) + [0] * n.dim for row in s.basis]

    def pad_n(s):
        return [[0] * m.dim + list(row) for row in s.basis]

    w = {k: Subspace.span(Q, dim, pad_m(m.W.at(k)) + pad_n(n.W.at(k)))
         for k in sorted(set(m.W.jumps) | set(n.W.jumps))}
    f = {p: Subspace.span(QI, dim, pad_m(m.F.at(p)) + pad_n(n.F.at(p)))
         for p in sorted(set(m.F.jumps) | set(n.F.jumps))}
    return mh.make_mhs(dim, w, f)


def folded_graded_mhs(pieces):
    """The direct sum of the pieces, folded pairwise from the left: the
    oracle for mh.graded_mhs."""
    out = mh.zero_mhs()
    for _, pure in pieces:
        out = padded_direct_sum(out, pure) if out.dim else pure
    return out


def added_build_mhs(mu, alpha):
    """The structure of a point with F^p the sum alpha_n(F^p Gr_n), added
    piece by piece: the oracle for tr.build_mhs."""
    tr.check_tpoint(mu, alpha)
    f = {}
    for p in sorted({p for _, g in mu.graded for p in g.F.jumps}):
        total = Subspace.zero(QI, mu.dim)
        for (_, g), (_, a) in zip(mu.graded, alpha.sections):
            total = la.add(total, la.apply_to_subspace(a, g.F.at(p)))
        f[p] = total
    return mh.make_mhs(mu.dim, dict(mu.W.steps), f)


def added_fiber_filtration(mu, p, x, y, psi):
    """F of the glued point, incl(x.F^q) + psi(y.F^q) added at each jump:
    the oracle for the filtration of lo.pencil_member."""
    incl = la.to_qi_mat(la.inclusion_map(mu.W.at(p)))
    f = {q: la.add(la.apply_to_subspace(incl, x.F.at(q)),
                   la.apply_to_subspace(psi, y.F.at(q)))
         for q in sorted(set(x.F.jumps) | set(y.F.jumps))}
    return mh.HodgeFiltration.of(mu.dim, f)


# -- frames of Hom and the data triples reads off them: oracles ----------------

def assert_deligne_frame(frame, m):
    """Assert that frame is a Deligne frame of m: its dual rows are dual
    to its vectors (T . S is the identity), and grouped by type (p, q)
    its vectors span the component of that type in deligne_bigrading(m).
    Returns whether some type has p != q."""
    dim = len(frame.vectors)
    assert dim == m.dim
    assert la.mat_mul(frame.duals, la.transpose(frame.vectors)) == la.identity(QI, dim)
    comps = dict(mh.deligne_bigrading(m))
    assert set(frame.types) == set(comps)
    for pq, comp in comps.items():
        group = [v for t, v in zip(frame.types, frame.vectors) if t == pq]
        assert Subspace.span(QI, dim, group) == comp
    return any(p != q for p, q in frame.types)


def hom_lie_data(mu):
    """W_{-1} and F^0 . W_{-1} of End of the graded structure, formed as
    mh.hom of it with itself: the oracle for tr.lie_data."""
    tr.check_triple(mu)
    gm = mh.graded_mhs(mu.graded)
    if gm.dim == 0:
        return tr.LieData(Subspace.zero(Q, 0), Subspace.zero(QI, 0))
    end = mh.hom(gm, gm)
    w_m1 = end.W.at(-1)
    return tr.LieData(w_m1, la.intersect(end.F.at(0), w_m1.to_qi()))


def hom_fiber_dim(mu, p, x, y):
    """dim H - dim F^0 H with H = Hom(y, x) formed as mh.hom of the two
    points' structures: the oracle for tr.fiber_dim."""
    wp = mu.W.at(p)
    if wp.is_zero() or wp.is_full():
        return 0
    h = mh.hom(tr.mhs_of_spoint(y), tr.mhs_of_spoint(x))
    return h.dim - h.F.at(0).dim

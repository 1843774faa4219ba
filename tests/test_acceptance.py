"""Acceptance gate: ten end-to-end criteria, one printed line each.

Each test prints "PASS criterion N: ..." (or FAIL) so the whole gate can
be read off a plain pytest run: `pytest tests/test_acceptance.py -s`.
"""

import contextlib
import json
from fractions import Fraction

import pytest

from helpers import graded_offsets, random_mhs, random_triple
from test_triples import _perturbed_point
from mhslab import cli, corpus
from mhslab import linalg as la
from mhslab import loci as lo
from mhslab import mhs as mh
from mhslab import serialize as se
from mhslab import triples as tr
from mhslab import unipotent as un
from mhslab.field import Q, QI, GaussRat, I
from mhslab.linalg import Subspace

HALF = GaussRat(Fraction(1, 2))
KUMMER_ZS = [GaussRat(0), HALF, I, GaussRat(1, 1)]

CORPUS_MHS = ([corpus.tate_mhs(k) for k in (-1, 0, 2)]
              + [corpus.kummer_mhs(z) for z in KUMMER_ZS]
              + [corpus.two_weight_mhs()])
CORPUS_TRIPLES = [corpus.kummer_triple(), corpus.tate3_triple(),
                  corpus.two_weight_triple()]


@contextlib.contextmanager
def criterion(capsys, n, text):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {n}: {text}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {n}: {text}")


def test_criterion_1_corpus_validation(capsys):
    with criterion(capsys, 1, "corpus validates/rejects exactly; "
                   "functor outputs validate"):
        for m in CORPUS_MHS:
            assert mh.is_valid(m)
            assert mh.is_valid(mh.dual(m))
            assert mh.is_valid(mh.tensor(m, m))
            assert mh.is_valid(mh.hom(m, m))
        # Hand-derived rejections.
        assert not mh.is_valid(mh.make_mhs(
            1, {0: Subspace.full(Q, 1)}, {1: Subspace.full(QI, 1)}))
        assert not mh.is_valid(mh.make_mhs(
            2, {0: Subspace.full(Q, 2)},
            {0: Subspace.full(QI, 2),
             1: Subspace.span(QI, 2, [(GaussRat(1), GaussRat(0))])}))


def test_criterion_2_bigrading_axioms(capsys):
    with criterion(capsys, 2, "bigrading axioms + Gr(a_M) = id on 20 "
                   "seeded random structures"):
        for s in range(20):
            m = random_mhs(s)
            assert m.dim <= 6
            big = dict(mh.deligne_bigrading(m))
            total = Subspace.zero(QI, m.dim)
            for sub in big.values():
                total = la.add(total, sub)
            assert total.is_full()
            assert sum(sub.dim for sub in big.values()) == m.dim
            for n in m.W.jumps:
                w = Subspace.zero(QI, m.dim)
                for (p, q), sub in big.items():
                    if p + q <= n:
                        w = la.add(w, sub)
                assert w == m.W.at(n).to_qi()
            for pj in m.F.jumps:
                f = Subspace.zero(QI, m.dim)
                for (p, q), sub in big.items():
                    if p >= pj:
                        f = la.add(f, sub)
                assert f == m.F.at(pj)
            for (p, q), sub in big.items():
                lower = Subspace.zero(QI, m.dim)
                for (a, b), t in big.items():
                    if a + b <= p + q - 2:
                        lower = la.add(lower, t)
                conj_comp = big.get((q, p), Subspace.zero(QI, m.dim)).conj()
                assert la.add(conj_comp, lower).contains_subspace(sub)
            # The splitting preserves W and F and induces id on the graded.
            a = mh.deligne_splitting(m)
            gm = mh.graded_mhs(mh.gr_w(m))
            for n in m.W.jumps:
                assert gm.W.at(n).to_qi().contains_subspace(
                    la.apply_to_subspace(a, m.W.at(n).to_qi()))
            for p in m.F.jumps:
                assert gm.F.at(p).contains_subspace(
                    la.apply_to_subspace(a, m.F.at(p)))
            for offset, piece in graded_offsets(m.W):
                block = la.mat_mul(a, la.to_qi_mat(piece.section))
                ident = la.identity(QI, piece.dim)
                for i in range(piece.dim):
                    row = block[offset + i]
                    assert row == ident[i]
                for r in range(offset + piece.dim, m.dim):
                    assert all(x == GaussRat(0) for x in block[r])


def test_criterion_3_build_sections_and_equality(capsys):
    with criterion(capsys, 3, "build/sections round trip on 20 samples; "
                   "equality criteria agree on 50 pairs"):
        for s in range(20):
            mu = random_triple(f"c3:{s}", max_dim=5)
            alpha = tr.sample_point(mu, f"c3pt:{s}", 7)
            m = tr.build_mhs(mu, alpha)
            beta = tr.sections_from_mhs(mu, m)
            assert tr.build_mhs(mu, beta).F == m.F
        n_equal = n_unequal = 0
        for s in range(25):
            mu = random_triple(f"c3e:{s}", max_dim=5)
            alpha = tr.sample_point(mu, f"c3a:{s}", 7)
            beta = _perturbed_point(mu, alpha, s)
            assert tr.equal_in_S(mu, alpha, beta)
            assert tr.equal_in_S_group(mu, alpha, beta)
            n_equal += 1
            gamma = tr.sample_point(mu, f"c3b:{s}", 7)
            assert tr.equal_in_S(mu, alpha, gamma) == \
                tr.equal_in_S_group(mu, alpha, gamma)
            n_unequal += 1
        assert n_equal + n_unequal >= 50


def test_criterion_4_truncation_and_fibers(capsys):
    with criterion(capsys, 4, "truncation commutes with build; fibers are "
                   "positive-dimensional across the corpus"):
        for mu in CORPUS_TRIPLES:
            alpha = tr.sample_point(mu, "c4", 7)
            m = tr.build_mhs(mu, alpha)
            for p in mu.W.jumps:
                wp = mu.W.at(p)
                if wp.is_zero() or wp.is_full():
                    continue
                low, high = tr.truncate(mu, p)
                a_low, a_high = tr.truncate_point(mu, p, alpha)
                assert tr.build_mhs(low, a_low).F == mh.sub_mhs(m, wp).F
                assert tr.build_mhs(high, a_high).F == \
                    mh.quotient_mhs(m, wp).F
                x = tr.spoint(low, a_low)
                y = tr.spoint(high, a_high)
                assert tr.fiber_dim(mu, p, x, y) >= 1


def test_criterion_5_lifting_oracle(capsys):
    with criterion(capsys, 5, "can_lift matches exhaustive bounded-height "
                   "search on the Kummer family"):
        graded_line = Subspace.span(Q, 2, [(0, 1)])
        heights = range(-4, 5)
        dens = range(1, 5)
        for z in KUMMER_ZS:
            m = corpus.kummer_mhs(z)
            lift = lo.can_lift(m, graded_line)
            found = []
            for num in heights:
                for den in dens:
                    line = Subspace.span(Q, 2, [(Fraction(num, den), 1)])
                    if mh.try_sub_mhs(m, line) is not None and \
                            line not in found:
                        found.append(line)
            assert (lift is not None) == z.is_rational()
            assert (lift is not None) == bool(found)
            if lift is not None:
                assert all(s == lift for s in found)  # uniqueness


def test_criterion_6_extension_class_oracle(capsys):
    import random as _random
    zs = [GaussRat(0), HALF, GaussRat(Fraction(2, 3)), GaussRat(3),
          I, GaussRat(1, 1), GaussRat(Fraction(1, 2), Fraction(1, 3))]
    with criterion(capsys, 6, "splits_mod detects rationality of the Kummer "
                   "parameter, independent of section choices"):
        zero = Subspace.zero(Q, 1)
        for z in zs:
            m = corpus.kummer_mhs(z)
            assert un.splits_mod(m, -2, zero) == z.is_rational()
            for k in range(20):
                rep = un.ext_class_rep(m, -2, _random.Random(f"c6:{k}"))
                assert un.splits_mod(m, -2, zero, rep) == z.is_rational()


def test_criterion_7_genericity_experiment(capsys):
    with criterion(capsys, 7, "100 sampled members are u-large (>= 95); all "
                   "3 rational controls degenerate with failing p named"):
        report = un.genericity_experiment(corpus.tate3_triple(), 100, 0, 10)
        assert report["n_samples"] == 100
        assert report["all_large_count"] >= 95
        assert len(report["degenerate"]) == 3
        for control in report["degenerate"]:
            assert control["failing_p"]
            assert set(control["failing_p"]) <= {-6, -2}


def test_criterion_8_hodge_locus_shape(capsys):
    with criterion(capsys, 8, "Kummer pencil: splitting witness cuts a single "
                   "point, identity is Hodge everywhere"):
        mu = corpus.kummer_triple()
        alpha = corpus.kummer_tpoint(GaussRat(0))
        low, high = tr.truncate(mu, -2)
        a_low, a_high = tr.truncate_point(mu, -2, alpha)
        pencil = lo.Pencil(mu, -2, tr.spoint(low, a_low),
                           tr.spoint(high, a_high),
                           la.mat(QI, [[0], [1]]), la.mat(QI, [[1], [0]]))
        end = ["HOM", lo.SELF, lo.SELF]
        witness = lo.locus_on_pencil(pencil, [0, 0, 0, 1], end)
        assert witness.kind == "AFFINE_SUBSET" and not witness.outside_w0
        assert witness.solution() == GaussRat(0)
        identity = lo.locus_on_pencil(pencil, [1, 0, 0, 1], end)
        assert identity.is_all


def test_criterion_9_mt_bound_consistency(capsys):
    with criterion(capsys, 9, "degree-2 Lie bound separates split from "
                   "generic Kummer; decreasing in degree; contains u_p"):
        w_m1_end = mh.hom(corpus.kummer_mhs(I), corpus.kummer_mhs(I)).W.at(-1)
        g2_split = un.mt_lie_upper_bound(corpus.kummer_mhs(HALF), 2)
        assert la.intersect(g2_split, w_m1_end).is_zero()
        g2_generic = un.mt_lie_upper_bound(corpus.kummer_mhs(I), 2)
        assert g2_generic.contains_subspace(w_m1_end)
        for m in CORPUS_MHS:
            g1 = un.mt_lie_upper_bound(m, 1)
            g2 = un.mt_lie_upper_bound(m, 2)
            assert g1.contains_subspace(g2)
        # u_p sits inside the matching block of g_2.
        mu = corpus.tate3_triple()
        m = tr.build_mhs(mu, tr.sample_point(mu, "c9", 4))
        g2 = un.mt_lie_upper_bound(m, 2).to_qi()
        for p, res in un.u_large_detail(m):
            wp = m.W.at(p)
            incl = la.to_qi_mat(la.inclusion_map(wp))
            proj = la.to_qi_mat(la.quotient_map(wp))
            for row in res.subspace.basis:
                b = mh.hom_mat(tuple(GaussRat(x) for x in row),
                               m.dim - wp.dim, wp.dim)
                v = mh.hom_vec(la.mat_mul(incl, la.mat_mul(b, proj)),
                               m.dim, m.dim)
                assert g2.contains(v)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 10, "experiment verb with seed 7 produces "
                   "byte-identical reports"):
        mu_file = tmp_path / "mu.json"
        mu_file.write_text(se.dumps(se.triple_to_json(corpus.tate3_triple())))
        outputs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code = cli.main(["experiment", "--triple", str(mu_file),
                             "--samples", "20", "--seed", "7",
                             "--height", "10", "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["run"]["verb"] == "experiment"
        assert report["seed"] == "7"

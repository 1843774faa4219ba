"""The benchmark's workloads: seeded inputs, the ops they time, and checks.

Each workload is built from (seed, out_dir, size).  `ops(r)` returns the
ops of round r as (label, thunk) pairs; every round has the same ops on
fresh inputs drawn from the seed, so the share of failed ops is the same
in every run.  `check(results)` returns a list of problems; an empty
list means every output has the properties the method guarantees.

The program receives only generated inputs: triples, points, pencils and
JSON files.  Checks compare outputs with properties of the method or with
computations made here apart from the op under test, never with a stored
copy of earlier output.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from mhslab import cli
from mhslab import linalg as la
from mhslab import loci as lo
from mhslab import mhs as mh
from mhslab import triples as tr
from mhslab import unipotent as un
from mhslab.errors import LocusError, MhsError
from mhslab.field import Q, QI, GaussRat
from mhslab.linalg import Subspace

HEIGHT = 10
END = ["HOM", "SELF", "SELF"]


# -- inputs -------------------------------------------------------------------

def tate_triple(weights):
    """Rank-one graded-Tate triple on the coordinate flag, lowest weight first."""
    n = len(weights)
    flag = {w: Subspace.span(Q, n, [[1 if j == i else 0 for j in range(n)]
                                    for i in range(k + 1)])
            for k, w in enumerate(weights)}
    return tr.Triple(n, mh.WeightFiltration.of(n, flag),
                     tuple((w, mh.tate_twist(-w // 2)) for w in weights))


def tate_triple_json(weights) -> dict:
    """The same triple in the CLI's JSON schema, written out by hand."""
    n = len(weights)
    rows = [["1" if j == i else "0" for j in range(n)] for i in range(n)]
    return {"dim": n,
            "W": {str(w): rows[:k + 1] for k, w in enumerate(weights)},
            "graded": [{"weight": w, "F": {str(w // 2): [["1"]]}}
                       for w in weights]}


TATE3 = (-6, -2, 0)
TATE4 = (-14, -6, -2, 0)


def _gauss(rng: random.Random) -> GaussRat:
    """A Gaussian rational with nonzero imaginary part, height at most 9."""
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    im = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    return GaussRat(re, im)


def hodge_at(pencil, v, construction, t) -> bool:
    """Exact evaluation: is v a weight-zero Hodge class at the member t?"""
    d = lo.eval_construction(construction, lo.pencil_member(pencil, t))
    vq = tuple(Fraction(x) for x in v)
    return d.W.at(0).contains(vq) and \
        d.F.at(0).contains(tuple(GaussRat(x) for x in vq))


def in_end(m, p, row):
    """Embed a Hom(M/W_p, W_p) vector into End(M) hom coordinates."""
    wp = m.W.at(p)
    incl = la.to_qi_mat(la.inclusion_map(wp))
    proj = la.to_qi_mat(la.quotient_map(wp))
    b = mh.hom_mat(tuple(GaussRat(x) for x in row), m.dim - wp.dim, wp.dim)
    return mh.hom_vec(la.mat_mul(incl, la.mat_mul(b, proj)), m.dim, m.dim)


# -- checks shared with the self-test ----------------------------------------

def check_experiment_report(report: dict, seed: str, samples: int) -> list:
    """Properties of an experiment report on the three-step Tate triple.

    Every sampled section has non-real off-diagonal entries (the premise,
    verified from sections regenerated here); then the only proper
    subobjects of Hom(M/W_p, W_p) are its weight steps and the top graded
    component of the class is non-rational, so every sample is large at
    both cuts.  All-rational controls split over Q: u_p = 0 at both cuts.
    """
    problems = []
    mu = tate_triple(TATE3)
    for i in range(samples):
        alpha = tr.sample_point(mu, f"{seed}:{i}", HEIGHT)
        for j, (_, sec) in enumerate(alpha.sections):
            if any(sec[r][0].im == 0 for r in range(j)):
                problems.append(f"sample {seed}:{i} has a real off-diagonal entry")
    if report.get("n_samples") != samples or report.get("seed") != seed:
        problems.append("report does not echo samples and seed")
    if report.get("per_p") != [{"p": -6, "n_large": samples},
                               {"p": -2, "n_large": samples}]:
        problems.append(f"not every sample is large at both cuts: {report.get('per_p')}")
    if report.get("all_large_count") != samples:
        problems.append("all_large_count differs from the sample count")
    controls = report.get("degenerate", [])
    if len(controls) != 3:
        problems.append("expected three rational controls")
    for c in controls:
        if c.get("u_p_dims") != {"-6": 0, "-2": 0} or c.get("failing_p") != [-6, -2]:
            problems.append(f"rational control is not split at both cuts: {c}")
    return problems


def check_u_p(m, detail, rng_seed: str) -> list:
    """Each u_p is a subobject, the class splits modulo it, and `large`
    says exactly that u_p is the whole of Hom(M/W_p, W_p)."""
    problems = []
    cuts = list(m.W.jumps[:-1])
    if [p for p, _ in detail] != cuts:
        return [f"cuts {[p for p, _ in detail]} != {cuts}"]
    for p, res in detail:
        wp = m.W.at(p)
        h = mh.hom(mh.quotient_mhs(m, wp), mh.sub_mhs(m, wp))
        try:
            mh.sub_mhs(h, res.subspace)
        except MhsError as exc:
            problems.append(f"u_p at {p} is not a subobject: {exc}")
            continue
        if res.large != (res.subspace.dim == h.dim):
            problems.append(f"large flag at {p} contradicts dim u_p = "
                            f"{res.subspace.dim} of {h.dim}")
        rep = un.ext_class_rep(m, p, random.Random(f"{rng_seed}:{p}"))
        if not un.splits_mod(m, p, res.subspace, rep):
            problems.append(f"class at {p} does not split modulo u_p "
                            "for a redrawn representative")
    return problems


PROBE_T = GaussRat(Fraction(1, 3), Fraction(-2, 5))


def check_locus(pencil, v, result, expect) -> list:
    """A locus result against its expected shape, confirmed pointwise.

    expect is "ALL", "EMPTY" or a GaussRat (the single solution).  Every
    claimed solution must be a Hodge point by exact evaluation, and the
    vector must not be Hodge at solution + 1.  ALL and EMPTY are confirmed
    by exact evaluation at one more point.
    """
    if expect == "ALL":
        if not result.is_all:
            return [f"expected ALL, got {result.kind}"]
        if not hodge_at(pencil, v, END, PROBE_T):
            return [f"ALL locus, but not Hodge at t = {PROBE_T}"]
        return []
    if result.is_all:
        return ["expected a proper locus, got ALL"]
    problems = []
    sol = result.solution()
    if expect == "EMPTY":
        if sol is not None:
            problems.append(f"claimed solution {sol} on an empty locus")
        if hodge_at(pencil, v, END, PROBE_T):
            problems.append(f"empty locus, but Hodge at t = {PROBE_T}")
    elif sol != expect:
        problems.append(f"solution {sol} != {expect}")
    if sol is not None:
        if any(a * sol + b * sol.conj() + c != 0 for a, b, c in result.constraints):
            problems.append("solution violates its own constraints")
        if not hodge_at(pencil, v, END, sol):
            problems.append(f"not Hodge at the claimed solution {sol}")
        if hodge_at(pencil, v, END, sol + 1):
            problems.append(f"Hodge at {sol + 1}, one past the claimed solution")
    return problems


def bracket_problems(s: Subspace, n: int) -> list:
    """Closure of an End subspace under [x, y] = xy - yx, via mat_mul."""
    mats = [mh.hom_mat(row, n, n) for row in s.basis]
    for x in mats:
        for y in mats:
            xy, yx = la.mat_mul(x, y), la.mat_mul(y, x)
            br = tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(xy, yx))
            if not s.contains(mh.hom_vec(br, n, n)):
                return ["bound is not closed under the bracket"]
    return []


def check_mt_bound(m, g3, g2, detail) -> list:
    """The degree-3 bound is a Lie subalgebra inside the degree-2 bound
    that contains every u_p block of the member."""
    problems = bracket_problems(g3, m.dim)
    if not g2.contains_subspace(g3):
        problems.append("degree-3 bound is not inside the degree-2 bound")
    g3c = g3.to_qi()
    for p, res in detail:
        if not all(g3c.contains(in_end(m, p, row)) for row in res.subspace.basis):
            problems.append(f"bound misses the u_p block at {p}")
    return problems


# -- workloads ----------------------------------------------------------------

def split_failures(results):
    """Problems for ops that raised, and the (label, output) pairs that did not."""
    problems = [f"{label}: raised {out!r}" for label, out in results
                if isinstance(out, Exception)]
    return problems, [(label, out) for label, out in results
                      if not isinstance(out, Exception)]


class Tate3Experiment:
    """One op: the `experiment` verb through in-process cli.main."""

    def __init__(self, seed, out_dir, size=None):
        self.seed, self.out_dir = seed, out_dir
        self.samples = size or 2
        self.triple_path = os.path.join(out_dir, f"tate3-{seed}.json")
        self.out_path = os.path.join(out_dir, f"tate3-{seed}-report.json")
        with open(self.triple_path, "w") as fh:
            json.dump(tate_triple_json(TATE3), fh)

    def _call(self, call_seed):
        code = cli.main(["experiment", "--triple", self.triple_path,
                         "--samples", str(self.samples), "--seed", call_seed,
                         "--height", str(HEIGHT), "--out", self.out_path])
        with open(self.out_path, "rb") as fh:
            return code, fh.read()

    def ops(self, r):
        call_seed = f"{self.seed}.{r}"
        return [(call_seed, lambda: self._call(call_seed))]

    def check(self, results):
        problems, results = split_failures(results)
        for call_seed, (code, raw) in results:
            if code != 0:
                problems.append(f"experiment {call_seed} exited {code}")
                continue
            problems += check_experiment_report(json.loads(raw), call_seed,
                                                self.samples)
        if results:
            first_seed, (_, first_raw) = results[0]
            if self._call(first_seed)[1] != first_raw:
                problems.append("two calls with the same seed differ in bytes")
        return problems


class Tate4Sample:
    """One op: sample, build and u at every cut of the four-step triple."""

    def __init__(self, seed, out_dir, size=None):
        self.seed = seed
        self.mu = tate_triple(TATE4)

    def _sample(self, point_seed):
        alpha = tr.sample_point(self.mu, point_seed, HEIGHT)
        m = tr.build_mhs(self.mu, alpha)
        return m, un.u_large_detail(m)

    def ops(self, r):
        point_seed = f"{self.seed}.{r}"
        return [(point_seed, lambda: self._sample(point_seed))]

    def check(self, results):
        problems, results = split_failures(results)
        for point_seed, (m, detail) in results:
            problems += check_u_p(m, detail, f"check:{point_seed}")
        control = tr.build_mhs(self.mu, tr.sample_rational_point(
            self.mu, f"{self.seed}:control", HEIGHT))
        if any(res.subspace.dim for _, res in un.u_large_detail(control)):
            problems.append("all-rational control has u_p != 0 at some cut")
        return problems


def kummer_pencil(shift):
    """The Kummer family through z = shift + t, as a pencil at cut -2."""
    mu = tr.Triple(2, mh.WeightFiltration.of(
        2, {-2: Subspace.span(Q, 2, [(1, 0)]), 0: Subspace.full(Q, 2)}),
        ((-2, mh.tate_twist(1)), (0, mh.tate_twist(0))))
    alpha = tr.TPoint(((-2, la.mat(QI, [[1], [0]])), (0, la.mat(QI, [[0], [1]]))))
    low, high = tr.truncate(mu, -2)
    a_low, a_high = tr.truncate_point(mu, -2, alpha)
    return lo.Pencil(mu, -2, tr.spoint(low, a_low), tr.spoint(high, a_high),
                     la.mat(QI, [[shift], [1]]), la.mat(QI, [[1], [0]]))


def tate3_pencil():
    """The named fault's pencil: through cut -2 of sample_point(mu, "pen", 10),
    based at the point's weight-0 section, in direction e1."""
    mu = tate_triple(TATE3)
    alpha = tr.sample_point(mu, "pen", 10)
    low, high = tr.truncate(mu, -2)
    a_low, a_high = tr.truncate_point(mu, -2, alpha)
    return lo.Pencil(mu, -2, tr.spoint(low, a_low), tr.spoint(high, a_high),
                     alpha.section(0), la.mat(QI, [[1], [0], [0]]))


# The two roots of the spurious quadratic the named fault produces.
FAULT_ROOTS = (GaussRat(Fraction(4, 9), Fraction(-8, 7)),
               GaussRat(Fraction(-1343, 360), Fraction(293, 840)))
E9 = (0,) * 8 + (1,)


class PencilLocus:
    """Ops: locus_on_pencil with End, on seeded Kummer pencils and on the
    fixed three-step pencil (identity, and the failing projector e9).

    On the Kummer pencil through z = shift + t, the identity is Hodge
    everywhere, both coordinate projectors exactly where the extension
    splits (t = -shift), and the nilpotent e2 -> e1 (type (-1,-1))
    nowhere.
    """

    KUMMER = (((1, 0, 0, 1), "ALL"), ((0, 0, 0, 1), "SPLIT"),
              ((1, 0, 0, 0), "SPLIT"), ((0, 0, 1, 0), "EMPTY"))
    IDENTITY3 = (1, 0, 0, 0, 1, 0, 0, 0, 1)

    def __init__(self, seed, out_dir, size=None):
        self.seed = seed
        self.n_kummer = size or 4
        self.big = tate3_pencil()

    def ops(self, r):
        rng = random.Random(f"{self.seed}:{r}")
        out = []
        for _ in range(self.n_kummer):
            shift = _gauss(rng)
            pen = kummer_pencil(shift)
            for v, expect in self.KUMMER:
                expect = -shift if expect == "SPLIT" else expect
                out.append(((pen, v, expect),
                            lambda pen=pen, v=v: lo.locus_on_pencil(pen, v, END)))
        for v, expect in ((self.IDENTITY3, "ALL"), (E9, "EMPTY")):
            out.append(((self.big, v, expect),
                        lambda v=v: lo.locus_on_pencil(self.big, v, END)))
        return out

    def check(self, results):
        problems = []
        for (pencil, v, expect), result in results:
            if isinstance(result, LocusError):
                # The named fault: e9 on the three-step pencil raises.
                if not (pencil is self.big and v == E9 and "not linear" in str(result)):
                    problems.append(f"locus raised {result}")
                continue
            problems += check_locus(pencil, v, result, expect)
        if any(hodge_at(self.big, E9, END, t) for t in FAULT_ROOTS):
            problems.append("e9 is Hodge at a root of the spurious quadratic")
        return problems


class MtBound:
    """One op: the degree-3 Lie-algebra bound of a seeded three-step member."""

    def __init__(self, seed, out_dir, size=None):
        self.seed = seed
        self.degree = 3
        self.mu = tate_triple(TATE3)

    def ops(self, r):
        m = tr.build_mhs(self.mu, tr.sample_point(self.mu, f"{self.seed}.{r}", HEIGHT))
        return [(m, lambda: un.mt_lie_upper_bound(m, self.degree))]

    def check(self, results):
        problems, results = split_failures(results)
        for m, g3 in results:
            problems += check_mt_bound(m, g3, un.mt_lie_upper_bound(m, 2),
                                       un.u_large_detail(m))
        return problems


WORKLOADS = {
    "tate3_experiment": Tate3Experiment,
    "tate4_sample": Tate4Sample,
    "pencil_locus": PencilLocus,
    "mt_bound": MtBound,
}

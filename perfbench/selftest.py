"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Each checker must reject a deliberately wrong answer (a flipped `large`
flag, a locus solution shifted by 1, a subspace not closed under the
bracket), and each workload must run one round at its smallest size with
every check passing.  Exits 0 when all of that holds.  The full run takes
about a minute and a half, most of it the four-step sample.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys
import tempfile
import time

import run

wls = run.load()  # puts the checkout's mhslab on the path
from mhslab import loci as lo  # noqa: E402
from mhslab import triples as tr  # noqa: E402
from mhslab import unipotent as un  # noqa: E402
from mhslab.field import Q  # noqa: E402
from mhslab.linalg import Subspace  # noqa: E402

SMALLEST = {"tate3_experiment": 1, "pencil_locus": 1}


def expect_rejected(name, problems):
    if not problems:
        raise AssertionError(f"{name}: the checker accepted a wrong answer")
    print(f"ok   {name} rejected: {problems[0]}")


def wrong_answers():
    mu3 = wls.tate_triple(wls.TATE3)

    # A flipped large flag, in an experiment report and in a u_p result.
    with tempfile.TemporaryDirectory() as tmp:
        wl = wls.Tate3Experiment("selftest", tmp, 1)
        code, raw = wl.ops(0)[0][1]()
        assert code == 0
        report = json.loads(raw)
        assert not wls.check_experiment_report(report, "selftest.0", 1)
        report["per_p"][0]["n_large"] -= 1
        report["all_large_count"] -= 1
        expect_rejected("experiment report with one sample not large",
                        wls.check_experiment_report(report, "selftest.0", 1))
    m = tr.build_mhs(mu3, tr.sample_point(mu3, "selftest", wls.HEIGHT))
    detail = un.u_large_detail(m)
    assert not wls.check_u_p(m, detail, "selftest")
    flipped = [(p, dataclasses.replace(res, large=not res.large) if i == 0 else res)
               for i, (p, res) in enumerate(detail)]
    expect_rejected("u_p result with a flipped large flag",
                    wls.check_u_p(m, flipped, "selftest"))

    # A locus solution shifted by 1.
    shift = wls._gauss(random.Random("selftest"))
    pencil = wls.kummer_pencil(shift)
    v = (0, 0, 0, 1)
    result = lo.locus_on_pencil(pencil, v, wls.END)
    assert not wls.check_locus(pencil, v, result, -shift)
    a, b, c = result.constraints[0]
    moved = dataclasses.replace(result, constraints=((a, b, c - a),))
    expect_rejected("locus solution shifted by 1",
                    wls.check_locus(pencil, v, moved, -shift))
    expect_rejected("locus solution shifted by 1, by exact evaluation alone",
                    wls.check_locus(pencil, v, moved, moved.solution()))

    # A subspace of End that is not closed under the bracket: E_12, E_21.
    n = m.dim
    e12, e21 = ([1 if s == k else 0 for s in range(n * n)] for k in (n, 1))
    open_pair = Subspace.span(Q, n * n, [e12, e21])
    expect_rejected("bracket closure of span(E12, E21)",
                    wls.bracket_problems(open_pair, n))
    expect_rejected("mt-bound check given span(E12, E21)",
                    wls.check_mt_bound(m, open_pair, Subspace.full(Q, n * n), []))


def smallest_runs():
    for name, cls in wls.WORKLOADS.items():
        t0 = time.perf_counter()
        wl = cls("selftest", run.OUT, SMALLEST.get(name))
        _, results, failed = run.run_ops(wl.ops(0))
        problems = wl.check(results)
        if problems:
            raise AssertionError(f"{name}: {problems}")
        print(f"ok   {name}: one round, {len(results)} ops, {failed} failed, "
              f"checks pass ({time.perf_counter() - t0:.1f} s)")


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    wrong_answers()
    smallest_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

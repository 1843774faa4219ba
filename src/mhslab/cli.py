"""Command-line front end.

Every verb reads JSON, computes with the library, and writes a JSON
document (stdout or --out).  Output is deterministic: given the same
inputs and seed, the bytes are identical.  Exit codes: 0 success,
2 I/O / parse / schema problems, 3 mathematical rejection, 4 regime
violations, 5 resource-guard trips.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from typing import Dict, List, Optional

from . import __version__
from . import corpus
from . import loci as lo
from . import mhs as mh
from . import serialize as se
from . import triples as tr
from . import unipotent as un
from .errors import MhsError, ParseError, RegimeError, ResourceGuardError
from .field import Q, QI, format_qi, parse_qi

EXIT_OK = 0
EXIT_IO = 2
EXIT_MATH = 3
EXIT_REGIME = 4
EXIT_GUARD = 5


def _read_json(path: str, digests: Dict[str, str]):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    digests[path] = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def _emit(doc: dict, out: Optional[str]) -> None:
    text = se.dumps(doc)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"{out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _run_record(verb: str, digests: Dict[str, str], **extra) -> dict:
    rec = {"verb": verb, "inputs": digests, "version": __version__}
    rec.update(extra)
    return rec


# -- verb implementations -----------------------------------------------------

def _cmd_validate(args, digests):
    m = se.mhs_from_json(_read_json(args.file, digests))
    problems = mh.validate_mhs(m)
    doc = {"run": _run_record("validate", digests),
           "valid": not problems, "problems": problems}
    return doc, EXIT_OK if not problems else EXIT_MATH


def _cmd_functors(args, digests):
    m = mh.check_valid(se.mhs_from_json(_read_json(args.file, digests)))
    doc = {"run": _run_record("functors", digests),
           "dual": se.mhs_to_json(mh.dual(m)),
           "tensor_square": se.mhs_to_json(mh.tensor(m, m)),
           "end": se.mhs_to_json(mh.hom(m, m))}
    return doc, EXIT_OK


def _cmd_hodge_classes(args, digests):
    m = mh.check_valid(se.mhs_from_json(_read_json(args.file, digests)))
    classes = mh.hodge_classes(m)
    doc = {"run": _run_record("hodge-classes", digests),
           "dim": classes.dim, "basis": se.subspace_to_json(classes)}
    return doc, EXIT_OK


def _cmd_split(args, digests):
    m = mh.check_valid(se.mhs_from_json(_read_json(args.file, digests)))
    big = mh.deligne_bigrading(m)
    doc = {"run": _run_record("split", digests),
           "splitting": se.matrix_to_json(QI, mh.deligne_splitting(m)),
           "bigrading": {f"{p},{q}": se.subspace_to_json(s)
                         for (p, q), s in big}}
    return doc, EXIT_OK


def _cmd_build(args, digests):
    mu = tr.check_triple(se.triple_from_json(_read_json(args.triple, digests)))
    alpha = se.tpoint_from_json(_read_json(args.point, digests))
    m = tr.build_mhs(mu, alpha)
    return {"run": _run_record("build", digests),
            **se.mhs_to_json(m)}, EXIT_OK


def _cmd_sections(args, digests):
    mu = tr.check_triple(se.triple_from_json(_read_json(args.triple, digests)))
    m = mh.check_valid(se.mhs_from_json(_read_json(args.file, digests)))
    alpha = tr.sections_from_mhs(mu, m)
    return {"run": _run_record("sections", digests),
            **se.tpoint_to_json(alpha)}, EXIT_OK


def _cmd_truncate(args, digests):
    mu = tr.check_triple(se.triple_from_json(_read_json(args.triple, digests)))
    low, high = tr.truncate(mu, args.p)
    doc = {"run": _run_record("truncate", digests, p=args.p),
           "low": se.triple_to_json(low), "high": se.triple_to_json(high)}
    if args.point:
        alpha = se.tpoint_from_json(_read_json(args.point, digests))
        a_low, a_high = tr.truncate_point(mu, args.p, alpha)
        doc["low_point"] = se.tpoint_to_json(a_low)
        doc["high_point"] = se.tpoint_to_json(a_high)
    return doc, EXIT_OK


def _cmd_fiber(args, digests):
    pencil = se.pencil_from_json(_read_json(args.file, digests))
    t = parse_qi(args.t)
    m = lo.pencil_member(pencil.check(), t)
    doc = {"run": _run_record("fiber", digests, t=args.t),
           "point": se.spoint_to_json(tr.SPoint(pencil.triple, m.F)),
           "fiber_dim": tr.fiber_dim(pencil.triple, pencil.p,
                                     pencil.x, pencil.y)}
    return doc, EXIT_OK


def _cmd_lift(args, digests):
    data = _read_json(args.file, digests)
    if not (isinstance(data, dict) and
            set(data) == {"structure", "graded_rows"}):
        raise ParseError("lift input needs keys structure, graded_rows")
    m = mh.check_valid(se.mhs_from_json(data["structure"]))
    a_tilde = se.subspace_from_json(Q, m.dim, data["graded_rows"],
                                    "graded_rows")
    lift = lo.can_lift(m, a_tilde)
    doc = {"run": _run_record("lift", digests),
           "liftable": lift is not None,
           "lift": se.subspace_to_json(lift) if lift is not None else None}
    return doc, EXIT_OK


def _cmd_locus(args, digests):
    pencil = se.pencil_from_json(_read_json(args.file, digests))
    try:
        vector = json.loads(args.vector)
        construction = json.loads(args.construction)
    except ValueError as exc:
        raise ParseError(f"bad --vector/--construction: {exc}") from exc
    (vector,) = se.matrix_from_json(Q, [vector], "vector")
    res = lo.locus_on_pencil(pencil, vector, construction)
    doc = {"run": _run_record("locus", digests),
           "kind": res.kind,
           "outside_w0": res.outside_w0,
           "constraints": [[format_qi(a), format_qi(b), format_qi(c)]
                           for a, b, c in res.constraints]}
    return doc, EXIT_OK


def _cmd_up(args, digests):
    m = mh.check_valid(se.mhs_from_json(_read_json(args.file, digests)))
    res = un.u_p_tate(m, args.p)
    doc = {"run": _run_record("up", digests, p=args.p),
           "regime": res.regime, "large": res.large,
           "dim": res.subspace.dim,
           "basis": se.subspace_to_json(res.subspace)}
    return doc, EXIT_OK


def _cmd_u_large(args, digests):
    m = mh.check_valid(se.mhs_from_json(_read_json(args.file, digests)))
    detail = un.u_large_detail(m)
    doc = {"run": _run_record("u-large", digests),
           "large": all(res.large for _, res in detail),
           "per_p": [{"p": p, "large": res.large, "dim": res.subspace.dim}
                     for p, res in detail]}
    return doc, EXIT_OK


def _cmd_mt_bound(args, digests):
    m = mh.check_valid(se.mhs_from_json(_read_json(args.file, digests)))
    g = un.mt_lie_upper_bound(m, args.degree)
    doc = {"run": _run_record("mt-bound", digests, degree=args.degree),
           "dim": g.dim, "basis": se.subspace_to_json(g)}
    return doc, EXIT_OK


def _cmd_experiment(args, digests):
    # genericity_experiment checks the triple, of a file or the default.
    mu = (se.triple_from_json(_read_json(args.triple, digests))
          if args.triple else corpus.tate3_triple())
    report = un.genericity_experiment(mu, args.samples, args.seed, args.height)
    report["run"] = _run_record("experiment", digests, seed=str(args.seed),
                                samples=args.samples, height=args.height)
    return report, EXIT_OK


# -- dispatcher ---------------------------------------------------------------

def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {n}")
    return n


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhslab",
        description="Exact computation with mixed Hodge structures over Q(i)")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the JSON result to this path")
        return p

    verb("validate", _cmd_validate,
         help="check the mixed Hodge structure axioms").add_argument("file")
    verb("functors", _cmd_functors,
         help="dual, tensor square, End").add_argument("file")
    verb("hodge-classes", _cmd_hodge_classes,
         help="weight-zero rational Hodge classes").add_argument("file")
    verb("split", _cmd_split,
         help="canonical bigrading and splitting").add_argument("file")

    p = verb("build", _cmd_build, help="structure from a section tuple")
    p.add_argument("--triple", required=True)
    p.add_argument("--point", required=True)

    p = verb("sections", _cmd_sections,
             help="canonical section tuple of a structure")
    p.add_argument("--triple", required=True)
    p.add_argument("file")

    p = verb("truncate", _cmd_truncate, help="truncate a triple (and point)")
    p.add_argument("--triple", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--point")

    p = verb("fiber", _cmd_fiber,
             help="assemble a fiber point from a pencil file")
    p.add_argument("file")
    p.add_argument("--t", default="0", help="pencil parameter (Q(i) string)")

    verb("lift", _cmd_lift,
         help="lift a graded subobject").add_argument("file")

    p = verb("locus", _cmd_locus, help="Hodge locus along a pencil")
    p.add_argument("file")
    p.add_argument("--vector", required=True,
                   help="JSON array of rational strings")
    p.add_argument("--construction", required=True,
                   help='JSON construction term, e.g. ["HOM","SELF","SELF"]')

    p = verb("up", _cmd_up, help="unipotent-radical block at a weight cut")
    p.add_argument("file")
    p.add_argument("--p", type=int, required=True)

    verb("u-large", _cmd_u_large,
         help="largeness at every weight cut").add_argument("file")

    p = verb("mt-bound", _cmd_mt_bound,
             help="bounded-degree Lie-algebra upper bound")
    p.add_argument("file")
    p.add_argument("--degree", type=_positive, default=2)

    p = verb("experiment", _cmd_experiment, help="genericity experiment")
    p.add_argument("--triple", help="triple JSON file (default: the "
                   "three-step Tate triple, weights -6, -2, 0)")
    p.add_argument("--samples", type=_count, default=100)
    p.add_argument("--seed", default="0")
    p.add_argument("--height", type=_positive, default=10)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    digests: Dict[str, str] = {}
    try:
        doc, code = args.fn(args, digests)
        _emit(doc, args.out)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RecursionError:
        # JSON input nests without bound (loci raises ParseError for a
        # construction term nested too deeply).
        print("error: input is nested too deeply", file=sys.stderr)
        return EXIT_IO
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except MhsError as exc:
        # Not-an-MHS, not-a-subobject, degenerate ranges, locus failures.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters around the public functions of mhslab's layers.

The tracer replaces each public function of the traced modules with a
wrapper, on its defining module and on every mhslab module that imported
it by name, so calls made through module globals are caught as well.
Public methods of the classes those modules define are wrapped on the
class.  `field` is not wrapped: per-scalar spans would swamp the work,
so its cost shows up as linalg self time and in `linalg.entry_bits.max`.

Spans live in flat in-memory arrays (name, parent, start, end) and are
written out once, after the traced round.
"""

from __future__ import annotations

import functools
import sys
from array import array
from fractions import Fraction
from time import perf_counter

LAYERS = ("linalg", "mhs", "triples", "loci", "unipotent", "serialize", "cli")

# Trivial accessors, called far more often than they cost; wrapping them
# would measure the tracer rather than the program.
SKIP_METHODS = {"at", "is_zero", "is_full", "items", "piece", "section"}

REDUCE = ("linalg.Subspace.span", "linalg.kernel", "linalg.solve")
FUNCTORS = ("mhs.dual", "mhs.tensor", "mhs.hom", "mhs.sub_mhs",
            "mhs.quotient_mhs")
# Functions whose inclusive time is a metric get a span on every call,
# also when their own layer calls them.
WATCHED = {"mhs.deligne_bigrading", "mhs.validate_mhs", "mhs.hodge_classes",
           "loci.can_lift", "loci.locus_on_pencil", "unipotent.u_p_tate",
           "unipotent.splits_mod", *FUNCTORS}


def _bits(x) -> int:
    """Bit length of the larger of numerator and denominator."""
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return max(_bits(x.re), _bits(x.im))  # GaussRat


class Tracer:
    """Records spans with parent links, plus the counters the spans miss.

    A call made from inside its own layer is only counted, unless its
    name is WATCHED: the span would not change any layer's self time.
    """

    def __init__(self):
        self.names = []            # name id -> span name
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = []            # name id -> calls, spans or not
        self._stack = []
        self.layer = None          # layer of the innermost open span
        self.reduce_entries = 0
        self.entry_bits_max = 0
        self.splitting_inputs = set()
        self.lifts_found = 0
        self._undo = []

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def _wrapper(self, name: str, fn):
        nid = self.name_id(name)
        layer = name.split(".", 1)[0]
        always = name in WATCHED
        hook = _HOOKS.get(name)
        tracer, calls, stack = self, self.calls, self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            outer = tracer.layer
            if outer == layer and not always:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, args, kwargs, False)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            tracer.layer = layer
            starts.append(perf_counter())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, args, kwargs, outer != layer)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                tracer.layer = outer
        return traced

    def span(self, name: str, fn):
        """Run fn() inside a span of its own (used for the op roots)."""
        return self._wrapper(name, fn)()

    def _note_reduction(self, rows: int, cols: int, matrix, boundary: bool) -> None:
        """Count a row reduction; entry sizes are read where other layers
        hand matrices to linalg, not on linalg's own intermediate steps."""
        self.reduce_entries += rows * cols
        if boundary:
            for row in matrix:
                for x in row:
                    b = _bits(x)
                    if b > self.entry_bits_max:
                        self.entry_bits_max = b

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the traced layers."""
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mhslab" or n.startswith("mhslab."))]
        for layer in LAYERS:
            mod = sys.modules[f"mhslab.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped = self._wrapper(f"{layer}.{attr}", obj)
                    for other in package:
                        for k, v in list(vars(other).items()):
                            if v is obj:
                                self._set(other, k, wrapped, obj)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or attr in SKIP_METHODS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrapper(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrapper(name, raw.__func__))
            elif callable(raw):
                new = self._wrapper(name, raw)
            else:
                continue  # properties and plain attributes
            self._set(cls, attr, new, raw)

    def _set(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics, per op of the traced round."""
        n = len(self.name)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        calls = dict(zip(names, self.calls))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = {}
        for i in range(n):
            layer = names[self.name[i]].split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child[i]

        def count(*group):
            return sum(calls.get(g, 0) for g in group)

        def outer_s(match):
            """Time inside spans that match, not counting nested matches."""
            hit = [match(nm) for nm in names]
            inside = [False] * n   # some proper ancestor matches
            total = 0.0
            for i in range(n):
                p = self.parent[i]
                inside[i] = p >= 0 and (inside[p] or hit[self.name[p]])
                if hit[self.name[i]] and not inside[i]:
                    total += dur[i]
            return total

        def named(*group):
            return lambda nm: nm in group

        split_calls = count("mhs.deligne_splitting")
        lift_calls = count("loci.can_lift")
        per_op = {
            "linalg.reduce.calls": (count(*REDUCE), "count/op"),
            "linalg.reduce.entries": (self.reduce_entries, "count/op"),
            "linalg.intersect.calls": (count("linalg.intersect"), "count/op"),
            "linalg.mat_mul.calls": (count("linalg.mat_mul"), "count/op"),
            "linalg.self_s": (self_s.get("linalg", 0.0), "s/op"),
            "mhs.deligne_splitting.calls": (split_calls, "count/op"),
            "mhs.deligne_bigrading.s": (outer_s(named("mhs.deligne_bigrading")), "s/op"),
            "mhs.validate_mhs.calls": (count("mhs.validate_mhs"), "count/op"),
            "mhs.validate_mhs.s": (outer_s(named("mhs.validate_mhs")), "s/op"),
            "mhs.functors.calls": (count(*FUNCTORS), "count/op"),
            "mhs.functors.s": (outer_s(named(*FUNCTORS)), "s/op"),
            "mhs.hodge_classes.s": (outer_s(named("mhs.hodge_classes")), "s/op"),
            "mhs.self_s": (self_s.get("mhs", 0.0), "s/op"),
            "loci.can_lift.calls": (lift_calls, "count/op"),
            "loci.can_lift.s": (outer_s(named("loci.can_lift")), "s/op"),
            "loci.locus_on_pencil.s": (outer_s(named("loci.locus_on_pencil")), "s/op"),
            "loci.self_s": (self_s.get("loci", 0.0), "s/op"),
            "unipotent.u_p_tate.calls": (count("unipotent.u_p_tate"), "count/op"),
            "unipotent.u_p_tate.s": (outer_s(named("unipotent.u_p_tate")), "s/op"),
            "unipotent.splits_mod.calls": (count("unipotent.splits_mod"), "count/op"),
            "unipotent.splits_mod.s": (outer_s(named("unipotent.splits_mod")), "s/op"),
            "unipotent.ext_class_rep.calls": (count("unipotent.ext_class_rep"), "count/op"),
            "unipotent.self_s": (self_s.get("unipotent", 0.0), "s/op"),
            "triples.build_mhs.calls": (count("triples.build_mhs"), "count/op"),
            "triples.self_s": (self_s.get("triples", 0.0), "s/op"),
            "serialize.s": (outer_s(lambda nm: nm.startswith("serialize.")), "s/op"),
            "cli.self_s": (self_s.get("cli", 0.0), "s/op"),
        }
        out = {k: {"value": v / n_ops, "unit": u} for k, (v, u) in per_op.items()}
        out["linalg.entry_bits.max"] = {"value": self.entry_bits_max, "unit": "bit"}
        out["mhs.deligne_splitting.distinct_ratio"] = {
            "value": len(self.splitting_inputs) / split_calls if split_calls else 0.0,
            "unit": "ratio"}
        out["loci.can_lift.lift_ratio"] = {
            "value": self.lifts_found / lift_calls if lift_calls else 0.0,
            "unit": "ratio"}
        return out

    def write(self, path: str) -> None:
        """One line per span: id, parent id, name, start and end in ns."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{round((self.start[i] - t0) * 1e9)}\t"
                         f"{round((self.end[i] - t0) * 1e9)}\n")


# -- hooks: counters measured at the boundary where the work happens -------

def _hook_span(tracer, fn, args, kwargs, boundary):
    # Subspace.span(field, ambient_dim, rows): rows may be a generator.
    cls, field, ambient, rows = args[0], args[1], args[2], list(args[3])
    tracer._note_reduction(len(rows), ambient, rows, boundary)
    return fn(cls, field, ambient, rows, **kwargs)


def _hook_kernel(tracer, fn, args, kwargs, boundary):
    a = args[1]
    ncols = args[2] if len(args) > 2 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(a[0]) if a else 0
    tracer._note_reduction(len(a), ncols, a, boundary)
    return fn(*args, **kwargs)


def _hook_solve(tracer, fn, args, kwargs, boundary):
    a, b = args[1], args[2]
    tracer._note_reduction(len(a), (len(a[0]) if a else 0) + 1, a, boundary)
    tracer._note_reduction(0, 0, (b,), boundary)
    return fn(*args, **kwargs)


def _hook_splitting(tracer, fn, args, kwargs, boundary):
    tracer.splitting_inputs.add(args[0])
    return fn(*args, **kwargs)


def _hook_can_lift(tracer, fn, args, kwargs, boundary):
    out = fn(*args, **kwargs)
    if out is not None:
        tracer.lifts_found += 1
    return out


_HOOKS = {
    "linalg.Subspace.span": _hook_span,
    "linalg.kernel": _hook_kernel,
    "linalg.solve": _hook_solve,
    "mhs.deligne_splitting": _hook_splitting,
    "loci.can_lift": _hook_can_lift,
}

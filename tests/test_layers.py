"""Module layering: each module imports only modules of lower layers."""

import ast
from pathlib import Path

import mhslab
from mhslab import mhs as mh

LAYERS = ["errors", "field", "linalg", "mhs", "triples", "corpus",
          "serialize", "loci", "unipotent", "cli"]
PACKAGE = Path(mhslab.__file__).parent


def _imported_modules(name):
    """The mhslab modules a module imports, anywhere in its body."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names
                    if a.name.startswith("mhslab.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("mhslab."):
                out.add(module.split(".")[1])
            elif node.level == 1 and module:
                out.add(module.split(".")[0])
            elif node.level == 1 or module == "mhslab":
                # from . import x: x is a module, or a name of the package
                out |= {a.name for a in node.names if a.name in LAYERS}
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_modules_import_only_lower_layers():
    for rank, name in enumerate(LAYERS):
        upward = {m for m in _imported_modules(name)
                  if LAYERS.index(m) >= rank}
        assert not upward, f"{name} imports {sorted(upward)}"


def _unused_imports(name):
    """The names a module imports but never reads."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_modules_use_every_name_they_import():
    for name in LAYERS:
        unused = _unused_imports(name)
        assert not unused, f"{name} imports {sorted(unused)} and never uses them"


def _private_functions_left_unreferenced():
    """Private top-level functions no other top-level statement of the
    package reads, by name or as a module attribute."""
    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text())
             for name in LAYERS}
    defined, reads = set(), set()
    for name, tree in trees.items():
        for stmt in tree.body:
            if (isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_")
                    and not stmt.name.startswith("__")):
                defined.add((name, stmt.name))
                own = stmt.name
            else:
                own = None
            for node in ast.walk(stmt):
                read = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if read is not None and read != own:
                    reads.add(read)
    return sorted((module, fn) for module, fn in defined if fn not in reads)


def test_private_functions_are_referenced():
    unused = _private_functions_left_unreferenced()
    assert not unused, f"private functions never referenced: {unused}"


def _checks_called(name):
    """The checking functions a module calls, as (top-level function,
    called) pairs: *_problems, check_*, validate_mhs, and the problems
    and check methods of a pencil or a filtration."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    out = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                fn = node.func
                called = (fn.id if isinstance(fn, ast.Name) else
                          fn.attr if isinstance(fn, ast.Attribute) else "")
                if (called.endswith("problems") or called.startswith("check")
                        or called == "validate_mhs"):
                    out.add((getattr(top, "name", None), called))
    return out


def test_readers_only_parse():
    """serialize parses and emits; what it reads is checked where it
    enters the library, by the caller.  The one exception is the W of a
    triple: triple_from_json reads the graded entries against the jumps
    of W, so it first rejects a W that is not a filtration."""
    assert _checks_called("serialize") == {("triple_from_json", "problems")}
    # The probe sees the checks of a module that makes them.
    assert {"check_valid", "check_triple"} <= {
        called for _, called in _checks_called("cli")}


def _part_reads(name, attr):
    """The places (line, column) where a module reads attr off a value."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    return {(node.lineno, node.col_offset) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == attr}


def _class_part_reads(name, attr):
    """The reads x.attr in a comprehension whose x runs over some .e, the
    entries of an extension class."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    out = set()
    for comp in ast.walk(tree):
        if not isinstance(comp, (ast.GeneratorExp, ast.ListComp)):
            continue
        over_e = {gen.target.id for gen in comp.generators
                  if isinstance(gen.target, ast.Name)
                  and isinstance(gen.iter, ast.Attribute)
                  and gen.iter.attr == "e"}
        out |= {(node.lineno, node.col_offset) for node in ast.walk(comp.elt)
                if isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.value, ast.Name) and node.value.id in over_e}
    return out


def test_scalar_parts_are_read_in_field_and_linalg():
    """Restriction of scalars is linalg's: everywhere else the rational
    structure is reached through rational_part and rational_hull.  Only
    field and linalg read a scalar's .re; outside them only unipotent
    reads .im, and only of the class e, whose imaginary part u_p holds."""
    for name in LAYERS:
        if name in ("field", "linalg"):
            continue
        assert not _part_reads(name, "re"), name
        im = _part_reads(name, "im")
        if name == "unipotent":
            assert im and im == _class_part_reads(name, "im")
        else:
            assert not im, name


def test_unipotent_reads_the_regime_off_the_frame():
    """The graded-Tate gate reads the types of M's Deligne frame, which
    u_p forms anyway, so unipotent never forms Gr^W M."""
    assert not _part_reads("unipotent", "gr_w")


def _named(tree):
    """The names a syntax tree reads, as an attribute or as a name."""
    return {node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name))}


def _function(module, name):
    """The syntax tree of the top-level function called name in module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _names_read(name):
    """The names a module reads, as an attribute, as a name or in an
    import."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    return _named(tree) | {a.asname or a.name for node in ast.walk(tree)
                           if isinstance(node, ast.ImportFrom)
                           for a in node.names}


def test_unipotent_forms_no_structure_at_a_cut():
    """F^0 H and the subobject test of splits_mod are read off H's frame,
    so unipotent forms no Hom structure, and no side of a cut: it reads
    none of mh.hom, mh.sub_mhs, mh._push_forward or mh._restrict."""
    assert not _names_read("unipotent") & {"hom", "sub_mhs", "_push_forward",
                                           "_restrict"}


def test_triples_forms_no_hom_structure():
    """lie_data reads End off frames and fiber_dim counts Hodge types, so
    triples reads none of mh.hom, mh.tensor or mh.dual."""
    assert not _names_read("triples") & {"hom", "tensor", "dual"}


def test_the_hom_of_frames_has_one_home():
    """The types and krons of a Hom of frames are mh.frame_hom's: neither
    triples nor unipotent reads la.kron_mat."""
    for name in ("triples", "unipotent"):
        assert "kron_mat" not in _names_read(name), name


def test_the_subobject_test_has_one_home():
    """The closure "stable under the projector of each frame type" is
    mhs's, grouped by type (p, q) in one place: one round of it is
    check_subobject, read by splits_mod on H's frame and by can_lift on
    the graded frame, and its rounds to a fixed point are
    generated_subobject, read by u_p on H's frame.  unipotent defines no
    projector or subobject helper of its own, reads no projected_hull or
    projectors, and u_p takes no rational hull itself (_splits takes the
    hull of a_q (x) Q(i) + F^0 H, which is no closure); DeligneFrame has
    no grouping knob."""
    tree = ast.parse((PACKAGE / "unipotent.py").read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {name for name in defined
                if "project" in name or "subobject" in name}
    assert not _names_read("unipotent") & {"projected_hull", "projectors"}
    named = _named(_function("unipotent", "_u_p"))
    assert "generated_subobject" in named
    assert not named & {"rational_hull", "projected_hull", "projectors"}
    assert not hasattr(mh.DeligneFrame, "projectors")


def test_gr_w_reads_its_pieces_off_the_weight_meets():
    """F^p . W_n has one home in mhs, _WeightMeets: gr_w reads every
    F^p Gr^W_n off its reduction of F^p, so its body names neither
    intersect nor apply_to_subspace."""
    named = _named(_function("mhs", "gr_w"))
    assert "_WeightMeets" in named
    assert not named & {"intersect", "apply_to_subspace"}


def _readers(attr):
    """The (module, top-level statement) pairs that read attr, as an
    attribute or as a name; a statement with no name is None."""
    out = set()
    for module in LAYERS:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        out |= {(module, getattr(top, "name", None)) for top in tree.body
                if attr in _named(top)}
    return out


def test_quotient_sections_products_and_blocks_have_one_home():
    """A section of a quotient map is la.split_quotient's, read by the
    graded pieces, the weight cut and the QUOT term of a derived
    structure; only linalg solves.  Products decide their own field, so
    outside linalg only _sample copies a matrix into Q(i), to store a
    section of a point.  A graded piece holds pi over Q and its block
    offset, so mhs keeps no recomputed table of offsets."""
    assert {module for module, _ in _readers("solve_matrix")} == {"linalg"}
    assert {("mhs", "graded_pieces"), ("unipotent", "weight_cut"),
            ("loci", "derive")} <= _readers("split_quotient")
    assert {(module, fn) for module, fn in _readers("to_qi_mat")
            if module != "linalg"} == {("triples", "_sample")}
    assert set(mh.GradedPiece.__slots__) >= {"pi", "offset"}
    assert "pi_qi" not in mh.GradedPiece.__slots__
    assert not hasattr(mh, "_graded_blocks")

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sgadmem"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    # an attribute chain such as np.linalg.eigh starts from the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{path.name} never uses {unused}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    # a module's underscored names are its own: another module that needs
    # one needs a public function instead
    private = sorted(f"{node.module or '.'}.{alias.name}"
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.ImportFrom)
                     and (node.level > 0 or (node.module or "").split(".")[0] == SRC.name)
                     for alias in node.names if alias.name.startswith("_"))
    assert not private, f"{path.name} imports the private names {private}"


MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")

PACKAGE_PROBE = f"""
import json
import sgadmem
bare = sorted(m for m in {MODULES!r} if hasattr(sgadmem, m))
import sgadmem.cli
print(json.dumps([bare, sorted(m for m in {MODULES!r} if hasattr(sgadmem, m))]))
"""


def test_cli_import_binds_every_module_on_the_package():
    # the package binds no names of its own, so a bare import loads no
    # module; importing sgadmem.cli loads every module and binds each as an
    # attribute of the package, which the benchmark's tracer reads
    pythonpath = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PACKAGE_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath), timeout=120)
    assert proc.returncode == 0, proc.stderr
    bare, after_cli = json.loads(proc.stdout)
    assert bare == []
    assert after_cli == MODULES


def _assign_targets(stmt):
    if isinstance(stmt, ast.Assign):
        return stmt.targets
    return [stmt.target] if isinstance(stmt, ast.AnnAssign) else []


def _definitions(tree):
    # the names of a module's module-level functions, classes and assignments
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        else:
            names |= {n.id for t in _assign_targets(node) for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


def _private_definitions(tree):
    # module-level names that start with one underscore (dunder names such
    # as __all__ are read by Python itself)
    return {n for n in _definitions(tree) if n.startswith("_") and not n.startswith("__")}


def _references(tree):
    # names read, attributes accessed and names imported anywhere in a module
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
    return refs


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    # a private module-level name that nothing in the package reads is dead code
    referenced = set().union(*(_references(ast.parse(p.read_text())) for p in SRC.glob("*.py")))
    unused = sorted(_private_definitions(ast.parse(path.read_text())) - referenced)
    assert not unused, f"{path.name} defines {unused}, which nothing in {SRC.name} uses"


# Public names of the package that no module of it reads, each with the
# file outside the package that reads it and why it stays public.
READ_OUTSIDE = {
    "witness.negativity": ("tests/test_acceptance.py", "the independent reference of "
                           "test_c12_property_suites: gmn takes its negativities from "
                           "one gathered spectrum"),
    "witness.xstate_criterion": ("perfbench/tracing.py", "wrapped by the benchmark "
                                 "tracer's BINDINGS, and tested in tests/test_witness.py"),
}


def _public_names_and_reads():
    # each public module-level "module.name" of the package, and every name
    # its modules read (a name read on any receiver counts)
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    public = {f"{module}.{name}" for module, tree in trees.items()
              for name in _definitions(tree) if not name.startswith("_")}
    return public, set().union(*map(_references, trees.values()))


def test_every_public_name_is_read():
    # a public name that no module of the package reads is either dead code
    # or API kept for a reader outside it, which READ_OUTSIDE must name
    public, referenced = _public_names_and_reads()
    unread = sorted(q for q in public if q.split(".")[1] not in referenced and q not in READ_OUTSIDE)
    assert not unread, f"nothing in {SRC.name} reads {unread}; delete them or list them in READ_OUTSIDE"


def test_every_public_name_read_outside_is_needed():
    # an entry of READ_OUTSIDE names a public name that the package defines
    # but does not read, in a file that does read it
    public, referenced = _public_names_and_reads()
    stale = sorted(q for q, (reader, _) in READ_OUTSIDE.items()
                   if q not in public or q.split(".")[1] in referenced
                   or q.split(".")[1] not in (ROOT / reader).read_text())
    assert not stale, f"READ_OUTSIDE lists {stale}, which need no entry there"


def _class_names(tree):
    # (class, name, checked) for each name a class defines: a name assigned
    # in its body, a self.name assigned in one of its methods, a method, or
    # a field of a dataclass (an annotated name in its body). Methods and
    # fields, which its __init__ reads, are not checked for reads.
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((node.name, stmt.name, False))
                found |= {(node.name, t.attr, True) for inner in ast.walk(stmt)
                          for target in _assign_targets(inner) for t in ast.walk(target)
                          if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                          and isinstance(t.value, ast.Name) and t.value.id == "self"}
            else:
                field = dataclass and isinstance(stmt, ast.AnnAssign)
                found |= {(node.name, t.id, not field) for t in _assign_targets(stmt)
                          if isinstance(t, ast.Name)}
    return found


def _attribute_reads(tree):
    # (class, name) for self.name read in a method of that class, and
    # (None, name) for name read on anything else
    reads = set()

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.ClassDef) else cls
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                on_self = isinstance(child.value, ast.Name) and child.value.id == "self"
                reads.add((cls if on_self else None, child.attr))
            visit(child, inner)

    visit(tree, None)
    return reads


# Attributes read by a name that another class in the package defines as
# well, so that such a read alone does not show which class it reaches;
# each entry says why the attribute is read.
SHARED_READS = {}


def _reads_and_definers():
    # the attribute reads of the package and its benchmark harness, and for
    # each name the classes of the package that define it
    readers = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    reads = set().union(*(_attribute_reads(ast.parse(p.read_text())) for p in readers))
    definers = {}
    for p in SRC.glob("*.py"):
        for cls, name, _ in _class_names(ast.parse(p.read_text())):
            definers.setdefault(name, set()).add(cls)
    return reads, definers


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_class_attribute_is_read(path):
    # a class or instance attribute that neither its own methods nor any
    # other code in the package or its benchmark harness reads is dead code;
    # self.name in another class is that class's own attribute, and obj.name
    # on anything else counts only for the one class that defines name
    reads, definers = _reads_and_definers()
    names = _class_names(ast.parse(path.read_text()))
    unread = sorted(f"{cls}.{name}" for cls, name, checked in names
                    if checked and (cls, name) not in reads and (cls, name) not in SHARED_READS
                    and not ((None, name) in reads and definers[name] == {cls}))
    assert not unread, f"{path.name} defines {unread}, which nothing reads"


def test_every_shared_read_is_needed():
    # an entry of SHARED_READS names a checked attribute that its class
    # never reads through self and whose name another class defines too
    reads, definers = _reads_and_definers()
    checked = {(cls, name) for p in SRC.glob("*.py")
               for cls, name, check in _class_names(ast.parse(p.read_text())) if check}
    stale = sorted(f"{cls}.{name}" for cls, name in SHARED_READS
                   if (cls, name) not in checked or (cls, name) in reads
                   or (None, name) not in reads or len(definers[name]) < 2)
    assert not stale, f"SHARED_READS lists {stale}, which need no entry there"


def test_every_dataclass_field_is_read():
    # a result field that no code in the package, its tests or its benchmark
    # harness reads repeats what its caller already has; a read counts
    # whatever its receiver, so a field slips through when another object's
    # attribute of that name is read (ScanResult.scan would, by args.scan)
    files = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    reads = {node.attr for p in files for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{node.name}.{stmt.target.id}" for p in SRC.glob("*.py")
                    for node in ast.walk(ast.parse(p.read_text()))
                    if isinstance(node, ast.ClassDef)
                    and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in reads)
    assert not unread, f"nothing reads the dataclass fields {unread}"


def _dataclass_defaults():
    # (class, position, field) for each defaulted __init__ field of a
    # dataclass in the package
    found = []
    for p in SRC.glob("*.py"):
        for node in ast.parse(p.read_text()).body:
            if isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d)
                                                      for d in node.decorator_list):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                          and "init=False" not in ast.unparse(s)]
                found += [(node.name, i, s.target.id) for i, s in enumerate(fields)
                          if s.value is not None]
    return found


def _passes(call, position, name):
    # whether a call passes the parameter by keyword, through **, or by
    # position; a starred literal tuple or list counts as its elements, and
    # any other starred argument sets no parameter from its position on
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    count = 0
    for arg in call.args:
        if not isinstance(arg, ast.Starred):
            count += 1
        elif isinstance(arg.value, (ast.Tuple, ast.List)):
            count += len(arg.value.elts)
        else:
            break
    return position is not None and count > position


def _call_index(files):
    # the calls of the files by the name they call: f(...) and obj.f(...)
    calls = {}
    for p in files:
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(callee, []).append(node)
    return calls


def test_every_public_default_is_set_by_a_caller():
    # a dataclass field default that no call in the package, its tests or
    # its benchmark harness ever overrides is a knob nothing turns; the
    # defaults of defs are test_every_default_is_set_by_a_caller's, which
    # asks more of them
    calls = _call_index(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    unset = sorted(f"{callee}({name}=...)" for callee, position, name in _dataclass_defaults()
                   if not any(_passes(c, position, name) for c in calls.get(callee, [])))
    assert not unset, f"no call passes {unset}"


# Parameter defaults of the package that no call in it sets, each with the
# file outside the package that sets it and why the parameter stays.
SET_OUTSIDE = {
    "sdp.solve.max_iter": ("tests/test_witness.py", "tests stop a solve after k iterations, "
                           "to bracket an iterate that is not optimal"),
    "channel.choi_matrix.mu": ("perfbench/workloads.py", "the channel-oracle workload builds "
                               "the memory-3q Choi matrix at its own mu"),
    "cli.main.argv": ("perfbench/workloads.py", "the benchmark's workloads and the tests run "
                      "the CLI in-process on their own argv"),
}


def _defaults():
    # "module.def.parameter" -> (def, position, parameter) for each parameter
    # with a default of every def in the package, nested and methods too;
    # position counts the arguments of a call, so a method's self is not
    # one, and is None for a keyword-only parameter. Dataclass field
    # defaults are not parameters of a def: the test of public defaults
    # above checks them.
    found = {}
    for p in SRC.glob("*.py"):
        tree = ast.parse(p.read_text())
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            first, shift = len(positional) - len(a.defaults), int(id(node) in methods)
            params = [(i - shift, arg.arg) for i, arg in enumerate(positional) if i >= first]
            params += [(None, arg.arg) for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                       if default is not None]
            for position, name in params:
                found[f"{p.stem}.{node.name}.{name}"] = (node.name, position, name)
    return found


def test_every_default_is_set_by_a_caller():
    # a parameter with a default that no call in the package sets is a
    # setting no subcommand or module reaches: delete it, or name in
    # SET_OUTSIDE the file outside the package that sets it
    calls = _call_index(SRC.glob("*.py"))
    unset = sorted(q for q, (callee, position, name) in _defaults().items()
                   if not any(_passes(c, position, name) for c in calls.get(callee, []))
                   and q not in SET_OUTSIDE)
    assert not unset, f"no call in {SRC.name} sets {unset}; delete them or list them in SET_OUTSIDE"


def test_every_default_set_outside_is_needed():
    # an entry of SET_OUTSIDE names a default of the package that no call in
    # it sets, and that a call in the named file does set
    defaults, calls = _defaults(), _call_index(SRC.glob("*.py"))
    stale = sorted(q for q, (reader, _) in SET_OUTSIDE.items()
                   if q not in defaults
                   or any(_passes(c, *defaults[q][1:]) for c in calls.get(defaults[q][0], []))
                   or not any(_passes(c, *defaults[q][1:])
                              for c in _call_index([ROOT / reader]).get(defaults[q][0], [])))
    assert not stale, f"SET_OUTSIDE lists {stale}, which need no entry there"


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/tracing.py wraps each module.name of its BINDINGS, and a
    # traced run stops on a name the package no longer defines; the table
    # is read from the source, without importing the harness
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    bindings = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets))
    import sgadmem.cli  # binds every module on the package

    missing = sorted(f"{module}.{name}" for module, names in bindings.items() for name in names
                     if not hasattr(getattr(sgadmem, module, None), name))
    assert bindings and not missing, f"the tracer wraps {missing}, which the package lacks"

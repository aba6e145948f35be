"""The package surface: what ``src/bht`` defines is used by the package itself,
no function calls itself but once per dimension, its values are frozen slotted
dataclasses with no caches, its memos live for one call, importing the library
loads no sampler, the README example runs, the README's CLI block names
every subcommand and the benchmark tracer finds every name it binds."""

import ast
import dataclasses
import importlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import bht
from bht.cli import _COMMANDS

PACKAGE = Path(bht.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"

# Names that no module of the package refers to, each kept for a reason.
UNREFERENCED_BUT_KEPT = {
    "element.commutator": "the README documents it",
    "sampling.random_element": "perfbench draws its elements with it",
    "sampling.random_clopen": "perfbench draws its witness inputs with it",
    "sampling.random_point": "bht.sampling is the one sampler module, points included",
    "SpaceSpec.empty": "it pairs with SpaceSpec.full",
    "textio.format_bisection": "the writer of the 'bisection' format that textio.parse reads; "
                               "format_witness writes bisection blocks with its shared side memo",
}
# Clopen.intersect is one of the set operations, and perfbench calls it. It
# needs no entry: the scan matches methods by name, and
# witness.conjugate_family calls Brick.intersect.


def _definitions_and_references():
    """The definitions of the package, each with the lines of its own body when
    it is a method, and every name and every attribute reference it makes."""
    defined, names, attributes = [], set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(("%s.%s" % (path.stem, node.name), node.name, None))
            if isinstance(node, ast.ClassDef):
                defined += [("%s.%s" % (node.name, item.name), item.name,
                             (path, item.lineno, item.end_lineno))
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not re.fullmatch("__.*__", item.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                attributes.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return defined, names, attributes


def test_every_definition_is_used_by_the_package():
    # a function or class is used when its name appears; a method only through
    # an attribute reference outside its own body, so that neither a function
    # of the same name nor a call to itself keeps it
    defined, names, attributes = _definitions_and_references()

    def used(name, body):
        if body is None:
            return name in names
        path, first, last = body
        return any(attr == name and not (where == path and first <= line <= last)
                   for attr, where, line in attributes)

    unused = {qualified for qualified, name, body in defined if not used(name, body)}
    assert unused == set(UNREFERENCED_BUT_KEPT)


# Functions that call themselves, each with its reason.  A recursion once per
# letter of a word fails on long words with RecursionError, so any other
# recursion must be a loop.
SELF_CALLS_KEPT = {
    "space._section_words": "one level per dimension: the form of each section, one dimension up",
    "space._index_level": "one level per dimension: the sweep of the next dimension's words in each run",
}


def _self_calls(node, prefix):
    """Qualified names of the functions at or under ``node`` whose body, nested
    functions included, calls the function by its own name (a method through
    ``self`` or ``cls``)."""
    out = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            name = "%s.%s" % (prefix, child.name)
            for call in ast.walk(child):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if (isinstance(func, ast.Name) and func.id == child.name
                        or isinstance(func, ast.Attribute) and func.attr == child.name
                        and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")):
                    out.add(name)
            out |= _self_calls(child, name)
        elif isinstance(child, ast.ClassDef):
            out |= _self_calls(child, "%s.%s" % (prefix, child.name))
        else:
            out |= _self_calls(child, prefix)
    return out


def test_the_benchmark_tracer_finds_every_name_it_binds():
    # perfbench/tracer.py binds library functions and methods by name
    # (space.brick_subtract, space.canonical_bricks, Brick.intersect, ...);
    # building its wrappers, without installing them, fails here on a name
    # the library no longer has
    sys.path.insert(0, str(README.parent / "perfbench"))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(README.parent / "perfbench"))
    funcs, methods = tracer.Tracer()._wrappers()
    assert all(callable(f) and callable(w) for f, w in funcs.items())
    assert all(callable(getattr(cls, attr)) and callable(w) for cls, attr, w in methods)


def test_no_function_calls_itself_but_once_per_dimension():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _self_calls(ast.parse(path.read_text()), path.stem)
    assert found == set(SELF_CALLS_KEPT)


def test_values_are_frozen_slotted_dataclasses_without_caches():
    loose = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "cached_property" not in names, path.name
        if path.name == "__init__.py":
            continue
        module = importlib.import_module("bht." + path.stem)
        for name, obj in vars(module).items():
            if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                continue
            params = obj.__dataclass_params__
            if not (params.frozen and params.eq and "__slots__" in vars(obj)):
                loose.add("%s.%s" % (path.stem, name))
    assert loose == set()


def _cache_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def test_memos_stay_local_to_one_call():
    # the one process-wide cache is the CLI's argument parser, and no other
    # name refers to functools' caches; the reader's and the writer's memos
    # live for one call, so a round trip leaves every module-level container
    # of textio as it was
    decorated, references = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        references += sum(_cache_name(node) in ("cache", "lru_cache") for node in ast.walk(tree)
                          if isinstance(node, (ast.Name, ast.Attribute)))
        decorated += ["%s.%s" % (path.stem, node.name) for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      for d in node.decorator_list if _cache_name(d) in ("cache", "lru_cache")]
    assert decorated == ["cli.build_parser"] and references == 1
    from bht import textio
    from bht.sampling import random_element

    def sizes():
        # the containers at module level, and those inside its tuples
        values = [(name, value) for name, value in vars(textio).items() if not name.startswith("__")]
        values += [("%s[%d]" % (name, i), item) for name, value in values
                   if isinstance(value, tuple) for i, item in enumerate(value)]
        return {name: len(value) for name, value in values if isinstance(value, (dict, set, list))}

    before = sizes()
    g = random_element(bht.SpaceSpec(2, (2, 3), 1), random.Random(7), factors=2, splits=3)
    text = textio.format_witness(textio.Witness("test", blocks={"g": g, "h": g}))
    assert textio.format_witness(textio.parse_witness(text)) == text
    assert sizes() == before


def test_the_library_and_cli_load_no_sampler():
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    code = "import sys, bht, bht.cli, bht.verify; print('bht.sampling' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_cli_block_names_every_subcommand():
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    assert set(re.findall(r"^bht (\S+)", block, re.M)) == {name for name, *_ in _COMMANDS}

"""Every top-level function, class and method of the package is reached
from one of its entry points, so code that only tests call lives beside
the tests (``oracles.py``), not in ``src/``.

The roots are the CLI (``cli.main`` and ``cli.console_entry``), the
names ``euler_ss.__all__`` exports, the callables ``bench/tracer.py``
wraps (``TARGETS``) and every module's top-level statements, which run
on import.  A reached definition reaches every top-level definition
named by a name it loads, and every definition, method or top-level,
named by an attribute it loads (``fem.gradient``, ``self.fluxes``).  A
reached class reaches its decorators, bases and class-level statements,
and its dunder methods, which Python calls without naming them.  For the
same reason every module-level dunder function (``__getattr__``,
``__dir__``) is a root.
Matching by name over-approximates the calls: the walk can miss dead
code, but it never flags code that runs.
"""

import ast
from collections import defaultdict
from pathlib import Path

import euler_ss
from test_tracer_targets import load_tracer

SRC = Path(__file__).resolve().parents[1] / "src" / "euler_ss"
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions():
    """{(module, qualified name): node} of every top-level function and
    class and every method, and the list of other top-level statements
    (imports aside: an import reaches nothing until a name is loaded)."""
    defs, module_code = {}, []
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, FUNCS + (ast.ClassDef,)):
                defs[mod, node.name] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, FUNCS):
                            defs[mod, f"{node.name}.{item.name}"] = item
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                module_code.append(node)
    return defs, module_code


def loaded(nodes):
    """(names, attributes) that the nodes load."""
    names, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) \
                    and isinstance(sub.ctx, ast.Load):
                attrs.add(sub.attr)
    return names, attrs


def unreached() -> list[str]:
    defs, module_code = definitions()
    top, any_def = defaultdict(list), defaultdict(list)
    for key in defs:
        qual = key[1]
        any_def[qual.rpartition(".")[2]].append(key)
        if "." not in qual:
            top[qual].append(key)

    roots = [("cli", "main"), ("cli", "console_entry")]
    for name in euler_ss.__all__:
        roots.append((getattr(euler_ss, name).__module__.rpartition(".")[2],
                      name))
    roots += [(t.module, t.name) for t in load_tracer().TARGETS]
    roots += [k for k in defs if "." not in k[1] and dunder(k[1])]
    missing = [k for k in roots if k not in defs]
    assert missing == [], f"roots not defined in the package: {missing}"

    reached, todo = set(), list(roots)

    def reach(names, attrs):
        for name in names:
            todo.extend(top[name])
        for attr in attrs:
            todo.extend(any_def[attr])

    reach(*loaded(module_code))
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        node = defs[key]
        if isinstance(node, ast.ClassDef):
            body = [item for item in node.body if not isinstance(item, FUNCS)]
            reach(*loaded(node.decorator_list + node.bases + body))
            todo.extend((key[0], f"{node.name}.{item.name}")
                        for item in node.body
                        if isinstance(item, FUNCS) and dunder(item.name))
        else:
            reach(*loaded([node]))
    return sorted(f"{mod}.{qual}" for mod, qual in set(defs) - reached)


def test_every_package_definition_is_reached_from_an_entry_point():
    assert unreached() == []


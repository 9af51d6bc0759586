"""The bench harness's tracer against the library it wraps, and the code
line count.

perfbench/tracer.py names the fin2cat functions and methods it wraps; a
renamed or removed one would break only traced bench runs.  These tests
load the tracer from the checkout and change nothing under perfbench/.
"""

import importlib.util
import json
import os
import sys

import fin2cat.cli  # noqa: F401  (loads every module)
from helpers import code_lines, run_python

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_listed_name_and_restores_it():
    tr = _tracer_module()
    mods = {n: m for n, m in sys.modules.items() if n.startswith("fin2cat.")}
    before = {n: dict(vars(m)) for n, m in mods.items()}
    owners = [
        (getattr(mods["fin2cat." + mod], cls), meth)
        for mod, cls, meth, _ in tr.METHODS
    ]
    methods = [vars(cls)[meth] for cls, meth in owners]

    tracer = tr.Tracer()
    tracer.install()
    try:
        for mod, fns in tr.FUNCTIONS.items():
            home = mods["fin2cat." + mod]
            for fn in fns:
                assert getattr(home, fn) is not before[home.__name__][fn], fn
        for (cls, meth), orig in zip(owners, methods):
            assert vars(cls)[meth] is not orig, meth
    finally:
        tracer.uninstall()

    for n, m in mods.items():
        now = vars(m)
        assert [k for k, v in before[n].items() if now.get(k) is not v] == [], n
    assert [vars(cls)[meth] for cls, meth in owners] == methods


def test_importing_the_cli_loads_every_traced_module():
    # Tracer.install finds each module it wraps in sys.modules, and a
    # bench run imports only fin2cat.cli first; a module the cli imported
    # lazily would go unwrapped
    tr = _tracer_module()
    done = run_python(
        "-c", "import json, sys, fin2cat.cli; print(json.dumps(sorted(sys.modules)))"
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    wanted = set(tr.FUNCTIONS) | {mod for mod, _, _, _ in tr.METHODS}
    assert sorted(m for m in wanted if "fin2cat." + m not in loaded) == []


_SOURCE = '''"""Module docstring,
over two lines."""

# a comment

import os  # a comment after code


class A:
    """Class docstring."""

    x = """not a docstring:
    an assigned string"""

    def f(self):
        \'\'\'Function docstring.\'\'\'
        return (1,
                2)


async def g():
    "One-line docstring."
    return os.sep
'''


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    # import, class, x (two lines), def, return (two lines), async def,
    # return: nine lines
    p = tmp_path / "sample.py"
    p.write_text(_SOURCE)
    assert code_lines(str(p)) == 9

"""Workspace files and the fin2cat command line.

A workspace is one JSON file with up to six sections -- categories,
monoids, universes, algebras, morphisms, diagrams -- each mapping names
to specs.  load() turns the file into live objects (every constructor
check runs at load time, so a workspace that loads is already valid; a
declared diagram is checked at load but built by the command that reads
it), run() executes one command against it, and main() wraps run() for the
console: the report goes to stdout as canonical JSON and the exit code
is 0 for pass, 1 for fail, 2 for undecided and 3 for error.  An input
that cannot be read or used -- malformed JSON, a bad spec, a dangling
name, an unknown command, a law violation, an unreadable --input file --
gives an "error" report naming the exception in data, not a traceback.

Section formats:

    categories: {objects: [..], morphisms: {m: [dom, cod]},
                 identities: {obj: m}, compose: [[g, f, gf], ..]}
    monoids:    {elements: [..], unit: e, table: [[a, b, ab], ..]}
    universes:  {monoid: name, seeds: [category names], depth: n}
    algebras:   {universe, carrier, kind: monad|strict|lax, ...} where
                monad adds t/mu/eta, strict adds action, lax adds
                a/zbar/zbar0
    morphisms:  {source, target, f: functor spec, fbar: components}
    diagrams:   {kind: "tzy", source, target}

Functor specs are {on_objects: {..}, on_morphisms: {..}}; component
tables map objects to morphisms.  Bad structure raises ParseError with
the section.name that failed; a name that points at nothing raises
ReferenceError.
"""

import argparse
import json
import sys

from .codescent import FINITE, build_Ay_strict, kleisli, lax_codescent, strictify, verify_codescent_universal
from .descent import descent, lax_descent
from .errors import BoundaryMismatch, CoherenceViolation, ParseError, UnknownCommand
from .fincat import compose_fun, identity_fun, make_fincat, make_fun, make_nat
from .freegen import YES, builtin_computad, make_path, make_word, normalize_2cell, preorder_leq
from .laxalg import (
    LaxAlgebra,
    LaxMorphism,
    Monoid,
    build_Tzy,
    cell_boundaries,
    check_lax_algebra,
    check_lax_morphism,
    check_pseudomonad,
    enumerate_hom_category,
    fbar_boundary,
    monad_algebra,
    monoid_two_monad,
    strict_algebra,
    verify_prop_descent,
)

_SECTIONS = ("categories", "monoids", "universes", "algebras", "morphisms", "diagrams")

_EXIT = {"pass": 0, "fail": 1, "undecided": 2, "error": 3}


class Workspace:
    """The live objects of a loaded workspace file, one dict per section."""

    def __init__(self, path=None):
        self.path = path
        self.categories = {}
        self.monoids = {}
        self.universes = {}
        self.algebras = {}
        self.morphisms = {}
        self.diagrams = {}

    def __repr__(self):
        return "Workspace(%r)" % (self.path,)


def _ref(table, section, name):
    if name not in table:
        raise ReferenceError("%s: no entry named %r" % (section, name))
    return table[name]


def _build(section, name, fn, *a):
    # constructor complaints become ParseErrors that say where; dangling
    # names keep their ReferenceError identity
    try:
        return fn(*a)
    except ReferenceError:
        raise
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        raise ParseError("%s.%s: %s" % (section, name, e))


def _list(value, what):
    # a JSON string would otherwise be read as a list of its characters
    if not isinstance(value, list):
        raise ValueError("%s must be a list, got %r" % (what, value))
    return value


def _rows(spec, key):
    return [_list(row, "%s row" % key) for row in _list(spec[key], key)]


def _load_category(spec):
    morphs = {
        m: tuple(_list(dc, "boundary of %r" % (m,)))
        for m, dc in spec["morphisms"].items()
    }
    return make_fincat(
        objects=_list(spec["objects"], "objects"),
        morphisms=list(morphs),
        dom={m: dc[0] for m, dc in morphs.items()},
        cod={m: dc[1] for m, dc in morphs.items()},
        identity=dict(spec["identities"]),
        compose={(g, f): h for g, f, h in _rows(spec, "compose")},
    )


def _load_monoid(spec):
    return Monoid(
        _list(spec["elements"], "elements"),
        spec["unit"],
        {(a, b): c for a, b, c in _rows(spec, "table")},
    )


def _load_universe(ws, spec):
    M = _ref(ws.monoids, "monoids", spec["monoid"])
    seeds = [
        (n, _ref(ws.categories, "categories", n))
        for n in _list(spec["seeds"], "seeds")
    ]
    depth = spec["depth"]
    if type(depth) is not int:
        raise ValueError("depth must be an integer, got %r" % (depth,))
    return monoid_two_monad(M, seeds, depth)


def _fun(src, tgt, spec):
    return make_fun(src, tgt, dict(spec["on_objects"]), dict(spec["on_morphisms"]))


def _load_algebra(ws, spec):
    U = _ref(ws.universes, "universes", spec["universe"])
    Z = _ref(ws.categories, "categories", spec["carrier"])
    kind = spec["kind"]
    if kind == "monad":
        t = _fun(Z, Z, spec["t"])
        mu = make_nat(compose_fun(t, t), t, dict(spec["mu"]))
        eta = make_nat(identity_fun(Z), t, dict(spec["eta"]))
        alg = monad_algebra(U, Z, t, mu, eta)
        alg.monad = (t, mu, eta)
        return alg
    if kind == "strict":
        return strict_algebra(U, Z, _fun(U.T(Z), Z, spec["action"]))
    if kind == "lax":
        a = _fun(U.T(Z), Z, spec["a"])
        mult, unit = cell_boundaries(U, Z, a)
        zbar = make_nat(*mult, dict(spec["zbar"]))
        zbar0 = make_nat(*unit, dict(spec["zbar0"]))
        return LaxAlgebra(U, Z, a, zbar, zbar0)
    raise ValueError("unknown algebra kind %r" % (kind,))


def _load_morphism(ws, spec):
    y = _ref(ws.algebras, "algebras", spec["source"])
    z = _ref(ws.algebras, "algebras", spec["target"])
    f = _fun(y.Z, z.Z, spec["f"])
    fbar = make_nat(*fbar_boundary(y.universe, y, z, f), dict(spec["fbar"]))
    return LaxMorphism(f, fbar, src_alg=y, tgt_alg=z)


def _load_diagram(ws, spec):
    # keeps the pair (source, target); _diagram builds T_zy when a command
    # reads it.  T_zy needs T^2 of both carriers in the source's universe
    # (the source's own is there, as its zbar runs over it), and the
    # target's action must start at T of its carrier there
    if spec["kind"] != "tzy":
        raise ValueError("unknown diagram kind %r" % (spec["kind"],))
    y = _ref(ws.algebras, "algebras", spec["source"])
    z = _ref(ws.algebras, "algebras", spec["target"])
    TZ = y.universe.T(z.Z)
    if TZ != z.a.src:
        raise BoundaryMismatch("functors not composable")
    y.universe.T(TZ)
    return y, z


def _diagram(ws, name):
    y, z = _ref(ws.diagrams, "diagrams", name)
    return build_Tzy(y.universe, y, z)


def load(path):
    """Load a workspace file, validating everything it declares."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(
                "%s: line %d column %d: %s" % (path, e.lineno, e.colno, e.msg)
            )
    if not isinstance(raw, dict):
        raise ParseError("workspace must be a JSON object")
    for section, entries in raw.items():
        if section not in _SECTIONS:
            raise ParseError("unknown section %r" % (section,))
        if not isinstance(entries, dict):
            raise ParseError("section %r must be a JSON object" % (section,))

    ws = Workspace(path)
    for name, spec in raw.get("categories", {}).items():
        ws.categories[name] = _build("categories", name, _load_category, spec)
    for name, spec in raw.get("monoids", {}).items():
        ws.monoids[name] = _build("monoids", name, _load_monoid, spec)
    for name, spec in raw.get("universes", {}).items():
        ws.universes[name] = _build("universes", name, _load_universe, ws, spec)
    for name, spec in raw.get("algebras", {}).items():
        ws.algebras[name] = _build("algebras", name, _load_algebra, ws, spec)
    for name, spec in raw.get("morphisms", {}).items():
        ws.morphisms[name] = _build("morphisms", name, _load_morphism, ws, spec)
    for name, spec in raw.get("diagrams", {}).items():
        ws.diagrams[name] = _build("diagrams", name, _load_diagram, ws, spec)
    return ws


def _args(args, n, usage):
    if len(args) != n:
        raise ValueError("usage: %s" % usage)
    return args


def _counts(C):
    return {
        "object_count": len(C.objects),
        "morphism_count": len(C.morphisms),
        "objects": sorted(C.objects),
    }


def _csv(text):
    return [] if text == "" else text.split(",")


def _cmd_validate(ws, args, budget, probes):
    _args(args, 0, "validate")
    data = {section: len(getattr(ws, section)) for section in _SECTIONS}
    return "pass", [], data, []


def _cmd_check_pseudomonad(ws, args, budget, probes):
    (uname,) = _args(args, 1, "check-pseudomonad <universe>")
    U = _ref(ws.universes, "universes", uname)
    v = check_pseudomonad(U)
    status = "pass" if v else "fail"
    return status, list(v.failures), {"universe": uname}, []


def _cmd_check_algebra(ws, args, budget, probes):
    (zname,) = _args(args, 1, "check-algebra <algebra>")
    z = _ref(ws.algebras, "algebras", zname)
    v = check_lax_algebra(z.universe, z)
    status = "pass" if v else "fail"
    return status, list(v.failures), {"algebra": zname}, []


def _cmd_check_morphism(ws, args, budget, probes):
    (mname,) = _args(args, 1, "check-morphism <morphism>")
    phi = _ref(ws.morphisms, "morphisms", mname)
    y, z = phi.src_alg, phi.tgt_alg
    try:
        cls = check_lax_morphism(y.universe, y, z, phi)
    except CoherenceViolation as e:
        return "fail", [str(e)], {"morphism": mname}, []
    return "pass", [], {"morphism": mname, "class": cls}, []


def _cmd_hom(ws, args, budget, probes):
    if len(args) == 2:
        yname, zname = args
        cls = "lax"
    else:
        yname, zname, cls = _args(
            args, 3, "hom <source algebra> <target algebra> [lax|pseudo]"
        )
    y = _ref(ws.algebras, "algebras", yname)
    z = _ref(ws.algebras, "algebras", zname)
    H = enumerate_hom_category(y.universe, y, z, cls=cls)
    data = _counts(H)
    data["class"] = cls
    return "pass", [], data, []


def _cmd_descent(ws, args, budget, probes):
    (dname,) = _args(args, 1, "descent <diagram>")
    return "pass", [], _counts(descent(_diagram(ws, dname)).carrier), []


def _cmd_lax_descent(ws, args, budget, probes):
    (dname,) = _args(args, 1, "lax-descent <diagram>")
    return "pass", [], _counts(lax_descent(_diagram(ws, dname)).carrier), []


def _cmd_verify_prop_descent(ws, args, budget, probes):
    yname, zname = _args(args, 2, "verify-prop-descent <source> <target>")
    y = _ref(ws.algebras, "algebras", yname)
    z = _ref(ws.algebras, "algebras", zname)
    rep = verify_prop_descent(y.universe, y, z)
    witnesses = [] if rep["counterexample"] is None else [rep["counterexample"]]
    data = {"lax": rep["lax"], "pseudo": rep["pseudo"]}
    return rep["status"], witnesses, data, []


def _cmd_build_tzy(ws, args, budget, probes):
    yname, zname = _args(args, 2, "build-tzy <source> <target>")
    y = _ref(ws.algebras, "algebras", yname)
    z = _ref(ws.algebras, "algebras", zname)
    D = build_Tzy(y.universe, y, z)
    data = {}
    for level, C in (("D1", D.D1), ("D2", D.D2), ("D3", D.D3)):
        data["%s_objects" % level] = len(C.objects)
        data["%s_morphisms" % level] = len(C.morphisms)
    return "pass", [], data, []


def _cmd_normalize_2cell(ws, args, budget, probes):
    if len(args) < 3:
        raise ValueError(
            "usage: normalize-2cell <computad> <start node> <edge,..> [pos:cell ..]"
        )
    which, start, edges = args[0], args[1], args[2]
    c = builtin_computad(which)
    source = make_path(c.base, start, _csv(edges))
    steps = []
    for item in args[3:]:
        pos, _, gen = item.partition(":")
        steps.append((int(pos), gen))
    n = normalize_2cell(make_word(c, source, steps))
    data = {
        "computad": which,
        "start": start,
        "source": list(n.source.edges),
        "target": list(n.target.edges),
        "steps": [[p, g] for p, g in n.positions()],
    }
    return "pass", [], data, []


def _cmd_preorder_leq(ws, args, budget, probes):
    which, start, f_edges, g_edges = _args(
        args, 4, "preorder-leq <computad> <start node> <f edges> <g edges>"
    )
    c = builtin_computad(which)
    f = make_path(c.base, start, _csv(f_edges))
    g = make_path(c.base, start, _csv(g_edges))
    answer = preorder_leq(c, f, g, budget=10000 if budget is None else budget)
    status = "pass" if answer == YES else "undecided"
    return status, [], {"answer": answer}, []


def _cmd_kleisli(ws, args, budget, probes):
    (zname,) = _args(args, 1, "kleisli <monad algebra>")
    z = _ref(ws.algebras, "algebras", zname)
    if not hasattr(z, "monad"):
        raise ValueError("kleisli needs an algebra of kind 'monad'")
    t, mu, eta = z.monad
    return "pass", [], _counts(kleisli(z.Z, t, mu, eta)), []


def _cmd_strictify(ws, args, budget, probes):
    (zname,) = _args(args, 1, "strictify <algebra>")
    z = _ref(ws.algebras, "algebras", zname)
    Q = strictify(z.universe, z, budget=50000 if budget is None else budget)
    if Q.status == FINITE:
        return "pass", [], _counts(Q.category), list(Q.trace)
    return "undecided", [], {"quotient": Q.status}, list(Q.trace)


def _cmd_verify_codescent(ws, args, budget, probes):
    (zname,) = _args(args, 1, "verify-codescent <algebra> --probes <category,..>")
    if not probes:
        raise ValueError("verify-codescent needs --probes <category,..>")
    z = _ref(ws.algebras, "algebras", zname)
    A = build_Ay_strict(z.universe, z)
    Q = lax_codescent(A, budget=50000 if budget is None else budget)
    named = [(p, _ref(ws.categories, "categories", p)) for p in probes]
    rep = verify_codescent_universal(A, Q, named)
    witnesses = sorted(
        name for name, r in rep.get("probes", {}).items() if not r["iso"]
    )
    return rep["status"], witnesses, {"probes": rep.get("probes", {})}, list(Q.trace)


_COMMANDS = {
    "validate": _cmd_validate,
    "check-pseudomonad": _cmd_check_pseudomonad,
    "check-algebra": _cmd_check_algebra,
    "check-morphism": _cmd_check_morphism,
    "hom": _cmd_hom,
    "descent": _cmd_descent,
    "lax-descent": _cmd_lax_descent,
    "verify-prop-descent": _cmd_verify_prop_descent,
    "build-tzy": _cmd_build_tzy,
    "normalize-2cell": _cmd_normalize_2cell,
    "preorder-leq": _cmd_preorder_leq,
    "kleisli": _cmd_kleisli,
    "strictify": _cmd_strictify,
    "verify-codescent": _cmd_verify_codescent,
}


def run(ws, command, args, budget=None, probes=None):
    """Execute one command; returns the report dict main() prints."""
    if command not in _COMMANDS:
        raise UnknownCommand("unknown command %r" % (command,))
    status, witnesses, data, trace = _COMMANDS[command](ws, args, budget, probes)
    return {
        "command": command,
        "status": status,
        "witnesses": witnesses,
        "data": data,
        "trace": trace,
    }


_PARSER = argparse.ArgumentParser(
    prog="fin2cat",
    description="finite 2-category checks over a JSON workspace",
)
_PARSER.add_argument("command", help="one of: %s" % ", ".join(sorted(_COMMANDS)))
_PARSER.add_argument("names", nargs="*", help="command arguments")
_PARSER.add_argument("--input", help="workspace JSON file")
_PARSER.add_argument("--budget", type=int, help="search/rewrite budget override")
_PARSER.add_argument("--probes", help="comma-separated category names")
_PARSER.add_argument("--out", help="also write the report here")


def _error_report(command, e):
    return {
        "command": command,
        "status": "error",
        "witnesses": [],
        "data": {"error": type(e).__name__, "message": str(e)},
        "trace": [],
    }


def main(argv=None):
    ns = _PARSER.parse_intermixed_args(argv)

    probes = ns.probes.split(",") if ns.probes else None
    try:
        ws = load(ns.input) if ns.input else Workspace()
        report = run(ws, ns.command, ns.names, budget=ns.budget, probes=probes)
    except (ReferenceError, ValueError, OSError) as e:
        report = _error_report(ns.command, e)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if ns.out:
        try:
            with open(ns.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            report = _error_report(ns.command, e)
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    return _EXIT[report["status"]]


if __name__ == "__main__":
    sys.exit(main())

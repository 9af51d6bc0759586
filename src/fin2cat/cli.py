"""Workspace files and the fin2cat command line.

A workspace is one JSON file with up to six sections -- categories,
monoids, universes, algebras, morphisms, diagrams -- each mapping names
to specs.  Its format is the table _SCHEMA: the fields of each section's
specs and the shape of each field.  Names are JSON strings, an integer is
a JSON integer, rows have a fixed length, and the fields of an algebra or
a diagram depend on its kind.

load() checks the whole file against _SCHEMA before any constructor runs,
then turns it into live objects: every constructor check runs at load
time, so a workspace that loads is already valid, and a universe of more
than laxalg.UNIVERSE_LIMIT morphisms is refused before it is built.  A
declared diagram is checked at load but built by the command that reads
it.  A spec of the wrong shape or one that breaks a law raises ParseError
naming its section.name; a name that points at nothing raises
ReferenceError.

run() executes one command against a workspace, and main() wraps run()
for the console: the report goes to stdout as canonical JSON and the exit
code is 0 for pass, 1 for fail, 2 for undecided and 3 for error.  An
input that cannot be read or used -- a usage error, malformed JSON, a
bad spec, a dangling name, an unknown command, a law violation, an
unreadable --input file -- gives an "error" report naming the exception
in data, not a traceback.  So does a fault inside fin2cat, under its own
exception type (KeyError, say), never as ParseError.

main() parses with one parser, built at import, whose usage line is
formatted then, as argparse itself would format it on every parse: the
terminal width is read once per process, and each call gets the namespace,
or the usage-error message, that a freshly built parser gives.  A negative
--budget is a usage error.  The built-in computads that normalize-2cell
and preorder-leq read are built once per process and shared between calls
as immutable values (freegen.builtin_computad).
"""

import argparse
import json
import sys

from .codescent import (FINITE, REWRITE_BUDGET, build_Ay_strict, kleisli, lax_codescent, strictify,
                        verify_codescent_universal)
from .descent import descent, lax_descent
from .errors import CoherenceViolation, MalformedWord, ParseError, UnknownCommand
from .fincat import compose_fun, hom_cat, identity_fun, make_fincat, make_fun, make_nat
from .freegen import SEARCH_BUDGET, YES, builtin_computad, make_path, make_word, normalize_2cell, preorder_leq
from .laxalg import (
    LaxAlgebra,
    LaxMorphism,
    Monoid,
    build_Tzy,
    check_lax_algebra,
    check_lax_morphism,
    check_pair,
    check_pseudomonad,
    enumerate_hom_category,
    fbar_boundary,
    monad_algebra,
    monoid_two_monad,
    strict_algebra,
    verify_prop_descent,
)

# The workspace format, written once: section -> field -> shape.  A shape
# is str (a name: a JSON string), int (an integer; true and 2.0 are not),
# a row length n (a list of exactly n names), [shape] (a list of rows of
# that shape, or of names), (label, shape) (an object from names to that
# shape, the entry at k called label % k; _NAMES maps names to names) or
# a dict of fields (a spec, as _FUNCTOR).  The field "kind" maps each kind
# to the further fields it brings.  Fields a spec does not list are ignored.
_NAMES = (None, str)
_FUNCTOR = {"on_objects": _NAMES, "on_morphisms": _NAMES}
_SCHEMA = {
    "categories": {
        "objects": [str],
        "morphisms": ("boundary of %r", 2),
        "identities": _NAMES,
        "compose": [3],
    },
    "monoids": {"elements": [str], "unit": str, "table": [3]},
    "universes": {"monoid": str, "seeds": [str], "depth": int},
    "algebras": {
        "universe": str,
        "carrier": str,
        "kind": {
            "monad": {"t": _FUNCTOR, "mu": _NAMES, "eta": _NAMES},
            "strict": {"action": _FUNCTOR},
            "lax": {"a": _FUNCTOR, "zbar": _NAMES, "zbar0": _NAMES},
        },
    },
    "morphisms": {"source": str, "target": str, "f": _FUNCTOR, "fbar": _NAMES},
    "diagrams": {"kind": {"tzy": {"source": str, "target": str}}},
}
_SECTIONS = tuple(_SCHEMA)
# the JSON type of a value of each kind of shape (a str or int shape is its
# own), and how messages name each JSON type
_FORM = {int: list, list: list, tuple: dict, dict: dict}
_NOUN = {str: "a name", int: "an integer", list: "a list", dict: "a JSON object"}

_EXIT = {"pass": 0, "fail": 1, "undecided": 2, "error": 3}


class Workspace:
    """The live objects of a loaded workspace file: one dict per section,
    the attribute named after the section (ws.categories, ws.monoids, ...)."""

    def __init__(self, path=None):
        self.path = path
        for section in _SCHEMA:
            setattr(self, section, {})

    def __repr__(self):
        return "Workspace(%r)" % (self.path,)


def _check(v, shape, what):
    """Raise ValueError("<what> must be ...") unless the JSON value v has
    the shape.  Lists and objects of names are checked in one pass."""
    form = _FORM.get(type(shape), shape)
    if type(v) is not form:
        raise ValueError("%s must be %s, got %r" % (what, _NOUN[form], v))
    if type(shape) is int:
        if len(v) != shape or not all(type(x) is str for x in v):
            raise ValueError("%s must be a list of %d names, got %r" % (what, shape, v))
    elif type(shape) is dict:
        _fields(v, shape, None, what + ".")
    elif shape == [str] or shape is _NAMES:
        if not all(type(x) is str for x in (v if form is list else v.values())):
            raise ValueError("%s must be %s of names, got %r" % (what, _NOUN[form], v))
    elif type(shape) is list:
        for row in v:
            _check(row, shape[0], what + " row")
    elif type(shape) is tuple:
        for k, x in v.items():
            _check(x, shape[1], shape[0] % (k,))


def _fields(spec, fields, noun, prefix=""):
    """Check the fields of a spec, and those its kind brings; noun names
    the spec's sort in the message for an unknown kind."""
    for field, shape in fields.items():
        if field not in spec:
            raise ValueError("missing field %s%s" % (prefix, field))
        if field != "kind":
            _check(spec[field], shape, prefix + field)
            continue
        kind = spec["kind"]
        _check(kind, str, "kind")
        if kind not in shape:
            raise ValueError("unknown %s kind %r" % (noun, kind))
        _fields(spec, shape[kind], noun)


def _check_workspace(raw):
    """Check a whole workspace against _SCHEMA; ParseError names the first
    section.name at fault."""
    if type(raw) is not dict:
        raise ParseError("workspace must be a JSON object")
    for section, entries in raw.items():
        if section not in _SCHEMA:
            raise ParseError("unknown section %r" % (section,))
        if type(entries) is not dict:
            raise ParseError("section %r must be a JSON object" % (section,))
        for name, spec in entries.items():
            if type(spec) is not dict:
                where = (section, name, spec)
                raise ParseError("%s.%s: spec must be a JSON object, got %r" % where)
            # section[:-1] names one entry: "algebras" -> "algebra"
            _build(section, name, _fields, spec, _SCHEMA[section], section[:-1])


def _ref(ws, section, name):
    table = getattr(ws, section)
    if name not in table:
        raise ReferenceError("%s: no entry named %r" % (section, name))
    return table[name]


def _build(section, name, fn, *a):
    # the errors of fin2cat (every one a ValueError) become ParseErrors that
    # say where; a dangling name keeps its ReferenceError, and any other
    # exception is a fault of fin2cat, not of the file, and goes to main
    try:
        return fn(*a)
    except ValueError as e:
        raise ParseError("%s.%s: %s" % (section, name, e))


def _load_category(ws, spec):
    bounds = spec["morphisms"]
    return make_fincat(
        objects=spec["objects"],
        morphisms=list(bounds),
        dom={m: dc[0] for m, dc in bounds.items()},
        cod={m: dc[1] for m, dc in bounds.items()},
        identity=spec["identities"],
        compose={(g, f): h for g, f, h in spec["compose"]},
    )


def _load_monoid(ws, spec):
    table = {(a, b): c for a, b, c in spec["table"]}
    return Monoid(spec["elements"], spec["unit"], table)


def _load_universe(ws, spec):
    M = _ref(ws, "monoids", spec["monoid"])
    seeds = [(n, _ref(ws, "categories", n)) for n in spec["seeds"]]
    return monoid_two_monad(M, seeds, spec["depth"])


def _fun(src, tgt, spec):
    return make_fun(src, tgt, spec["on_objects"], spec["on_morphisms"])


def _load_algebra(ws, spec):
    U = _ref(ws, "universes", spec["universe"])
    Z = _ref(ws, "categories", spec["carrier"])
    kind = spec["kind"]
    if kind == "monad":
        t = _fun(Z, Z, spec["t"])
        mu = make_nat(compose_fun(t, t), t, spec["mu"])
        eta = make_nat(identity_fun(Z), t, spec["eta"])
        alg = monad_algebra(U, Z, t, mu, eta)
        alg.monad = (t, mu, eta)
        return alg
    if kind == "strict":
        return strict_algebra(U, Z, _fun(U.T(Z), Z, spec["action"]))
    a = _fun(U.T(Z), Z, spec["a"])  # kind lax
    return LaxAlgebra(U, Z, a, spec["zbar"], spec["zbar0"])


def _load_morphism(ws, spec):
    y, z = [_ref(ws, "algebras", spec[k]) for k in ("source", "target")]
    f = _fun(y.Z, z.Z, spec["f"])
    fbar = make_nat(*fbar_boundary(y.universe, y, z, f), spec["fbar"])
    return LaxMorphism(f, fbar, src_alg=y, tgt_alg=z)


def _load_diagram(ws, spec):
    # keeps the pair (source, target) of a diagram of kind tzy; _diagram
    # builds T_zy when a command reads it, and check_pair refuses a pair
    # over different 2-monads as build_Tzy would
    y, z = [_ref(ws, "algebras", spec[k]) for k in ("source", "target")]
    check_pair(y.universe, y, z)
    return y, z


_LOADERS = (_load_category, _load_monoid, _load_universe, _load_algebra,
            _load_morphism, _load_diagram)  # in the order of _SECTIONS


def _diagram(ws, name):
    y, z = _ref(ws, "diagrams", name)
    return build_Tzy(y.universe, y, z)


def load(path):
    """Load a workspace file: check its shape against _SCHEMA, then build
    and validate everything it declares, section by section."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(
                "%s: line %d column %d: %s" % (path, e.lineno, e.colno, e.msg)
            )
    _check_workspace(raw)
    ws = Workspace(path)
    for section, loader in zip(_SECTIONS, _LOADERS):
        table = getattr(ws, section)
        for name, spec in raw.get(section, {}).items():
            table[name] = _build(section, name, loader, ws, spec)
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
    U = _ref(ws, "universes", uname)
    v = check_pseudomonad(U)
    return "pass" if v else "fail", list(v.failures), {"universe": uname}, []


def _cmd_check_algebra(ws, args, budget, probes):
    (zname,) = _args(args, 1, "check-algebra <algebra>")
    z = _ref(ws, "algebras", zname)
    v = check_lax_algebra(z.universe, z)
    return "pass" if v else "fail", list(v.failures), {"algebra": zname}, []


def _cmd_check_morphism(ws, args, budget, probes):
    (mname,) = _args(args, 1, "check-morphism <morphism>")
    phi = _ref(ws, "morphisms", mname)
    y, z = phi.src_alg, phi.tgt_alg
    try:
        cls = check_lax_morphism(y.universe, y, z, phi)
    except CoherenceViolation as e:
        return "fail", [str(e)], {"morphism": mname}, []
    return "pass", [], {"morphism": mname, "class": cls}, []


def _cmd_hom(ws, args, budget, probes):
    if len(args) == 2:
        args = args + ["lax"]  # the class defaults to lax
    yname, zname, cls = _args(
        args, 3, "hom <source algebra> <target algebra> [lax|pseudo]"
    )
    y, z = [_ref(ws, "algebras", n) for n in (yname, zname)]
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
    y, z = [_ref(ws, "algebras", n) for n in (yname, zname)]
    rep = verify_prop_descent(y.universe, y, z)
    witnesses = [] if rep["counterexample"] is None else [rep["counterexample"]]
    data = {"lax": rep["lax"], "pseudo": rep["pseudo"]}
    return rep["status"], witnesses, data, []


def _cmd_build_tzy(ws, args, budget, probes):
    yname, zname = _args(args, 2, "build-tzy <source> <target>")
    y, z = [_ref(ws, "algebras", n) for n in (yname, zname)]
    check_pair(y.universe, y, z)
    # only D1 = [Y, Z] is enumerated.  T^k Y = M x ... x M x Y with M
    # discrete is |M|^k copies of Y, so [T^k Y, Z] is the product of |M|^k
    # copies of D1, and its sizes are D1's to that power
    D1 = hom_cat(y.Z, z.Z)
    copies = len(y.universe.monoid.elements)
    data = {}
    for level, k in (("D1", 1), ("D2", copies), ("D3", copies**2)):
        data["%s_objects" % level] = len(D1.objects) ** k
        data["%s_morphisms" % level] = len(D1.morphisms) ** k
    return "pass", [], data, []


def _cmd_normalize_2cell(ws, args, budget, probes):
    usage = "normalize-2cell <computad> <start node> <edge,..> [pos:cell ..]"
    which, start, edges = _args(args[:3], 3, usage)
    c = builtin_computad(which)
    source = make_path(c.base, start, _csv(edges))
    steps = [a.partition(":") for a in args[3:]]
    for a, (pos, colon, _) in zip(args[3:], steps):
        if not (colon and pos.isdecimal()):
            raise MalformedWord("step %r is not of the form <position>:<cell>" % (a,))
    n = normalize_2cell(make_word(c, source, [(int(p), g) for p, _, g in steps]))
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
    answer = preorder_leq(c, f, g, budget=SEARCH_BUDGET if budget is None else budget)
    status = "pass" if answer == YES else "undecided"
    return status, [], {"answer": answer}, []


def _cmd_kleisli(ws, args, budget, probes):
    (zname,) = _args(args, 1, "kleisli <monad algebra>")
    z = _ref(ws, "algebras", zname)
    if not hasattr(z, "monad"):
        raise ValueError("kleisli needs an algebra of kind 'monad'")
    return "pass", [], _counts(kleisli(z.Z, *z.monad)), []


def _cmd_strictify(ws, args, budget, probes):
    (zname,) = _args(args, 1, "strictify <algebra>")
    z = _ref(ws, "algebras", zname)
    Q = strictify(z.universe, z, budget=REWRITE_BUDGET if budget is None else budget)
    if Q.status == FINITE:
        return "pass", [], _counts(Q.category), list(Q.trace)
    return "undecided", [], {"quotient": Q.status}, list(Q.trace)


def _cmd_verify_codescent(ws, args, budget, probes):
    (zname,) = _args(args, 1, "verify-codescent <algebra> --probes <category,..>")
    if not probes:
        raise ValueError("verify-codescent needs --probes <category,..>")
    z = _ref(ws, "algebras", zname)
    A = build_Ay_strict(z.universe, z)
    Q = lax_codescent(A, budget=REWRITE_BUDGET if budget is None else budget)
    named = [(p, _ref(ws, "categories", p)) for p in probes]
    rep = verify_codescent_universal(A, Q, named)
    witnesses = sorted(
        name for name, r in rep.get("probes", {}).items() if not r["iso"]
    )
    return rep["status"], witnesses, {"probes": rep.get("probes", {})}, list(Q.trace)


# each command is the function _cmd_<name>, dashes written as underscores
_COMMANDS = {
    n[5:].replace("_", "-"): fn for n, fn in globals().items() if n.startswith("_cmd_")
}


def run(ws, command, args, budget=None, probes=None):
    """Execute one command; returns the report dict main() prints."""
    if command not in _COMMANDS:
        raise UnknownCommand("unknown command %r" % (command,))
    return _report(command, *_COMMANDS[command](ws, args, budget, probes))


def _report(command, status, witnesses, data, trace):
    return {
        "command": command,
        "status": status,
        "witnesses": witnesses,
        "data": data,
        "trace": trace,
    }


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error raised as ParseError, for main to
    report, rather than printed with argparse's exit status 2, which is
    fin2cat's code for undecided."""

    def error(self, message):
        raise ParseError(message)


def _budget(text):
    """The --budget type: an int, refused when negative."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError("must not be negative, got %r" % (text,))
    return int(text)


# argparse names a type by __name__: a non-integer reads "invalid int value"
_budget.__name__ = "int"

_PARSER = _Parser(
    prog="fin2cat",
    description="finite 2-category checks over a JSON workspace",
)
_PARSER.add_argument("command", help="one of: %s" % ", ".join(sorted(_COMMANDS)))
_PARSER.add_argument("names", nargs="*", help="command arguments")
_PARSER.add_argument("--input", help="workspace JSON file")
_PARSER.add_argument("--budget", type=_budget, help="search/rewrite budget override")
_PARSER.add_argument("--probes", help="comma-separated category names")
_PARSER.add_argument("--out", help="also write the report here")
# parse_intermixed_args formats this usage line on every call, for messages
# that _Parser.error never prints; it is formatted once here, as argparse
# itself would, so the terminal width is read when the module is imported
_PARSER.usage = _PARSER.format_usage()[7:]


def _error_report(command, e):
    data = {"error": type(e).__name__, "message": str(e)}
    return _report(command, "error", [], data, [])


def main(argv=None):
    # a usage error is reported with no command and no --out; --help
    # still exits 0
    ns = argparse.Namespace(command=None, out=None)
    try:
        ns = _PARSER.parse_intermixed_args(argv)
        probes = ns.probes.split(",") if ns.probes else None
        ws = load(ns.input) if ns.input else Workspace()
        report = run(ws, ns.command, ns.names, budget=ns.budget, probes=probes)
    except Exception as e:  # a fault of fin2cat too is a report, not a traceback
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

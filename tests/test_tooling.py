"""The bench harness's tracer against the library it wraps, the code
line count, and the fixed work of a command-line call.

perfbench/tracer.py names the fin2cat functions and methods it wraps; a
renamed or removed one would break only traced bench runs.  These tests
load the tracer from the checkout and change nothing under perfbench/.
"""

import gc
import importlib.util
import io
import itertools
import json
import os
import sys
import weakref
from contextlib import redirect_stdout

import fin2cat.cli  # noqa: F401  (loads every module)
from fin2cat import cli, codescent, deltadiag, fincat, freegen, laxalg
from fin2cat.codescent import FINITE, PresentedCategory
from fin2cat.descent import lax_descent
from helpers import (
    FIXTURE_PAIRS,
    FIXTURES,
    MONAD_FX,
    Z2_ON_THREE_FX,
    code_lines,
    hand_codescent_relations,
    monoid_diagram,
    monoid_extension,
    pinned_slate,
    run_python,
    walking_arrow,
    z2_cat,
    z2_swap_workspace,
)

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


def test_traced_quotients_are_proved_through_the_wrapped_make_fincat():
    # quotient_category proves its table with a seventh argument, the
    # generators; the tracer counts the call, but its six-argument unpack
    # skips that call's triple count, and a six-argument call is counted
    tr = _tracer_module()
    gens = [("x", "*", "*"), ("y", "*", "*")]
    rels = [(("x",) * 2, (), "*"), (("y",) * 3, (), "*"), (("x", "y") * 5, (), "*")]
    tracer = tr.Tracer()
    tracer.install()
    try:
        Q = codescent.quotient_category(PresentedCategory(["*"], gens, rels))
        assert (Q.status, len(Q.category.morphisms)) == (FINITE, 60)
        assert tracer.calls["fincat.make_fincat"] == 1
        assert tracer.count["fincat.make_fincat.assoc_triples"] == 0
        C = Q.category
        again = fincat.make_fincat(
            C.objects, C.morphisms, C.dom, C.cod, C.identity, C.compose_table
        )
    finally:
        tracer.uninstall()
    assert again == C
    assert tracer.calls["fincat.make_fincat"] == 2
    assert tracer.count["fincat.make_fincat.morphisms"] == 60
    assert tracer.count["fincat.make_fincat.assoc_triples"] == 60**3


def test_traced_normal_forms_count_the_steps_of_their_word():
    # the tracer reads len(w.steps) off normalize_2cell's argument, so a
    # word's steps stay one entry per step
    tr = _tracer_module()
    c = freegen.builtin_computad(freegen.DELTA_DOT_LAX)
    src = freegen.make_path(c.base, "1", ["d0", "p2"])
    w = freegen.make_word(c, src, [(0, "sig20"), (0, "n1"), (2, "n0")])
    assert len(w.steps) == 3
    tracer = tr.Tracer()
    tracer.install()
    try:
        freegen.normalize_2cell(w)
        assert tracer.count["freegen.normalize_2cell.steps"] == 3
        assert freegen.two_cells_equal(w, w)
    finally:
        tracer.uninstall()
    assert tracer.calls["freegen.normalize_2cell"] == 3
    assert tracer.count["freegen.normalize_2cell.steps"] == 9


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


# one call per built-in computad and command; DeltaLax has no node 0
_SHORT_CALLS = (
    ["normalize-2cell", "DeltaDotLax", "1", "d0,p0", "0:sig00"],
    ["normalize-2cell", "DeltaLax", "1", "d0,p0", "0:sig00", "--budget", "5"],
    ["preorder-leq", "DeltaDotLax", "0", "d", "d,d0,s0"],
    ["preorder-leq", "DeltaDot", "0", "d,d0", "d,d1"],
)


def test_a_short_cli_call_formats_no_usage_and_builds_no_computad(monkeypatch):
    # the usage line is formatted once, at import, and each built-in
    # computad once per process; counts, not timings
    formatted = []
    format_usage = cli._PARSER.format_usage

    def counted():
        formatted.append(1)
        return format_usage()

    monkeypatch.setattr(cli._PARSER, "format_usage", counted)
    misses = freegen.builtin_computad.cache_info().misses
    for _ in range(50):
        for argv in _SHORT_CALLS:
            with redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0, out.getvalue()
    assert formatted == []
    names = {argv[1] for argv in _SHORT_CALLS}
    assert freegen.builtin_computad.cache_info().misses - misses <= len(names)

    # the shared computads come out of the whole slate as they went in
    for argv in pinned_slate().values():
        with redirect_stdout(io.StringIO()):
            cli.main(argv)
    assert formatted == []
    for name in sorted(freegen._DOTS):
        shared, fresh = freegen.builtin_computad(name), freegen.builtin_computad.__wrapped__(name)
        assert shared is not fresh
        assert shared == fresh and shared.cell_index == fresh.cell_index, name


# the commands that read functor categories out of T-iterates, and the
# sources of the levels above the bottom one, which are views over it,
# given the loaded workspace and the command's names: TY and T^2 Y for
# hom, the descent comparison and build-tzy, A2 = T^2 Z and A3 = T^3 Z for
# the codescent probes (whose bottom level is [A1, X], A1 = T Z)
def _upper_level_sources(ws, command, names):
    if command in ("descent", "lax-descent"):
        y, _ = ws.diagrams[names[0]]
    else:
        y = ws.algebras[names[0]]
    T = y.universe.T
    C = T(T(y.Z)) if command == "verify-codescent" else T(y.Z)
    return C, T(C)


def test_the_slate_enumerates_no_top_level(monkeypatch):
    # counts, not timings: across the slate, hom, descent, lax-descent,
    # verify-prop-descent, verify-codescent and build-tzy enumerate the
    # functors of their bottom level and never those out of the sources
    # of the levels above it, which are views and are sized by theorem;
    # so no command but verify-codescent enumerates functors out of TY
    sources = []
    enumerate_functors = fincat._enumerate_functors
    monkeypatch.setattr(
        fincat,
        "_enumerate_functors",
        lambda C, D: sources.append(C) or enumerate_functors(C, D),
    )
    commands = ("hom", "descent", "lax-descent", "verify-prop-descent", "verify-codescent", "build-tzy")
    seen = []
    for argv in pinned_slate().values():
        if argv[0] not in commands:
            continue
        upper = _upper_level_sources(cli.load(argv[2]), argv[0], argv[3:])
        del sources[:]
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0, out.getvalue()
        assert len(sources) >= 1, argv
        assert not any(C == U for C in sources for U in upper), argv
        seen.append(argv[0])
    assert set(seen) == set(commands)
    assert seen.count("descent") == seen.count("lax-descent") == 2
    assert seen.count("build-tzy") == 9  # z2_on_three.json swap -> fix among them
    assert seen.count("hom") >= 6


def test_the_descent_equations_intern_few_top_level_functors():
    # counts, not timings: on z2_on_three.json swap -> swap, D1 = [P3, P3]
    # has 27 functors, so D2 = [T P3, P3] has 27^2 = 729 (as its
    # enumerated oracle confirms) and D3 = [T^2 P3, P3] has 27^4 =
    # 531,441.  Both are views, and name only what the cells and
    # lax_descent's candidates reach (2,109 functors of D3 when the
    # faces acted on all of an enumerated D2)
    ws = cli.load(Z2_ON_THREE_FX)
    y = ws.algebras["swap"]
    D = laxalg.build_Tzy(y.universe, y, y)
    assert len(D.D1.objects) == 27
    assert len(fincat.hom_cat(D.D2.source, D.D2.target).objects) == 27**2
    lax_descent(D)
    assert len(D.D2._tuples) < 100 and len(D.D3._tuples) < 100


def test_the_descent_equations_are_read_off_one_table(monkeypatch):
    # descent_equations, check_dot_extension and lax_codescent read
    # deltadiag.EQUATIONS when called, so dropping the identity equation
    # drops it from all three
    d = monoid_diagram(z2_cat(), "e", "e", "s", "s", "e")
    ext = monoid_extension(d, "e")
    y = cli.load(MONAD_FX).algebras["const1"]
    A = codescent.build_Ay_strict(y.universe, y)
    assert len(deltadiag.descent_equations(d, "*", "e")) == 2
    assert len(deltadiag.check_dot_extension(ext).failures) == 2
    monkeypatch.setattr(deltadiag, "EQUATIONS", deltadiag.EQUATIONS[:1])
    assert len(deltadiag.descent_equations(d, "*", "e")) == 1
    assert deltadiag.check_dot_extension(ext).failures == ["associativity equation fails at '*': 'e' != 's'"]
    units = len(A.A1.objects)
    assert codescent.lax_codescent(A, budget=0).presentation.relations == hand_codescent_relations(A)[:-units]


# verify-prop-descent swap swap on a workspace file, in a fresh
# interpreter: its seconds of CPU time (so that other load on the host
# does not count), its peak RSS in MiB, its exit code and its report, as
# JSON.  The peak is VmHWM of /proc/self/status, in KiB, which counts the
# interpreter's own pages only: ru_maxrss also counts the parent's
# pages that the child had before it ran the interpreter
_SWAP_SWAP = """
import io, json, sys, time
from contextlib import redirect_stdout
from fin2cat.cli import main
t0 = time.process_time()
with redirect_stdout(io.StringIO()) as out:
    code = main(["verify-prop-descent", "--input", sys.argv[1], "swap", "swap"])
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({
    "seconds": time.process_time() - t0,
    "rss_mib": peak / 1024,
    "code": code,
    "report": json.loads(out.getvalue()),
}))
"""


def test_verify_prop_descent_on_five_points_within_its_gates(tmp_path):
    # Z/2 swapping two of five points: D1 = [P5, P5] has 5^5 = 3,125
    # functors, D2 = [T P5, P5] 5^10 and D3 = [T^2 P5, P5] 5^20.  Only D1
    # is enumerated: D2 and D3 are views, and the diagram's faces and
    # cells act where the descent equations read them.  On a discrete
    # carrier a lax morphism is an equivariant map, and its only
    # transformation the identity, so each count is checked against a
    # direct count of those
    path = tmp_path / "z2_on_five.json"
    path.write_text(json.dumps(z2_swap_workspace(5)))
    points = "abcde"
    swap = {x: {"a": "b", "b": "a"}.get(x, x) for x in points}
    equivariant = sum(
        all(f[swap[x]] == swap[f[x]] for x in points)
        for f in (dict(zip(points, im)) for im in itertools.product(points, repeat=5))
    )
    done = run_python("-c", _SWAP_SWAP, str(path))
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["code"] == 0 and got["report"]["status"] == "pass", got
    for key in ("lax", "pseudo"):
        data = got["report"]["data"][key]
        assert data["hom_objects"] == data["descent_objects"] == equivariant, got
        assert data["hom_morphisms"] == data["descent_morphisms"] == equivariant, got
        assert data["match"] is True
    assert got["seconds"] <= 2, got
    assert got["rss_mib"] <= 200, got


def _frames_in(module="laxalg"):
    """The names of the fin2cat.<module> functions on the caller's stack."""
    frame, names = sys._getframe(2), set()
    while frame is not None:
        if frame.f_globals.get("__name__") == "fin2cat." + module:
            names.add(frame.f_code.co_name)
        frame = frame.f_back
    return names


def _stacks_of(monkeypatch, owners, name, record=None):
    """Wrap owner.name, on every owner that holds the same function, so
    that each call appends the laxalg functions on its stack to the list
    returned, or record(*args) when given."""
    stacks = []
    real = getattr(owners[0], name)

    def counted(*args, **kw):
        stacks.append(_frames_in() if record is None else record(*args))
        return real(*args, **kw)

    for owner in owners:
        if vars(owner).get(name) is real:
            monkeypatch.setattr(owner, name, counted)
    return stacks


def _fincat_stacks(monkeypatch, name, record=None):
    """_stacks_of fincat.name, wherever a fin2cat module imported it."""
    return _stacks_of(monkeypatch, [fincat] + _fin2cat_modules(), name, record)


def _fin2cat_modules():
    return [m for m in list(sys.modules.values()) if m.__name__.startswith("fin2cat")]


def test_the_searches_share_one_engine(monkeypatch):
    # counts, not timings: on z2_on_three.json swap -> swap, building
    # [Y, Z] and matching it with itself call the backtracking engine
    # fincat._assignments from the functor, the transformation and the
    # isomorphism searches, and from nothing else
    calls = _fincat_stacks(monkeypatch, "_assignments", lambda *args: _frames_in("fincat"))
    y = cli.load(Z2_ON_THREE_FX).algebras["swap"]
    H = fincat.hom_cat(y.Z, y.Z)
    assert fincat.iso_categories(H, H) is not None
    searches = {"_enumerate_functors", "_enumerate_nats", "iso_categories"}
    assert all(len(names & searches) == 1 for names in calls), calls
    assert set().union(*calls) >= searches


def test_pair_commands_build_no_member_they_do_not_read(monkeypatch):
    # counts, not timings: on z2_on_three.json, whose universe has depth
    # 3, loading the workspace and running each command that reads an
    # algebra pair builds T P3 and T^2 P3 (6 and 12 morphisms) and never
    # T^3 P3 (24), and hom assembles the composition table of neither
    sizes = _fincat_stacks(monkeypatch, "product_cat", lambda C, D: len(C.morphisms) * len(D.morphisms))
    commands = [
        ("hom", ["swap", "fix", "lax"]),
        ("descent", ["Dswapfix"]),
        ("lax-descent", ["Dswapfix"]),
        ("verify-prop-descent", ["swap", "fix"]),
        ("build-tzy", ["swap", "fix"]),
    ]
    for command, args in commands:
        del sizes[:]
        ws = cli.load(Z2_ON_THREE_FX)
        assert cli.run(ws, command, args)["status"] == "pass", command
        assert sorted(set(sizes)) == [6, 12], command
        if command == "hom":
            U, Y = ws.universes["U3"], ws.algebras["swap"].Z
            assert [vars(C).get("compose_table") for C in (U.T(Y), U.T(U.T(Y)))] == [None, None]


def test_carrier_commands_assemble_no_composition_table(monkeypatch):
    # counts, not timings: hom, descent, lax-descent and kleisli report
    # their category's sizes alone, and each of these categories is built
    # without proof (fincat.Composed), so on the fixtures none of them
    # assembles its composition table
    counted = []
    counts = cli._counts
    monkeypatch.setattr(cli, "_counts", lambda C: counted.append(C) or counts(C))
    runs = [(os.path.join(FIXTURES, fx), "hom", [y, z, "pseudo"]) for fx, y, z in FIXTURE_PAIRS]
    runs.append((Z2_ON_THREE_FX, "hom", ["swap", "fix", "pseudo"]))
    for path, diagram in ((Z2_ON_THREE_FX, "Dswapfix"), (MONAD_FX, "Did")):
        runs += [(path, command, [diagram]) for command in ("descent", "lax-descent")]
    runs += [(MONAD_FX, "kleisli", [z]) for z in ("idalg", "const1")]
    for path, command, args in runs:
        del counted[:]
        assert cli.run(cli.load(path), command, args)["status"] == "pass", (command, args)
        (C,) = counted
        assert "compose_table" not in vars(C), (command, args)


def test_lax_descent_builds_nothing_over_the_upper_sources(monkeypatch):
    # counts, not timings: while lax_descent reads each slate diagram
    # (build_Tzy's, for verify-prop-descent, and each probe's, for
    # verify-codescent), no compose_fun, paste, whisker or _fun_key call
    # takes a functor or cell whose source is D2's or D3's source (TY and
    # T^2 Y, or A2 and A3): the faces and cells act copy by copy on D1's
    # ids
    reading = []

    def upper(*args):
        """Whether a functor or cell among args runs out of an upper
        level's source of the diagram being read; None outside
        lax_descent."""
        if not reading:
            return None
        D = reading[-1]
        cells = [a.src for a in args if isinstance(a, fincat.NatT)]
        sources = [F.src for F in cells + [a for a in args if isinstance(a, fincat.Fun)]]
        return any(C is D.D2.source or C is D.D3.source for C in sources)

    names = ("compose_fun", "paste", "whisker_left", "whisker_right", "_fun_key")
    calls = {name: _fincat_stacks(monkeypatch, name, upper) for name in names}
    diagrams = []

    def reading_descent(D):
        diagrams.append(D)
        reading.append(D)
        try:
            return lax_descent(D)
        finally:
            reading.pop()

    for module in _fin2cat_modules():
        if vars(module).get("lax_descent") is lax_descent:
            monkeypatch.setattr(module, "lax_descent", reading_descent)
    read = 0
    for argv in pinned_slate().values():
        if argv[0] in ("verify-prop-descent", "verify-codescent"):
            with redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0, out.getvalue()
            read += 1 if argv[0] == "verify-prop-descent" else len(argv[-1].split(","))
    assert len(diagrams) == read >= 4
    assert all(isinstance(D.D3, fincat.PowerView) for D in diagrams)
    for name, made in calls.items():
        assert not any(made), (name, made.count(True))


def test_a_read_diagram_is_freed_without_the_cycle_collector():
    # counts, not timings: the faces and cells of a diagram hold no
    # reference cycle, so once lax_descent has read it, the diagram and
    # its views go with their last reference, the cyclic collector off
    ws = cli.load(Z2_ON_THREE_FX)
    y = ws.algebras["swap"]
    gc.collect()
    gc.disable()
    try:
        D = laxalg.build_Tzy(y.universe, y, y)
        lax_descent(D)
        views = [weakref.ref(D.D2), weakref.ref(D.D3)]
        del D
        assert [view() for view in views] == [None, None]
    finally:
        gc.enable()


def test_lax_morphism_checks_paste_nothing(monkeypatch):
    # counts, not timings: for hom and verify-prop-descent across the
    # slate, no fincat.paste call comes from the lax-morphism or
    # transformation checks, and enumerate_hom_category makes no
    # compose_fun call: it reads its candidates fbar through the faces
    # Dd1 and Dd0, which act copy by copy on [Y, Z]'s ids.  Enumerating
    # [Y, Z] keys no functor (hom_cat stores keys), and laws reads zbar
    # at T^2(f) off a table without T_fun: so each enumeration's one
    # T_fun call is _componentwise's T(a_y), and it keys nothing, as a_y
    # carries its memo key from the algebra's load
    calls = {name: _fincat_stacks(monkeypatch, name) for name in ("paste", "compose_fun", "_fun_key")}
    calls["T_fun"] = _stacks_of(monkeypatch, [laxalg.MonadUniverse], "T_fun")
    candidates = []
    morphism = laxalg.LaxMorphism
    monkeypatch.setattr(
        laxalg,
        "LaxMorphism",
        lambda *args, **kw: candidates.append(1) or morphism(*args, **kw),
    )
    checks = {"check_lax_morphism", "check_transformation", "enumerate_hom_category"}
    functors = fbars = 0
    for argv in pinned_slate().values():
        if argv[0] not in ("hom", "verify-prop-descent"):
            continue
        ws = cli.load(argv[2])
        y, z = ws.algebras[argv[3]], ws.algebras[argv[4]]
        enumerations = 1 if argv[0] == "hom" else 2
        n = len(fincat.hom_cat(y.Z, z.Z).objects) * enumerations
        for stacks in calls.values():
            del stacks[:]
        del candidates[:]
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0, out.getvalue()
        assert not any(names & checks for names in calls["paste"]), argv
        if argv[0] == "hom":
            assert calls["paste"] == [], argv
        enumerating = {
            name: [names for names in stacks if "enumerate_hom_category" in names]
            for name, stacks in calls.items()
        }
        assert enumerating["compose_fun"] == [], argv
        assert len(enumerating["T_fun"]) == enumerations, argv
        assert all("_componentwise" in names for names in enumerating["T_fun"]), argv
        assert not any("laws" in names for names in enumerating["T_fun"]), argv
        assert enumerating["_fun_key"] == [], argv
        functors, fbars = functors + n, fbars + len(candidates)
    # the slate tries more candidates than it has functors
    assert fbars > functors > 0


def test_check_pseudomonad_pastes_nothing(monkeypatch):
    # counts, not timings: check-pseudomonad on every universe of the
    # slate's workspaces, and check_pseudomonad for Z/2 over the walking
    # arrow at depth 4, where both coherence pastings run, make no
    # fincat.paste call (so no whisker) and no T_nat call; the identity
    # cells of the pastings are still built
    pastes = _fincat_stacks(monkeypatch, "paste")
    T_nats = _stacks_of(monkeypatch, [laxalg.MonadUniverse], "T_nat")
    mus = _stacks_of(monkeypatch, [laxalg.MonadUniverse], "mu")
    universes = 0
    for path in sorted({argv[2] for argv in pinned_slate().values()}):
        for name in cli.load(path).universes:
            argv = ["check-pseudomonad", "--input", path, name]
            with redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0, out.getvalue()
            universes += 1
    z2 = laxalg.Monoid(
        ["e", "s"],
        "e",
        {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"},
    )
    U = laxalg.monoid_two_monad(z2, [("A", walking_arrow())], 4)
    assert laxalg.check_pseudomonad(U)
    assert universes == 3  # U, U2 and U3
    for stacks in (pastes, T_nats):
        assert not any("check_pseudomonad" in names for names in stacks)
    # the triangle pasting's mu at each of A and T(A), the associativity
    # pasting's two at A
    assert sum("check_pseudomonad" in names for names in mus) >= 4

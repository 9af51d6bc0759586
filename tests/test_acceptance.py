"""End-to-end acceptance checks.

Seven numbered checks, each printing a single PASS/FAIL line with its
timing.  Every expected value here is produced by an oracle that goes
around the code under test: brute-force table filters for monoids, a
union-find interchange closure for pasting words, the Kleisli category
for strictification, and scripted perturbations for the validators.
"""

import io
import itertools
import os
import time
from contextlib import redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

import fin2cat
from fin2cat.cli import load, main
from fin2cat.codescent import FINITE, build_Ay_strict, kleisli, strictify, verify_codescent_universal
from fin2cat.deltadiag import DeltaDiagram, check_dot_extension, make_dot_extension
from fin2cat.descent import lax_descent
from fin2cat.fincat import NatT, compose_fun, iso_categories, make_fincat, make_fun, make_nat
from fin2cat.freegen import (
    DELTA_DOT_LAX,
    NO_WITHIN_BUDGET,
    YES,
    builtin_computad,
    make_computad,
    make_graph,
    make_path,
    make_word,
    normalize_2cell,
    preorder_leq,
    two_cells_equal,
)
from fin2cat.laxalg import (
    Monoid,
    build_Tzy,
    check_pseudomonad,
    monad_algebra,
    monoid_two_monad,
    verify_prop_descent,
)

from helpers import (
    chain3,
    constant_fun,
    is_associative,
    terminal_cat,
    unital_associative_tables,
    walking_arrow,
    z2_cat,
)

FIXTURES = os.path.join(os.path.dirname(fin2cat.__file__), "fixtures")
MONAD_FX = os.path.join(FIXTURES, "monad_on_2.json")
Z2_FX = os.path.join(FIXTURES, "z2_action.json")


def report(num, label, ok, elapsed, bound):
    status = "PASS" if ok and elapsed < bound else "FAIL"
    line = "%s %d/7 %s: %.2fs (bound %ss)" % (status, num, label, elapsed, bound)
    print(line)
    assert status == "PASS", line


# ---------------------------------------------------------------------------
# oracles


def fixed_unit_monoids(els):
    """Backtracking enumeration of associative tables on els with els[0]
    forced to be the unit; prunes on the first broken triple."""
    e = els[0]
    cells = [(a, b) for a in els[1:] for b in els[1:]]
    t = {}
    for x in els:
        t[(e, x)] = x
        t[(x, e)] = x
    out = []

    def consistent():
        for x in els:
            for y in els:
                if (x, y) not in t:
                    continue
                xy = t[(x, y)]
                for z in els:
                    if (y, z) not in t or (xy, z) not in t:
                        continue
                    if (x, t[(y, z)]) not in t:
                        continue
                    if t[(xy, z)] != t[(x, t[(y, z)])]:
                        return False
        return True

    def extend(k):
        if k == len(cells):
            out.append(dict(t))
            return
        for v in els:
            t[cells[k]] = v
            if consistent():
                extend(k + 1)
            del t[cells[k]]

    extend(0)
    return out


def triv_universe(C, depth=3):
    M = Monoid(["e"], "e", {("e", "e"): "e"})
    return monoid_two_monad(M, [("C", C)], depth)


def const1_monad(C):
    t = constant_fun(C, C, "1")
    mu = make_nat(compose_fun(t, t), t, {"0": "id1", "1": "id1"})
    eta = make_nat(make_fun(C, C, {o: o for o in C.objects}, {m: m for m in C.morphisms}), t, {"0": "u", "1": "id1"})
    return t, mu, eta


def closure_monad(Z):
    t = make_fun(
        Z,
        Z,
        {"0": "1", "1": "1", "2": "2"},
        {"id0": "id1", "id1": "id1", "id2": "id2",
         "u01": "id1", "u02": "u12", "u12": "u12"},
    )
    mu = make_nat(compose_fun(t, t), t, {"0": "id1", "1": "id1", "2": "id2"})
    eta = make_nat(_idfun(Z), t, {"0": "u01", "1": "id1", "2": "id2"})
    return t, mu, eta


def identity_monad(Z):
    t = _idfun(Z)
    ids = {o: Z.identity[o] for o in Z.objects}
    return t, make_nat(compose_fun(t, t), t, ids), make_nat(_idfun(Z), t, ids)


def _idfun(C):
    return make_fun(C, C, {o: o for o in C.objects}, {m: m for m in C.morphisms})


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# 1. the hom category of algebra morphisms is the (lax) descent category


def test_1_descent_comparison_on_fixtures():
    cases = ((MONAD_FX, "idalg"), (MONAD_FX, "const1"), (Z2_FX, "swap"))
    ok, worst = True, 0.0
    for path, name in cases:
        ws = load(path)
        z = ws.algebras[name]
        t0 = time.monotonic()
        rep = verify_prop_descent(z.universe, z, z)
        worst = max(worst, time.monotonic() - t0)
        ok = ok and rep["status"] == "pass"
        ok = ok and rep["lax"]["match"] is True
        ok = ok and rep["pseudo"]["match"] is True
    report(1, "hom categories equal (lax) descent categories", ok, worst, 10)


# ---------------------------------------------------------------------------
# 2. interchange word problem against a union-find closure oracle


def test_2_interchange_agrees_with_closure_oracle():
    G = make_graph(["*"], ["a"], {"a": "*"}, {"a": "*"})

    def loop(edges):
        return make_path(G, "*", edges)

    c = make_computad(
        G,
        ["alpha", "beta"],
        {"alpha": loop(["a"]), "beta": loop(["a"])},
        {"alpha": loop(["a"]), "beta": loop(["a"])},
    )

    t0 = time.monotonic()
    ok = True
    pairs = 0
    for L in (1, 2, 3):
        src = loop(["a"] * L)
        choices = [(p, g) for p in range(L) for g in ("alpha", "beta")]
        words = []
        for k in range(5):
            words.extend(itertools.product(choices, repeat=k))

        nf = {
            w: normalize_2cell(make_word(c, src, list(w))).positions()
            for w in words
        }

        # oracle: both generators keep the path fixed, so interchange is
        # exactly "swap adjacent steps at distinct positions"; close under
        # single swaps with union-find
        parent = {w: w for w in words}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for w in words:
            for i in range(len(w) - 1):
                if w[i][0] != w[i + 1][0]:
                    other = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                    ra, rb = find(w), find(other)
                    if ra != rb:
                        parent[ra] = rb

        cls = {w: find(w) for w in words}
        for w1 in words:
            n1, c1 = nf[w1], cls[w1]
            for w2 in words:
                pairs += 1
                if (n1 == nf[w2]) != (c1 == cls[w2]):
                    ok = False
        if L == 1:
            # tie the cached normal forms back to the public comparison
            for w1 in words:
                for w2 in words:
                    got = two_cells_equal(
                        make_word(c, src, list(w1)), make_word(c, src, list(w2))
                    )
                    if got != (nf[w1] == nf[w2]):
                        ok = False
    ok = ok and pairs == 2535267
    report(2, "pasting-word equality matches interchange closure", ok, time.monotonic() - t0, 30)


# ---------------------------------------------------------------------------
# 3. the extension validator accepts induced data, rejects perturbations


def test_3_extension_validator_perturbation_suite():
    ws = load(MONAD_FX)
    y = ws.algebras["idalg"]
    D = build_Tzy(y.universe, y, y)
    DC = lax_descent(D)

    # the extension the descent data themselves induce: D0 is the lax
    # descent category, Dd its projection, and theta collects the fbar
    # components (natural precisely because descent morphisms commute
    # with them)
    theta = make_nat(
        compose_fun(D.Dd1, DC.projection),
        compose_fun(D.Dd0, DC.projection),
        {o: DC.data[o].fbar for o in DC.carrier.objects},
    )
    ext = make_dot_extension(D, DC.carrier, DC.projection, theta)

    def accepts(e):
        try:
            return bool(check_dot_extension(e))
        except (KeyError, ValueError):
            return False

    # perturbed cells are assembled raw, skipping make_nat, so that any
    # rejection is the checker's own doing
    def perturb_theta(at, new):
        comps = dict(theta.components)
        comps[at] = new
        return make_dot_extension(
            D, DC.carrier, DC.projection, NatT(theta.src, theta.tgt, comps)
        )

    def perturb_base(field, at, new):
        fields = {name: getattr(D, name) for name in DeltaDiagram.FIELDS}
        old = fields[field]
        comps = dict(old.components)
        comps[at] = new
        fields[field] = NatT(old.src, old.tgt, comps)
        return make_dot_extension(
            DeltaDiagram(**fields), DC.carrier, DC.projection, theta
        )

    t0 = time.monotonic()
    ok = len(DC.data) == 3 and accepts(ext)

    mutations = rejected = 0
    for o in DC.carrier.objects:
        fbar = DC.data[o].fbar
        for m in D.D2.morphisms:
            if m == fbar:
                continue
            mutations += 1
            rejected += not accepts(perturb_theta(o, m))
        f = DC.data[o].f
        for field in ("Dn0", "Dn1"):
            original = getattr(D, field).at(f)
            for m in D.D1.morphisms:
                if m == original:
                    continue
                mutations += 1
                rejected += not accepts(perturb_base(field, f, m))
    ok = ok and mutations >= 20 and rejected == mutations
    report(
        3,
        "extension validator rejects all %d perturbations" % mutations,
        ok,
        time.monotonic() - t0,
        30,
    )


# ---------------------------------------------------------------------------
# 4. every small monoid gives a 2-monad; every non-associative mutant fails


def test_4_pseudomonad_over_all_small_monoids():
    t0 = time.monotonic()
    terminal = terminal_cat()
    alphabets = (["e"], ["e", "a"], ["e", "a", "b"])
    valid = []
    for els in alphabets:
        for unit, table in unital_associative_tables(els):
            valid.append((els, unit, table))
    # 1 table on one element, 4 on two, 33 on three
    ok = len(valid) == 38

    for els, unit, table in valid:
        U = monoid_two_monad(Monoid(els, unit, table), [("1", terminal)], 3)
        ok = ok and bool(check_pseudomonad(U))

    # at depth 4 the deepest coherence pasting has room to run instead of
    # being skipped by the iterate guard
    for els, unit, table in valid:
        U = monoid_two_monad(Monoid(els, unit, table), [("1", terminal)], 4)
        ok = ok and bool(check_pseudomonad(U))

    mutants = rejected = 0
    for els, unit, table in valid:
        for key in table:
            for v in els:
                if v == table[key]:
                    continue
                bad = dict(table)
                bad[key] = v
                if is_associative(els, bad):
                    continue
                mutants += 1
                try:
                    U = monoid_two_monad(
                        Monoid(els, unit, bad, check=False), [("1", terminal)], 3
                    )
                    failed = not check_pseudomonad(U)
                except ValueError:
                    failed = True
                rejected += failed
    ok = ok and mutants == 480 and rejected == mutants
    report(
        4,
        "38 monoids pass at depths 3-4, %d non-associative mutants fail" % mutants,
        ok,
        time.monotonic() - t0,
        60,
    )


# ---------------------------------------------------------------------------
# 5. strictification reproduces the Kleisli category and is couniversal


def test_5_strictify_matches_kleisli_oracle():
    instances = (
        ("const-1 on the arrow", walking_arrow(), const1_monad),
        ("closure on the chain", chain3(), closure_monad),
        ("identity on Z/2", z2_cat(), identity_monad),
    )
    probes = (("1", terminal_cat()), ("2", walking_arrow()))
    ok, worst = True, 0.0
    for label, Z, mk in instances:
        t0 = time.monotonic()
        U = triv_universe(Z)
        t, mu, eta = mk(Z)
        z = monad_algebra(U, Z, t, mu, eta)
        Q = strictify(U, z)
        good = Q.status == FINITE
        good = good and iso_categories(Q.category, kleisli(Z, t, mu, eta)) is not None
        rep = verify_codescent_universal(build_Ay_strict(U, z), Q, probes)
        good = good and rep["status"] == "pass"
        good = good and all(r["iso"] for r in rep["probes"].values())
        worst = max(worst, time.monotonic() - t0)
        ok = ok and good
    report(5, "strictification = Kleisli on 3 monads, probes agree", ok, worst, 30)


# ---------------------------------------------------------------------------
# 6. the unit cells orient the path preorder below the three-level shape


def test_6_unit_rewrites_orient_the_preorder():
    c = builtin_computad(DELTA_DOT_LAX)
    d = make_path(c.base, "0", ["d"])
    g0 = make_path(c.base, "0", ["d", "d0", "s0"])
    g1 = make_path(c.base, "0", ["d", "d1", "s0"])
    t0 = time.monotonic()
    ok = preorder_leq(c, d, g0) == YES
    ok = ok and preorder_leq(c, d, g1) == YES
    ok = ok and preorder_leq(c, g0, d, budget=10000) == NO_WITHIN_BUDGET
    ok = ok and preorder_leq(c, g1, d, budget=10000) == NO_WITHIN_BUDGET
    report(6, "d rewrites below both unit composites, never back", ok, time.monotonic() - t0, 5)


# ---------------------------------------------------------------------------
# 7. reports are byte-identical across reruns, on every fixture


CLI_SLATE = (
    ["validate", "--input", MONAD_FX],
    ["check-pseudomonad", "--input", MONAD_FX, "U"],
    ["check-algebra", "--input", MONAD_FX, "idalg"],
    ["check-morphism", "--input", MONAD_FX, "collapse"],
    ["hom", "--input", MONAD_FX, "idalg", "idalg", "lax"],
    ["descent", "--input", MONAD_FX, "Did"],
    ["lax-descent", "--input", MONAD_FX, "Did"],
    ["verify-prop-descent", "--input", MONAD_FX, "idalg", "idalg"],
    ["build-tzy", "--input", MONAD_FX, "idalg", "const1"],
    ["normalize-2cell", "--input", MONAD_FX, "DeltaDotLax", "1", "d0,p0", "0:sig00"],
    ["preorder-leq", "--input", MONAD_FX, "DeltaDotLax", "0", "d", "d,d0,s0"],
    ["kleisli", "--input", MONAD_FX, "const1"],
    ["strictify", "--input", MONAD_FX, "const1"],
    ["verify-codescent", "--input", MONAD_FX, "const1", "--probes", "1,C2"],
    ["validate", "--input", Z2_FX],
    ["check-pseudomonad", "--input", Z2_FX, "U2"],
    ["check-algebra", "--input", Z2_FX, "swap"],
    ["check-algebra", "--input", Z2_FX, "skew"],
    ["check-morphism", "--input", Z2_FX, "ident"],
    ["hom", "--input", Z2_FX, "swap", "swap", "pseudo"],
    ["verify-prop-descent", "--input", Z2_FX, "swap", "swap"],
    ["build-tzy", "--input", Z2_FX, "swap", "swap"],
)


def test_7_reports_are_deterministic():
    t0 = time.monotonic()
    ok = True
    for argv in CLI_SLATE:
        code1, out1 = run_cli(argv)
        code2, out2 = run_cli(argv)
        ok = ok and code1 == code2 and out1 == out2
        ok = ok and out1.endswith("\n") and out1.startswith("{")
    report(
        7,
        "%d command invocations byte-stable on rerun" % len(CLI_SLATE),
        ok,
        time.monotonic() - t0,
        60,
    )


# ---------------------------------------------------------------------------
# property coverage beyond the numbered checks


_SMALL = None


def _small_monoids():
    global _SMALL
    if _SMALL is None:
        _SMALL = []
        for els in (["e"], ["e", "a"], ["e", "a", "b"]):
            for unit, table in unital_associative_tables(els):
                _SMALL.append((list(els), unit, table))
    return _SMALL


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=37),
    st.sampled_from(["terminal", "arrow", "two-objects"]),
    st.integers(min_value=2, max_value=3),
)
def test_pseudomonad_property_over_sampled_universes(i, seed_name, depth):
    """Any small monoid acting on any small seed gives a strict 2-monad."""
    els, unit, table = _small_monoids()[i]
    seed = {
        "terminal": terminal_cat,
        "arrow": walking_arrow,
        "two-objects": lambda: make_fincat(
            ["x", "y"], ["idx", "idy"], {"idx": "x", "idy": "y"},
            {"idx": "x", "idy": "y"}, {"x": "idx", "y": "idy"},
            {("idx", "idx"): "idx", ("idy", "idy"): "idy"},
        ),
    }[seed_name]()
    U = monoid_two_monad(Monoid(els, unit, table), [("S", seed)], depth)
    assert check_pseudomonad(U)


def test_monoids_of_order_four_also_pass():
    """Exhaustive one-size-up sweep with the unit pinned to the first
    element; the backtracking enumerator is cross-checked against the
    brute-force filter where both are feasible."""
    for els in (["e", "a"], ["e", "a", "b"]):
        brute = [
            t for unit, t in unital_associative_tables(els) if unit == "e"
        ]
        fast = fixed_unit_monoids(els)
        assert sorted(brute, key=sorted) == sorted(fast, key=sorted)

    tables = fixed_unit_monoids(["e", "a", "b", "c"])
    assert len(tables) == 156
    terminal = terminal_cat()
    for table in tables:
        U = monoid_two_monad(
            Monoid(["e", "a", "b", "c"], "e", table), [("1", terminal)], 3
        )
        assert check_pseudomonad(U)

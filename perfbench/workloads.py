"""Seeded task lists for the four workloads.

A workload is a pool of verdict tasks that the runner repeats in rounds.
Each task is plain JSON data: a command line for fin2cat.cli.main over a
workspace file the pool also carries, or the arguments of one public API
call.  Every task holds the answer it must produce, computed here by
oracles.py, so no expected value comes from fin2cat itself.

The pool of a workload has the same size and the same number of tasks in
each cost class for every seed; the seed picks the instances inside each
class and the order of every round.  That keeps the mix, and so the
medians, comparable across seeds.  A pool is small enough that a round
takes about two seconds or less on a 2-core x86 host at 2.1 GHz, so a
30 s run times every task ten times or more (see run.py).
"""

import hashlib
import json
import os
import random

from oracles import (
    ARROW,
    CHAIN3,
    DIAMOND,
    IDEM,
    TERMINAL,
    TRIV,
    Z2,
    closure_operators,
    discrete,
    equivariant_maps,
    functor_category_size,
    interchange_class,
    kleisli_size,
    lax_morphism_counts,
    non_associative_mutants,
    one_object,
    pinned_unit_tables,
    poset_monad,
    shape_apply,
    shape_redexes,
    strict_actions,
    triangle_group_order,
    unital_associative_tables,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join("src", "fin2cat", "fixtures")

D3_COMMANDS = ("verify-prop-descent", "build-tzy", "descent", "lax-descent")


# ---------------------------------------------------------------------------
# workspace sections


def cat_spec(C):
    return {
        "objects": list(C["objects"]),
        "morphisms": {m: list(dc) for m, dc in C["mors"].items()},
        "identities": dict(C["ident"]),
        "compose": [[g, f, h] for (g, f), h in C["comp"].items()],
    }


def monoid_spec(M):
    els, unit, table = M
    return {"elements": list(els), "unit": unit, "table": [[a, b, c] for (a, b), c in table.items()]}


def action_spec(M, C, act):
    """The action functor T(C) = M x C -> C of a strict action."""
    els = M[0]
    return {
        "on_objects": {"(%s,%s)" % (g, x): act[g][0][x] for g in els for x in C["objects"]},
        "on_morphisms": {"(%s,%s)" % (g, m): act[g][1][m] for g in els for m in C["mors"]},
    }


class Pool:
    """Tasks plus the workspace files they read, keyed by file name."""

    def __init__(self, workload):
        self.workload = workload
        self.tasks = []
        self.files = {}

    def add_file(self, name, payload):
        self.files[name] = json.dumps(payload, sort_keys=True)
        return name

    def add_anonymous_file(self, prefix, payload):
        """Add a workspace named after a digest of its content."""
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]
        return self.add_file("%s-%s.json" % (prefix, digest), payload)

    def cli(self, cls, argv, exit_code, status, data=None):
        self.tasks.append(
            {"kind": "cli", "cls": cls, "argv": argv, "expect": {"exit": exit_code, "status": status, "data": data or {}}}
        )

    def api(self, cls, kind, args, expect):
        self.tasks.append({"kind": kind, "cls": cls, "args": args, "expect": expect})

    def digest(self):
        """sha256 of the canonical task list and file contents."""
        blob = json.dumps({"tasks": self.tasks, "files": self.files}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def _ws_arg(name):
    return "@ws/" + name


# ---------------------------------------------------------------------------
# descent workloads


def _algebras(M, carriers):
    """Every strict action of M on each carrier, as (name, carrier, act)."""
    out = []
    for cname, C in carriers.items():
        for i, act in enumerate(strict_actions(M, C)):
            out.append(("%s%d" % (cname, i), cname, act))
    return out


def _pair_workspace(pool, mname, M, carriers, y, z, diagram):
    """A workspace holding just the universe, the two algebras and,
    when asked, the diagram T_zy named D."""
    seeds = sorted({y[1], z[1]})
    algs = {}
    for name, cname, act in (y, z):
        algs[name] = {
            "universe": "U",
            "carrier": cname,
            "kind": "strict",
            "action": action_spec(M, carriers[cname], act),
        }
    ws = {
        "categories": {c: cat_spec(carriers[c]) for c in seeds},
        "monoids": {mname: monoid_spec(M)},
        "universes": {"U": {"monoid": mname, "seeds": seeds, "depth": 3}},
        "algebras": algs,
    }
    if diagram:
        ws["diagrams"] = {"D": {"kind": "tzy", "source": y[0], "target": z[0]}}
    tag = "D" if diagram else ""
    return pool.add_file("%s-%s-%s-%s%s.json" % (pool.workload, mname, y[0], z[0], tag), ws)


def _pair_tasks(pool, cls, mname, M, carriers, y, z, commands, counts):
    """CLI tasks on one (y, z) pair.  counts is (lax objects, lax
    morphisms, pseudo objects, pseudo morphisms)."""
    Y, Z = carriers[y[1]], carriers[z[1]]
    lo, lm, po, pm = counts
    for cmd in commands:
        if cmd in ("descent", "lax-descent"):
            ws = _pair_workspace(pool, mname, M, carriers, y, z, True)
            o, m = (po, pm) if cmd == "descent" else (lo, lm)
            pool.cli(cls, [cmd, "--input", _ws_arg(ws), "D"], 0, "pass", {"object_count": o, "morphism_count": m})
            continue
        ws = _pair_workspace(pool, mname, M, carriers, y, z, False)
        if cmd == "verify-prop-descent":
            data = {
                "lax.hom_objects": lo, "lax.descent_objects": lo, "lax.hom_morphisms": lm, "lax.match": True,
                "pseudo.hom_objects": po, "pseudo.descent_objects": po, "pseudo.hom_morphisms": pm, "pseudo.match": True,
            }
            pool.cli(cls, [cmd, "--input", _ws_arg(ws), y[0], z[0]], 0, "pass", data)
        elif cmd == "build-tzy":
            data = {}
            for level, copies in (("D1", 1), ("D2", len(M[0])), ("D3", len(M[0]) ** 2)):
                o, m = functor_category_size(Y, Z, copies)
                data["%s_objects" % level] = o
                data["%s_morphisms" % level] = m
            pool.cli(cls, [cmd, "--input", _ws_arg(ws), y[0], z[0]], 0, "pass", data)
        else:
            # "hom:lax" or "hom:pseudo"
            kind = cmd.split(":")[1]
            o, m = (lo, lm) if kind == "lax" else (po, pm)
            pool.cli(cls, ["hom", "--input", _ws_arg(ws), y[0], z[0], kind], 0, "pass",
                     {"object_count": o, "morphism_count": m, "class": kind})


def _fixture(name):
    return os.path.join(FIXTURES, name)


def _fixture_category(raw, name):
    spec = raw["categories"][name]
    return {
        "objects": spec["objects"],
        "mors": {m: tuple(dc) for m, dc in spec["morphisms"].items()},
        "ident": spec["identities"],
        "comp": {(g, f): h for g, f, h in spec["compose"]},
    }


def _read_fixture(name):
    with open(os.path.join(ROOT, _fixture(name))) as fh:
        return json.load(fh)


def descent_sparse(seed):
    """Discrete carriers: D3 has 256 functors but almost no transformations.
    The pool is the same for every seed, which sets only the order."""
    pool = Pool("descent-sparse")
    carriers = {"P1": discrete(["p"]), "P2": discrete(["p", "q"])}
    heavy = []
    for mname, M in (("z2", Z2), ("idem", IDEM)):
        algs = _algebras(M, carriers)
        for y in algs:
            for z in algs:
                E = equivariant_maps(M, carriers[y[1]], y[2], carriers[z[1]], z[2])
                counts = (E, E, E, E)
                _pair_tasks(pool, "hom", mname, M, carriers, y, z, ("hom:lax", "hom:pseudo"), counts)
                if y[1] == z[1] == "P2":
                    heavy.append((mname, M, y, z, counts))
                else:
                    _pair_tasks(pool, "d3-light", mname, M, carriers, y, z, D3_COMMANDS, counts)
    # each [T^2 P2, P2] task takes 0.4 s: `descent` on the first pair and
    # the two on the shipped workspace below keep a round near two
    # seconds.  Drawing the pair and command from the seed moved a run's
    # figures by a tenth.
    mname, M, y, z, counts = heavy[0]
    _pair_tasks(pool, "d3-heavy", mname, M, carriers, y, z, ("descent",), counts)

    # the shipped Z/2 workspace
    raw = _read_fixture("z2_action.json")
    P2 = _fixture_category(raw, "P2")
    swap = {"e": ({"p": "p", "q": "q"}, {"idp": "idp", "idq": "idq"}),
            "s": ({"p": "q", "q": "p"}, {"idp": "idq", "idq": "idp"})}
    E = equivariant_maps(Z2, P2, swap, P2, swap)
    fx = "@" + _fixture("z2_action.json")
    o3, m3 = functor_category_size(P2, P2, 4)
    pool.cli("d3-heavy", ["verify-prop-descent", "--input", fx, "swap", "swap"], 0, "pass",
             {"lax.hom_objects": E, "pseudo.hom_objects": E, "lax.match": True, "pseudo.match": True})
    pool.cli("d3-heavy", ["build-tzy", "--input", fx, "swap", "swap"], 0, "pass",
             {"D3_objects": o3, "D3_morphisms": m3})
    pool.cli("hom", ["hom", "--input", fx, "swap", "swap", "pseudo"], 0, "pass",
             {"object_count": E, "morphism_count": E})
    # skew's cells are all s, so the unit pasting s . e = id fails
    pool.cli("check", ["check-algebra", "--input", fx, "skew"], 1, "fail")
    pool.cli("check", ["check-algebra", "--input", fx, "swap"], 0, "pass")
    # ident has identity components: a strict morphism
    pool.cli("check", ["check-morphism", "--input", fx, "ident"], 0, "pass", {"class": "strict"})
    pool.cli("check", ["check-pseudomonad", "--input", fx, "U2"], 0, "pass")
    return pool


def descent_dense(seed):
    """Carriers with non-identity endomorphisms: D3 is 20-100% dense."""
    rng = random.Random("descent-dense:%d" % seed)
    pool = Pool("descent-dense")
    carriers = {"A": ARROW, "G": one_object(Z2), "I": one_object(IDEM)}
    hom, light, z2 = [], [], []
    for mname, M in (("z2", Z2), ("idem", IDEM)):
        algs = _algebras(M, carriers)
        for y in algs:
            for z in algs:
                # [T^2 A, G] and [T^2 A, I] have 4,096 and 10,000
                # transformations, minutes per build; hom from the arrow
                # to a one-object carrier, 20-50 ms, goes with them.
                if y[1] == "A" and z[1] != "A":
                    continue
                counts = lax_morphism_counts(M, carriers[y[1]], y[2], carriers[z[1]], z[2])
                hom.extend((mname, M, y, z, kind, counts) for kind in ("hom:lax", "hom:pseudo"))
                # [T^2 A, A] and [T^2 I, I] take 0.4 s and 4 s a build:
                # one alone would fill a round of about two seconds
                if y[1] == z[1] == "A" or y[1] == z[1] == "I":
                    continue
                if y[1] == z[1] == "G":
                    z2.extend((mname, M, y, z, cmd, counts) for cmd in D3_COMMANDS)
                else:
                    light.append((mname, M, y, z, counts))
    # every hom task and every [T^2 G, G] build; the twenty builds hold
    # the tail percentile, the hom and light D3 tasks the median.  Each
    # light pair gets one command, in a rotation the seed starts, so
    # every command runs on six pairs.
    for mname, M, y, z, kind, counts in hom:
        _pair_tasks(pool, "hom", mname, M, carriers, y, z, (kind,), counts)
    for mname, M, y, z, cmd, counts in z2:
        _pair_tasks(pool, "d3-z2", mname, M, carriers, y, z, (cmd,), counts)
    offset = rng.randrange(len(D3_COMMANDS))
    for k, (mname, M, y, z, counts) in enumerate(light):
        cmd = D3_COMMANDS[(k + offset) % len(D3_COMMANDS)]
        _pair_tasks(pool, "d3-light", mname, M, carriers, y, z, (cmd,), counts)

    # the shipped monad workspace: idalg is the identity monad on the
    # arrow, const1 the monad constant at 1
    raw = _read_fixture("monad_on_2.json")
    C2 = _fixture_category(raw, "C2")
    ident = {"e": ({x: x for x in C2["objects"]}, {m: m for m in C2["mors"]})}
    lo, lm, po, pm = lax_morphism_counts(TRIV, C2, ident, C2, ident)
    o1, m1 = functor_category_size(C2, C2, 1)
    const1 = {"0": "1", "1": "1"}
    fx = "@" + _fixture("monad_on_2.json")
    pool.cli("fixture", ["verify-prop-descent", "--input", fx, "idalg", "idalg"], 0, "pass",
             {"lax.hom_objects": lo, "lax.hom_morphisms": lm, "pseudo.hom_objects": po, "pseudo.hom_morphisms": pm})
    pool.cli("fixture", ["build-tzy", "--input", fx, "idalg", "const1"], 0, "pass",
             {"D1_objects": o1, "D1_morphisms": m1, "D3_objects": o1, "D3_morphisms": m1})
    pool.cli("fixture", ["hom", "--input", fx, "idalg", "idalg", "lax"], 0, "pass",
             {"object_count": lo, "morphism_count": lm})
    pool.cli("fixture", ["descent", "--input", fx, "Did"], 0, "pass", {"object_count": po, "morphism_count": pm})
    pool.cli("fixture", ["lax-descent", "--input", fx, "Did"], 0, "pass", {"object_count": lo, "morphism_count": lm})
    k = kleisli_size(C2, const1)
    pool.cli("fixture", ["strictify", "--input", fx, "const1"], 0, "pass", {"morphism_count": k})
    pool.cli("fixture", ["kleisli", "--input", fx, "const1"], 0, "pass", {"morphism_count": k})
    pool.cli("fixture", ["verify-codescent", "--input", fx, "const1", "--probes", "1,C2"], 0, "pass")
    return pool


# ---------------------------------------------------------------------------
# 2-monads


MONAD_SEEDS = {"terminal": TERMINAL, "arrow": ARROW, "disc2": discrete(["x", "y"])}


def monad(seed):
    """check-pseudomonad over every small monoid, plus broken mutants."""
    rng = random.Random("monad:%d" % seed)
    pool = Pool("monad")
    by_order = {1: [], 2: [], 3: [], 4: []}
    for els in (["e"], ["e", "a"], ["e", "a", "b"]):
        for unit, table in unital_associative_tables(els):
            by_order[len(els)].append((els, unit, table))
    els4 = ["e", "a", "b", "c"]
    by_order[4] = [(els4, "e", t) for t in pinned_unit_tables(els4)]
    # three draws per (order, seed, depth) cell; the six depth-4 order-4
    # tasks on the arrow and on discrete-2 stay above the tail percentile
    for order, monoids in by_order.items():
        for sname, S in MONAD_SEEDS.items():
            for depth in (3, 4):
                for els, unit, table in rng.choices(monoids, k=3):
                    ws = {
                        "categories": {sname: cat_spec(S)},
                        "monoids": {"M": monoid_spec((els, unit, table))},
                        "universes": {"U": {"monoid": "M", "seeds": [sname], "depth": depth}},
                    }
                    name = pool.add_anonymous_file("monad", ws)
                    pool.cli("order%d-%s-d%d" % (order, sname, depth),
                             ["check-pseudomonad", "--input", _ws_arg(name), "U"], 0, "pass", {"universe": "U"})
    mutants = []
    for els, unit, table in by_order[1] + by_order[2] + by_order[3]:
        for bad in non_associative_mutants(els, unit, table):
            mutants.append((els, unit, bad))
    for els, unit, bad in rng.sample(mutants, 108):
        pool.api("mutant", "mutant", {"elements": els, "unit": unit, "table": [[a, b, c] for (a, b), c in bad.items()]},
                 {"ok": False})
    return pool


# ---------------------------------------------------------------------------
# rewriting, strictification and pasting


def _one_object(gens, rels):
    return {"objects": ["*"], "gens": [[g, "*", "*"] for g in gens], "rels": [[list(l), list(r), "*"] for l, r in rels]}


def rewrite(seed):
    """Quotients by completion, Kleisli strictification, pasting words."""
    rng = random.Random("rewrite:%d" % seed)
    pool = Pool("rewrite")
    finite = "Finite"
    undecided = "Undecided"
    # the quotient sizes are fixed, so the tail percentile, which falls
    # among the largest cyclic ones, does not move with the seed.  x^n
    # costs about n^3: x^92 takes 0.6 s, a third of a round.
    for n in (6, 10, 14, 18, 22) + tuple(range(28, 48)):
        cls = "cyclic-large" if n >= 28 else "cyclic"
        pool.api(cls, "quotient", _one_object(["x"], [(["x"] * n, [])]), {"status": finite, "morphisms": n})
    for n in (4, 8, 12, 15):
        P = _one_object(["r", "s"], [(["r"] * n, []), (["s", "s"], []), (["s", "r", "s"], ["r"] * (n - 1))])
        pool.api("dihedral", "quotient", P, {"status": finite, "morphisms": 2 * n})
    for k in (2, 3, 4, 5):
        P = _one_object(["x", "y"], [(["x", "x"], []), (["y"] * 3, []), (["x", "y"] * k, [])])
        pool.api("triangle", "quotient", P, {"status": finite, "morphisms": triangle_group_order(k)})
    for n in (3, 5, 7, 9):
        # f: a -> b and g: b -> a inverse to each other, x^n = id at a:
        # a connected groupoid with vertex group Z/n, so 4n morphisms
        P = {
            "objects": ["a", "b"],
            "gens": [["f", "a", "b"], ["g", "b", "a"], ["x", "a", "a"]],
            "rels": [[["f", "g"], [], "a"], [["g", "f"], [], "b"], [["x"] * n, [], "a"]],
        }
        pool.api("two-object", "quotient", P, {"status": finite, "morphisms": 4 * n})
    # infinite groups and monoids: completion or the automaton must give up
    for k in (6, 7):
        P = _one_object(["x", "y"], [(["x", "x"], []), (["y"] * 3, []), (["x", "y"] * k, [])])
        P["budget"] = 2000
        pool.api("infinite", "quotient", P, {"status": undecided})
    pool.api("infinite", "quotient", _one_object(["x"], []), {"status": undecided})
    pool.api("infinite", "quotient", _one_object(["x", "y"], [(["x", "y"], ["y", "x"])]), {"status": undecided})

    # monads on small posets (closure operators) and one-object categories
    monads = []
    for pname, P in (("arrow", ARROW), ("chain3", CHAIN3), ("diamond", DIAMOND)):
        for t in closure_operators(P):
            monads.append((pname, P) + poset_monad(P, t))
    for gname, M in (("z2", Z2), ("idem", IDEM)):
        G = one_object(M)
        e = M[1]
        monads.append((gname, G, {"*": "*"}, {m: m for m in G["mors"]}, {"*": e}, {"*": e}))
    G = one_object(Z2)
    # mu = eta = s is a second monad structure on the identity of Z/2
    monads.append(("z2s", G, {"*": "*"}, {m: m for m in G["mors"]}, {"*": "s"}, {"*": "s"}))
    for cmd in ("strictify", "kleisli", "verify-codescent"):
        for cname, Z, to, tm, mu, eta in rng.sample(monads, 8):
            ws = {
                "categories": {"Z": cat_spec(Z), "1": cat_spec(TERMINAL), "C2": cat_spec(ARROW)},
                "monoids": {"triv": monoid_spec(TRIV)},
                "universes": {"U": {"monoid": "triv", "seeds": ["Z"], "depth": 3}},
                "algebras": {"z": {"universe": "U", "carrier": "Z", "kind": "monad",
                                   "t": {"on_objects": to, "on_morphisms": tm}, "mu": mu, "eta": eta}},
            }
            name = pool.add_anonymous_file("rewrite", ws)
            argv = [cmd, "--input", _ws_arg(name), "z"]
            if cmd == "verify-codescent":
                pool.cli("codescent", argv + ["--probes", "1,C2"], 0, "pass")
            else:
                pool.cli("codescent", argv, 0, "pass", {"morphism_count": kleisli_size(Z, to)})

    # rewriting preorder on the three-level shape: forward rewrites are
    # reachable; no cell shortens a path, so a shorter target never is
    starts = [("0", ("d",)), ("1", ("d0",)), ("1", ("d1",)), ("1", ("d0", "p2")), ("0", ("d", "d1"))]
    for i in range(24):
        start, path = rng.choice(starts)
        cur = path
        for _ in range(rng.randint(1, 3)):
            pos, cell = rng.choice(shape_redexes(start, cur))
            cur = shape_apply(cur, pos, cell)
        if i % 2 == 0:
            argv = ["preorder-leq", "DeltaDotLax", start, ",".join(path), ",".join(cur)]
            pool.cli("preorder", argv, 0, "pass", {"answer": "Yes"})
        else:
            argv = ["preorder-leq", "DeltaDotLax", start, ",".join(cur), ",".join(path), "--budget", "1000"]
            pool.cli("preorder", argv, 2, "undecided", {"answer": "NoWithinBudget"})

    # normalize-2cell: the normal form ends where the word ends and uses
    # the same cells.  With the pasting words below these are over half
    # the pool, so the median falls inside this cost class.
    for _ in range(60):
        start, path = rng.choice(starts)
        cur, steps = path, []
        for _ in range(rng.randint(3, 6)):
            pos, cell = rng.choice(shape_redexes(start, cur))
            steps.append("%d:%s" % (pos, cell))
            cur = shape_apply(cur, pos, cell)
        argv = ["normalize-2cell", "DeltaDotLax", start, ",".join(path)] + steps
        pool.cli("normalize", argv, 0, "pass",
                 {"target": list(cur), "cells": sorted(s.split(":")[1] for s in steps)})

    # two_cells_equal on one loop with two endo-cells, against the
    # interchange closure
    for i in range(52):
        L = rng.randint(2, 3)
        w1 = tuple((rng.randrange(L), rng.choice(("alpha", "beta"))) for _ in range(rng.randint(4, 6)))
        cls = sorted(interchange_class(w1))
        if i % 2 == 0:
            w2 = rng.choice(cls)
        else:
            j = rng.randrange(len(w1))
            w2 = w1[:j] + ((w1[j][0], "beta" if w1[j][1] == "alpha" else "alpha"),) + w1[j + 1 :]
        pool.api("words", "words", {"L": L, "w1": [list(s) for s in w1], "w2": [list(s) for s in w2]},
                 {"equal": w2 in set(cls)})
    return pool


WORKLOADS = {
    "descent-sparse": descent_sparse,
    "descent-dense": descent_dense,
    "monad": monad,
    "rewrite": rewrite,
}

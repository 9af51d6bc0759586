"""Known answers computed without fin2cat.

Every expected verdict the benchmark checks comes from this module: plain
brute force over small tables, written against the mathematical
definitions rather than against fin2cat's data structures.  A category
here is a dict with "objects", "mors" ({m: (dom, cod)}), "ident"
({x: m}) and "comp" ({(g, f): g after f}); the same dicts are serialised
into the workspace files the program reads.
"""

import itertools
from collections import deque


# ---------------------------------------------------------------------------
# small categories and monoids


def category(objects, mors, ident, comp):
    return {"objects": list(objects), "mors": dict(mors), "ident": dict(ident), "comp": dict(comp)}


def discrete(names):
    ids = {x: "id%s" % x for x in names}
    return category(
        names,
        {m: (x, x) for x, m in ids.items()},
        ids,
        {(m, m): m for m in ids.values()},
    )


def poset(names, less):
    """The poset category on names with the strict order given as pairs
    (x, y) meaning x < y; `less` must be transitively closed."""
    mors, comp = {}, {}
    name = {}
    for x in names:
        name[(x, x)] = "id%s" % x
    for x, y in less:
        name[(x, y)] = "%s<%s" % (x, y)
    for (x, y), m in name.items():
        mors[m] = (x, y)
    for (x, y), f in name.items():
        for (y2, z), g in name.items():
            if y2 == y:
                comp[(g, f)] = name[(x, z)]
    return category(names, mors, {x: name[(x, x)] for x in names}, comp)


def one_object(monoid):
    els, unit, table = monoid
    return category(["*"], {m: ("*", "*") for m in els}, {"*": unit}, dict(table))


def monoid(els, unit, rows):
    """A monoid as (elements, unit, {(a, b): ab})."""
    table = {(a, b): rows[(a, b)] for a in els for b in els}
    return (list(els), unit, table)


Z2 = monoid(["e", "s"], "e", {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"})
IDEM = monoid(["e", "a"], "e", {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"})
TRIV = monoid(["e"], "e", {("e", "e"): "e"})

TERMINAL = discrete(["*"])
ARROW = poset(["0", "1"], [("0", "1")])
CHAIN3 = poset(["0", "1", "2"], [("0", "1"), ("0", "2"), ("1", "2")])
DIAMOND = poset(["b", "l", "r", "t"], [("b", "l"), ("b", "r"), ("b", "t"), ("l", "t"), ("r", "t")])


def is_associative(els, t):
    return all(t[(t[(a, b)], c)] == t[(a, t[(b, c)])] for a in els for b in els for c in els)


def unital_associative_tables(els):
    """Every table on els with a two-sided unit that is associative, as
    (unit, table) pairs, by filtering all |els|^(|els|^2) tables."""
    keys = [(a, b) for a in els for b in els]
    out = []
    for values in itertools.product(els, repeat=len(keys)):
        t = dict(zip(keys, values))
        units = [e for e in els if all(t[(e, a)] == a and t[(a, e)] == a for a in els)]
        if units and is_associative(els, t):
            out.append((units[0], t))
    return out


def pinned_unit_tables(els):
    """Associative tables on els whose unit is els[0], by backtracking
    over the non-unit cells and pruning on the first broken triple."""
    e = els[0]
    cells = [(a, b) for a in els[1:] for b in els[1:]]
    t = {}
    for x in els:
        t[(e, x)] = x
        t[(x, e)] = x
    out = []

    def consistent():
        for (x, y), xy in t.items():
            for z in els:
                yz = t.get((y, z))
                if yz is None or (xy, z) not in t or (x, yz) not in t:
                    continue
                if t[(xy, z)] != t[(x, yz)]:
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


def non_associative_mutants(els, unit, table):
    """Single-entry changes of a monoid table that break associativity."""
    out = []
    for key in table:
        for v in els:
            if v != table[key]:
                bad = dict(table)
                bad[key] = v
                if not is_associative(els, bad):
                    out.append(bad)
    return out


# ---------------------------------------------------------------------------
# functors and transformations


def functors(C, D):
    """All functors C -> D as (object map, morphism map) pairs."""
    out = []
    hom = {}
    for m, dc in D["mors"].items():
        hom.setdefault(dc, []).append(m)
    non_id = [m for m in C["mors"] if m not in C["ident"].values()]
    for images in itertools.product(D["objects"], repeat=len(C["objects"])):
        ob = dict(zip(C["objects"], images))
        choices = [hom.get((ob[C["mors"][m][0]], ob[C["mors"][m][1]]), []) for m in non_id]
        for pick in itertools.product(*choices):
            mo = dict(zip(non_id, pick))
            for x, i in C["ident"].items():
                mo[i] = D["ident"][ob[x]]
            if all(D["comp"][(mo[g], mo[f])] == mo[gf] for (g, f), gf in C["comp"].items()):
                out.append((ob, mo))
    return out


def transformations(C, D, F, G):
    """All natural transformations F => G as component dicts."""
    hom = {}
    for m, dc in D["mors"].items():
        hom.setdefault(dc, []).append(m)
    (Fo, Fm), (Go, Gm) = F, G
    objs = C["objects"]
    out = []
    for pick in itertools.product(*[hom.get((Fo[x], Go[x]), []) for x in objs]):
        c = dict(zip(objs, pick))
        if all(
            D["comp"][(Gm[m], c[x])] == D["comp"][(c[y], Fm[m])]
            for m, (x, y) in C["mors"].items()
        ):
            out.append(c)
    return out


def functor_category_size(C, D, copies):
    """(objects, morphisms) of [C + ... + C, D] with `copies` summands:
    the functor category of a coproduct is the product of the factors."""
    funs = functors(C, D)
    nats = sum(len(transformations(C, D, F, G)) for F in funs for G in funs)
    return len(funs) ** copies, nats ** copies


def strict_actions(M, C):
    """Monoid homomorphisms M -> End(C), as {element: (ob map, mor map)}."""
    els, unit, table = M
    ends = functors(C, C)
    ident = ({x: x for x in C["objects"]}, {m: m for m in C["mors"]})
    others = [g for g in els if g != unit]
    out = []
    for pick in itertools.product(ends, repeat=len(others)):
        act = dict(zip(others, pick))
        act[unit] = ident
        ok = True
        for g in els:
            for h in els:
                (go, gm), (ho, hm) = act[g], act[h]
                ko, km = act[table[(g, h)]]
                if {x: go[ho[x]] for x in C["objects"]} != ko or {
                    m: gm[hm[m]] for m in C["mors"]
                } != km:
                    ok = False
        if ok:
            out.append(act)
    return out


def lax_morphism_counts(M, Y, ay, Z, az):
    """Sizes of the lax and pseudo hom categories between two strict
    actions of M, by direct evaluation of the defining equations.

    A lax morphism is a functor f: Y -> Z with components
    fbar(g, x): g.f(x) -> f(g.x), natural in x, with fbar(e, x) = id and
    fbar(gh, x) = fbar(g, h.x) . g.fbar(h, x).  A transformation m: f => f'
    must satisfy fbar'(g, x) . g.m(x) = m(g.x) . fbar(g, x).  Returns
    (lax objects, lax morphisms, pseudo objects, pseudo morphisms).
    """
    els, unit, table = M
    hom = {}
    for m, dc in Z["mors"].items():
        hom.setdefault(dc, []).append(m)
    comp = Z["comp"]

    def invertible(c):
        x, y = Z["mors"][c]
        return any(comp[(w, c)] == Z["ident"][x] and comp[(c, w)] == Z["ident"][y] for w in hom.get((y, x), []))

    points = [(g, x) for g in els for x in Y["objects"]]
    objects = []
    for F in functors(Y, Z):
        fo, fm = F
        choices = []
        for g, x in points:
            src = az[g][0][fo[x]]
            tgt = fo[ay[g][0][x]]
            choices.append(hom.get((src, tgt), []))
        for pick in itertools.product(*choices):
            fb = dict(zip(points, pick))
            if any(fb[(unit, x)] != Z["ident"][fo[x]] for x in Y["objects"]):
                continue
            natural = all(
                comp[(fm[ay[g][1][m]], fb[(g, x)])] == comp[(fb[(g, y)], az[g][1][fm[m]])]
                for g in els
                for m, (x, y) in Y["mors"].items()
            )
            if not natural:
                continue
            cocycle = all(
                fb[(table[(g, h)], x)] == comp[(fb[(g, ay[h][0][x])], az[g][1][fb[(h, x)]])]
                for g in els
                for h in els
                for x in Y["objects"]
            )
            if cocycle:
                objects.append((F, fb, all(invertible(c) for c in fb.values())))

    def cells(a, b):
        (F, fb, _), (G, gb, _) = a, b
        n = 0
        for m in transformations(Y, Z, F, G):
            if all(
                comp[(gb[(g, x)], az[g][1][m[x]])] == comp[(m[ay[g][0][x]], fb[(g, x)])]
                for g, x in points
            ):
                n += 1
        return n

    pseudo = [o for o in objects if o[2]]
    lax_m = sum(cells(a, b) for a in objects for b in objects)
    pseudo_m = sum(cells(a, b) for a in pseudo for b in pseudo)
    return len(objects), lax_m, len(pseudo), pseudo_m


def equivariant_maps(M, Y, ay, Z, az):
    """Maps of sets Y -> Z commuting with the two actions; for discrete
    carriers these are exactly the (lax and pseudo) algebra morphisms."""
    els = M[0]
    count = 0
    for images in itertools.product(Z["objects"], repeat=len(Y["objects"])):
        f = dict(zip(Y["objects"], images))
        if all(az[g][0][f[x]] == f[ay[g][0][x]] for g in els for x in Y["objects"]):
            count += 1
    return count


# ---------------------------------------------------------------------------
# monads on posets and one-object categories


def closure_operators(P):
    """Monotone, extensive, idempotent maps on the objects of a poset
    category P, i.e. the idempotent monads on P."""
    leq = {dc for dc in P["mors"].values()}
    objs = P["objects"]
    out = []
    for images in itertools.product(objs, repeat=len(objs)):
        t = dict(zip(objs, images))
        if all((x, t[x]) in leq for x in objs) and all(t[t[x]] == t[x] for x in objs):
            if all((t[x], t[y]) in leq for x, y in leq):
                out.append(t)
    return out


def poset_monad(P, t):
    """(t on objects, t on morphisms, mu components, eta components)."""
    name = {dc: m for m, dc in P["mors"].items()}
    tm = {m: name[(t[x], t[y])] for m, (x, y) in P["mors"].items()}
    mu = {x: P["ident"][t[x]] for x in P["objects"]}
    eta = {x: name[(x, t[x])] for x in P["objects"]}
    return {x: t[x] for x in P["objects"]}, tm, mu, eta


def kleisli_size(Z, t_obj):
    """Morphism count of the Kleisli category: sum over x, y of |Z(x, t y)|."""
    count = {}
    for dc in Z["mors"].values():
        count[dc] = count.get(dc, 0) + 1
    return sum(count.get((x, t_obj[y]), 0) for x in Z["objects"] for y in Z["objects"])


# ---------------------------------------------------------------------------
# groups given by presentations, known by construction


def triangle_group_order(k):
    """Order of <x, y | x^2, y^3, (xy)^k> for k = 2..5: 12k / (6 - k)."""
    return 12 * k // (6 - k)


# ---------------------------------------------------------------------------
# the three-level shape computad and pasting words


# DeltaDotLax: edges with (source, target) nodes, and its 2-cells as
# (anchor node, source edges, target edges)
SHAPE_EDGES = {
    "d": ("0", "1"), "d0": ("1", "2"), "d1": ("1", "2"), "s0": ("2", "1"),
    "p0": ("2", "3"), "p1": ("2", "3"), "p2": ("2", "3"),
}
SHAPE_CELLS = {
    "sig00": ("1", ("d0", "p0"), ("d0", "p1")),
    "sig20": ("1", ("d0", "p2"), ("d1", "p0")),
    "sig21": ("1", ("d1", "p2"), ("d1", "p1")),
    "n0": ("1", (), ("d0", "s0")),
    "n1": ("1", (), ("d1", "s0")),
    "theta": ("0", ("d", "d1"), ("d", "d0")),
}


def shape_nodes(start, edges):
    nodes = [start]
    for e in edges:
        nodes.append(SHAPE_EDGES[e][1])
    return nodes


def shape_redexes(start, edges):
    """(position, cell) pairs at which a cell's source occurs in the path."""
    nodes = shape_nodes(start, edges)
    out = []
    for cell, (anchor, src, _) in SHAPE_CELLS.items():
        for pos in range(len(edges) - len(src) + 1):
            if nodes[pos] == anchor and tuple(edges[pos : pos + len(src)]) == src:
                out.append((pos, cell))
    return out


def shape_apply(edges, pos, cell):
    _, src, tgt = SHAPE_CELLS[cell]
    return tuple(edges[:pos]) + tgt + tuple(edges[pos + len(src) :])


def interchange_class(word):
    """All step sequences reachable from word by swapping adjacent steps
    at distinct positions; valid for cells that keep the path fixed."""
    seen = {word}
    queue = deque([word])
    while queue:
        w = queue.popleft()
        for i in range(len(w) - 1):
            if w[i][0] != w[i + 1][0]:
                v = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return seen

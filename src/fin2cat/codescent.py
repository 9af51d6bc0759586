"""Presented categories, rewriting quotients, and codescent of lax algebras.

A PresentedCategory is a finite set of objects, typed generators, and word
relations.  Its generators are the edges of a freegen graph on its objects,
so make_graph checks them and make_path checks every word.
quotient_category runs Knuth-Bendix completion over shortlex (length, then
generator declaration order) with a hard budget on rewrite applications,
decides finiteness of the normal-form language with a factor-avoidance
automaton, and materializes the quotient as a FinCat.  The table comes
from the right action of the generators that are normal forms, as a coset
table does: one normalize of w + g per normal form w and such generator
g, and every composite m2.m1 by lookup, as the last letter of m2 acting
on m2'.m1, where m2' is m2 less that letter.  make_fincat proves it on
the triples whose outer factor is the value of a generator, and each
input relation is checked to hold in it.

Words stay strings, generator i spelled chr(i), from completion to the
table: one _Rewriter rewrites them, the normal-form automaton reads them
(a forbidden factor is a suffix found by str.endswith) and the table
composes them; they are decoded only to name morphisms.  The rewriting
strategy is fixed: rewrite the leftmost redex, by the first rule in list
order that matches there, until no redex is left.  The budget is charged
once per rewrite, so the count of rewrite applications depends only on
that strategy, not on how redexes are found; it is also charged once per
rule pair that completion examines for overlaps, so that completion
ends within its budget even where every critical pair is already
joinable, once per normal form listed and once per action step, never
per composite.  The completion trace line counts the rewrites alone.

A CodescentData is the upward-facing dual of the three-level diagrams in
deltadiag: two faces and three projections pointing down to the base level,
with comparison cells An0/An1 attached to the degeneracy and the three
Asig cells to the projections.  make_codescent_data checks it against
deltadiag's shape table read upward, through deltadiag.check_shape,
the boundary check of the diagrams too.  lax_codescent presents its lax
codescent category by generators and relations, one composition
relation per composable pair of non-identity morphisms of A1, one
naturality relation per non-identity morphism of A2, and the cocycle
and unit relations, which are deltadiag.EQUATIONS read upward: the lax
codescent object of A is the lax descent object of the hom-dual [A, X]
(Street 1976), and verify_codescent_universal checks exactly that.  It
quotients the presentation.

build_Ay_strict resolves a lax algebra into codescent data over the
universe's own 2-monad; strictify composes the two.  The resolution is
codescent data by theorem, so it is built without make_codescent_data.
verify_codescent_universal maps the data into each probe category with
deltadiag.hom_diagram.  kleisli is an independent oracle: the Kleisli
category of a monad read directly off hom sets of the base, a
fincat.Composed built without proof once the monad laws are checked.
tests/test_codescent.py proves both constructions once
(test_free_resolutions_are_codescent_data,
test_kleisli_categories_are_categories).
"""

from collections import deque
from functools import reduce
from itertools import repeat

from . import deltadiag
from .deltadiag import (
    CELLS,
    FACES,
    DeltaDiagram,
    Record,
    after,
    check_shape,
    face_composite,
    hom_diagram,
    precompose,
)
from .descent import lax_descent
from .errors import (
    AxiomViolation,
    BoundaryMismatch,
    MalformedWord,
    MonadLawViolation,
)
from .fincat import (
    Composed,
    PowerView,
    ProductCat,
    _composable,
    compose_fun,
    hom_cat,
    identity_fun,
    identity_nat,
    iso_categories,
    make_fincat,
)
from .freegen import make_graph, make_path

FINITE = "Finite"
UNDECIDED = "Undecided"
# the rewrite applications a quotient spends at most, unless told otherwise
REWRITE_BUDGET = 50000


class PresentedCategory:
    """Objects, typed generators (name, dom, cod), and relations
    (lhs_word, rhs_word, at) where `at` anchors the domain (needed when a
    side is the empty word).  The generators are the edges of a
    freegen.Graph on the objects, and a word is a path in it."""

    def __init__(self, objects, generators, relations):
        self.objects = list(objects)
        self.generators = [tuple(g) for g in generators]
        self.relations = [(tuple(l), tuple(r), at) for l, r, at in relations]
        names = [g[0] for g in self.generators]
        self.graph = make_graph(
            self.objects,
            names,
            {name: d for name, d, _ in self.generators},
            {name: c for name, _, c in self.generators},
        )
        self._letter = {g: chr(i) for i, g in enumerate(names)}
        for l, r, at in self.relations:
            if self.word_boundary(l, at) != self.word_boundary(r, at):
                raise MalformedWord(
                    "relation sides are not parallel: %r vs %r" % (l, r)
                )

    def word_boundary(self, word, at):
        """(dom, cod) of a generator word anchored at `at`; checks the
        chain is composable."""
        return (at, make_path(self.graph, at, word).end)

    def encode(self, word):
        """A generator word as a string, generator i spelled chr(i), so
        that shortlex order on words is (len, str) order on their codes."""
        return "".join([self._letter[g] for g in word])

    def decode(self, code):
        return tuple([self.graph.edges[ord(c)] for c in code])

    def __repr__(self):
        return "PresentedCategory(%d objects, %d generators, %d relations)" % (
            len(self.objects),
            len(self.generators),
            len(self.relations),
        )


class _BudgetExceeded(Exception):
    pass


class _Meter:
    def __init__(self, budget):
        self.budget = budget
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.budget:
            raise _BudgetExceeded()


class _Rewriter:
    """An ordered rewriting system on encoded words (see
    PresentedCategory.encode); every left-hand side is non-empty.

    normalize rewrites the leftmost redex, by the first rule in list order
    that matches there, until no redex is left.  This is the rescan that
    tries every position from the left and every rule at each position,
    starting over after each rewrite; only the search is faster.  Each
    rule's earliest match is found by str.find, bounded so that it must
    start strictly left of the best match so far, so a later rule never
    wins a tie.  After a rewrite at position a, the search resumes at
    a - (longest lhs - 1): a redex starting further left would lie inside
    the prefix before a, which held none.  The redexes rewritten, their
    order, and so the spend calls (one per rewrite) are the rescan's."""

    def __init__(self, rules):
        self.rules = list(rules)
        self.reach = max([len(l) for l, _ in self.rules], default=1) - 1

    def normalize(self, word, spend=None):
        rules, reach = self.rules, self.reach
        start = 0
        while True:
            at, hit = len(word), None
            for rule in rules:
                l = rule[0]
                i = word.find(l, start, at + len(l) - 1)
                if i >= 0:
                    at, hit = i, rule
            if hit is None:
                return word
            if spend is not None:
                spend()
            word = word[:at] + hit[1] + word[at + len(hit[0]) :]
            start = max(0, at - reach)


class QuotientResult:
    """Outcome of quotient_category.

    status is Finite (category holds the quotient) or Undecided (budget
    ran out, or the normal-form language is provably infinite -- the
    trace says which).  rules lists the final rewriting system as
    (lhs, rhs) generator tuples; normalize/word_id apply it to arbitrary
    words of the presentation.

    >>> P = PresentedCategory(["*"], [("x", "*", "*")], [(("x",) * 3, (), "*")])
    >>> quotient_category(P).normalize(("x",) * 4, "*")
    ('x',)
    """

    def __init__(self, status, trace, presentation, rewriter, category=None):
        self.status = status
        self.trace = trace
        self.presentation = presentation
        self.rules = [
            (presentation.decode(l), presentation.decode(r))
            for l, r in rewriter.rules
        ]
        self.category = category
        self._rewriter = rewriter

    def normalize(self, word, at):
        P = self.presentation
        P.word_boundary(tuple(word), at)
        return P.decode(self._rewriter.normalize(P.encode(word)))

    def word_id(self, word, at):
        nf = self.normalize(word, at)
        return _word_id(nf, at)

    def __bool__(self):
        return self.status == FINITE

    def __repr__(self):
        return "QuotientResult(%s)" % self.status


def _word_id(word, at):
    return "id[%s]" % at if not word else "*".join(word)


def _critical_pairs(rule1, rule2):
    l1, r1 = rule1
    l2, r2 = rule2
    for k in range(1, min(len(l1), len(l2))):
        if l1[len(l1) - k :] == l2[:k]:
            yield (r1 + l2[k:], l1[: len(l1) - k] + r2)
    if len(l2) <= len(l1):
        for i in range(len(l1) - len(l2) + 1):
            if l1[i : i + len(l2)] == l2:
                yield (r1, l1[:i] + r2 + l1[i + len(l2) :])


def quotient_category(P, budget=REWRITE_BUDGET):
    """Quotient a presentation by its relations.

    Runs completion, then decides whether the set of irreducible words is
    finite.  If so, the table comes from the right action of the
    generators that are normal forms: one normalize per normal form and
    such generator, and every composite m2.m1 by lookup, as the last
    letter of m2 acting on m2'.m1.  make_fincat proves it with the values
    of the generators as its generators, and each original relation is
    checked to hold in it, folding both sides through the table from the
    identity."""
    trace = [
        "%d objects, %d generators, %d relations"
        % (len(P.objects), len(P.generators), len(P.relations))
    ]
    meter = _Meter(budget)
    spend = meter.spend
    overlaps = 0  # the rule pairs completion examined, charged with the rewrites
    rw = _Rewriter([])
    pending = deque((P.encode(l), P.encode(r)) for l, r, _ in P.relations)
    try:
        while pending:
            l, r = pending.popleft()
            l, r = rw.normalize(l, spend), rw.normalize(r, spend)
            if l == r:
                continue
            if (len(l), l) < (len(r), r):
                l, r = r, l
            new = (l, r)
            survivors = []
            for old in rw.rules:
                if l in old[0]:
                    pending.append(old)
                else:
                    survivors.append(old)
            survivors.append(new)
            rw = _Rewriter(survivors)
            for other in rw.rules:
                spend()
                overlaps += 1
                for pair in _critical_pairs(new, other):
                    pending.append(pair)
                if other != new:
                    for pair in _critical_pairs(other, new):
                        pending.append(pair)
        trace.append(
            "completed with %d rules after %d rewrite applications"
            % (len(rw.rules), meter.used - overlaps)
        )

        words = _enumerate_normal_forms(P, [l for l, _ in rw.rules], meter, trace)
        if words is None:
            return QuotientResult(UNDECIDED, trace, P, rw)

        # one id string per normal form, shared by every composite equal
        # to it
        morphisms, dom, cod, ids = [], {}, {}, {}
        into = {x: [] for x in P.objects}
        for at, w, end in words:
            mid = _word_id(P.decode(w), at)
            morphisms.append(mid)
            dom[mid], cod[mid] = at, end
            ids[at, w] = mid
            into[end].append(mid)
        identity = {x: ids[x, ""] for x in P.objects}
        # value[g] is the normal form of generator g; the generators that
        # are their own normal form act on the right, one normalize per
        # normal form they follow, and a word that is no normal form keeps
        # a fresh id for make_fincat to reject
        letters, value = {x: [] for x in P.objects}, {}
        for i, (g, d, _) in enumerate(P.generators):
            if (d, chr(i)) in ids:
                letters[d].append(chr(i))
            value[g] = ids.get((d, chr(i))) or ids[d, rw.normalize(chr(i), spend)]
        act = {c: {} for cs in letters.values() for c in cs}
        for at, w, end in words:
            for c in letters[end]:
                spend()
                nf = rw.normalize(w + c, spend)
                act[c][ids[at, w]] = ids.get((at, nf)) or _word_id(P.decode(nf), at)
        # m2.m1 is the last letter of m2 acting on m2'.m1, where m2' is m2
        # less that letter, listed earlier since normal forms are
        # prefix-closed; col[m2] lists the m2.m1 for m1 in into[dom m2]
        col, compose = {}, {}
        for at, w, _ in words:
            m2 = ids[at, w]
            col[m2] = list(map(act[w[-1]].get, col[ids[at, w[:-1]]])) if w else into[at]
            compose.update(zip(zip(repeat(m2), into[at]), col[m2]))
    except _BudgetExceeded:
        trace.append(
            "rewrite budget exhausted after %d applications" % meter.used
        )
        return QuotientResult(UNDECIDED, trace, P, rw)

    # the values of the generators generate the quotient
    cat = make_fincat(
        list(P.objects), morphisms, dom, cod, identity, compose, list(value.values())
    )

    def step(m, g):
        return compose[value[g], m]

    # each relation holds in the proved table: both sides, folded from
    # the identity, end at the same morphism
    for l, r, at in P.relations:
        if reduce(step, l, identity[at]) != reduce(step, r, identity[at]):
            raise AxiomViolation(
                "completion failed to join relation %r = %r" % (l, r)
            )
    trace.append("re-verified %d input relations" % len(P.relations))
    return QuotientResult(FINITE, trace, P, rw, cat)


def _enumerate_normal_forms(P, lhss, meter, trace):
    """All irreducible words, as (anchor, encoded word, codomain) in
    preorder, or None when there are infinitely many.

    Walks the automaton whose states pair an object with the longest
    suffix of the word read so far that could still grow into a
    forbidden factor; a reachable cycle means arbitrarily long normal
    forms exist.  lhss are the encoded left-hand sides."""
    prefixes = {l[:k] for l in lhss for k in range(len(l))} | {""}
    forbidden = tuple(lhss)

    by_src = {}
    for i, (_, d, c) in enumerate(P.generators):
        by_src.setdefault(d, []).append((chr(i), c))

    def step(ctx, g):
        # the longest suffix of ctx + g that is a prefix of some lhs, or
        # None when ctx + g ends in a left-hand side
        cand = ctx + g
        if cand.endswith(forbidden):
            return None
        k = 0
        while cand[k:] not in prefixes:
            k += 1
        return cand[k:]

    # cycle detection over the reachable state graph, depth first with an
    # explicit stack of (state, pending generators)
    GRAY, BLACK = 1, 2
    color = {}

    def find_cycle(root):
        color[root] = GRAY
        stack = [(root, iter(by_src.get(root[0], ())))]
        while stack:
            (obj, ctx), gens = stack[-1]
            for g, c in gens:
                suf = step(ctx, g)
                if suf is None:
                    continue
                nxt = (c, suf)
                seen = color.get(nxt)
                if seen == GRAY:
                    return g
                if seen is None:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(by_src.get(c, ()))))
                    break
            else:
                color[obj, ctx] = BLACK
                stack.pop()
        return None

    for x in P.objects:
        if (x, "") not in color:
            witness = find_cycle((x, ""))
            if witness is not None:
                trace.append(
                    "normal-form language is infinite (cycle through %r)"
                    % P.graph.edges[ord(witness)]
                )
                return None

    # list every word in preorder: a word, then its extensions by each
    # generator in declaration order
    words = []
    try:
        for x in P.objects:
            stack = [(x, "", "")]
            while stack:
                obj, ctx, word = stack.pop()
                meter.spend()
                words.append((x, word, obj))
                grown = []
                for g, c in by_src.get(obj, ()):
                    suf = step(ctx, g)
                    if suf is not None:
                        grown.append((c, suf, word + g))
                stack.extend(reversed(grown))
    except _BudgetExceeded:
        trace.append("rewrite budget exhausted while listing normal forms")
        return None
    trace.append("found %d normal forms" % len(words))
    return words


def kleisli(Z, t, mu, eta):
    """The Kleisli category of a monad (t, mu, eta) on Z, built directly:
    a morphism x -> y is a Z-morphism x -> t(y), identities are the unit
    components, composition is mu . t(g) . f.  Once the boundaries and
    the monad laws are checked it is a category (Street 1972), so it is
    a Composed, built without proof or table."""
    if t.src != Z or t.tgt != Z:
        raise BoundaryMismatch("t must be an endofunctor of Z")
    if mu.src != compose_fun(t, t) or mu.tgt != t:
        raise BoundaryMismatch("mu must run t.t => t")
    if eta.src != identity_fun(Z) or eta.tgt != t:
        raise BoundaryMismatch("eta must run id => t")
    for x in Z.objects:
        tx = t.ob(x)
        if Z.compose(mu.at(x), t.mor(mu.at(x))) != Z.compose(
            mu.at(x), mu.at(tx)
        ):
            raise MonadLawViolation("associativity fails at %r" % x)
        if Z.compose(mu.at(x), eta.at(tx)) != Z.identity[tx]:
            raise MonadLawViolation("left unit fails at %r" % x)
        if Z.compose(mu.at(x), t.mor(eta.at(x))) != Z.identity[tx]:
            raise MonadLawViolation("right unit fails at %r" % x)

    def mid(m, x, y):
        return "(%s:%s->%s)" % (m, x, y)

    morphisms, dom, cod, under = [], {}, {}, {}
    for x in Z.objects:
        for y in Z.objects:
            for m in Z.hom(x, t.ob(y)):
                k = mid(m, x, y)
                morphisms.append(k)
                dom[k], cod[k] = x, y
                under[k] = m
    identity = {x: mid(eta.at(x), x, x) for x in Z.objects}

    def composite(k2, k1):
        zz = cod[k2]
        m = Z.compose(mu.at(zz), Z.compose(t.mor(under[k2]), under[k1]))
        return mid(m, dom[k1], zz)

    return Composed(Z.objects, morphisms, dom, cod, identity, composite)


# deltadiag's shape read upward: each face points the other way, so each
# path runs in the opposite order, and the unit cells cross, An0 taking
# the row of Dn1 and An1 that of Dn0.  A probe's hom-dual diagram crosses
# them back.
_CROSS = {"Dn0": "Dn1", "Dn1": "Dn0"}


def _up(name):
    return "A" + name[1:]


def _dual(name):
    """The field of codescent data that a face or cell of deltadiag's
    shape reads upward."""
    return _up(_CROSS.get(name, name))


_FACES = {_up(f): (_up(t), _up(s)) for f, (s, t) in FACES.items()}
_CELLS = {
    _up(c): tuple(tuple(map(_up, reversed(p))) for p in CELLS[_CROSS.get(c, c)])
    for c in CELLS
}


class CodescentData(Record):
    """Three levels A1, A2, A3 with faces Ad0, Ad1 and degeneracy As0
    between the lower levels, projections Ap0, Ap1, Ap2 from the top, and
    five comparison cells, typed by deltadiag's shape read upward."""

    FIELDS = tuple(map(_up, DeltaDiagram.FIELDS))

    def __repr__(self):
        return "CodescentData(A1=%r)" % (self.A1,)


def make_codescent_data(**kw):
    check_shape(kw, CodescentData.FIELDS, _FACES, _CELLS)
    return CodescentData(**kw)


def build_Ay_strict(U, y):
    """Resolve a lax algebra y into codescent data.

    The resolution is built from U's own structure maps (U.m, U.eta, T
    on functors and cells): the levels are the free iterates T Y, T^2 Y,
    T^3 Y, the multiplication face meets T of the action, and the
    algebra's comparison cells become Asig21 and An0.  The other three
    cells are identities: Asig00 is U.mu(Y), which proves associativity
    of m, and An1 is U.tau(Y), which proves the right unit law
    m.T(eta) = id; the left unit law m.eta_T = id is proved first, as
    U.iota(Y).  Asig20, the naturality of m along the action, is the
    identity of its source, built without proof: its two sides agree, as
    m is 2-natural for a discrete M.  Nor are the fields checked against
    the shape, as each is typed by construction."""
    Y = y.Z
    U.iota(Y)
    TY = U.T(Y)
    Ad0, Ap0 = U.m(Y), U.m(TY)
    A1 = Ad0.tgt
    kw = {
        "A1": A1,
        "A2": Ad0.src,
        "A3": Ap0.src,
        "Ad0": Ad0,
        "Ad1": U.T_fun(y.a),
        "As0": U.T_fun(U.eta(Y)),
        "Ap0": Ap0,
        "Ap1": U.T_fun(U.m(Y)),
        "Ap2": U.T_fun(U.T_fun(y.a)),
        "Asig21": U.T_nat(y.zbar),
        "An0": U.T_nat(y.zbar0),
    }
    kw["Asig00"] = U.mu(Y)
    kw["Asig20"] = identity_nat(face_composite(kw, _CELLS["Asig20"][0], A1))
    kw["An1"] = U.tau(Y)
    return CodescentData(**kw)


def lax_codescent(A, budget=REWRITE_BUDGET):
    """Present the lax codescent category of codescent data and quotient.

    Generators: the morphisms of A1, plus one generator <u>: Ad1(u) ->
    Ad0(u) per object u of A2.  Relations: composition in A1, naturality
    of <-> along A2 morphisms, then each equation of deltadiag.EQUATIONS
    read upward at each object v of its level, A3 for the cocycle
    condition and A1 for the unit condition: a face Dx stands for the
    generator <Ax(v)> and a cell for its dual's component at v, in the
    same order, and the relation is anchored at the domain of the first
    morphism of its left side."""
    A1 = A.A1

    def w(m):
        return () if A1.is_identity(m) else (m,)

    gens = [(m, A1.dom[m], A1.cod[m]) for m in A1.morphisms if not A1.is_identity(m)]
    gname = {u: "<%s>" % u for u in A.A2.objects}
    gens += [(gname[u], A.Ad1.ob(u), A.Ad0.ob(u)) for u in A.A2.objects]

    relations = [
        ((f, g), w(A1.compose(g, f)), A1.dom[f])
        for g, f in _composable(A1.morphisms, A1.dom, A1.cod)
        if not (A1.is_identity(g) or A1.is_identity(f))
    ]
    # naturality of <-> along each morphism u -> v of A2, the dual of a
    # descent morphism's square (descent._over_D1), not one of deltadiag.EQUATIONS
    for m in A.A2.morphisms:
        if A.A2.is_identity(m):
            continue
        u, v = A.A2.dom[m], A.A2.cod[m]
        relations.append(
            (
                w(A.Ad1.mor(m)) + (gname[v],),
                (gname[u],) + w(A.Ad0.mor(m)),
                A.Ad1.ob(u),
            )
        )

    def read(side, v):
        # a side of an equation read upward at v, as its word and the
        # domain of its first morphism: a face gives the generator at its
        # image of v, a cell its component at v.  The side is read from
        # its last entry back, so the domain read last is the first's
        word = ()
        for face, X in reversed(side):
            if face:
                u = X.ob(v)
                word, at = (gname[u],) + word, A.Ad1.ob(u)
            else:
                m = X.at(v)
                word, at = w(m) + word, A1.dom[m]
        return word, at

    for _, level, *sides in deltadiag.EQUATIONS:
        # each entry of a side as whether it is a face, and the field of
        # A that reads it
        lhs, rhs = ([(n in FACES, getattr(A, _dual(n))) for n in side] for side in sides)
        for v in getattr(A, _up(level)).objects:
            (left, at), (right, _) = read(lhs, v), read(rhs, v)
            relations.append((left, right, at))

    P = PresentedCategory(list(A1.objects), gens, relations)
    return quotient_category(P, budget)


def strictify(U, z, budget=REWRITE_BUDGET):
    """Strictification of a lax algebra: the lax codescent category of
    its free resolution."""
    return lax_codescent(build_Ay_strict(U, z), budget)


def verify_codescent_universal(A, Q, probes):
    """Probe the universal property of a computed codescent category.

    probes are (name, category) pairs.  For each probe X, maps the
    codescent data into X (hom-dual of the levels, with n-cells crossing:
    Dn0 comes from An1 and vice versa), takes lax descent, and compares
    against the hom category out of the quotient by isomorphism search.
    A is a free resolution (build_Ay_strict): A2 = M x A1 and A3 = M x A2
    are |M| and |M|^2 copies of A1, so [A2, X] and [A3, X] are
    PowerViews over the enumerated [A1, X].  The faces precompose with
    A's faces and the cells whisker A's cells, copy by copy on [A1, X]'s
    ids (deltadiag.hom_diagram), T(eta) reading each copy of A1 off
    every copy of A2; no functor or transformation over A2 or A3 is
    built.  Other codescent data raise BoundaryMismatch.  The report is
    keyed by probe name, so a name given twice raises ValueError."""
    names = [name for name, _ in probes]
    if len(set(names)) < len(names):
        raise ValueError("probe %r is named twice" % next(n for n in names if names.count(n) > 1))
    # the probes read A2 and A3 as |M| and |M|^2 copies of A1
    M, A1 = A.A2.factors if isinstance(A.A2, ProductCat) else (None, None)
    M3, A2 = A.A3.factors if isinstance(A.A3, ProductCat) else (None, None)
    if not (A1 == A.A1 and A2 == A.A2 and M3 == M and len(M.morphisms) == len(M.objects)):
        raise BoundaryMismatch(
            "codescent data must be a free resolution: A2 = M x A1 and A3 = M x A2 for one discrete M"
        )
    k = len(M.objects)
    report = {"status": "pass", "probes": {}}
    if Q.status != FINITE:
        report["status"] = "undecided"
        return report
    L = Q.category
    faces = {f: precompose(getattr(A, _dual(f))) for f in FACES}
    cells = {c: after(getattr(A, _dual(c))) for c in CELLS}
    for name, X in probes:
        D1 = hom_cat(A.A1, X)
        D = hom_diagram(D1, PowerView(D1, A.A2, k), PowerView(D1, A.A3, k * k), faces, cells)
        DC = lax_descent(D)
        H = hom_cat(L, X)
        pair = iso_categories(H, DC.carrier)
        entry = {
            "hom_objects": len(H.objects),
            "hom_morphisms": len(H.morphisms),
            "descent_objects": len(DC.carrier.objects),
            "descent_morphisms": len(DC.carrier.morphisms),
            "iso": pair is not None,
        }
        report["probes"][name] = entry
        if not entry["iso"]:
            report["status"] = "fail"
    return report


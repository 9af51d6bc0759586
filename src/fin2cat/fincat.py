"""Finite categories, functors, natural transformations, and pasting.

Laws are proved once, where data comes in: make_fincat, make_fun and
make_nat prove every identity, associativity, functoriality and
naturality instance of a table from outside (workspace files, tables
built by hand, monoid actions, rewriting quotients) and refuse the first
broken law.  FinCat, Fun and NatT trust their input.  Constructions that
are lawful by theorem build them directly from proved structures:
products, functor categories, composites, pasting and category_over (the
lax and strict descent carriers and the algebra hom categories) here; T
on functors and cells, its structure functors m and eta and universe
members in laxalg; the pre- and postcomposition faces and the
comparison cells of the three-level diagrams; the Kleisli category of a
monad whose laws are checked, and the free resolution of a lax algebra
(codescent.kleisli, codescent.build_Ay_strict).  A test proves each
theorem once, in tests/test_codescent.py for the last two
(test_kleisli_categories_are_categories,
test_free_resolutions_are_codescent_data) and in tests/test_fincat.py
for the rest: test_products_and_functor_categories_are_categories,
test_categories_over_a_base_are_categories,
test_descent_levels_faces_and_carriers_are_lawful,
test_universe_members_and_T_are_lawful (m and eta of laxalg too, on the
fixtures' universes), test_monad_structure_functors_are_functors (m and
eta on tables that need not be associative or unital),
test_codescent_probe_faces_are_lawful (the faces and cells of the
three-level diagrams too, which are built without proof) and, for the
sizes build-tzy reports for [T Y, Z] and [T^2 Y, Z] without enumerating
them, test_top_level_sizes_are_powers_of_the_bottom_level and
test_top_level_sizes_are_powers_of_the_bottom_level_on_drawn_carriers.
A PowerView names every functor and transformation as the enumerated
functor category does: test_functor_view_matches_hom_cat and the tests
after it prove that against HomCat.
The lax-algebra and lax-morphism checks of laxalg compare components
alone, as the two sides of each of their pastings share a boundary;
tests/test_laxalg.py proves that once, in
test_algebra_check_matches_the_pasted_check_on_fixtures,
test_componentwise_checks_match_pastings_on_fixture_pairs and
test_componentwise_checks_match_pastings_on_drawn_families.
The interchange normal form of a pasting word (freegen.normalize_2cell)
is the word's boundary with its steps reordered, not proved again by
make_word: tests/test_freegen.py proves once that it is a word from the
same source to the same target, in
test_normal_forms_of_enumerated_words_are_proved_words and
test_normal_forms_of_drawn_words_are_proved_words.
check_pseudomonad reads each 2-monad law off the identity cell that
proves it and builds the cells of the coherence pastings but not the
pastings, and checks neither the strictness of T nor the naturality of
its structure maps: for a discrete monoid these hold whatever the
table, and test_pseudomonad_check_matches_the_pasted_check proves that
once.

make_fincat proves associativity on generator triples, every morphism
being a generator unless the caller names fewer.  identity_cell is the
one identity 2-cell: it exists exactly when its two functors agree, so
it is decided by comparing them image by image, and make_nat, with
identity components, runs only to name a refusal.  The strict
comparison cells of the 2-monads (which the free resolutions read) and
of strict algebras prove their laws through it.  The searches for
functors, transformations and isomorphisms run on one backtracking
engine, _assignments, whose explicit stack keeps their depth clear of
the interpreter's recursion limit; the naturality squares that the
transformation search checks are indexed once per source category
(FinCat._squares), not once per pair of functors.

Objects and morphisms are identifier strings; a category is its composition
table.  A functor category (HomCat) stores each functor and each
transformation once, as its key: a functor's images along the objects
and the morphisms of its source, a transformation's components along the
objects.  The enumerations give keys, and a Fun or NatT is built only
when a reader asks for one (functor_of, nat_of), on its first read.  A
category that is lawful by theorem and whose composites can be computed
is a Composed, built without its table: products, functor categories,
category_over's categories and Kleisli categories.  A reader that walks
the composites once (make_fun, functor enumeration) computes them one at
a time, and so does a functor category's compose, componentwise in the
target's table; the table itself is assembled only for a reader that
takes it whole, and for compose elsewhere (see Composed and HomCat).
A PowerView of [C, D], for C the k-fold copy of B, enumerates nothing
at all: [C, D] is [B, D]^k, so it reads everything
off the enumerated [B, D], names functors and transformations by their
rank in HomCat(C, D)'s order, composes and inverts them copy by copy
in [B, D], and refuses every reader of the whole category with
NotEnumerated.  The levels [T Y, Z] and [T^2 Y, Z] of the hom-dual
three-level diagrams (deltadiag.hom_diagram) are PowerViews over
[Y, Z], which the descent equations read only at a few faces and cells.
The faces of those diagrams are OnDemandFuns and their cells
OnDemandNats: each image or component is computed on its first read,
copy by copy on [Y, Z]'s ids (the view's _tuple, _ntuple, _fid and
_nat_id), so no functor or transformation over T Y or T^2 Y is ever
built, and a reader of the whole functor or transformation raises
NotEnumerated too.
"""

import bisect
import functools
import itertools
import math
from collections import Counter

from .errors import (
    AxiomViolation,
    BoundaryMismatch,
    FunctorialityViolation,
    NaturalityViolation,
    NotEnumerated,
    require,
)


class FinCat:
    """A finite category given by explicit tables.

    The constructor trusts its input: tables from outside go through
    make_fincat, and only tables that are lawful by theorem come here
    directly (see the module docstring).
    """

    def __init__(self, objects, morphisms, dom, cod, identity, compose_table):
        self._set_shape(objects, morphisms, dom, cod, identity)
        self.compose_table = dict(compose_table)

    def _set_shape(self, objects, morphisms, dom, cod, identity):
        """Everything but the composition table, with the identity and
        hom-set indexes."""
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.dom = dict(dom)
        self.cod = dict(cod)
        self.identity = dict(identity)
        self._identities = set(self.identity.values())
        self._hom = {}
        for m in self.morphisms:
            self._hom.setdefault((self.dom[m], self.cod[m]), []).append(m)

    def hom(self, x, y):
        return tuple(self._hom.get((x, y), ()))

    def compose(self, g, f):
        """Composite of f followed by g."""
        try:
            return self.compose_table[(g, f)]
        except KeyError:
            raise self._not_composable(g, f)

    def _not_composable(self, g, f):
        return BoundaryMismatch(
            "cannot compose %r after %r: cod %r != dom %r"
            % (g, f, self.cod.get(f), self.dom.get(g))
        )

    def is_identity(self, m):
        return m in self._identities

    def inverse(self, m):
        """The two-sided inverse of m, or None."""
        x, y = self.dom[m], self.cod[m]
        for w in self.hom(y, x):
            if (
                self.compose(w, m) == self.identity[x]
                and self.compose(m, w) == self.identity[y]
            ):
                return w
        return None

    @functools.cached_property
    def _squares(self):
        """The naturality squares of a transformation out of this
        category, by the place of the object at which they close: (a, b,
        k) for the k-th morphism, non-identity, from the a-th object to
        the b-th, listed at the later of a and b.  Squares at identities
        hold for any functors."""
        at = {x: i for i, x in enumerate(self.objects)}
        squares = [[] for _ in self.objects]
        for k, m in enumerate(self.morphisms):
            if m not in self._identities:
                a, b = at[self.dom[m]], at[self.cod[m]]
                squares[max(a, b)].append((a, b, k))
        return squares

    def composites(self):
        """The items ((g, f), g.f) of compose_table, in its order."""
        return self.compose_table.items()

    def __eq__(self, other):
        if not isinstance(other, FinCat):
            return NotImplemented
        if self is other:
            return True
        return (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.dom == other.dom
            and self.cod == other.cod
            and self.identity == other.identity
            and self.compose_table == other.compose_table
        )

    def __repr__(self):
        return "FinCat(%d objects, %d morphisms)" % (
            len(self.objects),
            len(self.morphisms),
        )


def make_fincat(objects, morphisms, dom, cod, identity, compose, generators=None):
    """Build a FinCat, checking every category law.

    compose maps pairs (g, f) with cod(f) = dom(g) to the composite of f
    followed by g.  The table must cover exactly the composable pairs.
    Raises AxiomViolation naming the first broken law.

    by_dom[x] lists the morphisms out of x, and rows[f] lists the
    composites h.f for h in by_dom[cod f], looked up in compose; the
    lookups and a count show that the table covers exactly the composable
    pairs.  Associativity is proved on generator triples, every morphism
    being a generator by default.  Closing the identities under h.m, for
    h among the generators, must reach every morphism, and h.(g.f) =
    (h.g).f must hold for every generator h and composable pair (g, f).
    That gives every triple, by induction on how m is reached:
    (m.g).f = m.(g.f) holds for an identity m by the identity laws, and
    for m = h.m' with h a generator
        ((h.m').g).f = (h.(m'.g)).f = h.((m'.g).f)
                     = h.(m'.(g.f)) = (h.m').(g.f),
    each step a generator triple or the induction hypothesis.  So the
    proof makes |generators| comparisons per composable pair.  An
    associativity failure names the first generator triple that the loop
    over f, then g after f, then h after g meets; with every morphism a
    generator that is the first failing triple.
    """
    objects, morphisms = list(objects), list(morphisms)
    if len(set(objects)) != len(objects):
        raise AxiomViolation("duplicate object identifiers")
    if len(set(morphisms)) != len(morphisms):
        raise AxiomViolation("duplicate morphism identifiers")
    obj_set, mor_set = set(objects), set(morphisms)

    if set(dom) != mor_set or set(cod) != mor_set:
        raise AxiomViolation("dom/cod must be defined on exactly the morphisms")
    for m in morphisms:
        if dom[m] not in obj_set or cod[m] not in obj_set:
            raise AxiomViolation("morphism %r has boundary outside objects" % m)

    if set(identity) != obj_set:
        raise AxiomViolation("identity must be defined on exactly the objects")
    for x in objects:
        i = identity[x]
        if i not in mor_set or dom[i] != x or cod[i] != x:
            raise AxiomViolation("identity of %r is not an endomorphism: %r" % (x, i))

    # pos[m] is the place of m in by_dom[dom m]
    by_dom = {x: [] for x in objects}
    for m in morphisms:
        by_dom[dom[m]].append(m)
    pos = {m: i for ms in by_dom.values() for i, m in enumerate(ms)}
    # the composable pairs (h, f), f by f, and for each f every h in
    # by_dom[cod f]; the composites of f are flat[cuts[k]:cuts[k + 1]]
    # for f = morphisms[k]
    hs, fs, cuts = [], [], [0]
    for f in morphisms:
        out = by_dom[cod[f]]
        hs += out
        fs += [f] * len(out)
        cuts.append(len(hs))
    try:
        flat = tuple(map(compose.__getitem__, zip(hs, fs)))
    except KeyError:
        flat = None
    # every composable pair is a key, and there are no more keys than that
    if flat is None or len(compose) != len(flat):
        _raise_coverage_error(morphisms, by_dom, cod, compose)
    # h.f runs from dom f to cod h
    try:
        stray = (
            list(map(dom.__getitem__, flat)) != list(map(dom.__getitem__, fs))
            or list(map(cod.__getitem__, flat)) != list(map(cod.__getitem__, hs))
        )
    except KeyError:  # a composite that is no morphism
        stray = True
    if stray:
        for (g, f), h in compose.items():
            if h not in mor_set or dom[h] != dom[f] or cod[h] != cod[g]:
                raise AxiomViolation(
                    "composite of (%r after %r) has wrong boundary: %r" % (g, f, h)
                )
    rows = {f: flat[a:b] for f, a, b in zip(morphisms, cuts, cuts[1:])}

    for f in morphisms:
        if rows[identity[dom[f]]][pos[f]] != f:
            raise AxiomViolation("right identity law fails at %r" % f)
        if rows[f][pos[identity[cod[f]]]] != f:
            raise AxiomViolation("left identity law fails at %r" % f)

    # out[x] lists each generator h out of x with its place in by_dom[x],
    # so that rows[m][p] is h.m; a name that is no morphism is no generator
    gens = morphisms if generators is None else generators
    out = {x: [(h, pos[h]) for h in gens if dom.get(h) == x] for x in objects}
    reached, level = set(), set(identity.values())
    while level:
        reached |= level
        level = {rows[m][p] for m in level for _, p in out[cod[m]]} - reached
    for m in morphisms:
        if m not in reached:
            raise AxiomViolation("generators do not reach %r" % m)

    # h.(g.f) = (h.g).f for every generator h after g
    for f in morphisms:
        rf = rows[f]
        for g, gf in zip(by_dom[cod[f]], rf):
            for h, p in out[cod[g]]:
                if rows[gf][p] != rf[pos[rows[g][p]]]:
                    raise AxiomViolation(
                        "associativity fails on (%r, %r, %r)" % (h, g, f)
                    )

    return FinCat(objects, morphisms, dom, cod, identity, compose)


def _raise_coverage_error(morphisms, by_dom, cod, compose):
    """Name the first pair, in sorted order, that compose is missing or
    has without its being composable."""
    composable = {(g, f) for f in morphisms for g in by_dom[cod[f]]}
    given = set(compose)
    missing = composable - given
    if missing:
        raise AxiomViolation(
            "composition table missing composable pair %r" % (sorted(missing)[0],)
        )
    raise AxiomViolation(
        "composition table has non-composable pair %r"
        % (sorted(given - composable)[0],)
    )


def _composable(morphisms, dom, cod):
    """The composable pairs (g, f), read off a by-codomain index: g runs
    through morphisms in order, and for each g every f with cod f = dom g,
    in the same order."""
    into = {}
    for f in morphisms:
        into.setdefault(cod[f], []).append(f)
    return ((g, f) for g in morphisms for f in into.get(dom[g], ()))


class Composed(FinCat):
    """A category built without proof and without its composition table:
    the composite of f followed by g is _composite(g, f).  composites
    gives the items ((g, f), g.f) one at a time, in _composable's order,
    for a reader that walks the table once (make_fun, functor
    enumeration), and compose_table is assembled from them, in the same
    order, on its first read.  Only constructions that are categories by
    theorem come here (see the module docstring)."""

    def __init__(self, objects, morphisms, dom, cod, identity, composite):
        self._set_shape(objects, morphisms, dom, cod, identity)
        self._composite = composite

    def composites(self):
        pairs = _composable(self.morphisms, self.dom, self.cod)
        return (((g, f), self._composite(g, f)) for g, f in pairs)

    compose_table = functools.cached_property(lambda self: dict(self.composites()))


class Fun:
    """A functor between FinCats, stored as object/morphism maps."""

    def __init__(self, src, tgt, on_obj, on_mor):
        self.src = src
        self.tgt = tgt
        self.on_obj = dict(on_obj)
        self.on_mor = dict(on_mor)

    def ob(self, x):
        return self.on_obj[x]

    def mor(self, m):
        return self.on_mor[m]

    def __eq__(self, other):
        if not isinstance(other, Fun):
            return NotImplemented
        if self is other:
            return True
        return (
            self.src == other.src
            and self.tgt == other.tgt
            and self.on_obj == other.on_obj
            and self.on_mor == other.on_mor
        )

    def __repr__(self):
        return "Fun(%r -> %r)" % (self.src, self.tgt)


class _OnDemand(dict):
    """A functor's map that computes each image, image(key), on its first
    lookup and keeps it.  A reader of the whole map (iteration, length,
    membership, keys, items, values, get, copy, equality) raises
    NotEnumerated rather than answer from the part computed so far."""

    def __init__(self, image):
        self.image = image

    def __missing__(self, key):
        self[key] = value = self.image(key)
        return value

    def _whole(self, *args):
        raise NotEnumerated("a map computed on demand is never read whole")

    __iter__ = __len__ = __contains__ = __eq__ = __ne__ = _whole
    keys = items = values = get = copy = _whole


class OnDemandFun(Fun):
    """A functor whose images ob(x) and mor(m) are computed on their first
    read and kept (see _OnDemand).  ob and mor and the outer functor of
    compose_fun read it one image at a time.  Equality with another
    functor between the same categories, make_fun on its maps and use as
    the inner functor of compose_fun take it whole, and raise
    NotEnumerated."""

    def __init__(self, src, tgt, ob, mor):
        self.src, self.tgt = src, tgt
        self.on_obj, self.on_mor = _OnDemand(ob), _OnDemand(mor)


def make_fun(src, tgt, on_obj, on_mor):
    """Build a functor, checking totality, typing and functoriality."""
    if set(on_obj) != set(src.objects):
        raise FunctorialityViolation("object map must cover exactly the source objects")
    if set(on_mor) != set(src.morphisms):
        raise FunctorialityViolation(
            "morphism map must cover exactly the source morphisms"
        )
    tgt_obj, tgt_mor = set(tgt.objects), set(tgt.morphisms)
    for x, fx in on_obj.items():
        if fx not in tgt_obj:
            raise FunctorialityViolation("image of object %r not in target" % x)
    for m, fm in on_mor.items():
        if fm not in tgt_mor:
            raise FunctorialityViolation("image of morphism %r not in target" % m)
        if tgt.dom[fm] != on_obj[src.dom[m]] or tgt.cod[fm] != on_obj[src.cod[m]]:
            raise FunctorialityViolation(
                "image of %r has wrong boundary: %r" % (m, fm)
            )
    for x in src.objects:
        if on_mor[src.identity[x]] != tgt.identity[on_obj[x]]:
            raise FunctorialityViolation("identity of %r not preserved" % x)
    broken = _unpreserved(src, tgt, on_mor)
    if broken is not None:
        raise FunctorialityViolation("composition not preserved on (%r, %r)" % broken)
    return Fun(src, tgt, on_obj, on_mor)


def _unpreserved(C, D, on_mor):
    """The first pair (g, f) of C's table that on_mor does not preserve
    in D, or None."""
    Dc = D.compose_table
    for (g, f), gf in C.composites():
        if Dc[(on_mor[g], on_mor[f])] != on_mor[gf]:
            return g, f
    return None


def identity_fun(C):
    return Fun(C, C, {x: x for x in C.objects}, {m: m for m in C.morphisms})


def compose_fun(G, F):
    """The functor F followed by G."""
    if F.tgt != G.src:
        raise BoundaryMismatch("functors not composable")
    return Fun(
        F.src,
        G.tgt,
        {x: G.on_obj[fx] for x, fx in F.on_obj.items()},
        {m: G.on_mor[fm] for m, fm in F.on_mor.items()},
    )


def category_over(base, over, admits):
    """The category whose objects o, in the order of over, lie over the
    objects over[o] of base.  Its morphisms o1 -> o2 are the m in
    base.hom(over[o1], over[o2]) for which admits(m, o1, o2) holds, each
    named "[m:o1->o2]"; identities and composites are base's.  Returns the
    category, a Composed, and its faithful projection to base, both built
    without proof: they are lawful when admits holds at identities and is
    closed under composition.

    >>> Z2 = make_fincat(["*"], ["e", "s"], {"e": "*", "s": "*"},
    ...     {"e": "*", "s": "*"}, {"*": "e"}, {("e", "e"): "e",
    ...     ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"})
    >>> C, p = category_over(Z2, {"a": "*", "b": "*"}, lambda m, o1, o2: True)
    >>> C.hom("a", "b")
    ('[e:a->b]', '[s:a->b]')
    >>> C.compose("[s:b->a]", "[s:a->b]"), C.identity["a"]
    ('[e:a->a]', '[e:a->a]')
    >>> p.mor("[s:a->b]")
    's'
    """
    morphisms, dom, cod, under = [], {}, {}, {}
    for o1, x1 in over.items():
        for o2, x2 in over.items():
            for m in base.hom(x1, x2):
                if admits(m, o1, o2):
                    name = "[%s:%s->%s]" % (m, o1, o2)
                    morphisms.append(name)
                    dom[name], cod[name] = o1, o2
                    under[name] = m
    identity = {o: "[%s:%s->%s]" % (base.identity[x], o, o) for o, x in over.items()}

    def composite(g, f):
        return "[%s:%s->%s]" % (base.compose(under[g], under[f]), dom[f], cod[g])

    C = Composed(over, morphisms, dom, cod, identity, composite)
    return C, Fun(C, base, over, under)


class NatT:
    """A natural transformation, stored as its component family."""

    def __init__(self, src, tgt, components):
        self.src = src
        self.tgt = tgt
        self.components = dict(components)

    def at(self, x):
        return self.components[x]

    def __eq__(self, other):
        if not isinstance(other, NatT):
            return NotImplemented
        if self is other:
            return True
        return (
            self.src == other.src
            and self.tgt == other.tgt
            and self.components == other.components
        )

    def __repr__(self):
        return "NatT(%d components)" % len(self.components)


class OnDemandNat(NatT):
    """A natural transformation whose components at(x) are computed on
    their first read and kept (see _OnDemand): at reads it one component
    at a time, and a reader of all its components, equality included,
    raises NotEnumerated."""

    def __init__(self, src, tgt, at):
        self.src, self.tgt, self.components = src, tgt, _OnDemand(at)

    def __repr__(self):
        return "OnDemandNat(%r => %r)" % (self.src, self.tgt)


def make_nat(F, G, components):
    """Build a natural transformation F => G, checking every square."""
    C, D = F.src, F.tgt
    require(G, C, D, "F and G are not parallel functors")
    if set(components) != set(C.objects):
        raise BoundaryMismatch("components must cover exactly the source objects")
    # D.dom is keyed by exactly the morphisms of D
    for x, c in components.items():
        if c not in D.dom or D.dom[c] != F.on_obj[x] or D.cod[c] != G.on_obj[x]:
            raise BoundaryMismatch(
                "component at %r must be a morphism %r -> %r, got %r"
                % (x, F.on_obj[x], G.on_obj[x], c)
            )
    compose = D.compose
    for m in C.morphisms:
        x, y = C.dom[m], C.cod[m]
        left = compose(G.on_mor[m], components[x])
        right = compose(components[y], F.on_mor[m])
        if left != right:
            raise NaturalityViolation("naturality square fails at %r" % m)
    return NatT(F, G, components)


def identity_nat(F):
    return NatT(F, F, {x: F.tgt.identity[F.on_obj[x]] for x in F.src.objects})


def identity_cell(F, G):
    """The identity 2-cell F => G.  It exists exactly when F and G agree:
    an identity family is natural from F to G when F and G are parallel
    and agree on every object and morphism, as each naturality square
    then reads G(m) = F(m).  So the cell is decided by comparing the two
    functors image by image along F.src (never whole, so an OnDemandFun
    is read one image at a time), and make_nat runs only on a
    disagreement, to name the refusal: the first object or morphism at
    which the identity family fails, as make_nat would have found it.

    >>> one = make_fincat(["*"], ["e"], {"e": "*"}, {"e": "*"}, {"*": "e"},
    ...     {("e", "e"): "e"})
    >>> A = make_fincat(["0", "1"], ["i0", "i1", "a"],
    ...     {"i0": "0", "i1": "1", "a": "0"}, {"i0": "0", "i1": "1", "a": "1"},
    ...     {"0": "i0", "1": "i1"}, {("i0", "i0"): "i0", ("i1", "i1"): "i1",
    ...     ("a", "i0"): "a", ("i1", "a"): "a"})
    >>> at0 = make_fun(one, A, {"*": "0"}, {"e": "i0"})
    >>> at1 = make_fun(one, A, {"*": "1"}, {"e": "i1"})
    >>> identity_cell(at0, make_fun(one, A, {"*": "0"}, {"e": "i0"})).at("*")
    'i0'
    >>> identity_cell(at0, at1)
    Traceback (most recent call last):
    fin2cat.errors.BoundaryMismatch: component at '*' must be a morphism '0' -> '1', got 'i0'
    """
    C, ids = F.src, identity_nat(F).components
    Fo, Fm, Go, Gm = F.on_obj, F.on_mor, G.on_obj, G.on_mor
    if (
        C == G.src
        and F.tgt == G.tgt
        and all(Fo[x] == Go[x] for x in C.objects)
        and all(Fm[m] == Gm[m] for m in C.morphisms)
    ):
        return NatT(F, G, ids)
    return make_nat(F, G, ids)


def paste(kind, beta, alpha):
    """Paste two natural transformations.

    kind "vertical": alpha: F => G, beta: G => H gives F => H.
    kind "horizontal": alpha: F => G between C -> D, beta: H => K between
    D -> E gives H.F => K.G (composite functors).
    """
    if kind == "vertical":
        if beta.src != alpha.tgt:
            raise BoundaryMismatch("vertical paste: target of alpha != source of beta")
        D = alpha.src.tgt
        comps = {
            x: D.compose_table[(beta.components[x], alpha.components[x])]
            for x in alpha.src.src.objects
        }
        return NatT(alpha.src, beta.tgt, comps)
    if kind == "horizontal":
        if alpha.src.tgt != beta.src.src:
            raise BoundaryMismatch("horizontal paste: middle categories differ")
        E = beta.src.tgt
        F, G = alpha.src, alpha.tgt
        H, K = beta.src, beta.tgt
        comps = {
            x: E.compose_table[
                (K.on_mor[alpha.components[x]], beta.components[F.on_obj[x]])
            ]
            for x in F.src.objects
        }
        return NatT(compose_fun(H, F), compose_fun(K, G), comps)
    raise ValueError("paste kind must be 'vertical' or 'horizontal', got %r" % kind)


def whisker_left(H, alpha):
    """H applied after a transformation: id_H pasted horizontally on alpha."""
    return paste("horizontal", identity_nat(H), alpha)


def whisker_right(beta, F):
    """A transformation restricted along F: beta pasted on id_F."""
    return paste("horizontal", beta, identity_nat(F))


class ProductCat(Composed):
    """Product category with its pair indexes.

    The product of two categories is a category, so it is Composed: its
    table is not proved, nor built with the category, and each composite
    is taken in the two factors.  Only the names
    are checked: "(c,d)" names a pair of identifiers, and identifiers
    with commas or brackets in them can make two pairs print alike.  Such
    a name raises AxiomViolation when the product is built.

    proj1 and proj2 are built on access, each time a fresh Fun, so that a
    product holds no functor pointing back at itself and is freed as soon
    as the last reference to it goes."""

    def __init__(self, C, D):
        obj_pairs = list(itertools.product(C.objects, D.objects))
        mor_pairs = list(itertools.product(C.morphisms, D.morphisms))
        objects = ["(%s,%s)" % p for p in obj_pairs]
        morphisms = ["(%s,%s)" % p for p in mor_pairs]
        for names in (objects, morphisms):
            if len(set(names)) != len(names):
                clash = next(n for n, k in Counter(names).items() if k > 1)
                raise AxiomViolation("product name %r names two pairs" % clash)
        obj_pair = dict(zip(objects, obj_pairs))
        mor_pair = dict(zip(morphisms, mor_pairs))
        dom = {m: "(%s,%s)" % (C.dom[f], D.dom[g]) for m, (f, g) in mor_pair.items()}
        cod = {m: "(%s,%s)" % (C.cod[f], D.cod[g]) for m, (f, g) in mor_pair.items()}
        identity = {
            o: "(%s,%s)" % (C.identity[c], D.identity[d])
            for o, (c, d) in obj_pair.items()
        }
        self._set_shape(objects, morphisms, dom, cod, identity)
        self.factors = (C, D)
        self.obj_pair = obj_pair
        self.mor_pair = mor_pair

    def _composite(self, m2, m1):
        (f2, g2), (f1, g1) = self.mor_pair[m2], self.mor_pair[m1]
        C, D = self.factors
        return "(%s,%s)" % (C.compose(f2, f1), D.compose(g2, g1))

    def _projection(self, k):
        return Fun(
            self,
            self.factors[k],
            {o: p[k] for o, p in self.obj_pair.items()},
            {m: p[k] for m, p in self.mor_pair.items()},
        )

    @property
    def proj1(self):
        return self._projection(0)

    @property
    def proj2(self):
        return self._projection(1)

    def pair_obj(self, c, d):
        return "(%s,%s)" % (c, d)

    def pair_mor(self, f, g):
        return "(%s,%s)" % (f, g)


def product_cat(C, D):
    """The product category C x D; its projections are proj1 and proj2."""
    return ProductCat(C, D)


def _assignments(n, slot, fits):
    """Depth-first search over one choice for each of the slots 0 .. n-1,
    with an explicit stack, so its depth is not bounded by the
    interpreter's recursion limit.  slot(i, chosen) gives the candidates
    for slot i in the order to try them, chosen[:i] holding the earlier
    choices; fits(i, chosen) judges chosen[i] against them.  Yields each
    full assignment as it is found, lexicographically in the candidates'
    orders, always as the same list: a caller copies what it keeps."""
    chosen = [None] * n
    if n == 0:
        yield chosen
        return
    stack = [iter(slot(0, chosen))]
    while stack:
        # the deepest slot takes its next candidate that fits, or is dropped
        i = len(stack) - 1
        for chosen[i] in stack[i]:
            if fits(i, chosen):
                break
        else:
            stack.pop()
            continue
        if i + 1 < n:
            stack.append(iter(slot(i + 1, chosen)))
        else:
            yield chosen


def _enumerate_functors(C, D):
    """The keys of all functors C -> D, each the pair (object images
    along C.objects, morphism images along C.morphisms): object images
    run through D.objects lexicographically along C.objects, and for
    each, _assignments gives the non-identity morphisms of C their
    images in turn from the matching hom-sets of D."""
    at_obj = {x: i for i, x in enumerate(C.objects)}
    non_id = [m for m in C.morphisms if not C.is_identity(m)]
    at = {m: i for i, m in enumerate(non_id)}
    ends = [(at_obj[C.dom[m]], at_obj[C.cod[m]]) for m in non_id]
    # a key reads each morphism's image off the non-identity images
    # followed by the identities of the object images
    order = [at[m] if m in at else len(non_id) + at_obj[C.dom[m]] for m in C.morphisms]
    # each composite g.f of two non-identity morphisms is checked where it
    # closes: at the last of g, f and g.f to get its image, an identity
    # g.f being given by the place of its object.  Pairs with an identity
    # hold for any images, so these checks are the whole of functoriality
    checks = [[] for _ in non_id]
    for (g, f), gf in C.composites():
        if g in at and f in at:
            if C.is_identity(gf):
                checks[max(at[g], at[f])].append((at[g], at[f], None, at_obj[C.dom[f]]))
            else:
                checks[max(at[g], at[f], at[gf])].append((at[g], at[f], at[gf], None))
    Dc = D.compose_table
    out = []
    for image in itertools.product(D.objects, repeat=len(at_obj)):
        ids = [D.identity[d] for d in image]

        def slot(i, ims):
            a, b = ends[i]
            return D.hom(image[a], image[b])

        def fits(i, ims):
            for g, f, gf, x in checks[i]:
                if Dc[(ims[g], ims[f])] != (ids[x] if gf is None else ims[gf]):
                    return False
            return True

        for ims in _assignments(len(non_id), slot, fits):
            out.append((image, tuple(map((ims + ids).__getitem__, order))))
    return out


def _enumerate_nats(C, D, f, g):
    """The component tuples, along C.objects, of all natural
    transformations between the functors C -> D whose keys are f and g
    (see _enumerate_functors): _assignments runs each component through
    its hom-set of D in order, checking the naturality squares of C's
    index (FinCat._squares) as they close."""
    homs = [D.hom(a, b) for a, b in zip(f[0], g[0])]
    if not all(homs):
        return []
    squares, fm, gm, Dc = C._squares, f[1], g[1], D.compose_table

    def fits(i, comps):
        for a, b, k in squares[i]:
            if Dc[gm[k], comps[a]] != Dc[comps[b], fm[k]]:
                return False
        return True

    return [tuple(comps) for comps in _assignments(len(homs), lambda i, comps: homs[i], fits)]


class _Keyed:
    """functor_of and nat_of of a functor category (HomCat, PowerView)
    that stores a functor as the tuple of its copies' ids in _base
    (_tuple) and a transformation as the tuple of its copies'
    transformations (_ntuple), _base holding their keys (_key, _comps).
    A Fun or NatT is built from those keys on its first read and kept,
    so a later read is one dict lookup."""

    def functor_of(self, fid):
        F = self._funs.get(fid)
        if F is None:
            C, keys = self.source, map(self._base._key.__getitem__, self._tuple(fid))
            objs, mors = (itertools.chain(*part) for part in zip(*keys))
            F = self._funs[fid] = Fun(C, self.target, zip(C.objects, objs), zip(C.morphisms, mors))
        return F

    def nat_of(self, nid):
        a = self._nats.get(nid)
        if a is None:
            comps = itertools.chain(*map(self._base._comps.__getitem__, self._ntuple(nid)))
            F, G = self.functor_of(self.dom[nid]), self.functor_of(self.cod[nid])
            a = self._nats[nid] = NatT(F, G, zip(self.source.objects, comps))
        return a


class HomCat(_Keyed, Composed):
    """The category of functors C -> D and natural transformations.

    Objects/morphisms get enumeration identifiers F0, F1, ... and n0, n1,
    ... assigned in a canonical order, so two builds over equal inputs give
    identical names: functors sorted by their keys (see
    _enumerate_functors), transformations by their source and target ids
    and then their component tuples along C.objects.  The keys are all
    that is stored: _key and _fun_ids map each functor id to its key and
    back, _comps and _nat_ids each transformation id to its components
    and (source id, target id, components) back.  functor_of and nat_of
    build the Fun or NatT on first read, and keep it.

    Transformations are searched only between functors F, G with
    D.hom(F x, G x) non-empty at every object x: functors are grouped by
    their object image, and the targets of each source image are found by
    walking the product of the per-object reachable sets or by scanning
    the distinct images, whichever is shorter.  A functor category is a
    category, so nothing is proved again.

    No composition table is built with the category (see Composed):
    compose computes each vertical composite on demand, its components
    looked up in D's table and the transformation found by its key, and
    compose_table is assembled through it on its first read only.  The
    readers that take the whole table materialise it: iso_categories (as
    in verify_codescent_universal), FinCat equality between distinct
    objects, make_fun and functor enumeration with a HomCat target, and
    pastes over a HomCat.  Callers that take one composite at a time
    (make_nat, FinCat.inverse, the descent equations, category_over, a
    product's composites) go through compose, and make_fun and functor
    enumeration with a HomCat source walk composites: none of them forces
    it.  Where only a few functors are ever read, PowerView skips the
    enumeration too.
    """

    def __init__(self, C, D):
        self.source, self.target = C, D
        keys = sorted(_enumerate_functors(C, D))
        self._key = {"F%d" % i: key for i, key in enumerate(keys)}
        self._fun_ids = {key: fid for fid, key in self._key.items()}
        by_image = {}
        for fid, key in self._key.items():
            by_image.setdefault(key[0], []).append((fid, key))

        reach = {a: {b for b in D.objects if D.hom(a, b)} for a in D.objects}
        nats = []
        for image, sources in by_image.items():
            allowed = [reach[a] for a in image]
            if math.prod(map(len, allowed)) < len(by_image):
                targets = [
                    t for im in itertools.product(*allowed) for t in by_image.get(im, ())
                ]
            else:
                targets = [
                    t
                    for im, ts in by_image.items()
                    if all(b in r for b, r in zip(im, allowed))
                    for t in ts
                ]
            for src_id, f in sources:
                for tgt_id, g in targets:
                    for comps in _enumerate_nats(C, D, f, g):
                        nats.append((src_id, tgt_id, comps))
        nats.sort()
        self._nat_ids = {key: "n%d" % i for i, key in enumerate(nats)}
        dom, cod, self._comps = {}, {}, {}
        for key, nid in self._nat_ids.items():
            dom[nid], cod[nid], self._comps[nid] = key
        identity = {
            fid: self._nat_ids[fid, fid, tuple(map(D.identity.__getitem__, key[0]))]
            for fid, key in self._key.items()
        }
        self._set_shape(list(self._key), list(self._comps), dom, cod, identity)
        self._component_of = D.compose_table.__getitem__
        self._funs, self._nats = {}, {}

    def compose(self, g, f):
        """Vertical composite of f followed by g, taken componentwise in
        the target category."""
        x = self.cod.get(f)
        if x is None or x != self.dom.get(g):
            raise self._not_composable(g, f)
        pairs = zip(self._comps[g], self._comps[f])
        key = (self.dom[f], self.cod[g], tuple(map(self._component_of, pairs)))
        return self._nat_ids[key]

    _composite = compose

    # the one-copy case of PowerView's copy readers (_tuple, _ntuple) and
    # namers (_fid, _nat_id), so that functor_of and nat_of, and the faces
    # and cells of deltadiag.hom_diagram, read D1 as they read the views
    # over it
    _k, _base = 1, property(lambda self: self)
    _tuple = _ntuple = staticmethod(lambda x: (x,))
    _fid = staticmethod(lambda t: t[0])
    _nat_id = staticmethod(lambda x, y, ms: ms[0])


def hom_cat(C, D):
    """The functor category [C, D] with lookup indexes attached."""
    return HomCat(C, D)


class PowerView(_Keyed):
    """The functor category [C, D] for C the k-fold copy of B, read off
    base = [B, D], an enumerated HomCat, and never enumerated itself.

    C lists its objects and morphisms in k blocks, each in B's order, as
    M x B does for a discrete M; so T^j Y is |M|^j copies of Y.  A
    functor C -> D is a k-tuple of functors B -> D and a transformation
    a k-tuple of transformations: [C, D] is base^k (Street 1976), and
    hom, compose and inverse go copy by copy through base.  A functor
    category is a category, so nothing is proved.

    Ids are HomCat(C, D)'s, found by ranking (Kreher and Stinson 1999).
    HomCat sorts functors by their keys, here the concatenation of the
    copies' keys, and base lists the functors of one object image
    together: so a functor's rank counts the tuples with a smaller
    object image, then reads the copies' places within their runs in
    mixed radix (_weigh), and _unrank inverts that.  HomCat sorts
    transformations by their source and target ids as strings ("F10"
    before "F2"), then by components.  So the transformations out of F
    come after the out-degrees of the functors whose decimal rank sorts
    before F's, summed over one interval of ranks per digit count
    (_before); among them, those into G come after the hom-set sizes
    from F of the targets whose id sorts before G's (_targets); and
    within hom(F, G) the copies' places in base's hom-sets read in
    mixed radix.

    Copy by copy, _tuple and _ntuple read a functor or a transformation
    the view has named as the tuple of its copies' ids in base, and _fid
    and _nat_id name a tuple; HomCat answers them as the one-copy case.
    The faces and cells of deltadiag.hom_diagram act through these
    alone, on base's keys, and so build no functor or transformation
    over C.  Any functor id reads back (functor_of).  A transformation
    is known once the view has named it (hom, compose, inverse, or a
    face or cell), and dom, cod and nat_of read what is known.  As in
    HomCat, functor_of and nat_of build a Fun or NatT from the copies'
    keys in base on its first read, and keep it.  A reader
    that takes the whole category (objects, morphisms, identity,
    compose_table, equality with another category, and through them
    make_fun, iso_categories, functor enumeration and products) raises
    NotEnumerated.
    """

    def __init__(self, base, C, k):
        self.source, self.target, self._base, self._k = C, base.target, base, k
        self._rank = {f: r for r, f in enumerate(base.objects)}
        # the run of base ranks that share each base functor's object
        # image, and each base transformation's place in its hom-set with
        # the size of the hom-set
        images = [image for image, _ in base._fun_ids]
        self._run = [(bisect.bisect_left(images, i), bisect.bisect_right(images, i)) for i in images]
        self._place = {m: (i, len(ms)) for ms in base._hom.values() for i, m in enumerate(ms)}
        self._n, self._count = len(images), len(images) ** k
        self._into, degrees = {}, [0] * self._n
        for f, g in base._hom:
            self._into.setdefault(f, []).append(g)
            degrees[self._rank[f]] += len(base._hom[f, g])
        self._degrees = list(itertools.accumulate(degrees, initial=0)).__getitem__
        self._below = {self._count: self._degrees(self._n) ** k}
        self._fids, self._tuples, self._funs, self._nats, self._from = {}, {}, {}, {}, {}
        self._ids, self._keys, self._composites = {}, {}, {}
        self.dom, self.cod = {}, {}

    def _whole(self, *args):
        raise NotEnumerated("%r is a view, never read whole" % (self,))

    objects = morphisms = identity = compose_table = property(_whole)

    def __eq__(self, other):
        # read whole against another category; a value that is no
        # category is unequal, as errors.require needs it to be
        return other is self or (self._whole() if isinstance(other, (FinCat, PowerView)) else NotImplemented)

    def _weigh(self, t, P=int):
        """The weight of the functors before the tuple t of base functors
        in HomCat's order, a functor weighing the product of its copies'
        weights; P(r) weighs the base ranks below r (each weighs 1 by
        default)."""
        smaller = same = 0
        total = run = 1
        for f in reversed(t):
            r = self._rank[f]
            (s, e), at = self._run[r], P(r)
            lo, hi = P(s), P(e)
            smaller = lo * total + (hi - lo) * smaller
            same = (at - lo) * run + (P(r + 1) - at) * same
            total, run = total * P(self._n), run * (hi - lo)
        return smaller + same

    def _unrank(self, R):
        """The tuple of base functors of rank R: each copy's object image
        is the run that holds R // A, for A the tuples per base functor
        there, and then come the places within the runs."""
        runs, size = [], 1
        for p in range(self._k - 1, -1, -1):
            A = size * self._n**p
            s, e = self._run[R // A]
            R, size = R - s * A, size * (e - s)
            runs.append((s, e))
        t = []
        for s, e in reversed(runs):
            R, w = divmod(R, e - s)
            t.insert(0, self._base.objects[s + w])
        return tuple(t)

    def _before(self, v):
        """The out-degrees of the functors whose decimal rank sorts
        before str(v), summed: for each digit count d, of the d-digit
        ranks up to v's first d digits (d shorter than v), below v (as
        long) or below v followed by zeros (longer)."""
        s, out, c = str(v), 0, self._count
        for d in range(1, len(str(c - 1)) + 1):
            lo = 10 ** (d - 1) if d > 1 else 0
            hi = int(s[:d]) + 1 if d < len(s) else v * 10 ** (d - len(s))
            # the d-digit ranks from lo up to hi, none from c on
            for sign, R in ((1, min(max(hi, lo), c)), (-1, min(lo, c))):
                if R not in self._below:  # the out-degrees below rank R, summed
                    self._below[R] = self._weigh(self._unrank(R), self._degrees)
                out += sign * self._below[R]
        return out

    def _targets(self, x):
        """The rank of the first transformation out of x, and the place
        among those of the first transformation x => y, for each target
        y of x."""
        if x not in self._from:
            t, rows = self._tuple(x), []
            for G in itertools.product(*map(self._into.__getitem__, t)):
                rows.append((self._fid(G), math.prod(len(self._base._hom[fg]) for fg in zip(t, G))))
            ys, sizes = zip(*sorted(rows))
            self._from[x] = (self._before(int(x[1:])), dict(zip(ys, itertools.accumulate(sizes, initial=0))))
        return self._from[x]

    def _fid(self, t):
        """The id of the functor whose copies are the base functors t."""
        if t not in self._fids:
            self._fids[t] = fid = "F%d" % self._weigh(t)
            self._tuples[fid] = t
        return self._fids[t]

    def _tuple(self, fid):
        """The base functors of the copies of the functor fid."""
        if fid not in self._tuples:
            R = int(fid[1:]) if fid[1:].isdecimal() else self._count
            if fid != "F%d" % R or R >= self._count:
                raise KeyError(fid)
            self._tuples[fid] = self._unrank(R)
        return self._tuples[fid]

    def _ntuple(self, nid):
        """The base transformations of the copies of the transformation
        nid, which the view has named."""
        return self._keys[nid]

    def _nat_id(self, x, y, ms):
        """The id of the transformation x => y whose copies are the base
        transformations ms."""
        if ms not in self._ids:
            at = 0
            for i, size in map(self._place.__getitem__, ms):
                at = at * size + i
            first, places = self._targets(x)
            self._ids[ms] = nid = "n%d" % (first + places[y] + at)
            self._keys[nid], self.dom[nid], self.cod[nid] = ms, x, y
        return self._ids[ms]

    def hom(self, x, y):
        homs = map(self._base.hom, self._tuple(x), self._tuple(y))
        return tuple(self._nat_id(x, y, ms) for ms in itertools.product(*homs))

    def compose(self, g, f):
        """Vertical composite of f followed by g, copy by copy in base."""
        if (g, f) not in self._composites:
            if f not in self.cod or self.cod[f] != self.dom.get(g):
                raise FinCat._not_composable(self, g, f)
            copies = map(self._base.compose, self._keys[g], self._keys[f])
            self._composites[g, f] = self._nat_id(self.dom[f], self.cod[g], tuple(copies))
        return self._composites[g, f]

    def inverse(self, m):
        """The two-sided inverse of m, copy by copy in base, or None."""
        inverses = tuple(map(self._base.inverse, self._keys[m]))
        return None if None in inverses else self._nat_id(self.cod[m], self.dom[m], inverses)

    def __repr__(self):
        return "PowerView(%r -> %r)" % (self.source, self.target)


def _obj_profile(C):
    """Each object's endomorphism count, and the sorted sizes of the
    non-empty hom-sets out of and into it (between categories of as many
    objects, the empty ones count alike)."""
    out, into = {x: [] for x in C.objects}, {x: [] for x in C.objects}
    for (x, y), ms in C._hom.items():
        out[x].append(len(ms))
        into[y].append(len(ms))
    return {
        x: (len(C._hom.get((x, x), ())), tuple(sorted(out[x])), tuple(sorted(into[x])))
        for x in C.objects
    }


def iso_categories(C, D):
    """Search for an isomorphism of categories.

    Returns a pair of mutually inverse functors (C -> D, D -> C), or None
    if the categories are not isomorphic.  Deterministic backtracking on
    _assignments, stopping at the first isomorphism found: objects are
    matched by hom-profile first, then morphism bijections are extended
    hom-set by hom-set and the composition table is verified.
    """
    if len(C.objects) != len(D.objects) or len(C.morphisms) != len(D.morphisms):
        return None
    pc, pd = _obj_profile(C), _obj_profile(D)
    cobjs, dobjs = sorted(C.objects), sorted(D.objects)
    rank = {x: i for i, x in enumerate(cobjs)}
    homs = sorted(C._hom.items(), key=lambda h: (rank[h[0][0]], rank[h[0][1]]))

    def injections(options, fits):
        # the assignments of options[i] to slot i that take no value twice:
        # used holds the value that each open slot is trying
        used = set()

        def unused(i, chosen):
            for c in options[i]:
                if c not in used:
                    used.add(c)
                    yield c
                    used.discard(c)

        return _assignments(len(options), unused, fits)

    for chosen in injections([dobjs] * len(cobjs), lambda i, c: pc[cobjs[i]] == pd[c[i]]):
        omap = dict(zip(cobjs, chosen))
        # one slot per morphism of C, hom-set by hom-set; the hom-sets of
        # D are disjoint, so no image is used twice anywhere.  The
        # morphism counts agree, so once the non-empty hom-sets of C have
        # their sizes matched, every other hom-set of D is empty
        ms, options = [], []
        for (x, y), hc in homs:
            hd = D.hom(omap[x], omap[y])
            if len(hc) != len(hd):
                break
            ms += hc
            options += [hd] * len(hc)
        else:
            for picked in injections(options, lambda i, c: D.is_identity(c[i]) == C.is_identity(ms[i])):
                mmap = dict(zip(ms, picked))
                if _unpreserved(C, D, mmap) is None:
                    back = Fun(D, C, {v: k for k, v in omap.items()}, {v: k for k, v in mmap.items()})
                    return Fun(C, D, omap, mmap), back
    return None

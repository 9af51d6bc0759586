"""Strict 2-monads from monoid actions, lax algebras, and their morphisms.

A Monoid is proved as the one-object category it is: make_fincat checks
its table, with the elements as morphisms, the unit as the identity and
the table as composition.  monoid_two_monad builds the 2-monad
T = M x (-) on a finite universe of categories: each seed, a (name,
category) pair, gets a chain X, TX, T^2 X, ... up to a fixed depth, and T
acts on functors and transformations componentwise.  Applying T past the
depth is an error rather than silent growth, and a universe of more than
UNIVERSE_LIMIT morphisms is refused before any member is built.  The
members are named, and their heights settled, when the universe is
built, but each iterate is built by the first T that returns it: a lax
algebra reads Z, TZ and T^2 Z, so the hom category of a pair and its
induced diagram build no T^3.

A lax algebra is (Z, a: TZ -> Z, zbar: a.T(a) => a.m_Z, zbar0: id_Z =>
a.eta_Z).  check_pseudomonad pastes nothing: it checks the unit and
associativity laws as functor equalities and builds the identity cells
mu, iota and tau that its coherence pastings are made of.  The rest
holds by theorem for a discrete M (see MonadUniverse).  A lax morphism
(f, fbar: a_z.T(f) => f.a_y) is checked by check_lax_morphism, which
classifies it as strict / pseudo / lax, and a transformation of lax
morphisms by check_transformation.  Neither these two nor
check_lax_algebra builds a composite functor or a NatT: after the typing
checks (made once per algebra, by LaxAlgebra), each side of a pasting is
read as a component dict off the target's table, the boundaries being
equal by theorem (check_lax_algebra, _componentwise).  The boundaries of
zbar and zbar0 are computed once per algebra (cell_boundaries, in
LaxAlgebra), and that of an fbar given from outside once per morphism
(fbar_boundary); enumerate_hom_category types its candidates fbar by
reading them off the faces Dd1 and Dd0 of the induced diagram.  Every
equation of an algebra or a morphism is reported by _unequal, which
names the first differing component in sorted order; a 2-monad law or
cell that cannot be built is recorded by _recorded, and a law needing k
T-iterates of C runs when MonadUniverse.height(C) >= k.

verify_prop_descent compares two categories cut out of one candidate
set, the hom-sets D2(Dd1(f), Dd0(f)) of the induced three-level diagram
built by build_Tzy, by independent judges: the hom category of lax
morphisms (direct evaluation of the axioms) and the lax descent category
of the diagram (the descent equations).  Both use the same object naming,
so a successful comparison is an identity isomorphism, checked by one
make_fun (_compare_identity).
"""

import math
from contextlib import contextmanager

from .deltadiag import acting, after, along, face, hom_diagram, precompose
from .descent import invertible_part, lax_descent
from .errors import (
    AxiomViolation,
    BoundaryMismatch,
    CoherenceViolation,
    FunctorialityViolation,
    verdict_all,
)
from .fincat import (
    FinCat,
    Fun,
    NatT,
    PowerView,
    _fun_key,
    category_over,
    compose_fun,
    hom_cat,
    identity_cell,
    identity_fun,
    make_fincat,
    make_fun,
    make_nat,
    product_cat,
)


class Monoid:
    """A finite monoid with an explicit multiplication table.

    The constructor proves the table with make_fincat, as the one-object
    category whose morphisms are the elements, whose identity is the unit
    and whose composition is the table (g after f is g.f).  Pass
    check=False to build a deliberately broken table (used to probe the
    checkers).
    """

    def __init__(self, elements, unit, table, check=True):
        self.elements = tuple(elements)
        self.unit = unit
        self.table = dict(table)
        if check:
            make_fincat(
                ["*"],
                self.elements,
                dict.fromkeys(self.elements, "*"),
                dict.fromkeys(self.elements, "*"),
                {"*": unit},
                self.table,
            )

    def mul(self, a, b):
        return self.table[(a, b)]

    def __repr__(self):
        return "Monoid(%r)" % (list(self.elements),)


class MonadUniverse:
    """The 2-monad M x (-) restricted to a finite family of categories.

    Members are the seeds, given as (name, category) pairs, and their
    T-iterates; T(X) for the last iterate of a chain raises
    AxiomViolation.  m, eta give the structure functors at a member,
    mu/iota/tau their (identity) comparison cells.

    Members are built on demand: T(C) builds the iterate it returns, on
    its first call, and members builds them all (check_pseudomonad reads
    it).  Fixed when the universe is built are the names, each member's
    first equal member (what index_of returns) and the heights, walked
    through T as index_of resolves it; they are read off the members'
    counts.  Member i is T^k X, X = seed i // (depth + 1) and
    k = i % (depth + 1), with |M|^k times X's object and morphism counts.
    T is injective, so two iterates are equal when the members before
    them are, and two members of one chain only when it is empty.  Only
    a seed and an iterate of its counts from another chain are compared,
    which builds that iterate.
    "(g,x)" ends g at its first comma, so over a monoid without a comma
    in an element the pairs of every iterate print apart; over one with
    a comma every member is built with the universe, so that a product
    name that names two pairs is refused there, as it always was.

    m, eta, mu, iota, tau and T on functors are memoised on the
    universe: each distinct structure functor or cell (m, eta, mu, iota
    or tau at a member, T(F) for each functor F between members) is
    built once, the first time it is asked for, and every later call
    returns that same object.  The memo lives as long as the universe
    does; a failed build is not remembered and fails again on the next
    call.  Members are found by identity first, so index_of on a member
    compares no tables, and a functor carries its key in the memo of T
    (tagged with the universe's token) from its first T on, so a later
    T(F) reads none of F's images.

    What is proved: the monoid's table, by monoid_two_monad, only as far
    as m and eta need it: mul must send every pair of elements to an
    element, and the unit must be one (a Monoid(check=False) table may
    hold anything).  Then m: (g, (h, x)) -> (gh, x) and eta: x -> (e, x)
    are functors by theorem, as M is discrete, and are built without
    proof; test_monad_structure_functors_are_functors in
    tests/test_fincat.py proves them once, on non-associative tables
    too.  mu, iota and tau are proved by identity_cell, which is where
    check_pseudomonad meets a non-associative or non-unital table.  Also
    lawful by theorem and built without proof: the members T(X) = M x X,
    products of proved categories, and T(F) = id x F and T(a) = id x a
    for a functor F and a cell a.  As M is discrete, T is then a strict
    2-functor and m and eta are 2-natural whatever the table, and once
    mu, iota and tau exist the coherence pastings made of them are
    identities between equal boundaries.  check_pseudomonad checks none
    of that; the test test_pseudomonad_check_matches_the_pasted_check
    does, once, against tests/helpers.pasted_check_pseudomonad.
    """

    def __init__(self, monoid, seeds, depth):
        self.monoid, self.depth, self.names = monoid, depth, []
        self._memo, self._token = {}, object()
        # the discrete category on the elements, which monoid_two_monad
        # has found distinct
        ids = {g: g for g in monoid.elements}
        self._mdisc = FinCat(ids, ids, ids, ids, ids, {(g, g): g for g in ids})
        # member i is T^(i % n) of seed i // n, built on its first read
        n, k = depth + 1, len(monoid.elements)
        self._built, self._index, self._counts = {}, {}, []
        for name, cat in seeds:
            self._built[len(self.names)] = cat
            self._index.setdefault(id(cat), len(self.names))
            for j in range(n):
                self.names.append(name if j == 0 else "T(%s)" % self.names[-1])
                self._counts.append((k**j * len(cat.objects), k**j * len(cat.morphisms)))
        if any("," in g for g in monoid.elements):
            # only then can two pairs print alike: build every product now
            self.members
        # _first[i] is the first member equal to member i, found as the
        # docstring says
        self._first = first = []
        counts = self._counts

        def equal(i, j):
            if counts[i] != counts[j] or i // n == j // n:
                return counts[i] == counts[j] == (0, 0)
            if i % n and j % n:
                return first[i - 1] == first[j - 1]
            return self._member(i) == self._member(j)

        for i in range(len(counts)):
            first.append(next((j for j in range(i) if equal(i, j)), i))
        # T(C) is the member after C's first equal, so a walk may leave
        # C's own chain; it never ends round a cycle, as T(X) = X for an
        # empty X, and no walk that ends is longer than the members
        self._succ = [None if i % n == depth else i + 1 for i in range(len(first))]
        self._heights = []
        for i in first:
            h, j = 0, self._succ[i]
            while j is not None and h < len(first):
                h, j = h + 1, self._succ[first[j]]
            self._heights.append(math.inf if j is not None else h)

    @property
    def members(self):
        """Every member, in order: building all of them, where T builds
        only the member it returns."""
        return [self._member(i) for i in range(len(self.names))]

    def _member(self, i):
        C = self._built.get(i)
        if C is None:
            C = self._built[i] = product_cat(self._mdisc, self._member(i - 1))
            self._index[id(C)] = i
        return C

    def _scan(self, C):
        size = (len(C.objects), len(C.morphisms))
        for i, counts in enumerate(self._counts):
            if counts == size and self._member(i) == C:
                return self._first[i]
        raise AxiomViolation("category is not a universe member")

    def index_of(self, C):
        i = self._index.get(id(C))
        return self._scan(C) if i is None else self._first[i]

    def _next(self, i):
        """The index of T of member i, not built here."""
        j = self._succ[self._first[i]]
        if j is None:
            raise AxiomViolation("T is undefined beyond the universe depth")
        return j

    def _memoised(self, key, build):
        F = self._memo.get(key)
        if F is None:
            F = self._memo[key] = build()
        return F

    def height(self, C):
        """How many times T applies to the member C before the depth ends:
        math.inf for an empty C, as T(C) is C."""
        return self._heights[self.index_of(C)]

    def T(self, C):
        return self._member(self._next(self.index_of(C)))

    def T_fun(self, F):
        # F carries its memo key, under this universe's token, from its
        # first T on
        token, key = getattr(F, "_memo_key", (None, None))
        if token is not self._token:
            key = ("T", self.index_of(F.src), self.index_of(F.tgt), _fun_key(F))
            F._memo_key = (self._token, key)

        def build():
            TS, TT = self._member(self._next(key[1])), self._member(self._next(key[2]))
            return Fun(
                TS,
                TT,
                {o: TT.pair_obj(g, F.ob(x)) for o, (g, x) in TS.obj_pair.items()},
                {m: TT.pair_mor(g, F.mor(f)) for m, (g, f) in TS.mor_pair.items()},
            )

        return self._memoised(key, build)

    def T_nat(self, a):
        TF, TG = self.T_fun(a.src), self.T_fun(a.tgt)
        TT = TF.tgt
        comps = {o: TT.pair_mor(g, a.at(x)) for o, (g, x) in TF.src.obj_pair.items()}
        return NatT(TF, TG, comps)

    def eta(self, C):
        i, e = self.index_of(C), self.monoid.unit

        def build():
            TC = self._member(self._next(i))
            return Fun(
                C,
                TC,
                {x: TC.pair_obj(e, x) for x in C.objects},
                {m: TC.pair_mor(e, m) for m in C.morphisms},
            )

        return self._memoised(("eta", i), build)

    def m(self, C):
        i = self.index_of(C)

        def build():
            j = self._next(i)
            TC, T2C = self._member(j), self._member(self._next(j))
            on_obj, on_mor = {}, {}
            for o, (g, o2) in T2C.obj_pair.items():
                h, x = TC.obj_pair[o2]
                on_obj[o] = TC.pair_obj(self.monoid.mul(g, h), x)
            for m, (g, m2) in T2C.mor_pair.items():
                h, f = TC.mor_pair[m2]
                on_mor[m] = TC.pair_mor(self.monoid.mul(g, h), f)
            return Fun(T2C, TC, on_obj, on_mor)

        return self._memoised(("m", i), build)

    def mu(self, C):
        """Associativity cell m.T(m) => m.m_T at member C (identity)."""
        mC = self.m(C)
        return self._memoised(
            ("mu", self.index_of(C)),
            lambda: identity_cell(
                compose_fun(mC, self.T_fun(mC)),
                compose_fun(mC, self.m(self.T(C))),
            ),
        )

    def iota(self, C):
        """Unit cell m.eta_T => id at member C (identity)."""
        return self._unit_cell("iota", C, self.eta(self.T(C)))

    def tau(self, C):
        """Unit cell m.T(eta) => id at member C (identity)."""
        return self._unit_cell("tau", C, self.T_fun(self.eta(C)))

    def _unit_cell(self, name, C, F):
        """The identity cell m.F => id at member C, memoised under name."""
        TC = self.T(C)
        return self._memoised(
            (name, self.index_of(C)),
            lambda: identity_cell(compose_fun(self.m(C), F), identity_fun(TC)),
        )

    def __repr__(self):
        return "MonadUniverse(%r, %d members)" % (self.monoid, len(self.names))


# The most morphisms a universe may hold; monoid_two_monad refuses a larger
# one before building any member.
UNIVERSE_LIMIT = 100000


def universe_size(M, seeds, depth):
    """The morphisms of the universe over seeds up to depth: |M|^k |mor X|
    for each seed X and k <= depth.  An empty member counts as one, so that
    empty seeds are bounded too.  The sum stops as soon as it passes
    UNIVERSE_LIMIT."""
    total = 0
    for _, X in seeds:
        size = len(X.morphisms)
        for _ in range(depth + 1):
            total += max(size, 1)
            if total > UNIVERSE_LIMIT:
                return total
            size *= len(M.elements)
    return total


def monoid_two_monad(M, seeds, depth):
    """Build the universe for T = M x (-) over the given (name, category)
    seeds.  M's table is refused unless mul sends every pair of elements
    to an element and the unit is one, which is all that m and eta need
    to be functors (see MonadUniverse)."""
    if depth < 1:
        raise AxiomViolation("depth must be at least 1")
    els = set(M.elements)
    if len(els) != len(M.elements):
        raise AxiomViolation("monoid elements repeat")
    if M.unit not in els:
        raise AxiomViolation("monoid unit %r is not an element" % (M.unit,))
    for pair in ((g, h) for g in M.elements for h in M.elements):
        if M.table.get(pair) not in els:
            raise AxiomViolation("monoid table sends %r to no element" % (pair,))
    if universe_size(M, seeds, depth) > UNIVERSE_LIMIT:
        raise AxiomViolation(
            "depth %d makes a universe of more than %d morphisms"
            % (depth, UNIVERSE_LIMIT)
        )
    return MonadUniverse(M, seeds, depth)


def _unequal(what, lhs, rhs):
    """[] when lhs and rhs agree, else the one failure "<what> fails at
    <first differing component>".  lhs and rhs are the component dicts,
    on the same objects, of the two sides of a pasting whose boundaries
    agree by theorem."""
    if lhs == rhs:
        return []
    x = next(x for x in sorted(lhs) if lhs[x] != rhs[x])
    return ["%s fails at %r (%r vs %r)" % (what, x, lhs[x], rhs[x])]


@contextmanager
def _recorded(failures, label):
    """Record an AxiomViolation or BoundaryMismatch raised in the block as
    the failure "label: message"; the rest of the block is skipped."""
    try:
        yield
    except (AxiomViolation, BoundaryMismatch) as e:
        failures.append("%s: %s" % (label, e))


def check_pseudomonad(U):
    """Verify the 2-monad laws on every member where the iterates exist.

    Checks, in order: the unit and associativity laws as functor
    equalities; then the identity cells each coherence pasting is made
    of, in the order the pasting would build them: mu at T(C) and at C
    for the associativity pasting (it needs T^4 C), tau at T(C), mu and
    iota at C for the triangle (T^3 C).  identity_cell refuses a cell
    whose two functors differ, recorded as "<pasting> at <member>:
    <refusal>".  Not checked, as it holds by theorem (see MonadUniverse):
    T's strictness, the 2-naturality of m and eta, and the equality of
    each pasting's two sides once its cells exist.
    Returns a Verdict listing each member and law that fails.
    """
    failures = []
    members = [(C, name, U.height(C)) for C, name in zip(U.members, U.names)]
    for C, name, k in members:
        if k >= 2:
            TC = U.T(C)
            with _recorded(failures, "unit laws at %s" % name):
                if compose_fun(U.m(C), U.eta(TC)) != identity_fun(TC):
                    failures.append("left unit law fails at %s" % name)
                if compose_fun(U.m(C), U.T_fun(U.eta(C))) != identity_fun(TC):
                    failures.append("right unit law fails at %s" % name)
        if k >= 3:
            with _recorded(failures, "associativity at %s" % name):
                if compose_fun(U.m(C), U.T_fun(U.m(C))) != compose_fun(
                    U.m(C), U.m(TC)
                ):
                    failures.append("associativity law fails at %s" % name)

    # the cells of the coherence pastings, where enough iterates exist
    for C, name, k in members:
        if k >= 4:
            with _recorded(failures, "associativity pasting at %s" % name):
                U.mu(U.T(C))
                U.mu(C)
        if k >= 3:
            with _recorded(failures, "triangle pasting at %s" % name):
                U.tau(U.T(C))
                U.mu(C)
                U.iota(C)

    return verdict_all(failures)


def cell_boundaries(U, Z, a):
    """The boundaries (source, target) of the comparison cells of a lax
    algebra with action a: T(Z) -> Z: (a.T(a), a.m_Z) for zbar and
    (id_Z, a.eta_Z) for zbar0."""
    return (
        (compose_fun(a, U.T_fun(a)), compose_fun(a, U.m(Z))),
        (identity_fun(Z), compose_fun(a, U.eta(Z))),
    )


def fbar_boundary(U, y, z, f):
    """The boundary (a_z.T(f), f.a_y) of the comparison cell fbar of a lax
    morphism y -> z with underlying functor f."""
    return compose_fun(z.a, U.T_fun(f)), compose_fun(f, y.a)


def _cell_on(cell, boundary, message):
    """cell, refused with message unless it runs on boundary.  A dict of
    components is proved on boundary by make_nat, and None stands for the
    identity cell, proved by identity_cell."""
    if cell is None:
        return identity_cell(*boundary)
    if isinstance(cell, dict):
        return make_nat(*boundary, cell)
    if (cell.src, cell.tgt) != boundary:
        raise BoundaryMismatch(message)
    return cell


class LaxAlgebra:
    """A lax algebra (Z, a, zbar, zbar0) over a universe.

    Boundaries are validated at construction, where cell_boundaries runs
    once: zbar and zbar0 are cells on them, component dicts or None (see
    _cell_on).  The coherence equations are the job of check_lax_algebra.
    """

    def __init__(self, universe, Z, a, zbar, zbar0):
        self.universe, self.Z, self.a = universe, Z, a
        if a.src != universe.T(Z) or a.tgt != Z:
            raise BoundaryMismatch("action must be a functor T(Z) -> Z")
        mult, unit = cell_boundaries(universe, Z, a)
        self.zbar = _cell_on(zbar, mult, "zbar must run a.T(a) => a.m")
        self.zbar0 = _cell_on(zbar0, unit, "zbar0 must run id => a.eta")

    def __repr__(self):
        return "LaxAlgebra(Z=%r)" % (self.Z,)


def strict_algebra(U, Z, a):
    """Package a strictly associative, strictly unital action as a
    LaxAlgebra with identity comparison cells."""
    return LaxAlgebra(U, Z, a, None, None)


def monad_algebra(U, Z, t, mu, eta):
    """A monad (t, mu, eta) on Z, encoded as a lax algebra for the
    trivial-monoid 2-monad: the action projects the monoid away and then
    applies t, and the comparison cells are mu and eta themselves."""
    if len(U.monoid.elements) != 1:
        raise AxiomViolation("monad_algebra needs the trivial-monoid universe")
    if t.src != Z or t.tgt != Z:
        raise BoundaryMismatch("t must be an endofunctor of Z")
    TZ = U.T(Z)
    T2Z = U.T(TZ)
    a = compose_fun(t, TZ.proj2)
    zbar_comps = {}
    for o in T2Z.objects:
        _, o2 = T2Z.obj_pair[o]
        _, x = TZ.obj_pair[o2]
        zbar_comps[o] = mu.at(x)
    return LaxAlgebra(U, Z, a, zbar_comps, {x: eta.at(x) for x in Z.objects})


class LaxMorphism:
    """A candidate morphism (f, fbar) between lax algebras.

    src_alg/tgt_alg are attached when known; cls reads the structural
    class off fbar (identities: strict, invertible: pseudo, else lax),
    independently of whether the coherence equations hold.
    """

    def __init__(self, f, fbar, src_alg=None, tgt_alg=None):
        self.f = f
        self.fbar = fbar
        self.src_alg = src_alg
        self.tgt_alg = tgt_alg

    @property
    def cls(self):
        Z = self.fbar.src.tgt
        comps = self.fbar.components.values()
        if all(Z.is_identity(c) for c in comps):
            return "strict"
        if all(Z.inverse(c) is not None for c in comps):
            return "pseudo"
        return "lax"

    def __repr__(self):
        return "LaxMorphism(cls=%s)" % self.cls


def check_lax_algebra(U, z):
    """Evaluate the three coherence equations of a lax algebra, on the
    components of each side read off Z's table, as _componentwise does:
    at x = (g, w) in T^3 Z, zbar at T(m)(x) after a(g, zbar_w) against
    zbar at m_TZ(x) after zbar at T^2(a)(x) (multiplication); at x in TZ,
    zbar at eta_TZ(x) after zbar0 at a(x), and at x = (g, w) zbar at
    T(eta)(x) after a(g, zbar0_w), each against the identity at a(x)
    (unit).  The cells mu, iota and tau contribute identities, so they
    are only built, which raises BoundaryMismatch on a table that breaks
    them.  For typed zbar and zbar0 the two sides of each pasting share a
    boundary, by theorem (tests/helpers.pasted_check_lax_algebra checks
    it), so the components decide.

    Equations needing deeper T-iterates than the universe provides are
    skipped.  Returns a Verdict naming the failing pasting and a witness
    object.
    """
    failures = []
    Z, Zc, TZ = z.Z, z.Z.compose_table, U.T(z.Z)
    ao, am, zb, zb0 = z.a.on_obj, z.a.on_mor, z.zbar.components, z.zbar0.components
    if U.height(Z) >= 3:
        U.mu(Z)
        Tm, mT = U.T_fun(U.m(Z)).on_obj, U.m(TZ)
        T2a = U.T_fun(U.T_fun(z.a)).on_obj
        failures += _unequal(
            "multiplication pasting",
            {
                x: Zc[zb[Tm[x]], am[TZ.pair_mor(g, zb[w])]]
                for x, (g, w) in mT.src.obj_pair.items()
            },
            {x: Zc[zb[mT.on_obj[x]], zb[T2a[x]]] for x in mT.src.objects},
        )
    if U.height(Z) >= 2:
        U.iota(Z)
        ident = {x: Z.identity[ao[x]] for x in TZ.objects}
        eta = U.eta(TZ).on_obj
        lhs = {x: Zc[zb[eta[x]], zb0[ao[x]]] for x in TZ.objects}
        failures += _unequal("unit pasting (eta)", lhs, ident)
        U.tau(Z)
        Teta = U.T_fun(U.eta(Z)).on_obj
        lhs = {
            x: Zc[zb[Teta[x]], am[TZ.pair_mor(g, zb0[w])]]
            for x, (g, w) in TZ.obj_pair.items()
        }
        failures += _unequal("unit pasting (T eta)", lhs, ident)
    return verdict_all(failures)


def _typed(U, y, z, phi):
    """Refuse a candidate y -> z whose fbar does not run a_z.T(f) => f.a_y."""
    if (phi.fbar.src, phi.fbar.tgt) != fbar_boundary(U, y, z, phi.f):
        raise BoundaryMismatch("fbar must run a_z.T(f) => f.a_y")


def _componentwise(U, y, z):
    """The equations of the lax morphisms y -> z and of their
    transformations, on the components of each pasting read off Z's table:
    F * alpha at x is F(alpha_x), alpha * G at x is alpha_G(x), and a
    vertical paste is one composite.  For typed fbar, zbar and zbar0 and a
    strict T the two sides of each pasting share their boundary, by
    theorem (tests/helpers.pasted_lax_morphism checks it), so the
    components decide.  Everything but f is read once per (y, z), zbar
    at T^2(f)(x) included, through a table (zt), so laws builds no T(f)
    or T^2(f).  Returns laws(f), the check of the fbar over f that raises
    CoherenceViolation or gives the class, and the transformation
    square(phi, psi, m), a Verdict."""
    Y, TY, TZ, Zc = y.Z, U.T(y.Z), U.T(z.Z), z.Z.compose_table
    az, ay, yb, zb = z.a.on_mor, y.a.on_obj, y.zbar.components, z.zbar.components
    T2Y, m, Ta = U.T(TY), U.m(Y).on_obj, U.T_fun(y.a).on_obj
    eta, yb0, zb0 = U.eta(Y).on_obj, y.zbar0.components, z.zbar0.components
    # zbar at (g, (h, v)) in T^2 Z, keyed by (g, h, v), and each x =
    # (g, (h, w)) of T^2 Y with its g, h and w: so zbar at T^2(f)(x) is
    # zt[g, h, f(w)], and no T^2(f) is built
    zt = {(g, *TZ.obj_pair[o1]): zb[o] for o, (g, o1) in U.T(TZ).obj_pair.items()}
    at = [(x, g, *TY.obj_pair[o1]) for x, (g, o1) in T2Y.obj_pair.items()]

    def laws(f):
        fo, fm = f.on_obj, f.on_mor

        def check(phi):
            c = phi.fbar.components
            # f * ybar, then fbar * T(a_y), then a_z * T(fbar)
            rhs = {
                x: Zc[fm[yb[x]], Zc[c[Ta[x]], az[TZ.pair_mor(g, c[w])]]]
                for x, (g, w) in T2Y.obj_pair.items()
            }
            failed = _unequal(
                "multiplication compatibility",
                {x: Zc[c[m[x]], zt[g, h, fo[w]]] for x, g, h, w in at},
                rhs,
            ) or _unequal(
                "unit compatibility",
                {x: Zc[c[eta[x]], zb0[fo[x]]] for x in Y.objects},
                {x: fm[yb0[x]] for x in Y.objects},
            )
            if failed:
                raise CoherenceViolation(*failed)
            phi.src_alg, phi.tgt_alg = y, z
            return phi.cls

        return check

    def square(phi, psi, m):
        p, q, c = phi.fbar.components, psi.fbar.components, m.components
        lhs = {
            o: Zc[q[o], az[TZ.pair_mor(g, c[x])]] for o, (g, x) in TY.obj_pair.items()
        }
        rhs = {o: Zc[c[ay[o]], p[o]] for o in TY.objects}
        return verdict_all(_unequal("compatibility", lhs, rhs))

    return laws, square


def check_lax_morphism(U, y, z, phi):
    """Check the two coherence equations of a lax morphism y -> z, after
    the typing of f and fbar, componentwise (see _componentwise).

    Returns the morphism's class ("strict", "pseudo" or "lax") on
    success; raises CoherenceViolation naming the failing equation.
    """
    if phi.f.src != y.Z or phi.f.tgt != z.Z:
        raise BoundaryMismatch("underlying functor must run Y -> Z")
    _typed(U, y, z, phi)
    return _componentwise(U, y, z)[0](phi.f)(phi)


def check_transformation(U, phi, psi, m):
    """Check the compatibility square of a transformation phi => psi:
    psi.fbar . (a_z * T(m)) = (m * a_y) . phi.fbar, componentwise (see
    _componentwise), after the typing of m and of both fbars."""
    if phi.src_alg is None or phi.tgt_alg is None:
        raise BoundaryMismatch("morphisms must carry their algebras (src_alg/tgt_alg)")
    if m.src != phi.f or m.tgt != psi.f:
        raise BoundaryMismatch("cell must run between the underlying functors")
    y, z = phi.src_alg, phi.tgt_alg
    _typed(U, y, z, phi)
    _typed(U, y, z, psi)
    return _componentwise(U, y, z)[1](phi, psi, m)


def check_pair(U, y, z):
    """Refuse algebras y and z, over the universe U of y, that are over
    different 2-monads: T of Z in U must be the source of z's action
    (else BoundaryMismatch "functors not composable"), and T^2 of Z must
    be in U, as the diagram build_Tzy reads it there: read off U's
    chains, it is not built here.  A Z that is no member of U, or a depth
    that ends too early, raises AxiomViolation first."""
    TZ = U.T(z.Z)
    if TZ != z.a.src:
        raise BoundaryMismatch("functors not composable")
    U._next(U.index_of(TZ))


def enumerate_hom_category(U, y, z, cls="lax", D=None):
    """The category of lax (or pseudo) morphisms y -> z and their
    transformations, over [Y, Z]: objects (F#, n#) are named after the
    functor and comparison-cell identifiers in the hom categories.
    The candidates fbar over f are D2's hom-set from Dd1(f) = a_z.T(f) to
    Dd0(f) = f.a_y, read through the faces of D, build_Tzy's diagram, as
    lax_descent reads them.  By default only D1 = [Y, Z], D2 = [TY, Z] (a
    PowerView over D1, as TY is |M| copies of Y) and those two faces are
    built.  The faces act copy by copy on D1's ids, so finding the
    candidates builds no functor over TY; D2.nat_of then builds each
    candidate's NatT and the two functors over TY it runs between.  The
    candidates are typed by construction: they go to _componentwise's
    checks directly, built once for each f that has a candidate, and an
    accepted one gets its algebras there.  Transformations compose, so
    category_over builds the table without proof.  A pair over different
    2-monads is refused first, by check_pair."""
    if cls not in ("lax", "pseudo"):
        raise ValueError("class must be 'lax' or 'pseudo', got %r" % cls)
    check_pair(U, y, z)
    if D is None:
        D1 = hom_cat(y.Z, z.Z)
        D2 = PowerView(D1, U.T(y.Z), len(U.monoid.elements))
        Dd0, Dd1 = face(D1, D2, *precompose(y.a)), face(D1, D2, *acting(z.a))
    else:
        D1, D2, Dd0, Dd1 = D.D1, D.D2, D.Dd0, D.Dd1
    laws, square = _componentwise(U, y, z)
    over, data = {}, {}
    for fid in D1.objects:
        nids = D2.hom(Dd1.ob(fid), Dd0.ob(fid))
        if not nids:
            continue
        f = D1.functor_of(fid)
        check = laws(f)
        for nid in nids:
            phi = LaxMorphism(f, D2.nat_of(nid))
            try:
                k = check(phi)
            except CoherenceViolation:
                continue
            if cls == "pseudo" and k == "lax":
                continue
            o = "(%s,%s)" % (fid, nid)
            over[o] = fid
            data[o] = phi

    def admits(m, o1, o2):
        return square(data[o1], data[o2], D1.nat_of(m))

    return category_over(D1, over, admits)[0]


def build_Tzy(U, y, z):
    """The three-level diagram whose lax descent category consists of the
    lax morphisms y -> z.

    Levels are the hom categories out of Y, TY, T^2 Y into Z; the faces
    precompose with the action/multiplication or apply a_z.T(-), and the
    comparison cells whisker zbar/zbar0 of the two algebras.  [Y, Z] is
    enumerated; TY and T^2 Y are |M| and |M|^2 copies of Y, so [TY, Z]
    and [T^2 Y, Z] are PowerViews over [Y, Z], which name only what the
    descent equations and enumerate_hom_category reach.  hom_diagram
    builds the faces and cells without proof, and they act copy by copy
    on [Y, Z]'s ids: copy (g, h) of a_z.T(F) is a_z on copy g of TZ
    after copy h of F, and the components of f * ybar and zbar * T^2(f)
    at copy c are read off ybar at copy c of T^2 Y and zbar at copy c of
    T^2 Z.  No functor or transformation over TY or T^2 Y is built.  A
    pair over different 2-monads is refused first, by check_pair."""
    check_pair(U, y, z)
    Y, Z = y.Z, z.Z
    TY = U.T(Y)
    D1, k = hom_cat(Y, Z), len(U.monoid.elements)
    return hom_diagram(
        D1,
        PowerView(D1, TY, k),
        PowerView(D1, U.T(TY), k * k),
        faces={
            "Dd0": precompose(y.a),
            "Dd1": acting(z.a),
            "Ds0": precompose(U.eta(Y)),
            "Dp0": precompose(U.T_fun(y.a)),
            "Dp1": precompose(U.m(Y)),
            "Dp2": acting(z.a),
        },
        cells={
            "Dsig00": after(y.zbar),
            "Dsig20": None,
            "Dsig21": along(z.zbar),
            "Dn0": after(y.zbar0),
            "Dn1": along(z.zbar0),
        },
    )


def _compare_identity(H, K):
    """Exact comparison of two categories sharing an object/morphism naming
    scheme: returns (True, None) when the identity maps are mutually
    inverse isomorphisms, else (False, first discrepancy).  Once the names
    agree, make_fun from H to K checks every boundary, identity and
    composite of both, so the way back is not checked again."""
    if set(H.objects) != set(K.objects):
        d = set(H.objects) ^ set(K.objects)
        return False, "object mismatch: %r" % (sorted(d)[0],)
    if set(H.morphisms) != set(K.morphisms):
        d = set(H.morphisms) ^ set(K.morphisms)
        return False, "morphism mismatch: %r" % (sorted(d)[0],)
    try:
        make_fun(H, K, {o: o for o in H.objects}, {m: m for m in H.morphisms})
    except FunctorialityViolation as e:
        return False, str(e)
    return True, None


def verify_prop_descent(U, y, z):
    """Compute the hom category of morphisms y -> z twice (directly, and
    as the lax descent category of build_Tzy) and compare exactly.

    Does this for the lax morphisms against lax descent, and for the
    pseudo morphisms against descent.  Each hom category is built once:
    both direct enumerations read the candidates fbar off the diagram's
    faces Dd1 and Dd0, where lax_descent has already named them, and judge
    them by the algebra axioms instead of the descent equations; the
    descent category is cut out of the one lax descent category.  Returns
    a report dict."""
    D = build_Tzy(U, y, z)
    lax = lax_descent(D)
    report = {"status": "pass", "counterexample": None}
    for key, dc in (("lax", lax), ("pseudo", invertible_part(lax))):
        H = enumerate_hom_category(U, y, z, key, D)
        ok, why = _compare_identity(H, dc.carrier)
        report[key] = {
            "hom_objects": len(H.objects),
            "hom_morphisms": len(H.morphisms),
            "descent_objects": len(dc.carrier.objects),
            "descent_morphisms": len(dc.carrier.morphisms),
            "match": ok,
        }
        if not ok:
            report["status"] = "fail"
            if report["counterexample"] is None:
                report["counterexample"] = "%s: %s" % (key, why)
    return report

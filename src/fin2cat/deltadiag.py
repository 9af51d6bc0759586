"""Three-level diagrams with comparison cells, and their dot extensions.

A DeltaDiagram is the image of the three-level shape: categories D1, D2,
D3, face functors Dd0, Dd1: D1 -> D2, a degeneracy Ds0: D2 -> D1, three
faces Dp0, Dp1, Dp2: D2 -> D3, comparison cells Dsig00, Dsig20, Dsig21 and
unit cells Dn0, Dn1.  A DotExtension adds a category D0 below, a functor
Dd: D0 -> D1, and a cell Dtheta: Dd1.Dd => Dd0.Dd.

The two descent equations, at an object f of D1 and th: Dd1(f) ->
Dd0(f) in D2,

    Dsig00_f . Dp0(th) . Dsig20_f . Dp2(th)  =  Dp1(th) . Dsig21_f   in D3
    Ds0(th) . Dn1_f  =  Dn0_f                                        in D1

are written once, in the table EQUATIONS, and read from it when called:
descent_equations evaluates them for descent.lax_descent,
check_dot_extension at each object x of D0 with f = Dd(x) and th =
Dtheta_x, and codescent.lax_codescent reads them upward as its cocycle
and unit relations.

The shape is freegen's SHAPE_EDGES and SHAPE_CELLS, read as FACES and
CELLS, and the dot is freegen's DOT_EDGES and theta.  check_shape is the
one boundary check: make_delta_diagram, make_dot_extension and
codescent.make_codescent_data type their faces and cells through it.
hom_diagram builds the diagram on three functor categories from faces
that precompose with a functor or apply a.T(-) (precompose, acting) and
cells that whisker a given cell (after, along), as build_Tzy and the
codescent probes do.  laxalg.enumerate_hom_category reads the faces Dd1
and Dd0 too, to name its candidates fbar, and builds them alone (face)
when no diagram is given.  D1 is an enumerated HomCat; D2 and D3 are
fincat.PowerViews over it, as their sources are |M| and |M|^2 copies of
D1's, and enumerating them would cost |obj D|^|obj C| functors and
more, while the descent equations read them only at the candidates
fbar, the faces Dp_i(fbar) and the cells Dsig_f.  For the same reason
every face is a fincat.OnDemandFun and every cell a fincat.OnDemandNat:
each image or component is computed on its first read, so the views
name only what the equations reach.  Faces and cells act copy by copy:
an image is assembled from D1's keys of the copies it reads and named
by the view, and no functor or transformation over the source of D2 or
D3 is ever built.  The whole-functor route they replace is
tests/helpers.whole_hom_diagram, their oracle.
"""

from itertools import chain

from .errors import BoundaryMismatch, verdict_all
from .fincat import Fun, NatT, OnDemandFun, OnDemandNat, compose_fun, identity_fun
from .freegen import DOT_CELLS, DOT_EDGES, SHAPE_CELLS, SHAPE_EDGES


def _named(edges, cells):
    """freegen's edges and cells with every name prefixed by D: each
    face's source and target level, and each cell's source and target as
    a path of faces in the order they apply."""
    faces = {"D" + e: ("D" + s, "D" + t) for e, (s, t) in edges.items()}
    paths = {"D" + c: tuple(tuple("D" + e for e in p) for p in sides) for c, sides in cells.items()}
    return faces, paths


# freegen's three-level shape: every path of CELLS starts at D1, and the
# empty path is the identity of D1.  The dot adds Dd: D0 -> D1 and
# Dtheta: Dd1.Dd => Dd0.Dd, with paths starting at D0.
FACES, CELLS = _named(SHAPE_EDGES, SHAPE_CELLS)
_DOT_FACES, _DOT_CELLS = _named(DOT_EDGES, {"theta": DOT_CELLS["theta"]})
# The two descent equations, written once: each one's name, the level
# where it holds, and its two sides as words in the order their
# morphisms apply, where a face stands for its image of fbar and a cell
# for its component at f.  codescent reads them upward.
EQUATIONS = (
    ("associativity", "D3", ("Dp2", "Dsig20", "Dp0", "Dsig00"), ("Dsig21", "Dp1")),
    ("identity", "D1", ("Dn1", "Ds0"), ("Dn0",)),
)


class Record:
    """The keyword arguments named in a subclass's FIELDS, one attribute
    each."""

    def __init__(self, **kw):
        for f in self.FIELDS:
            setattr(self, f, kw[f])


class DeltaDiagram(Record):
    FIELDS = ("D1", "D2", "D3") + tuple(FACES) + tuple(CELLS)

    def __repr__(self):
        return "DeltaDiagram(D1=%r, D2=%r, D3=%r)" % (self.D1, self.D2, self.D3)


def face_composite(fields, path, base):
    """The composite functor of a path of two faces named in fields, or the
    identity of the category base for the empty path.  After an
    OnDemandFun the composite is on demand too, read one image at a
    time."""
    if not path:
        return identity_fun(base)
    F, G = (fields[face] for face in path)
    if isinstance(F, OnDemandFun):
        return OnDemandFun(F.src, G.tgt, lambda x: G.ob(F.ob(x)), lambda m: G.mor(F.mor(m)))
    return compose_fun(G, F)


def check_shape(kw, fields, faces, cells):
    """Boundary-check the keyword arguments kw against a shape: its fields
    in order, then faces and cells written as in FACES and CELLS, with
    every path starting at the level fields[0].  The one boundary check
    of a DeltaDiagram, a DotExtension and a codescent.CodescentData: a
    face must be a functor and a cell a transformation, each between the
    stated levels or composites."""
    missing = [f for f in fields if f not in kw]
    if missing:
        raise BoundaryMismatch("missing fields: %s" % ", ".join(missing))
    for name, (src, tgt) in faces.items():
        if not _runs(kw[name], Fun, kw[src], kw[tgt]):
            raise BoundaryMismatch("%s must be a functor between the stated levels" % name)
    base = kw[fields[0]]
    for name, (src, tgt) in cells.items():
        F, G = face_composite(kw, src, base), face_composite(kw, tgt, base)
        if not _runs(kw[name], NatT, F, G):
            raise BoundaryMismatch("%s has the wrong boundary" % name)


def _runs(x, kind, src, tgt):
    """Whether x is a kind (Fun or NatT) from src to tgt."""
    return isinstance(x, kind) and x.src == src and x.tgt == tgt


def make_delta_diagram(**kw):
    """Assemble and boundary-check a DeltaDiagram (keyword arguments named
    after the fields)."""
    check_shape(kw, DeltaDiagram.FIELDS, FACES, CELLS)
    return DeltaDiagram(**kw)


def precompose(G):
    """The face F -> F.G of hom_diagram, for G a functor between the
    sources of its levels."""
    return G, None


def acting(a):
    """The face F -> a.T(F) of hom_diagram, for an action a: TZ -> Z."""
    return None, a


def after(alpha):
    """The cell F -> F * alpha of hom_diagram: F applied after alpha."""
    return "after", alpha


def along(beta):
    """The cell F -> beta * T^j(F) of hom_diagram, for beta between
    functors T^j Z -> Z: beta restricted along T^j(F)."""
    return "along", beta


def hom_diagram(D1, D2, D3, faces, cells):
    """The three-level diagram on the functor categories D1, D2 and D3,
    read only where it is asked: D1 = [B, Z] is an enumerated HomCat, and
    D2 and D3 are fincat.PowerViews over it, whose sources are copies of
    B.

    faces maps each face to precompose(G) or acting(a), and cells maps
    each comparison cell to after(alpha), along(beta) or None for the
    identity.  Faces and cells act copy by copy on ids: each face reads a
    plan off its functor once, on its first read, which gives, for each
    copy of its target level's source, the copy and the place in it that
    the image reads at each object and morphism of B (see _plan); a cell
    reads its components off alpha or beta at each copy (see _rows).  An
    image is assembled from D1's keys of the copies it reads and named by
    the level's _fid or _nat_id, and no functor or transformation over an
    upper level's source is ever built.  Every face is an OnDemandFun and
    every cell an OnDemandNat between the composites of its faces
    (face_composite, on demand too), so the views hold only the images
    the descent equations reach.  Faces and cells so given are functors
    and transformations by theorem (a face pre- or postcomposes, and a
    cell whiskers proved cells), and are built without proof;
    tests/test_fincat.py proves them once, and checks them against the
    whole-functor route of tests/helpers.py."""
    kw = {"D1": D1, "D2": D2, "D3": D3}
    for name, (src, tgt) in FACES.items():
        kw[name] = face(kw[src], kw[tgt], *faces[name])
    for name, (src, tgt) in CELLS.items():
        F, G = face_composite(kw, src, D1), face_composite(kw, tgt, D1)
        kw[name] = OnDemandNat(F, G, _cell(D1, G.tgt, F.ob, G.ob, cells[name]))
    return DeltaDiagram(**kw)


def face(S, T, G, a):
    """The face from level S to level T that precomposes with G, or
    applies a.T(-), reading F's images off the keys of its copies in D1
    at the places _plan gives, computed on the face's first read, and
    naming the copies in D1 and the whole in T.  S and T are levels of
    hom_diagram, and face(S, T, *precompose(G)) or face(S, T,
    *acting(a)) is the face hom_diagram builds from precompose(G) or
    acting(a)."""
    base, plan = T._base, []

    def ob(x):
        if not plan:
            plan.extend(_plan(S, T, G, a))
        keys = [base._key[f] for f in S._tuple(x)]
        objs, mors = (tuple(chain.from_iterable(key[i] for key in keys)) for i in (0, 1))
        copies = ((_read(objs, p, bo), _read(mors, q, bm)) for p, q, bo, bm in plan)
        return T._fid(tuple(map(base._fun_ids.__getitem__, copies)))

    def mor(m):
        x, y = obs[S.dom[m]], obs[S.cod[m]]
        comps = tuple(chain.from_iterable(map(base._comps.__getitem__, S._ntuple(m))))
        copies = zip(T._tuple(x), T._tuple(y), (_read(comps, p, bm) for p, _, _, bm in plan))
        return T._nat_id(x, y, tuple(map(base._nat_ids.__getitem__, copies)))

    # mor reads the object images through the face's map, not the face,
    # so that no reference cycle keeps a diagram alive after its last use
    face = OnDemandFun(S, T, ob, mor)
    obs = face.on_obj
    return face


def _plan(S, T, G, a):
    """For each copy c of T's source, the places in S's source that F.G
    or a.T(F) reads at B's objects and morphisms, and the maps to send
    them through: where G sends them, or the same places of copy c mod
    |S's copies|, as copy (g, i) of a.T(F) is b_g.F_i, and then the maps
    of b_g, a on copy g of TZ."""
    k, B = S._k, T._base.source
    n, nm = len(B.objects), len(B.morphisms)
    if G is None:
        # TZ lists Z's objects and morphisms once for each element g
        Z, TZ = a.tgt, a.src
        copies = T._k // k
        bo = _copies(Z.objects, map(a.on_obj.__getitem__, TZ.objects), copies)
        bm = _copies(Z.morphisms, map(a.on_mor.__getitem__, TZ.morphisms), copies)
        at = [(range(i * n, i * n + n), range(i * nm, i * nm + nm)) for i in range(k)]
        return [(*at[c % k], bo[c // k], bm[c // k]) for c in range(T._k)]
    at_obj, at_mor = (dict(zip(xs, range(len(xs)))) for xs in (S.source.objects, S.source.morphisms))
    objs = list(map(at_obj.__getitem__, map(G.on_obj.__getitem__, T.source.objects)))
    mors = list(map(at_mor.__getitem__, map(G.on_mor.__getitem__, T.source.morphisms)))
    return [(objs[c * n : c * n + n], mors[c * nm : c * nm + nm], None, None) for c in range(T._k)]


def _copies(names, images, count):
    """The maps names -> images of the count copies, images holding one
    block of len(names) for each copy in turn (an empty one for each
    copy of an empty category)."""
    images, n = list(images), len(names)
    return [dict(zip(names, images[i * n : i * n + n])) for i in range(count)]


def _read(images, places, post):
    """The images at places, each sent through the map post if given."""
    got = map(images.__getitem__, places)
    return tuple(got if post is None else map(post.__getitem__, got))


def _cell(D1, L, src, tgt, cell):
    """The component at the functor f of D1 of a comparison cell from
    src(f) to tgt(f) in the level L, copy by copy: an identity for None,
    and otherwise read off f's key in D1 at the places _rows gives,
    computed on the first read."""
    rows = []

    def at(f):
        x, y = src(f), tgt(f)
        if cell is None:
            return L._nat_id(x, y, tuple(map(D1.identity.__getitem__, L._tuple(x))))
        if not rows:
            rows.extend(_rows(D1, L, *cell))
        reads = (_read(D1._key[f][i], p, post) for i, p, post in rows)
        return L._nat_id(x, y, tuple(map(D1._nat_ids.__getitem__, zip(L._tuple(x), L._tuple(y), reads))))

    return at


def _rows(D1, L, side, alpha):
    """For each copy c of L's source, the part of f's key (0 objects, 1
    morphisms), the places in it and the map to send them through that
    give copy c of the cell at f, at the places p of B: f * alpha reads f
    at alpha's component at the p-th object of copy c, and
    beta * T^j(f) reads beta at f(p) in copy c of T^j Z."""
    comps = map(alpha.components.__getitem__, alpha.src.src.objects)
    if side == "along":
        copies = _copies(D1.target.objects, comps, L._k)
        return [(0, range(len(D1.source.objects)), b) for b in copies]
    at_mor = dict(zip(D1.source.morphisms, range(len(D1.source.morphisms))))
    places = list(map(at_mor.__getitem__, comps))
    n = len(places) // L._k
    return [(1, places[c * n : c * n + n], None) for c in range(L._k)]


class DotExtension(Record):
    FIELDS = ("base", "D0", "Dd", "Dtheta")

    def __repr__(self):
        return "DotExtension(D0=%r over %r)" % (self.D0, self.base)


def make_dot_extension(base, D0, Dd, Dtheta):
    """Assemble a DotExtension of the DeltaDiagram base, with Dd and then
    Dtheta typed by freegen's dot."""
    kw = dict(vars(base), D0=D0, Dd=Dd, Dtheta=Dtheta)
    check_shape(kw, ("D0", "Dd", "Dtheta"), _DOT_FACES, _DOT_CELLS)
    return DotExtension(base=base, D0=D0, Dd=Dd, Dtheta=Dtheta)


def descent_equations(d, f, th):
    """The descent equations of a DeltaDiagram d at an object f of D1 and
    a morphism th: Dd1(f) -> Dd0(f) of D2, as (lhs, rhs) pairs in the
    order of EQUATIONS: the associativity equation in D3, then the
    identity equation in D1."""

    def value(name):
        return getattr(d, name).mor(th) if name in FACES else getattr(d, name).at(f)

    def side(compose, word):
        m = value(word[0])
        for name in word[1:]:
            m = compose(value(name), m)
        return m

    return tuple(
        [(side(getattr(d, L).compose, lhs), side(getattr(d, L).compose, rhs)) for _, L, lhs, rhs in EQUATIONS]
    )


def check_dot_extension(ext):
    """Check the equations of EQUATIONS at every object of D0.

    Returns a Verdict; its failures name the equation and the object.
    """
    failures = []
    for x in ext.D0.objects:
        pairs = descent_equations(ext.base, ext.Dd.ob(x), ext.Dtheta.at(x))
        for (name, *_), (lhs, rhs) in zip(EQUATIONS, pairs):
            if lhs != rhs:
                failures.append(
                    "%s equation fails at %r: %r != %r" % (name, x, lhs, rhs)
                )
    return verdict_all(failures)


def theta_invertible(ext):
    """Whether every component of Dtheta is invertible (in D2)."""
    D2 = ext.base.D2
    return all(D2.inverse(c) is not None for c in ext.Dtheta.components.values())

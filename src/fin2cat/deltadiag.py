"""Three-level diagrams with comparison cells, and their dot extensions.

A DeltaDiagram is the image of the three-level shape: categories D1, D2,
D3, face functors Dd0, Dd1: D1 -> D2, a degeneracy Ds0: D2 -> D1, three
faces Dp0, Dp1, Dp2: D2 -> D3, comparison cells Dsig00, Dsig20, Dsig21 and
unit cells Dn0, Dn1.  A DotExtension adds a category D0 below, a functor
Dd: D0 -> D1, and a cell Dtheta: Dd1.Dd => Dd0.Dd.

check_dot_extension verifies, for each object x of D0 with f = Dd(x) and
th = Dtheta_x, the two pasting equations

    Dsig00_f . Dp0(th) . Dsig20_f . Dp2(th)  =  Dp1(th) . Dsig21_f   in D3
    Ds0(th) . Dn1_f  =  Dn0_f                                        in D1

The shape is freegen's SHAPE_EDGES and SHAPE_CELLS, read as FACES and CELLS:
make_delta_diagram checks against them, codescent reads them upward, and
hom_diagram builds the diagram on three functor categories from the
faces' actions (precompose for precomposition) and the cells at each
functor of D1, as build_Tzy and the codescent probes do.  D1 is an
enumerated HomCat; D2 and D3 are fincat.PowerViews over it, as their
sources are |M| and |M|^2 copies of D1's, and enumerating them would
cost |obj D|^|obj C| functors and more, while the descent equations
read them only at the candidates fbar, the faces Dp_i(fbar) and the
cells Dsig_f.  For the same reason every face is a fincat.OnDemandFun
and every cell a fincat.OnDemandNat: each image or component is computed
on its first read, so the views name only what the equations reach.
"""

from .errors import BoundaryMismatch, verdict_all
from .fincat import OnDemandFun, OnDemandNat, compose_fun, identity_fun, whisker_right
from .freegen import SHAPE_CELLS, SHAPE_EDGES

# freegen's three-level shape with every name prefixed by D.  FACES gives
# each face's source and target level.  CELLS gives each comparison cell's
# source and target as a path of faces in the order they apply, starting
# at D1; the empty path is the identity of D1.
FACES = {"D" + e: ("D" + s, "D" + t) for e, (s, t) in SHAPE_EDGES.items()}
CELLS = {
    "D" + c: tuple(tuple("D" + e for e in path) for path in sides)
    for c, sides in SHAPE_CELLS.items()
}


class DeltaDiagram:
    FIELDS = ("D1", "D2", "D3") + tuple(FACES) + tuple(CELLS)

    def __init__(self, **kw):
        for f in self.FIELDS:
            setattr(self, f, kw[f])

    def __repr__(self):
        return "DeltaDiagram(D1=%r, D2=%r, D3=%r)" % (self.D1, self.D2, self.D3)


def _require_fun(name, F, src, tgt):
    if F.src != src or F.tgt != tgt:
        raise BoundaryMismatch("%s must be a functor between the stated levels" % name)


def _require_nat(name, a, src_fun, tgt_fun):
    if a.src != src_fun or a.tgt != tgt_fun:
        raise BoundaryMismatch("%s has the wrong boundary" % name)


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
    every path starting at the level fields[0]."""
    missing = [f for f in fields if f not in kw]
    if missing:
        raise BoundaryMismatch("missing fields: %s" % ", ".join(missing))
    for name, (src, tgt) in faces.items():
        _require_fun(name, kw[name], kw[src], kw[tgt])
    base = kw[fields[0]]
    for name, (src, tgt) in cells.items():
        _require_nat(
            name,
            kw[name],
            face_composite(kw, src, base),
            face_composite(kw, tgt, base),
        )


def make_delta_diagram(**kw):
    """Assemble and boundary-check a DeltaDiagram (keyword arguments named
    after the fields)."""
    check_shape(kw, DeltaDiagram.FIELDS, FACES, CELLS)
    return DeltaDiagram(**kw)


def precompose(G):
    """The face action of precomposition with G, for hom_diagram: a functor
    F goes to F.G, a cell a to a whiskered by G."""
    return (lambda F: compose_fun(F, G), lambda a: whisker_right(a, G))


def hom_diagram(D1, D2, D3, faces, cells):
    """The three-level diagram on the functor categories D1, D2 and D3,
    read only where it is asked: D1 is an enumerated HomCat, and D2 and
    D3 are fincat.PowerViews over it.

    faces maps each face to its pair of actions (on functors, on cells),
    and cells maps each comparison cell to its transformation at a
    functor of D1.  Every face is an OnDemandFun, acting on a functor or
    cell when that image is first read, and every cell an OnDemandNat,
    computed at a functor of D1 when first read, between the composites
    of its faces (face_composite, on demand too).  So the views hold only
    the images the descent equations reach.  Faces and cells so given
    are functors and transformations by theorem (a face pre- or
    postcomposes, and a cell whiskers proved cells), and are built
    without proof; tests/test_fincat.py proves them once."""
    kw = {"D1": D1, "D2": D2, "D3": D3}
    for name, (src, tgt) in FACES.items():
        kw[name] = OnDemandFun(kw[src], kw[tgt], *_images(kw[src], kw[tgt], *faces[name]))
    for name, (src, tgt) in CELLS.items():
        F, G = face_composite(kw, src, D1), face_composite(kw, tgt, D1)
        at = cells[name]
        kw[name] = OnDemandNat(F, G, lambda o, at=at, T=G.tgt: T.mor_id(at(D1.functor_of(o))))
    return DeltaDiagram(**kw)


def _images(S, T, on_fun, on_nat):
    """A face's image of the functor o and of the cell m of S, as ids in T."""
    return (
        lambda o: T.obj_id(on_fun(S.functor_of(o))),
        lambda m: T.mor_id(on_nat(S.nat_of(m))),
    )


class DotExtension:
    def __init__(self, base, D0, Dd, Dtheta):
        self.base = base
        self.D0 = D0
        self.Dd = Dd
        self.Dtheta = Dtheta

    def __repr__(self):
        return "DotExtension(D0=%r over %r)" % (self.D0, self.base)


def make_dot_extension(base, D0, Dd, Dtheta):
    _require_fun("Dd", Dd, D0, base.D1)
    _require_nat(
        "Dtheta",
        Dtheta,
        compose_fun(base.Dd1, Dd),
        compose_fun(base.Dd0, Dd),
    )
    return DotExtension(base, D0, Dd, Dtheta)


def descent_equations(d, f, th):
    """The two descent equations of a DeltaDiagram d at an object f of D1
    and a morphism th: Dd1(f) -> Dd0(f) of D2, as (lhs, rhs) pairs: the
    associativity equation in D3, then the identity equation in D1."""
    c3 = d.D3.compose
    lhs = c3(d.Dsig00.at(f), c3(d.Dp0.mor(th), c3(d.Dsig20.at(f), d.Dp2.mor(th))))
    return (
        (lhs, c3(d.Dp1.mor(th), d.Dsig21.at(f))),
        (d.D1.compose(d.Ds0.mor(th), d.Dn1.at(f)), d.Dn0.at(f)),
    )


def check_dot_extension(ext):
    """Check the two lower-shape equations at every object of D0.

    Returns a Verdict; its failures name the equation and the object.
    """
    failures = []
    for x in ext.D0.objects:
        pairs = descent_equations(ext.base, ext.Dd.ob(x), ext.Dtheta.at(x))
        for name, (lhs, rhs) in zip(("associativity", "identity"), pairs):
            if lhs != rhs:
                failures.append(
                    "%s equation fails at %r: %r != %r" % (name, x, lhs, rhs)
                )
    return verdict_all(failures)


def theta_invertible(ext):
    """Whether every component of Dtheta is invertible (in D2)."""
    D2 = ext.base.D2
    return all(D2.inverse(c) is not None for c in ext.Dtheta.components.values())

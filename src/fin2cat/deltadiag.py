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
functor of D1, as build_Tzy and the codescent probes do.  D1 and D2 are
enumerated HomCats; D3 is a fincat.FunctorView, since the descent
equations read the top level only at the faces Dp_i(fbar) and the cells
Dsig_f, and enumerating it would cost |obj D|^|obj C| functors and more.
For the same reason the faces out of D2 (Dp0, Dp1, Dp2 and Ds0) are
fincat.OnDemandFuns: each image is computed on its first read, so the
view interns only what the equations and the cells reach.
"""

from .errors import BoundaryMismatch, verdict_all
from .fincat import Fun, FunctorView, OnDemandFun, compose_fun, identity_fun, make_nat, whisker_right
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
    identity of the category base for the empty path."""
    if not path:
        return identity_fun(base)
    first, then = path
    return compose_fun(fields[then], fields[first])


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
    """The three-level diagram on functor categories: D1 and D2 are
    HomCats, and D3 is the (source, target) pair of the top level, which
    is built here as a FunctorView and so is never enumerated.

    faces maps each face to its pair of actions (on functors, on cells).
    A face out of D1 (Dd0, Dd1) acts on every functor and cell of D1 at
    once, as the boundaries of the cells take it as their inner functor,
    which compose_fun reads whole.  A face out of D2 (Ds0, Dp0, Dp1,
    Dp2) is an OnDemandFun: it acts on a functor or cell of D2 when that
    image is first read, so the view interns only the images the cells
    and the descent equations reach.  A face so given is a functor by
    theorem and is built without proof.  cells maps each comparison cell
    to its transformation at a functor of D1; each cell is proved by
    make_nat."""
    kw = {"D1": D1, "D2": D2, "D3": FunctorView(*D3)}
    for name, (src, tgt) in FACES.items():
        S, T = kw[src], kw[tgt]
        ob, mor = _images(S, T, *faces[name])
        if src == "D2":
            kw[name] = OnDemandFun(S, T, ob, mor)
        else:
            kw[name] = Fun(S, T, {o: ob(o) for o in S.objects}, {m: mor(m) for m in S.morphisms})
    functors = [(o, D1.functor_of(o)) for o in D1.objects]
    for name, (src, tgt) in CELLS.items():
        F, G = face_composite(kw, src, D1), face_composite(kw, tgt, D1)
        at = cells[name]
        kw[name] = make_nat(F, G, {o: F.tgt.mor_id(at(f)) for o, f in functors})
    return make_delta_diagram(**kw)


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

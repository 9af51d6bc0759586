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
"""

from .errors import BoundaryMismatch, verdict_all
from .fincat import compose_fun, identity_fun


class DeltaDiagram:
    FIELDS = (
        "D1", "D2", "D3",
        "Dd0", "Dd1", "Ds0", "Dp0", "Dp1", "Dp2",
        "Dsig00", "Dsig20", "Dsig21", "Dn0", "Dn1",
    )

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


def make_delta_diagram(**kw):
    """Assemble and boundary-check a DeltaDiagram (keyword arguments named
    after the fields)."""
    d = DeltaDiagram(**kw)
    _require_fun("Dd0", d.Dd0, d.D1, d.D2)
    _require_fun("Dd1", d.Dd1, d.D1, d.D2)
    _require_fun("Ds0", d.Ds0, d.D2, d.D1)
    _require_fun("Dp0", d.Dp0, d.D2, d.D3)
    _require_fun("Dp1", d.Dp1, d.D2, d.D3)
    _require_fun("Dp2", d.Dp2, d.D2, d.D3)
    _require_nat("Dsig00", d.Dsig00, compose_fun(d.Dp0, d.Dd0), compose_fun(d.Dp1, d.Dd0))
    _require_nat("Dsig20", d.Dsig20, compose_fun(d.Dp2, d.Dd0), compose_fun(d.Dp0, d.Dd1))
    _require_nat("Dsig21", d.Dsig21, compose_fun(d.Dp2, d.Dd1), compose_fun(d.Dp1, d.Dd1))
    _require_nat("Dn0", d.Dn0, identity_fun(d.D1), compose_fun(d.Ds0, d.Dd0))
    _require_nat("Dn1", d.Dn1, identity_fun(d.D1), compose_fun(d.Ds0, d.Dd1))
    return d


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

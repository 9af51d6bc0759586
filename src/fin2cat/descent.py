"""Lax descent and descent categories of a three-level diagram.

An object of the lax descent category of D is a pair (f, fbar) with f an
object of D1 and fbar: Dd1(f) -> Dd0(f) in D2 satisfying the two equations
of deltadiag.descent_equations:

    Dsig00_f . Dp0(fbar) . Dsig20_f . Dp2(fbar) = Dp1(fbar) . Dsig21_f
    Ds0(fbar) . Dn1_f = Dn0_f

A morphism (f, fbar) -> (h, hbar) is m: f -> h in D1 with
Dd0(m) . fbar = hbar . Dd1(m).  The (strict) descent category is the full
subcategory on the pairs whose fbar is invertible.
"""

from .deltadiag import descent_equations
from .fincat import FinCat, Fun, composition_table
from .errors import BoundaryMismatch


class DescentDatum:
    """A pair (f, fbar) passing the descent equations."""

    def __init__(self, f, fbar):
        self.f = f
        self.fbar = fbar

    def __repr__(self):
        return "DescentDatum(f=%r, fbar=%r)" % (self.f, self.fbar)


class DescentCategory:
    """The carrier category together with its projection to D1.

    data maps each carrier object to its DescentDatum; inclusion (present
    on strict descent categories) embeds the carrier into the lax one.
    """

    def __init__(self, diagram, carrier, projection, data, inclusion=None):
        self.diagram = diagram
        self.carrier = carrier
        self.projection = projection
        self.data = data
        self.inclusion = inclusion

    def __repr__(self):
        return "DescentCategory(%r)" % (self.carrier,)


def _obj_id(f, fbar):
    return "(%s,%s)" % (f, fbar)


def _mor_id(m, o1, o2):
    return "[%s:%s->%s]" % (m, o1, o2)


def lax_descent(D):
    """The lax descent category of a DeltaDiagram.  Its carrier and
    projection are lawful by theorem and built without proof."""
    data = {}
    objects = []
    for f in D.D1.objects:
        for fbar in D.D2.hom(D.Dd1.ob(f), D.Dd0.ob(f)):
            if all(lhs == rhs for lhs, rhs in descent_equations(D, f, fbar)):
                o = _obj_id(f, fbar)
                objects.append(o)
                data[o] = DescentDatum(f, fbar)

    morphisms, dom, cod, under = [], {}, {}, {}
    for o1 in objects:
        d1 = data[o1]
        for o2 in objects:
            d2 = data[o2]
            for m in D.D1.hom(d1.f, d2.f):
                if D.D2.compose(D.Dd0.mor(m), d1.fbar) == D.D2.compose(
                    d2.fbar, D.Dd1.mor(m)
                ):
                    mid = _mor_id(m, o1, o2)
                    morphisms.append(mid)
                    dom[mid], cod[mid] = o1, o2
                    under[mid] = m

    identity = {}
    for o in objects:
        identity[o] = _mor_id(D.D1.identity[data[o].f], o, o)

    def composite(m2, m1):
        return _mor_id(D.D1.compose(under[m2], under[m1]), dom[m1], cod[m2])

    compose = composition_table(morphisms, dom, cod, composite)

    carrier = FinCat(objects, morphisms, dom, cod, identity, compose)
    projection = Fun(
        carrier,
        D.D1,
        {o: data[o].f for o in objects},
        {m: under[m] for m in morphisms},
    )
    return DescentCategory(D, carrier, projection, data)


def descent(D):
    """The descent category: data with invertible fbar, included into the
    lax descent category."""
    return invertible_part(lax_descent(D))


def invertible_part(lax):
    """The descent category cut out of an already computed lax descent
    category: the full subcategory on the data whose fbar is invertible.
    A full subcategory of a category is one, so the carrier, projection
    and inclusion are built without proof."""
    D = lax.diagram
    keep = {
        o
        for o in lax.carrier.objects
        if D.D2.inverse(lax.data[o].fbar) is not None
    }
    objects = [o for o in lax.carrier.objects if o in keep]
    morphisms = [
        m
        for m in lax.carrier.morphisms
        if lax.carrier.dom[m] in keep and lax.carrier.cod[m] in keep
    ]
    dom = {m: lax.carrier.dom[m] for m in morphisms}
    cod = {m: lax.carrier.cod[m] for m in morphisms}
    identity = {o: lax.carrier.identity[o] for o in objects}
    compose = composition_table(morphisms, dom, cod, lax.carrier.compose)
    carrier = FinCat(objects, morphisms, dom, cod, identity, compose)
    projection = Fun(
        carrier,
        D.D1,
        {o: lax.data[o].f for o in objects},
        {m: lax.projection.mor(m) for m in morphisms},
    )
    inclusion = Fun(
        carrier,
        lax.carrier,
        {o: o for o in objects},
        {m: m for m in morphisms},
    )
    return DescentCategory(
        D,
        carrier,
        projection,
        {o: lax.data[o] for o in objects},
        inclusion=inclusion,
    )


def descent_projection(DC):
    """The forgetful functor from a descent category to D1."""
    if not isinstance(DC, DescentCategory):
        raise BoundaryMismatch("descent_projection expects a DescentCategory")
    return DC.projection

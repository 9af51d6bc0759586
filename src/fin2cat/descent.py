"""Lax descent and descent categories of a three-level diagram.

An object of the lax descent category of D is a pair (f, fbar) with f an
object of D1 and fbar: Dd1(f) -> Dd0(f) in D2 satisfying the two equations
of deltadiag.EQUATIONS, as deltadiag.descent_equations evaluates them:

    Dsig00_f . Dp0(fbar) . Dsig20_f . Dp2(fbar) = Dp1(fbar) . Dsig21_f
    Ds0(fbar) . Dn1_f = Dn0_f

A morphism (f, fbar) -> (h, hbar) is m: f -> h in D1 with
Dd0(m) . fbar = hbar . Dd1(m).  The (strict) descent category is the full
subcategory on the pairs whose fbar is invertible.  fincat.category_over
builds both carriers over D1, with that square as the admitted morphisms.
"""

from .deltadiag import descent_equations
from .fincat import Fun, category_over


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


def _over_D1(D, data):
    """The carrier of the data over D1 and its projection: m: f -> h is a
    morphism (f, fbar) -> (h, hbar) when Dd0(m) . fbar = hbar . Dd1(m)."""
    compose = D.D2.compose

    def admits(m, o1, o2):
        return compose(D.Dd0.mor(m), data[o1].fbar) == compose(data[o2].fbar, D.Dd1.mor(m))

    return category_over(D.D1, {o: d.f for o, d in data.items()}, admits)


def lax_descent(D):
    """The lax descent category of a DeltaDiagram."""
    data = {}
    for f in D.D1.objects:
        for fbar in D.D2.hom(D.Dd1.ob(f), D.Dd0.ob(f)):
            if all(lhs == rhs for lhs, rhs in descent_equations(D, f, fbar)):
                data["(%s,%s)" % (f, fbar)] = DescentDatum(f, fbar)
    return DescentCategory(D, *_over_D1(D, data), data)


def descent(D):
    """The descent category: data with invertible fbar, included into the
    lax descent category."""
    return invertible_part(lax_descent(D))


def invertible_part(lax):
    """The descent category cut out of an already computed lax descent
    category: the full subcategory on the data whose fbar is invertible,
    under the same names, so the inclusion is the identity on names."""
    D = lax.diagram
    data = {o: d for o, d in lax.data.items() if D.D2.inverse(d.fbar) is not None}
    carrier, projection = _over_D1(D, data)
    inclusion = Fun(
        carrier,
        lax.carrier,
        {o: o for o in carrier.objects},
        {m: m for m in carrier.morphisms},
    )
    return DescentCategory(D, carrier, projection, data, inclusion=inclusion)

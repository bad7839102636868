"""Symbols over F_q(t): tame residues at every place, the Steinberg
relation, and Weil reciprocity through explicit residue-field norms.

Residues are computed in each place's residue field `place.ring`: the
FiniteField itself at degree-one and infinite places, a QuotientRing
above them.  Both answer one, mul, pow, neg and norm; a QuotientRing
F_q[t]/(pi) takes the norm of a as the resultant Res(pi, a), by Euclid
on dense lists.
"""

from __future__ import annotations

from .errors import InvalidInput
from .fields import INF, RationalFn, to_divisor
from .valuations import FinitePlace, InfinitePlace


def support_places(f: RationalFn, g: RationalFn) -> list:
    """Places where f or g has nonzero value, in canonical order."""
    if len(f.vars) != 1 or len(g.vars) != 1:
        raise InvalidInput("symbols are taken in F_q(t)")
    finite: dict = {}
    has_inf = False
    for h in (f, g):
        for gen in to_divisor(h).support():
            if gen == INF:
                has_inf = True
            else:
                finite[gen] = None
    # every gen is a monic irreducible factor_univariate returned
    places = [FinitePlace._of_factor(pi) for pi in sorted(finite, key=lambda p: p.sort_key())]
    if has_inf:
        places.append(InfinitePlace(f.field, f.vars[0]))
    return places


def tame_symbol(f: RationalFn, g: RationalFn, place):
    """Residue of the symbol {f, g} at one place:
    (-1)^(mn) f^n / g^m with m = val(f), n = val(g).

    With f = pi^m u and g = pi^n w, f^n / g^m = u^n / w^m, so the symbol
    is (-1)^(mn) r_f^n r_g^(-m) for the unit residues r_f, r_g of f, g.
    """
    m, rf = place.unit_residue(f)
    n, rg = place.unit_residue(g)
    ring = place.ring
    r = ring.mul(ring.pow(rf, n), ring.pow(rg, -m))
    if (m * n) % 2:
        r = ring.neg(r)
    return r


def steinberg_check(f: RationalFn) -> bool:
    """All tame residues of {f, 1-f} equal 1."""
    if not f or f == RationalFn.constant(f.field, f.vars, 1):
        raise InvalidInput("Steinberg check needs f outside {0, 1}")
    g = 1 - f
    for place in support_places(f, g):
        if tame_symbol(f, g, place) != place.ring.one:
            return False
    return True


def weil_reciprocity_check(f: RationalFn, g: RationalFn) -> bool:
    """Product over all places of the residue-field norms of the tame
    symbols equals 1 — a global law that exercises every local path."""
    field = f.field
    total = 1
    for place in support_places(f, g):
        total = field.mul(total, place.ring.norm(tame_symbol(f, g, place)))
    return total == 1

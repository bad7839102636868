"""Symbols over F_q(t): tame residues at every place, the Steinberg
relation, and Weil reciprocity through explicit residue-field norms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput
from .fields import INF, RationalFn, to_divisor
from .valuations import FinitePlace, InfinitePlace


@dataclass(frozen=True)
class K2Symbol:
    """Formal Z-linear combination of symbol pairs {f, g}."""

    terms: tuple  # of (RationalFn, RationalFn, int multiplicity)

    @classmethod
    def pair(cls, f: RationalFn, g: RationalFn, mult: int = 1) -> "K2Symbol":
        if not f or not g:
            raise InvalidInput("symbol entries must be nonzero")
        return cls(((f, g, mult),))

    def __add__(self, other: "K2Symbol") -> "K2Symbol":
        return K2Symbol(self.terms + other.terms)


def support_places(sym: K2Symbol) -> list:
    """Places where some entry has nonzero value, in canonical order."""
    field = sym.terms[0][0].field
    if any(len(h.vars) != 1 for f, g, _ in sym.terms for h in (f, g)):
        raise InvalidInput("symbols are taken in F_q(t)")
    var = sym.terms[0][0].vars[0]
    finite: dict = {}
    has_inf = False
    for f, g, _ in sym.terms:
        for h in (f, g):
            d = to_divisor(h)
            for gen in d.support():
                if gen == INF:
                    has_inf = True
                else:
                    finite[gen] = None
    # every gen is a monic irreducible factor_univariate returned
    places = [FinitePlace._of_factor(pi) for pi in sorted(finite, key=lambda p: p.sort_key())]
    if has_inf:
        places.append(InfinitePlace(field, var))
    return places


# -- residue-field arithmetic, dispatched on the place kind -----------


def _res_one(place):
    return 1 if place.ring is None else place.ring.one


def _res_mul(place, a, b):
    if place.ring is None:
        return place.field.mul(a, b)
    return place.ring.mul(a, b)


def _res_pow(place, a, n: int):
    if place.ring is None:
        return place.field.pow(a, n)
    return place.ring.pow(a, n)


def _res_neg(place, a):
    if place.ring is None:
        return place.field.neg(a)
    neg = place.field._neg
    return tuple(neg[c] for c in a)


def _res_norm(place, a) -> int:
    """Norm from the residue field down to F_q."""
    if place.ring is None:
        return a
    return place.ring.norm_to_base(a)


def tame_symbol(sym: K2Symbol, place):
    """Residue of the symbol at one place:
    (-1)^(mn) f^n / g^m with m = val(f), n = val(g), per term.

    With f = pi^m u and g = pi^n w, f^n / g^m = u^n / w^m, so the symbol
    is (-1)^(mn) r_f^n r_g^(-m) for the unit residues r_f, r_g of f, g.
    """
    out = _res_one(place)
    for f, g, mult in sym.terms:
        if not f or not g:
            raise InvalidInput("symbol entries must be nonzero")
        m, rf = place.unit_residue(f)
        n, rg = place.unit_residue(g)
        r = _res_mul(place, _res_pow(place, rf, n), _res_pow(place, rg, -m))
        if (m * n) % 2:
            r = _res_neg(place, r)
        out = _res_mul(place, out, _res_pow(place, r, mult))
    return out


def steinberg_check(f: RationalFn) -> bool:
    """All tame residues of {f, 1-f} equal 1."""
    if not f or f == RationalFn.constant(f.field, f.vars, 1):
        raise InvalidInput("Steinberg check needs f outside {0, 1}")
    sym = K2Symbol.pair(f, 1 - f)
    for place in support_places(sym):
        if tame_symbol(sym, place) != _res_one(place):
            return False
    return True


def weil_reciprocity_check(f: RationalFn, g: RationalFn) -> bool:
    """Product over all places of the residue-field norms of the tame
    symbols equals 1 — a global law that exercises every local path."""
    sym = K2Symbol.pair(f, g)
    field = f.field
    total = 1
    for place in support_places(sym):
        total = field.mul(total, _res_norm(place, tame_symbol(sym, place)))
    return total == 1

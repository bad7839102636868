"""Symbols over F_q(t): tame residues at every place, the Steinberg
relation, and Weil reciprocity through explicit residue-field norms.

A tame residue splits each of the four dense parts of f and g once at
the place, `place._split(a) -> (k, r)`: a finite place by one
repeated-division pass, the infinite place by degree and leading
coefficient, so the symbol never asks which kind of place it is at.
Residues enter only where the partner's exponent is nonzero, and the
symbol inverts at most once.  The parts are the dense tuples a
function converts once and keeps, so a check converts f and g once for
all its places.  The support of {f, g} is read off the same parts, by
`poly.factor_univariate` and their degrees, with no divisor.

Residues are computed in each place's residue field `place.ring`: the
FiniteField itself at degree-one and infinite places, a QuotientRing
above them.  Both answer one, mul, pow, inv, neg and norm; a
QuotientRing F_q[t]/(pi) inverts by extended Euclid and takes the norm
of a as the resultant Res(pi, a), by Euclid on dense lists.
"""

from __future__ import annotations

from functools import reduce

from .errors import InvalidInput
from .fields import RationalFn
from .poly import factor_univariate
from .valuations import InfinitePlace, place_of


def support_places(f: RationalFn, g: RationalFn) -> list:
    """Places where f or g has nonzero value: the factors of their dense
    parts by `Poly.sort_key`, then infinity if a part pair differs in degree."""
    if len(f.vars) != 1 or len(g.vars) != 1:
        raise InvalidInput("symbols are taken in F_q(t)")
    F, var = f.field, f.vars[0]
    finite: dict = {}
    has_inf = False
    for h in (f, g):
        if not h:
            raise InvalidInput("zero has no divisor")
        num, den = h.dense_parts()
        has_inf = has_inf or len(num) != len(den)
        for part in (num, den):
            for pi, _ in factor_univariate(F, var, part)[1]:
                finite[pi] = None
    # in lowest terms every factor of a part has nonzero value
    places = [place_of(pi) for pi in sorted(finite, key=lambda p: p.sort_key())]
    if has_inf:
        places.append(InfinitePlace(F, var))
    return places


def tame_symbol(f: RationalFn, g: RationalFn, place):
    """Residue of the symbol {f, g} at one place:
    (-1)^(mn) f^n / g^m with m = val(f), n = val(g).

    Each dense part of f = fn/fd and g = gn/gd is split once at the
    place into its multiplicity k and the residue r of its cofactor, so
    m = k_fn - k_fd, n = k_gn - k_gd, and the symbol is
    (-1)^(mn) r_fn^n r_fd^(-n) r_gn^(-m) r_gd^m.  Parts raised to 0 are
    skipped, those with a positive and those with a negative exponent
    are multiplied apart, and the second product is inverted once.
    """
    if not (f and g):
        raise InvalidInput("the zero element has no value")
    split = place._split
    fn, fd = f.dense_parts()
    gn, gd = g.dense_parts()
    kfn, rfn = split(fn)
    kfd, rfd = split(fd)
    kgn, rgn = split(gn)
    kgd, rgd = split(gd)
    m, n = kfn - kfd, kgn - kgd
    ring = place.ring
    if not (m or n):
        return ring.one
    up, down = [], []
    for r, e in ((rfn, n), (rfd, -n), (rgn, -m), (rgd, m)):
        if e:
            a = abs(e)
            (up if e > 0 else down).append(r if a == 1 else ring.pow(r, a))
    # m or n is nonzero and enters once with each sign: neither list is empty
    r = ring.mul(reduce(ring.mul, up), ring.inv(reduce(ring.mul, down)))
    if (m * n) % 2:
        r = ring.neg(r)
    return r


def steinberg_check(f: RationalFn) -> bool:
    """All tame residues of {f, 1-f} equal 1."""
    if not f or f.dense_parts() == ((1,), (1,)):
        raise InvalidInput("Steinberg check needs f outside {0, 1}")
    g = 1 - f
    return all(tame_symbol(f, g, place) == place.ring.one for place in support_places(f, g))


def weil_reciprocity_check(f: RationalFn, g: RationalFn) -> bool:
    """Product over all places of the residue-field norms of the tame
    symbols equals 1 — a global law that exercises every local path."""
    norms = (place.ring.norm(tame_symbol(f, g, place)) for place in support_places(f, g))
    return reduce(f.field.mul, norms, 1) == 1

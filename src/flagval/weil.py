"""Integer characters K*/k* -> Z built from valuations, their values on
one-dimensional subfields, and the inertia / c-pair machinery.

Everything is arena-relative: an arena is a finite list of multiplicative
generators (canonical irreducible polynomials), and all linear algebra
happens on integer value vectors over that list.  A place's unit
lattice is the kernel of its value rows, and solving for an inertia
space is a kernel-of-kernel computation over Z; both take what the
caller holds, so a place's values are taken once.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlin
from .errors import InvalidInput, ProportionalPair
from .fields import RationalFn, compose_rational
from .poly import monic_irreducibles
from .valuations import CompositePlace

SUBFIELD_GEN_DEGREE = 2  # generators P(h) of k(h) have deg P <= this


class WeilElement:
    """Integer character of a place on K*/k*: f -> character . val(f),
    one integer coefficient per component of the value group."""

    def __init__(self, place, character=None):
        ncomp = 2 if isinstance(place, CompositePlace) else 1
        character = tuple(character if character is not None else [1] * ncomp)
        if len(character) != ncomp:
            raise InvalidInput(f"character needs {ncomp} coefficients")
        self.place = place
        self.character = character

    def evaluate(self, f) -> int:
        v = self.place.val(f)
        if not isinstance(v, tuple):
            v = (v,)
        return sum(c * x for c, x in zip(self.character, v))

    def values_on(self, gens) -> tuple[int, ...]:
        return tuple(self.evaluate(g) for g in gens)


# -- subfield generators -------------------------------------------------


def subfield_generators(h: RationalFn):
    """Generators of k(h)*/k* up to SUBFIELD_GEN_DEGREE: every monic
    irreducible P over k, evaluated at h.  Pairs (P, P(h))."""
    if not isinstance(h, RationalFn) or h.is_constant():
        raise InvalidInput("subfields are generated by a nonconstant RationalFn")
    out = []
    for P in monic_irreducibles(h.field.q, "s", SUBFIELD_GEN_DEGREE):
        out.append((P, compose_rational(P, h)))
    return out


# -- inertia -----------------------------------------------------------


def value_matrix(place, gens) -> list[list[int]]:
    """The place's values on gens, one row per generator: a rank-one
    place gives rows of length 1, a composite place rows of length 2."""
    rows = []
    for g in gens:
        v = place.val(g)
        rows.append(list(v) if isinstance(v, tuple) else [v])
    return rows


def is_inertia(values, units) -> bool:
    """Does a character with these generator values vanish on every unit
    in the arena span?  By additivity, on the lattice basis `units`."""
    return not any(sum(a * b for a, b in zip(x, values)) for x in units)


def solve_inertia(units, n: int) -> list[list[int]]:
    """All integer rows over n generators that vanish on the unit lattice
    basis `units`, the kernel of the kernel: for a finite place inside a
    big enough arena, Z times the place's own value vector."""
    if not units:
        # no unit directions detected: every row qualifies
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    transposed = [[row[j] for row in units] for j in range(n)]
    return intlin.kernel_basis(transposed)


# -- c-pairs -----------------------------------------------------------


@dataclass(frozen=True)
class CPairVerdict:
    cyclic: bool
    # witness: (h, P_a, P_b, minor) with the 2x2 minor nonzero in R
    witness: tuple | None = None


def _minor(a, b, c, d) -> int:
    return a * d - b * c


def c_pair_test(gamma: WeilElement, gamma_p: WeilElement, family) -> CPairVerdict:
    """Cyclic iff on every subfield k(h) of the family the two value rows
    are proportional (all 2x2 minors vanish).

    The pair must be independent somewhere on the tested generators,
    otherwise ProportionalPair is raised (the test presumes a rank-2
    span).  Witnesses are re-verified by fresh evaluation.
    """
    found = None
    all_pairs = []
    for h in family:
        restricted = [
            (P, gamma.evaluate(fh), gamma_p.evaluate(fh)) for P, fh in subfield_generators(h)
        ]
        all_pairs.extend((a, b) for _, a, b in restricted)
        if found is None:
            for i in range(len(restricted)):
                for j in range(i + 1, len(restricted)):
                    Pa, a1, b1 = restricted[i]
                    Pb, a2, b2 = restricted[j]
                    m = _minor(a1, a2, b1, b2)
                    if m:
                        found = (h, Pa, Pb, m)
                        break
                if found:
                    break
    # rank-2 precondition on everything seen
    independent = any(
        _minor(a1, a2, b1, b2)
        for i, (a1, b1) in enumerate(all_pairs)
        for (a2, b2) in all_pairs[i + 1 :]
    )
    if not independent:
        raise ProportionalPair("the two characters are proportional on the arena")
    if found is None:
        return CPairVerdict(True)
    h, Pa, Pb, m = found
    # independent re-verification of the witness
    fa = compose_rational(Pa, h)
    fb = compose_rational(Pb, h)
    again = _minor(
        gamma.evaluate(fa), gamma.evaluate(fb), gamma_p.evaluate(fa), gamma_p.evaluate(fb)
    )
    if again != m:
        raise AssertionError("witness minor failed re-verification")
    return CPairVerdict(False, witness=(str(h), str(Pa), str(Pb), m))


def _unit_element(gens, exponents) -> RationalFn:
    out = None
    for g, e in zip(gens, exponents):
        if e == 0:
            continue
        piece = g**e
        out = piece if out is None else out * piece
    if out is None:
        raise InvalidInput("trivial exponent vector")
    return out


def find_supporting_valuation(
    gamma: WeilElement,
    gamma_p: WeilElement,
    universe,
    gens,
):
    """First place in the universe whose unit lattice kills a nontrivial
    combination r*gamma + r'*gamma_p; returns (place, (r, r')) or None.

    Candidates (r, r') are solved from the dot products of the unit
    lattice basis with the two value rows, then re-verified by direct
    evaluation on actual unit elements (products of generators).
    """
    gvals = gamma.values_on(gens)
    pvals = gamma_p.values_on(gens)
    for place in universe:
        units = intlin.kernel_basis(value_matrix(place, gens))
        a_row = [sum(x * v for x, v in zip(u, gvals)) for u in units]
        b_row = [sum(x * v for x, v in zip(u, pvals)) for u in units]
        combos = intlin.kernel_basis([a_row, b_row]) if units else [[1, 0]]
        for r, rp in combos:
            if r == 0 and rp == 0:
                continue
            # independent route: evaluate the combination on real units
            ok = True
            for u in units:
                elem = _unit_element(gens, u)
                total = r * gamma.evaluate(elem) + rp * gamma_p.evaluate(elem)
                if total:
                    ok = False
                    break
            if ok:
                return place, (r, rp)
    return None

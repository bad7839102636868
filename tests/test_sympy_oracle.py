"""The algebra layers against sympy, an implementation flagval shares no
code or conventions with.

sympy is imported at the top on purpose: without it this file fails to
collect, and the run shows that instead of a skip.  No module under
src/ imports sympy.
"""

import itertools

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor

from flagval.ff import FiniteField
from flagval.poly import Poly, factor_univariate


@pytest.mark.parametrize("p,max_deg", [(2, 8), (3, 6), (5, 4), (7, 4), (11, 3)])
def test_factor_univariate_agrees_with_gf_factor(p, max_deg):
    # every monic polynomial of degree <= max_deg over the prime field
    # GF(p); galoistools factors by distinct-degree and equal-degree
    # splitting (Cantor-Zassenhaus), flagval by roots and trial division
    F = FiniteField(p)
    for d in range(max_deg + 1):
        for tail in itertools.product(range(p), repeat=d):
            dense = list(tail) + [1]  # constant term first
            unit, parts = factor_univariate(Poly.from_dense(F, "t", dense))
            ours = sorted((tuple(g.to_dense()[::-1]), k) for g, k in parts.items())
            lc, theirs = gf_factor(dense[::-1], p, ZZ)  # leading coefficient first
            assert (unit, ours) == (int(lc), sorted((tuple(map(int, g)), k) for g, k in theirs))

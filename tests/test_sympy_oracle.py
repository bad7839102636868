"""The algebra layers against sympy, an implementation flagval shares no
code or conventions with.

sympy is imported at the top on purpose: without it this file fails to
collect, and the run shows that instead of a skip.  No module under
src/ imports sympy.
"""

import itertools
import random

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.domains import GF, ZZ
from sympy.polys.galoistools import gf_add, gf_factor, gf_mul, gf_mul_ground, gf_pow
from sympy.polys.matrices import DomainMatrix

from flagval import fqlin, intlin, reconstruct
from flagval.ff import FiniteField
from flagval.fields import from_divisor
from flagval.poly import Poly, factor, monic_irreducibles
from flagval.suites import SuiteConfig, run_suite
from flagval.valuations import QuotientRing


@pytest.mark.parametrize("p,max_deg", [(2, 8), (3, 6), (5, 4), (7, 4), (11, 3)])
def test_factor_univariate_agrees_with_gf_factor(p, max_deg):
    # every monic polynomial of degree <= max_deg over the prime field
    # GF(p); galoistools factors by distinct-degree and equal-degree
    # splitting (Cantor-Zassenhaus), flagval by roots and trial division
    F = FiniteField(p)
    for d in range(max_deg + 1):
        for tail in itertools.product(range(p), repeat=d):
            dense = list(tail) + [1]  # constant term first
            unit, parts = factor(Poly.from_dense(F, "t", dense))
            ours = sorted((tuple(g.to_dense()[::-1]), k) for g, k in parts.items())
            lc, theirs = gf_factor(dense[::-1], p, ZZ)  # leading coefficient first
            assert (unit, ours) == (int(lc), sorted((tuple(map(int, g)), k) for g, k in theirs))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_residue_norm_is_the_resultant(p):
    # for every monic irreducible pi of degree 2 and 3, the norm of a in
    # F_p[t]/(pi) is Res(pi, a); every element of a ring of order <= 27,
    # and a seeded sample of eight in each larger one
    t = sympy.Symbol("t")
    rng = random.Random(p)
    for pi in monic_irreducibles(p, "t", 3):
        if pi.degree() < 2:
            continue
        ring = QuotientRing(pi)
        elements = list(itertools.product(range(p), repeat=ring.d))
        if len(elements) > 27:
            elements = rng.sample(elements, 8)
        modulus = sympy.Poly(pi.to_dense()[::-1], t, modulus=p)  # leading coefficient first
        for a in elements:
            theirs = modulus.resultant(sympy.Poly(list(a)[::-1], t, modulus=p))
            assert ring.norm(a) == int(theirs) % p, (str(pi), a)


# the round trips over GF(2) and GF(3) pinned in tests/test_golden.py
# whose arenas take well under a second to build
ROUND_TRIPS = [
    {"place": "curve:x", "arena_deg": 1, "samples": 10},
    {"q": 2, "arena_deg": 2, "place": "curve:x^2+y", "samples": 50},
    {"q": 2, "arena_deg": 2, "place": "curve:y^2+x", "samples": 50},
    {"q": 2, "arena_deg": 2, "place": "curve:x^2+x+y", "samples": 50},
]


def _pairs_certified_by_degree(monkeypatch):
    """Every pair (a, b) that reconstruct._related answers "dependent"
    without the annihilator search across the round trips, with the
    bound it was asked at."""
    search, related = reconstruct.algebraically_dependent, reconstruct._related
    searches = []
    certified = {}

    def counted_search(f, g, bound):
        searches.append(bound)
        return search(f, g, bound)

    def spy(a, b, bound):
        before = len(searches)
        out = related(a, b, bound)
        nontrivial = not (a.is_trivial() or b.is_trivial())
        if out and nontrivial and a.class_key() != b.class_key() and len(searches) == before:
            certified.setdefault(frozenset((a.class_key(), b.class_key())), (a, b, bound))
        return out

    monkeypatch.setattr(reconstruct, "algebraically_dependent", counted_search)
    monkeypatch.setattr(reconstruct, "_related", spy)
    for cfg in ROUND_TRIPS:
        run_suite(SuiteConfig(suite="reconstruct-roundtrip", **cfg))
    monkeypatch.undo()
    return list(certified.values())


def _in_one_variable(a, b):
    """(p, an, ad, bn, bd): the parts of a and b as dense coefficient
    lists, leading coefficient first, in the one variable they share."""
    fa, fb = from_divisor(a), from_divisor(b)
    parts = (fa.num, fa.den, fb.num, fb.den)
    (slot,) = {i for part in parts for e in part.coeffs for i, k in enumerate(e) if k}
    dense = []
    for part in parts:
        out = [0] * (part.degree() + 1)
        for e, c in part.coeffs.items():
            out[-1 - e[slot]] = c
        dense.append(tuple(out))
    return (fa.field.q, *dense)


def test_degree_rule_resultant_annihilates(monkeypatch):
    # the degree rule's proof: for a of degree m and b of degree n in one
    # variable x, R = Res_x(ad(x) U - an(x), bd(x) V - bn(x)) is nonzero,
    # of bidegree <= (n, m), and R(a, b) = 0.  Computed over GF(p), never
    # over ZZ, where a leading coefficient could vanish mod p.  A pair and
    # its swap make one check
    x, U, V = sympy.symbols("x U V")
    cases = {}
    for a, b, bound in _pairs_certified_by_degree(monkeypatch):
        p, *parts = _in_one_variable(a, b)
        cases.setdefault((p, *min(parts, parts[2:] + parts[:2])), bound)
    assert len(cases) >= 100
    for (p, an, ad, bn, bd), bound in cases.items():
        m, n = max(len(an), len(ad)) - 1, max(len(bn), len(bd)) - 1
        assert max(m, n) <= bound

        def line(den, num, w):  # den(x) * w - num(x)
            den, num = (sympy.Poly(list(c), x, modulus=p).as_expr() for c in (den, num))
            return sympy.Poly(den * w - num, x, U, V, modulus=p)

        R = line(ad, an, U).resultant(line(bd, bn, V))
        assert not R.is_zero, (p, an, ad, bn, bd)
        assert R.degree(U) <= n and R.degree(V) <= m, (p, an, ad, bn, bd, R)
        # R(a, b) ad^n bd^m is a polynomial in x, and must be zero
        at = []
        for (i, j), c in R.terms():
            ua = gf_mul(gf_pow(list(an), i, p, ZZ), gf_pow(list(ad), n - i, p, ZZ), p, ZZ)
            vb = gf_mul(gf_pow(list(bn), j, p, ZZ), gf_pow(list(bd), m - j, p, ZZ), p, ZZ)
            at = gf_add(at, gf_mul_ground(gf_mul(ua, vb, p, ZZ), int(c) % p, p, ZZ), p, ZZ)
        assert at == [], (p, an, ad, bn, bd, R)


def _low_rank(rng, p, rows, cols):
    k = rng.randint(0, min(rows, cols))
    A = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
    B = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_rank_and_nullspace_agree_with_domain_matrix(p):
    # sympy scales each kernel vector differently; scaled to end in 1 it
    # is the canonical basis fqlin returns (1 at its free column, 0 at
    # the other free columns and past it)
    F, K = FiniteField(p), GF(p)
    rng = random.Random(p)
    shapes = [(rng.randint(1, 20), rng.randint(1, 25)) for _ in range(12)] + [(3, 4), (25, 6)]
    for rows, cols in shapes:
        for M in (_low_rank(rng, p, rows, cols), [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]):
            dm = DomainMatrix.from_list(M, K)
            assert fqlin.rank(F, M) == dm.rank(), M
            theirs = []
            for row in dm.nullspace().to_list():
                vec = [int(v) % p for v in row]
                last = next(v for v in reversed(vec) if v)
                theirs.append([F.div(v, last) for v in vec])
            assert fqlin.nullspace(F, M) == theirs, M


def _contains(basis, vectors):
    """Whether the lattice that sympy's column-style HNF `basis` spans
    holds every column of `vectors`: adding them leaves the form as it is."""
    return sympy_hnf(basis.row_join(vectors)) == basis


def test_hermite_normal_form_spans_the_lattice_sympy_finds():
    # flagval's HNF is row-style and sympy's column-style, so the forms
    # differ; the lattices they span must be equal, by containment both
    # ways, on seeded integer matrices of up to 5x5, many of low rank
    rng = random.Random(5)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.5:  # a product through k columns: rank <= k
            k = rng.randint(0, min(rows, cols))
            A = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
            B = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
            M = [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]
        else:
            M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        H, _ = intlin.hermite_normal_form(M)
        ours, given = sympy.Matrix(H).T, sympy.Matrix(M).T  # lattice vectors as columns
        assert _contains(sympy_hnf(given), ours) and _contains(sympy_hnf(ours), given), M


def test_smith_normal_form_diagonal_is_the_invariant_factors():
    # the diagonal against sympy's invariant factors, which it pads with
    # zeros to min(rows, cols), on seeded integer matrices of up to 5x5,
    # many of low rank, so the row and column operations run
    rng = random.Random(7)
    for _ in range(400):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.5:  # a product through k columns: rank <= k
            k = rng.randint(0, min(rows, cols))
            A = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
            B = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
            M = [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]
        else:
            M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag, _ = intlin.smith_normal_form(M, cols)
        theirs = invariant_factors(sympy.Matrix(M), domain=ZZ)
        assert diag + [0] * (min(rows, cols) - len(diag)) == [int(d) for d in theirs], M

"""Finite projective spaces P^n(F_q) and embedded subspaces of P_k(K).

Geometry objects are cached per (n, q) and carry points in a canonical
lexicographic order, all proper subspaces, the lines as point tuples and
as ones masks (bit i is point i), the full chains used by the flag
machinery, and the table of strata those chains and the lines test.
Point counts are the usual (q^(n+1)-1)/(q-1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import fqlin
from .errors import InvalidInput, SizeBound
from .fields import RationalFn
from .ff import FiniteField

MAX_POINTS = 500


def normalize_coords(field: FiniteField, vec: tuple[int, ...]) -> tuple[int, ...] | None:
    """Scale so the first nonzero coordinate is 1; None for the zero vector."""
    lead = next((x for x in vec if x), None)
    if lead is None:
        return None
    if lead == 1:
        return tuple(vec)
    inv = field.inv(lead)
    return tuple(field.mul(inv, x) for x in vec)


@dataclass(frozen=True)
class ProjPoint:
    q: int
    coords: tuple[int, ...]


@dataclass(frozen=True)
class ProjSubspace:
    """Canonical subspace: reduced-echelon basis plus its point set."""

    q: int
    basis: tuple[tuple[int, ...], ...]
    points: frozenset[int]  # indices into the owning geometry

    @property
    def dim(self) -> int:
        return len(self.basis) - 1


@dataclass(frozen=True)
class StratumTable:
    """Each stratum a flag or line check tests, stored once per geometry.

    Stratum k is the point tuple strata[k] and the point bitmask
    masks[k].  Only strata of two or more points appear: every map is
    constant on one point.  chains[c] holds the stratum ids of the
    geometry's chain c and lines[l] the ids of the strata "line l minus
    one of its points", both as bitmasks over stratum ids.  A line minus
    a point is the second stratum of every chain through that point and
    line, so chains and lines share the one table.
    """

    strata: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]
    chains: tuple[int, ...]
    lines: tuple[int, ...]

    @classmethod
    def build(cls, chains, lines) -> "StratumTable":
        ids: dict[tuple[int, ...], int] = {}

        def id_mask(strata) -> int:
            out = 0
            for s in strata:
                if len(s) > 1:
                    out |= 1 << ids.setdefault(s, len(ids))
            return out

        chain_ids = tuple(id_mask(chain) for chain in chains)
        line_ids = tuple(id_mask(line[:i] + line[i + 1 :] for i in range(len(line))) for line in lines)
        strata = tuple(ids)
        masks = tuple(sum(1 << i for i in s) for s in strata)
        return cls(strata, masks, chain_ids, line_ids)


class ProjGeometry:
    """All incidence data of P^n(F_q) needed by the flag machinery."""

    def __init__(self, n: int, q: int) -> None:
        if n < 1:
            raise InvalidInput("projective dimension must be >= 1")
        field = FiniteField(q)
        count = (q ** (n + 1) - 1) // (q - 1)
        if count > MAX_POINTS:
            raise SizeBound(f"P^{n}(F_{q}) has {count} points; limit {MAX_POINTS}")
        self.n = n
        self.q = q
        self.field = field
        self.points: list[ProjPoint] = []
        seen = set()
        for vec in itertools.product(field.elements(), repeat=n + 1):
            norm = normalize_coords(field, vec)
            if norm is not None and norm not in seen:
                seen.add(norm)
                self.points.append(ProjPoint(q, norm))
        self.points.sort(key=lambda p: p.coords)
        assert len(self.points) == count
        self.index = {p.coords: i for i, p in enumerate(self.points)}
        self.subspaces: dict[int, list[ProjSubspace]] = {}
        for d in range(1, n):
            self.subspaces[d] = self._enumerate_subspaces(d)
        if n == 1:
            self.lines = [tuple(range(count))]  # P^1 is its own only line
        else:
            self.lines = [tuple(sorted(s.points)) for s in self.subspaces[1]]
        self.line_masks = tuple(sum(1 << i for i in line) for line in self.lines)
        self.chains = self._enumerate_chains()
        self.strata = StratumTable.build(self.chains, self.lines)

    def span(self, indices: list[int]) -> ProjSubspace:
        rows = [list(self.points[i].coords) for i in indices]
        basis, _ = fqlin.rref(self.field, rows)
        pts = set()
        k = len(basis)
        for coef in itertools.product(self.field.elements(), repeat=k):
            vec = [0] * (self.n + 1)
            for c, row in zip(coef, basis):
                if c:
                    for j, x in enumerate(row):
                        vec[j] = self.field.add(vec[j], self.field.mul(c, x))
            norm = normalize_coords(self.field, tuple(vec))
            if norm is not None:
                pts.add(self.index[norm])
        return ProjSubspace(self.q, tuple(tuple(r) for r in basis), frozenset(pts))

    def _enumerate_subspaces(self, d: int) -> list[ProjSubspace]:
        out: dict[frozenset[int], ProjSubspace] = {}
        for combo in itertools.combinations(range(len(self.points)), d + 1):
            s = self.span(list(combo))
            if s.dim == d and s.points not in out:
                out[s.points] = s
        return sorted(out.values(), key=lambda s: tuple(sorted(s.points)))

    def _enumerate_chains(self) -> list[tuple[tuple[int, ...], ...]]:
        """Full chains as stratum tuples (dims 0 .. n-1, then the rest).

        A chain point < line < ... yields strata: the point, line minus
        point, ..., space minus the top proper subspace.
        """
        levels: list[list[frozenset[int]]] = [
            [frozenset([i]) for i in range(len(self.points))]
        ]
        for d in range(1, self.n):
            levels.append([s.points for s in self.subspaces[d]])
        chains: list[tuple[tuple[int, ...], ...]] = []

        def grow(prefix: list[frozenset[int]], depth: int) -> None:
            if depth == len(levels):
                strata = []
                prev: frozenset[int] = frozenset()
                for s in prefix:
                    strata.append(tuple(sorted(s - prev)))
                    prev = s
                strata.append(tuple(sorted(set(range(len(self.points))) - prev)))
                chains.append(tuple(strata))
                return
            for s in levels[depth]:
                if prefix[-1] < s:
                    grow(prefix + [s], depth + 1)

        for p in levels[0]:
            grow([p], 1)
        return chains


@lru_cache(maxsize=None)
def geometry(n: int, q: int) -> ProjGeometry:
    return ProjGeometry(n, q)


class EmbeddedSubspace:
    """P^n(1, f_0, ..., f_n) inside P_k(K): an abstract P^n(F_q) whose
    points carry the rational function they stand for.

    The constructor checks the generators for independence and sums and
    normalises every point function; `line(g)` builds a line l(1, g)
    without either, since its point functions are known in lowest terms.
    """

    def __init__(self, gens: list[RationalFn]) -> None:
        if len(gens) < 2:
            raise InvalidInput("an embedded subspace needs at least 2 generators")
        F = gens[0].field
        vars = gens[0].vars
        self.field = F
        self.vars = vars
        self._check_independent(gens)
        self.geometry = geometry(len(gens) - 1, F.q)
        self.functions: list[RationalFn] = []
        for pt in self.geometry.points:
            f = RationalFn.constant(F, vars, 0)
            for c, g in zip(pt.coords, gens):
                if c:
                    f = f + g * c
            if not f:
                raise InvalidInput("generators produced a vanishing combination")
            self.functions.append(f)

    @classmethod
    def line(cls, g: RationalFn) -> "EmbeddedSubspace":
        """l(1, g), trusted.  With g = n/d canonical (d monic, and n, d
        coprime wherever RationalFn cancels), the point (c0:c1) with
        c1 != 0 is (c0 d + c1 n)/d, as canonical as g: a common factor
        of d and c0 d + c1 n divides c1 n.  The point (1:0) is the
        constant 1, and g not constant is independence from 1.
        """
        if g.is_constant():
            raise InvalidInput("a line l(1, g) needs a non-constant g")
        F = g.field
        self = object.__new__(cls)
        self.field = F
        self.vars = g.vars
        self.geometry = geometry(1, F.q)
        n, d = g.num, g.den
        self.functions = [
            RationalFn._make(d * c0 + n * c1, d) if c1 else RationalFn.constant(F, g.vars, c0)
            for c0, c1 in (pt.coords for pt in self.geometry.points)
        ]
        return self

    @staticmethod
    def _check_independent(gens: list[RationalFn]) -> None:
        # clear denominators and compare numerator coefficient vectors exactly
        F = gens[0].field
        cleared = []
        for g in gens:
            num = g.num
            for h in gens:
                if h is not g:
                    num = num * h.den
            cleared.append(num)
        monomials = sorted({e for p in cleared for e in p.coeffs})
        rows = [[p.coeffs.get(m, 0) for m in monomials] for p in cleared]
        if fqlin.rank(F, rows) != len(gens):
            raise InvalidInput("generators are linearly dependent over the ground field")

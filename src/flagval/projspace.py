"""Finite projective spaces P^n(F_q) and embedded subspaces of P_k(K).

Geometry objects are cached per (n, q) and carry points in a canonical
lexicographic order, all proper subspaces as ones masks (bit i is point
i), the lines as point tuples and as masks, the full chains used by the
flag machinery, and the table of strata those chains and the lines
test.  Point counts are the usual (q^(n+1)-1)/(q-1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import fqlin
from .errors import InvalidInput, SizeBound
from .fields import RationalFn
from .ff import FiniteField
from .poly import Poly

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


def _ids(mask: int) -> tuple[int, ...]:
    """The point indices of a ones mask, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return tuple(ids)


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
    """All incidence data of P^n(F_q) needed by the flag machinery.

    Each line is found once, from its first pair of points i < j on no
    line yet: it is j and i + c*j for every c.  A subspace of dimension
    d >= 2 is the join of one of dimension d - 1 and a point p outside
    it, the OR of the lines from p to its points.  subspaces[d] lists
    the masks of dimension d, 1 <= d < n, in point-tuple order.
    """

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
        norms = (normalize_coords(field, vec) for vec in itertools.product(field.elements(), repeat=n + 1))
        self.points: list[tuple[int, ...]] = sorted({p for p in norms if p is not None})
        assert len(self.points) == count
        index = {p: i for i, p in enumerate(self.points)}
        add, mul = field._add, field._mul
        through = [[0] * count for _ in range(count)]  # through[a][b]: mask of the line on points a, b
        self.lines: list[tuple[int, ...]] = []
        masks: list[int] = []
        for i, a in enumerate(self.points):
            for j in range(i + 1, count):
                if through[i][j]:
                    continue
                b = self.points[j]
                line = sorted(
                    [i, j]
                    + [index[normalize_coords(field, tuple(add[x][mul[c][y]] for x, y in zip(a, b)))] for c in range(1, q)]
                )
                mask = sum(1 << k for k in line)
                for k in line:
                    row = through[k]
                    for m in line:
                        row[m] = mask
                self.lines.append(tuple(line))
                masks.append(mask)
        self.line_masks = tuple(masks)
        levels = [[1 << i for i in range(count)], masks]
        while len(levels) < n:
            levels.append(_joins(levels[-1], through))
        del levels[n:]  # P^1 is its own only line
        self.subspaces = {d: levels[d] for d in range(1, n)}
        self.chains = _chains(levels, (1 << count) - 1)
        self.strata = StratumTable.build(self.chains, self.lines)


def _joins(level: list[int], through: list[list[int]]) -> list[int]:
    """The subspaces one dimension up from those of level, sorted: each
    s joined with the points p outside every join of s found so far."""
    found = set()
    for s in level:
        covered = s
        for p, row in enumerate(through):
            if not covered >> p & 1:
                t = s
                for k in _ids(s):
                    t |= row[k]
                covered |= t
                found.add(t)
    return sorted(found, key=_ids)


def _chains(levels: list[list[int]], full: int) -> list[tuple[tuple[int, ...], ...]]:
    """Full chains as stratum tuples (dims 0 .. n-1, then the rest).

    A chain point < line < ... yields strata: the point, line minus
    point, ..., space minus the top proper subspace.  Each distinct
    stratum mask is converted to its point tuple once, and chains
    through it share that tuple.
    """
    chains: list[tuple[tuple[int, ...], ...]] = []
    strata: dict[int, tuple[int, ...]] = {}

    def stratum(mask: int) -> tuple[int, ...]:
        ids = strata.get(mask)
        if ids is None:
            ids = strata[mask] = _ids(mask)
        return ids

    def grow(prefix: list[int]) -> None:
        if len(prefix) == len(levels):
            steps = prefix + [full]
            chains.append(tuple(stratum(s ^ prev) for s, prev in zip(steps, [0] + prefix)))
            return
        top = prefix[-1]
        for s in levels[len(prefix)]:
            if s & top == top:
                grow(prefix + [s])

    for p in levels[0]:
        grow([p])
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
            for c, g in zip(pt, gens):
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
        of d and c0 d + c1 n divides c1 n.  Its numerator is summed in
        one pass over the coefficients of d and n through the field
        tables.  The point (1:0) is the constant 1, and g not constant
        is independence from 1.
        """
        if g.is_constant():
            raise InvalidInput("a line l(1, g) needs a non-constant g")
        F = g.field
        add, mul = F._add, F._mul
        self = object.__new__(cls)
        self.field = F
        self.vars = g.vars
        self.geometry = geometry(1, F.q)
        n, d = g.num, g.den
        one = d._one()
        self.functions = []
        for c0, c1 in self.geometry.points:
            if not c1:  # (1:0)
                self.functions.append(RationalFn._make(one, one))
                continue
            m0, m1 = mul[c0], mul[c1]
            out = {e: m0[c] for e, c in d.coeffs.items()} if c0 else {}
            for e, c in n.coeffs.items():
                out[e] = add[out.get(e, 0)][m1[c]]
            self.functions.append(RationalFn._make(Poly._make(F, g.vars, {e: c for e, c in out.items() if c}), d))
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

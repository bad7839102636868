"""Hand-rolled exact integer linear algebra.

Row-style Hermite reduction, Smith normal form with column transform,
integer kernels, and an incremental row lattice with membership and
finitely-generated-quotient extraction.  All matrices here are small;
clarity beats asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hermite_normal_form(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """(H, T) with T unimodular, T @ rows = H, H in row echelon form.

    Pivots are positive; entries above each pivot are reduced modulo it.
    Zero rows sink to the bottom.
    """
    m = len(rows)
    H = [list(r) for r in rows]
    T = [[0] * m for _ in range(m)]
    for i in range(m):
        T[i][i] = 1
    if m == 0:
        return H, T
    n = len(H[0])
    r = 0
    for c in range(n):
        # clear column c below row r by gcd combinations
        while True:
            nz = [i for i in range(r + 1, m) if H[i][c]]
            if not nz:
                break
            if H[r][c] == 0:
                i = nz[0]
                H[r], H[i] = H[i], H[r]
                T[r], T[i] = T[i], T[r]
                continue
            i = nz[0]
            a, b = H[r][c], H[i][c]
            if a and b % a == 0:
                q = b // a
                H[i] = [x - q * y for x, y in zip(H[i], H[r])]
                T[i] = [x - q * y for x, y in zip(T[i], T[r])]
            else:
                g, s, t = xgcd(a, b)
                u, v = a // g, b // g
                newr = [s * x + t * y for x, y in zip(H[r], H[i])]
                newt = [s * x + t * y for x, y in zip(T[r], T[i])]
                othr = [-v * x + u * y for x, y in zip(H[r], H[i])]
                otht = [-v * x + u * y for x, y in zip(T[r], T[i])]
                H[r], H[i] = newr, othr
                T[r], T[i] = newt, otht
        if H[r][c]:
            if H[r][c] < 0:
                H[r] = [-x for x in H[r]]
                T[r] = [-x for x in T[r]]
            p = H[r][c]
            for i in range(r):
                q = H[i][c] // p
                if q:
                    H[i] = [x - q * y for x, y in zip(H[i], H[r])]
                    T[i] = [x - q * y for x, y in zip(T[i], T[r])]
            r += 1
            if r == m:
                break
    return H, T


def kernel_basis(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the left kernel {x : x @ rows = 0} (a saturated lattice)."""
    m = len(rows)
    if m == 0:
        return []
    H, T = hermite_normal_form(rows)
    return [T[i] for i in range(m) if not any(H[i])]


def smith_normal_form(rows: list[list[int]], ncols: int) -> tuple[list[int], list[list[int]]]:
    """(diagonal, V) with U @ M @ V diagonal, V unimodular (U untracked).

    The diagonal entries are nonnegative with d1 | d2 | ... as usual.
    """
    M = [list(r) for r in rows]
    V = [[0] * ncols for _ in range(ncols)]
    for i in range(ncols):
        V[i][i] = 1
    m = len(M)

    def col_op(j, k, s, t, u, v):
        # (col_j, col_k) <- (s*col_j + t*col_k, u*col_j + v*col_k)
        for row in M:
            row[j], row[k] = s * row[j] + t * row[k], u * row[j] + v * row[k]
        for row in V:
            row[j], row[k] = s * row[j] + t * row[k], u * row[j] + v * row[k]

    def row_op(i, k, s, t, u, v):
        M[i], M[k] = (
            [s * x + t * y for x, y in zip(M[i], M[k])],
            [u * x + v * y for x, y in zip(M[i], M[k])],
        )

    diag: list[int] = []
    top = 0
    left = 0
    while top < m and left < ncols:
        # locate a minimal nonzero entry in the working block
        best = None
        for i in range(top, m):
            for j in range(left, ncols):
                if M[i][j] and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        M[top], M[bi] = M[bi], M[top]
        if bj != left:
            col_op(left, bj, 0, 1, 1, 0)
        while True:
            dirty = False
            for i in range(top + 1, m):
                if M[i][left]:
                    a, b = M[top][left], M[i][left]
                    if b % a == 0:
                        row_op(i, top, 1, -(b // a), 0, 1)
                    else:
                        g, s, t = xgcd(a, b)
                        row_op(top, i, s, t, -(b // g), a // g)
                    dirty = True
            for j in range(left + 1, ncols):
                if M[top][j]:
                    a, b = M[top][left], M[top][j]
                    if b % a == 0:
                        col_op(j, left, 1, -(b // a), 0, 1)
                    else:
                        g, s, t = xgcd(a, b)
                        col_op(left, j, s, t, -(b // g), a // g)
                    dirty = True
            if not dirty:
                break
        # absorb any entry not divisible by the pivot
        p = M[top][left]
        bad = None
        for i in range(top + 1, m):
            for j in range(left + 1, ncols):
                if M[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(top, bad, 1, 1, 0, 1)
            continue
        diag.append(abs(p))
        top += 1
        left += 1
    return diag, V


@dataclass
class AbelianQuotient:
    """Z^ncols / rowspan, as torsion invariants plus a free part.

    coords(x) returns (torsion tuple, free tuple); x is in the lattice
    iff both parts are all zero.
    """

    ncols: int
    torsion: tuple[int, ...]
    free_rank: int
    _v: list[list[int]]
    _diag: list[int]

    def coords(self, x: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        y = [sum(x[i] * self._v[i][j] for i in range(self.ncols)) for j in range(self.ncols)]
        r = len(self._diag)
        tors = tuple(y[i] % self._diag[i] for i in range(r) if self._diag[i] > 1)
        free = tuple(y[r:])
        return tors, free


def quotient(ncols: int, rows: list[list[int]]) -> AbelianQuotient:
    diag, V = smith_normal_form(rows, ncols)
    torsion = tuple(d for d in diag if d > 1)
    return AbelianQuotient(ncols, torsion, ncols - len(diag), V, diag)


class RowLattice:
    """Incrementally built integer row lattice in echelon (pivot) form.

    Rows are sparse {column: value} dicts; designed for many short rows
    over a wide column space.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, dict[int, int]] = {}

    @staticmethod
    def _combine(v: dict[int, int], p: dict[int, int], k: int) -> dict[int, int]:
        if k == 0:
            return v
        out = dict(v)
        for c, x in p.items():
            val = out.get(c, 0) + k * x
            if val:
                out[c] = val
            else:
                out.pop(c, None)
        return out

    def add(self, vec: dict[int, int]) -> bool:
        """Insert a vector; returns True when the lattice grew."""
        grew = False
        stack = [{c: x for c, x in vec.items() if x}]
        while stack:
            v = stack.pop()
            while v:
                c = min(v)
                p = self.pivots.get(c)
                if p is None:
                    if v[c] < 0:
                        v = {k: -x for k, x in v.items()}
                    self.pivots[c] = v
                    grew = True
                    break
                a, b = p[c], v[c]
                if b % a == 0:
                    v = self._combine(v, p, -(b // a))
                else:
                    g, s, t = xgcd(a, b)
                    new = self._combine(
                        {k: s * x for k, x in p.items()}, v, t
                    )
                    self.pivots[c] = new
                    stack.append(self._combine(p, new, -(a // g)))
                    v = self._combine(v, new, -(b // g))
                    grew = True
        return grew

    def rows(self) -> list[dict[int, int]]:
        return [self.pivots[c] for c in sorted(self.pivots)]

    def quotient(self, ncols: int) -> AbelianQuotient:
        """Z^ncols modulo this lattice.

        Columns pinned by a +-1 unit pivot are eliminated first (they
        contribute nothing), so the Smith reduction only sees the small
        residual block.
        """
        rows = self.rows()
        unit_cols: set[int] = set()
        changed = True
        while changed:
            changed = False
            for r in rows:
                live = {c: x for c, x in r.items() if c not in unit_cols}
                if len(live) == 1:
                    ((c, x),) = live.items()
                    if abs(x) == 1 and c not in unit_cols:
                        unit_cols.add(c)
                        changed = True
        kept = [c for c in range(ncols) if c not in unit_cols]
        kept_index = {c: i for i, c in enumerate(kept)}
        reduced_rows = []
        for r in rows:
            live = {kept_index[c]: x for c, x in r.items() if c in kept_index}
            if live:
                dense = [0] * len(kept)
                for c, x in live.items():
                    dense[c] = x
                reduced_rows.append(dense)
        q = quotient(len(kept), reduced_rows)
        return _ProjectedQuotient(ncols, q, kept)


class _ProjectedQuotient:
    """Quotient of Z^ncols by a RowLattice, via column elimination."""

    def __init__(self, ncols: int, inner: AbelianQuotient, kept: list[int]):
        self.ncols = ncols
        self.torsion = inner.torsion
        self.free_rank = inner.free_rank
        self._inner = inner
        self._kept = kept

    def coords(self, sparse: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # eliminated columns satisfy e_c = 0 in the quotient, so they
        # simply drop out of the coordinates
        dense = [sparse.get(c, 0) for c in self._kept]
        return self._inner.coords(dense)

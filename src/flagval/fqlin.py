"""Dense exact linear algebra over a FiniteField.

Matrices are lists of row lists of field elements.  Everything here is
small (tens of rows/columns), so plain Gaussian elimination is enough;
its row operations go through the field's op tables.
"""

from __future__ import annotations

from .ff import FiniteField


def rref(field: FiniteField, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and the pivot column list."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    mul, sub, inv = field._mul, field._sub, field._inv
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        scale = mul[inv[m[r][c]]]
        pivot_row = m[r] = [scale[x] for x in m[r]]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                mf = mul[f]
                m[i] = [sub[x][mf[y]] for x, y in zip(row, pivot_row)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(field: FiniteField, rows: list[list[int]]) -> int:
    return len(rref(field, rows)[0])


def nullspace(field: FiniteField, rows: list[list[int]]) -> list[list[int]]:
    """Basis of {v : M v = 0} (right kernel)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(field, rows)
    neg = field._neg
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = neg[red[ri][fc]]
        basis.append(v)
    return basis

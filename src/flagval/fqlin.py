"""Dense exact linear algebra over a FiniteField.

Matrices are lists of row lists of field elements.  Everything here is
small (at most a few hundred rows by 81 columns), so plain elimination
is enough; its row operations go through the field's op tables.

`rank` and `nullspace` share one pass, `_echelon`: it inserts the rows
one at a time into an echelon basis keyed by pivot column, reduces each
row only from its pivot onward, and stops once the rank equals the
number of columns.  The pivot columns of a row space do not depend on
the basis that spans it, so back-substitution on the echelon gives the
same canonical kernel basis as full reduction would: one vector per
free column, 1 there and 0 at every other free column.
"""

from __future__ import annotations

from .ff import FiniteField


def _echelon(field: FiniteField, rows: list[list[int]], ncols: int) -> dict[int, list[int]]:
    """Echelon basis of the row space: pivot column c -> the tail from c
    of a basis row that is 1 at c and 0 before it.  Stops at full rank."""
    mul, sub, inv = field._mul, field._sub, field._inv
    basis: dict[int, list[int]] = {}
    get = basis.get
    for row in rows:
        for c in range(ncols):
            x = row[c]
            if not x:
                continue
            tail = get(c)
            if tail is None:
                scale = mul[inv[x]]
                basis[c] = [scale[y] for y in row[c:]]
                break
            mx = mul[x]
            # a new list: the caller's row is never written
            row = row[:c] + [sub[y][mx[t]] for y, t in zip(row[c:], tail)]
        if len(basis) == ncols:
            break
    return basis


def rank(field: FiniteField, rows: list[list[int]]) -> int:
    if not rows:
        return 0
    return len(_echelon(field, rows, len(rows[0])))


def nullspace(field: FiniteField, rows: list[list[int]]) -> list[list[int]]:
    """Basis of {v : M v = 0} (right kernel), in free-column order; []
    for full column rank."""
    if not rows:
        return []
    ncols = len(rows[0])
    basis = _echelon(field, rows, ncols)
    if len(basis) == ncols:
        return []
    add, mul, neg = field._add, field._mul, field._neg
    pivots = sorted(basis, reverse=True)
    out = []
    for fc in range(ncols):
        if fc in basis:
            continue
        # v is 1 at fc and 0 at the other free columns and past fc; each
        # pivot before fc, the last first, takes the value that makes its
        # basis row orthogonal to v, from the entries already set
        v = [0] * ncols
        v[fc] = 1
        done = [(fc, 1)]
        for pc in pivots:
            if pc > fc:
                continue
            tail = basis[pc]
            acc = 0
            for k, x in done:
                t = tail[k - pc]
                if t:
                    acc = add[acc][mul[t][x]]
            if acc:
                v[pc] = x = neg[acc]
                done.append((pc, x))
        out.append(v)
    return out

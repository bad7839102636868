"""Linear algebra over GF(q): rank and nullspace against enumeration.

nullspace and rank eliminate in one pass of row insertion; rref, full
Gauss-Jordan reduction kept here, is the reference they are held to,
column by column, on small matrices and on tall ones of the shapes the
dependence search builds (up to 80 rows by 25 or 81 columns).  The
oracles of test_fields and test_projspace import it from here.

The kernel of each small matrix is also found by brute force: every
vector of GF(q)^ncols is multiplied by the matrix through numpy copies
of the field's tables, so the count of kernel vectors does not depend
on the elimination code under test.
"""

import itertools
import random

import numpy as np
import pytest

from flagval.ff import FiniteField
from flagval.fqlin import nullspace, rank

FIELDS = [2, 3, 4, 9]


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


def _apply(F, rows, v):
    out = []
    for row in rows:
        acc = 0
        for a, x in zip(row, v):
            acc = F.add(acc, F.mul(a, x))
        out.append(acc)
    return out


def _kernel_count(F, rows, ncols):
    """Number of v in GF(q)^ncols with M v = 0, by enumerating every v."""
    add = np.array(F._add)
    mul = np.array(F._mul)
    vecs = np.array(list(itertools.product(range(F.q), repeat=ncols)))
    zero = np.ones(len(vecs), dtype=bool)
    for row in rows:
        acc = np.zeros(len(vecs), dtype=np.int64)
        for j, a in enumerate(row):
            acc = add[acc, mul[a, vecs[:, j]]]
        zero &= acc == 0
    return int(zero.sum())


def _matrices(F, rng, count):
    """Random matrices of 1..5 rows and 1..5 columns; some rows repeat
    or combine earlier ones, so every nullity occurs."""
    for _ in range(count):
        ncols = rng.randint(1, 5)
        rows = []
        for _ in range(rng.randint(1, 5)):
            if rows and rng.random() < 0.4:
                a, b = rng.choice(rows), rng.choice(rows)
                s = rng.randrange(F.q)
                rows.append([F.add(x, F.mul(s, y)) for x, y in zip(a, b)])
            else:
                rows.append([rng.randrange(F.q) for _ in range(ncols)])
        yield rows


@pytest.mark.parametrize("q", FIELDS)
def test_nullspace_rank_and_enumeration_agree(q):
    F = FiniteField(q)
    rng = random.Random(q)
    nullities = set()
    for rows in _matrices(F, rng, 40):
        ncols = len(rows[0])
        basis = nullspace(F, rows)
        for v in basis:
            assert len(v) == ncols
            assert _apply(F, rows, v) == [0] * len(rows)
        r = rank(F, rows)
        assert r == len(rref(F, rows)[0])
        assert r + len(basis) == ncols
        # the basis is independent and spans the whole kernel
        assert not basis or rank(F, basis) == len(basis)
        assert q ** len(basis) == _kernel_count(F, rows, ncols)
        nullities.add(len(basis))
    assert len(nullities) >= 3


@pytest.mark.parametrize("q", FIELDS)
def test_rref_is_reduced(q):
    F = FiniteField(q)
    rng = random.Random(100 + q)
    for rows in _matrices(F, rng, 40):
        before = [list(r) for r in rows]
        red, pivots = rref(F, rows)
        assert rows == before
        assert len(red) == len(pivots)
        assert pivots == sorted(set(pivots))
        for i, (row, c) in enumerate(zip(red, pivots)):
            assert row[c] == 1
            assert not any(row[:c])
            assert all(red[k][c] == 0 for k in range(len(red)) if k != i)
        # the input rows lie in the span of the result
        assert rank(F, red + rows) == len(red)


def _rref_kernel(F, rows):
    """The kernel basis read off the reduced rows, one vector per free
    column: 1 there, 0 at the other free columns, minus the column's
    entries at the pivots."""
    ncols = len(rows[0])
    red, pivots = rref(F, rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = F.neg(row[fc])
        basis.append(v)
    return basis


def _tall(F, rng, nrows, ncols, r):
    """nrows combinations of r random rows, about half their entries
    zero, as in the term matrices of the dependence search."""
    gens = [[rng.randrange(F.q) if rng.random() < 0.5 else 0 for _ in range(ncols)] for _ in range(r)]
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for g in gens:
            s = rng.randrange(F.q)
            row = [F.add(x, F.mul(s, y)) for x, y in zip(row, g)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("q", FIELDS)
@pytest.mark.parametrize("ncols", [25, 81])
def test_tall_nullspace_is_the_rref_basis(q, ncols):
    F = FiniteField(q)
    rng = random.Random(1000 * q + ncols)
    ranks = set()
    for nrows in (20, 50, 80):
        for r in (1, ncols // 3, min(nrows, ncols) - 2, min(nrows, ncols)):
            rows = _tall(F, rng, nrows, ncols, r)
            before = [list(x) for x in rows]
            basis = nullspace(F, rows)
            assert rows == before
            assert basis == _rref_kernel(F, rows)
            assert rank(F, rows) == len(rref(F, rows)[0]) == ncols - len(basis)
            ranks.add(ncols - len(basis))
    assert len(ranks) >= 4


@pytest.mark.parametrize("q", FIELDS)
def test_full_rank_has_no_kernel(q):
    F = FiniteField(q)
    rng = random.Random(7 * q)
    for nrows in (25, 40, 80):
        while True:
            rows = [[rng.randrange(q) for _ in range(25)] for _ in range(nrows)]
            if len(rref(F, rows)[0]) == 25:
                break
        assert nullspace(F, rows) == []
        assert rank(F, rows) == 25
    # an identity block on top of anything stops the search at full rank
    eye = [[int(i == j) for j in range(25)] for i in range(25)]
    assert nullspace(F, eye + [[rng.randrange(q) for _ in range(25)] for _ in range(55)]) == []

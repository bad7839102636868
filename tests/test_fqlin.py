"""Linear algebra over GF(q): rref, rank and nullspace against enumeration.

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
from flagval.fqlin import nullspace, rank, rref

FIELDS = [2, 3, 4, 9]


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

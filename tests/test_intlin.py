"""Exact integer linear algebra: HNF, kernels, Smith form, quotients."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagval.intlin import (
    AbelianQuotient,
    RowLattice,
    hermite_normal_form,
    kernel_basis,
    smith_normal_form,
    xgcd,
)

small_int = st.integers(-9, 9)


@settings(max_examples=80)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd(a, b):
    g, s, t = xgcd(a, b)
    assert s * a + t * b == g
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


def _matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


@settings(max_examples=50)
@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=4))
def test_hnf_transform(rows):
    H, T = hermite_normal_form(rows)
    assert _matmul(T, rows) == H
    # echelon: pivot columns strictly increase over the nonzero rows
    last = -1
    for r in H:
        nz = [j for j, x in enumerate(r) if x]
        if not nz:
            continue
        assert nz[0] > last
        assert r[nz[0]] > 0
        last = nz[0]


def test_kernel_basis_fixed():
    # left kernel of stacked dependent rows
    rows = [[2, 4], [1, 2]]
    k = kernel_basis(rows)
    assert len(k) == 1
    x = k[0]
    assert [x[0] * 2 + x[1] * 1, x[0] * 4 + x[1] * 2] == [0, 0]
    # saturated: content of the kernel vector is 1
    from math import gcd

    assert gcd(abs(x[0]), abs(x[1])) == 1
    assert kernel_basis([[1, 0], [0, 1]]) == []
    assert kernel_basis([]) == []


@settings(max_examples=50)
@given(st.lists(st.lists(small_int, min_size=2, max_size=2), min_size=1, max_size=5))
def test_kernel_annihilates(rows):
    for x in kernel_basis(rows):
        assert all(
            sum(x[i] * rows[i][j] for i in range(len(rows))) == 0
            for j in range(len(rows[0]))
        )


def test_smith_form_fixed():
    diag, V = smith_normal_form([[2, 0], [0, 3]], 2)
    assert diag == [1, 6]
    diag, _ = smith_normal_form([[2, 0], [0, 2]], 2)
    assert diag == [2, 2]
    diag, _ = smith_normal_form([[4, 6]], 2)
    assert diag == [2]


@settings(max_examples=40)
@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=3))
def test_smith_divisibility(rows):
    diag, V = smith_normal_form(rows, 3)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
    # V is unimodular: determinant +-1 for the 3x3 case
    det = (
        V[0][0] * (V[1][1] * V[2][2] - V[1][2] * V[2][1])
        - V[0][1] * (V[1][0] * V[2][2] - V[1][2] * V[2][0])
        + V[0][2] * (V[1][0] * V[2][1] - V[1][1] * V[2][0])
    )
    assert det in (1, -1)


class _DenseQuotient:
    """Z^ncols / rowspan from the Smith form of the whole dense matrix,
    with no column elimination: the oracle for `RowLattice.quotient`."""

    def __init__(self, ncols, rows):
        self._diag, self._v = smith_normal_form(rows, ncols)
        self.torsion = tuple(d for d in self._diag if d > 1)
        self.free_rank = ncols - len(self._diag)

    def coords(self, x):
        y = [sum(x[i] * row_v[j] for i, row_v in enumerate(self._v)) for j in range(len(x))]
        r = len(self._diag)
        return tuple(y[i] % d for i, d in enumerate(self._diag) if d > 1), tuple(y[r:])


def _lattice_quotient(ncols, rows):
    lat = RowLattice()
    for r in rows:
        lat.add(dict(enumerate(r)))
    return lat.quotient(ncols)


def _is_member(q, x):
    """x lies in the lattice iff both coordinate parts vanish."""
    tors, free = q.coords(x)
    return not any(tors) and not any(free)


def test_quotient_fixed():
    q = _lattice_quotient(3, [[1, 0, 0], [0, 2, 0]])
    assert isinstance(q, AbelianQuotient)
    assert q.torsion == (2,)
    assert q.free_rank == 1
    assert _is_member(q, {0: 1})
    assert _is_member(q, {0: 3, 1: 2})
    assert not _is_member(q, {1: 1})
    assert not _is_member(q, {2: 1})

    # the quotient is by the exact row span, not its saturation
    halved = _lattice_quotient(2, [[2, 4]])
    assert halved.torsion == (2,) and halved.free_rank == 1

    trivial = _lattice_quotient(2, [[1, 0], [0, 1]])
    assert trivial.torsion == () and trivial.free_rank == 0


def test_quotient_coords_additive():
    q = _lattice_quotient(3, [[2, 0, 0], [0, 3, 0]])
    assert q.torsion == (6,) and q.free_rank == 1  # Z/2 x Z/3 = Z/6
    a = [1, 1, 1]
    b = [0, 2, 5]
    ta, fa = q.coords(dict(enumerate(a)))
    tb, fb = q.coords(dict(enumerate(b)))
    ts, fs = q.coords({i: x + y for i, (x, y) in enumerate(zip(a, b))})
    assert fs == tuple(x + y for x, y in zip(fa, fb))
    # torsion coordinates add modulo their invariant
    for s, x, y, d in zip(ts, ta, tb, q.torsion):
        assert s % d == (x + y) % d


def test_row_lattice_matches_quotient():
    lat = RowLattice()
    lat.add({0: 1, 1: 1})
    lat.add({1: 2, 2: 2})
    sparse = lat.quotient(3)
    assert _is_member(sparse, {0: 1, 1: 1})
    assert _is_member(sparse, {0: 2, 1: 4, 2: 2})
    assert not _is_member(sparse, {0: 1})
    dense = _DenseQuotient(3, [[1, 1, 0], [0, 2, 2]])
    # membership agrees with the dense quotient on a grid of vectors
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                v = {i: x for i, x in enumerate((a, b, c)) if x}
                assert _is_member(sparse, v) == _is_member(dense, [a, b, c]), (a, b, c)


def test_row_lattice_quotient_invariants():
    lat = RowLattice()
    lat.add({0: 2})
    lat.add({1: 3})
    q = lat.quotient(3)
    assert q.torsion == (6,) or sorted(q.torsion) == [2, 3]
    assert q.free_rank == 1
    assert _is_member(q, {0: 2})
    assert _is_member(q, {0: 4, 1: 3})
    assert not _is_member(q, {0: 1})
    assert not _is_member(q, {2: 1})


def test_row_lattice_add_reports_growth():
    lat = RowLattice()
    assert lat.add({0: 2, 1: 2})
    assert not lat.add({0: 2, 1: 2})
    assert not lat.add({0: 4, 1: 4})
    assert lat.add({0: 1, 1: 1})  # refines the pivot to content 1


def _rows_of_width(max_width=4, max_rows=4):
    return st.integers(1, max_width).flatmap(
        lambda n: st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=1, max_size=max_rows)
    )


@settings(max_examples=150)
@given(_rows_of_width())
def test_smith_agrees_with_hermite(rows):
    n = len(rows[0])
    H, _ = hermite_normal_form(rows)
    diag, _ = smith_normal_form(rows, n)
    basis = [r for r in H if any(r)]
    # both forms see the same rank
    assert sum(1 for d in diag if d) == len(basis)
    if len(basis) == n:
        # full rank (square nonsingular among them): the index of the row
        # lattice is the product of the Smith invariants and, up to sign,
        # of the Hermite pivots
        pivots = [next(x for x in r if x) for r in basis]
        index = 1
        for p in pivots:
            index *= p
        snf_index = 1
        for d in diag:
            snf_index *= d
        assert snf_index == abs(index)
    Q = _DenseQuotient(n, rows)
    assert Q.torsion == tuple(d for d in diag if d > 1)
    assert Q.free_rank == n - len(basis)
    # the row lattice, with its unit columns eliminated, has the same
    # invariants, and the same members on the unit vectors and the rows
    L = _lattice_quotient(n, rows)
    assert (L.torsion, L.free_rank) == (Q.torsion, Q.free_rank)
    for x in [[int(i == j) for j in range(n)] for i in range(n)] + rows:
        assert _is_member(L, dict(enumerate(x))) == _is_member(Q, x)

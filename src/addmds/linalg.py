"""Exact Gaussian elimination over a FieldTower.

Matrices are lists (or tuples) of rows of packed element ints.  The same
routines serve the full field F_{q^h} and the subfield F_q: subfield inputs
stay inside the subfield because it is closed under the field operations.
Each row operation is one call of the tower's table-driven row kernels
(``scale``, ``axpy``), and each entry of a product one ``dot``.
"""

from __future__ import annotations

from .errors import NotInvertible


def mat_rref(tower, rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    scale, axpy = tower.scale, tower.axpy
    pivots = []
    r = 0
    for c in range(len(m[0])):
        for piv in range(r, len(m)):
            if m[piv][c]:
                break
        else:
            continue
        m[r], m[piv] = m[piv], m[r]
        if m[r][c] != 1:
            m[r] = scale(tower.inv(m[r][c]), m[r])
        top = m[r]
        for i, row in enumerate(m):
            if i != r and row[c]:
                m[i] = axpy(row, row[c], top)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def mat_rank(tower, rows):
    return len(mat_rref(tower, rows)[1])


def left_nullspace(tower, rows):
    """Basis (as rows) of {v : v * M = 0} for the matrix M given by rows."""
    k = len(rows)
    if k == 0:
        return []
    # kernel of the transpose: RREF of M^T, free columns index the basis
    red, pivots = mat_rref(tower, transpose(rows))
    basis = []
    pivset = set(pivots)
    for fc in range(k):
        if fc in pivset:
            continue
        v = [0] * k
        v[fc] = 1
        for rr, pc in enumerate(pivots):
            v[pc] = tower.neg(red[rr][fc])
        basis.append(v)
    return basis


def mat_mul(tower, a, b):
    dot = tower.dot
    cols = transpose(b)
    return [[dot(row, col) for col in cols] for row in a]


def mat_vec(tower, a, v):
    dot = tower.dot
    return [dot(row, v) for row in a]


def mat_inv(tower, rows):
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = mat_rref(tower, aug)
    if pivots != list(range(n)):
        raise NotInvertible("matrix is singular")
    return [r[n:] for r in red]


def mat_det(tower, rows):
    m = [list(r) for r in rows]
    n = len(m)
    axpy = tower.axpy
    det = 1
    for c in range(n):
        for piv in range(c, n):
            if m[piv][c]:
                break
        else:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = tower.neg(det)
        top = m[c]
        det = tower.mul(det, top[c])
        f = tower.inv(top[c])
        for i in range(c + 1, n):
            if m[i][c]:
                m[i] = axpy(m[i], tower.mul(f, m[i][c]), top)
    return det


def transpose(rows):
    if not rows:
        return []
    return [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]

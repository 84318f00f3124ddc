"""Exact Gaussian elimination over a FieldTower.

Matrices are lists (or tuples) of rows of packed element ints.  The same
routines serve the full field F_{q^h} and the subfield F_q: subfield inputs
stay inside the subfield because it is closed under the field operations.
"""

from __future__ import annotations

from .errors import NotInvertible


def mat_rref(tower, rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        f = tower.inv(m[r][c])
        if f != 1:
            m[r] = [tower.mul(f, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                g = m[i][c]
                m[i] = [tower.sub(a, tower.mul(g, b)) if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def reduce_vector(tower, red, pivots, v):
    """v reduced against RREF rows ``red`` with pivot columns ``pivots``:
    zero at every pivot, and zero everywhere iff v lies in their span."""
    v = list(v)
    for row, c in zip(red, pivots):
        if v[c]:
            f = v[c]
            v = [tower.sub(a, tower.mul(f, b)) for a, b in zip(v, row)]
    return v


def mat_rank(tower, rows):
    return len(mat_rref(tower, rows)[1])


def left_nullspace(tower, rows):
    """Basis (as rows) of {v : v * M = 0} for the matrix M given by rows."""
    k = len(rows)
    if k == 0:
        return []
    # kernel of the transpose: RREF of M^T, free columns index the basis
    ncols = len(rows[0])
    mt = [[rows[i][c] for i in range(k)] for c in range(ncols)]
    red, pivots = mat_rref(tower, mt)
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
    n, k = len(a), len(b)
    ncols = len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(ncols):
            acc = 0
            for t in range(k):
                if a[i][t] and b[t][j]:
                    acc = tower.add(acc, tower.mul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(row)
    return out


def mat_vec(tower, a, v):
    out = []
    for row in a:
        acc = 0
        for x, y in zip(row, v):
            if x and y:
                acc = tower.add(acc, tower.mul(x, y))
        out.append(acc)
    return out


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
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = tower.neg(det)
        det = tower.mul(det, m[c][c])
        f = tower.inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c]:
                g = tower.mul(f, m[i][c])
                m[i] = [tower.sub(a, tower.mul(g, b)) for a, b in zip(m[i], m[c])]
    return det


def transpose(rows):
    if not rows:
        return []
    return [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]

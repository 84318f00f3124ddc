"""q-linearized polynomials over F_{q^h}, reduced modulo X^(q^h) - X.

A polynomial f(X) = sum_{i<h} f_i X^(q^i) is stored as its coefficient
tuple (f_0, ..., f_{h-1}).  Evaluation is F_q-linear.  Composition reduces
exponent indices mod h, matching the quotient by X^(q^h) - X, and works in
the log domain: each term f_i * g_j^(q^i) is omega^(log f_i + q^i log g_j),
and one call of the tower's ``accumulate`` kernel sums them all.

The Dickson matrix D(f)[i][j] = f_{(j-i) mod h}^(q^i) turns composition
into matrix multiplication, so f is invertible iff det D(f) != 0, and the
compositional inverse can be read off the first row of D(f)^(-1), the x
with x D(f) = (1, 0, ..., 0).

Three batched kernels work on int arrays of coefficient rows.
``evaluation_table`` gives the values g(omega^r) of arbitrary rows g at
every nonzero point, h lookups per cell.  ``value_grid`` gives the rows
and value tables of a whole grid of polynomials, coefficient i ranging
over its own choices, in lex blocks: the term rows c * omega^(r q^i) are
looked up once, the leading coefficients are summed once per run of the
last one, and each run costs one broadcast add per cell.  A value row
with no zero marks an invertible g without any determinant, and
conj(f, b) = f o (bX) o f^(-1) is read off f's row, since
conj(f, b)(f(y)) = f(b y).  ``inverse_table`` gives f^(-1) for every row
f: it maps f(omega^r) to omega^r, so its values at omega^l, l < h, are
read off f's value row and the inverse Moore matrix turns them into
coefficients; every row is checked at every nonzero point before use.
Their terms come from the tower's ``power_terms`` kernel and their sums
from its ``add_arrays`` kernel.

Two more kernels work on coefficient rows alone, at O(h^2) and O(h^3)
entries per row whatever the tower's size, for the witness decisions on
long codes.  ``compose_rows`` is ``compose`` on broadcast stacks of rows,
its h^2 terms one log-domain gather.  ``dickson_inverses`` is ``inverse``
on a stack: one Gauss-Jordan elimination of every [D(f)^T | e_0] at
once, a pivot column at a time, that flags the singular rows and checks
every inverse it returns by ``compose_rows``.  ``inverse_table`` stays
value-based: its one library caller, propm's two-nonzero battery, holds
the rows' ``value_grid`` values already, and it reads q^h - 1 points
per row where the elimination reads h^3 entries, so each kernel suits
the rows its callers hold.

``inverse`` (one Dickson matrix) is the only memoised inverse: it alone
reads and writes the tower memo ``inverses``, filling it in both
directions, while ``inverse_table`` and ``dickson_inverses`` are array
functions that touch no inverse memo.  The invertible list is kept in the
memo too, and so is the log table of the two coefficient-row kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from . import linalg
from .errors import InvalidSubfield, NotInvertible

EVAL_CHUNK_CELLS = 1 << 14  # (poly, point) cells per ``value_grid`` block


@dataclass(frozen=True)
class LinearizedPoly:
    tower: object
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.tower.h:
            raise ValueError("need exactly h coefficients")

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, tower):
        return cls(tower, (1,) + (0,) * (tower.h - 1))

    @classmethod
    def zero(cls, tower):
        return cls(tower, (0,) * tower.h)

    @classmethod
    def monomial(cls, tower, c, i):
        """c * X^(q^i)"""
        v = [0] * tower.h
        v[i % tower.h] = c
        return cls(tower, tuple(v))

    @classmethod
    def scalar(cls, tower, c):
        return cls.monomial(tower, c, 0)

    @classmethod
    def from_values(cls, tower, values):
        """The unique f with f(omega^l) = values[l] for l < h (Moore solve)."""
        return cls(tower, tuple(linalg.mat_vec(tower, _moore_inv(tower), list(values))))

    # -- basic queries ------------------------------------------------------

    def support(self):
        return tuple(i for i, c in enumerate(self.coeffs) if c)

    def zero_coeff_count(self):
        return sum(1 for c in self.coeffs if c == 0)

    def is_monomial(self):
        return len(self.support()) == 1

    def is_semilinear(self, s: int) -> bool:
        """True iff f(a X) = a^(q^i) f(X) for all a in F_{q^s} and some i.

        Equivalent to the support lying in a single residue class mod s,
        that is, to s dividing f's ``support_degrees``.
        """
        t = self.tower
        if t.h % s:
            raise InvalidSubfield(f"s = {s} does not divide h = {t.h}")
        if not any(self.coeffs):
            raise ValueError("zero polynomial")
        return bool(support_degrees(np.array([self.coeffs], dtype=np.int64), t.h)[0] % s == 0)

    # -- algebra --------------------------------------------------------------

    def __call__(self, x: int) -> int:
        t = self.tower
        return t.dot(self.coeffs, [t.frob(x, i) for i in range(t.h)])

    def __add__(self, other):
        t = self.tower
        t.check_same(other.tower)
        return LinearizedPoly(t, tuple(t.axpy(self.coeffs, t.neg(1), other.coeffs)))

    def __sub__(self, other):
        t = self.tower
        t.check_same(other.tower)
        return LinearizedPoly(t, tuple(t.axpy(self.coeffs, 1, other.coeffs)))

    def compose(self, other: "LinearizedPoly") -> "LinearizedPoly":
        """self(other(X)), exponent indices reduced mod h."""
        t = self.tower
        t.check_same(other.tower)
        h, n, log, qpow = t.h, t._group_order, t._log, t._qpow
        g_logs = [(j, log[gj]) for j, gj in enumerate(other.coeffs) if gj]
        # f_i * g_j^(q^i) lands at (i + j) mod h with log f_i + q^i log g_j
        terms = [((i + j) % h, log[fi] + lg * qpow[i] % n)
                 for i, fi in enumerate(self.coeffs) if fi for j, lg in g_logs]
        return LinearizedPoly(t, tuple(t.accumulate([0] * h, terms)))

    def dickson(self):
        """h x h matrix D[i][j] = f_{(j-i) mod h}^(q^i)."""
        t = self.tower
        exp, log, n = t._exp, t._log, t._group_order
        logs = [log[c] if c else None for c in self.coeffs]
        rows = []
        for i, qi in enumerate(t._qpow):
            conj = [0 if lc is None else exp[lc * qi % n] for lc in logs]  # f_j^(q^i)
            rows.append(conj[-i:] + conj[:-i])  # rotated right by i
        return rows

    def matrix(self):
        """h x h matrix M over F_q with coords(f(x)) = coords(x) M: row l is coords(f(omega^l))."""
        t = self.tower
        return [list(t.coords(self(w))) for w in t.omega_powers]

    def dickson_det(self) -> int:
        return linalg.mat_det(self.tower, self.dickson())

    def is_invertible(self) -> bool:
        return self.dickson_det() != 0

    def inverse(self) -> "LinearizedPoly":
        """Compositional inverse; raises NotInvertible if singular."""
        t = self.tower
        memo = t.memo("inverses")
        hit = memo.get(self.coeffs)
        if hit is not None:
            return hit
        # the first row x of D(f)^(-1) solves x D(f) = e_0: reduce [D(f)^T | e_0]
        h = t.h
        red, pivots = linalg.mat_rref(t, [col + [int(j == 0)] for j, col in
                                          enumerate(linalg.transpose(self.dickson()))])
        if pivots != list(range(h)):
            raise NotInvertible(f"no compositional inverse: {self.coeffs}")
        out = LinearizedPoly(t, tuple(row[h] for row in red))
        if self.compose(out).coeffs != LinearizedPoly.identity(t).coeffs:
            raise AssertionError(f"inverse: f(f^-1) != X for {self.coeffs}")
        memo[self.coeffs] = out
        memo[out.coeffs] = self
        return out

    def conjugate(self, a: int) -> "LinearizedPoly":
        """f o (aX) o f^(-1), i.e. the map x -> f(a * f^(-1)(x))."""
        if a == 0:
            raise ValueError("conjugating scalar must be nonzero")
        t = self.tower
        return self.compose(LinearizedPoly.scalar(t, a)).compose(self.inverse())

    def frobenius_twist(self, e: int) -> "LinearizedPoly":
        """self o X^(q^e): a cyclic shift of the coefficient vector."""
        h = self.tower.h
        e %= h
        return LinearizedPoly(self.tower, tuple(self.coeffs[(l - e) % h] for l in range(h)))

    def to_json(self):
        t = self.tower
        return [t.digits(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, tower, data):
        return cls(tower, tuple(tower.from_digits(d) for d in data))

    def __repr__(self):
        return f"LinearizedPoly{self.coeffs}"


def evaluation_table(tower, coeffs):
    """Values g(omega^r) for every row g of the int array ``coeffs``.

    ``coeffs`` has shape (rows, h) and holds field elements of ``tower``;
    the result has shape (rows, q^h - 1), entry [k, r] being
    g_k(omega^r) = sum_i g_{k,i} * omega^(r q^i): h ``power_terms``
    columns summed by ``add_arrays``.
    """
    g = np.asarray(coeffs, dtype=np.int64)
    if g.ndim != 2 or g.shape[1] != tower.h:
        raise ValueError("evaluation_table needs an array of shape (rows, h)")
    return reduce(tower.add_arrays, (tower.power_terms(g[:, i], qi)
                                     for i, qi in enumerate(tower._qpow)))


def inverse_table(tower, coeffs):
    """Coefficients of f^(-1) for every row f of the int array ``coeffs``.

    ``coeffs`` has shape (rows, h) and holds field elements of ``tower``;
    so has the result.  f^(-1)(omega^l) is the omega^r with log f(omega^r)
    = l, read off f's ``evaluation_table`` row, and the Moore inverse turns
    the h values at l < h into coefficients.  Every inverse is checked,
    f(f^(-1)(omega^s)) = omega^s at every nonzero point, before it is
    returned.  Raises NotInvertible for a row whose value row has a zero.
    No memo is read or written.
    """
    f = np.asarray(coeffs, dtype=np.int64)
    if f.ndim != 2 or f.shape[1] != tower.h:
        raise ValueError("inverse_table needs an array of shape (rows, h)")
    n = tower._group_order
    exp, log = tower.np_tables()
    values = evaluation_table(tower, f)
    singular = (values == 0).any(axis=1)
    if singular.any():
        raise NotInvertible(f"no compositional inverse: {tuple(f[singular.argmax()].tolist())}")
    index = np.arange(len(f))[:, None]
    where = np.empty_like(values)  # where[k, log f_k(omega^r)] = r = log f_k^(-1)(omega^l)
    where[index, log[values]] = np.arange(n)
    inv = np.empty_like(f)
    for i, row in enumerate(_moore_inv(tower)):  # no row of an invertible matrix is zero
        inv[:, i] = reduce(tower.add_arrays, [exp[tower._log[v] + where[:, l]]
                                              for l, v in enumerate(row) if v])
    back = evaluation_table(tower, inv)  # f^(-1)(omega^s)
    ok = (back != 0) & (values[index, log[back]] == exp[:n])
    if not ok.all():
        bad = tuple(f[ok.all(axis=1).argmin()].tolist())
        raise AssertionError(f"inverse_table: f(f^-1(x)) != x for {bad}")
    return inv


def _logs(tower, a):
    """log of each element of the int array ``a``, 2n at a zero: a product's
    log is then >= 2n exactly when a factor is 0, and exp is 0 from 2n on.
    One gather through a table memoised on the tower."""
    def build():
        n = tower._group_order
        log = tower.np_tables()[1].copy()
        log[0] = 2 * n
        return log
    return tower.memo("zero_logs", build)[a]


def compose_rows(tower, f, g):
    """Coefficient rows of f o g for the int arrays ``f`` and ``g`` of
    coefficient rows, shape (..., h), broadcast like numpy: the batched
    ``LinearizedPoly.compose``.

    Term (i, j) is f_i g_j^(q^i), with log f_i + q^i log g_j mod n, and
    lands at (i + j) mod h: h^2 gathers per row, summed by h - 1
    ``add_arrays``.
    """
    h, n = tower.h, tower._group_order
    f, g = np.asarray(f, dtype=np.int64), np.asarray(g, dtype=np.int64)
    if f.shape[-1:] != (h,) or g.shape[-1:] != (h,):
        raise ValueError("compose_rows needs arrays of coefficient rows of length h")
    qpow = np.array(tower._qpow, dtype=np.int64)[:, None]
    lg = _logs(tower, g)[..., None, :]
    lg = np.where(lg < 2 * n, lg * qpow % n, 2 * n)  # [..., i, j]: log g_j^(q^i)
    terms = tower.np_tables()[0][np.minimum(_logs(tower, f)[..., :, None] + lg, 2 * n)]
    out = terms[..., 0, :]
    for i in range(1, h):  # row i's term j lands at column i + j
        out = tower.add_arrays(out, terms[..., i, (np.arange(h) - i) % h])
    return out


def dickson_inverses(tower, coeffs):
    """(inverses, singular) for the rows f of the int array ``coeffs``, shape
    (rows, h): the batched ``LinearizedPoly.inverse``.

    The first row x of D(f)^(-1) solves x D(f) = e_0, so one Gauss-Jordan
    elimination of the stacked [D(f)^T | e_0], h x (h + 1) per row, with
    one pivot column at a time for all rows, leaves x in its last column.
    singular[k] marks a row with no pivot in some column; its inverse row
    is 0.  Every other inverse is checked, f o f^(-1) = X by
    ``compose_rows``, before it is returned.  No memo is read or written
    but the log table of ``compose_rows``.
    """
    f = np.asarray(coeffs, dtype=np.int64)
    if f.ndim != 2 or f.shape[1] != tower.h:
        raise ValueError("dickson_inverses needs an array of shape (rows, h)")
    h, n = tower.h, tower._group_order
    exp = tower.np_tables()[0]
    # row j of D(f)^T is column j of D(f): entry i is f_(j-i)^(q^i)
    lt = _logs(tower, f)[:, (np.arange(h)[:, None] - np.arange(h)) % h]
    a = np.zeros((len(f), h, h + 1), dtype=np.int64)
    a[:, :, :h] = exp[np.where(lt < 2 * n, lt * np.array(tower._qpow) % n, 2 * n)]
    a[:, 0, h] = 1
    minus = tower._log[tower.neg(1)]
    singular = np.zeros(len(f), dtype=bool)
    for c in range(h):
        live = a[:, c:, c] != 0
        singular |= ~live.any(axis=1)
        swap = np.flatnonzero(~live[:, 0] & ~singular)
        if len(swap):  # the first row below c with a nonzero entry in column c
            piv = c + live[swap].argmax(axis=1)
            a[swap, c], a[swap, piv] = a[swap, piv], a[swap, c]
        lt = _logs(tower, a[:, c])
        lt = np.where(lt < 2 * n, (lt - lt[:, c:c + 1]) % n, 2 * n)  # the pivot scaled to 1
        a[:, c] = exp[lt]
        # every other row minus its entry in column c times the pivot row
        lm = _logs(tower, a[:, :, c])
        lm = np.where(lm < 2 * n, (lm + minus) % n, 2 * n)
        lm[:, c] = 2 * n
        a = tower.add_arrays(a, exp[np.minimum(lm[:, :, None] + lt[:, None, :], 2 * n)])
    inv = np.where(singular[:, None], 0, a[:, :, h])
    ok = ~singular
    wrong = (compose_rows(tower, f[ok], inv[ok]) != np.eye(1, h, dtype=np.int64)).any(axis=1)
    if wrong.any():
        raise AssertionError(f"dickson_inverses: f(f^-1) != X for {tuple(f[ok][wrong][0].tolist())}")
    return inv, singular


def _moore_inv(tower):
    """Inverse of the Moore matrix [omega^(l q^i)] (rows l, columns i), memoised:
    it maps the values f(omega^l), l < h, to f's coefficients."""
    return tower.memo("moore_inv", lambda: linalg.mat_inv(
        tower, [[tower.frob(w, i) for i in range(tower.h)] for w in tower.omega_powers]))


def value_grid(tower, choices):
    """Coefficient rows and value table of every polynomial whose
    coefficient i ranges over ``choices[i]``, in lex order (coefficient 0
    slowest, each position in the order of its choices).

    Yields (block, values): ``block`` an int array of shape (rows, h),
    ``values`` its ``evaluation_table``, in blocks of at most
    max(``EVAL_CHUNK_CELLS``, q^h - 1) cells.  The term rows
    T_i[c, r] = c * omega^(r q^i) come from ``power_terms``.  A block holds
    whole runs of the last varying position: the other positions' sum is
    evaluated once per run, and the run's term rows are added to it by one
    broadcast ``add_arrays``, so a block costs one add per cell, not h.
    Positions whose only choice is 0 contribute nothing; the last
    position's run is split when one run alone would exceed the cap.
    """
    h, n = tower.h, tower._group_order
    if len(choices) != h:
        raise ValueError("value_grid needs one sequence of choices per coefficient")
    choices = [np.asarray(c, dtype=np.int64).reshape(-1) for c in choices]
    if not all(map(len, choices)):
        return
    live = [i for i, c in enumerate(choices) if c.tolist() != [0]] or [h - 1]
    terms = [tower.power_terms(c, qi) for c, qi in zip(choices, tower._qpow)]
    *prefix, last = live
    sizes = [len(choices[i]) for i in prefix]
    place = np.cumprod([1] + sizes[:0:-1])[::-1]  # lex weight of each prefix position
    runs, width = math.prod(sizes), len(choices[last])
    rows = max(1, EVAL_CHUNK_CELLS // n)
    per_block, step = max(1, rows // width), min(rows, width)
    for lo in range(0, runs, per_block):
        index = np.arange(lo, min(lo + per_block, runs), dtype=np.int64)
        digits = [index // w % size for w, size in zip(place, sizes)]
        head = None  # the prefix positions' sum, one row per run
        for i, d in zip(prefix, digits):
            head = terms[i][d] if head is None else tower.add_arrays(head, terms[i][d])
        for c in range(0, width, step):
            tail = terms[last][c:c + step]
            values = tail if head is None else tower.add_arrays(head[:, None], tail)
            block = np.zeros((len(index), len(tail), h), dtype=np.int64)
            for i, d in zip(prefix, digits):
                block[:, :, i] = choices[i][d][:, None]
            block[:, :, last] = choices[last][c:c + step]
            yield block.reshape(-1, h), values.reshape(-1, n)


def support_degrees(coeffs, h):
    """gcd(h, every support index minus the first one) of each nonzero row of
    the int array ``coeffs``: the s for which conj(f, a) is scalar exactly
    when a lies in F_{q^s}.  f is semi-linear over F_{q^t}, t | h, exactly
    when t divides s (``is_semilinear``: the support lies in one residue
    class mod t)."""
    support = coeffs != 0
    gaps = np.where(support, np.arange(h) - support.argmax(axis=1)[:, None], 0)
    return np.gcd(np.gcd.reduce(gaps, axis=1), h)


def all_linearized(tower):
    """All q-linearized polynomials over the tower, lex order on coefficients."""
    for coeffs in product(range(tower.size), repeat=tower.h):
        yield LinearizedPoly(tower, coeffs)


def invertible_linearized(tower):
    """All invertible q-linearized polynomials, lex order on coefficients:
    the rows of the full ``value_grid`` whose value row has no zero."""
    def build():
        rows = []
        for block, values in value_grid(tower, [range(tower.size)] * tower.h):
            rows += block[(values != 0).all(axis=1)].tolist()
        return tuple(LinearizedPoly(tower, tuple(row)) for row in rows)
    return tower.memo("invertible_lps", build)


def random_invertible(tower, rng) -> LinearizedPoly:
    while True:
        f = LinearizedPoly(tower, tuple(rng.randrange(tower.size) for _ in range(tower.h)))
        if f.is_invertible():
            return f

"""Arithmetic for the field tower F_p <= F_q <= F_{q^h} with q = p^e.

An element of F_{q^h} is a plain int in [0, p^(e*h)).  Its little-endian
base-p digit vector is the coefficient vector of a polynomial over F_p,
reduced modulo a fixed irreducible modulus of degree e*h.  Addition is
digitwise mod p, multiplication is polynomial multiplication mod the modulus.

Construction is canonical and reproducible, and uses d x d matrices over
F_p only (d = e*h), with C the companion matrix of the modulus:

* the modulus is the monic irreducible of degree d over F_p whose packed
  non-leading coefficient vector is smallest as an integer, found by
  Rabin's test on C (``_is_irreducible``);
* omega is the smallest element (as an int) generating the multiplicative
  group of F_{q^h}: x is primitive iff M_x^(n/r) is not the identity for
  every prime r | n = q^h - 1, where M_x, the matrix of multiplication by
  x, has row t equal to digits(x) C^t.

The F_p ranks of Rabin's test and of ``code``'s weight distributions come
from one kernel, ``_stack_ranks``.

The middle field F_q, the fixed field of x -> x^q, is 0 together with the
powers of gamma = omega^((q^h - 1)/(q - 1)); ``fq_basis`` is its F_p-basis
1, gamma, ..., gamma^(e-1).  ``in_fq`` is a test on log x, so no tower
holds its q elements until ``fq_elements`` is first read.  Since omega is
primitive, (1, omega, ..., omega^(h-1)) is an F_q-basis of F_{q^h};
``coords`` expresses elements in that basis through the trace dual basis.

Construction builds O(size) tables for every tower (at most
``DEFAULT_MAX_SIZE`` = 2**20 elements): exp/log of omega and, for odd p, Zech logarithms
log(1 + omega^t).  Multiplication, inversion, powers, Frobenius and
negation are lookups through the logs; addition is XOR for p = 2 and one
Zech lookup otherwise.  The row kernels ``scale``, ``axpy``, ``dot`` and
``accumulate`` do the same on whole rows, for ``linalg``'s elimination and
``linpoly``'s composition.  The array kernels ``add_arrays`` (elementwise
sum) and ``power_terms`` (the terms c * (omega^r)^power of every nonzero
point) do it on numpy arrays, for ``linpoly``'s value tables and
``code``'s eigenvalue roots, so no other module knows how elements add.
Codeword enumeration works on the base-p digit vectors directly.
``np_tables`` gives exp and log as the numpy arrays the tables are built
from, for kernels whose mathematics is about logs; every per-tower cache
lives in the tower's ``memo``.
"""

from __future__ import annotations

import json
from math import gcd
from numbers import Integral

import numpy as np

from .errors import InvalidSubfield, NotPrime, TowerMismatch, TowerTooLarge

DEFAULT_MAX_SIZE = 1 << 20
_BLOCK = 1 << 14  # rows of omega powers generated per numpy step


# ---------------------------------------------------------------------------
# F_p matrices: construction needs no arithmetic but these

def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _matpow(a, n, p):
    """a^n mod p for a square int64 matrix, or a stack of them, with entries
    in [0, p) and n >= 0."""
    out = np.eye(a.shape[-1], dtype=np.int64)
    while n:
        if n & 1:
            out = out @ a % p
        n >>= 1
        if n:
            a = a @ a % p
    return out


def _companion(m, p):
    """Companion matrix C of the monic ``m``: row i holds the digits of
    x^(i+1) mod m, so a digit row vector times C is that element times x."""
    d = len(m) - 1
    c = np.eye(d, d, 1, dtype=np.int64)
    c[-1] = [(-a) % p for a in m[:d]]
    return c


def _is_irreducible(m, p):
    """Rabin's test on the companion matrix C of the monic ``m`` of degree d.

    F_p[C] is F_p[x]/(m), so m is irreducible iff C^(p^d) = C and, for every
    prime r | d, C^(p^(d/r)) - C is invertible (x^(p^(d/r)) - x is prime to m).
    """
    d = len(m) - 1
    c = _companion(m, p)
    frob = [c]  # frob[k] = C^(p^k)
    for _ in range(d):
        frob.append(_matpow(frob[-1], p, p))
    if not np.array_equal(frob[d], c):
        return False
    diffs = [(frob[d // r] - c) % p for r in _prime_factors(d)]
    return not diffs or bool((_stack_ranks(np.array(diffs), p, _inverses(p)) == d).all())


def _inverses(p):
    """Table of x -> 1/x mod p (0 -> 0) in the dtype ``_stack_ranks`` works in."""
    return np.array([0] + [pow(x, -1, p) for x in range(1, p)],
                    dtype=np.min_scalar_type(p * p - 1))


def _stack_ranks(a, p, inv):
    """F_p ranks of a (B, R, C) stack by Gaussian elimination, one pivot column
    at a time over the shorter side; ``inv`` maps x to 1/x mod p."""
    if a.shape[2] > a.shape[1]:
        a = a.transpose(0, 2, 1)
    a = np.ascontiguousarray(a)
    n_mats, n_rows, n_cols = a.shape
    rank = np.zeros(n_mats, dtype=np.int64)
    rows = np.arange(n_rows)
    for c in range(n_cols):
        free = (a[:, :, c] != 0) & (rows >= rank[:, None])
        hit = np.flatnonzero(free.any(axis=1))
        if not len(hit):
            continue
        top, piv = rank[hit], free[hit].argmax(axis=1)
        a[hit, top], a[hit, piv] = a[hit, piv], a[hit, top]
        pivot = a[hit, top] * inv[a[hit, top, c]][:, None] % p
        factor = a[hit, :, c]
        factor[np.arange(len(hit)), top] = 0
        a[hit] = (a[hit] + (p - factor)[:, :, None] * pivot[:, None, :]) % p
        rank[hit] += 1
    return rank


def _unpack(x, p, d):
    out = []
    for _ in range(d):
        out.append(x % p)
        x //= p
    return out


def _pack(digits, p):
    x = 0
    for c in reversed(digits):
        x = x * p + c
    return x


def _is_int(x) -> bool:
    """True for ints and numpy integers, False for bools; plain ints skip the ABC check."""
    return type(x) is int or (isinstance(x, Integral) and not isinstance(x, bool))


def _int_list(value, what: str):
    """``value`` as a list of ints; ValueError for any other JSON shape."""
    if not isinstance(value, (list, tuple)) or not all(_is_int(c) for c in value):
        raise ValueError(f"{what} must be a list of integers")
    return list(map(int, value))


def require_keys(data, keys, what: str, nested=()):
    """ValueError unless ``data`` is a JSON object holding every key in
    ``keys``, with a list of lists under every key in ``nested``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(missing)}")
    for key in nested:
        if not isinstance(data[key], list) or not all(isinstance(x, list) for x in data[key]):
            raise ValueError(f"{what} {key} must be a list of lists")


# ---------------------------------------------------------------------------

class FieldTower:
    """The tower F_p <= F_q <= F_{q^h}, elements packed as ints.

    Do not call the constructor with nonstandard data unless it came from
    ``descriptor``; use ``field_create`` for the canonical tower.
    """

    def __init__(self, p: int, e: int, h: int, modulus=None, omega=None):
        if p < 2:
            raise NotPrime(f"p = {p} is not prime")
        if e < 1 or h < 1:
            raise ValueError("e and h must be >= 1")
        d = e * h
        # size before primality, and without forming p^d when 2^d alone is
        # too large: trial division of a huge p, or p^d for a huge d, never ends
        if p > DEFAULT_MAX_SIZE or d >= DEFAULT_MAX_SIZE.bit_length() or p**d > DEFAULT_MAX_SIZE:
            raise TowerTooLarge(f"p^(e*h) = {p}^{d} exceeds bound {DEFAULT_MAX_SIZE}")
        if _prime_factors(p) != [p]:
            raise NotPrime(f"p = {p} is not prime")
        size = p**d
        self.p = p
        self.e = e
        self.h = h
        self.degree = d
        self.q = p**e
        self.size = size

        if modulus is None:
            modulus = self._find_modulus()
        else:
            modulus = list(modulus)
            if len(modulus) != d + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e*h")
            if not _is_irreducible(modulus, p):
                raise ValueError("modulus is not irreducible over F_p")
        self.modulus = tuple(modulus)
        self._companion = _companion(modulus, p)

        self._group_order = size - 1
        self._order_factors = _prime_factors(self._group_order)

        self._cache = {}
        # perfbench patches _build_tables and reads these; no O(size^2) table is built
        self.add_np = None
        self.mul_np = None

        if omega is None:
            omega = self._find_omega()
        else:
            omega = int(omega)
            if not (0 < omega < size) or not self._primitive([omega])[0]:
                raise ValueError("omega is not a primitive element")
        self.omega = omega
        self._build_tables()

        self.omega_powers = [self.pow_int(self.omega, l) for l in range(h)]
        self.key = (p, e, h, self.modulus, self.omega)
        # gamma = omega^((q^h - 1)/(q - 1)) generates the multiplicative group of F_q
        self._fq_step = self._group_order // (self.q - 1)
        self.fq_basis = tuple(self._exp[self._fq_step * t] for t in range(e))

    # -- construction helpers ------------------------------------------------

    def _find_modulus(self):
        p, d = self.p, self.degree
        for low in range(p**d):
            cand = _unpack(low, p, d) + [1]
            if _is_irreducible(cand, p):
                return cand
        raise AssertionError("no irreducible polynomial found")

    def _mul_matrices(self, xs):
        """The F_p matrix M_x of multiplication by each x in ``xs``: row t is digits(x) C^t."""
        p, d = self.p, self.degree
        rows = [np.asarray(xs, dtype=np.int64)[:, None] // p ** np.arange(d) % p]
        for _ in range(d - 1):
            rows.append(rows[-1] @ self._companion % p)
        return np.stack(rows, axis=1)

    def _primitive(self, xs):
        """Which x in ``xs`` are primitive: M_x^(n/r) != I for every prime r | n."""
        mx, one = self._mul_matrices(xs), np.eye(self.degree, dtype=np.int64)
        n, out = self._group_order, np.ones(len(xs), dtype=bool)
        for r in self._order_factors:
            out &= (_matpow(mx, n // r, self.p) != one).any(axis=(1, 2))
        return out

    def _find_omega(self):
        """The least primitive x, tested in blocks that double in width:
        omega is often 2 or 3 but can pass 1000."""
        lo, width = 1, 1
        while lo < self.size:
            xs = np.arange(lo, min(lo + width, self.size))
            hit = self._primitive(xs)
            if hit.any():
                return int(xs[hit.argmax()])
            lo, width = lo + width, 2 * width
        raise AssertionError("no primitive element found")

    def _build_tables(self):
        """exp/log of omega, and Zech logarithms for odd p.

        Multiplication by omega is the d x d F_p matrix ``step`` acting on
        digit row vectors.  The powers omega^0..omega^(n-1) are made in
        blocks of at most ``_BLOCK`` rows, each block the previous one times
        a power of that matrix, so no n x d digit array is ever held.
        """
        p, d, n = self.p, self.degree, self._group_order
        step = self._mul_matrices([self.omega])[0]
        block = np.eye(1, d, dtype=np.int64)
        while len(block) < min(n, _BLOCK):
            block = np.vstack([block, block @ step % p])
            step = step @ step % p
        place = p ** np.arange(d, dtype=np.int64)
        exp = np.empty(n, dtype=np.int64)
        for lo in range(0, n, len(block)):
            exp[lo:lo + len(block)] = (block @ place)[:n - lo]
            block = block @ step % p
        log = np.zeros(self.size, dtype=np.int64)
        log[exp] = np.arange(n)

        exp_list = exp.tolist()
        self._exp = exp_list + exp_list  # doubled, so exp[la + lb] needs no mod
        self._log = log.tolist()
        self._half = n // 2  # -1 = omega^(n/2) for odd p
        self._qpow = tuple(self.q**i % n for i in range(self.h))
        self._zech = zech = None  # p = 2 adds by XOR
        if p > 2:
            # 1 + x only changes the constant (lowest) digit of x, which
            # wraps from p - 1 to 0; 1 + omega^(n/2) = 1 - 1 = 0
            zech = log[exp + np.where(exp % p == p - 1, 1 - p, 1)]
            zech[self._half] = -1
            self._zech = zech.tolist()
        exp_np = np.zeros(3 * n, dtype=np.int64)  # exp doubled, then n zeros
        exp_np[:n] = exp_np[n:2 * n] = exp
        self._np_tables = (exp_np, log)
        self._build_kernels(zech)

    def _build_kernels(self, zech_np):
        """Row kernels on the tables, so that elimination and composition make
        one call per row or term where the scalar methods make one per entry.

        ``scale(f, row)`` is f*row and ``axpy(a, g, b)`` is a - g*b, for
        nonzero f and g; ``dot(xs, ys)`` is the sum of the x*y;
        ``accumulate(out, terms)`` adds omega^t to out[l] for every (l, t) in
        ``terms``, in place, with 0 <= t <= 2n - 2, and returns out.  Like
        ``add`` they XOR for p = 2 and use Zech logs for odd p, where the
        index (log of one summand minus log of the other) is reduced mod n,
        as a sum of two logs can reach 2n - 2.

        Two array kernels do the same on int arrays of field elements:
        ``add_arrays(a, b)`` is elementwise a + b, zeros allowed, broadcast
        like numpy; ``power_terms(c, power)`` is c * (omega^r)^power for
        r < n on a new last axis, 0 where c = 0.  Both read logs from one
        int32 table with log 0 = 2n, where exp's zero tail starts, so a
        zero needs no mask.  For odd p, ``add_arrays`` is one gather,
        exp[la + jump[lb - la]], through an int32 table ``jump`` of 4n + 1
        entries that folds the Zech log, cancellation and both zero cases
        into the index; it is built from slices of the Zech table, with no
        int64 array of its length.
        """
        exp, log, zech, n = self._exp, self._log, self._zech, self._group_order
        exp_np, log_np = self._np_tables
        steps = np.arange(n, dtype=np.int64)
        log_z = log_np.astype(np.int32)
        log_z[0] = 2 * n  # exp is 0 from 2n on, so a term of c = 0 is 0 unmasked

        def power_terms(c, power):
            # exp is doubled, so log c + (r * power mod n) needs no mod
            return exp_np[log_z[c][..., None] + steps * (power % n) % n]

        def scale(f, row):
            lf = log[f]
            return [exp[lf + log[v]] if v else 0 for v in row]

        if zech is None:
            def add_arrays(a, b):
                return np.bitwise_xor(a, b)

            def axpy(a, g, b):
                lg = log[g]
                return [x ^ exp[lg + log[y]] if y else x for x, y in zip(a, b)]

            def dot(xs, ys):
                acc = 0
                for x, y in zip(xs, ys):
                    if x and y:
                        acc ^= exp[log[x] + log[y]]
                return acc

            def accumulate(out, terms):
                for l, t in terms:
                    out[l] ^= exp[t]
                return out
        else:
            half = self._half
            # jump[d] for d = log b - log a in [-2n, 2n], read with negative
            # indices: exp[log a + jump[d]] is a + b.  On (-n, n) it is the
            # Zech log of d mod n, 2n where the summands cancel; on [-2n, -n)
            # (a = 0) it is d, so the index is log b; on (n, 2n] (b = 0) it
            # is 0.  a = b = 0 gives 2n + jump[0], in exp's zero tail.
            jump = np.zeros(4 * n + 1, dtype=np.int32)
            jump[:n] = zech_np
            jump[-n + 1:] = zech_np[1:]
            jump[[half, -half]] = 2 * n
            jump[2 * n + 1:3 * n + 1] = np.arange(-2 * n, -n, dtype=np.int32)

            def add_arrays(a, b):
                la = log_z[a]
                return exp_np[la + jump[log_z[b] - la]]

            def axpy(a, g, b):
                lg = (log[g] + half) % n  # log of -g
                out = []
                for x, y in zip(a, b):
                    if y:
                        t = lg + log[y]
                        if x:
                            lx = log[x]
                            z = zech[(t - lx) % n]
                            x = exp[lx + z] if z >= 0 else 0
                        else:
                            x = exp[t]
                    out.append(x)
                return out

            def dot(xs, ys):
                acc = 0
                for x, y in zip(xs, ys):
                    if x and y:
                        t = log[x] + log[y]
                        if acc:
                            la = log[acc]
                            z = zech[(t - la) % n]
                            acc = exp[la + z] if z >= 0 else 0
                        else:
                            acc = exp[t]
                return acc

            def accumulate(out, terms):
                for l, t in terms:
                    x = out[l]
                    if x:
                        lx = log[x]
                        z = zech[(t - lx) % n]
                        out[l] = exp[lx + z] if z >= 0 else 0
                    else:
                        out[l] = exp[t]
                return out

        self.scale, self.axpy, self.dot, self.accumulate = scale, axpy, dot, accumulate
        self.add_arrays, self.power_terms = add_arrays, power_terms

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        # a + b = omega^la * (1 + omega^(lb - la)); a negative index wraps mod n
        z = self._zech[self._log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.p == 2 or not a:
            return a
        return self._exp[self._log[a] + self._half]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self._group_order - self._log[a]]

    def order(self, x: int) -> int:
        """Multiplicative order of a nonzero element."""
        if x == 0:
            raise ZeroDivisionError("order of zero")
        return self._group_order // gcd(self._log[x], self._group_order)

    def pow_int(self, x: int, n: int) -> int:
        if n == 0:
            return 1
        if x == 0:
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        return self._exp[self._log[x] * n % self._group_order]

    def frob(self, x: int, i: int = 1) -> int:
        """x^(q^i); exponents act modulo h since x^(q^h) = x."""
        if not x:
            return 0
        return self._exp[self._log[x] * self._qpow[i % self.h] % self._group_order]

    # -- subfield / coordinates ------------------------------------------------

    def in_subfield(self, x: int, s: int) -> bool:
        """True iff x lies in F_{q^s}; s must divide h."""
        if self.h % s:
            raise InvalidSubfield(f"s = {s} does not divide h = {self.h}")
        return self.frob(x, s) == x

    @property
    def fq_elements(self):
        """The q elements of F_q in increasing order, built on first use."""
        return self.memo("fq_elements", lambda: tuple(sorted(
            [0] + self._exp[:self._group_order:self._fq_step])))

    def in_fq(self, x: int) -> bool:
        """x = 0, or log x a multiple of (q^h - 1)/(q - 1): x is a power of gamma.
        False for an int outside the tower."""
        return x == 0 or (0 < x < self.size and self._log[x] % self._fq_step == 0)

    def subfield_degree(self, x: int) -> int:
        """Smallest s dividing h with x in F_{q^s}, i.e. [F_q(x) : F_q]."""
        for s in range(1, self.h + 1):
            if self.h % s == 0 and self.frob(x, s) == x:
                return s
        raise AssertionError

    def coords(self, x: int):
        """Coefficients (c_0, ..., c_{h-1}) in F_q with x = sum c_l omega^l."""
        memo = self.memo("coords")
        cs = memo.get(x)
        if cs is None:
            # c_l = Tr(d_l * x) for the dual basis (d_l)
            cs = memo[x] = tuple(self.trace_to_fq(self.mul(dl, x)) for dl in self.dual_basis())
        return cs

    def from_coords(self, cs) -> int:
        """sum c_l omega^l; inverse of ``coords``."""
        return self.dot(cs, self.omega_powers)

    def trace_to_fq(self, x: int) -> int:
        """Relative trace x + x^q + ... + x^(q^(h-1)); lands in F_q."""
        acc = 0
        for i in range(self.h):
            acc = self.add(acc, self.frob(x, i))
        return acc

    def dual_basis(self):
        """Basis (d_0, ..., d_{h-1}) with trace_to_fq(d_l * omega^t) = [l == t].

        Exists and is unique because the trace form of a separable extension
        is non-degenerate; computed by inverting the Gram matrix of the
        omega-power basis.
        """
        return self.memo("dual_basis", self._dual_basis)

    def _dual_basis(self):
        from . import linalg
        gram = [
            [self.trace_to_fq(self.mul(wl, wt)) for wt in self.omega_powers]
            for wl in self.omega_powers
        ]
        inv = linalg.mat_inv(self, gram)
        return tuple(self.from_coords(row) for row in inv)

    # -- memo -------------------------------------------------------------------

    def memo(self, name: str, build=dict):
        """The tower's memo entry ``name``, made by ``build()`` on first use.

        Every layer keeps its per-tower caches here (inverses, conjugation
        buckets, scores), so they live and die with the tower and two
        towers never share one.
        """
        try:
            return self._cache[name]
        except KeyError:
            value = self._cache[name] = build()
            return value

    def np_tables(self):
        """The tables (exp doubled, then n zeros; log) as the int64 arrays
        ``_build_tables`` made them from; callers must not write them."""
        return self._np_tables

    # -- serialization ----------------------------------------------------------

    def digits(self, x: int):
        return _unpack(x, self.p, self.degree)

    def from_digits(self, digs) -> int:
        digs = _int_list(digs, "digit vector")
        if len(digs) != self.degree or any(not (0 <= c < self.p) for c in digs):
            raise ValueError("bad digit vector")
        return _pack(digs, self.p)

    def descriptor(self) -> dict:
        return {
            "p": self.p,
            "e": self.e,
            "h": self.h,
            "modulus": list(self.modulus),
            "omega": self.digits(self.omega),
        }

    @classmethod
    def from_descriptor(cls, desc: dict) -> "FieldTower":
        require_keys(desc, ("p", "e", "h", "modulus", "omega"), "field descriptor")
        for key in ("p", "e", "h"):
            if not _is_int(desc[key]):
                raise ValueError(f"field descriptor {key} must be an integer")
        p, e, h = (int(desc[key]) for key in ("p", "e", "h"))
        modulus = _int_list(desc["modulus"], "field descriptor modulus")
        omega = _int_list(desc["omega"], "field descriptor omega")
        if len(omega) != e * h:
            raise ValueError("field descriptor omega must have e*h digits")
        for key, digs in (("modulus", modulus), ("omega", omega)):
            if any(not (0 <= c < p) for c in digs):
                raise ValueError(f"field descriptor {key} digits must lie in [0, p)")
        return cls(p, e, h, modulus=modulus, omega=_pack(omega, p))

    def check_same(self, other: "FieldTower"):
        if self.key != other.key:
            raise TowerMismatch(f"towers differ: {self.key} vs {other.key}")

    def elements(self):
        return range(self.size)

    def nonzero(self):
        return range(1, self.size)

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, h={self.h})"

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


def field_create(p: int, e: int, h: int) -> FieldTower:
    """Build the canonical tower F_p <= F_{p^e} <= F_{p^(e*h)}."""
    return FieldTower(p, e, h)


def field_to_json(tower: FieldTower) -> str:
    return json.dumps(tower.descriptor(), sort_keys=True)


def field_from_json(text: str) -> FieldTower:
    return FieldTower.from_descriptor(json.loads(text))

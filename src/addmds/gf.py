"""Arithmetic for the field tower F_p <= F_q <= F_{q^h} with q = p^e.

An element of F_{q^h} is a plain int in [0, p^(e*h)).  Its little-endian
base-p digit vector is the coefficient vector of a polynomial over F_p,
reduced modulo a fixed irreducible modulus of degree e*h.  Addition is
digitwise mod p, multiplication is polynomial multiplication mod the modulus.

Construction is canonical and reproducible:

* the modulus is the monic irreducible of degree e*h over F_p whose packed
  non-leading coefficient vector is smallest as an integer;
* omega is the smallest element (as an int) generating the multiplicative
  group of F_{q^h}.

The middle field F_q is realised as the fixed field of x -> x^q.  Since
omega is primitive, (1, omega, ..., omega^(h-1)) is an F_q-basis of F_{q^h};
``coords`` expresses elements in that basis.

For fields with at most 2**12 elements, log/exp tables and full numpy
addition/multiplication tables are precomputed; scalar arithmetic uses
them.  Larger towers (up to 2**20 elements by default) fall back to direct
polynomial arithmetic.  Codeword enumeration needs neither: it works on
the base-p digit vectors directly.
"""

from __future__ import annotations

import json
from itertools import product

import numpy as np

from .errors import InvalidSubfield, NotPrime, TowerMismatch, TowerTooLarge

TABLE_LIMIT = 1 << 12
DEFAULT_MAX_SIZE = 1 << 20


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p, dense little-endian int lists

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - c * m[i]) % p
        a.pop()
    return _ptrim(a)


def _ppowmod(a, n, m, p):
    result = [1]
    base = _pmod(a, m, p)
    while n:
        if n & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        n >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        lead_inv = pow(b[-1], p - 2, p) if p > 2 else 1
        bm = [(c * lead_inv) % p for c in b]
        a, b = b, _pmod(a, bm, p)
    return a


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


def _is_irreducible(m, p):
    d = len(m) - 1
    if d < 1:
        return False
    x = [0, 1]
    if _pmod(_ppowmod(x, p**d, m, p) + [0] * 0, m, p) != _pmod(x, m, p):
        # x^(p^d) != x mod m
        return False
    for r in _prime_factors(d):
        t = _ppowmod(x, p ** (d // r), m, p)
        # gcd(x^(p^(d/r)) - x, m) must be constant
        diff = list(t) + [0] * max(0, 2 - len(t))
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(list(m), _ptrim(diff), p)
        if len(g) - 1 > 0:
            return False
    return True


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


# ---------------------------------------------------------------------------

class FieldTower:
    """The tower F_p <= F_q <= F_{q^h}, elements packed as ints.

    Do not call the constructor with nonstandard data unless it came from
    ``descriptor``; use ``field_create`` for the canonical tower.
    """

    def __init__(self, p: int, e: int, h: int, max_size: int = DEFAULT_MAX_SIZE,
                 modulus=None, omega=None):
        if not _is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if e < 1 or h < 1:
            raise ValueError("e and h must be >= 1")
        d = e * h
        size = p**d
        if size > max_size:
            raise TowerTooLarge(f"p^(e*h) = {size} exceeds bound {max_size}")
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

        # reduction table: x^(d+i) mod modulus, packed, for i in [0, d-1]
        self._redc = []
        cur = [(-c) % p for c in modulus[:d]]  # x^d mod m
        for _ in range(d):
            self._redc.append(list(cur) + [0] * (d - len(cur)))
            cur = _pmod(_pmul(cur, [0, 1], p), list(modulus), p)

        self._group_order = size - 1
        self._order_factors = _prime_factors(self._group_order) if size > 2 else []

        self._tables = size <= TABLE_LIMIT
        self._exp = None
        self._log = None
        self.add_np = None
        self.mul_np = None
        self._cache = {}

        if omega is None:
            omega = self._find_omega()
        else:
            omega = int(omega)
            if not (0 < omega < size) or self.order(omega) != self._group_order:
                raise ValueError("omega is not a primitive element")
        self.omega = omega

        if self._tables:
            self._build_tables()

        self.omega_powers = [self.pow_int(self.omega, l) for l in range(h)]
        self.key = (p, e, h, self.modulus, self.omega)
        self.fq_elements = self._find_fq()
        self._fq_index = {x: i for i, x in enumerate(self.fq_elements)}
        self._coords_map = None

    # -- construction helpers ------------------------------------------------

    def _find_modulus(self):
        p, d = self.p, self.degree
        for low in range(p**d):
            cand = _unpack(low, p, d) + [1]
            if _is_irreducible(cand, p):
                return cand
        raise AssertionError("no irreducible polynomial found")

    def _mul_raw(self, a: int, b: int) -> int:
        p, d = self.p, self.degree
        da = _unpack(a, p, d)
        db = _unpack(b, p, d)
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    conv[i + j] = (conv[i + j] + ai * bj) % p
        out = conv[:d]
        for i in range(d, 2 * d - 1):
            c = conv[i]
            if c:
                red = self._redc[i - d]
                for t in range(d):
                    out[t] = (out[t] + c * red[t]) % p
        return _pack(out, p)

    def _pow_raw(self, x: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._mul_raw(r, x)
            x = self._mul_raw(x, x)
            n >>= 1
        return r

    def order(self, x: int) -> int:
        """Multiplicative order of a nonzero element."""
        if x == 0:
            raise ZeroDivisionError("order of zero")
        n = self._group_order
        for r in self._order_factors:
            while n % r == 0 and self._pow_raw(x, n // r) == 1:
                n //= r
        return n

    def _find_omega(self):
        n = self._group_order
        if n == 1:
            return 1
        for x in range(2, self.size):
            ok = True
            for r in self._order_factors:
                if self._pow_raw(x, n // r) == 1:
                    ok = False
                    break
            if ok:
                return x
        raise AssertionError("no primitive element found")

    def _build_tables(self):
        size, n = self.size, self._group_order
        exp = [0] * (2 * n)
        cur = 1
        for i in range(n):
            exp[i] = cur
            exp[i + n] = cur
            cur = self._mul_raw(cur, self.omega)
        log = [0] * size
        for i in range(n):
            log[exp[i]] = i
        self._exp = exp
        self._log = log

        p, d = self.p, self.degree
        if p == 2:
            idx = np.arange(size, dtype=np.uint32)
            self.add_np = np.bitwise_xor.outer(idx, idx).astype(np.uint16 if size <= 1 << 16 else np.uint32)
        else:
            digits = np.zeros((size, d), dtype=np.int64)
            tmp = np.arange(size, dtype=np.int64)
            for t in range(d):
                digits[:, t] = tmp % p
                tmp //= p
            powers = np.array([p**t for t in range(d)], dtype=np.int64)
            add = np.zeros((size, size), dtype=np.uint16)
            chunk = max(1, (1 << 22) // (size * d))
            for lo in range(0, size, chunk):
                hi = min(size, lo + chunk)
                s = (digits[lo:hi, None, :] + digits[None, :, :]) % p
                add[lo:hi] = (s * powers).sum(axis=2).astype(np.uint16)
            self.add_np = add

        log_np = np.array(log, dtype=np.int64)
        exp_np = np.array(exp, dtype=np.int64)
        mul = exp_np[(log_np[:, None] + log_np[None, :]) % n] if n > 0 else np.zeros((1, 1), dtype=np.int64)
        mul[0, :] = 0
        mul[:, 0] = 0
        self.mul_np = mul.astype(np.uint16 if size <= 1 << 16 else np.uint32)

        # plain-list rows are the fast scalar path; keep them for small fields
        self._add_rows = [list(map(int, self.add_np[i])) for i in range(size)] if size <= 1 << 10 else None
        self._frob_list = [self.pow_int(x, self.q) for x in range(size)]

    def _find_fq(self):
        if self._tables:
            return tuple(x for x in range(self.size) if self._frob_list[x] == x)
        # F_p-linear kernel of (x -> x^q) - id gives an F_p-basis of F_q
        p, d = self.p, self.degree
        cols = []
        for t in range(d):
            img = _unpack(self._pow_raw(p**t, self.q), p, d)
            img[t] = (img[t] - 1) % p
            cols.append(img)
        basis = _fp_nullspace_cols(cols, p, d)
        elems = set()
        for combo in product(range(p), repeat=len(basis)):
            digs = [0] * d
            for c, vec in zip(combo, basis):
                if c:
                    for t in range(d):
                        digs[t] = (digs[t] + c * vec[t]) % p
            elems.add(_pack(digs, p))
        assert len(elems) == self.q
        return tuple(sorted(elems))

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._tables:
            if self._add_rows is not None:
                return self._add_rows[a][b]
            return int(self.add_np[a, b])
        if self.p == 2:
            return a ^ b
        p = self.p
        out, mult = 0, 1
        while a or b:
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out, mult = 0, 1
        while a:
            out += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._tables:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._tables:
            return self._exp[self._group_order - self._log[a]]
        return self._pow_raw(a, self._group_order - 1)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_int(self, x: int, n: int) -> int:
        if n == 0:
            return 1
        if x == 0:
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        if n < 0:
            x, n = self.inv(x), -n
        if self._tables:
            return self._exp[(self._log[x] * n) % self._group_order]
        return self._pow_raw(x, n % self._group_order)

    def frob(self, x: int, i: int = 1) -> int:
        """x^(q^i); exponents act modulo h since x^(q^h) = x."""
        i %= self.h
        if i == 0:
            return x
        if self._tables:
            for _ in range(i):
                x = self._frob_list[x]
            return x
        return self.pow_int(x, self.q**i)

    # -- subfield / coordinates ------------------------------------------------

    def in_subfield(self, x: int, s: int) -> bool:
        """True iff x lies in F_{q^s}; s must divide h."""
        if self.h % s:
            raise InvalidSubfield(f"s = {s} does not divide h = {self.h}")
        return self.frob(x, s) == x

    def in_fq(self, x: int) -> bool:
        return x in self._fq_index

    def subfield_degree(self, x: int) -> int:
        """Smallest s dividing h with x in F_{q^s}, i.e. [F_q(x) : F_q]."""
        for s in range(1, self.h + 1):
            if self.h % s == 0 and self.frob(x, s) == x:
                return s
        raise AssertionError

    def _coords_table(self):
        if self._coords_map is None:
            cmap = {}
            for combo in product(self.fq_elements, repeat=self.h):
                x = 0
                for c, w in zip(combo, self.omega_powers):
                    x = self.add(x, self.mul(c, w))
                cmap[x] = combo
            assert len(cmap) == self.size
            self._coords_map = cmap
        return self._coords_map

    def coords(self, x: int):
        """Coefficients (c_0, ..., c_{h-1}) in F_q with x = sum c_l omega^l."""
        if self._tables:
            return self._coords_table()[x]
        return self._coords_solve(x)

    def from_coords(self, cs) -> int:
        x = 0
        for c, w in zip(cs, self.omega_powers):
            x = self.add(x, self.mul(c, w))
        return x

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
        if "dual_basis" not in self._cache:
            from . import linalg
            gram = [
                [self.trace_to_fq(self.mul(wl, wt)) for wt in self.omega_powers]
                for wl in self.omega_powers
            ]
            inv = linalg.mat_inv(self, gram)
            self._cache["dual_basis"] = tuple(self.from_coords(row) for row in inv)
        return self._cache["dual_basis"]

    def _coords_solve(self, x: int):
        p, d, h = self.p, self.degree, self.h
        key = "coords_basis"
        if key not in self._cache:
            fq_basis = []
            seen = {0}
            for y in self.fq_elements:
                if y not in seen:
                    fq_basis.append(y)
                    seen = {self.add(a, self.mul(c, y)) for a in seen for c in range(p)}
            cols = []
            layout = []
            for l in range(h):
                for t, theta in enumerate(fq_basis):
                    cols.append(_unpack(self.mul(theta, self.omega_powers[l]), p, d))
                    layout.append((l, theta))
            self._cache[key] = (_fp_inverse_cols(cols, p, d), layout, fq_basis)
        inv_rows, layout, fq_basis = self._cache[key]
        target = _unpack(x, p, d)
        sol = [sum(r * t for r, t in zip(row, target)) % p for row in inv_rows]
        out = [0] * h
        for coeff, (l, theta) in zip(sol, layout):
            if coeff:
                out[l] = self.add(out[l], self.mul(coeff, theta))
        return tuple(out)

    # -- serialization ----------------------------------------------------------

    def digits(self, x: int):
        return _unpack(x, self.p, self.degree)

    def from_digits(self, digs) -> int:
        digs = list(digs)
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
    def from_descriptor(cls, desc: dict, max_size: int = DEFAULT_MAX_SIZE) -> "FieldTower":
        missing = [key for key in ("p", "e", "h", "modulus", "omega") if key not in desc]
        if missing:
            raise ValueError(f"field descriptor lacks {', '.join(missing)}")
        t = cls(desc["p"], desc["e"], desc["h"], max_size=max_size,
                modulus=desc["modulus"], omega=_pack(list(desc["omega"]), desc["p"]))
        return t

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


# ---------------------------------------------------------------------------
# little F_p matrix helpers used only during construction

def _fp_nullspace_cols(cols, p, d):
    """Basis of the kernel of the map v -> sum v_t * col_t over F_p."""
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(d)]
    n = len(cols)
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, d) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p) if p > 2 else 1
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(d):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for rr, pc in enumerate(pivots):
            v[pc] = (-rows[rr][fc]) % p
        basis.append(v)
    return basis


def _fp_inverse_cols(cols, p, d):
    """Rows of the inverse of the d x d matrix whose columns are given."""
    n = len(cols)
    assert n == d
    a = [[cols[j][i] for j in range(n)] for i in range(d)]
    inv = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for c in range(d):
        piv = next(i for i in range(c, d) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        inv[c], inv[piv] = inv[piv], inv[c]
        f = pow(a[c][c], p - 2, p) if p > 2 else 1
        a[c] = [(v * f) % p for v in a[c]]
        inv[c] = [(v * f) % p for v in inv[c]]
        for i in range(d):
            if i != c and a[i][c]:
                g = a[i][c]
                a[i] = [(x - g * y) % p for x, y in zip(a[i], a[c])]
                inv[i] = [(x - g * y) % p for x, y in zip(inv[i], inv[c])]
    return inv


def field_create(p: int, e: int, h: int, max_size: int = DEFAULT_MAX_SIZE) -> FieldTower:
    """Build the canonical tower F_p <= F_{p^e} <= F_{p^(e*h)}."""
    return FieldTower(p, e, h, max_size=max_size)


def field_to_json(tower: FieldTower) -> str:
    return json.dumps(tower.descriptor(), sort_keys=True)


def field_from_json(text: str) -> FieldTower:
    return FieldTower.from_descriptor(json.loads(text))

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

The middle field F_q, the fixed field of x -> x^q, is 0 together with the
powers of gamma = omega^((q^h - 1)/(q - 1)); ``fq_basis`` is its F_p-basis
1, gamma, ..., gamma^(e-1).  Since omega is primitive, (1, omega, ...,
omega^(h-1)) is an F_q-basis of F_{q^h}; ``coords`` expresses elements in
that basis through the trace dual basis.

Construction builds O(size) tables for every tower (up to 2**20 elements
by default): exp/log of omega and, for odd p, Zech logarithms
log(1 + omega^t).  Multiplication, inversion, powers, Frobenius and
negation are lookups through the logs; addition is XOR for p = 2 and one
Zech lookup otherwise.  Codeword enumeration works on the base-p digit
vectors directly.  ``np_tables`` gives numpy copies of the tables for
vectorised kernels, built on first use; they and every other per-tower
cache live in the tower's ``memo``.
"""

from __future__ import annotations

import json
from numbers import Integral

import numpy as np

from .errors import InvalidSubfield, NotPrime, TowerMismatch, TowerTooLarge

DEFAULT_MAX_SIZE = 1 << 20
_BLOCK = 1 << 14  # rows of omega powers generated per numpy step


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
    if _ppowmod(x, p**d, m, p) != _pmod(x, m, p):
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


def _is_int(x) -> bool:
    return isinstance(x, Integral) and not isinstance(x, bool)


def _int_list(value, what: str):
    """``value`` as a list of ints; ValueError for any other JSON shape."""
    if not isinstance(value, (list, tuple)) or not all(_is_int(c) for c in value):
        raise ValueError(f"{what} must be a list of integers")
    return list(value)


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

        self._cache = {}
        self._coords = {}
        # perfbench patches _build_tables and reads these; no O(size^2) table is built
        self.add_np = None
        self.mul_np = None

        if omega is None:
            omega = self._find_omega()
        else:
            omega = int(omega)
            if not (0 < omega < size) or self.order(omega) != self._group_order:
                raise ValueError("omega is not a primitive element")
        self.omega = omega
        self._build_tables()

        self.omega_powers = [self.pow_int(self.omega, l) for l in range(h)]
        self.key = (p, e, h, self.modulus, self.omega)
        # gamma = omega^((q^h - 1)/(q - 1)) generates the multiplicative group of F_q
        s = self._group_order // (self.q - 1)
        self.fq_basis = tuple(self._exp[s * t] for t in range(e))
        self.fq_elements = tuple(sorted([0] + [self._exp[s * j] for j in range(self.q - 1)]))
        self._fq_index = {x: i for i, x in enumerate(self.fq_elements)}

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
        """exp/log of omega, and Zech logarithms for odd p.

        Multiplication by omega is the d x d F_p matrix ``step`` acting on
        digit row vectors.  The powers omega^0..omega^(n-1) are made in
        blocks of at most ``_BLOCK`` rows, each block the previous one times
        a power of that matrix, so no n x d digit array is ever held.
        """
        p, d, n = self.p, self.degree, self._group_order
        step = np.array([_unpack(self._mul_raw(self.omega, p**t), p, d) for t in range(d)],
                        dtype=np.int64)
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
        self._zech = None  # p = 2 adds by XOR
        if p > 2:
            # 1 + x only changes the constant (lowest) digit of x
            low = exp % p
            one_plus = exp - low + (low + 1) % p
            zech = log[one_plus]
            zech[one_plus == 0] = -1
            self._zech = zech.tolist()

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

    def in_fq(self, x: int) -> bool:
        return x in self._fq_index

    def subfield_degree(self, x: int) -> int:
        """Smallest s dividing h with x in F_{q^s}, i.e. [F_q(x) : F_q]."""
        for s in range(1, self.h + 1):
            if self.h % s == 0 and self.frob(x, s) == x:
                return s
        raise AssertionError

    def coords(self, x: int):
        """Coefficients (c_0, ..., c_{h-1}) in F_q with x = sum c_l omega^l."""
        cs = self._coords.get(x)
        if cs is None:
            # c_l = Tr(d_l * x) for the dual basis (d_l)
            cs = self._coords[x] = tuple(self.trace_to_fq(self.mul(dl, x))
                                         for dl in self.dual_basis())
        return cs

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
        buckets, scores, the numpy tables), so they live and die with the
        tower and two towers never share one.
        """
        try:
            return self._cache[name]
        except KeyError:
            value = self._cache[name] = build()
            return value

    def np_tables(self):
        """numpy copies (exp doubled, log, zech or None) of the scalar tables.

        Made on first use, not in ``_build_tables``, so towers that never
        run a vectorised kernel do not pay for them.
        """
        def build():
            zech = None if self._zech is None else np.array(self._zech, dtype=np.int64)
            return (np.array(self._exp, dtype=np.int64),
                    np.array(self._log, dtype=np.int64), zech)
        return self.memo("np_tables", build)

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
    def from_descriptor(cls, desc: dict, max_size: int = DEFAULT_MAX_SIZE) -> "FieldTower":
        require_keys(desc, ("p", "e", "h", "modulus", "omega"), "field descriptor")
        for key in ("p", "e", "h"):
            if not _is_int(desc[key]):
                raise ValueError(f"field descriptor {key} must be an integer")
        p = desc["p"]
        modulus = _int_list(desc["modulus"], "field descriptor modulus")
        omega = _int_list(desc["omega"], "field descriptor omega")
        if len(omega) != desc["e"] * desc["h"]:
            raise ValueError("field descriptor omega must have e*h digits")
        for key, digs in (("modulus", modulus), ("omega", omega)):
            if any(not (0 <= c < p) for c in digs):
                raise ValueError(f"field descriptor {key} digits must lie in [0, p)")
        return cls(p, desc["e"], desc["h"], max_size=max_size,
                   modulus=modulus, omega=_pack(omega, p))

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


def field_create(p: int, e: int, h: int, max_size: int = DEFAULT_MAX_SIZE) -> FieldTower:
    """Build the canonical tower F_p <= F_{p^e} <= F_{p^(e*h)}."""
    return FieldTower(p, e, h, max_size=max_size)


def field_to_json(tower: FieldTower) -> str:
    return json.dumps(tower.descriptor(), sort_keys=True)


def field_from_json(text: str) -> FieldTower:
    return FieldTower.from_descriptor(json.loads(text))

import ast
import json
import random
from pathlib import Path

import numpy as np
import pytest

from addmds import linalg
from addmds.errors import InvalidSubfield, NotPrime, TowerTooLarge
from addmds.linpoly import LinearizedPoly
from addmds.gf import (
    FieldTower,
    _inverses,
    _is_irreducible,
    _stack_ranks,
    field_create,
    field_from_json,
    field_to_json,
)

import conftest
import oracles

# canonical moduli (lex-least monic irreducible, little-endian digits,
# constant term first) and least primitive elements; every tower perfbench
# builds is here, F_{64^2} and F_{81^2} included
FROZEN = {
    (2, 1, 2): {"modulus": (1, 1, 1), "omega": 2},
    (2, 1, 3): {"modulus": (1, 1, 0, 1), "omega": 2},
    (3, 1, 2): {"modulus": (1, 0, 1), "omega": 4},
    (5, 1, 2): {"modulus": (2, 0, 1), "omega": 6},
    (3, 1, 3): {"modulus": (1, 2, 0, 1), "omega": 3},
    (7, 1, 2): {"modulus": (1, 0, 1), "omega": 9},
    (2, 2, 2): {"modulus": (1, 1, 0, 0, 1), "omega": 2},
    (2, 2, 3): {"modulus": (1, 1, 0, 0, 0, 0, 1), "omega": 2},
    (5, 1, 3): {"modulus": (1, 1, 0, 1), "omega": 9},
    (2, 6, 2): {"modulus": (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), "omega": 3},
    (3, 4, 2): {"modulus": (2, 0, 1, 0, 0, 0, 0, 0, 1), "omega": 38},
}


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_frozen_modulus_and_omega(key):
    from conftest import tower
    t = tower(*key)
    assert t.modulus == FROZEN[key]["modulus"]
    assert t.omega == FROZEN[key]["omega"]


def test_canonical_construction_against_oracle():
    """Modulus and omega of every tower with at most 4,096 elements against
    trial division and the least x with no x^k = 1 for a proper divisor k."""
    bound = 4096
    want = {}
    for p in range(2, bound + 1):
        if any(p % r == 0 for r in range(2, int(p ** 0.5) + 1)):
            continue
        d = 1
        while p ** d <= bound:
            m = oracles.least_irreducible(p, d)
            want[p, d] = (tuple(m), oracles.least_primitive(m, p))
            d += 1
    for (p, d), (modulus, omega) in want.items():
        for e in (e for e in range(1, d + 1) if d % e == 0):
            t = field_create(p, e, d // e)
            assert (t.modulus, t.omega) == (modulus, omega), (p, e, d // e)


@pytest.mark.parametrize("p, max_degree", [(2, 6), (3, 4), (5, 3)])
def test_is_irreducible_against_trial_division(p, max_degree):
    for d in range(1, max_degree + 1):
        for low in range(p ** d):
            m = oracles.unpack(low, p, d) + [1]
            assert _is_irreducible(m, p) == oracles.is_irreducible(m, p), m


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (5, 1, 2), (3, 1, 3)])
def test_order_against_repeated_multiplication(key):
    from conftest import tower
    t = tower(*key)
    for x in t.nonzero():
        assert t.order(x) == oracles.element_order(x, t.modulus, t.p)
    with pytest.raises(ZeroDivisionError):
        t.order(0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_stack_ranks_against_mat_rank(p):
    t = field_create(p, 1, 1)  # F_p itself: elements are the residues
    rng = random.Random(p)
    for n_rows, n_cols in [(4, 4), (3, 6), (6, 3), (1, 5), (5, 1)]:
        stack = []
        for i in range(40):
            m = [[rng.randrange(p) for _ in range(n_cols)] for _ in range(n_rows)]
            if i % 2 and n_rows > 1:
                # rows past a random cut become combinations of the rows before it
                cut = rng.randrange(1, n_rows)
                for r in range(cut, n_rows):
                    cs = [rng.randrange(p) for _ in range(cut)]
                    m[r] = [sum(c * row[j] for c, row in zip(cs, m[:cut])) % p
                            for j in range(n_cols)]
            stack.append(m)
        stack.append([[0] * n_cols for _ in range(n_rows)])
        want = [linalg.mat_rank(t, m) for m in stack]
        assert len(set(want)) > 1
        for dtype in (np.int64, np.min_scalar_type(p * p - 1)):
            got = _stack_ranks(np.array(stack, dtype=dtype), p, _inverses(p))
            assert got.tolist() == want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_stack_ranks_at_early_full_rank(p):
    # matrices whose first columns already have full rank, stacked with
    # deficient ones and padded with zero columns (or rows, on the long side)
    t = field_create(p, 1, 1)
    rng = random.Random(100 + p)
    for n_rows, n_cols, pad in [(3, 7, 0), (3, 7, 4), (4, 4, 3), (6, 3, 2), (2, 9, 5)]:
        short = min(n_rows, n_cols)
        stack = []
        for i in range(30):
            m = [[rng.randrange(p) for _ in range(n_cols)] for _ in range(n_rows)]
            if i % 3 == 0:  # rank 1
                cs = [rng.randrange(p) for _ in range(n_rows)]
                m = [[c * x % p for x in m[0]] for c in cs]
            else:  # a unit triangle in the leading short x short block
                for r in range(short):
                    for c in range(short):
                        cell = (r, c) if n_rows <= n_cols else (c, r)
                        m[cell[0]][cell[1]] = rng.randrange(1, p) if r == c else \
                            (rng.randrange(p) if c > r else 0)
            stack.append(m)
        if n_rows <= n_cols:
            stack = [[row + [0] * pad for row in m] for m in stack]
        else:
            stack = [m + [[0] * n_cols for _ in range(pad)] for m in stack]
        want = [len(oracles.scalar_mat_rref(t, m)[1]) for m in stack]
        assert short in want and min(want) < short
        got = _stack_ranks(np.array(stack, dtype=np.min_scalar_type(p * p - 1)), p, _inverses(p))
        assert got.tolist() == want
        full = [m for m, r in zip(stack, want) if r == short]
        assert _stack_ranks(np.array(full), p, _inverses(p)).tolist() == [short] * len(full)


# F_4, F_8, F_9, F_25, F_27, F_16/F_4, F_64/F_4 and F_{81^2}
KERNEL_TOWERS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (5, 1, 2), (3, 1, 3), (2, 2, 2), (2, 2, 3),
                 (3, 4, 2)]


def _sparse(rng, t, length):
    """A random row of ``length`` elements, about a third of them zero."""
    return [rng.choice((0, rng.randrange(1, t.size), rng.randrange(1, t.size)))
            for _ in range(length)]


@pytest.mark.parametrize("key", KERNEL_TOWERS, ids=lambda k: "F%d_%d_%d" % k)
def test_row_kernels_match_scalar_ops(key):
    t = conftest.tower(*key)
    n = t.size - 1
    rng = random.Random(str(key))
    for _ in range(60):
        a, b = _sparse(rng, t, 7), _sparse(rng, t, 7)
        f = rng.randrange(1, t.size)
        assert t.scale(f, b) == [t.mul(f, y) for y in b]
        assert t.axpy(a, f, b) == [t.sub(x, t.mul(f, y)) for x, y in zip(a, b)]
        acc = 0
        for x, y in zip(a, b):
            acc = t.add(acc, t.mul(x, y))
        assert t.dot(a, b) == acc
        # logs up to 2n - 2, so the Zech index wraps past n
        terms = [(rng.randrange(4), rng.choice((0, n - 1, 2 * n - 2, rng.randrange(2 * n - 1))))
                 for _ in range(9)]
        out = list(a[:4])
        want = list(out)
        for l, e in terms:
            want[l] = t.add(want[l], t.pow_int(t.omega, e))
        assert t.accumulate(out, terms) is out and out == want
    # x + (-x) cancels to zero inside every kernel
    x = [rng.randrange(1, t.size) for _ in range(5)]
    assert t.axpy(x, 1, x) == [0] * 5
    minus = t.scale(t.neg(1), x)
    assert t.dot([1] * 10, x + minus) == 0
    assert t.accumulate(list(x), [(l, t._log[v]) for l, v in enumerate(minus)]) == [0] * 5


@pytest.mark.parametrize("key", KERNEL_TOWERS, ids=lambda k: "F%d_%d_%d" % k)
def test_array_kernels_match_scalar_ops(key):
    t = conftest.tower(*key)
    n = t.size - 1
    rng = random.Random(str(key) + " arrays")
    a, b = (np.array(_sparse(rng, t, 300)) for _ in range(2))
    a[:4], b[2:6] = 0, 0  # zero on the left, on both sides, on the right
    assert t.add_arrays(a, b).tolist() == [t.add(x, y) for x, y in zip(a.tolist(), b.tolist())]
    minus = np.array([t.neg(x) for x in a.tolist()])
    assert not t.add_arrays(a, minus).any() and not t.add_arrays(minus, a).any()
    # value_grid's broadcast: one head row per run against the run's tail rows
    head, tail = a[:12].reshape(3, 4), b[:20].reshape(5, 4)
    got = t.add_arrays(head[:, None], tail)
    assert got.shape == (3, 5, 4)
    assert got.tolist() == [[[t.add(x, y) for x, y in zip(hr, tr)] for tr in tail.tolist()]
                            for hr in head.tolist()]
    # power_terms: c * (omega^r)^power on a new last axis, 0 where c = 0
    c = np.array([[0, 1], [rng.randrange(1, t.size), rng.randrange(1, t.size)]])
    rs = sorted({0, 1, n - 1, *rng.sample(range(n), min(n, 40))})
    points = [t.pow_int(t.omega, r) for r in rs]
    for power in (0, 1, t.q, n, n + 1, 3 * n + 2):
        got = t.power_terms(c, power)
        assert got.shape == (2, 2, n)
        assert got[..., rs].tolist() == [[[t.mul(x, t.pow_int(w, power)) for w in points]
                                          for x in row] for row in c.tolist()]
    x = int(c[1, 0])
    assert t.power_terms(x, 2).tolist() == [t.mul(x, t.pow_int(t.omega, 2 * r)) for r in range(n)]
    assert t.power_terms(0, 2).tolist() == [0] * n


ODD_TOWERS = [(3, 1, 1), (3, 1, 2), (5, 1, 2), (3, 1, 3), (7, 1, 2), (3, 1, 4), (11, 1, 2),
               (3, 3, 2)]


@pytest.mark.parametrize("key", ODD_TOWERS, ids=lambda k: "F%d_%d_%d" % k)
def test_add_arrays_matches_scalar_add_on_every_pair(key):
    # the whole size x size table reads every region of the odd-p jump
    # table: a = 0, b = 0, both, cancelling pairs, and logs apart by less
    # than n either way
    t = conftest.tower(*key)
    x = np.arange(t.size)
    got = t.add_arrays(x[:, None], x)
    assert got.shape == (t.size, t.size) and got.dtype == np.int64
    assert got.tolist() == [[t.add(a, b) for b in range(t.size)] for a in range(t.size)]
    place = t.p ** np.arange(t.degree)
    digits = x[:, None] // place % t.p
    assert (got == (digits[:, None] + digits) % t.p @ place).all()  # digitwise, no logs
    # a broadcast of int32 blocks, zeros included
    a = ((np.arange(6, dtype=np.int32) * 5 + 1) % t.size).reshape(2, 1, 3)
    b = (np.arange(12, dtype=np.int32) * 7 % t.size).reshape(4, 3)
    got = t.add_arrays(a, b)
    assert got.shape == (2, 4, 3) and got.dtype == np.int64
    assert got.tolist() == [[[t.add(u, v) for u, v in zip(ar, br)] for br in b.tolist()]
                            for ar in a[:, 0].tolist()]


@pytest.mark.parametrize("key", KERNEL_TOWERS, ids=lambda k: "F%d_%d_%d" % k)
def test_elimination_and_compose_match_scalar_oracles(key):
    t = conftest.tower(*key)
    rng = random.Random(str(key))
    for n_rows, n_cols in [(3, 3), (4, 4), (3, 6), (5, 2), (1, 4)]:
        for i in range(12):
            m = [_sparse(rng, t, n_cols) for _ in range(n_rows)]
            if i % 4 == 1:
                m[rng.randrange(n_rows)] = [0] * n_cols  # a zero row
            elif i % 4 == 2 and n_rows > 1:  # a row dependent on the others
                c = rng.randrange(1, t.size)
                m[-1] = [t.add(x, t.mul(c, y)) for x, y in zip(m[0], m[1 % (n_rows - 1)])]
            assert linalg.mat_rref(t, m) == oracles.scalar_mat_rref(t, m)
            if n_rows == n_cols:
                assert linalg.mat_det(t, m) == oracles.scalar_mat_det(t, m)
            v = _sparse(rng, t, n_cols)
            assert linalg.mat_vec(t, m, v) == oracles.scalar_mat_vec(t, m, v)
            b = [_sparse(rng, t, 3) for _ in range(n_cols)]
            assert linalg.mat_mul(t, m, b) == oracles.scalar_mat_mul(t, m, b)
    for _ in range(40):
        f, g = (tuple(_sparse(rng, t, t.h)) for _ in range(2))
        got = LinearizedPoly(t, f).compose(LinearizedPoly(t, g)).coeffs
        assert got == oracles.scalar_compose(t, f, g)


def test_sizes(f4, f9, f16_over_f4):
    assert (f4.q, f4.size) == (2, 4)
    assert (f9.q, f9.size) == (3, 9)
    assert (f16_over_f4.q, f16_over_f4.size) == (4, 16)
    assert len(f16_over_f4.fq_elements) == 4


# exhaustive up to 16 elements, sampled above; 3^10 > gf._BLOCK, so its exp
# table is made in several blocks
@pytest.mark.parametrize("key", [(2, 1, 2), (3, 1, 2), (2, 2, 2),
                                 (3, 2, 4), (5, 1, 6), (2, 1, 12), (3, 1, 10)])
def test_mul_against_naive_poly_arithmetic(key):
    from conftest import tower
    t = tower(*key)
    p, d, m = t.p, t.degree, t.modulus
    if t.size <= 16:
        pairs = [(x, y) for x in t.elements() for y in t.elements()]
    else:
        rng = random.Random(t.size)
        pairs = [(rng.randrange(t.size), rng.randrange(t.size)) for _ in range(150)]
    # Zech edge cases: x + (-x), 1 + (-1), zero operands, log b < log a
    pairs += [(x, oracles.field_neg(x, p, d)) for x, _ in pairs[:20]]
    pairs += [(1, oracles.field_neg(1, p, d)), (0, 0), (0, 1), (1, 0)]
    pairs += [(oracles.field_pow(t.omega, i, m, p), oracles.field_pow(t.omega, i // 3, m, p))
              for i in (1, 2, 7, t.size - 2)]
    for x, y in pairs:
        assert t.mul(x, y) == oracles.field_mul(x, y, m, p)
        assert t.add(x, y) == oracles.field_add(x, y, p, d)
        assert t.neg(x) == oracles.field_neg(x, p, d)
        assert t.sub(x, y) == oracles.field_add(x, oracles.field_neg(y, p, d), p, d)
        if x:
            inv = t.inv(x)
            assert oracles.field_mul(x, inv, m, p) == 1
            for n in (2, 5, t.size, -1, -3):
                want = oracles.field_pow(x if n > 0 else inv, abs(n), m, p)
                assert t.pow_int(x, n) == want
        for i in range(t.h + 1):
            assert t.frob(x, i) == oracles.field_pow(x, t.q ** i, m, p)
    assert len(t.fq_elements) == t.q
    assert all(oracles.field_pow(a, t.q, m, p) == a for a in t.fq_elements[:50])
    for x, _ in pairs:
        assert t.from_coords(t.coords(x)) == x
        assert all(c in t.fq_elements for c in t.coords(x))


def test_coords_cache_lives_in_the_tower_memo():
    # two towers of their own, equal but not the same object
    t, other = field_create(5, 1, 2), field_create(5, 1, 2)
    x = t.omega_powers[1]
    assert x not in t.memo("coords")
    cs = t.coords(x)
    assert cs == (0, 1) and t.memo("coords") == {x: cs}
    assert other.memo("coords") == {}
    assert other.coords(x) == cs and t.coords(x) is cs


def test_field_axioms_sampled(f25):
    rng = random.Random(1)
    els = list(f25.elements())
    for _ in range(300):
        x, y, z = (rng.choice(els) for _ in range(3))
        assert f25.mul(x, f25.add(y, z)) == f25.add(f25.mul(x, y), f25.mul(x, z))
        assert f25.mul(x, y) == f25.mul(y, x)
        assert f25.add(x, f25.neg(x)) == 0
        if x:
            assert f25.mul(x, f25.inv(x)) == 1


def test_omega_generates(f9):
    powers = {f9.pow_int(f9.omega, i) for i in range(f9.size - 1)}
    assert powers == set(f9.nonzero())


def test_frobenius_is_field_automorphism_fixing_fq(f9):
    for x in f9.elements():
        assert f9.frob(x) == f9.pow_int(x, f9.q)
        for y in f9.elements():
            assert f9.frob(f9.add(x, y)) == f9.add(f9.frob(x), f9.frob(y))
            assert f9.frob(f9.mul(x, y)) == f9.mul(f9.frob(x), f9.frob(y))
    for a in f9.fq_elements:
        assert f9.frob(a) == a
    assert f9.frob(5, 2) == 5  # q^h power is the identity


def test_subfield_membership(f8, f27):
    # proper intermediate subfields of F_{q^3}: degree 1 only
    for t in (f8, f27):
        assert all(t.in_subfield(a, 1) == t.in_fq(a) for a in t.elements())
        fixed = [x for x in t.elements() if t.frob(x) == x]
        assert sorted(t.fq_elements) == sorted(fixed)
        with pytest.raises(InvalidSubfield):
            t.in_subfield(1, 2)  # 2 does not divide h = 3


def test_subfield_degree(f8):
    assert f8.subfield_degree(0) == 1
    assert f8.subfield_degree(1) == 1
    outside = [x for x in f8.elements() if not f8.in_fq(x)]
    assert all(f8.subfield_degree(x) == 3 for x in outside)


def test_coords_roundtrip(f9, f16_over_f4):
    for t in (f9, f16_over_f4):
        for x in t.elements():
            cs = t.coords(x)
            assert len(cs) == t.h
            assert all(c in t.fq_elements for c in cs)
            assert t.from_coords(cs) == x


def test_coords_are_fq_linear(f9):
    for x in f9.elements():
        for y in f9.elements():
            s = f9.add(x, y)
            assert f9.coords(s) == tuple(
                f9.add(a, b) for a, b in zip(f9.coords(x), f9.coords(y)))
    for a in f9.fq_elements:
        for x in f9.elements():
            assert f9.coords(f9.mul(a, x)) == tuple(
                f9.mul(a, c) for c in f9.coords(x))


def test_trace_lands_in_fq_and_is_linear(f9, f8):
    for t in (f9, f8):
        for x in t.elements():
            assert t.in_fq(t.trace_to_fq(x))
        for x in t.elements():
            for y in t.elements():
                assert t.trace_to_fq(t.add(x, y)) == \
                    t.add(t.trace_to_fq(x), t.trace_to_fq(y))


def test_dual_basis(f9, f8):
    assert f9.dual_basis() == (8, 3)
    for t in (f9, f8):
        delta = t.dual_basis()
        for l in range(t.h):
            for m in range(t.h):
                got = t.trace_to_fq(t.mul(delta[l], t.omega_powers[m]))
                assert got == (1 if l == m else 0)


def test_digits_roundtrip(f27):
    for x in f27.elements():
        digs = f27.digits(x)
        assert len(digs) == f27.degree
        assert f27.from_digits(digs) == x


def test_descriptor_and_json_roundtrip(f25):
    desc = f25.descriptor()
    again = FieldTower.from_descriptor(desc)
    assert again.key == f25.key
    text = field_to_json(f25)
    assert json.loads(text) == desc
    assert field_from_json(text).key == f25.key


def test_integers_accept_numpy_and_reject_bools(f25):
    desc = f25.descriptor()
    for key in ("p", "e", "h"):
        assert FieldTower.from_descriptor(dict(desc, **{key: np.int64(desc[key])})).key == f25.key
        for bad in (True, 2.0, "2"):
            with pytest.raises(ValueError, match=f"^field descriptor {key} must be an integer$"):
                FieldTower.from_descriptor(dict(desc, **{key: bad}))
    assert f25.from_digits([np.int64(3), np.uint8(1)]) == f25.from_digits([3, 1])
    for bad in ([True, 1], [1.0, 1]):
        with pytest.raises(ValueError, match="^digit vector must be a list of integers$"):
            f25.from_digits(bad)


def test_explicit_modulus_validation():
    with pytest.raises(ValueError):
        FieldTower(2, 1, 2, modulus=[1, 0, 1])  # reducible: x^2 + 1 over F_2
    with pytest.raises(ValueError):
        FieldTower(2, 1, 2, modulus=[1, 1, 1], omega=1)  # not primitive
    t = FieldTower(2, 1, 2, modulus=[1, 1, 1], omega=3)
    assert t.omega == 3 and t.mul(2, 3) == 1


def test_constructor_errors():
    with pytest.raises(NotPrime):
        field_create(6, 1, 2)
    with pytest.raises(NotPrime):
        field_create(1, 1, 2)
    with pytest.raises(TowerTooLarge):
        field_create(6, 1, 40)  # the size is checked before primality
    with pytest.raises(TowerTooLarge):
        field_create(2, 1, 40)
    with pytest.raises(ValueError):
        field_create(2, 0, 2)


def test_pow_int_handles_negative(f9):
    for x in f9.nonzero():
        assert f9.pow_int(x, -1) == f9.inv(x)
        assert f9.pow_int(x, 0) == 1
    assert (f9.pow_int(0, 0), f9.pow_int(0, 3)) == (1, 0)
    for zero_inverse in (lambda: f9.inv(0), lambda: f9.pow_int(0, -1)):
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            zero_inverse()


@pytest.mark.parametrize("key", [(2, 1, 1), (5, 1, 1), (2, 2, 2), (3, 1, 3), (2, 3, 2)])
def test_in_fq_log_test_matches_element_list(key):
    # in_fq reads log x; fq_elements is built on first use, in increasing order
    t = field_create(*key)
    assert "fq_elements" not in t._cache
    members = [x for x in t.elements() if t.in_fq(x)]
    assert members == list(t.fq_elements) == sorted(x for x in t.elements() if t.frob(x) == x)
    assert not t.in_fq(t.size) and not t.in_fq(-1)


def test_only_gf_knows_how_elements_add():
    # array sums go through the tower's kernels: no other module mentions
    # Zech logarithms, and neither the modules nor the tests' oracles import
    # a private helper from linpoly
    src = Path(__file__).resolve().parents[1] / "src" / "addmds"
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        if path.name != "gf.py":
            assert "zech" not in path.read_text(encoding="utf-8").lower(), path.name
    for path in modules + [Path(oracles.__file__)]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linpoly"):
                assert not [a.name for a in node.names if a.name.startswith("_")], path.name
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "linpoly":
                assert not node.attr.startswith("_"), (path.name, node.attr)


def test_every_helper_has_a_caller():
    # a private function or method of src/addmds, or any linalg function,
    # that no code of src/addmds names is a second route left behind
    src = Path(__file__).resolve().parents[1] / "src" / "addmds"
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    helpers, named = [], set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if (node.name.startswith("_") and not dunder
                        or module == "linalg.py" and node in tree.body):
                    helpers.append((module, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert len(helpers) > 80
    assert [h for h in helpers if h[1] not in named] == []

import inspect
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from addmds import linalg, linpoly
from addmds.errors import InvalidSubfield, NotInvertible, TowerMismatch
from addmds.gf import field_create
from addmds.linpoly import (
    LinearizedPoly,
    all_linearized,
    evaluation_table,
    inverse_table,
    invertible_linearized,
    random_invertible,
    value_grid,
)

import conftest
import oracles

# |GL_h(F_q)| counts, frozen
INVERTIBLE_COUNTS = {(2, 1, 2): 6, (2, 1, 3): 168, (3, 1, 2): 48}


def test_evaluation_matches_naive_powering(f8, f9, f25, f27, f16_over_f4):
    # random coefficients, each zero with probability 1/3, the zero
    # polynomial and every monomial, at every x including 0
    rng = random.Random(0)
    for t in (f9, f8, f16_over_f4, f25, f27, conftest.tower(5, 1, 3)):
        polys = [tuple(0 if rng.randrange(3) == 0 else rng.randrange(t.size) for _ in range(t.h))
                 for _ in range(40)]
        polys += [(0,) * t.h] + [LinearizedPoly.monomial(t, rng.randrange(1, t.size), i).coeffs
                                 for i in range(t.h)]
        assert any(0 in coeffs for coeffs in polys[:40])
        for coeffs in polys:
            f = LinearizedPoly(t, coeffs)
            for x in t.elements():
                assert f(x) == oracles.lin_eval(t, coeffs, x), (t, coeffs, x)


def test_evaluation_is_fq_linear(f9):
    f = LinearizedPoly(f9, (4, 7))
    for x in f9.elements():
        for y in f9.elements():
            assert f(f9.add(x, y)) == f9.add(f(x), f(y))
    for a in f9.fq_elements:
        for x in f9.elements():
            assert f(f9.mul(a, x)) == f9.mul(a, f(x))


def test_compose_matches_pointwise(f8, f9, f25, f27, f16_over_f4):
    rng = random.Random(2)
    for t in (f8, f9, f25, f27, f16_over_f4):
        for _ in range(30):
            f = LinearizedPoly(t, tuple(rng.randrange(t.size) for _ in range(t.h)))
            g = LinearizedPoly(t, tuple(rng.randrange(t.size) for _ in range(t.h)))
            comp = f.compose(g)
            for x in t.elements():
                assert comp(x) == oracles.lin_eval(t, f.coeffs, oracles.lin_eval(t, g.coeffs, x))
    # F_8 and F_27 share h = 3, so only the tower check tells them apart
    f, g = LinearizedPoly.identity(f8), LinearizedPoly.identity(f27)
    for op in (f.compose, f.__add__, f.__sub__):
        with pytest.raises(TowerMismatch, match="towers differ"):
            op(g)


def _assert_table_rows(table, polys):
    t = polys[0].tower
    assert table.shape == (len(polys), t.size - 1, t.h)
    for f, rows in zip(polys, table):
        for r, row in enumerate(rows.tolist()):
            assert tuple(row) == f.conjugate(t.pow_int(t.omega, r)).coeffs


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2),
                                 (5, 1, 2), (3, 1, 3), (7, 1, 2)])
def test_conjugation_table_matches_conjugate(key):
    from conftest import tower
    t = tower(*key)
    rng = random.Random(40)
    polys = [random_invertible(t, rng) for _ in range(8)]
    polys.append(LinearizedPoly.identity(t))
    _assert_table_rows(oracles.conjugation_table(polys), polys)
    # one poly on its own gives the same rows as inside a batch
    _assert_table_rows(oracles.conjugation_table(polys[:1]), polys[:1])


def test_conjugation_table_rejects_bad_input(f9):
    with pytest.raises(ValueError):
        oracles.conjugation_table([])
    with pytest.raises(NotInvertible):
        oracles.conjugation_table([LinearizedPoly.identity(f9), LinearizedPoly.zero(f9)])


@pytest.mark.parametrize("key", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 1, 3), (5, 1, 3)])
def test_compose_table_matches_compose(key):
    # F_8 and F_16/F_4 add by XOR, F_9, F_27 and F_125 through Zech logarithms
    from conftest import tower
    t = tower(*key)
    rng = random.Random(41)

    def draw():  # about half the coefficients zero
        return tuple(rng.choice((0, rng.randrange(1, t.size))) for _ in range(t.h))

    rows = [draw() for _ in range(60)] + [(0,) * t.h, (1,) + (0,) * (t.h - 1)]
    ms = [LinearizedPoly.monomial(t, rng.randrange(1, t.size), i) for i in range(t.h)]
    ms += [LinearizedPoly(t, draw()) for _ in range(6)]
    ms += [LinearizedPoly(t, (0,) + (rng.randrange(1, t.size),) * (t.h - 1)),
           LinearizedPoly(t, tuple(rng.randrange(1, t.size) for _ in range(t.h))),
           LinearizedPoly.zero(t)]
    for m in ms:
        table = oracles.compose_table(m, rows)
        assert table.shape == (len(rows), t.h)
        for g, out in zip(rows, table.tolist()):
            assert tuple(out) == m.compose(LinearizedPoly(t, g)).coeffs


def test_compose_table_rejects_bad_shape(f9):
    with pytest.raises(ValueError):
        oracles.compose_table(LinearizedPoly.identity(f9), [[1, 2, 3]])


@pytest.mark.parametrize("key", [(2, 1, 3), (2, 2, 2), (3, 1, 2), (5, 1, 2), (3, 1, 3), (5, 1, 3)])
def test_evaluation_table_matches_evaluation(key):
    # F_8 and F_16/F_4 add by XOR, F_9, F_25, F_27 and F_125 through Zech logarithms
    from conftest import tower
    t = tower(*key)
    rng = random.Random(42)

    def draw():  # about half the coefficients zero
        return tuple(rng.choice((0, rng.randrange(1, t.size))) for _ in range(t.h))

    rows = [draw() for _ in range(20)] + [(0,) * t.h, (1,) + (0,) * (t.h - 1)]
    rows.append(tuple(rng.randrange(1, t.size) for _ in range(t.h)))
    table = evaluation_table(t, rows)
    assert table.shape == (len(rows), t.size - 1)
    for g, values in zip(rows, table.tolist()):
        f = LinearizedPoly(t, g)
        points = [t.pow_int(t.omega, r) for r in range(t.size - 1)]
        assert values == [f(x) for x in points]
        assert values == [oracles.lin_eval(t, g, x) for x in points]
    assert not table[len(rows) - 3].any()  # the zero polynomial


def test_evaluation_table_rejects_bad_shape(f9):
    with pytest.raises(ValueError):
        evaluation_table(f9, [[1, 2, 3]])
    with pytest.raises(ValueError):
        evaluation_table(f9, [1, 2])


GRID_TOWERS = {"F4": (2, 1, 2), "F8": (2, 1, 3), "F9": (3, 1, 2), "F27": (3, 1, 3),
               "F16_F4": (2, 2, 2), "F16_F2": (2, 1, 4), "F49": (7, 1, 2), "F64_F8": (2, 3, 2)}


def _grid(t, choices):
    """The blocks of ``value_grid`` stacked, after checking each block's
    values and its cell count against the cap."""
    blocks, tables = [], []
    for block, values in value_grid(t, choices):
        assert block.shape == (len(values), t.h) and values.shape[1] == t.size - 1
        assert 0 < values.size <= max(linpoly.EVAL_CHUNK_CELLS, t.size - 1)
        blocks.append(block)
        tables.append(values)
    rows, values = np.vstack(blocks), np.vstack(tables)
    assert (values == evaluation_table(t, rows)).all()
    return rows


@pytest.mark.parametrize("key", GRID_TOWERS.values(), ids=GRID_TOWERS)
def test_value_grid_matches_lex_rows(key, monkeypatch):
    # every polynomial, the hunt's g_0 <= 1 range and every two-term grid, with
    # blocks of one row (cap 7), three rows (3n), a split run of the last
    # position or a few whole runs (300), and the default cap
    from conftest import tower
    t = tower(*key)
    n, every = t.size - 1, range(t.size)
    for cap in (7, 300, 3 * n, linpoly.EVAL_CHUNK_CELLS):
        monkeypatch.setattr(linpoly, "EVAL_CHUNK_CELLS", cap)
        assert (_grid(t, [every] * t.h) == oracles.lex_rows(t, t.size ** t.h)).all()
        hunt = [(0, 1)] + [every] * (t.h - 1)
        assert (_grid(t, hunt) == oracles.lex_rows(t, 2 * t.size ** (t.h - 1))).all()
        for i, l in combinations(range(t.h), 2):
            pair = [range(1, t.size) if j in (i, l) else (0,) for j in range(t.h)]
            assert (_grid(t, pair) == oracles.two_term_rows(t, i, l)).all()


def test_value_grid_edge_cases(f9, f8):
    assert [b.tolist() + v.tolist() for b, v in value_grid(f9, [(0,), (0,)])] == [[[0, 0], [0] * 8]]
    assert list(value_grid(f9, [(), range(9)])) == []
    (block, values), = value_grid(f8, [(5,), (0,), (0, 3)])  # a fixed nonzero position
    assert block.tolist() == [[5, 0, 0], [5, 0, 3]]
    assert (values == evaluation_table(f8, block)).all()
    with pytest.raises(ValueError):
        next(value_grid(f9, [range(9)]))


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 1, 3)])
def test_invertible_list_matches_dickson_filter(key):
    from conftest import tower
    t = tower(*key)
    assert invertible_linearized(t) == tuple(f for f in all_linearized(t) if f.is_invertible())
    gl = 1
    for i in range(t.h):
        gl *= t.size - t.q ** i
    assert len(invertible_linearized(t)) == gl


def test_invertible_list_spans_blocks(monkeypatch):
    # 3 polynomials per block on a fresh tower, so the memo is built here
    t = field_create(3, 1, 2)
    monkeypatch.setattr(linpoly, "EVAL_CHUNK_CELLS", 3 * (t.size - 1))
    assert invertible_linearized(t) == tuple(f for f in all_linearized(t) if f.is_invertible())


@pytest.mark.parametrize("key", sorted(INVERTIBLE_COUNTS))
def test_invertibility_three_ways_exhaustive(key):
    from conftest import tower
    t = tower(*key)
    count = 0
    for f in all_linearized(t):
        det = f.dickson_det()
        bij = oracles.is_bijective(t, f.coeffs)
        assert (det != 0) == bij
        if bij:
            count += 1
    assert count == INVERTIBLE_COUNTS[key]
    assert len(invertible_linearized(t)) == count


def _rows(polys):
    return np.array([f.coeffs for f in polys], dtype=np.int64)


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2)],
                         ids=["F4", "F8", "F9", "F27", "F16_F4"])
def test_inverse_table_matches_dickson_inverse(key):
    # each route on a tower of its own, so neither could read the other's memo
    t, dickson = field_create(*key), field_create(*key)
    polys = invertible_linearized(t)
    got = inverse_table(t, _rows(polys)).tolist()
    assert got == [list(LinearizedPoly(dickson, f.coeffs).inverse().coeffs) for f in polys]
    assert inverse_table(t, _rows(polys)[:0]).shape == (0, t.h)


def test_inverse_table_leaves_the_inverse_memo_alone():
    # only LinearizedPoly.inverse reads or writes the memo
    t = field_create(3, 1, 3)
    rows = _rows(invertible_linearized(t))
    inverse_table(t, rows)
    assert t.memo("inverses") == {}
    f = invertible_linearized(t)[5]
    f.inverse()
    before = dict(t.memo("inverses"))
    assert (inverse_table(t, rows[5:6]) == [f.inverse().coeffs]).all()
    assert t.memo("inverses") == before


def test_inverse_table_rejects_singular_rows_and_bad_shapes(f9):
    fresh = field_create(3, 1, 2)
    rows = _rows(invertible_linearized(fresh)[:4])
    singular = np.array([[fresh.neg(1), 1]])  # X^q - X kills F_q
    with pytest.raises(NotInvertible, match="no compositional inverse"):
        inverse_table(fresh, np.concatenate([rows, singular, rows]))
    with pytest.raises(NotInvertible):
        inverse_table(fresh, np.zeros((1, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        inverse_table(f9, np.zeros((2, 3), dtype=np.int64))


def test_inverse_table_checks_every_row():
    # a Moore inverse with two rows swapped interpolates the wrong map
    t = field_create(2, 1, 3)
    right = linalg.mat_inv(t, [[t.frob(w, i) for i in range(t.h)] for w in t.omega_powers])
    t.memo("moore_inv", lambda: [right[1], right[0]] + right[2:])
    with pytest.raises(AssertionError, match="f\\(f\\^-1\\(x\\)\\) != x"):
        inverse_table(t, _rows(invertible_linearized(t)))
    assert t.memo("inverses") == {}


# the gf tests' kernel towers: F_4, F_8, F_9, F_25, F_27, F_16/F_4, F_64/F_4, F_{81^2}
KERNEL_TOWERS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (5, 1, 2), (3, 1, 3), (2, 2, 2), (2, 2, 3),
                 (3, 4, 2)]


@pytest.mark.parametrize("key", KERNEL_TOWERS, ids=lambda k: "F%d_%d_%d" % k)
def test_compose_rows_matches_compose(key):
    # seeded pairs, about a third of the coefficients zero, the zero
    # polynomial on either side; one row against a stack, and a 3-d stack
    t = conftest.tower(*key)
    rng = random.Random(str(key))

    def poly():
        return tuple(rng.choice((0, rng.randrange(1, t.size), rng.randrange(1, t.size)))
                     for _ in range(t.h))

    pairs = [(poly(), poly()) for _ in range(118)] + [((0,) * t.h, poly()), (poly(), (0,) * t.h)]
    f, g = (np.array(side, dtype=np.int64) for side in zip(*pairs))

    def compose(a, b):
        return list(LinearizedPoly(t, tuple(a)).compose(LinearizedPoly(t, tuple(b))).coeffs)

    assert linpoly.compose_rows(t, f, g).tolist() == [compose(a, b) for a, b in pairs]
    assert linpoly.compose_rows(t, f, g[0]).tolist() == [compose(a, g[0]) for a in f]
    assert linpoly.compose_rows(t, f[0], g).tolist() == [compose(f[0], b) for b in g]
    stacked = linpoly.compose_rows(t, f.reshape(4, 30, t.h), g.reshape(4, 30, t.h))
    assert stacked.reshape(-1, t.h).tolist() == [compose(a, b) for a, b in pairs]
    with pytest.raises(ValueError):
        linpoly.compose_rows(t, f[:, :1], g[:, :1])


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2)],
                         ids=["F4", "F8", "F9", "F27", "F16_F4"])
def test_dickson_inverses_match_dickson_inverse(key):
    # each route on a tower of its own, so neither could read the other's memo
    t, dickson = field_create(*key), field_create(*key)
    polys = invertible_linearized(t)
    inv, singular = linpoly.dickson_inverses(t, _rows(polys))
    assert not singular.any()
    assert inv.tolist() == [list(LinearizedPoly(dickson, f.coeffs).inverse().coeffs) for f in polys]
    empty = linpoly.dickson_inverses(t, _rows(polys)[:0])
    assert empty[0].shape == (0, t.h) and empty[1].shape == (0,)
    assert t.memo("inverses") == {}


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 1)],
                         ids=["F4", "F8", "F9", "F16_F4", "F5"])
def test_dickson_inverses_flag_singular_rows(key):
    # every polynomial of the tower, singular ones between invertible ones
    t = field_create(*key)
    polys = list(all_linearized(t))
    inv, singular = linpoly.dickson_inverses(t, _rows(polys))
    assert singular.tolist() == [not f.is_invertible() for f in polys]
    assert 0 < singular.sum() < len(polys)
    assert not inv[singular].any()
    assert t.memo("inverses") == {}
    assert inv[~singular].tolist() == [list(f.inverse().coeffs) for f in polys if f.is_invertible()]
    with pytest.raises(ValueError):
        linpoly.dickson_inverses(t, np.zeros((2, t.h + 1), dtype=np.int64))


def test_dickson_inverses_check_a_mutant_elimination():
    # the elimination without its pivot scaling returns wrong rows, and the
    # kernel's own composition check stops them
    source = inspect.getsource(linpoly.dickson_inverses)
    scaling = [line for line in source.splitlines(keepends=True) if "the pivot scaled to 1" in line]
    assert len(scaling) == 1
    namespace = dict(vars(linpoly))
    exec(source.replace(scaling[0], ""), namespace)
    t = field_create(3, 1, 2)
    rows = _rows(invertible_linearized(t))
    with pytest.raises(AssertionError, match=r"^dickson_inverses: f\(f\^-1\) != X for \("):
        namespace["dickson_inverses"](t, rows)
    assert not linpoly.dickson_inverses(t, rows)[1].any()


def test_inverse_composes_to_identity(f9):
    ident = LinearizedPoly.identity(f9)
    for f in invertible_linearized(f9):
        assert f.compose(f.inverse()) == ident
        assert f.inverse().compose(f) == ident


def test_inverse_raises_on_singular(f9):
    with pytest.raises(NotInvertible):
        LinearizedPoly(f9, (0, 0)).inverse()
    # X^q - X kills F_q, hence singular
    with pytest.raises(NotInvertible):
        LinearizedPoly(f9, (f9.neg(1), 1)).inverse()


def test_inverse_check_survives_python_O(tmp_path):
    # under -O an assert is stripped, and an unchecked inverse would be returned
    script = """
import random, sys
from addmds.gf import field_create
from addmds.linpoly import LinearizedPoly, random_invertible
assert False, "this script must run under -O"
t = field_create(3, 1, 2)
f = random_invertible(t, random.Random(0))
LinearizedPoly.compose = lambda self, other: LinearizedPoly(t, (0, 1))  # X^q, not X
try:
    f.inverse()
except AssertionError as exc:
    sys.exit(0 if "f(f^-1) != X" in str(exc) else 3)
sys.exit(1)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_dickson_turns_composition_into_product(f8):
    rng = random.Random(3)
    for _ in range(100):
        f = LinearizedPoly(f8, tuple(rng.randrange(8) for _ in range(3)))
        g = LinearizedPoly(f8, tuple(rng.randrange(8) for _ in range(3)))
        lhs = f.compose(g).dickson()
        rhs = linalg.mat_mul(f8, f.dickson(), g.dickson())
        assert lhs == rhs


@pytest.mark.parametrize("key", [(3, 1, 2), (2, 1, 3), (2, 2, 2)])
def test_matrix_acts_on_coordinates(key):
    """coords(f(x)) = coords(x) M(f) for every x and 20 seeded f, and
    M(f o g) = M(g) M(f)."""
    from conftest import tower
    t = tower(*key)
    rng = random.Random(sum(key))
    polys = [LinearizedPoly(t, tuple(rng.randrange(t.size) for _ in range(t.h)))
             for _ in range(20)]
    for f, g in zip(polys, polys[1:]):
        m = f.matrix()
        assert all(t.in_fq(c) for row in m for c in row)
        for x in t.elements():
            assert linalg.mat_mul(t, [list(t.coords(x))], m) == [list(t.coords(f(x)))]
        assert f.compose(g).matrix() == linalg.mat_mul(t, g.matrix(), m)


def test_from_values_interpolation(f9):
    rng = random.Random(4)
    for _ in range(25):
        f = LinearizedPoly(f9, tuple(rng.randrange(9) for _ in range(2)))
        values = [f(w) for w in f9.omega_powers]
        assert LinearizedPoly.from_values(f9, values) == f
    # arbitrary basis images always interpolate
    vals = [rng.randrange(9) for _ in range(2)]
    g = LinearizedPoly.from_values(f9, vals)
    assert [g(w) for w in f9.omega_powers] == vals


def test_conjugate_pointwise(f9):
    for f in invertible_linearized(f9)[:12]:
        finv = f.inverse()
        for a in f9.nonzero():
            c = f.conjugate(a)
            for x in f9.elements():
                assert c(x) == f(f9.mul(a, finv(x)))


def test_conjugate_rejects_zero(f9):
    with pytest.raises(ValueError):
        LinearizedPoly.identity(f9).conjugate(0)


def test_frobenius_twist(f8):
    rng = random.Random(5)
    for _ in range(20):
        f = LinearizedPoly(f8, tuple(rng.randrange(8) for _ in range(3)))
        for e in range(3):
            tw = f.frobenius_twist(e)
            for x in f8.elements():
                assert tw(x) == f(f8.frob(x, e))


def test_semilinear_support_test_matches_definition(f8):
    # brute: exists i with f(a x) = a^(q^i) f(x) for all a in F_q (s = 1)
    for f in invertible_linearized(f8):
        brute = False
        for i in range(3):
            if all(f(f8.mul(a, x)) == f8.mul(f8.frob(a, i), f(x))
                   for a in f8.fq_elements for x in f8.elements()):
                brute = True
                break
        assert f.is_semilinear(1) == brute
    with pytest.raises(InvalidSubfield):
        LinearizedPoly.identity(f8).is_semilinear(2)
    # F_16 over F_2, s = 2: a in F_4, and the answer is a Python bool
    t = field_create(2, 1, 4)
    sub = [a for a in t.elements() if t.in_subfield(a, 2)]
    rng = random.Random(16)
    for _ in range(60):
        f = LinearizedPoly(t, tuple(rng.choice((0, rng.randrange(1, 16))) for _ in range(4)))
        if not any(f.coeffs):
            continue
        brute = any(all(f(t.mul(a, x)) == t.mul(t.frob(a, i), f(x)) for a in sub for x in t.elements())
                    for i in range(4))
        assert f.is_semilinear(2) is brute
    with pytest.raises(InvalidSubfield):
        LinearizedPoly.zero(t).is_semilinear(3)
    with pytest.raises(ValueError, match="zero polynomial"):
        LinearizedPoly.zero(t).is_semilinear(2)


def test_support_helpers(f9):
    f = LinearizedPoly(f9, (0, 5))
    assert f.support() == (1,)
    assert f.is_monomial() and any(f.coeffs[1:])
    assert f.zero_coeff_count() == 1
    assert LinearizedPoly.scalar(f9, 3).coeffs == (3, 0)
    assert LinearizedPoly.zero(f9).coeffs == (0, 0)
    assert LinearizedPoly.monomial(f9, 2, 5).coeffs == (0, 2)  # index mod h


def test_conjugation_subfield_degree(f27):
    degree = oracles.conjugation_subfield_degree
    assert degree(LinearizedPoly(f27, (1, 0, 0))) == 3
    assert degree(LinearizedPoly(f27, (0, 1, 0))) == 3
    assert degree(LinearizedPoly(f27, (1, 1, 0))) == 1
    assert degree(LinearizedPoly(f27, (1, 0, 1))) == 1
    with pytest.raises(ValueError):
        degree(LinearizedPoly.zero(f27))


def test_json_roundtrip(f25):
    rng = random.Random(6)
    f = random_invertible(f25, rng)
    assert LinearizedPoly.from_json(f25, f.to_json()) == f


def test_algebra_ops(f9):
    f = LinearizedPoly(f9, (1, 2))
    g = LinearizedPoly(f9, (3, 0))
    assert (f + g).coeffs == (f9.add(1, 3), 2)
    assert (f - g).coeffs == (f9.sub(1, 3), 2)
    assert LinearizedPoly.scalar(f9, 2).compose(f).coeffs == (f9.mul(2, 1), f9.mul(2, 2))
    with pytest.raises(ValueError):
        LinearizedPoly(f9, (1,))

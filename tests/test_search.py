import json
import random

import numpy as np
import pytest

from addmds import linpoly
from addmds import search as search_mod
from addmds.code import is_mds, linear_equivalence_witness, project
from addmds.errors import BudgetExceeded, FieldTooSmall, NotInvertible
from addmds.gf import field_create
from addmds.linpoly import LinearizedPoly, all_linearized, invertible_linearized
from addmds.search import (
    K4Example,
    _alpha_ok,
    _first_hit,
    _lambdas,
    assemble_code,
    base_mds_matrix,
    example_from_dict,
    example_to_dict,
    k4_example_search,
    largest_proper_divisor,
    mds_screen,
    nq_bounds,
    screen_conditions,
    verify_k4_example,
)

import conftest
import oracles


def test_nq_bounds_table():
    assert nq_bounds(5, 2) == (6, 6)
    assert nq_bounds(5, 4) == (6, 8)
    assert nq_bounds(4, 5) == (6, 6)  # k >= q regime
    assert nq_bounds(9, 3) == (10, 11)
    with pytest.raises(ValueError):
        nq_bounds(5, 1)
    assert largest_proper_divisor(2) == 1
    assert largest_proper_divisor(6) == 3
    assert largest_proper_divisor(1) == 1


def test_base_matrix_frozen(f25):
    base = base_mds_matrix(f25, 4, 6)
    assert base == (
        (1, 0, 0, 0, 1, 1),
        (0, 1, 0, 0, 1, 2),
        (0, 0, 1, 0, 1, 3),
        (0, 0, 0, 1, 1, 4),
    )


def test_base_matrix_preconditions(f25, f4):
    with pytest.raises(FieldTooSmall):
        base_mds_matrix(f4, 4, 6)
    with pytest.raises(FieldTooSmall):
        base_mds_matrix(f25, 4, 7)  # n > q + 1
    with pytest.raises(ValueError):
        base_mds_matrix(f25, 4, 4)
    full = base_mds_matrix(f25, 4, 5)
    assert len(full[0]) == 5


def test_screen_conditions_frozen(f25):
    base = base_mds_matrix(f25, 4, 6)
    lambda_pairs, alpha_constraints = screen_conditions(f25, base)
    assert lambda_pairs == ((0, 0), (1, 0), (0, 2), (0, 1))
    assert len(alpha_constraints) == 6 and type(alpha_constraints) is tuple


def test_screen_conditions_are_derived_once_per_base(monkeypatch):
    # the search derives the conditions of its base, and the K4Example it
    # builds reads them from the tower memo; the alpha and ratio checks
    # still run on every build, example_from_dict's too
    t = field_create(5, 1, 2)
    derived, alpha_checks = [], []
    derive, alpha_ok = search_mod._screen_conditions, search_mod._alpha_ok
    monkeypatch.setattr(search_mod, "_screen_conditions",
                        lambda tower, base: derived.append(base) or derive(tower, base))
    monkeypatch.setattr(search_mod, "_alpha_ok",
                        lambda *args: alpha_checks.append(args[2]) or alpha_ok(*args))
    ex = k4_example_search(t)
    assert derived == [ex.base] and alpha_checks == [ex.alpha]
    # a base given as lists is the same key, and no caller can change the entry
    got = screen_conditions(t, [list(row) for row in ex.base])
    assert got is screen_conditions(t, ex.base) and derived == [ex.base]
    assert all(type(part) is tuple for part in got)
    data = example_to_dict(ex)
    assert example_from_dict(data, t) == ex and alpha_checks == [ex.alpha] * 2
    outside = [x for x in t.elements() if not t.in_fq(x)]
    a, b, g = next((a, b, g) for a in outside for b in outside for g in invertible_linearized(t)
                   if not g.is_monomial() and not mds_screen(t, ex.base, a, b, g))
    checks = len(alpha_checks)
    with pytest.raises(ValueError, match="elimination"):
        example_from_dict({**data, "alpha": t.digits(a), "beta": t.digits(b),
                           "g": g.to_json()}, t)
    assert derived == [ex.base] and alpha_checks[checks:] == [a]


def test_screen_agrees_with_bruteforce_mds(f25):
    """The elimination screen and full codeword enumeration are two routes
    to the same MDS predicate; they must agree on accepted and rejected
    candidates alike."""
    base = base_mds_matrix(f25, 4, 6)
    rng = random.Random(40)
    outside = [x for x in f25.elements() if not f25.in_fq(x)]
    invs = [f for f in invertible_linearized(f25) if not f.is_monomial()]
    agree = 0
    seen_true = seen_false = 0
    while seen_true < 6 or seen_false < 6:
        alpha = rng.choice(outside)
        beta = rng.choice(outside)
        g = rng.choice(invs)
        screened = mds_screen(f25, base, alpha, beta, g)
        brute = is_mds(assemble_code(f25, base, alpha, beta, g))
        assert screened == brute
        agree += 1
        seen_true += screened
        seen_false += not screened
    assert agree >= 12


@pytest.mark.parametrize("p", [5, 7], ids=["F25", "F49"])
def test_mds_screen_matches_dickson_screen(p):
    """The value-row screen against the Dickson determinants of
    w - lam X, w = g(beta g^(-1)(X)), on random (alpha, beta, g)."""
    t = conftest.tower(p, 1, 2)
    base = base_mds_matrix(t, 4, 6)
    lambda_pairs, alpha_constraints = screen_conditions(t, base)
    rng = random.Random(44)
    outside = [x for x in t.elements() if not t.in_fq(x)]
    invs = invertible_linearized(t)
    seen = set()
    for _ in range(60):
        alpha, beta, g = rng.choice(outside), rng.choice(outside), rng.choice(invs)
        expect = (_alpha_ok(t, base, alpha, alpha_constraints) and oracles.lambda_screen(
            g.conjugate(beta), _lambdas(t, lambda_pairs, alpha)))
        assert mds_screen(t, base, alpha, beta, g) == expect
        seen.add(expect)
    assert seen == {True, False}
    alpha = next(a for a in outside if _alpha_ok(t, base, a, alpha_constraints))
    with pytest.raises(NotInvertible):
        mds_screen(t, base, alpha, outside[0], LinearizedPoly(t, (t.neg(1), 1)))  # X^q - X


@pytest.mark.parametrize("key", [(5, 1, 2), (7, 1, 2), (3, 2, 2), (5, 1, 3)],
                         ids=["F25", "F49", "F81", "F125"])
def test_every_outside_alpha_passes_its_constraints(key):
    """Why ``k4_example_search`` does not test ``_alpha_ok``: a constraint
    (v0, v1, v2) comes from a 3-subset whose kernel vector v has v3 = 0.
    If v2 != 0, alpha v2 lies outside F_q and c0 v0 + c1 v1 inside it, so
    the sum is nonzero.  If v2 = 0, the sum c0 v0 + c1 v1 is the last entry
    of the base codeword v * base, which is zero on the 3 subset columns
    and so nonzero there, as the base is MDS.  Checked for every n."""
    t = conftest.tower(*key)
    outside = [x for x in t.elements() if not t.in_fq(x)]
    constrained = 0
    for n in range(5, t.q + 2):
        base = base_mds_matrix(t, 4, n)
        alpha_constraints = screen_conditions(t, base)[1]
        constrained += bool(alpha_constraints)
        assert all(_alpha_ok(t, base, alpha, alpha_constraints) for alpha in outside), n
    assert constrained


def test_search_first_hit_frozen(f25):
    ex = k4_example_search(f25)
    # 5 is the first element outside F_5 in int order (the adjoined root)
    assert (ex.alpha, ex.beta) == (5, 5)
    assert ex.g.coeffs == (1, 2)
    assert ex.code.n == 6 and ex.code.k_fq == 8
    assert ex.intersection_degree() == 2


# first hits (alpha, beta, g coefficients) of the hunt by (p, e, h), n; the
# scalar oracle needs about a million Dickson determinants on F_64, n = 9,
# and more on F_81, n = 10, so those two are pinned from one run of it
FIRST_HITS = {
    ((5, 1, 2), 6): (5, 5, (1, 2)),
    ((7, 1, 2), 6): (7, 7, (1, 2)),
    ((7, 1, 2), 7): (7, 7, (1, 3)),
    ((7, 1, 2), 8): (7, 9, (1, 10)),
    ((2, 3, 2), 6): (2, 2, (1, 2)),
    ((2, 3, 2), 7): (2, 2, (1, 2)),
    ((2, 3, 2), 8): (2, 2, (1, 2)),
    ((2, 3, 2), 9): (2, 37, (1, 3)),
    ((3, 2, 2), 10): (3, 26, (1, 9)),
}
ORACLE_CASES = [case for case in FIRST_HITS if case[1] < 9]


def _hunt(key, n):
    ex = k4_example_search(conftest.tower(*key), n, budget=1 << 30)
    return ex.alpha, ex.beta, ex.g.coeffs


@pytest.mark.parametrize("key,n", ORACLE_CASES)
def test_hunt_matches_scalar_oracle(key, n):
    hit = _hunt(key, n)
    assert hit == oracles.scalar_k4_search(conftest.tower(*key), n)
    assert hit == FIRST_HITS[key, n]


@pytest.mark.parametrize("key,n", [((2, 3, 2), 9), ((3, 2, 2), 10)])
def test_hunt_pinned_slow_cases(key, n):
    assert _hunt(key, n) == FIRST_HITS[key, n]


def test_hunt_spans_blocks(monkeypatch):
    # 300 cells: 3 to 12 polynomials per block on these towers
    monkeypatch.setattr(linpoly, "EVAL_CHUNK_CELLS", 300)
    for (key, n), hit in FIRST_HITS.items():
        assert _hunt(key, n) == hit


@pytest.mark.parametrize("key,trials,most,outcomes", [
    ((5, 1, 2), 40, 12, {None, 1}),
    ((2, 1, 3), 40, 4, {None, 1}),
    ((2, 2, 2), 40, 8, {None, 1}),
    ((2, 1, 4), 10, 2, {0, 1}),
])
def test_first_hit_matches_dickson_screen(key, trials, most, outcomes):
    """The block screen against one Dickson-screened candidate at a time
    over the whole g space, for random sets of at most ``most`` lambdas.
    ``outcomes`` records which trials exhaust the space (None) and which
    hit with g_0 = 0 or 1.  F_16 over F_2 has s = 2 and s = 4, where
    semi-linearity is not just being a monomial; an exhausted F_16 space
    takes the oracle 4 s, so its sets stay small."""
    t = conftest.tower(*key)
    rng = random.Random(43)
    outside = [x for x in t.elements() if not t.in_fq(x)]
    degrees = [s for s in range(2, t.h + 1) if t.h % s == 0]
    nonzero = list(t.nonzero())
    seen = set()
    for _ in range(trials):
        beta, s = rng.choice(outside), rng.choice(degrees)
        lams = rng.sample(nonzero, rng.randrange(1, most + 1))
        in_l = np.zeros(t.size - 1, dtype=bool)
        in_l[[t._log[lam] for lam in lams]] = True
        expect = next((f.coeffs for f in all_linearized(t)
                       if f.is_invertible() and not f.is_semilinear(s)
                       and oracles.lambda_screen(f.conjugate(beta), lams)), None)
        got = _first_hit(t, s, beta, in_l)
        assert (got and got.coeffs) == expect
        seen.add(None if expect is None else expect[0])
    assert seen == outcomes


def test_search_budget(f25):
    with pytest.raises(BudgetExceeded):
        k4_example_search(f25, budget=1000)


def test_search_budget_charges_the_scanned_rows():
    # F_81 over F_9, n = 6: 72^2 (alpha, beta), each scanning at most 2 * 81 g
    t = field_create(3, 2, 2)
    with pytest.raises(BudgetExceeded, match="^839808 candidates exceed budget 839807$"):
        k4_example_search(t, budget=839807)
    ex = k4_example_search(t)  # the default budget
    assert ex is not None and ex.tower is t and len(ex.base[0]) == 6


def test_example_invariants(f25):
    ex = k4_example_search(f25)
    good = dict(tower=f25, base=ex.base, alpha=ex.alpha, beta=ex.beta,
                g=ex.g, code=ex.code)
    K4Example(**good)
    with pytest.raises(ValueError):
        K4Example(**{**good, "alpha": 2})  # inside F_q
    with pytest.raises(ValueError):
        K4Example(**{**good, "beta": 1})
    with pytest.raises(ValueError):
        K4Example(**{**good, "g": LinearizedPoly.zero(f25)})
    with pytest.raises(ValueError):
        K4Example(**{**good, "g": LinearizedPoly.identity(f25)})  # semi-linear
    outside = [x for x in f25.elements() if not f25.in_fq(x)]
    failing = next(
        (a, b, g)
        for a in outside for b in outside
        for g in invertible_linearized(f25)
        if not g.is_monomial() and not mds_screen(f25, ex.base, a, b, g))
    a, b, g = failing
    with pytest.raises(ValueError, match="elimination"):
        K4Example(f25, ex.base, a, b, g, assemble_code(f25, ex.base, a, b, g))


def test_example_requires_shared_subfield_beyond_fq():
    t = field_create(5, 1, 6)
    base = base_mds_matrix(t, 4, 6)
    alpha = next(x for x in t.elements() if t.subfield_degree(x) == 2)
    beta = next(x for x in t.elements() if t.subfield_degree(x) == 3)
    g = LinearizedPoly.identity(t)
    code = assemble_code(t, base, alpha, beta, g)
    with pytest.raises(ValueError, match="share"):
        K4Example(t, base, alpha, beta, g, code)


def test_verify_report(f25):
    ex = k4_example_search(f25)
    rep = verify_k4_example(ex)
    assert rep["ok"]
    assert rep["assertions"] == {
        "is_mds": True,
        "projection_from_3_linearizable": True,
        "projection_from_2_linearizable": True,
        "code_not_linearizable": True,
    }
    ctx = rep["context"]
    assert ctx["theorem_requires_n_above"] == 8
    assert ctx["theorem_hypothesis_met"] is False
    assert ctx["largest_proper_divisor_of_h"] == 1
    assert ctx["simplified_threshold_qe_plus_k"] == 9


def test_projection_structure_directly(f25):
    ex = k4_example_search(f25)
    dropped_w = project(ex.code, {3})
    assert dropped_w.is_field_linear()
    dropped_alpha = project(ex.code, {2})
    assert not dropped_alpha.is_field_linear()
    wit = linear_equivalence_witness(dropped_alpha)
    assert wit is not None and wit.g == ex.g
    assert linear_equivalence_witness(ex.code) is None


def _screened_span(g, beta, alpha):
    """The lambda screen over every lambda_1 alpha + lambda_2 in the F_q-span of {1, alpha}."""
    t = g.tower
    lams = [t.add(t.mul(l1, alpha), l2) for l1 in t.fq_elements for l2 in t.fq_elements]
    return oracles.lambda_screen(g.conjugate(beta), lams)


def test_span_avoidance_routes_agree_h2(f25):
    rng = random.Random(41)
    outside = [x for x in f25.elements() if not f25.in_fq(x)]
    invs = invertible_linearized(f25)
    for _ in range(60):
        g = rng.choice(invs)
        beta = rng.choice(outside)
        alpha = rng.choice(outside)
        direct = oracles.span_avoidance_direct(g, beta, alpha)
        assert direct == _screened_span(g, beta, alpha)
        assert direct is False  # the span is everything when h = 2


def test_span_avoidance_routes_agree_h3(f8):
    outside = [x for x in f8.elements() if not f8.in_fq(x)]
    trues = 0
    for g in invertible_linearized(f8):
        for beta in outside[:2]:
            for alpha in outside[:2]:
                direct = oracles.span_avoidance_direct(g, beta, alpha)
                assert direct == _screened_span(g, beta, alpha)
                trues += direct
    assert trues > 0  # the predicate is non-vacuous for h = 3


def test_example_serialization(f25, tmp_path):
    ex = k4_example_search(f25)
    data = example_to_dict(ex)
    path = tmp_path / "ex.json"
    path.write_text(json.dumps(data, sort_keys=True))
    again = example_from_dict(json.loads(path.read_text()))
    assert again.code == ex.code
    assert (again.alpha, again.beta, again.g.coeffs) == (ex.alpha, ex.beta, ex.g.coeffs)
    tampered = json.loads(path.read_text())
    tampered["code"]["rows"][0][0] = [1, 1]
    with pytest.raises(ValueError):
        example_from_dict(tampered)

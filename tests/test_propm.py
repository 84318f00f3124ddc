import hashlib
import json
import random
import re

import numpy as np
import pytest

from addmds.errors import BudgetExceeded, NotInvertible
from addmds.gf import field_create
from addmds import linpoly, propm
from addmds.linpoly import LinearizedPoly, invertible_linearized, random_invertible
from addmds.propm import (
    PropWitness,
    _conj_buckets,
    build_zero_coeff_certificate,
    max_prop_m,
    prop_triples,
    shift_minus_one_matrix,
    twist_to_nonzero_f0,
    verify_inverse_lemma,
    verify_lm_prop_implication,
    verify_semilinear_criterion,
    verify_two_nonzero_lemma,
    verify_zero_coeff_lemma,
    zero_coeff_bound,
)

import oracles


def test_triples_complete_exhaustive_f4(f4):
    invs = invertible_linearized(f4)
    for f in invs:
        for g in invs:
            got = set(prop_triples(f, g))
            want = set(oracles.brute_triples(
                f4, f.coeffs, g.coeffs, f.inverse().coeffs, g.inverse().coeffs))
            assert got == want


def test_triples_complete_sampled_f9(f9):
    rng = random.Random(30)
    for _ in range(6):
        f = random_invertible(f9, rng)
        g = random_invertible(f9, rng)
        got = set(prop_triples(f, g))
        want = set(oracles.brute_triples(
            f9, f.coeffs, g.coeffs, f.inverse().coeffs, g.inverse().coeffs))
        assert got == want


@pytest.mark.parametrize("key", [(2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_triple_count_matches_the_listing(key):
    from conftest import tower
    t = tower(*key)
    rng = random.Random(sum(key))
    for _ in range(12):
        f, g = random_invertible(t, rng), random_invertible(t, rng)
        assert propm.triple_count(f, g) == len(prop_triples(f, g))
        assert propm.triple_count(f, f) == len(prop_triples(f, f))


def test_triples_require_invertible(f9):
    with pytest.raises(NotInvertible):
        prop_triples(LinearizedPoly.zero(f9), LinearizedPoly.identity(f9))


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 1, 3)],
                         ids=["F4", "F8", "F9", "F16_F4", "F27"])
def test_conj_buckets_match_conjugation_table(key):
    """The value-row buckets against the coefficient rows of the oracle's
    table: the same b-partition of every f, one table class per bucket key
    on the whole tower, and value leads that differ from coefficient leads
    by one factor per class, so every a = lc/lb agrees."""
    t = field_create(*key)
    polys = invertible_linearized(t)
    log = t.np_tables()[1]
    table_key, factor = {}, {}
    for f, rows in zip(polys, oracles.conjugation_table(polys)):
        buckets = _conj_buckets(f)
        assert sorted(b for members in buckets.values() for b, _ in members) == list(t.nonzero())
        for key_v, members in buckets.items():
            for b, lead in members:
                row = rows[log[b]].tolist()
                lead_inv = t.inv(next(c for c in row if c))
                norm = tuple(t.mul(lead_inv, c) for c in row)
                assert table_key.setdefault(key_v, norm) == norm
                assert factor.setdefault(norm, t.mul(lead, lead_inv)) == t.mul(lead, lead_inv)
    assert len(set(table_key.values())) == len(table_key)


def test_prop_triples_compute_no_inverse(monkeypatch):
    t, rng = field_create(3, 1, 3), random.Random(32)
    f, g = random_invertible(t, rng), random_invertible(t, rng)
    want = prop_triples(f, g)

    def refuse(*args):
        raise AssertionError("an inverse was computed")

    monkeypatch.setattr(LinearizedPoly, "inverse", refuse)
    monkeypatch.setattr(linpoly, "dickson_inverses", refuse)
    monkeypatch.setattr(propm, "dickson_inverses", refuse)
    fresh = field_create(3, 1, 3)
    got = prop_triples(LinearizedPoly(fresh, f.coeffs), LinearizedPoly(fresh, g.coeffs))
    assert got == want and len(got) > 1


def test_identity_triple_always_present(f9):
    rng = random.Random(31)
    for _ in range(10):
        f = random_invertible(f9, rng)
        g = random_invertible(f9, rng)
        assert (1, 1, 1) in prop_triples(f, g)


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 1, 3)], ids=["F4", "F8"])
def test_matching_matches_bruteforce(key):
    from conftest import tower
    invs = invertible_linearized(tower(*key))
    for f in invs:
        for g in invs:
            m, _wit = max_prop_m(f, g)
            assert m == oracles.brute_max_matching(prop_triples(f, g))


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 1, 3), (3, 1, 2)], ids=["F4", "F8", "F9"])
def test_max_prop_m_matches_per_pair_search(key):
    from conftest import tower
    invs = invertible_linearized(tower(*key))
    for f in invs:
        for g in invs:
            m, wit = max_prop_m(f, g)
            assert (m, wit.triples) == oracles.exhaustive_max_prop_m(f, g)


def test_triple_bound_is_a_class_invariant(f16_over_f4):
    # verify_lm_prop_implication bounds each orbit class by its first member
    from addmds.propm import _class_members, _orbit_classes, _triple_bound
    invs = invertible_linearized(f16_over_f4)
    npoly = len(invs)
    for members in _class_members(_orbit_classes(invs)):
        pairs = [divmod(int(k), npoly) for k in members]
        i, j = pairs[0]
        first = _triple_bound(invs[i], invs[j])
        assert all(_triple_bound(invs[k], invs[l]) == first for k, l in pairs)


def test_orbit_moves_keep_triples_and_key():
    from conftest import tower
    from addmds.propm import _orbit_key
    rng = random.Random(20261018)
    for _ in range(60):
        t = tower(*rng.choice([(2, 1, 3), (3, 1, 2), (2, 2, 2)]))
        invs = invertible_linearized(t)
        f, g = rng.choice(invs), rng.choice(invs)
        lam, mu, nu = (rng.randrange(1, t.size) for _ in range(3))

        def move(p, s):  # lam * p(s X)
            return LinearizedPoly.scalar(t, lam).compose(p).compose(LinearizedPoly.scalar(t, s))

        f2, g2 = move(f, mu), move(g, nu)
        assert prop_triples(f2, g2) == prop_triples(f, g)
        assert _orbit_key(f2, g2) == _orbit_key(f, g)


def test_exact_matching_reaches_cap_from_a_bad_greedy_start():
    from addmds.propm import _exact_matching
    # greedy takes (1, 1) at b = 1 and blocks both other levels; the optimum
    # {(2,1,3), (1,2,2), (3,3,1)} meets the cap of 3 levels / a-values / c-values
    triples = [(1, 1, 1), (2, 1, 3), (1, 2, 2), (2, 2, 1), (1, 3, 3), (3, 3, 1)]
    found = _exact_matching(triples)
    assert len(found) == 3 == oracles.brute_max_matching(triples)


@pytest.mark.parametrize("key", [(2, 1, 3), (3, 1, 2), (2, 2, 2)], ids=["F8", "F9", "F16_F4"])
def test_exact_matching_stack_matches_the_recursive_search(key):
    # every class of pairs: its triples without and with the product limit,
    # and the retry's triples with (1,1,1) left out
    from conftest import tower
    from addmds.propm import _exact_matching, _product_limit
    t = tower(*key)
    for f, g in _class_firsts(invertible_linearized(t)):
        triples = prop_triples(f, g)
        rest = [tr for tr in triples if 1 not in tr]
        for tr, limit in ((triples, None), (triples, _product_limit(t, triples)), (rest, None)):
            assert _exact_matching(tr, limit) == oracles.recursive_exact_matching(tr, limit)


def test_exact_matching_goes_deeper_than_the_recursion_limit():
    # (X, X) over F_1024 has 1023 levels of b, beyond Python's default
    # recursion limit of 1000: one recursive call per level raised
    # RecursionError here; N = 1023 is odd, so no product limit applies
    t = field_create(2, 10, 1)
    x = LinearizedPoly.identity(t)
    m, witness = max_prop_m(x, x)
    assert m == 1023 and witness.triples[0] == (1, 1, 1)


def test_best_witness_retry_with_one_forced(f9):
    # hand-built triple lists whose first search leaves (1,1,1) out
    from addmds.propm import _best_witness
    # forcing (1,1,1) loses: nothing is left beside it
    loses = [(1, 2, 2), (1, 1, 1), (2, 1, 3)]
    assert _best_witness(f9, loses) == (2, ((2, 1, 3), (1, 2, 2)))
    # forcing (1,1,1) ties, so the forced optimum wins, (1,1,1) first
    ties = [(2, 1, 2), (1, 1, 1), (3, 2, 3)]
    assert _best_witness(f9, ties) == (2, ((1, 1, 1), (3, 2, 3)))
    for triples in (loses, ties):
        assert _best_witness(f9, triples)[0] == oracles.brute_max_matching(triples)


def _class_firsts(polys):
    """The first pair (f, g) of each orbit class of pairs from ``polys``."""
    from addmds.propm import _class_members, _orbit_classes
    return [tuple(polys[k] for k in divmod(int(members[0]), len(polys)))
            for members in _class_members(_orbit_classes(polys))]


def _monomial_classes(t):
    return _class_firsts([f for f in invertible_linearized(t) if f.is_monomial()])


@pytest.mark.parametrize("key", [(5, 1, 1), (7, 1, 1), (3, 1, 2), (5, 1, 2)],
                         ids=["F5", "F7", "F9", "F25"])
def test_product_limit_proves_every_monomial_class(key):
    # the triples of (u X^(q^i), v X^(q^j)) are (c^(q^j) / b^(q^i), b, c)
    from conftest import tower
    from addmds.propm import _product_limit
    t = tower(*key)
    classes = _monomial_classes(t)
    if t.h > 1:  # Frobenius-twisted pairs are among the classes
        assert any(f.support() != g.support() for f, g in classes)
    for f, g in classes:
        assert _product_limit(t, prop_triples(f, g)) == t.size - 2


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 1, 3), (2, 2, 2)],
                         ids=["F4", "F8", "F16_F4"])
def test_product_limit_needs_an_even_group_order(key):
    from conftest import tower
    from addmds.propm import _product_limit
    t = tower(*key)
    for f, g in _monomial_classes(t):
        assert _product_limit(t, prop_triples(f, g)) is None


def test_product_limit_rejects_a_changed_table(f9):
    from addmds.propm import _best_witness, _product_limit
    x = LinearizedPoly.identity(f9)
    triples = prop_triples(x, x)
    assert _product_limit(f9, triples) == 7
    # one a changed, wherever it sits; one pair (b, c) missing or repeated
    for k in range(len(triples)):
        a, b, c = triples[k]
        changed = triples[:k] + [(f9.mul(a, f9.omega), b, c)] + triples[k + 1:]
        assert _product_limit(f9, changed) is None
    assert _product_limit(f9, triples[1:]) is None
    assert _product_limit(f9, triples[:-1] + triples[:1]) is None
    # a = c is such a table with s - r = 1 - 0 odd, and it has a full transversal
    table = [(c, b, c) for b in f9.nonzero() for c in f9.nonzero()]
    assert _product_limit(f9, table) is None
    assert _best_witness(f9, table)[0] == 8


def test_product_limit_skips_non_monomial_classes(f9):
    from addmds.propm import _product_limit
    classes = _class_firsts(invertible_linearized(f9))
    mixed = [(f, g) for f, g in classes if not (f.is_monomial() and g.is_monomial())]
    assert len(mixed) == len(classes) - len(_monomial_classes(f9)) > 0
    for f, g in mixed:
        assert _product_limit(f9, prop_triples(f, g)) is None


@pytest.mark.parametrize("key", [(2, 1, 2), (5, 1, 1), (7, 1, 1), (2, 1, 3), (3, 1, 2), (2, 2, 2)],
                         ids=["F4", "F5", "F7", "F8", "F9", "F16_F4"])
def test_monomial_scores_match_the_unbounded_search(key):
    # the oracle's matching runs without the product limit
    from conftest import tower
    for f, g in _monomial_classes(tower(*key)):
        m, wit = max_prop_m(f, g)
        assert (m, wit.triples) == oracles.exhaustive_max_prop_m(f, g)


def _assert_conjugate_table(polys):
    from addmds.propm import _conjugate_table
    t = polys[0].tower
    table = _conjugate_table(polys, linpoly.dickson_inverses(t, [f.coeffs for f in polys])[0])
    assert table.shape == (len(polys), t.size - 1, t.h)
    assert table.tolist() == [[list(f.conjugate(b).coeffs) for b in t.nonzero()] for f in polys]


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2)],
                         ids=["F4", "F8", "F9", "F27", "F16_F4"])
def test_conjugate_table_matches_compose(key):
    from conftest import tower
    invs = invertible_linearized(tower(*key))
    _assert_conjugate_table(sorted({twist_to_nonzero_f0(f)[0] for f in invs}, key=lambda f: f.coeffs))


def test_conjugate_table_matches_compose_sampled_f25(f25):
    sample = random.Random(25).sample(invertible_linearized(f25), 200)
    _assert_conjugate_table([twist_to_nonzero_f0(f)[0] for f in sample])


@pytest.mark.parametrize("key, limit", [((2, 1, 3), None), ((3, 1, 2), None),
                                        ((2, 2, 2), None), ((3, 1, 3), 400),
                                        ((5, 1, 2), 400), ((2, 1, 4), 400)],
                         ids=["F8", "F9", "F16_F4", "F27", "F25", "F16"])
def test_certificate_products_are_the_conjugate_coefficients(key, limit):
    """(f o f^-1)_k = 0 for k >= 1, so coefficient k of conj(f, b) is
    sum_(l>=1) f_l g_(k-l)^(q^l) (b^(q^l) - b) = (Mhat_f D_f B(b))_k: the
    certificate's products are conj's coefficients 1..h-1, on the twisted
    polynomials of the battery (all of them, or the first ``limit``)."""
    from conftest import tower
    from addmds.propm import _witness_tables
    twisted = [twist_to_nonzero_f0(f)[0] for f in invertible_linearized(tower(*key))[:limit]]
    conj, prod, _frob = _witness_tables(twisted)
    assert prod.shape == conj[..., 1:].shape and (prod == conj[..., 1:]).all()


def test_witness_tables_name_the_first_singular_polynomial(f9):
    # the elimination flags singular rows; the tables raise on the first one
    from addmds.propm import _witness_tables
    polys = list(invertible_linearized(f9)[:3])
    singular = [LinearizedPoly(f9, (f9.neg(1), 1)), LinearizedPoly.zero(f9)]  # X^q - X kills F_q
    with pytest.raises(NotInvertible,
                       match=re.escape(f"no compositional inverse: {singular[0].coeffs}") + "$"):
        _witness_tables(polys[:2] + singular + polys[2:])


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 1, 3), (2, 2, 2)],
                         ids=["F4", "F8", "F16_F4"])
def test_bucket_bound_matches_triples(key):
    from conftest import tower
    from addmds.propm import _triple_bound
    invs = invertible_linearized(tower(*key))
    for f in invs:
        for g in invs:
            triples = prop_triples(f, g)
            assert _triple_bound(f, g) == min(len({x[k] for x in triples}) for k in range(3))


def test_matching_matches_bruteforce_sampled_f9(f9):
    rng = random.Random(32)
    for _ in range(8):
        f = random_invertible(f9, rng)
        g = random_invertible(f9, rng)
        m, _wit = max_prop_m(f, g)
        assert m == oracles.brute_max_matching(prop_triples(f, g))


def test_monomial_pair_scores(f4, f8, f9):
    # q even with q^h - 1 odd admits a perfect matching; q odd cannot reach
    # q^h - 1 because triple exponents force a parity obstruction
    for t, want in ((f4, 3), (f8, 7), (f9, 7)):
        x = LinearizedPoly.identity(t)
        m, wit = max_prop_m(x, x)
        assert m == want
        assert wit.triples[0] == (1, 1, 1)


def test_witness_validation(f9, f8):
    # for f = g = X the triples are exactly (a, b, a*b)
    x = LinearizedPoly.identity(f9)
    ab = f9.mul(2, 4)
    assert 1 not in (2, 4, ab)
    with pytest.raises(ValueError):
        PropWitness(x, x, ((1, 2, 1),))  # identity fails: 1*2X != 1X
    # with the F_8 battery's scores and witnesses memoised, a wrong c still fails
    verify_zero_coeff_lemma(f8)
    x8 = LinearizedPoly.identity(f8)
    _m, wit = max_prop_m(x8, x8)
    a, b, c = wit.triples[3]
    wrong = wit.triples[:3] + ((a, b, c % 7 + 1),) + wit.triples[4:]
    with pytest.raises(ValueError, match="triple 3 fails the defining identity"):
        PropWitness(x8, x8, wrong)
    with pytest.raises(ValueError):
        PropWitness(x, x, ((1, 2, 2), (1, 2, 2)))  # shared coordinates
    with pytest.raises(ValueError):
        PropWitness(x, x, ((0, 1, 1),))  # zero entry
    with pytest.raises(ValueError):
        PropWitness(x, x, ((2, 4, ab), (1, 1, 1)))  # (1,1,1) must be first
    PropWitness(x, x, ((1, 1, 1), (2, 4, ab)))


def test_conjugate_memo_holds_one_table_per_polynomial():
    t = field_create(3, 1, 2)  # a fresh tower, so the memo starts empty
    polys = invertible_linearized(t)
    f, g = polys[7], polys[30]
    max_prop_m(f, g)  # validates its witness through _triple_holds
    memo = t.memo("conjugates")
    assert set(memo) == {f.coeffs, g.coeffs}
    for p in (f, g):
        assert memo[p.coeffs] == [list(p.conjugate(b).coeffs) for b in t.nonzero()]


def test_triple_budget():
    from addmds.gf import field_create
    from addmds.propm import _orbit_key
    t = field_create(3, 1, 2)  # a fresh tower, so the first call is cold
    x = LinearizedPoly.identity(t)
    with pytest.raises(BudgetExceeded) as cold:
        max_prop_m(x, x, budget=3)
    assert max_prop_m(x, x)[0] == 7  # fills the orbit memo of (X, X)
    # (2X, 5X) = (X(2X), X(5X)) lies in the class of (X, X): max_prop_m
    # charges the pair's triples before it reads the warm memo entry
    other = (LinearizedPoly.scalar(t, 2), LinearizedPoly.scalar(t, 5))
    assert _orbit_key(*other) == _orbit_key(x, x)
    with pytest.raises(BudgetExceeded) as warm:
        max_prop_m(*other, budget=3)
    assert str(warm.value) == str(cold.value) == "64 candidate triples exceed budget 3"
    # invertibility is checked before the orbit key: no normal form of zero
    zero = LinearizedPoly.zero(t)
    for pair in ((zero, x), (x, zero), (LinearizedPoly.from_json(t, [[1, 0], [2, 0]]), x)):
        with pytest.raises(NotInvertible):
            max_prop_m(*pair)


def test_twist_normalization(f8):
    f = LinearizedPoly(f8, (0, 0, 3))
    tw, e = twist_to_nonzero_f0(f)
    assert tw.coeffs[0] != 0 and e == 1
    g = LinearizedPoly(f8, (0, 5, 1))
    gw, eg = twist_to_nonzero_f0(g)
    assert gw.coeffs[0] != 0 and eg == 1  # top support index lands on zero
    already = LinearizedPoly(f8, (1, 5, 0))
    assert twist_to_nonzero_f0(already) == (already, 0)


def test_twist_preserves_score(f9):
    rng = random.Random(33)
    for _ in range(6):
        f = random_invertible(f9, rng)
        g = random_invertible(f9, rng)
        fn, _ = twist_to_nonzero_f0(f)
        gn, _ = twist_to_nonzero_f0(g)
        assert max_prop_m(f, g)[0] == max_prop_m(fn, gn)[0]


def test_zero_coeff_bound(f4, f9, f8):
    assert zero_coeff_bound(f4) == 3
    assert zero_coeff_bound(f9) == 5
    assert zero_coeff_bound(f8) == 5


def test_certificate_on_monomial_pair(f9):
    f = LinearizedPoly(f9, (0, 2))
    g = LinearizedPoly(f9, (0, 7))
    fn, _ = twist_to_nonzero_f0(f)
    gn, _ = twist_to_nonzero_f0(g)
    _m, wit = max_prop_m(fn, gn)
    cert = build_zero_coeff_certificate(fn, gn, wit.triples)
    assert cert.validate()


def test_certificate_requires_normalization(f9):
    f = LinearizedPoly(f9, (0, 2))
    with pytest.raises(ValueError):
        build_zero_coeff_certificate(f, f, ((1, 1, 1),))


def test_certificate_detects_tampering(f9):
    from dataclasses import replace
    verify_zero_coeff_lemma(f9)  # the battery's memos must not answer for validate
    f = next(p for p in invertible_linearized(f9) if all(p.coeffs))
    _m, wit = max_prop_m(f, f)
    cert = build_zero_coeff_certificate(f, f, wit.triples)
    assert cert.validate()
    # (1,) violates x^q = -x, the relation every difference vector satisfies
    tampered = replace(cert, bs=((1,),) * len(cert.bs))
    assert not tampered.validate()
    # an L for which B^q = L*B fails while the matrix identity still holds
    assert not replace(cert, lmat=((1,),)).validate()
    # another polynomial's minor, and another scalar a
    minors = (build_zero_coeff_certificate(p, p, ()).mf_hat
              for p in invertible_linearized(f9) if all(p.coeffs))
    other_minor = next(m for m in minors if m != cert.mf_hat)
    assert not replace(cert, mf_hat=other_minor).validate()
    moved_a = tuple((a % 8 + 1, b, c) if i == 1 else (a, b, c)
                    for i, (a, b, c) in enumerate(wit.triples))
    assert not replace(cert, triples=moved_a).validate()


def test_shift_matrix_encodes_frobenius_of_differences(f9):
    lmat = shift_minus_one_matrix(f9, f9.h - 1)
    assert lmat == [[f9.neg(1)]]


def test_inverse_lemma_specific(f9):
    non_monomials = [p for p in invertible_linearized(f9) if not p.is_monomial()]
    f, g = non_monomials[0], non_monomials[5]
    rep = verify_inverse_lemma(f, g)
    assert rep["ok"] and rep["scores_equal"]
    assert rep["m"] == rep["m_inverse_pair_f"] == rep["m_inverse_pair_g"]
    assert rep["transferred_valid_f"] and rep["transferred_valid_g"]


@pytest.mark.parametrize("key", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2)],
                         ids=["F8", "F9", "F16/F4", "F25"])
def test_derived_pairs_have_as_many_triples(key):
    # why verify_inverse_lemma charges only the triples of (f, g): the
    # transfer maps are bijections onto the derived pairs' triples
    from conftest import tower
    t = tower(*key)
    rng = random.Random(20261019)
    for _ in range(10):
        f, g = random_invertible(t, rng), random_invertible(t, rng)
        count = len(prop_triples(f, g))
        with pytest.raises(BudgetExceeded):  # max_prop_m counts without listing
            max_prop_m(f, g, count - 1)
        finv, ginv = f.inverse(), g.inverse()
        assert len(prop_triples(finv, finv.compose(g))) == count
        assert len(prop_triples(ginv, ginv.compose(f))) == count
    with pytest.raises(BudgetExceeded, match=f"^{count} candidate triples exceed budget {count - 1}$"):
        verify_inverse_lemma(f, g, count - 1)
    assert verify_inverse_lemma(f, g, count)["ok"]


def test_zero_coeff_verifier_frozen_f9(f9):
    rep = verify_zero_coeff_lemma(f9)
    assert rep["pairs"] == 2304
    assert rep["qualifying_pairs"] == 256
    assert rep["max_m"] == 7
    assert rep["bound"] == 5
    assert rep["ok"]
    assert sum(rec["pairs"] for rec in rep["classes"]) == 2304
    qualifying = [rec for rec in rep["classes"] if rec["m"] > rep["bound"]]
    assert sum(rec["pairs"] for rec in qualifying) == 256
    # every qualifying pair is monomial-monomial at h = 2
    assert all(rec["zero_counts"] == [1, 1] for rec in qualifying)
    assert all(rec["certificate_ok"] for rec in rep["classes"])
    assert rep["violations"] == []


BATTERIES = [verify_zero_coeff_lemma,
             lambda t, budget=None: verify_lm_prop_implication(t, 17, budget)]


@pytest.mark.parametrize("verify", BATTERIES, ids=["zero_coeff", "lm_prop"])
def test_battery_refuses_pairs_over_budget_before_enumerating(monkeypatch, verify):
    def refuse(_tower):
        raise AssertionError("the polynomials were enumerated")
    monkeypatch.setattr(propm, "invertible_linearized", refuse)
    # F_16/F_2: |GL_4(F_2)| = 20160, so N x N arrays of about 3.25 GB each
    with pytest.raises(BudgetExceeded, match="^406425600 pairs exceed budget 4194304$"):
        verify(field_create(2, 1, 4))
    with pytest.raises(BudgetExceeded, match="^2304 pairs exceed budget 2303$"):
        verify(field_create(3, 1, 2), budget=2303)


@pytest.mark.parametrize("verify", BATTERIES, ids=["zero_coeff", "lm_prop"])
def test_battery_runs_at_its_pair_budget(f9, verify):
    assert verify(f9, budget=2304)["pairs"] == 2304


def test_two_nonzero_verifier(f8, f27):
    # h = 1 has no two-term support; F_8 has supports but no qualifying row
    f5 = field_create(5, 1, 1)
    assert verify_two_nonzero_lemma(f5) == {
        "tower": f5.descriptor(), "two_term_candidates": 0,
        "qualifying": 0, "violations": [], "ok": True}
    # no two-term polynomial over q = 2 is invertible: every nonzero element
    # is a (2^d - 1)-st power, so the two terms can always be made to cancel
    assert verify_two_nonzero_lemma(f8) == {
        "tower": f8.descriptor(), "two_term_candidates": 147,
        "qualifying": 0, "violations": [], "ok": True}
    rep27 = verify_two_nonzero_lemma(f27)
    assert rep27["two_term_candidates"] == 2028
    assert rep27["qualifying"] == 1014
    assert rep27["ok"]


def _two_nonzero_batches(key, monkeypatch):
    """(report, batches) of ``verify_two_nonzero_lemma`` on a fresh tower
    ``key``: each batch is the (f, f^(-1)) coefficient tuples of one
    ``dickson_inverses`` call of the battery, in call order."""
    real, batches = linpoly.dickson_inverses, []

    def recording(tower, rows):
        inverses, singular = real(tower, rows)
        assert not singular.any()
        batches.append(list(zip(map(tuple, rows.tolist()), map(tuple, inverses.tolist()))))
        return inverses, singular

    monkeypatch.setattr(propm, "dickson_inverses", recording)
    return verify_two_nonzero_lemma(field_create(*key)), batches


@pytest.mark.parametrize("key", [(3, 1, 2), (3, 1, 3), (2, 2, 2), (2, 1, 4), (2, 2, 3)],
                         ids=["F9", "F27", "F16_F4", "F16", "F64_F4"])
def test_two_nonzero_inverses_match_scalar_inverses(key, monkeypatch):
    """Every row the battery inverts, with its inverse, against the scalar
    ``inverse`` of each invertible two-term row in the battery's order
    (``oracles.two_nonzero_inverses``, on a tower of its own).  F_16 has
    h = 4 and skips its even-gap support; F_64/F_4 has several
    ``value_grid`` blocks per support.  Each tower's rows are fewer than
    ``linpoly.EVAL_CHUNK_CELLS``, so they are one batch, or none."""
    t = field_create(*key)
    report, batches = _two_nonzero_batches(key, monkeypatch)
    want = oracles.two_nonzero_inverses(field_create(*key))
    assert batches == ([want] if want else [])
    assert report["qualifying"] == len(want)
    assert report["violations"] == [LinearizedPoly(t, f).to_json() for f, g in want if 0 in g]
    assert report["ok"] == (not report["violations"])


def test_two_nonzero_batches_close_at_the_row_cap(monkeypatch):
    # at a cap of 300 rows F_27's 1,014 rows are inverted in four batches,
    # each but the last closed by the first block that takes it to the cap;
    # rows, inverses, their order and the report stay the same
    monkeypatch.setattr(linpoly, "EVAL_CHUNK_CELLS", 300)
    report, batches = _two_nonzero_batches((3, 1, 3), monkeypatch)
    assert [len(batch) >= 300 for batch in batches] == [True, True, True, False]
    assert sum(batches, []) == oracles.two_nonzero_inverses(field_create(3, 1, 3))
    assert _digest(report) == TWO_NONZERO_F27_DIGEST


def test_lm_prop_implication_frozen_f9(f9):
    rep = verify_lm_prop_implication(f9, 9)
    assert rep["pairs"] == 2304
    assert rep["monomial_pairs"] == 256
    assert rep["ok"] and not rep["violations"]
    with pytest.raises(ValueError):
        verify_lm_prop_implication(f9, 3)


@pytest.mark.parametrize("n, survivors, violating, max_seen", [(5, 2048, 2048, 0), (6, 512, 0, 2)])
def test_lm_prop_early_stop_matches_oracle_f9(f9, n, survivors, violating, max_seen):
    # n = 9 prunes every pair; here pairs survive the bound and get the class
    # score, whose verdicts, order and scores each pair's own search must confirm
    from addmds.propm import _triple_bound
    rep = verify_lm_prop_implication(f9, n)
    flagged = [(v["f"], v["g"], v["m_at_least"]) for v in rep["violations"]]
    invs = invertible_linearized(f9)
    seen, expect, oracle_max = 0, [], 0
    for f in invs:  # row-major pair order
        for g in invs:
            if (f.is_monomial() and g.is_monomial()) or _triple_bound(f, g) < n - 3:
                continue
            seen += 1
            m, _ = oracles.exhaustive_max_prop_m(f, g)
            if m >= n - 3:
                expect.append((f.to_json(), g.to_json(), m))
            else:
                oracle_max = max(oracle_max, m)
    assert seen == survivors == rep["pairs"] - rep["monomial_pairs"] - rep["pruned_by_upper_bound"]
    assert flagged == expect and len(expect) == violating
    assert rep["max_m_nonmonomial_seen"] == oracle_max == max_seen
    assert all(v["m_at_least"] >= n - 3 for v in rep["violations"])


def test_semilinear_criterion_counts(f4, f9):
    rep4 = verify_semilinear_criterion(f4)
    assert rep4["pairs"] == 18 and rep4["ok"]
    rep9 = verify_semilinear_criterion(f9)
    assert rep9["pairs"] == 384 and rep9["ok"]


def test_semilinear_criterion_matches_oracle(f4, f8, f9, f16_over_f4):
    for t in (f4, f8, f9, f16_over_f4):
        assert verify_semilinear_criterion(t) == oracles.brute_semilinear_report(t)


@pytest.mark.parametrize("key", [(5, 1, 2), (3, 1, 3), (7, 1, 2), (2, 1, 4), (2, 3, 2)],
                         ids=["F25", "F27", "F49", "F16_F2", "F64_F8"])
def test_semilinear_criterion_matches_table_oracle(key):
    t = field_create(*key)  # a tower of its own: the oracle fills its memos
    assert verify_semilinear_criterion(t) == oracles.table_semilinear_report(t)


@pytest.mark.parametrize("key", [(2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2), (2, 1, 4)],
                         ids=["F8", "F9", "F27", "F16_F4", "F16_F2"])
def test_collapse_table_matches_gather_oracle(key):
    from conftest import tower
    t = tower(*key)
    rows = np.array([f.coeffs for f in invertible_linearized(t)], dtype=np.int64)
    log_values = t.np_tables()[1][linpoly.evaluation_table(t, rows)]
    got = propm._collapse_table(log_values, t.h)
    assert (got == oracles.gather_collapse_table(log_values, t.h)).all()
    assert got[:, 0].all() and not got.all()


@pytest.mark.parametrize("n,h", [(3, 2), (8, 2), (26, 3), (15, 4), (63, 2), (80, 4), (2**20 - 1, 2)])
def test_collapse_table_matches_gather_oracle_on_random_logs(n, h):
    # affine rows c + e r collapse at every s; a few entries moved off the line
    # break the collapses whose windows s + l, l < h, or base window l < h they hit.
    # Int32 logs, as the battery passes them; n = 2^20 - 1 is the largest
    # tower's group order, at about 4 M cells
    rng = np.random.default_rng(n * h)
    r, rows = np.arange(n), min(200, 2**22 // n)
    c = rng.integers(0, n, (rows, 1))
    c[:2] = [[0], [n - 1]]  # log f(1) = 0 and n - 1: base differences of both signs
    log_values = (c + rng.integers(0, n, (rows, 1)) * r) % n
    moved = rng.random(log_values.shape) < 0.05
    log_values[moved] = rng.integers(0, n, moved.sum())
    log_values = log_values.astype(np.int32)
    # e = log f(omega^(s+l)) - log f(omega^s) - (log f(omega^l) - log f(1))
    # reaches both n and -n, so a test that takes only e = 0 for 0 mod n fails
    e = np.concatenate([np.roll(log_values, -l, axis=1) - log_values
                        - (log_values[:, l:l + 1] - log_values[:, :1]) for l in range(1, h)])
    assert (e == n).any() and (e == -n).any()
    got = propm._collapse_table(log_values, h)
    assert (got == oracles.gather_collapse_table(log_values, h)).all()
    assert got[:, 1:].any() and not got[:, 1:].all()


@pytest.mark.parametrize("key", [(2, 1, 3), (3, 1, 2), (2, 1, 4), (3, 1, 3), (2, 2, 2)],
                         ids=["F8", "F9", "F16_F2", "F27", "F16_F4"])
def test_support_degrees_match_subfield_degree(key):
    from conftest import tower
    t = tower(*key)
    polys = invertible_linearized(t)
    coeffs = np.array([f.coeffs for f in polys], dtype=np.int64)
    assert linpoly.support_degrees(coeffs, t.h).tolist() == [
        oracles.conjugation_subfield_degree(f) for f in polys]


def _digest(report):
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _rebuilt_zero_coeff(t):
    """The zero-coefficient report in its per-pair form, one record per pair,
    rebuilt from the class report (``oracles.per_pair_zero_coeff_report``)."""
    return oracles.per_pair_zero_coeff_report(t, verify_zero_coeff_lemma(t))


# sha256 of the class reports, pinned when the reports became one record per class
ZERO_COEFF_CLASS_DIGESTS = {
    (2, 1, 3): "2260a62aca3f7a6731c131c764b9aaa05588940d4ebf882adeba31d27353c1c2",
    (3, 1, 2): "1f3f5e6aeda0349e25213a91b4fc9cbd1a8352fe9900146a3fb07fcaca6450d0",
    (5, 1, 2): "9ff8c452b8da764c1ef94a443c0a76db937b16ed2ef592bd2eb6239aef36bbcf",
}
TWO_NONZERO_F27_DIGEST = "7848cae8b8c8fc591fd14f683866407bf031e39ef7abdd4d7b8048adcaede2a5"


# sha256 of the canonical JSON of each report, frozen before the conjugation kernel;
# the two lm_prop n = 5 reports (survivors of the bound) before class scoring; the
# F_25 zero-coefficient report when the product limit first let it finish.  The
# zero-coefficient digests are of the per-pair form, rebuilt from the class report.
@pytest.mark.parametrize("key, verify, digest", [
    ((2, 1, 3), _rebuilt_zero_coeff,
     "6dc0d82b98050f26b62b633675a28803610d3bd05895316695213cb114ce887f"),
    ((3, 1, 2), _rebuilt_zero_coeff,
     "adb3b0868845a025f952b74fc1395e20b20b2f19c497a420a4e4792cab7181ae"),
    ((5, 1, 2), _rebuilt_zero_coeff,
     "452cc801ccb5cd0a892559f2317bcd77bfc0c9edc9baacdce77d0b7715f6842f"),
    ((3, 1, 3), verify_semilinear_criterion,
     "55c5aca6f1f0b9e4717e631d9a7e465785eab592bd4b24d7bfaa330e8a1a53cf"),
    ((2, 2, 2), lambda t: verify_lm_prop_implication(t, 17),
     "a77481f4d5c99fce3c31a985feed6c89e307ce25e35c6110490c84651fae5005"),
    ((3, 1, 2), lambda t: verify_lm_prop_implication(t, 5),
     "02bb5906162eca3c7165ee3555f405a003c2e6f63fcf4a0b1812568705b58bf5"),
    ((2, 1, 3), lambda t: verify_lm_prop_implication(t, 5),
     "99bc9e26dc23d622148b4860c6728ab11720a2d9fe66a76460cefc0086049182"),
    ((3, 1, 3), verify_two_nonzero_lemma, TWO_NONZERO_F27_DIGEST),
], ids=["zero_coeff-F8", "zero_coeff-F9", "zero_coeff-F25", "semilinear-F27", "lm_prop-F16_F4",
        "lm_prop-F9-n5", "lm_prop-F8-n5", "two_nonzero-F27"])
def test_lemma_report_digests(key, verify, digest):
    from conftest import tower
    assert _digest(verify(tower(*key))) == digest


@pytest.mark.parametrize("key, classes", [((2, 1, 3), 70), ((3, 1, 2), 7), ((5, 1, 2), 61)],
                         ids=["F8", "F9", "F25"])
def test_zero_coeff_class_report_digests(key, classes):
    from conftest import tower
    t = tower(*key)
    report = verify_zero_coeff_lemma(t)
    assert len(report["classes"]) == classes
    assert sum(rec["pairs"] for rec in report["classes"]) == report["pairs"] == (
        len(invertible_linearized(t)) ** 2)
    assert _digest(report) == ZERO_COEFF_CLASS_DIGESTS[key]


def test_batteries_compute_no_scalar_inverse(monkeypatch):
    # both batteries invert their polynomials by ``dickson_inverses`` alone:
    # with the scalar ``inverse`` refused, fresh towers give the pinned reports
    def refuse(*args):
        raise AssertionError("a scalar inverse was computed")

    monkeypatch.setattr(LinearizedPoly, "inverse", refuse)
    for key in [(2, 1, 3), (3, 1, 2)]:
        assert _digest(verify_zero_coeff_lemma(field_create(*key))) == ZERO_COEFF_CLASS_DIGESTS[key]
    assert _digest(verify_two_nonzero_lemma(field_create(3, 1, 3))) == TWO_NONZERO_F27_DIGEST


def test_zero_coeff_lemma_f49():
    # the battery's summary on F_49: 2016^2 pairs in 211 classes, the
    # monomial classes scoring q^h - 2 = 47 by the product limit
    report = verify_zero_coeff_lemma(field_create(7, 1, 2))
    assert (report["ok"], report["bound"], report["max_m"], report["qualifying_pairs"]) == (
        True, 13, 47, 9216)
    assert len(report["classes"]) == 211
    assert sum(rec["pairs"] for rec in report["classes"]) == report["pairs"] == 4_064_256
    assert sum(rec["pairs"] for rec in report["classes"] if rec["m"] > 13) == 9216


def test_zero_coeff_lemma_f25(f25):
    # the monomial classes score q^h - 2 = 23, proven optimal by the product limit
    report = verify_zero_coeff_lemma(f25)
    assert (report["ok"], report["max_m"], report["qualifying_pairs"], report["pairs"]) == (
        True, 23, 2304, 480 * 480)


def _memo_answers(t, order):
    """Answers of the memoised routes on ``t``, computed in ``order``."""
    polys = invertible_linearized(t)
    f, g = polys[7], polys[30]
    steps = {
        "score": lambda: (lambda m, w: (m, w.triples))(*max_prop_m(f, g)),
        "triples": lambda: prop_triples(g, f),
        "inverse": lambda: verify_inverse_lemma(f, g),
        "semilinear": lambda: verify_semilinear_criterion(t),
        "lm_prop": lambda: verify_lm_prop_implication(t, 9),
    }
    return {name: steps[name]() for name in order}


def test_fresh_tower_gives_same_answers_in_either_order():
    from addmds.gf import field_create
    order = ["score", "triples", "inverse", "semilinear", "lm_prop"]
    first, second = field_create(3, 1, 2), field_create(3, 1, 2)
    forward = _memo_answers(first, order)
    assert _memo_answers(second, order[::-1]) == forward
    # a tower with warm memos answers like a cold one, in the other order too
    assert _memo_answers(first, order[::-1]) == forward
    # memos of a tower with the same h and overlapping coefficient tuples stay apart
    other = field_create(2, 1, 2)
    verify_lm_prop_implication(other, 5)
    verify_inverse_lemma(*invertible_linearized(other)[:2])
    assert _memo_answers(field_create(3, 1, 2), order) == forward
    assert first.memo("inverses") is not second.memo("inverses")


def test_semilinear_reports_each_mismatch_in_f_a_order(f9, monkeypatch):
    import addmds.propm as propm_mod
    polys = invertible_linearized(f9)
    k = polys.index(LinearizedPoly.identity(f9))  # conj(X, b) = bX: always collapses
    logs = [6, 1, 4]  # marked out of element order on purpose
    real = propm_mod._collapse_table

    def corrupted(log_values, h):
        table = real(log_values, h)
        identity = (log_values == np.arange(log_values.shape[1])).all(axis=1)  # X(omega^r) = omega^r
        table[np.ix_(identity, logs)] = False
        return table

    monkeypatch.setattr(propm_mod, "_collapse_table", corrupted)
    rep = verify_semilinear_criterion(f9)
    marked = sorted(f9.pow_int(f9.omega, r) for r in logs)
    assert not rep["ok"] and rep["pairs"] == 384
    assert rep["violations"] == [
        {"f": [f9.digits(c) for c in polys[k].coeffs], "a": f9.digits(a),
         "collapsed": False, "predicted": True}
        for a in marked]
    json.dumps(rep)  # plain ints and bools only


def _same_partition(ids, keys):
    """True iff two pairs share an id in ``ids`` exactly when they share a
    key in ``keys`` (both N x N, as nested lists or an array)."""
    id_to_key, key_to_id = {}, {}
    for id_row, key_row in zip(ids.tolist(), keys):
        for x, key in zip(id_row, key_row):
            if id_to_key.setdefault(x, key) != key or key_to_id.setdefault(key, x) != x:
                return False
    return True


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)],
                         ids=["F4", "F8", "F9", "F16_F4"])
def test_orbit_classes_match_orbit_keys(key):
    from conftest import tower
    from addmds.propm import _orbit_classes, _orbit_key
    invs = invertible_linearized(tower(*key))
    # the lm-prop battery classes the list itself, the zero-coefficient battery
    # its twists, which repeat polynomials
    for polys in (invs, [twist_to_nonzero_f0(f)[0] for f in invs]):
        keys = [[_orbit_key(f, g) for g in polys] for f in polys]
        assert _same_partition(_orbit_classes(polys), keys)


@pytest.mark.parametrize("key, count", [((2, 1, 2), None), ((2, 1, 3), 14), ((3, 1, 2), 14),
                                        ((2, 2, 2), 8)], ids=["F4", "F8", "F9", "F16_F4"])
def test_orbit_classes_match_brute_orbit_keys(key, count):
    # the oracle minimises over every (lam, mu, nu) without _normal_forms
    from conftest import tower
    from addmds.propm import _orbit_classes
    invs = invertible_linearized(tower(*key))
    polys = invs if count is None else random.Random(repr(key)).sample(invs, count)
    for group in (polys, [twist_to_nonzero_f0(f)[0] for f in polys]):
        keys = [[oracles.brute_orbit_key(f, g) for g in group] for f in group]
        assert _same_partition(_orbit_classes(group), keys)


@pytest.mark.parametrize("key", [(2, 1, 3), (3, 1, 2)], ids=["F8", "F9"])
def test_orbit_classes_catch_a_key_without_lambda_on_g(key, monkeypatch):
    # g's part taken as its least form over every lam, not over the lams
    # where f's form is least: a coarser key, which the check must reject
    import addmds.propm as propm_mod
    t = field_create(*key)
    polys = invertible_linearized(t)
    keys = [[propm_mod._orbit_key(f, g) for g in polys] for f in polys]
    real = propm_mod._normal_form_table

    def every_lam_after_least(polys):
        forms, least = real(polys)
        return forms, [ks + tuple(k for k in range(forms.shape[1]) if k not in ks)
                       for ks in least]

    monkeypatch.setattr(propm_mod, "_normal_form_table", every_lam_after_least)
    assert not _same_partition(propm_mod._orbit_classes(polys), keys)


@pytest.mark.parametrize("key, count", [
    ((2, 1, 2), None), ((5, 1, 1), None), ((7, 1, 1), None), ((2, 1, 3), None),
    ((3, 1, 2), None), ((2, 2, 2), None), ((5, 1, 2), 60), ((3, 1, 3), 60), ((7, 1, 2), 40),
    ((2, 1, 4), 40)], ids=["F4", "F5", "F7", "F8", "F9", "F16_F4", "F25", "F27", "F49", "F16"])
def test_normal_form_table_matches_the_scalar_loop(key, count):
    # the invertible polynomials (all, or a sample) and their twists, on a
    # fresh tower: a few through the one-polynomial route first, then the
    # whole list in one pass, which fills the memo entries of the rest
    from addmds.propm import _normal_form_table, _normal_forms
    t = field_create(*key)
    invs = invertible_linearized(t)
    polys = list(invs) if count is None else random.Random(repr(key)).sample(invs, count)
    polys += [twist_to_nonzero_f0(f)[0] for f in polys]
    want = [oracles.scalar_normal_forms(f) for f in polys]
    assert [_normal_forms(f) for f in polys[:3]] == want[:3]
    forms, least = _normal_form_table(polys)
    assert forms.shape == (len(polys), t.size - 1, t.h)
    assert [(tuple(map(tuple, rows)), ks) for rows, ks in zip(forms.tolist(), least)] == want
    assert [_normal_forms(f) for f in polys] == want


def _near_miss_tables(t, rng):
    """Tables in the shape of ``_witness_tables`` and one (triple, I, J) case
    per entry, each case on cells of its own: row J at c - 1 is a times row
    I at b - 1, on one table changed in one coefficient (each position in
    turn) or so that rows packed in base size - 1 (either digit order)
    would be equal, or on neither table; and one case whose b has B(b)^q =
    L*B(b) read false.  Returns (tables, cases, expected), expected being
    (holds, cert) of each case."""
    h, n, s = t.h, t.size - 1, t.size
    changes = []
    for which in (0, 1):
        width = h - which
        changes += [(which, "one", k) for k in range(width)]
        changes += [(which, "collide", k, order) for k in range(width - 1) for order in (0, 1)]
    changes = [None] * 2 + changes + ["frob"]
    conj = np.array([[[rng.randrange(s) for _ in range(h)] for _ in range(n)]
                     for _ in range(2 * len(changes))], dtype=np.int64)
    prod = conj[..., 1:].copy()
    frob = np.ones(n, dtype=bool)
    frob[n - 1] = False
    cases, expected = [], []
    for case, change in enumerate(changes):
        a = rng.randrange(1, s)
        b = n if change == "frob" else rng.randrange(1, n)
        c = rng.randrange(1, s)
        i, j = 2 * case, 2 * case + 1
        for which, table in enumerate((conj, prod)):
            right = [rng.randrange(s) for _ in range(table.shape[-1])]
            left = list(right)
            if change not in (None, "frob") and change[0] == which:
                k = change[2]
                if change[1] == "one":
                    left[k] = rng.choice([x for x in range(s) if x != right[k]])
                else:  # equal in base s - 1 with coefficient 0 lowest, or highest
                    left[k:k + 2], right[k:k + 2] = ((s - 1, 0), (0, 1)) if change[3] else (
                        (1, 0), (0, s - 1))
            table[j, c - 1] = right
            table[i, b - 1] = [t.mul(t.inv(a), x) for x in left]
        cases.append(((a, b, c), i, j))
        on = change[0] if isinstance(change, tuple) else change  # 0: conj, 1: prod
        expected.append(({0: on != 0}, [on not in (1, "frob")]))
    return (conj, prod, frob), cases, expected


@pytest.mark.parametrize("key", [(2, 1, 3), (5, 1, 2), (3, 1, 3), (2, 1, 4)],
                         ids=["F8", "F25", "F27", "F16"])
def test_class_checks_match_the_scalar_oracle_on_near_misses(key):
    # a packing that is not injective, or that drops a coefficient, passes
    # some near miss here; the scalar oracle and the expected verdicts do not
    from addmds.propm import _class_checks
    t = field_create(*key)
    tables, cases, expected = _near_miss_tables(t, random.Random(repr(key) + " near"))
    check = _class_checks(t, tables)
    for (triple, i, j), want in zip(cases, expected):
        got = check([triple], np.array([i]), np.array([j]))
        assert (got[0], got[1].tolist()) == want
        assert oracles.scalar_class_checks(t, tables, [triple], [i], [j]) == want
    # every case as one class with every triple, and a triple with a zero entry
    triples = [triple for triple, _i, _j in cases] + [(0, 1, 1)]
    rows, cols = (np.array(x) for x in zip(*[(i, j) for _tr, i, j in cases]))
    got = check(triples, rows, cols)
    assert (got[0], got[1].tolist()) == oracles.scalar_class_checks(t, tables, triples, rows, cols)


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 1)],
                         ids=["F4", "F8", "F9", "F16_F4", "F5"])
def test_zero_coeff_lemma_matches_pairwise_oracle(key):
    # the oracle runs on a tower of its own, so it fills every memo itself;
    # its per-pair report is grouped by _orbit_key, pair by pair
    from conftest import tower
    t = field_create(*key)
    assert verify_zero_coeff_lemma(tower(*key)) == oracles.class_zero_coeff_report(
        t, oracles.pairwise_zero_coeff_lemma(t))


def test_zero_coeff_lemma_rejects_a_wrong_class_witness(f8, monkeypatch):
    import addmds.propm as propm_mod
    from addmds.propm import _orbit_key
    twisted = [twist_to_nonzero_f0(f)[0] for f in invertible_linearized(f8)]
    f, g = next((f, g) for f in twisted for g in twisted if max_prop_m(f, g)[0] >= 3)
    target = _orbit_key(f, g)
    real = propm_mod._orbit_score

    def one_wrong_c(f, g):
        m, picked = real(f, g)
        if _orbit_key(f, g) == target:
            a, b, c = picked[2]
            picked = picked[:2] + ((a, b, c % 7 + 1),) + picked[3:]
        return m, picked

    monkeypatch.setattr(propm_mod, "_orbit_score", one_wrong_c)
    with pytest.raises(ValueError, match="triple 2 fails the defining identity"):
        verify_zero_coeff_lemma(f8)


def test_zero_coeff_lemma_flags_a_corrupted_product(f8, monkeypatch):
    # one entry of Mhat_f D_f B(b) for one polynomial f_i and one b: exactly
    # the pairs whose witness reads it, (f_i, g) with b among the witness's
    # b-values or (g, f_i) with b among its c-values, lose their certificate
    import addmds.propm as propm_mod
    invs = invertible_linearized(f8)
    twisted = [twist_to_nonzero_f0(f)[0] for f in invs]
    i, b = 5, 6
    real = propm_mod._witness_tables

    def corrupted(polys):
        conj, prod, frob = real(polys)
        prod = prod.copy()
        prod[i, b - 1, 0] ^= 1
        return conj, prod, frob

    def reads(f, g, position):
        return any(tr[position] == b for tr in max_prop_m(f, g)[1].triples)

    expect = set()
    for j, other in enumerate(twisted):
        if reads(twisted[i], other, 1):
            expect.add((i, j))
        if reads(other, twisted[i], 2):
            expect.add((j, i))
    # no triple (a, b, b) on the diagonal pair, where the two sides would move together
    assert not any(tr[1] == tr[2] == b for tr in max_prop_m(twisted[i], twisted[i])[1].triples)
    assert expect
    monkeypatch.setattr(propm_mod, "_witness_tables", corrupted)
    rep = verify_zero_coeff_lemma(f8)
    assert not rep["ok"]
    assert [r for r in rep["violations"] if not r["certificate_ok"]] == [
        _pair_record(invs, twisted, i, j, False) for i, j in sorted(expect)]
    _assert_class_flags(rep, invs, twisted, expect)


def test_zero_coeff_lemma_flags_a_failed_frobenius_relation(f8, monkeypatch):
    # B(b)^q = L*B(b) read as false for one b: exactly the pairs whose
    # witness has b among its b-values lose their certificate
    import addmds.propm as propm_mod
    from addmds.propm import _orbit_score
    twisted = [twist_to_nonzero_f0(f)[0] for f in invertible_linearized(f8)]
    b = 3
    real = propm_mod._witness_tables

    def corrupted(polys):
        conj, prod, frob = real(polys)
        frob = frob.copy()
        frob[b - 1] = False
        return conj, prod, frob

    n = len(twisted)
    expect = [divmod(k, n) for k, (f, g) in enumerate((f, g) for f in twisted for g in twisted)
              if any(tr[1] == b for tr in _orbit_score(f, g)[1])]
    assert 0 < len(expect) < n ** 2
    monkeypatch.setattr(propm_mod, "_witness_tables", corrupted)
    rep = verify_zero_coeff_lemma(f8)
    invs = invertible_linearized(f8)
    assert [r for r in rep["violations"] if not r["certificate_ok"]] == [
        _pair_record(invs, twisted, i, j, False) for i, j in expect]
    _assert_class_flags(rep, invs, twisted, set(expect))
    assert not rep["ok"]


def _pair_record(invs, twisted, i, j, cert_ok):
    """The per-pair record of (invs[i], invs[j]), from the pair's own score."""
    return {"f": invs[i].to_json(), "g": invs[j].to_json(),
            "m": max_prop_m(twisted[i], twisted[j])[0],
            "zero_counts": [invs[i].zero_coeff_count(), invs[j].zero_coeff_count()],
            "certificate_ok": cert_ok}


def _assert_class_flags(report, invs, twisted, failed):
    """A class's certificate fails iff one of its pairs is in ``failed``."""
    from addmds.propm import _orbit_key
    n = len(invs)
    bad = {_orbit_key(twisted[i], twisted[j]) for i, j in failed}
    index = {repr(f.to_json()): k for k, f in enumerate(invs)}
    for rec in report["classes"]:
        i, j = index[repr(rec["f"])], index[repr(rec["g"])]
        assert rec["certificate_ok"] == (_orbit_key(twisted[i], twisted[j]) not in bad)
    assert sum(rec["pairs"] for rec in report["classes"]) == n * n


# sha256 of the violations (JSON as in ``_digest``) with one product entry of
# omega*X at b = 6 flipped and X's zero count read as 0, pinned from the
# per-pair battery: pairs that fail the certificate, the zero counts, or both
# (listed twice), in row-major order
@pytest.mark.parametrize("key, count, digest", [
    ((2, 1, 3), 82, "f7108b493edb85b4fab9813d717dae2497c79124e734d517eef3e720d068a021"),
    ((3, 1, 2), 62, "2565d9aa64631fc959dafd9a088740b37a1cd9c7f7d67d3faf428fe0ec091905"),
    ((5, 1, 2), 190, "c23e8e228982312a358e106b0e4c1c485be1e851bbaf4df7a78645326333f6a9"),
], ids=["F8", "F9", "F25"])
def test_zero_coeff_violations_under_corrupted_tables(key, count, digest, monkeypatch):
    import addmds.propm as propm_mod
    t = field_create(*key)
    ident = LinearizedPoly.identity(t)
    i = invertible_linearized(t).index(LinearizedPoly.scalar(t, t.omega))
    real_tables, real_count = propm_mod._witness_tables, LinearizedPoly.zero_coeff_count

    def corrupted(polys):
        conj, prod, frob = real_tables(polys)
        prod = prod.copy()
        prod[i, 5, 0] ^= 1
        return conj, prod, frob

    monkeypatch.setattr(propm_mod, "_witness_tables", corrupted)
    monkeypatch.setattr(LinearizedPoly, "zero_coeff_count",
                        lambda f: 0 if f == ident else real_count(f))
    violations = verify_zero_coeff_lemma(t)["violations"]
    assert len(violations) == count
    assert sum(a == b for a, b in zip(violations, violations[1:])) == 2
    assert {rec["certificate_ok"] for rec in violations} == {True, False}
    assert _digest(violations) == digest

"""Conjugation-triple machinery for pairs of invertible linearized polynomials.

For invertible f, g and nonzero field elements b, c write

    conj(f, b) = f(b f^{-1}(X)),   conj(g, c) = g(c g^{-1}(X)).

A *triple* (a, b, c) for the pair (f, g) is one with a*conj(f, b) = conj(g, c)
as polynomials.  The pair's *score* m is the largest number of triples that
are pairwise distinct in every coordinate; (1,1,1) is always a triple, so
m >= 1, and m <= q^h - 1 since the a-values are distinct and nonzero.

The score controls when interpolation maps of an additive MDS code force
linearity, which is why this module ships exhaustive verifiers for the
supporting facts: the inverse-pair transfer, the zero-coefficient count
equality (with its matrix-identity certificate), the dense-inverse property
of two-term polynomials, and the score-threshold-implies-monomial check.
All verifiers enumerate complete small towers and return JSON-ready
reports; none of them sample.

Two routes compute conjugates.  The search side reads value rows:
``_conj_buckets`` (so ``prop_triples`` and every score) groups the b by
conj(f, b) up to scalars from f's one ``evaluation_table`` row, since
conj(f, b)(f(y)) = f(b y), and computes no inverse.  The checking side
stays on the Dickson inverse, independently of the buckets, and
re-derives every triple it accepts from the polynomials and compares
every triple it receives.  Each conj(f, b) it reads is a row of one table
of all b != 0, built from those inverses as one ``evaluation_table`` of h
q-polynomials per f (``_conjugate_table``): f's own table in
``_triple_holds`` (so ``PropWitness`` and the transferred triples of
``verify_inverse_lemma``), one table of all its polynomials in the
zero-coefficient battery.
``ZeroCoeffCertificate.validate`` computes from its own fields.
``verify_semilinear_criterion`` computes no conjugate: conj(f, a) is
scalar iff f(a y) = c f(y) for every y, which f's value row decides on
the basis y = omega^l, l < h, in the same ``value_grid`` pass that
screens invertibility.

Scores are searched once per orbit class of pairs.  The triples of (f, g)
are exactly those of (lam*f(mu X), lam*g(nu X)) for nonzero lam, mu, nu:

    conj(f(mu X), b) = conj(f, b)            (mu X and b X commute),
    conj(lam*f, b) = lam*conj(f, b)(lam^{-1} X),  the same lam^{1-q^l}
                                             factor on both sides.

So ``_orbit_key`` names the class, and the exact score and witness are
memoised under it (``_orbit_score``, memo ``orbit_scores``).  That is the
one search: ``max_prop_m``, ``verify_inverse_lemma`` for its derived
pairs and both batteries read it.  It stops early only at a size no set
can beat: min(#a, #b, #c), or q^h - 2 when ``_product_limit`` proves it
by the product argument (the full Cayley-type tables of monomial pairs
over odd q, whose optimum the search alone cannot prove).  The
batteries never key pairs one at a time: ``_normal_form_table`` makes
every normal form of a polynomial list in one log-domain pass,
``_orbit_classes`` gives the whole N x N array of class ids from one
ranking of them, and each battery scores a class once, on its first
member; ``verify_lm_prop_implication`` first bounds the class
(``_triple_bound``) and scores only the classes the bound leaves.  Every
pair is still checked.
``verify_zero_coeff_lemma`` tests each class's witness, and each pair's
certificate identity, against all pairs of the class by packed rows of
per-polynomial tables (``_witness_tables``, ``_class_checks``): one
gather per side and pair for each triple.  These are the checks of
``PropWitness`` and ``ZeroCoeffCertificate``, which stay the per-pair
route for single pairs and for the tests' oracle.  Budgets are
charged once, before any search: a battery its |GL_h(F_q)|^2 pairs
(``check_pair_budget``), a single-pair entry (``max_prop_m``) the pair's
triples; the scorer ``_orbit_score`` charges nothing.

Work that depends on one polynomial, not on the pair, is memoised on the
tower (``FieldTower.memo``), so a battery pays it once:

- Dickson inverses (``inverses``, in ``linpoly``) and conj buckets
  (``conj_buckets``);
- each polynomial's normal forms lam*f(mu X), first nonzero coefficient
  scaled to 1, one per lam (``orbit_normal_forms``), filled for a whole
  list by the pass of ``_normal_form_table``;
- conj(f, b) for every b != 0, f's ``_conjugate_table`` rows
  (``conjugates``, keyed by f.coeffs), which ``_triple_holds`` reads;
- each normalized polynomial's certificate minor and diagonal
  (``zero_coeff_parts``) for the per-pair certificates, and the shift
  matrix L (``zero_coeff_shift``).

Certificate products are not memoised: ``_witness_tables`` computes
Mhat_f*D_f*B(b) for every f and b in one log-domain product, from the
Dickson minors of the inverses and the B(b), never from conj, and
``ZeroCoeffCertificate.validate`` computes from its own fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product

import numpy as np

from . import linalg
from .code import _charge
from .errors import NotInvertible
from .linpoly import (
    LinearizedPoly,
    evaluation_table,
    inverse_table,
    invertible_linearized,
    support_degrees,
    value_grid,
)


def _memoised(tower, name: str, key, build):
    """Entry ``key`` of the tower's memo ``name``, made by ``build()`` on a miss."""
    memo = tower.memo(name)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = build()
    return hit


def _conj_buckets(f: LinearizedPoly):
    """Map: key of conj(f, b) up to scalars -> list of (b, conj(f, b)(1)).

    conj(f, b)(f(y)) = f(b y), so with where[log f(omega^r)] = r the log
    u[b, l] of conj(f, b)(omega^l) is log f(b omega^where[l]), read off f's
    one ``evaluation_table`` row.  omega^l, l < h, is an F_q-basis, so two
    conjugates are proportional iff they share the key (u[b, l] - u[b, 0])
    mod (q^h - 1), l = 1..h-1, and their ratio is the ratio of their values
    at 1.  No inverse is computed; raises NotInvertible when f's value row
    has a zero.  Buckets are memoised on the tower.
    """
    t = f.tower

    def build():
        n = t._group_order
        exp, log = t.np_tables()
        (values,) = evaluation_table(t, [f.coeffs])
        if not values.all():
            raise NotInvertible(f"no compositional inverse: {f.coeffs}")
        log_v = log[values]
        where = np.empty(n, dtype=np.int64)
        where[log_v] = np.arange(n)
        u = log_v[(log[1:, None] + where[:t.h]) % n]  # rows b = 1, 2, ...
        keys = map(tuple, ((u[:, 1:] - u[:, :1]) % n).tolist())
        buckets = {}
        for b, (key, lead) in enumerate(zip(keys, exp[u[:, 0]].tolist()), 1):
            buckets.setdefault(key, []).append((b, lead))
        return buckets
    return _memoised(t, "conj_buckets", f.coeffs, build)


def _pair_buckets(f: LinearizedPoly, g: LinearizedPoly):
    """The conj buckets of f and of g; NotInvertible unless both are invertible."""
    try:
        return _conj_buckets(f), _conj_buckets(g)
    except NotInvertible:
        raise NotInvertible("triples are defined for invertible pairs only") from None


def prop_triples(f: LinearizedPoly, g: LinearizedPoly):
    """All (a, b, c) in (F_{q^h}*)^3 with a*conj(f,b) = conj(g,c), sorted by (b, c)."""
    t = f.tower
    bf, bg = _pair_buckets(f, g)
    out = []
    for norm, blist in bf.items():
        clist = bg.get(norm)
        if not clist:
            continue
        for b, lb in blist:
            lb_inv = t.inv(lb)
            for c, lc in clist:
                out.append((t.mul(lc, lb_inv), b, c))
    out.sort(key=lambda x: (x[1], x[2]))
    return out


def triple_count(f: LinearizedPoly, g: LinearizedPoly) -> int:
    """len(prop_triples(f, g)), counted from the buckets without listing them."""
    bf, bg = _pair_buckets(f, g)
    return sum(len(blist) * len(bg.get(norm, ())) for norm, blist in bf.items())


def _triple_bound(f: LinearizedPoly, g: LinearizedPoly) -> int:
    """min(#distinct a, #distinct b, #distinct c) over ``prop_triples(f, g)``:
    no set of triples distinct in every coordinate is larger."""
    return min(len(set(values)) for values in zip(*prop_triples(f, g)))


# ---------------------------------------------------------------------------
# exact maximum matching

def _product_limit(tower, triples):
    """N - 1 when ``triples`` provably admit no N distinct in every
    coordinate, N = q^h - 1; None when this test does not apply.

    It applies to a full Cayley-type table: the triples hold every one of
    the N^2 pairs (b, c) once, and log a = s log c - r log b (mod N) on all
    of them, with s read off the triple at (b, c) = (1, omega) and r off the
    one at (omega, 1); N and s - r must be even.  A set of N triples
    distinct in every coordinate meets every b and every c once, so its
    log a sum to (s - r) N(N - 1)/2 = 0 (mod N), while its a are all of
    F^*, whose logs sum to N(N - 1)/2 = N/2 (mod N): Wilson's theorem in
    log form.  Monomial pairs c X^(q^i), d X^(q^j) over odd q give such
    tables: conj(c X^(q^i), b) = b^(q^i) X, so a = c^(q^j) / b^(q^i), with
    s = q^j and r = q^i both odd.
    """
    n = tower._group_order
    if n % 2 or len(triples) != n * n:
        return None
    la, lb, lc = tower.np_tables()[1][np.array(triples, dtype=np.int64).T]
    cell = lb * n + lc
    if (np.bincount(cell, minlength=n * n) != 1).any():
        return None
    by_cell = np.empty_like(la)  # by_cell[k]: log a at (b, c) = (omega^(k // n), omega^(k % n))
    by_cell[cell] = la
    s, r = by_cell[1], -by_cell[n] % n
    if (s - r) % 2 or ((la - s * lc + r * lb) % n).any():
        return None
    return n - 1


def _exact_matching(triples, limit=None):
    """Largest set of triples, one per b at most, all a and all c distinct,
    sorted by (b, c).

    The triples are grouped by b into levels, then an exact depth-first
    search with a remaining-levels bound runs over them, fewest options
    first; its first descent is the greedy set, so it needs no warm start.
    It stops as soon as the set reaches min(#levels, #distinct a,
    #distinct c, ``limit``), which no set can exceed: ``limit`` is a proven
    bound from outside, such as the product argument of ``_product_limit``.
    The set only ever grows strictly, so the stop changes nothing returned.
    """
    by_b = {}
    for a, b, c in triples:
        by_b.setdefault(b, []).append((a, c))
    levels = sorted(by_b.items())
    caps = [len(levels), len({a for a, _b, _c in triples}), len({c for _a, _b, c in triples})]
    limit = min(caps if limit is None else caps + [limit])
    order = sorted(range(len(levels)), key=lambda i: (len(levels[i][1]), levels[i][0]))
    best, chosen = [], []
    used_a, used_c = set(), set()

    def dfs(pos):
        nonlocal best
        if len(best) >= limit:
            return
        if len(chosen) > len(best):
            best = list(chosen)
        if pos == len(order) or len(chosen) + len(order) - pos <= len(best):
            return
        b, opts = levels[order[pos]]
        for a, c in opts:
            if a in used_a or c in used_c:
                continue
            chosen.append((a, b, c))
            used_a.add(a)
            used_c.add(c)
            dfs(pos + 1)
            chosen.pop()
            used_a.discard(a)
            used_c.discard(c)
        dfs(pos + 1)  # skip this level

    dfs(0)
    return sorted(best, key=lambda x: (x[1], x[2]))


def _best_witness(tower, triples):
    """(m, optimal witness) of the exact search, listing (1,1,1) first when
    some optimum contains it: b = 1 is the least b, so the (b, c) order puts
    it first whenever it is picked.

    Both searches stop at the product bound when ``_product_limit`` proves
    one: N - 1 for the triples, N - 2 for the retry with (1,1,1) forced,
    since (1,1,1) and the retry's set together stay distinct in every
    coordinate.
    """
    limit = _product_limit(tower, triples)
    picked = _exact_matching(triples, limit)
    one = (1, 1, 1)
    if one not in picked:
        # retry with (1,1,1) forced: drop its level, ban a = 1 and c = 1
        rest = [tr for tr in triples if 1 not in tr]
        forced = [one] + _exact_matching(rest, None if limit is None else limit - 1)
        if len(forced) >= len(picked):
            picked = forced
    return len(picked), tuple(picked)


# ---------------------------------------------------------------------------
# orbit classes of pairs under (f, g) -> (lam*f(mu X), lam*g(nu X))

def _normal_form_table(polys):
    """(forms, least) of nonzero polynomials: forms[i, k] is lam*f_i(mu X)
    for the k-th nonzero lam in element order, with mu making its first
    nonzero coefficient 1, and least[i] lists the k where the lex-least form
    of f_i occurs.  The memo entries of ``_normal_forms`` are filled from it.

    All forms come from one log-domain array.  With i0 the first nonzero
    index of f, mu^(q^i0) = (lam*f_i0)^(-1), so log mu = -(log lam +
    log f_i0) q^(h - i0) mod n, and coefficient j has log lam + log f_j +
    q^j log mu.  The lex-least forms are kept one coefficient at a time.
    """
    t = polys[0].tower
    n, h = t._group_order, t.h
    exp, log = t.np_tables()
    coeffs = np.array([f.coeffs for f in polys], dtype=np.int64)
    i0 = (coeffs != 0).argmax(axis=1)
    lf, lam, qpow = log[coeffs], log[1:], np.array(t._qpow, dtype=np.int64)
    lmu = -(lam + lf[np.arange(len(polys)), i0][:, None]) % n * qpow[(h - i0) % h][:, None] % n
    logs = (lam[:, None] + lf[:, None, :] + lmu[:, :, None] * qpow) % n
    forms = np.where(coeffs[:, None, :] != 0, exp[logs], 0)
    is_least = np.ones(forms.shape[:2], dtype=bool)
    for j in range(h):
        column = np.where(is_least, forms[:, :, j], t.size)
        is_least &= column == column.min(axis=1, keepdims=True)
    least = [tuple(np.flatnonzero(row).tolist()) for row in is_least]
    memo = t.memo("orbit_normal_forms")
    missing = [i for i, f in enumerate(polys) if f.coeffs not in memo]
    for i, rows in zip(missing, forms[missing].tolist()):
        memo[polys[i].coeffs] = tuple(map(tuple, rows)), least[i]
    return forms, least


def _normal_forms(f: LinearizedPoly):
    """(forms, least) of ``_normal_form_table`` for one polynomial, forms as
    tuples; memoised on the tower per polynomial."""
    memo = f.tower.memo("orbit_normal_forms")
    if f.coeffs not in memo:
        _normal_form_table([f])
    return memo[f.coeffs]


def _orbit_key(f: LinearizedPoly, g: LinearizedPoly):
    """The lex-least (normal form of f, normal form of g) over the common lam:
    equal exactly for pairs in one (lam, mu, nu) orbit.  f and g must be
    nonzero."""
    forms_f, least_f = _normal_forms(f)
    forms_g, _ = _normal_forms(g)
    return forms_f[least_f[0]], min(forms_g[k] for k in least_f)


def _orbit_classes(polys):
    """N x N int array of class ids: entries [i, j] and [k, l] are equal
    exactly when ``_orbit_key`` is equal on (polys[i], polys[j]) and
    (polys[k], polys[l]).

    Every normal form of every polynomial (``_normal_form_table``) is ranked
    once in lex order, R[i, k] being the rank of the k-th form of polys[i]
    among all of them.  The key's two parts then become rank(least form of
    f_i) = R[i, least_i[0]] and min over k in least_i of R[j, k], and the
    id packs them into one int.
    """
    t = polys[0].tower
    forms, least = _normal_form_table(polys)
    place = t.size ** np.arange(t.h - 1, -1, -1, dtype=np.int64)
    distinct, rank = np.unique(forms @ place, return_inverse=True)
    rank = rank.reshape(forms.shape[:2])
    by_least = {}
    for i, ks in enumerate(least):
        by_least.setdefault(ks, []).append(i)
    ids = np.empty((len(polys), len(polys)), dtype=np.int64)
    for ks, rows in by_least.items():
        ids[rows] = (rank[rows, ks[0]][:, None] * len(distinct)
                     + rank[:, ks].min(axis=1)[None, :])
    return ids


def _class_members(ids):
    """Flat indices of the members of each class of the id array ``ids``, one
    array per class in increasing id order; negative ids are left out."""
    flat = ids.ravel()
    ordered = np.sort(flat)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return (np.flatnonzero(flat == c) for c in ordered[first].tolist() if c >= 0)


def gl_order(tower) -> int:
    """|GL_h(F_q)|: the number of invertible q-linearized polynomials."""
    order = 1
    for i in range(tower.h):
        order *= tower.size - tower.q ** i
    return order


def check_pair_budget(tower, budget: int | None = None):
    """BudgetExceeded when the |GL_h(F_q)|^2 pairs of invertible polynomials,
    which a battery holds in N x N arrays, exceed ``budget`` (default 2^22).
    Closed form: nothing is enumerated."""
    _charge(gl_order(tower) ** 2, "pairs", budget)


def _orbit_score(f: LinearizedPoly, g: LinearizedPoly):
    """(m, witness triples) of the pair's orbit class, searched once per class,
    memoised on the tower and charged to no budget: every pair of the class
    has the same triples, so the same search and witness."""
    return _memoised(f.tower, "orbit_scores", _orbit_key(f, g),
                     lambda: _best_witness(f.tower, prop_triples(f, g)))


def _conjugate(f: LinearizedPoly, b: int) -> list:
    """Coefficients of conj(f, b), b != 0: row b - 1 of f's
    ``_conjugate_table``, memoised on the tower once per polynomial."""
    return _memoised(f.tower, "conjugates", f.coeffs,
                     lambda: _conjugate_table([f])[0].tolist())[b - 1]


def _triple_holds(f, g, triple):
    """a*conj(f, b) = conj(g, c), coefficient by coefficient, with both
    conjugates re-derived from the Dickson inverses (``_conjugate``)."""
    a, b, c = triple
    mul = f.tower.mul
    return f.tower == g.tower and all(
        mul(a, x) == y for x, y in zip(_conjugate(f, b), _conjugate(g, c)))


@dataclass(frozen=True)
class PropWitness:
    f: LinearizedPoly
    g: LinearizedPoly
    triples: tuple

    def __post_init__(self):
        _check_witness(self.triples, lambda idx: _triple_holds(self.f, self.g, self.triples[idx]))


def _check_witness(triples, holds):
    """The checks of ``PropWitness``, in its order; ``holds(idx)`` says
    whether triple idx satisfies the defining identity (it is only asked
    about triples with nonzero entries)."""
    for idx, triple in enumerate(triples):
        if not all(triple):
            raise ValueError("triples must have nonzero entries")
        if not holds(idx):
            raise ValueError(f"triple {idx} fails the defining identity")
    for i, j in combinations(range(len(triples)), 2):
        ti, tj = triples[i], triples[j]
        if ti[0] == tj[0] or ti[1] == tj[1] or ti[2] == tj[2]:
            raise ValueError("triples share a coordinate value")
    one = (1, 1, 1)
    if one in triples and triples[0] != one:
        raise ValueError("(1,1,1) must come first when present")


def max_prop_m(f: LinearizedPoly, g: LinearizedPoly, budget: int | None = None):
    """Exact maximum score m and an optimal witness.

    When some optimum contains the guaranteed triple (1,1,1) the returned
    witness does, listed first.  The pair's triples are counted (not listed)
    and charged to ``budget`` before the memoised search (``_orbit_score``);
    the witness is validated against this very pair.
    """
    # counted before the key: a zero f has no normal form
    _charge(triple_count(f, g), "candidate triples", budget)
    m, picked = _orbit_score(f, g)
    return m, PropWitness(f, g, picked)


# ---------------------------------------------------------------------------
# normalization (nonzero constant coefficient)

def twist_to_nonzero_f0(f: LinearizedPoly):
    """(f composed with X^{q^e}, e) with the result's coefficient 0 nonzero.

    Triples transform as (a, b, c) -> (a, b^{q^{h-e}}, c) when f is twisted,
    so scores and zero-coefficient counts are unchanged.
    """
    e = min((f.tower.h - i) % f.tower.h for i in f.support())
    return f.frobenius_twist(e), e


# ---------------------------------------------------------------------------
# certificate for the zero-coefficient-count fact

def shift_minus_one_matrix(tower, size):
    """First column all -1, ones on the shifted diagonal; B^frobenius = L*B."""
    minus1 = tower.neg(1)
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        out[i][0] = minus1
        if i + 1 < size:
            out[i][i + 1] = 1
    return out


@dataclass(frozen=True)
class ZeroCoeffCertificate:
    """Matrix identity satisfied by every triple of a normalized pair.

    With Mhat_f the transposed-inverse-Dickson minor (top row and first
    column removed), D_f = diag(f_1..f_{h-1}) and B_j the vector
    (b_j^{q^i} - b_j) for i = 1..h-1, every triple satisfies
    a_j * Mhat_f * D_f * B_j = Mhat_g * D_g * C_j, and B_j's entrywise
    q-th power equals L * B_j.  Matrices are tuples of row tuples and
    vectors are tuples, as ``build_zero_coeff_certificate`` makes them.
    Since (f o f^(-1))_k = 0 for k >= 1, Mhat_f * D_f * B(b) is
    coefficients 1..h-1 of conj(f, b), so the identity restates a*conj(f,
    b) = conj(g, c) there by an independent route.
    """
    f: LinearizedPoly
    g: LinearizedPoly
    triples: tuple
    mf_hat: tuple
    mg_hat: tuple
    df: tuple
    dg: tuple
    bs: tuple
    cs: tuple
    lmat: tuple

    def validate(self) -> bool:
        t = self.f.tower
        mf = linalg.mat_mul(t, self.mf_hat, self.df)
        mg = linalg.mat_mul(t, self.mg_hat, self.dg)
        for (a, _b, _c), bj, cj in zip(self.triples, self.bs, self.cs):
            lhs = [t.mul(a, x) for x in linalg.mat_vec(t, mf, bj)]
            if lhs != linalg.mat_vec(t, mg, cj):
                return False
            if [t.frob(x) for x in bj] != linalg.mat_vec(t, self.lmat, bj):
                return False
        return True


def _diff_vector(tower, x):
    """(x^{q^i} - x for i = 1..h-1)."""
    return tuple(tower.sub(tower.frob(x, i), x) for i in range(1, tower.h))


def _minor_and_diagonal(f: LinearizedPoly):
    """(Mhat_f, D_f) of a normalized f as tuples, memoised on the tower."""
    t = f.tower

    def build():
        mhat = [row[1:] for row in linalg.transpose(f.inverse().dickson())[1:]]
        diag = [[f.coeffs[i] if i == j else 0 for j in range(1, t.h)] for i in range(1, t.h)]
        return tuple(tuple(r) for r in mhat), tuple(tuple(r) for r in diag)
    return _memoised(t, "zero_coeff_parts", f.coeffs, build)


def build_zero_coeff_certificate(f: LinearizedPoly, g: LinearizedPoly, triples) -> ZeroCoeffCertificate:
    """Certificate for a pair already normalized to f_0 != 0, g_0 != 0."""
    t = f.tower
    if f.coeffs[0] == 0 or g.coeffs[0] == 0:
        raise ValueError("normalize the pair first (constant coefficients nonzero)")
    mf_hat, df = _minor_and_diagonal(f)
    mg_hat, dg = _minor_and_diagonal(g)
    bs = tuple(_diff_vector(t, b) for _a, b, _c in triples)
    cs = tuple(_diff_vector(t, c) for _a, _b, c in triples)
    return ZeroCoeffCertificate(f, g, tuple(triples), mf_hat, mg_hat, df, dg, bs, cs,
                                _shift_matrix(t))


def _shift_matrix(tower):
    """``shift_minus_one_matrix`` of size h - 1 as row tuples, memoised on the tower."""
    return tower.memo("zero_coeff_shift", lambda: tuple(
        tuple(r) for r in shift_minus_one_matrix(tower, tower.h - 1)))


def _conjugate_table(polys):
    """conj[i, b - 1, k]: coefficient k of conj(f_i, b), f_i = polys[i], for
    every element b != 0, from the Dickson inverse g = f_i^(-1) (memoised,
    and checked by ``compose``) and not from the search side's buckets.

    f o (bX) o g = sum_l f_l b^(q^l) (g(X))^(q^l), so coefficient k is
    P_k(b) for the q-polynomial P_k = sum_l f_l g_(k-l)^(q^l) X^(q^l): one
    ``evaluation_table`` of the h P_k of every polynomial, its columns
    read back in element order b = 1, 2, ...
    """
    t = polys[0].tower
    h, n = t.h, t._group_order
    exp, log = t.np_tables()
    f = np.array([p.coeffs for p in polys], dtype=np.int64)[:, None, :]
    g = np.array([p.inverse().coeffs for p in polys], dtype=np.int64)
    g = g[:, (np.arange(h)[:, None] - np.arange(h)) % h]  # g[i, k, l] = g_(k-l)
    # f_l g_(k-l)^(q^l) has log f_l + q^l log g_(k-l), below 2n for the doubled exp
    p_k = np.where((f != 0) & (g != 0), exp[log[f] + log[g] * np.array(t._qpow) % n], 0)
    values = evaluation_table(t, p_k.reshape(-1, h))[:, log[1:]]
    return values.reshape(len(polys), h, n).transpose(0, 2, 1)


def _witness_tables(polys):
    """The checking side's per-polynomial tables, rows in ``polys`` order and
    column b - 1 for each element b != 0:

    - conj[i, b - 1] = conj(f_i, b) (``_conjugate_table``);
    - prod[i, b - 1] = Mhat_f D_f B(b) of f = f_i, for every f and b in one
      log-domain product summed over its h - 1 terms by ``add_arrays``.
      Entry (k, l) of Mhat_f D_f is g_(k-l)^(q^(l+1)) f_(l+1), g = f^(-1):
      the Dickson matrix of g, transposed, without its top row and first
      column, times diag(f_1..f_(h-1)).  It equals conj[i, b - 1, 1:]: since
      (f o g)_k = 0 for k >= 1, conj's coefficient k is sum_(l>=1) f_l
      g_(k-l)^(q^l) (b^(q^l) - b); the products stay the certificate's own
      route, from the minors and the B(b), and never read conj;
    - frob[b - 1]: B(b)'s entrywise q-th power equals L * B(b).
    """
    t = polys[0].tower
    h, n = t.h, t._group_order
    exp, log = t.np_tables()
    diffs = [_diff_vector(t, b) for b in t.nonzero()]
    d = np.array(diffs, dtype=np.int64)
    f = np.array([p.coeffs for p in polys], dtype=np.int64)[:, None, 1:]
    g = np.array([p.inverse().coeffs for p in polys], dtype=np.int64)
    g = g[:, (np.arange(h - 1)[:, None] - np.arange(h - 1)) % h]  # g[i, k, l] = g_(k-l)
    # logs of the factors, 2n for a zero one: a product's log is then >= 2n
    # exactly when a factor is 0, and exp is 0 from 2n on
    qpow = np.array(t._qpow[1:], dtype=np.int64)
    log_m = np.where((g != 0) & (f != 0), (log[g] * qpow + log[f]) % n, 2 * n)
    log_d = np.where(d != 0, log[d], 2 * n)
    terms = exp[np.minimum(log_m[:, None] + log_d[:, None, :], 2 * n)]  # [i, b - 1, k, l]
    # summed over l; for h = 1 there is no coefficient above 0
    prod = (reduce(t.add_arrays, np.moveaxis(terms, -1, 0)) if h > 1
            else np.zeros(terms.shape[:-1], dtype=np.int64))
    lmat = _shift_matrix(t)
    frob = np.array([[t.frob(x) for x in d] == linalg.mat_vec(t, lmat, d) for d in diffs])
    return _conjugate_table(polys), prod, frob


def _class_checks(tower, tables):
    """The check of one class's witness against all of the class's pairs,
    from ``_witness_tables``: check(triples, rows, cols) is (holds, cert)
    for the pairs (f_I, f_J), I in ``rows`` and J in ``cols``.  holds[idx]
    says a*conj(f_I, b) = conj(f_J, c) on every pair, cert[k] says pair
    k's certificate holds, a*Mhat_I D_I B(b) = Mhat_J D_J C(c) and B(b)^q =
    L*B(b) for every triple.  Triples with a zero entry are skipped:
    ``_check_witness`` rejects them before it asks ``holds``.

    Each coefficient row of a table is packed into one int in base
    ``tower.size``, so two rows are equal iff their ints are.  The tables'
    own rows are packed once.  Per triple, column b - 1 of every
    polynomial is scaled by a, one gather through logs that read 2n at 0
    (exp is 0 from 2n on), and packed; each side then takes one gather
    per pair.  The ints stay below size^h < 2^63: for h <= 3 because size
    <= 2^20, and for h >= 4 because size^h >= 2^63 would make |GL_h(F_q)|
    >= size^h prod_(i>=1) (1 - 2^-i) > 2^61, more polynomials than a
    battery can list.  ``_orbit_classes`` packs its forms the same way.
    """
    exp, log = tower.np_tables()
    n = tower._group_order

    def packer(table):
        """(the table's rows packed, scaled): scaled(b, la) is column b - 1
        of every polynomial times omega^la, packed."""
        place = tower.size ** np.arange(table.shape[-1], dtype=np.int64)
        logs = np.where(table != 0, log[table], 2 * n)
        return table @ place, lambda b, la: exp[logs[:, b - 1] + la] @ place

    conj, prod, frob = tables
    conj_rows, conj_scaled = packer(conj)
    prod_rows, prod_scaled = packer(prod)

    def check(triples, rows, cols):
        holds, cert = {}, np.ones(len(rows), dtype=bool)
        for idx, (a, b, c) in enumerate(triples):
            if a and b and c:
                la = tower._log[a]
                holds[idx] = bool((conj_scaled(b, la)[rows] == conj_rows[cols, c - 1]).all())
                cert &= (prod_scaled(b, la)[rows] == prod_rows[cols, c - 1]) & frob[b - 1]
        return holds, cert
    return check


# ---------------------------------------------------------------------------
# lemma verifiers (exhaustive on small towers)

def verify_inverse_lemma(f: LinearizedPoly, g: LinearizedPoly, budget: int | None = None) -> dict:
    """Scores of (f,g), (f^{-1}, f^{-1}g), (g^{-1}, g^{-1}f) agree.

    The witness of (f,g) transfers: (a,b,c) -> (b^{-1}, a^{-1}, c^{-1}) for
    the first derived pair and (a,b,c) -> (c^{-1}, a, b^{-1}) for the second.
    Both transferred sets are validated triple by triple.  Only (f, g) is
    charged to ``budget``: the maps biject its triples with each derived pair's.
    """
    t = f.tower
    m, witness = max_prop_m(f, g, budget)
    finv, ginv = f.inverse(), g.inverse()
    pair1 = (finv, finv.compose(g))
    pair2 = (ginv, ginv.compose(f))
    m1 = _orbit_score(*pair1)[0]
    m2 = _orbit_score(*pair2)[0]
    tr1 = [(t.inv(b), t.inv(a), t.inv(c)) for a, b, c in witness.triples]
    tr2 = [(t.inv(c), a, t.inv(b)) for a, b, c in witness.triples]
    ok1 = all(_triple_holds(*pair1, tr) for tr in tr1)
    ok2 = all(_triple_holds(*pair2, tr) for tr in tr2)
    return {
        "f": f.to_json(),
        "g": g.to_json(),
        "m": m,
        "m_inverse_pair_f": m1,
        "m_inverse_pair_g": m2,
        "scores_equal": m == m1 == m2,
        "lemma_inequalities_hold": m <= m1 and m <= m2,
        "transferred_triples_f": [[t.digits(x) for x in tr] for tr in tr1],
        "transferred_valid_f": ok1,
        "transferred_triples_g": [[t.digits(x) for x in tr] for tr in tr2],
        "transferred_valid_g": ok2,
        "ok": (m == m1 == m2) and ok1 and ok2,
    }


def zero_coeff_bound(tower) -> int:
    return max(tower.q ** (tower.h - 1), tower.h * tower.q - 1)


def verify_zero_coeff_lemma(tower, budget: int | None = None) -> dict:
    """Exhaustive check: score above the bound forces equal zero counts >= 1.

    Every pair of invertible polynomials is scored exactly.  For qualifying
    pairs the zero-coefficient counts of f and g must agree and be positive.
    Both entries are first twisted to nonzero constant term.  Pairs go by
    orbit class (``_orbit_classes``): the score and witness are searched
    once per class, then the witness (the checks of ``PropWitness``) and the
    matrix-identity certificate (those of ``ZeroCoeffCertificate``) are
    checked against every pair of the class at once (``_class_checks``).
    The pairs are charged to ``budget`` (``check_pair_budget``) first.
    """
    check_pair_budget(tower, budget)
    inv_polys = invertible_linearized(tower)
    npoly = len(inv_polys)
    bound = zero_coeff_bound(tower)
    twisted = [twist_to_nonzero_f0(f)[0] for f in inv_polys]
    check = _class_checks(tower, _witness_tables(twisted))
    scores = np.empty((npoly, npoly), dtype=np.int64)
    cert_ok = np.empty((npoly, npoly), dtype=bool)
    for members in _class_members(_orbit_classes(twisted)):
        i, j = divmod(int(members[0]), npoly)
        m, picked = _orbit_score(twisted[i], twisted[j])
        holds, cert = check(picked, *np.divmod(members, npoly))
        _check_witness(picked, holds.__getitem__)
        scores.flat[members] = m
        cert_ok.flat[members] = cert
    # records share each polynomial's JSON list and one zero_counts list per (zf, zg)
    names = [f.to_json() for f in inv_polys]
    zeros = np.array([f.zero_coeff_count() for f in inv_polys])
    counts = [[zf, zg] for zf in range(tower.h) for zg in range(tower.h)]
    records = [{
        "f": fj,
        "g": gj,
        "m": m,
        "zero_counts": counts[z],
        "certificate_ok": ok,
    } for (fj, gj), z, m, ok in zip(product(names, repeat=2),
                                    (zeros[:, None] * tower.h + zeros).ravel().tolist(),
                                    scores.ravel().tolist(), cert_ok.ravel().tolist())]
    qualifies = scores > bound
    equal = (zeros[:, None] == zeros) & (zeros[:, None] >= 1)
    # row-major; a pair failing both tests is listed twice
    failures = (qualifies & ~equal).astype(np.int64) + ~cert_ok
    violations = [records[k] for k in np.repeat(np.arange(npoly * npoly), failures.ravel()).tolist()]
    return {
        "tower": tower.descriptor(),
        "bound": bound,
        "pairs": npoly * npoly,
        "qualifying_pairs": int(qualifies.sum()),
        "max_m": int(scores.max()),
        "violations": violations,
        "ok": not violations,
        "records": records,
    }


def verify_two_nonzero_lemma(tower) -> dict:
    """Two-term invertible polynomials with coprime support gap have dense inverses.

    Support {i, l} avoids semi-linearity over every intermediate field
    exactly when gcd(l - i, h) = 1; for those, f^{-1} must have no zero
    coefficient.  Exhaustive over all two-term coefficient vectors: each
    support {i, l} is one ``value_grid`` of c_i x c_l over the nonzero
    elements, a candidate is invertible iff its value row has no zero, and
    the qualifying ones are inverted by ``inverse_table``.
    """
    h, n = tower.h, tower.size - 1
    nonzero = range(1, tower.size)
    candidates = 0
    qualifying = 0
    violations = []
    for i, l in combinations(range(h), 2):
        candidates += n * n
        if math.gcd(l - i, h) != 1:
            continue
        # (c_i, c_l) in lex order, c_i the slower
        grid = [nonzero if j in (i, l) else (0,) for j in range(h)]
        for rows, values in value_grid(tower, grid):
            rows = rows[(values != 0).all(axis=1)]
            qualifying += len(rows)
            dense = (inverse_table(tower, rows) != 0).all(axis=1)
            violations += [LinearizedPoly(tower, tuple(row)).to_json()
                           for row in rows[~dense].tolist()]
    return {
        "tower": tower.descriptor(),
        "two_term_candidates": candidates,
        "qualifying": qualifying,
        "violations": violations,
        "ok": not violations,
    }


def _collapse_table(log_values, h):
    """collapsed[k, s]: conj(f_k, omega^s) is scalar, f_k the invertible
    polynomial whose value logs log f_k(omega^r) are row k of ``log_values``.

    conj(f, a) = cX iff f(a y) = c f(y) for every y.  Both sides are
    F_q-linear in y and omega^l, l < h, is an F_q-basis, so with a = omega^s
    this holds iff log f(omega^(s+l)) - log f(omega^l) is the same for
    every l < h, that is iff log f(omega^(s+l)) - log f(omega^s) =
    log f(omega^l) - log f(1) mod q^h - 1 for l = 1..h-1: h - 1
    comparisons of shifted (rows, q^h - 1) arrays.
    """
    n = log_values.shape[1]
    wrapped = np.hstack([log_values, log_values[:, :h - 1]])  # column s + l, read mod n
    collapsed = np.ones(log_values.shape, dtype=bool)
    for l in range(1, h):
        # log f(omega^(s+l)) - log f(omega^s) = log f(omega^l) - log f(1)
        step = wrapped[:, l:l + n] - log_values
        collapsed &= (step - (log_values[:, l:l + 1] - log_values[:, :1])) % n == 0
    return collapsed


def verify_semilinear_criterion(tower) -> dict:
    """f(a f^{-1}(X)) collapses to a monomial exactly per the support test.

    The predicted collapse set is the subfield of degree gcd over all
    support-index differences of f.  Exhaustive over every invertible f
    and every a != 0: a = omega^r lies in F_{q^s} iff r (q^s - 1) = 0
    mod q^h - 1.  Every polynomial comes with its value row from the full
    ``value_grid``: a row with no zero is an invertible f, in the order of
    ``invertible_linearized``, and its collapses are read off that value
    row (``_collapse_table``).  No inverse or conjugate is computed.
    """
    h, n = tower.h, tower.size - 1
    log = tower.np_tables()[1]
    log_a = log[1:]  # columns in the order a = 1, 2, ..., size - 1
    # row s - 1, for s dividing h: which a lie in F_{q^s}
    in_subfield = np.array([log_a * (tower.q ** s - 1) % n == 0 for s in range(1, h + 1)])
    invertible = 0
    violations = []
    for block, values in value_grid(tower, [range(tower.size)] * h):
        keep = (values != 0).all(axis=1)
        rows = block[keep]
        invertible += len(rows)
        collapsed = _collapse_table(log[values[keep]], h)[:, log_a]
        predicted = in_subfield[support_degrees(rows, h) - 1]
        violations += [{
            "f": LinearizedPoly(tower, tuple(rows[k].tolist())).to_json(),
            "a": tower.digits(int(j) + 1),
            "collapsed": bool(collapsed[k, j]),
            "predicted": bool(predicted[k, j]),
        } for k, j in zip(*np.nonzero(collapsed != predicted))]
    return {
        "tower": tower.descriptor(),
        "pairs": invertible * n,
        "violations": violations,
        "ok": not violations,
    }


def verify_lm_prop_implication(tower, n: int, budget: int | None = None) -> dict:
    """Exhaustive check that score >= n-3 forces both entries to be monomials.

    Pairs of monomials pass by definition.  The rest go by orbit class
    (``_orbit_classes``), each bounded and scored on its first member: the
    cheap upper bound min(#distinct a, #distinct b, #distinct c)
    (``_triple_bound``) prunes most classes, and every other class gets its
    exact score and witness from ``_orbit_score``, the search every battery
    shares.  A class scoring at least n-3 gives one violation per member
    pair, in row-major pair order.  The pairs are charged to ``budget``
    (``check_pair_budget``) first.
    """
    threshold = n - 3
    if threshold < 1:
        raise ValueError("need n >= 4")
    check_pair_budget(tower, budget)
    inv_polys = invertible_linearized(tower)
    npoly = len(inv_polys)
    monomial = np.array([f.is_monomial() for f in inv_polys])
    ids = _orbit_classes(inv_polys)
    ids[monomial[:, None] & monomial[None, :]] = -1  # monomial pairs pass as they are
    monomial_pairs = int(monomial.sum()) ** 2
    pruned = 0
    max_m_nonmonomial = 0
    flagged = []  # (pair index, class score, class witness) per violating pair
    for members in _class_members(ids):
        f, g = (inv_polys[k] for k in divmod(int(members[0]), npoly))
        if _triple_bound(f, g) < threshold:
            pruned += len(members)
            continue
        m, picked = _orbit_score(f, g)
        if m < threshold:
            max_m_nonmonomial = max(max_m_nonmonomial, m)
            continue
        witness = [[tower.digits(x) for x in tr] for tr in picked]
        flagged += [(pair, m, witness) for pair in members.tolist()]
    flagged.sort(key=lambda v: v[0])
    names = [f.to_json() for f in inv_polys]  # per polynomial, not per violating pair
    violations = [{
        "f": names[pair // npoly],
        "g": names[pair % npoly],
        "m_at_least": m,
        "witness": witness,
    } for pair, m, witness in flagged]
    return {
        "tower": tower.descriptor(),
        "n": n,
        "threshold": threshold,
        "pairs": npoly * npoly,
        "monomial_pairs": monomial_pairs,
        "pruned_by_upper_bound": pruned,
        "max_m_nonmonomial_seen": max_m_nonmonomial,
        "violations": violations,
        "ok": not violations,
    }

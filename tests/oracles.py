"""Independent reimplementations used to cross-check the library.

Everything here is written naively from definitions: dense polynomial
arithmetic over F_p for field operations, elimination, matrix products
and composition with one tower method call per entry or term, trial
division for the canonical modulus, pointwise map comparison for
conjugacy triples,
conjugates (one at a time, or a whole conjugation table) and a support
gcd per polynomial for the semilinear criterion, rank tests over every
k-subset of blocks for pseudo-arcs, a subset-rank walk with one kernel
call per level for weight distributions, g^(-1) o M o g for
linear-equivalence witnesses (per candidate, or after a batched
``compose_table`` screen), plain subset enumeration for matchings, the
recursive depth-first search that the exact matching's explicit stack
replaced, a per-pair search with no memo for pair scores, every
(lam, mu, nu) scaling for pair orbit keys, one loop over lam for normal
forms, per-pair scalar comparisons for a class's witness checks, a
per-pair witness and certificate for the zero-coefficient lemma (its
per-pair report grouped by orbit key, or rebuilt from the class report),
Dickson determinants per candidate for the k = 4 hunt, lex rows from
integer digits for value grids, one scalar inverse per row for the
two-term battery, one (rows, n, h) gather for collapse tables, and a
scalar RREF for the basis of a field-linear code.  Slow on purpose;
tests only feed it small inputs.
"""

from itertools import combinations, product
from math import comb, gcd

import numpy as np

from addmds import linalg
from addmds.code import (
    LinearWitness,
    _fp_blocks,
    _subset_ranks,
    _sure_ranks,
    to_interpolation_form,
    to_standard_form,
)
from addmds.gf import _inverses
from addmds.linpoly import LinearizedPoly, invertible_linearized
from addmds.propm import (
    _exact_matching,
    _orbit_key,
    build_zero_coeff_certificate,
    max_prop_m,
    prop_triples,
    twist_to_nonzero_f0,
    zero_coeff_bound,
)
from addmds.search import _alpha_ok, _lambdas, base_mds_matrix, screen_conditions


# ---------------------------------------------------------------------------
# F_p[x] arithmetic on digit lists (index = degree)

def poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def poly_add(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return poly_trim([(x + y) % p for x, y in zip(a, b)])


def poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    lead_inv = pow(m[-1], p - 2, p)
    while len(a) > dm:
        c = (a[-1] * lead_inv) % p
        shift = len(a) - 1 - dm
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        a = poly_trim(a)
        if not a:
            break
    return a


def unpack(x, p, d):
    digs = []
    for _ in range(d):
        digs.append(x % p)
        x //= p
    return digs


def pack(digs, p):
    x = 0
    for c in reversed(digs):
        x = x * p + c
    return x


def field_mul(x, y, modulus_digits, p):
    d = len(modulus_digits) - 1
    prod = poly_mod(poly_mul(unpack(x, p, d), unpack(y, p, d), p),
                    list(modulus_digits), p)
    return pack(prod + [0] * (d - len(prod)), p)


def field_add(x, y, p, d):
    return pack([(a + b) % p for a, b in zip(unpack(x, p, d), unpack(y, p, d))], p)


def field_neg(x, p, d):
    return pack([(-a) % p for a in unpack(x, p, d)], p)


def field_pow(x, n, modulus_digits, p):
    """x^n for n >= 0 by square-and-multiply on top of ``field_mul``."""
    acc = 1
    while n:
        if n & 1:
            acc = field_mul(acc, x, modulus_digits, p)
        x = field_mul(x, x, modulus_digits, p)
        n >>= 1
    return acc


def is_irreducible(m, p):
    """True iff the monic ``m`` (digits, constant first) of degree >= 1 has
    no monic factor of degree 1 .. deg(m) // 2, by trial division."""
    d = len(m) - 1
    return all(poly_mod(m, unpack(low, p, k) + [1], p)
               for k in range(1, d // 2 + 1) for low in range(p ** k))


def least_irreducible(p, d):
    """The monic irreducible of degree d whose packed low digits are least."""
    return next(m for m in (unpack(low, p, d) + [1] for low in range(p ** d))
                if is_irreducible(m, p))


def least_primitive(modulus, p):
    """The least x (as an int) with x^k != 1 for every proper divisor k of
    the group order."""
    n = p ** (len(modulus) - 1) - 1
    proper = [k for k in range(1, n) if n % k == 0]
    return next(x for x in range(1, n + 1)
                if all(field_pow(x, k, modulus, p) != 1 for k in proper))


def element_order(x, modulus, p):
    """Least k >= 1 with x^k = 1, by repeated multiplication."""
    k, acc = 1, x
    while acc != 1:
        k, acc = k + 1, field_mul(acc, x, modulus, p)
    return k


# ---------------------------------------------------------------------------
# linearized maps evaluated from the definition

def lin_eval(tower, coeffs, x):
    acc = 0
    for i, c in enumerate(coeffs):
        if c:
            acc = tower.add(acc, tower.mul(c, tower.pow_int(x, tower.q ** i)))
    return acc


def scalar_compose(tower, f_coeffs, g_coeffs):
    """Coefficients of f o g: sum of f_i * g_j^(q^i) at (i + j) mod h, one
    tower method call per operation."""
    h = tower.h
    out = [0] * h
    for i, fi in enumerate(f_coeffs):
        for j, gj in enumerate(g_coeffs):
            if fi and gj:
                out[(i + j) % h] = tower.add(out[(i + j) % h], tower.mul(fi, tower.frob(gj, i)))
    return tuple(out)


def maps_equal(tower, coeffs_a, coeffs_b):
    return all(lin_eval(tower, coeffs_a, x) == lin_eval(tower, coeffs_b, x)
               for x in tower.elements())


def is_bijective(tower, coeffs):
    seen = {lin_eval(tower, coeffs, x) for x in tower.elements()}
    return len(seen) == tower.size


def conjugation_table(polys):
    """Coefficients of conj(f, b) = f o (bX) o f^(-1) for every f and b != 0.

    ``polys`` is a nonempty sequence of invertible polynomials over one
    tower.  Returns an int array of shape (len(polys), q^h - 1, h) whose
    entry [k, r] is the coefficient vector of conj(polys[k], omega^r).
    Coefficient l is sum_i C_f[l][i] b^(q^i) with C_f[l][i] =
    f_i (f^(-1))_{(l-i) mod h}^(q^i), each inverse the scalar ``inverse``
    of its polynomial, not the library's array kernel.
    """
    if not polys:
        raise ValueError("conjugation_table needs at least one polynomial")
    t = polys[0].tower
    h, n = t.h, t._group_order
    exp, log = t.np_tables()
    qpow = np.array(t._qpow, dtype=np.int64)
    lag = (np.arange(h)[:, None] - np.arange(h)[None, :]) % h
    fi = np.array([f.coeffs for f in polys], dtype=np.int64)[:, None, :]
    gi = np.array([f.inverse().coeffs for f in polys], dtype=np.int64)[:, lag]
    c_f = np.where((fi != 0) & (gi != 0), exp[(log[fi] + log[gi] * qpow % n) % n], 0)
    out = np.empty((len(polys), n, h), dtype=np.int64)
    for l in range(h):
        acc = t.power_terms(c_f[:, l, 0], qpow[0])
        for i in range(1, h):
            acc = t.add_arrays(acc, t.power_terms(c_f[:, l, i], qpow[i]))
        out[:, :, l] = acc
    return out


def lex_rows(tower, stop):
    """Coefficient rows of the polynomials 0..stop-1 in the lex order of
    ``all_linearized``: row index // size^(h-1-i) % size is coefficient i."""
    place = tower.size ** np.arange(tower.h - 1, -1, -1, dtype=np.int64)
    return np.arange(stop, dtype=np.int64)[:, None] // place % tower.size


def two_term_rows(tower, i, l):
    """Rows with nonzero c_i and c_l and every other coefficient zero, in lex
    order (c_i the slower, for i < l)."""
    nonzero = range(1, tower.size)
    rows = np.zeros(((tower.size - 1) ** 2, tower.h), dtype=np.int64)
    rows[:, [i, l]] = list(product(nonzero, nonzero))
    return rows


def two_nonzero_inverses(tower):
    """(f, f^(-1)) coefficient tuples of every invertible two-term row, in
    the two-nonzero battery's order: supports {i, l} in lex order, skipping
    those with gcd(l - i, h) > 1, each support's ``two_term_rows`` in turn.
    Invertibility is a nonzero Dickson determinant, and each inverse is the
    scalar ``inverse`` of its polynomial."""
    pairs = []
    for i, l in combinations(range(tower.h), 2):
        if gcd(l - i, tower.h) == 1:
            rows = two_term_rows(tower, i, l).tolist()
            polys = (LinearizedPoly(tower, tuple(row)) for row in rows)
            pairs += [(f.coeffs, f.inverse().coeffs) for f in polys if f.is_invertible()]
    return pairs


def gather_collapse_table(log_values, h):
    """collapsed[k, s]: log f_k(omega^(s+l)) - log f_k(omega^l) is the same
    for every l < h, from one (rows, n, h) gather of the shifted logs."""
    n = log_values.shape[1]
    shifted = (np.arange(n)[:, None] + np.arange(h)) % n  # [s, l] -> s + l
    ratios = (log_values[:, shifted] - log_values[:, None, :h]) % n
    return (ratios == ratios[..., :1]).all(axis=2)


# ---------------------------------------------------------------------------
# Gaussian elimination with one tower method call per entry

def scalar_mat_rref(tower, rows):
    """Reduced row echelon form and pivot columns."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        f = tower.inv(m[r][c])
        m[r] = [tower.mul(f, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                g = m[i][c]
                m[i] = [tower.sub(a, tower.mul(g, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def scalar_mat_det(tower, rows):
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
            g = tower.mul(f, m[i][c])
            m[i] = [tower.sub(a, tower.mul(g, b)) for a, b in zip(m[i], m[c])]
    return det


def scalar_mat_vec(tower, a, v):
    out = []
    for row in a:
        acc = 0
        for x, y in zip(row, v):
            acc = tower.add(acc, tower.mul(x, y))
        out.append(acc)
    return out


def scalar_mat_mul(tower, a, b):
    cols = [[row[j] for row in b] for j in range(len(b[0]) if b else 0)]
    return [scalar_mat_vec(tower, cols, row) for row in a]


# ---------------------------------------------------------------------------
# codes by brute force

def field_linear_rows(code):
    """Canonical F_{q^h}-basis of a field-linear code: the RREF of its
    generator over the big field."""
    if not code.is_field_linear():
        raise ValueError("code is not F_{q^h}-linear")
    red, pivots = scalar_mat_rref(code.tower, [list(r) for r in code.gen])
    return [tuple(r) for r in red[: len(pivots)]]


def brute_codewords(code):
    t = code.tower
    words = []
    for combo in product(t.fq_elements, repeat=code.k_fq):
        w = [0] * code.n
        for c, row in zip(combo, code.gen):
            if c:
                for j in range(code.n):
                    if row[j]:
                        w[j] = t.add(w[j], t.mul(c, row[j]))
        words.append(tuple(w))
    return words


def brute_min_distance(code):
    best = None
    for w in brute_codewords(code):
        wt = sum(1 for x in w if x)
        if wt and (best is None or wt < best):
            best = wt
    return best


def brute_weight_distribution(code):
    counts = [0] * (code.n + 1)
    for w in brute_codewords(code):
        counts[sum(1 for x in w if x)] += 1
    return counts


def level_rank_weight_distribution(tower, k, groups, max_ranks=None):
    """``code._rank_weight_distribution`` walked one level at a time: the
    deficient sets of size s - 1 are extended by every larger index and the
    sets of size s are ranked in one batch, so every level has its own
    kernel call.  Same set family, rank count and None as the library."""
    p = tower.p
    mat, members = _fp_blocks(tower, k, groups)
    K, n = mat.shape[0], len(groups)
    if max_ranks is not None and _sure_ranks(members, K) > max_ranks:
        return None
    blocks = np.zeros((n, K, max([len(m) for m in members] + [1])),
                      dtype=np.min_scalar_type(p * p - 1))
    for j, m in enumerate(members):
        blocks[j, :, :len(m)] = mat[:, m]
    inv = _inverses(p)
    excess = [p ** K - 1] + [0] * n  # sum of p^(K - r(S)) - 1 per size
    level = np.zeros((1 if K else 0, 0), dtype=np.int64)  # deficient sets of one size
    ranked = 0
    for s in range(1, n + 1):
        if not len(level):
            break
        last = level[:, -1] if s > 1 else np.full(len(level), -1)
        fan = n - 1 - last
        ranked += int(fan.sum())
        if max_ranks is not None and ranked > max_ranks:
            return None
        parent = np.repeat(np.arange(len(level)), fan)
        new = last[parent] + 1 + np.arange(len(parent)) - (np.cumsum(fan) - fan)[parent]
        sets = np.hstack([level[parent], new[:, None]])
        ranks = _subset_ranks(blocks, sets, p, inv)
        deficient = ranks < K
        level = sets[deficient]
        by_rank = np.bincount(ranks[deficient], minlength=K)
        excess[s] = sum(int(c) * (p ** (K - r) - 1) for r, c in enumerate(by_rank))
    b = [comb(n, s) + excess[s] for s in range(n + 1)]
    return [sum((-1) ** (s - j) * comb(s, j) * b[s] for s in range(j, n + 1))
            for j in range(n, -1, -1)], ranked


def brute_system_min_distance(system):
    """Least number of blocks a nonzero message does not annihilate."""
    t = system.tower
    best = None
    for m in product(t.fq_elements, repeat=system.dim):
        if not any(m):
            continue
        wt = 0
        for blk in system.blocks:
            for u in blk:
                acc = 0
                for mi, ui in zip(m, u):
                    acc = t.add(acc, t.mul(mi, ui))
                if acc:
                    wt += 1
                    break
        if best is None or wt < best:
            best = wt
    return best


def brute_is_pseudo_arc(system):
    """Every block has rank h and every dim/h of the blocks span F_q^dim."""
    t = system.tower
    k = system.dim // t.h
    if any(linalg.mat_rank(t, [list(u) for u in blk]) != t.h for blk in system.blocks):
        return False
    for subset in combinations(range(system.n), k):
        stacked = [list(u) for j in subset for u in system.blocks[j]]
        if linalg.mat_rank(t, stacked) != system.dim:
            return False
    return True


def span_avoidance_direct(g, beta, alpha):
    """For every x != 0, w(x)/x lies outside the F_q-span of {1, alpha},
    where w = g(beta g^{-1}(X)); checked pointwise."""
    t = g.tower
    w = g.conjugate(beta)
    span = {t.add(t.mul(l1, alpha), l2)
            for l1 in t.fq_elements for l2 in t.fq_elements}
    return all(t.mul(w(x), t.inv(x)) not in span for x in t.nonzero())


def lambda_screen(w, lams):
    """True when no x != 0 has w(x) = lam x for any lam in ``lams``: each
    w - lam X is invertible, by its Dickson determinant."""
    return all((w - LinearizedPoly.scalar(w.tower, lam)).is_invertible() for lam in lams)


def scalar_k4_search(tower, n):
    """(alpha, beta, g coefficients) of the first candidate in lex order
    passing the k = 4 MDS screen, or None: one Dickson determinant per
    w - lam X and candidate, over the whole g space."""
    base = base_mds_matrix(tower, 4, n)
    lambda_pairs, alpha_constraints = screen_conditions(tower, base)
    outside = [x for x in tower.elements() if not tower.in_fq(x)]
    for alpha in outside:
        if not _alpha_ok(tower, base, alpha, alpha_constraints):
            continue
        lams = _lambdas(tower, lambda_pairs, alpha)
        for beta in outside:
            s = gcd(tower.subfield_degree(alpha), tower.subfield_degree(beta))
            if s == 1:
                continue
            for coeffs in product(range(tower.size), repeat=tower.h):
                g = LinearizedPoly(tower, coeffs)
                if not g.is_invertible() or g.is_semilinear(s):
                    continue
                if lambda_screen(g.conjugate(beta), lams):
                    return alpha, beta, coeffs
    return None


def conjugation_subfield_degree(f):
    """The s with: conj(f, a) is scalar exactly for a in F_{q^s}.

    Equals gcd(h, all differences of support indices); divides h.
    """
    sup = f.support()
    if not sup:
        raise ValueError("zero polynomial")
    d = f.tower.h
    for i in sup[1:]:
        d = gcd(d, i - sup[0])
    return d


def brute_semilinear_report(tower):
    """The semilinear-criterion report from one conjugate per (f, a):
    f(a f^{-1}(X)) is scalar iff a lies in F_{q^s}, s from f's support."""
    checked = 0
    violations = []
    for f in invertible_linearized(tower):
        s = conjugation_subfield_degree(f)
        for a in tower.nonzero():
            checked += 1
            collapsed = not any(f.conjugate(a).coeffs[1:])
            predicted = tower.in_subfield(a, s)
            if collapsed != predicted:
                violations.append({
                    "f": [tower.digits(c) for c in f.coeffs],
                    "a": tower.digits(a),
                    "collapsed": collapsed,
                    "predicted": predicted,
                })
    return {
        "tower": tower.descriptor(),
        "pairs": checked,
        "violations": violations,
        "ok": not violations,
    }


def table_semilinear_report(tower):
    """The semilinear-criterion report from ``conjugation_table``: every
    conj(f, a) is computed, through f's inverse, and collapses when its
    coefficients 1..h-1 vanish."""
    polys = invertible_linearized(tower)
    n = tower.size - 1
    log_a = tower.np_tables()[1][1:]  # columns in the order a = 1, 2, ..., size - 1
    collapsed = ~conjugation_table(polys)[:, :, 1:].any(axis=2)[:, log_a]
    in_subfield = np.array([log_a * (tower.q ** s - 1) % n == 0 for s in range(1, tower.h + 1)])
    predicted = in_subfield[[conjugation_subfield_degree(f) - 1 for f in polys]]
    violations = [{
        "f": polys[k].to_json(),
        "a": tower.digits(int(j) + 1),
        "collapsed": bool(collapsed[k, j]),
        "predicted": bool(predicted[k, j]),
    } for k, j in zip(*np.nonzero(collapsed != predicted))]
    return {
        "tower": tower.descriptor(),
        "pairs": len(polys) * n,
        "violations": violations,
        "ok": not violations,
    }


def _standard_targets(code):
    """(standard form, move, target positions (r, j) with r, j >= 1)."""
    std, move = to_standard_form(code)
    form = to_interpolation_form(std)
    k, n = form.k, form.n
    return form, move, [(r, j) for r in range(1, n - k) for j in range(1, k)]


def _conjugating_witness(form, move, targets, g):
    """LinearWitness for g when g is invertible and every g^(-1) o M o g over
    the targets M is a scalar, else None."""
    if not g.is_invertible():
        return None
    ginv = g.inverse()
    scalars = [[1] * form.k for _ in range(form.n - form.k)]
    for r, j in targets:
        u = ginv.compose(form.maps[r][j]).compose(g)
        if any(u.coeffs[1:]):
            return None
        scalars[r][j] = u.coeffs[0]
    return LinearWitness(g, tuple(tuple(r) for r in scalars), move)


def brute_linear_witness(code):
    """The lex-first invertible g (g_0 = 1) with every g^(-1) o M o g scalar,
    over the standard-form maps M, as a LinearWitness; None when none is."""
    t = code.tower
    form, move, targets = _standard_targets(code)
    for rest in product(range(t.size), repeat=t.h - 1):
        wit = _conjugating_witness(form, move, targets, LinearizedPoly(t, (1,) + rest))
        if wit is not None:
            return wit
    return None


def compose_table(m, coeffs):
    """Coefficients of m o g for every row g of the int array ``coeffs``.

    ``coeffs`` has shape (rows, h) and holds field elements of m's tower;
    the result has the same shape, row r being ``m.compose(g_r).coeffs``.
    Coefficient l is sum_i m_i * g_{(l-i) mod h}^(q^i), each term one
    log-domain lookup on a whole column, with zero g entries masked (log[0]
    reads 0).  Work goes column by column to keep the temporaries small.
    """
    t = m.tower
    h, n = t.h, t._group_order
    exp, log = t.np_tables()
    g = np.asarray(coeffs, dtype=np.int64)
    if g.ndim != 2 or g.shape[1] != h:
        raise ValueError("compose_table needs an array of shape (rows, h)")
    log_g = log[g]
    out = np.zeros_like(g)
    for l in range(h):
        for i in m.support():
            j = (l - i) % h
            # m_i * g_j^(q^i); exp is doubled, so log m_i + (...) needs no mod
            log_term = t._log[m.coeffs[i]] + log_g[:, j] * t._qpow[i] % n
            term = np.where(g[:, j] != 0, exp[log_term], 0)
            out[:, l] = t.add_arrays(out[:, l], term)
    return out


def scan_linear_witness(code):
    """``brute_linear_witness`` by a batched scan, for towers where it is too
    slow (F_81/F_3 reads 81^3 candidates).

    The size^(h-1) g with g_0 = 1 go in lex-order blocks of 4096 rows
    through one numpy screen per target M: u = M o g (``compose_table``)
    must have u_l = g_l a^(q^l) for l >= 1, a = u_0.  The survivors, in lex
    order, are checked like the brute oracle's candidates.
    """
    t = code.tower
    h, n = t.h, t._group_order
    exp, log = t.np_tables()
    form, move, targets = _standard_targets(code)
    total = t.size ** (h - 1)
    place = t.size ** np.arange(h - 2, -1, -1, dtype=np.int64)
    qpow = np.array(t._qpow[1:], dtype=np.int64)
    step = 1 << 12
    for lo in range(0, total, step):
        index = np.arange(lo, min(lo + step, total), dtype=np.int64)[:, None]
        block = np.hstack([np.ones_like(index), index // place % t.size])
        for r, j in targets:
            u = compose_table(form.maps[r][j], block)
            a, g = u[:, :1], block[:, 1:]
            rhs = np.where((a != 0) & (g != 0), exp[log[g] + log[a] * qpow % n], 0)
            block = block[(u[:, 1:] == rhs).all(axis=1)]
        for row in block.tolist():
            wit = _conjugating_witness(form, move, targets, LinearizedPoly(t, tuple(row)))
            if wit is not None:
                return wit
    return None


# ---------------------------------------------------------------------------
# conjugacy triples by pointwise comparison

def brute_triples(tower, f_coeffs, g_coeffs, f_inv_coeffs, g_inv_coeffs):
    out = []
    for a in tower.nonzero():
        for b in tower.nonzero():
            for c in tower.nonzero():
                ok = True
                for x in tower.elements():
                    lhs = tower.mul(a, lin_eval(tower, f_coeffs,
                                    tower.mul(b, lin_eval(tower, f_inv_coeffs, x))))
                    rhs = lin_eval(tower, g_coeffs,
                                   tower.mul(c, lin_eval(tower, g_inv_coeffs, x)))
                    if lhs != rhs:
                        ok = False
                        break
                if ok:
                    out.append((a, b, c))
    return out


def brute_max_matching(triples):
    """Largest subset of ``triples`` pairwise distinct in every coordinate.

    Tries every size r from the number of distinct values in the sparsest
    coordinate (no subset can be larger) down, walking r-subsets in
    combinations order and abandoning a prefix that already repeats a value.
    """
    triples = list(triples)
    if not triples:
        return 0
    cap = min(len({t[k] for t in triples}) for k in range(3))

    def extend(start, chosen, r):
        if len(chosen) == r:
            return True
        for i in range(start, len(triples) - (r - len(chosen)) + 1):
            t = triples[i]
            if all(t[k] != u[k] for u in chosen for k in range(3)):
                if extend(i + 1, chosen + [t], r):
                    return True
        return False

    return next(r for r in range(cap, 0, -1) if extend(0, [], r))


def recursive_exact_matching(triples, limit=None):
    """``propm._exact_matching`` as one recursive call per level: the same
    levels, order, bound and stop, so the same set, but its depth is bounded
    by Python's recursion limit."""
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


def exhaustive_max_prop_m(f, g):
    """(m, witness triples) of ``max_prop_m`` searched for this pair alone.

    ``prop_triples``, then the exact matching, then the retry with (1,1,1)
    forced, with no memo of scores or orbits in between.
    """
    def by_bc(tr):
        return tr[1], tr[2]

    triples = prop_triples(f, g)
    picked = sorted(_exact_matching(triples), key=by_bc)
    m = len(picked)
    one = (1, 1, 1)
    if one in picked:
        return m, tuple([one] + [tr for tr in picked if tr != one])
    rest = [tr for tr in triples if 1 not in tr]
    forced = sorted(_exact_matching(rest), key=by_bc)
    if 1 + len(forced) >= m:
        return 1 + len(forced), tuple([one] + forced)
    return m, tuple(picked)


def brute_orbit_key(f, g):
    """The lex-least pair (lam*f(mu X), lam*g(nu X)) over all nonzero lam, mu
    and nu, each coefficient lam * c_j * mu^(q^j) by powering."""
    t = f.tower
    nonzero = list(t.nonzero())

    def forms(poly, lam):
        return [tuple(t.mul(lam, t.mul(c, t.pow_int(mu, t.q ** j)))
                      for j, c in enumerate(poly.coeffs)) for mu in nonzero]

    return min(min(product(forms(f, lam), forms(g, lam))) for lam in nonzero)


def scalar_normal_forms(f):
    """(forms, least) of ``propm._normal_forms`` by one loop over lam:
    forms[k] is lam*f(mu X) for the k-th nonzero lam, mu = (lam*f_i0)^(-1)
    raised to q^(h - i0) so that coefficient i0 is 1, each coefficient by
    scalar products; least lists the k where the lex-least form occurs."""
    t = f.tower
    i0 = f.support()[0]
    forms = []
    for lam in t.nonzero():
        mu = t.frob(t.inv(t.mul(lam, f.coeffs[i0])), t.h - i0)
        forms.append(tuple(t.mul(lam, t.mul(c, t.frob(mu, j))) for j, c in enumerate(f.coeffs)))
    least = min(forms)
    return tuple(forms), tuple(k for k, form in enumerate(forms) if form == least)


def scalar_class_checks(tower, tables, triples, rows, cols):
    """(holds, cert) of ``propm._class_checks`` pair by pair and coefficient
    by coefficient: a*table[I][b - 1] == table[J][c - 1] by scalar products
    on the conj table (holds, over all pairs) and on the prod table with
    frob[b - 1] (cert, per pair), for the triples with nonzero entries."""
    conj, prod, frob = (table.tolist() for table in tables)

    def scaled_equal(table, triple, i, j):
        a, b, c = triple
        return [tower.mul(a, x) for x in table[i][b - 1]] == table[j][c - 1]

    nonzero = [(idx, tr) for idx, tr in enumerate(triples) if all(tr)]
    pairs = list(zip(rows, cols))
    holds = {idx: all(scaled_equal(conj, tr, i, j) for i, j in pairs) for idx, tr in nonzero}
    cert = [all(scaled_equal(prod, tr, i, j) and frob[tr[1] - 1] for _idx, tr in nonzero)
            for i, j in pairs]
    return holds, cert


def pairwise_zero_coeff_lemma(tower):
    """``verify_zero_coeff_lemma`` one pair at a time: each pair's witness
    from ``max_prop_m`` (a validated ``PropWitness``) and its own
    ``ZeroCoeffCertificate``, built and validated.  No pair limit."""
    inv_polys = invertible_linearized(tower)
    bound = zero_coeff_bound(tower)
    records = []
    qualifying = 0
    violations = []
    max_m = 0
    rows = [(twist_to_nonzero_f0(f)[0], f.to_json(), f.zero_coeff_count()) for f in inv_polys]
    for fn, fj, zf in rows:
        for gn, gj, zg in rows:
            m, witness = max_prop_m(fn, gn)
            max_m = max(max_m, m)
            cert_ok = build_zero_coeff_certificate(fn, gn, witness.triples).validate()
            record = {"f": fj, "g": gj, "m": m, "zero_counts": [zf, zg],
                      "certificate_ok": cert_ok}
            records.append(record)
            if m > bound:
                qualifying += 1
                if not (zf == zg >= 1):
                    violations.append(record)
            if not cert_ok:
                violations.append(record)
    return {
        "tower": tower.descriptor(),
        "bound": bound,
        "pairs": len(inv_polys) ** 2,
        "qualifying_pairs": qualifying,
        "max_m": max_m,
        "violations": violations,
        "ok": not violations,
        "records": records,
    }


def _twisted_pairs(tower):
    """(twisted f, twisted g, f's JSON, g's JSON) for every pair of invertible
    polynomials, row-major, with the twisted polynomials as the battery's."""
    rows = [(twist_to_nonzero_f0(f)[0], f.to_json()) for f in invertible_linearized(tower)]
    return [(fn, gn, fj, gj) for fn, fj in rows for gn, gj in rows]


def class_zero_coeff_report(tower, per_pair):
    """The class report of ``verify_zero_coeff_lemma`` from a per-pair report
    such as ``pairwise_zero_coeff_lemma``'s: its records grouped by
    ``_orbit_key`` of the twisted pair, one record per class in the order of
    the class's first pair, whose f and g it names.  Every member must carry
    the class's score and zero counts; the class's certificate holds iff
    every member's does."""
    groups = {}
    for (fn, gn, _fj, _gj), rec in zip(_twisted_pairs(tower), per_pair["records"]):
        groups.setdefault(_orbit_key(fn, gn), []).append(rec)
    classes = []
    for recs in groups.values():
        first = recs[0]
        assert all((r["m"], r["zero_counts"]) == (first["m"], first["zero_counts"]) for r in recs)
        classes.append({"f": first["f"], "g": first["g"], "pairs": len(recs), "m": first["m"],
                        "zero_counts": first["zero_counts"],
                        "certificate_ok": all(r["certificate_ok"] for r in recs)})
    report = {key: value for key, value in per_pair.items() if key != "records"}
    report["classes"] = classes
    return report


def per_pair_zero_coeff_report(tower, report):
    """The per-pair report of ``pairwise_zero_coeff_lemma``'s shape rebuilt
    from the class report of ``verify_zero_coeff_lemma``: each pair, in
    row-major order, takes its class's score and zero counts, the class
    found by ``_orbit_key``, and its certificate flag from the violations:
    false iff a violation names the pair with a failed certificate.

    The rebuild checks what it reads: a class's first pair is the first
    pair of its key in row-major order, the classes come in that order, each
    class has exactly ``pairs`` members, and its certificate holds iff no
    member's fails."""
    classes = iter(report["classes"])
    by_key, members = {}, {}
    failed = {(repr(r["f"]), repr(r["g"])) for r in report["violations"] if not r["certificate_ok"]}
    records = []
    for fn, gn, fj, gj in _twisted_pairs(tower):
        key = _orbit_key(fn, gn)
        if key not in by_key:
            by_key[key] = next(classes)
            assert (by_key[key]["f"], by_key[key]["g"]) == (fj, gj)
        cls = by_key[key]
        cert_ok = (repr(fj), repr(gj)) not in failed
        count, all_ok = members.get(key, (0, True))
        members[key] = count + 1, all_ok and cert_ok
        records.append({"f": fj, "g": gj, "m": cls["m"], "zero_counts": cls["zero_counts"],
                        "certificate_ok": cert_ok})
    assert next(classes, None) is None
    assert all(members[key] == (cls["pairs"], cls["certificate_ok"]) for key, cls in by_key.items())
    rebuilt = {key: value for key, value in report.items() if key != "classes"}
    rebuilt["records"] = records
    return rebuilt

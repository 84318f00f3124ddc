"""Hunt for k = 4 additive MDS codes that are not equivalent to linear codes.

The construction: start from a linear [n, 4, n-3] MDS generator over F_q in
the normalized shape (identity block, all-ones column, remaining columns
with first entry 1), lift it to F_{q^h}, then replace the last column's
row-2 entry by a field element alpha outside F_q and its row-3 action by
the conjugate map w = g(beta g^{-1}(X)) for another outside element beta
and an invertible non-semi-linear g.  Two projections of the result are
equivalent to linear codes by construction; the whole code is not, as an
exhaustive witness search certifies.

The only open condition is MDS.  A nonzero codeword with k zeros must
vanish on the modified column plus 3 of the others; eliminating the first
three message variables through the base matrix leaves one equation per
3-subset, of the form w(x) = (lambda_1 alpha + lambda_2) x with both
lambdas in F_q determined by the subset's kernel vector (subsets whose
kernel vector has last entry zero impose no condition beyond alpha lying
outside F_q).  With x = g(y), w(x) = lam x for some x != 0 exactly when
g(beta y) = lam g(y) for some y != 0, so the search screens every g of a
lex block at once from its value table: g passes when the block's row
has no zero (invertible), its support spans more than one residue class
mod s (not semi-linear), and no ratio g(beta y)/g(y) lies in the set
L_alpha of lambdas.  The first hit is MDS by construction;
``K4Example`` validates it again through ``mds_screen`` (the same ratio
test on g's one value row), and the weight-distribution check in
``verify_k4_example`` is a confirmation, not a filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

import numpy as np

from . import linalg
from .code import (
    AdditiveCode,
    _charge,
    _rows_from_maps,
    apply_move,
    code_from_dict,
    code_to_dict,
    is_mds,
    linear_equivalence_witness,
    min_distance,
    project,
)
from .errors import FieldTooSmall, NotInvertible
from .gf import FieldTower, require_keys
from .linpoly import LinearizedPoly, evaluation_table, support_degrees, value_grid


# ---------------------------------------------------------------------------
# length bounds for linear MDS codes

def nq_bounds(q: int, k: int):
    """(lower, upper) for the maximum length of a k-dimensional linear MDS code."""
    if k < 2:
        raise ValueError("bounds are recorded for k >= 2 only")
    if k >= q:
        return (k + 1, k + 1)
    return (q + 1, q + k - 1)


def largest_proper_divisor(h: int) -> int:
    for d in range(h // 2, 0, -1):
        if h % d == 0:
            return d
    return 1


# ---------------------------------------------------------------------------
# base matrix

def base_mds_matrix(tower: FieldTower, k: int = 4, n: int = 6):
    """Normalized [n, k, n-k+1] MDS generator with entries in F_q.

    Vandermonde rows over the F_q points (plus the point at infinity when
    n = q + 1), reduced to the shape (identity | all-ones | columns with
    first entry 1).  MDS is confirmed by full message enumeration.
    """
    q = tower.q
    if q < 5:
        raise FieldTooSmall(f"need q >= 5, got q = {q}")
    if n > q + 1:
        raise FieldTooSmall(f"need n <= q + 1 = {q + 1} for the base code")
    if not (k < n):
        raise ValueError("need k < n")
    fq = tower.fq_elements
    points = list(fq[:min(n, q)])
    rows = [[tower.pow_int(x, i) for x in points] for i in range(k)]
    if n == q + 1:
        for i in range(k):
            rows[i].append(1 if i == k - 1 else 0)
    red, pivots = linalg.mat_rref(tower, rows)
    if list(pivots) != list(range(k)):
        raise AssertionError("unexpected pivot pattern for a Vandermonde matrix")
    # make column k all ones, restore the identity block, then set row 0 of
    # the remaining columns to 1; all three are weight-preserving moves
    out = [list(r) for r in red]
    for i in range(k):
        out[i] = tower.scale(tower.inv(out[i][k]), out[i])
        out[i][i] = 1
    for j in range(k + 1, n):
        d = tower.inv(out[0][j])
        for i in range(k):
            out[i][j] = tower.mul(d, out[i][j])
    if min_distance(AdditiveCode(tower, out, check=False)) < n - k + 1:
        raise AssertionError("base matrix is not MDS")
    return tuple(tuple(r) for r in out)


# ---------------------------------------------------------------------------
# the MDS screen

def screen_conditions(tower: FieldTower, base):
    """Per-3-subset elimination data for the modified last column.

    Returns (lambda_pairs, alpha_constraints): lambda_pairs are the distinct
    (lambda_1, lambda_2) in F_q^2 for subsets whose kernel vector has a
    nonzero last entry; alpha_constraints are (v0, v1, v2) triples for the
    rest, which demand base[0][-1]*v0 + base[1][-1]*v1 + alpha*v2 != 0.
    Both are tuples, memoised on the tower by the base's rows, so that
    ``K4Example`` does not derive them again for the base the search has
    just screened, and no caller can change them.
    """
    base = tuple(map(tuple, base))
    memo = tower.memo("screen_conditions")
    if base not in memo:
        memo[base] = _screen_conditions(tower, base)
    return memo[base]


def _screen_conditions(tower: FieldTower, base):
    k = len(base)
    n = len(base[0])
    lambda_pairs = []
    alpha_constraints = []
    c0, c1 = base[0][n - 1], base[1][n - 1]
    for subset in combinations(range(n - 1), 3):
        mat = [[base[i][j] for j in subset] for i in range(k)]
        kernel = linalg.left_nullspace(tower, mat)
        if len(kernel) != 1:
            raise ValueError("three columns of an MDS generator must be independent")
        v = kernel[0]
        if v[3]:
            v = tower.scale(tower.inv(v[3]), v)
            lam1 = tower.neg(v[2])
            lam2 = tower.neg(tower.add(tower.mul(c0, v[0]), tower.mul(c1, v[1])))
            if (lam1, lam2) not in lambda_pairs:
                lambda_pairs.append((lam1, lam2))
        else:
            trip = (v[0], v[1], v[2])
            if trip not in alpha_constraints:
                alpha_constraints.append(trip)
    return tuple(lambda_pairs), tuple(alpha_constraints)


def _alpha_ok(tower, base, alpha, alpha_constraints):
    n = len(base[0])
    c0, c1 = base[0][n - 1], base[1][n - 1]
    for v0, v1, v2 in alpha_constraints:
        acc = tower.add(tower.mul(c0, v0), tower.mul(c1, v1))
        acc = tower.add(acc, tower.mul(alpha, v2))
        if acc == 0:
            return False
    return True


def _lambdas(tower, lambda_pairs, alpha):
    return [tower.add(tower.mul(lam1, alpha), lam2) for lam1, lam2 in lambda_pairs]


def _log_mask(tower, lams):
    """Bool array over logs, set at log lam for every nonzero lam in ``lams``;
    lam = 0 never equals a ratio of nonzero values."""
    in_l = np.zeros(tower._group_order, dtype=bool)
    in_l[[tower._log[lam] for lam in lams if lam]] = True
    return in_l


def _ratios_avoid(tower, values, beta, in_l):
    """Per row g of the value table ``values``: no ratio g(beta y)/g(y),
    y != 0, has its log set in ``in_l``.  Column r is y = omega^r, so beta y
    sits at column r + log beta.  Meaningful for rows with no zero only."""
    order = tower._group_order
    log_v = tower.np_tables()[1][values]
    shifted = (np.arange(order) + tower._log[beta]) % order
    return ~in_l[(log_v[:, shifted] - log_v) % order].any(axis=1)


def mds_screen(tower: FieldTower, base, alpha: int, beta: int, g: LinearizedPoly) -> bool:
    """Exact MDS test for the assembled code, via the elimination equations:
    alpha passes its constraints and no ratio g(beta y)/g(y), y != 0, lies
    in L_alpha.  Raises NotInvertible when g's value row has a zero."""
    lambda_pairs, alpha_constraints = screen_conditions(tower, base)
    if not _alpha_ok(tower, base, alpha, alpha_constraints):
        return False
    values = evaluation_table(tower, [g.coeffs])
    if not values.all():
        raise NotInvertible(f"no compositional inverse: {g.coeffs}")
    in_l = _log_mask(tower, _lambdas(tower, lambda_pairs, alpha))
    return bool(_ratios_avoid(tower, values, beta, in_l)[0])


# ---------------------------------------------------------------------------
# example container

@dataclass(frozen=True)
class K4Example:
    tower: FieldTower
    base: tuple
    alpha: int
    beta: int
    g: LinearizedPoly
    code: AdditiveCode

    def __post_init__(self):
        t = self.tower
        if t.q < 5:
            raise FieldTooSmall("construction requires q >= 5")
        if t.in_fq(self.alpha) or t.in_fq(self.beta):
            raise ValueError("alpha and beta must lie outside F_q")
        s = self.intersection_degree()
        if s == 1:
            raise ValueError("F_q(alpha) and F_q(beta) must share more than F_q")
        if not self.g.is_invertible():
            raise ValueError("g must be invertible")
        if self.g.is_semilinear(s):
            raise ValueError(f"g must not be semi-linear over the degree-{s} subfield")
        if not mds_screen(t, self.base, self.alpha, self.beta, self.g):
            raise ValueError("candidate fails the MDS elimination conditions")

    def intersection_degree(self) -> int:
        t = self.tower
        return gcd(t.subfield_degree(self.alpha), t.subfield_degree(self.beta))

    @classmethod
    def build(cls, tower, base, alpha, beta, g):
        return cls(tower, tuple(tuple(r) for r in base), alpha, beta, g,
                   assemble_code(tower, base, alpha, beta, g))


def assemble_code(tower: FieldTower, base, alpha: int, beta: int, g: LinearizedPoly) -> AdditiveCode:
    """Rows of the map grid of the modified matrix (``code._rows_from_maps``).

    The last column's row-2 map is alpha X and its row-3 map is the
    conjugate w = g(beta g^{-1}(X)); every other map is the base matrix's
    scalar, so row (i, l) is omega^l * (row i of the base matrix) there.
    """
    grid = [[LinearizedPoly.scalar(tower, x) for x in row] for row in base]
    grid[2][-1] = LinearizedPoly.scalar(tower, alpha)
    grid[3][-1] = g.conjugate(beta)
    return AdditiveCode(tower, _rows_from_maps(tower, grid), n=len(base[0]))


# ---------------------------------------------------------------------------
# the search

def _candidate_alphas(tower):
    return [x for x in tower.elements() if not tower.in_fq(x)]


def k4_example_search(tower: FieldTower, n: int = 6, budget: int | None = None):
    """First (alpha, beta, g) in lex order passing the MDS screen, or None.

    For an invertible g, w = g(beta g^{-1}(X)) has w(x) = lam x with
    x = g(y) exactly when g(beta y) = lam g(y), so g passes when no ratio
    g(beta y)/g(y), y != 0, lies in L_alpha (the lambdas of alpha).  Each
    (alpha, beta) screens the g space in the lex blocks of one
    ``value_grid`` (``_first_hit``), the ratio test and the log mask of
    L_alpha shared with ``mds_screen``.  Every alpha outside F_q meets the
    alpha constraints of ``screen_conditions``, so they are not tested:
    alpha v2 lies outside F_q when v2 != 0, and for v2 = 0 the sum is an
    entry of a base codeword with 3 zeros, nonzero as the base is MDS.
    The budget is charged, before any work, the most g the scans can read:
    2 size^(h-1) per (alpha, beta).  None is returned only after the
    whole space is exhausted.
    """
    base = base_mds_matrix(tower, 4, n)
    outside = _candidate_alphas(tower)
    space = len(outside) ** 2 * 2 * tower.size ** (tower.h - 1)
    _charge(space, "candidates", budget)
    lambda_pairs = screen_conditions(tower, base)[0]
    for alpha in outside:
        d_alpha = tower.subfield_degree(alpha)
        in_l = _log_mask(tower, _lambdas(tower, lambda_pairs, alpha))
        for beta in outside:
            s = gcd(d_alpha, tower.subfield_degree(beta))
            if s == 1:
                continue
            g = _first_hit(tower, s, beta, in_l)
            if g is not None:
                return K4Example.build(tower, base, alpha, beta, g)
    return None


def _first_hit(tower: FieldTower, s: int, beta: int, in_l):
    """First g in lex order that is invertible, not semi-linear over F_{q^s}
    and has no ratio g(beta y)/g(y), y != 0, whose log is set in ``in_l``.

    Scaling g by c != 0 keeps all three conditions, and a g with g_0 >= 2
    has the earlier multiple g / g_0, so the first hit has g_0 <= 1: the
    scan is the ``value_grid`` of g_0 in {0, 1} and every other coefficient
    in F_{q^h}, 2 size^(h-1) polynomials in lex order, and it stops at the
    first block with a hit.
    """
    for block, values in value_grid(tower, [(0, 1)] + [range(tower.size)] * (tower.h - 1)):
        ok = ((values != 0).all(axis=1) & (support_degrees(block, tower.h) % s != 0)
              & _ratios_avoid(tower, values, beta, in_l))
        hits = np.flatnonzero(ok)
        if hits.size:
            return LinearizedPoly(tower, tuple(block[hits[0]].tolist()))
    return None


# ---------------------------------------------------------------------------
# verification

def verify_k4_example(ex: K4Example, codeword_budget: int | None = None,
                      candidate_budget: int | None = None) -> dict:
    """Full confirmation: MDS from the weight distribution, two
    linearizable projections, and an exhaustive negative witness search
    for the code itself."""
    t = ex.tower
    code = ex.code
    n = code.n
    k = code.message_length()

    mds_ok = is_mds(code, codeword_budget)

    proj_linear = project(code, {3})
    wit_linear = linear_equivalence_witness(proj_linear, candidate_budget)
    already_linear = proj_linear.is_field_linear()

    proj_alpha = project(code, {2})
    wit_alpha = linear_equivalence_witness(proj_alpha, candidate_budget)
    alpha_proj_ok = wit_alpha is not None
    if alpha_proj_ok:
        moved = apply_move(proj_alpha, wit_alpha.linearizing_move())
        alpha_proj_ok = moved.is_field_linear()

    wit_full = linear_equivalence_witness(code, candidate_budget)

    merged = 2  # both modified positions projected away in the theorem setting
    residual = k - merged
    lo, hi = nq_bounds(t.q, residual)
    e = largest_proper_divisor(t.h)
    context = {
        "n": n,
        "projected_positions": [2, 3],
        "merged_size": merged,
        "residual_k": residual,
        "nq_bounds_residual": [lo, hi],
        "theorem_requires_n_above": merged + lo,
        "theorem_hypothesis_met": n > merged + lo,
        "largest_proper_divisor_of_h": e,
        "simplified_threshold_qe_plus_k": t.q ** e + k,
        "n_exceeds_simplified_threshold": n > t.q ** e + k,
    }

    assertions = {
        "is_mds": bool(mds_ok),
        "projection_from_3_linearizable": wit_linear is not None and already_linear,
        "projection_from_2_linearizable": bool(alpha_proj_ok),
        "code_not_linearizable": wit_full is None,
    }
    return {
        "assertions": assertions,
        "ok": all(assertions.values()),
        "witness_g_for_projection_2": wit_alpha.g.to_json() if wit_alpha else None,
        "witness_g_for_projection_3": wit_linear.g.to_json() if wit_linear else None,
        "context": context,
    }


# ---------------------------------------------------------------------------
# serialization

def example_to_dict(ex: K4Example) -> dict:
    t = ex.tower
    return {
        "field": t.descriptor(),
        "n": ex.code.n,
        "base": [[t.digits(x) for x in row] for row in ex.base],
        "alpha": t.digits(ex.alpha),
        "beta": t.digits(ex.beta),
        "g": ex.g.to_json(),
        "code": code_to_dict(ex.code),
    }


def example_from_dict(data: dict, tower: FieldTower | None = None) -> K4Example:
    """Inverse of ``example_to_dict``; ValueError naming missing keys."""
    keys = ("base", "alpha", "beta", "g", "code") + (("field",) if tower is None else ())
    require_keys(data, keys, "example JSON", nested=("base", "g"))
    lengths = {len(row) for row in data["base"]}
    if len(data["base"]) != 4 or len(lengths) != 1 or min(lengths) < 5:
        raise ValueError("example JSON base must be 4 rows of one length n >= 5")
    t = tower if tower is not None else FieldTower.from_descriptor(data["field"])
    base = tuple(tuple(t.from_digits(d) for d in row) for row in data["base"])
    alpha = t.from_digits(data["alpha"])
    beta = t.from_digits(data["beta"])
    g = LinearizedPoly(t, tuple(t.from_digits(d) for d in data["g"]))
    ex = K4Example.build(t, base, alpha, beta, g)
    stored = code_from_dict(data["code"], t)
    if stored.gen != ex.code.gen:
        raise ValueError("stored generator disagrees with the assembled code")
    return ex

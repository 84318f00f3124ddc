"""Additive codes over F_{q^h}: F_q-linear subspaces of F_{q^h}^n.

A code is held as a generator matrix whose k_fq rows are F_q-independent
vectors over F_{q^h}; the code is the set of F_q-combinations of the rows,
so |C| = q^k_fq.  The stored row basis is preserved exactly (several
constructions rely on a structured basis); equality of codes compares the
canonical reduced row echelon form of the F_q-coordinate expansion.
Constructions give a k x n grid of F_q-linear maps M_ij, whose rows
``_rows_from_maps`` writes out, and F_q coordinates turn back into rows
only through ``_rows_from_expansion``.

Distance work reads one weight distribution A_0..A_n per code or system
(the systems of ``geometry`` too), computed once under a hard codeword
budget from the same F_p matrix of the coordinates, by one of two numpy
routes that give the same list.  The rank route sums p^(K - rank) over the
rank-deficient coordinate sets and inverts; it runs when it needs at most
q^k / ``_RANK_COST`` subset ranks.  Otherwise the q^k messages are
enumerated.  The budget charges the route that runs: q^k messages, or
``_RANK_COST`` per rank of the walk.  So d, A_0..A_n and MDS cost one
distribution, and for an MDS code with large q^k that is
sum_(s <= k) C(n, s) small F_p ranks, taken in one padded batch: a set
whose prefix has fewer than K = k*e F_p columns is sure to be ranked, so
those sets are known before any rank.

Equivalence moves are coordinate permutations combined with per-coordinate
invertible q-linearized substitutions; they preserve cardinality and weight
distribution.  ``linear_equivalence_witness`` decides, for an MDS code,
whether some move turns it into an F_{q^h}-linear code: in standard form,
whether one g has M o g = g o (aX), with a scalar a per map, for every
interpolation map M.  The code is interpolated once per decision, each
interpolation map is checked for invertibility once, and the standard
form's maps are composed from that interpolation and the move.
It returns an explicit witness or a definitive negative (the invertible g
with g_0 = 1 are a complete set of representatives, so "None" is a
certificate, not a timeout).  S o g = g o (aX) iff u = (g_0, g_(h-1)^q,
..., g_1^(q^(h-1))), column 0 of the Dickson matrix D(g), is an
eigenvector of D(S) for a, since D(f o g) = D(f) D(g) and D(aX) =
diag(a^(q^i)).  So the candidates lie in the spaces of common eigenvectors
of the maps' Dickson matrices, one per tuple of eigenvalues, refined map by
map.  A space E whose eigenvalues generate F_{q^s} holds an invertible g
iff dim E = h/s, and the others are dropped.  A line gives at most one g
with g_0 = 1; a larger space is walked in lex order of g until a g is
invertible, and only that walk is charged to the candidate budget.

A decision takes one of two routes, chosen from n and k before the code
is interpolated, that give the same form, move, witness and errors.  A
code with fewer than ``_ARRAY_MAPS`` interpolation maps, (n - k) k, is
decided one ``LinearizedPoly`` at a time: a scalar ``inverse`` per map of
row and column 0, a Dickson determinant per other map, and ``compose``
per target and candidate.  A longer one is decided on int arrays of
coefficient rows: the interpolation is one small scalar product and one
log-domain array product, one ``linpoly.dickson_inverses`` over all maps
flags the singular ones and inverts them, and the standard form and each
candidate's check against all targets are batched ``compose_rows``.
``_ARRAY_MAPS`` is set from measurement, as ``_RANK_COST`` is.  On k = 2
RS codes (medians of 15 decisions on fresh towers, 2-core Xeon) the
array route took 0.5-0.7 ms plus 3-5 us per map and the scalar one
22-34 us per map.  The array route took 0.89-1.07 of the scalar time at
16 maps on F_9, F_25, F_27, F_49 and F_64/F_4, and 0.76-0.91 at 20 maps
on the four that have codes that long.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import comb, lcm

import numpy as np

from . import linalg
from .errors import BudgetExceeded, NonInvertibleMap, NotInvertible, NotMds
from .gf import FieldTower, _inverses, _is_int, _stack_ranks, require_keys
from .linpoly import LinearizedPoly, compose_rows, dickson_inverses, random_invertible

DEFAULT_CODEWORD_BUDGET = 1 << 24
DEFAULT_CANDIDATE_BUDGET = 1 << 22


def _charge(count: int, what: str, budget: int | None):
    """BudgetExceeded when count > budget (None: DEFAULT_CANDIDATE_BUDGET at the call)."""
    cap = DEFAULT_CANDIDATE_BUDGET if budget is None else budget
    if count > cap:
        raise BudgetExceeded(f"{count} {what} exceed budget {cap}")


class AdditiveCode:
    def __init__(self, tower: FieldTower, rows, n: int | None = None, check: bool = True):
        rows = tuple(tuple(r) for r in rows)
        if n is not None and n < 0:
            raise ValueError(f"code length n = {n} is negative")
        if rows:
            n = len(rows[0])
            if any(len(r) != n for r in rows):
                raise ValueError("ragged generator matrix")
        elif n is None:
            raise ValueError("zero code needs an explicit length")
        self.tower = tower
        self.gen = rows
        self.n = n
        self.k_fq = len(rows)
        self._cache = {}
        if check and rows:
            if linalg.mat_rank(tower, self.expansion()) != self.k_fq:
                raise ValueError("generator rows are not F_q-independent")

    # -- representations ------------------------------------------------------

    def expansion(self):
        """k_fq x (n*h) matrix of omega-basis coordinates, entries in F_q."""
        if "expansion" not in self._cache:
            t = self.tower
            self._cache["expansion"] = [
                [c for x in row for c in t.coords(x)] for row in self.gen
            ]
        return self._cache["expansion"]

    def canonical_rows(self):
        """Basis-independent generator: RREF over F_q of the expansion."""
        if "canonical" not in self._cache:
            red, _ = linalg.mat_rref(self.tower, self.expansion())
            self._cache["canonical"] = _rows_from_expansion(self.tower, self.n, red)
        return self._cache["canonical"]

    def __eq__(self, other):
        return (isinstance(other, AdditiveCode)
                and self.tower.key == other.tower.key
                and self.n == other.n
                and self.canonical_rows() == other.canonical_rows())

    def __hash__(self):
        return hash((self.tower.key, self.n, self.canonical_rows()))

    def __repr__(self):
        return f"AdditiveCode(n={self.n}, k_fq={self.k_fq}, q^h={self.tower.size})"

    def message_length(self) -> int:
        """k with k_fq = h*k; raises NotMds when h does not divide k_fq."""
        if self.k_fq % self.tower.h:
            raise NotMds(f"h = {self.tower.h} does not divide k_fq = {self.k_fq}")
        return self.k_fq // self.tower.h

    def is_field_linear(self) -> bool:
        """True iff the code is closed under multiplication by omega: the
        expansion stacked with that of the omega-multiples of its rows has
        F_q rank k_fq."""
        t = self.tower
        moved = [[c for x in t.scale(t.omega, row) for c in t.coords(x)] for row in self.gen]
        return linalg.mat_rank(t, self.expansion() + moved) == self.k_fq


def _rows_from_maps(tower: FieldTower, maps):
    """Generator rows of the k x n grid ``maps`` of LinearizedPolys, the code
    {(sum_i M_ij(x_i))_j : x in F_{q^h}^k}: row (i, l) is (M_ij(omega^l))_j.

    M(omega^l) = sum_t c_t omega^(l q^t), so one ``accumulate`` call per grid
    row i gives the values of all its maps at all h basis points, as in
    ``compose``; entry l*n + j of its output is M_ij(omega^l)."""
    h, order, log, qpow = tower.h, tower._group_order, tower._log, tower._qpow
    rows = []
    for row in maps:
        n = len(row)
        values = tower.accumulate([0] * (h * n), [(l * n + j, log[c] + l * qt % order)
                                                  for j, m in enumerate(row)
                                                  for c, qt in zip(m.coeffs, qpow) if c
                                                  for l in range(h)])
        rows += [tuple(values[l * n:(l + 1) * n]) for l in range(h)]
    return tuple(rows)


def _rows_from_expansion(tower: FieldTower, n: int, exp_rows):
    """Rows of length n over F_{q^h} from their F_q coordinates; inverse of
    ``AdditiveCode.expansion``."""
    h = tower.h
    return tuple(tuple(tower.from_coords(row[j * h:(j + 1) * h]) for j in range(n))
                 for row in exp_rows)


# ---------------------------------------------------------------------------
# weight distributions

_CELLS = 1 << 20  # cap on entries (messages x F_p columns, or rank stack) per numpy block
_RANK_COST = 400  # messages the enumeration kernel covers in the time of one subset rank
_ARRAY_MAPS = 20  # interpolation maps from which a decision runs on int arrays


def _fp_blocks(tower: FieldTower, k: int, groups):
    """The F_p matrix of n column groups over the K = k*e message digits.

    ``groups[j]`` lists columns of length k over F_{q^h}; message m hits
    coordinate j when m . u != 0 for some column u of the group.  Elements
    are ints whose base-p digits are F_p coordinates, so once m is written
    over the F_p-basis 1, gamma, ..., gamma^(e-1) of F_q (``tower.fq_basis``)
    each F_q-linear functional m . u is ``degree`` F_p columns of a K-row
    matrix.  Returns that matrix and, per group, the indices of its columns
    that are nonzero in some row.
    """
    d = tower.degree
    cols = [col for blk in groups for col in blk]
    owner = np.repeat([j for j, blk in enumerate(groups) for _ in blk], d)
    exp = np.array([[tower.digits(tower.mul(b, x)) for x in col for b in tower.fq_basis]
                    for col in cols], dtype=np.int64).reshape(len(cols), k * tower.e, d)
    mat = exp.transpose(1, 0, 2).reshape(k * tower.e, len(cols) * d)
    live = mat.any(axis=0)
    return mat, [np.flatnonzero(live & (owner == j)) for j in range(len(groups))]


def _span(mat, p):
    """Every F_p-combination of the rows of ``mat``, one per row of the result."""
    out = np.zeros((1, mat.shape[1]), dtype=mat.dtype)
    for r in mat:
        multiples = (np.arange(p)[:, None] * r % p).astype(mat.dtype)
        out = ((multiples[:, None, :] + out[None, :, :]) % p).reshape(-1, mat.shape[1])
    return out


def _weight_distribution(p: int, mat, members):
    """A_0..A_n by enumerating the q^k messages m in F_q^k (``_fp_blocks``).

    A code's coordinate is a group of one column; a system's block is its
    list of generators; the weight of m is the number of groups it hits.
    Messages are all sums lo + hi with lo from a precomputed block of
    low-digit combinations and hi running over the high-digit combinations;
    as hi runs over a subspace so does -hi, so an F_p column of lo + hi is
    nonzero exactly when it differs between lo and hi.  Columns zero in
    every row are dropped (a coordinate with none left is never hit) and
    each group is padded to a power-of-two width by repeating its columns,
    so the hits of a group are one unsigned-int view of the comparison bytes.
    """
    counts = np.zeros(len(members) + 1, dtype=np.int64)
    members = [m for m in members if len(m)]
    if not members:
        counts[0] = p ** mat.shape[0]
        return [int(c) for c in counts]
    width = 1 << (max(len(m) for m in members) - 1).bit_length()
    mat = mat[:, np.concatenate([np.resize(m, width) for m in members])]
    mat = mat.astype(np.min_scalar_type(2 * (p - 1)))
    lo = min(1, mat.shape[0])
    while lo < mat.shape[0] and p ** (lo + 1) * mat.shape[1] <= _CELLS:
        lo += 1
    block = _span(mat[:lo], p)
    for hi in _span(mat[lo:], p):
        hit = block != hi
        w = width
        while w > 1:
            step = min(w, 8)
            hit = hit.view(f"u{step}") != 0
            w //= step
        counts += np.bincount(np.count_nonzero(hit, axis=1), minlength=len(counts))
    return [int(c) for c in counts]


def _rank_weight_distribution(p: int, mat, members, max_ranks: int | None = None):
    """A_0..A_n from the F_p ranks r(S) of coordinate sets S (``_fp_blocks``).

    The messages vanishing on S are the left kernel of the columns of S, so
    B_s = sum over |S| = s of p^(K - r(S)) counts (message, S) pairs with m
    zero on S, and Moebius inversion gives the number of messages zero on
    exactly j coordinates, A_(n-j) = sum_(s >= j) (-1)^(s-j) C(s, j) B_s
    (Greene's theorem for additive codes).  A set of rank K adds 1, as does
    every superset, so a set is ranked only when its prefix (the set
    without its largest index) is ranked and deficient.  A prefix with
    fewer than K nonzero F_p columns is sure to be deficient, so these sure
    sets (``_sure_ranks``) are listed from column counts alone and ranked
    in one batch, the smaller ones padded with an all-zero group.  Then the
    deficient sets of at least K columns, which only zero, repeated or
    narrow coordinates leave, are extended by every larger index and the
    extensions ranked in one batch, until none is deficient.

    Returns (A_0..A_n, ranks taken), or None exactly when the walk needs
    more than ``max_ranks`` ranks, having done no more than that: when the
    sure sets or the extensions about to be ranked bring the total above
    ``max_ranks``.
    """
    K, n = mat.shape[0], len(members)
    if max_ranks is not None and _sure_ranks(members, K) > max_ranks:
        return None
    width = np.array([len(m) for m in members] + [0])  # group n is the all-zero pad
    blocks = np.zeros((n + 1, K, max(width.max(), 1)), dtype=np.min_scalar_type(p * p - 1))
    for j, m in enumerate(members):
        blocks[j, :, :len(m)] = mat[:, m]
    inv = _inverses(p)
    sure, level = [], np.zeros((1 if K else 0, 0), dtype=np.int64)
    while len(level):
        level = _extensions(level, n)
        sure.append(level)
        level = level[width[level].sum(axis=1) < K]
    level = np.full((sum(map(len, sure)), max((sets.shape[1] for sets in sure), default=0)), n)
    row = 0
    for sets in sure:
        level[row:row + len(sets), :sets.shape[1]] = sets
        row += len(sets)
    excess = [p ** K - 1] + [0] * n  # sum of p^(K - r(S)) - 1 per size
    ranked = len(level)
    while len(level):
        ranks = _subset_ranks(blocks, level, p, inv)
        deficient = ranks < K
        level = level[deficient]
        sizes = (level < n).sum(axis=1)
        by_rank = np.bincount(sizes * K + ranks[deficient], minlength=(n + 1) * K)
        for s, counts in enumerate(by_rank.reshape(n + 1, K)):
            excess[s] += sum(int(c) * (p ** (K - r) - 1) for r, c in enumerate(counts) if c)
        level = _extensions(level[width[level].sum(axis=1) >= K], n)
        ranked += len(level)
        if max_ranks is not None and ranked > max_ranks:
            return None
    b = [comb(n, s) + excess[s] for s in range(n + 1)]
    return [sum((-1) ** (s - j) * comb(s, j) * b[s] for s in range(j, n + 1))
            for j in range(n, -1, -1)], ranked


def _extensions(sets, n):
    """Every set in ``sets`` (rows of indices below n, padded with n) extended
    by each larger index below n, as sorted rows padded with n."""
    size = (sets < n).sum(axis=1)
    last = np.where(sets < n, sets, -1).max(axis=1, initial=-1)
    fan = n - 1 - last
    parent = np.repeat(np.arange(len(sets)), fan)
    size = size[parent]
    out = np.full((len(parent), sets.shape[1] + 1), n)
    out[:, :-1] = sets[parent]
    out[np.arange(len(parent)), size] = (last[parent] + 1 + np.arange(len(parent))
                                         - (np.cumsum(fan) - fan)[parent])
    return out[:, :size.max(initial=-1) + 1]


def _sure_ranks(members, K):
    """Sets the walk is sure to rank: those whose prefix (the set without its
    largest index) has fewer than K nonzero F_p columns, so is deficient."""
    ways = [1] + [0] * (K - 1) if K else []  # ways[c]: sets of earlier groups with c columns
    total = 0
    for m in members:
        total += sum(ways)
        ways = [w + (ways[c - len(m)] if c >= len(m) else 0) for c, w in enumerate(ways)]
    return total


def _subset_ranks(blocks, sets, p, inv):
    """F_p rank of the K x (s * width) matrix of the groups in each row of ``sets``."""
    n_sets, s = sets.shape
    _, K, width = blocks.shape
    chunk = max(1, _CELLS // (K * s * width))
    out = np.empty(n_sets, dtype=np.int64)
    for lo in range(0, n_sets, chunk):
        stack = blocks[sets[lo:lo + chunk]].transpose(0, 2, 1, 3).reshape(-1, K, s * width)
        out[lo:lo + chunk] = _stack_ranks(stack, p, inv)
    return out


def _cached_weights(obj, k, groups, budget, noun):
    """A_0..A_n of a code or system over its q^k messages, computed once.

    Two routes give the same list from one F_p matrix (``_fp_blocks``).
    The rank route (``_rank_weight_distribution``) goes first and may
    take q^k // ``_RANK_COST`` subset ranks, ``_RANK_COST`` being the
    messages the enumeration covers in the time of one rank; otherwise the
    q^k messages are enumerated (``_weight_distribution``).  A budget B is
    charged the route that runs: it admits q^k <= B messages, or a rank
    walk of at most B // ``_RANK_COST`` ranks.  Over q^k > B only a walk
    can run, and the memo keeps the rank count of every completed walk, so
    neither the route nor the cache state changes an answer or a
    BudgetExceeded (weights enumerated before mean a walk longer than
    q^k // ``_RANK_COST``).  Each caller gets a fresh list.
    """
    total = obj.tower.q ** k
    cap = DEFAULT_CODEWORD_BUDGET if budget is None else budget
    limit = min(total, cap) // _RANK_COST
    cache = obj._cache
    if "weights" not in cache:
        mat, members = _fp_blocks(obj.tower, k, groups)
        walk = _rank_weight_distribution(obj.tower.p, mat, members, limit)
        if walk is not None:
            cache["weights"], cache["walk_ranks"] = tuple(walk[0]), walk[1]
        elif total <= cap:
            cache["weights"] = tuple(_weight_distribution(obj.tower.p, mat, members))
    if cache.get("walk_ranks", limit + 1) > limit:
        _charge(total, noun, cap)
    return list(cache["weights"])


def _code_weights(code, budget):
    columns = [[tuple(row[j] for row in code.gen)] for j in range(code.n)]
    return _cached_weights(code, code.k_fq, columns, budget, "codewords")


def distance_from_weights(weights) -> int:
    """Minimum distance read off A_0..A_n: 0 when a nonzero message has weight 0."""
    if weights[0] > 1:
        return 0
    for w in range(1, len(weights)):
        if weights[w]:
            return w
    raise ValueError("zero code has no minimum distance")


def min_distance(code: AdditiveCode, budget: int | None = None) -> int:
    """Minimum Hamming weight over the nonzero codewords (exhaustive)."""
    return distance_from_weights(_code_weights(code, budget))


def weight_enumerator(code: AdditiveCode, budget: int | None = None):
    """List A_0..A_n with A_w = number of codewords of weight w."""
    return _code_weights(code, budget)


def is_mds(code: AdditiveCode, budget: int | None = None) -> bool:
    """d = n - k + 1 with k = k_fq / h; False when h does not divide k_fq."""
    if code.k_fq == 0 or code.k_fq % code.tower.h:
        return False
    k = code.k_fq // code.tower.h
    if k > code.n:
        return False
    return min_distance(code, budget) == code.n - k + 1


# ---------------------------------------------------------------------------
# constructions

def rs_code(tower: FieldTower, k: int) -> AdditiveCode:
    """Extended Reed-Solomon code of length q^h + 1 and dimension k over F_{q^h}.

    Evaluation points are all field elements in int order followed by the
    point at infinity, whose value is the top polynomial coefficient.  Rows
    come in the structured order g_0, omega*g_0, ..., omega^(h-1)*g_0, g_1, ...
    """
    if not (1 <= k <= tower.size):
        raise ValueError("need 1 <= k <= q^h")
    rows = []
    for i in range(k):
        base = [tower.pow_int(x, i) for x in range(tower.size)]
        base.append(1 if i == k - 1 else 0)
        for l in range(tower.h):
            rows.append(tuple(tower.scale(tower.omega_powers[l], base)))
    return AdditiveCode(tower, rows, check=False)


def project(code: AdditiveCode, positions) -> AdditiveCode:
    """Shorten: codewords vanishing on ``positions``, those coordinates removed."""
    positions = sorted(set(positions))
    if any(not (0 <= j < code.n) for j in positions):
        raise ValueError("projection position out of range")
    t, h = code.tower, code.tower.h
    cond = [[c for j in positions for c in row[j * h:(j + 1) * h]] for row in code.expansion()]
    kernel = linalg.left_nullspace(t, cond)  # the identity when positions is empty
    keep = [j for j in range(code.n) if j not in positions]
    kept = [[row[j] for j in keep] for row in code.gen]
    new_rows = [tuple(row) for row in linalg.mat_mul(t, kernel, kept)]
    return AdditiveCode(t, new_rows, n=len(keep), check=False)


# ---------------------------------------------------------------------------
# equivalence moves

@dataclass(frozen=True)
class EquivalenceMove:
    """new_word[j] = maps[j](old_word[perm[j]]) with invertible maps."""
    perm: tuple
    maps: tuple

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm is not a permutation")
        if len(self.maps) != len(self.perm):
            raise ValueError("need one map per coordinate")
        for f in self.maps:
            if not f.is_invertible():
                raise NonInvertibleMap(f"coordinate map {f.coeffs} is singular")

    @classmethod
    def _of_invertible(cls, perm, maps):
        """A move built from a permutation and maps already known to be
        invertible, without the Dickson determinant per map."""
        move = object.__new__(cls)
        object.__setattr__(move, "perm", perm)
        object.__setattr__(move, "maps", maps)
        return move


def identity_move(tower: FieldTower, n: int) -> EquivalenceMove:
    ident = LinearizedPoly.identity(tower)
    return EquivalenceMove._of_invertible(tuple(range(n)), (ident,) * n)


def random_move(tower: FieldTower, n: int, rng) -> EquivalenceMove:
    perm = list(range(n))
    rng.shuffle(perm)
    maps = tuple(random_invertible(tower, rng) for _ in range(n))
    return EquivalenceMove._of_invertible(tuple(perm), maps)


def apply_move(code: AdditiveCode, move: EquivalenceMove) -> AdditiveCode:
    if len(move.perm) != code.n:
        raise ValueError("move length does not match the code")
    rows = tuple(
        tuple(move.maps[j](row[move.perm[j]]) for j in range(code.n))
        for row in code.gen
    )
    return AdditiveCode(code.tower, rows, n=code.n, check=False)


def compose_moves(second: EquivalenceMove, first: EquivalenceMove) -> EquivalenceMove:
    """Move equal to applying ``first`` then ``second``."""
    n = len(first.perm)
    perm = tuple(first.perm[second.perm[j]] for j in range(n))
    maps = tuple(second.maps[j].compose(first.maps[second.perm[j]]) for j in range(n))
    return EquivalenceMove._of_invertible(perm, maps)


def inverse_move(move: EquivalenceMove) -> EquivalenceMove:
    n = len(move.perm)
    inv_perm = [0] * n
    for j, pj in enumerate(move.perm):
        inv_perm[pj] = j
    maps = tuple(move.maps[inv_perm[i]].inverse() for i in range(n))
    return EquivalenceMove._of_invertible(tuple(inv_perm), maps)


# ---------------------------------------------------------------------------
# interpolation and standard form

@dataclass(frozen=True)
class InterpolationForm:
    """C = {(x_0..x_{k-1}, sum_j maps[0][j](x_j), ..., sum_j maps[n-k-1][j](x_j))}."""
    tower: object
    n: int
    k: int
    maps: tuple  # (n-k) rows of k LinearizedPolys

    def build_code(self) -> AdditiveCode:
        t = self.tower
        ident, zero = LinearizedPoly.identity(t), LinearizedPoly.zero(t)
        grid = [[ident if j == i else zero for j in range(self.k)]
                + [self.maps[r][i] for r in range(self.n - self.k)] for i in range(self.k)]
        return AdditiveCode(t, _rows_from_maps(t, grid), n=self.n, check=False)


def _information_inverse(code: AdditiveCode):
    """(k, inverse of the F_q matrix of the first k coordinates' expansion).
    NotMds unless the first k coordinates form an information set."""
    t = code.tower
    k = code.message_length()
    if k == 0:
        raise NotMds("a code with k_fq = 0 has no information set")
    if code.n < k:
        raise NotMds("length is smaller than the message length")
    exp_first = [row[: k * t.h] for row in code.expansion()]
    try:
        return k, linalg.mat_inv(t, exp_first)
    except NotInvertible:
        raise NotMds("first k coordinates are not an information set") from None


def _interpolate(code: AdditiveCode) -> InterpolationForm:
    """The interpolation form of ``code``, its maps not checked for
    invertibility."""
    t = code.tower
    h = t.h
    k, inv = _information_inverse(code)
    # row i*h + l holds the values M_ri(omega^l) on the trailing coordinates r
    values = linalg.mat_mul(t, inv, [row[k:] for row in code.gen])
    return InterpolationForm(t, code.n, k, tuple(
        tuple(LinearizedPoly.from_values(t, [values[i * h + l][r] for l in range(h)])
              for i in range(k)) for r in range(code.n - k)))


def _interpolation_rows(code: AdditiveCode):
    """(k, rows): rows[r, i] is the coefficient row of the interpolation map
    M_ri, an int array of shape (n - k, k, h), as ``_interpolate`` gives it.

    M_ri(omega^l) is row i*h + l of the information-set inverse times
    column k + r of the generator, and ``from_values`` turns the h values
    into coefficients, linearly.  So the rows are W G for the kh x kh
    matrix W whose column s in block i is ``from_values`` of column s of
    the inverse's block i of h rows, and the kh x (n - k) trailing columns
    G: one log-domain array product, summed by ``add_arrays``.
    """
    t = code.tower
    h, n = t.h, t._group_order
    k, inv = _information_inverse(code)
    w = np.array([[LinearizedPoly.from_values(t, [inv[i * h + l][s] for l in range(h)]).coeffs
                   for s in range(k * h)] for i in range(k)], dtype=np.int64)
    w = w.transpose(0, 2, 1).reshape(k * h, k * h)  # [(i, c), s]
    exp, log = t.np_tables()
    gen = np.array([row[k:] for row in code.gen], dtype=np.int64).reshape(k * h, code.n - k)
    lw, lg = (np.where(a != 0, log[a], 2 * n) for a in (w, gen))
    terms = exp[np.minimum(lw[:, :, None] + lg[None], 2 * n)]  # [(i, c), s, r]
    rows = reduce(t.add_arrays, terms.transpose(1, 0, 2))  # [(i, c), r]
    return k, rows.reshape(k, h, -1).transpose(2, 0, 1)


def _singular_map(k: int, r: int, i: int) -> NotMds:
    return NotMds(f"interpolation map at ({k + r}, {i}) is singular")


def to_interpolation_form(code: AdditiveCode) -> InterpolationForm:
    """Express each trailing coordinate as a sum of maps of the first k.

    Requires the first k coordinates to form an information set and every
    interpolation map to be invertible; both hold for MDS codes, and NotMds
    is raised otherwise, for the first singular map in (r, i) order.
    """
    form = _interpolate(code)
    for r, row in enumerate(form.maps):
        for i, f in enumerate(row):
            if not f.is_invertible():
                raise _singular_map(form.k, r, i)
    return form


def _long_code(code: AdditiveCode) -> bool:
    """True when ``code`` has at least ``_ARRAY_MAPS`` interpolation maps,
    (n - k) k, so that its decision runs on the array route.  NotMds when
    h does not divide k_fq, as interpolation would raise first."""
    k = code.message_length()
    return (code.n - k) * k >= _ARRAY_MAPS


def _standard_form(code: AdditiveCode):
    """(interpolation form of the standard code, move to it), from one
    interpolation of ``code``, by the route its number of maps selects."""
    return (_array_standard_form if _long_code(code) else _scalar_standard_form)(code)


def _scalar_standard_form(code: AdditiveCode):
    """``_standard_form`` one map at a time.

    With M the maps of ``code``, the move is phi_j = M_0j on the first k
    coordinates, psi_0 = id and psi_r = phi_0 o M_r0^(-1) (that is,
    (M_r0 o phi_0^(-1))^(-1)) on the others, so the moved code has the maps
    S_rj = psi_r o M_rj o phi_j^(-1), whose row 0 and column 0 are the
    identity and are not composed.  The interpolation form is unique, so
    these are the maps that interpolating the moved code would give.  Each
    M_rj is checked once, in (r, i) order as ``to_interpolation_form``
    does: row 0 by the inverses phi_j^(-1), column 0 by M_r0^(-1), every
    other map by its Dickson determinant.  So every map of the form and of
    the move is invertible.
    """
    t = code.tower
    form = _interpolate(code)
    k, n, maps = form.k, form.n, form.maps
    if n == k:
        return form, identity_move(t, n)

    def inverse(r, i):
        try:
            return maps[r][i].inverse()
        except NotInvertible:
            raise _singular_map(k, r, i) from None

    def checked(r, i):
        if not maps[r][i].is_invertible():
            raise _singular_map(k, r, i)
        return maps[r][i]

    ident = LinearizedPoly.identity(t)
    phi_inv = [inverse(0, i) for i in range(k)]
    psi, std = [ident], [(ident,) * k]
    for r in range(1, n - k):
        psi.append(maps[0][0].compose(inverse(r, 0)))
        std.append((ident,) + tuple(psi[r].compose(checked(r, i)).compose(phi_inv[i])
                                    for i in range(1, k)))
    return (InterpolationForm(t, n, k, tuple(std)),
            EquivalenceMove._of_invertible(tuple(range(n)), maps[0] + tuple(psi)))


def _array_standard_form(code: AdditiveCode):
    """``_scalar_standard_form`` on int arrays of coefficient rows, for a
    code with many maps: the same maps, move and NotMds text.

    The maps come from ``_interpolation_rows``; one ``dickson_inverses``
    over all of them flags every singular map, and the first in (r, i)
    order raises.  psi_r = M_00 o M_r0^(-1) and S_ri = psi_r o M_ri o
    phi_i^(-1) are two and three batched ``compose_rows``.
    """
    t = code.tower
    n = code.n
    k, maps = _interpolation_rows(code)
    if n == k:
        return InterpolationForm(t, n, k, ()), identity_move(t, n)
    inv, singular = dickson_inverses(t, maps.reshape(-1, t.h))
    if singular.any():
        raise _singular_map(k, *divmod(int(singular.argmax()), k))
    inv = inv.reshape(maps.shape)
    psi = compose_rows(t, maps[0, 0], inv[1:, 0])
    std = compose_rows(t, compose_rows(t, psi[:, None], maps[1:, 1:]), inv[0, 1:])
    ident = LinearizedPoly.identity(t)

    def polys(rows):
        return tuple(LinearizedPoly(t, tuple(row)) for row in rows.tolist())

    return (InterpolationForm(t, n, k, ((ident,) * k,) + tuple((ident,) + polys(row)
                                                               for row in std)),
            EquivalenceMove._of_invertible(tuple(range(n)), polys(maps[0]) + (ident,)
                                           + polys(psi)))


def to_standard_form(code: AdditiveCode):
    """Equivalent code whose row-(k) maps and column-0 maps are the identity.

    Returns (standard_code, move) with apply_move(code, move) == standard_code
    reproducing the returned generator exactly.  The move and the standard
    form's maps are composed from one interpolation (``_standard_form``).
    """
    _, move = _standard_form(code)
    return apply_move(code, move), move


@dataclass(frozen=True)
class LinearWitness:
    """Witness that a standard-form code is equivalent to a linear one.

    Every interpolation map of the standard form equals g o (a X) o g^(-1)
    for the stored scalars; applying g^(-1) in every coordinate after the
    standard-form move produces an F_{q^h}-linear code.
    """
    g: LinearizedPoly
    scalars: tuple  # (n-k) x k scalar matrix
    standard_move: EquivalenceMove

    def linearizing_move(self) -> EquivalenceMove:
        n = len(self.standard_move.perm)
        ginv = self.g.inverse()
        post = EquivalenceMove._of_invertible(tuple(range(n)), (ginv,) * n)
        return compose_moves(post, self.standard_move)


def linear_equivalence_witness(code: AdditiveCode, budget: int | None = None):
    """The lex-first g (g_0 = 1) making every standard-form map a scalar
    conjugate, as a LinearWitness, or None.

    The invertible g with g_0 = 1 are complete up to the symmetries that fix
    conjugacy (right composition with scalars and with Frobenius powers), so
    None certifies that no equivalence to a linear code exists.  M = g o (aX)
    o g^(-1) iff u = M o g has u_i = g_i a^(q^i) for all i (a = u_0 as g_0 =
    1), so no candidate needs an inverse; each candidate, in lex order, is
    checked against every target by composition and then for
    invertibility, and the first to pass is the witness.

    S o g = g o (aX) iff column 0 of D(g) is an eigenvector of D(S) for a,
    so the candidates come from the spaces of common eigenvectors of the
    standard form's Dickson matrices (``_eigenbranches``), one per tuple of
    eigenvalues, kept only when the space can hold an invertible g: its
    dimension is h/s, where the eigenvalues generate F_{q^s}.  A line holds
    at most one g with g_0 = 1; a larger branch, whose every g passes every
    target, is walked in lex order of g until ``is_invertible``.  Only
    these walks are charged to ``budget``, one per candidate read, so a
    budget B admits walks of at most B candidates in all.  The standard
    form's maps are composed from the code's single interpolation
    (``_standard_form``); no standard code is built.  A code with at least
    ``_ARRAY_MAPS`` maps is decided on int arrays (``_array_witness``),
    any other one map at a time (``_scalar_witness``), with the same
    answer, BudgetExceeded or NotMds text.
    """
    return (_array_witness if _long_code(code) else _scalar_witness)(code, budget)


def _scalar_witness(code: AdditiveCode, budget: int | None):
    """The decision one map at a time: a candidate is composed with the
    targets in (r, j) order and dropped at the first it fails."""
    t = code.tower
    form, move = _scalar_standard_form(code)
    targets = [m for row in form.maps[1:] for m in row[1:]]

    def scalars_of(g):
        out = []
        for m in targets:
            u = m.compose(g).coeffs
            a = u[0]
            if any(u[i] != t.mul(g.coeffs[i], t.frob(a, i)) for i in range(1, t.h)):
                return None
            out.append(a)
        return out
    return _witness(form, move, targets, budget, scalars_of)


def _array_witness(code: AdditiveCode, budget: int | None):
    """The decision on int arrays (``_array_standard_form``): a candidate g
    is composed with every target at once, U = S o g, and passes iff
    U = g o (U_0 X) row by row, that is U_i = g_i U_0^(q^i)."""
    t = code.tower
    form, move = _array_standard_form(code)
    targets = [m for row in form.maps[1:] for m in row[1:]]
    stack = np.array([m.coeffs for m in targets], dtype=np.int64).reshape(-1, t.h)

    def scalars_of(g):
        u = compose_rows(t, stack, g.coeffs)
        scalar = np.zeros_like(u)
        scalar[:, 0] = u[:, 0]
        return u[:, 0].tolist() if (u == compose_rows(t, g.coeffs, scalar)).all() else None
    return _witness(form, move, targets, budget, scalars_of)


def _witness(form: InterpolationForm, move: EquivalenceMove, targets, budget, scalars_of):
    """The lex-first witness of the standard form ``form``, reached by
    ``move``, whose ``targets`` are its maps S_rj, r, j >= 1, in (r, j)
    order: the branches, their walk and its budget, shared by both routes.
    ``scalars_of(g)`` is the list of the targets' a when S_rj o g =
    g o (aX) for every target, else None."""
    t, k, n = form.tower, form.k, form.n
    cap = DEFAULT_CANDIDATE_BUDGET if budget is None else budget
    rows, walked = [], 0
    for basis in _eigenbranches(t, targets):
        pivots = [row.index(1) for row in basis]  # reduced rows lead with 1
        if pivots[0]:
            continue  # every g of the branch has g_0 = 0
        # g_p = v_p^(q^p) at a pivot p, and g is lex-ordered by its values there
        for ys in product(range(t.size), repeat=len(basis) - 1):
            if ys:
                walked += 1
                if walked > cap:
                    raise BudgetExceeded(f"witness walk exceeds budget {cap}")
            xs = [1] + [t.frob(y, -p) for y, p in zip(ys, pivots[1:])]
            v = linalg.mat_vec(t, linalg.transpose(basis), xs)
            g = tuple(t.frob(x, i) for i, x in enumerate(v))
            # a line's one g is left to the invertibility check below
            if not ys or LinearizedPoly(t, g).is_invertible():
                rows.append(g)
                break
    for row in sorted(rows):
        g = LinearizedPoly(t, row)
        scalars = scalars_of(g)
        if scalars is not None and g.is_invertible():
            rest = iter(scalars)
            return LinearWitness(g, tuple(tuple(1 if r == 0 or j == 0 else next(rest)
                                                for j in range(k)) for r in range(n - k)), move)
    return None


def _eigenbranches(t: FieldTower, maps):
    """Reduced bases of the spaces of common eigenvectors that can hold an
    invertible g, one per tuple of eigenvalues, in the coordinates v_i =
    u_(-i) of u = column 0 of D(g), so that g_i = v_i^(q^i).

    D(f o g) = D(f) D(g) and D(aX) = diag(a^(q^i)), and column i of D(g) is
    column 0 Frobenius-shifted, so S o g = g o (aX) iff D(S) u = a u.  The
    branches start from all of F_{q^h}^h; each map S that is not cX with c
    in F_q (D(S) = cI) splits every branch E into its intersections with the
    eigenspaces of D(S), one per eigenvalue a (``_eigenvalues``).  A branch
    with eigenvalues (a_S) generating F_{q^s} holds an invertible g iff its
    dimension is h/s: the g of E are the F_q(a_S)-module maps from F_{q^h}
    with a_S acting by multiplication, which is F_{q^s}^(h/s), to F_{q^h}
    with a_S acting as S, and dim E is the multiplicity of the simple module
    F_{q^s} in the latter.  The other branches are dropped.  Refinement
    stops once every branch is a line; the remaining maps are checked per
    candidate.
    """
    h = t.h
    branches = [([[int(i == l) for l in range(h)] for i in range(h)], 1)]
    for m in maps:
        if all(len(basis) == 1 for basis, _ in branches):
            break
        if not any(m.coeffs[1:]) and t.in_fq(m.coeffs[0]):
            continue
        # D(S) in the v coordinates: D'[i][l] = S_(i-l)^(q^(-i)) = D(S)[-i][-l]
        d = m.dickson()
        dick = [[d[-i][-l] for l in range(h)] for i in range(h)]
        roots = _eigenvalues(t, dick)
        split = []
        for basis, s in branches:
            images = [linalg.mat_vec(t, dick, b) for b in basis]
            for a in roots:
                # the x B with x B (D' - aI)^T = 0 are the rows of the reduced
                # [B (D' - aI)^T | B] that vanish on the left, already reduced
                red, pivots = linalg.mat_rref(t, [t.axpy(im, a, b) + b
                                                  for im, b in zip(images, basis)])
                kernel = [row[h:] for row, c in zip(red, pivots) if c >= h]
                s_a = lcm(s, t.subfield_degree(a))
                if len(kernel) * s_a == h:
                    split.append((kernel, s_a))
        branches = split
    return [basis for basis, _ in branches]


def _eigenvalues(t: FieldTower, dick):
    """Roots in F_{q^h} of the minimal polynomial of the invertible h x h
    matrix ``dick``, in log order.  For ``_eigenbranches``' D(S) these are
    the roots of S's minimal polynomial over F_q: D(S) is similar over
    F_{q^h} to S's F_q matrix, and field extension keeps minimal polynomials.

    That polynomial is the lcm of the Krylov relations of e_0, e_1, ...
    once their Krylov spaces span, so its roots are the union of theirs.
    The first relation sum_i c_i w_i = 0 of w_i = dick^i e_l, one
    ``mat_vec`` per step, is the first left kernel vector of w_0..w_h, and
    its roots are the zeros of sum_i c_i x^i over the q^h - 1 nonzero x,
    one ``power_terms`` row per i summed by ``add_arrays``.
    """
    h = t.h
    roots = np.zeros(t._group_order, dtype=bool)
    span = []
    for l in range(h):
        rows = [[int(i == l) for i in range(h)]]
        for _ in range(h):
            rows.append(linalg.mat_vec(t, dick, rows[-1]))
        relation = linalg.left_nullspace(t, rows)[0]
        d = max(i for i, c in enumerate(relation) if c)
        value = reduce(t.add_arrays, [t.power_terms(c, i) for i, c in enumerate(relation) if c])
        roots |= value == 0
        span += rows[:d]
        if d == h or linalg.mat_rank(t, span) == h:
            break
    return [t._exp[i] for i in np.flatnonzero(roots)]


# ---------------------------------------------------------------------------
# serialization

def code_to_dict(code: AdditiveCode) -> dict:
    t = code.tower
    return {
        "field": t.descriptor(),
        "n": code.n,
        "k_fq": code.k_fq,
        "rows": [[t.digits(x) for x in row] for row in code.gen],
    }


def code_from_dict(data: dict, tower: FieldTower | None = None) -> AdditiveCode:
    """Inverse of ``code_to_dict``; ValueError when keys are missing, ``n``
    or ``k_fq`` is not a non-negative integer, or they disagree with ``rows``."""
    keys = ("n", "k_fq", "rows") if tower is not None else ("field", "n", "k_fq", "rows")
    require_keys(data, keys, "code JSON", nested=("rows",))
    for key in ("n", "k_fq"):
        if not _is_int(data[key]) or data[key] < 0:
            raise ValueError(f"code JSON {key} must be a non-negative integer")
    t = tower if tower is not None else FieldTower.from_descriptor(data["field"])
    rows = [[t.from_digits(d) for d in row] for row in data["rows"]]
    if len(rows) != data["k_fq"]:
        raise ValueError(f"code JSON has k_fq = {data['k_fq']} but {len(rows)} rows")
    if any(len(row) != data["n"] for row in rows):
        raise ValueError(f"code JSON has n = {data['n']} but a row of another length")
    return AdditiveCode(t, rows, n=data["n"])

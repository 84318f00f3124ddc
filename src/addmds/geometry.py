"""Systems of F_q-subspaces attached to additive codes.

An additive code with generator rows g_1..g_m over F_{q^h} induces, for each
coordinate j, the subspace of F_q^m spanned by the columns of the m x h
matrix whose i-th row is coords(g_i[j]).  The ordered list of these
subspaces determines the weight distribution: a message vector hits weight
equal to the number of subspaces it does not annihilate.  This module keeps
those subspace lists as first-class objects, converts codes to and from
them, evaluates their minimum distance and arc property, and decides
membership in the multiplication spread (the partition of F_q^(hk) into the
F_{q^h}-point subspaces under the omega-power identification).  Distance
and the arc property both read the budgeted weight distribution of
``code``, which each system keeps: a system is a pseudo-arc exactly when its
distance is n - k + 1, just as a code is MDS.

Blocks are stored exactly as given so that ``code_from_system`` inverts
``system_from_code`` on the nose; comparisons use reduced echelon forms of
the blocks, which depend only on the subspaces.
"""

from __future__ import annotations

from . import linalg
from .code import AdditiveCode, _cached_weights, _rows_from_expansion, distance_from_weights
from .errors import DimensionMismatch, SpanFailure
from .gf import FieldTower, _is_int, require_keys
from .linpoly import LinearizedPoly


class ProjectiveHSystem:
    """Ordered tuple of subspaces of F_q^dim, each given by generator vectors."""

    def __init__(self, tower: FieldTower, dim: int, blocks):
        blocks = tuple(tuple(tuple(u) for u in blk) for blk in blocks)
        for blk in blocks:
            for u in blk:
                if len(u) != dim:
                    raise ValueError("generator length differs from dim")
                if any(not tower.in_fq(c) for c in u):
                    raise ValueError("generator entries must lie in F_q")
        self.tower = tower
        self.dim = dim
        self.blocks = blocks
        self.n = len(blocks)
        self._cache = {}

    def block_rank(self, j: int) -> int:
        return len(self.canonical_blocks()[j])

    def canonical_blocks(self):
        if "canonical" not in self._cache:
            out = []
            for blk in self.blocks:
                if blk:
                    red, piv = linalg.mat_rref(self.tower, [list(u) for u in blk])
                    out.append(tuple(tuple(r) for r in red[: len(piv)]))
                else:
                    out.append(())
            self._cache["canonical"] = tuple(out)
        return self._cache["canonical"]

    def __eq__(self, other):
        return (isinstance(other, ProjectiveHSystem)
                and self.tower.key == other.tower.key
                and self.dim == other.dim
                and self.canonical_blocks() == other.canonical_blocks())

    def __hash__(self):
        return hash((self.tower.key, self.dim, self.canonical_blocks()))

    def __repr__(self):
        return f"ProjectiveHSystem(dim={self.dim}, n={self.n}, q={self.tower.q})"


def system_from_code(code: AdditiveCode) -> ProjectiveHSystem:
    """Column spans of the coordinate maps, one block per code position."""
    h = code.tower.h
    exp = code.expansion()
    return ProjectiveHSystem(code.tower, code.k_fq, [
        tuple(tuple(row[j * h + c] for row in exp) for c in range(h)) for j in range(code.n)])


def code_from_system(system: ProjectiveHSystem) -> AdditiveCode:
    """Rebuild the code whose coordinate maps have the given column spans.

    Blocks with fewer than h generators are padded with zero vectors.  The
    united generators must span F_q^dim, otherwise the reconstructed rows
    would be dependent and SpanFailure is raised.
    """
    t, h = system.tower, system.tower.h
    for blk in system.blocks:
        if len(blk) > h:
            raise ValueError(f"a block has {len(blk)} generators, at most h = {h} allowed")
    if linalg.mat_rank(t, [u for blk in system.blocks for u in blk]) != system.dim:
        raise SpanFailure("blocks do not span the ambient space")
    zero = (0,) * system.dim
    exp_rows = [[u[i] for blk in system.blocks for u in blk + (zero,) * (h - len(blk))]
                for i in range(system.dim)]
    return AdditiveCode(t, _rows_from_expansion(t, system.n, exp_rows), n=system.n, check=False)


# ---------------------------------------------------------------------------
# metric and arc structure

def system_min_distance(system: ProjectiveHSystem, budget: int | None = None) -> int:
    """Minimum over nonzero messages of the number of blocks not annihilated.

    Equals the minimum distance of any code realising the system.
    """
    return distance_from_weights(_cached_weights(
        system, system.dim, system.blocks, budget, "messages"))


def is_pseudo_arc(system: ProjectiveHSystem, budget: int | None = None) -> bool:
    """Every block has rank h and every k = dim/h of them span the ambient space.

    A code is MDS exactly when its system is a pseudo-arc.  With blocks of
    rank h and n >= k, any k blocks span iff no nonzero message is
    annihilated by k of them, i.e. d >= n - k + 1; k - 1 blocks never span,
    so this is d == n - k + 1 (``system_min_distance`` under ``budget``).
    That distance comes from the system's memoised weight distribution;
    when q^k is large next to the number of block sets it is computed from
    the F_p ranks of the sets of at most k blocks (``code._cached_weights``),
    which on a pseudo-arc is this definition checked directly.
    """
    t = system.tower
    if system.dim % t.h:
        raise DimensionMismatch(f"dim = {system.dim} is not a multiple of h = {t.h}")
    k = system.dim // t.h
    if any(system.block_rank(j) != t.h for j in range(system.n)):
        return False
    if system.n < k or k == 0:
        return True  # no k blocks to test
    return system_min_distance(system, budget) == system.n - k + 1


# ---------------------------------------------------------------------------
# the multiplication spread

def _block_to_point(tower, u):
    """Dual-basis reading of a vector in F_q^(hk) as a point of F_{q^h}^k."""
    h, delta = tower.h, tower.dual_basis()
    return tuple(tower.dot(u[i:i + h], delta) for i in range(0, len(u), h))


def _normalize_point(tower, point):
    for x in point:
        if x:
            return tuple(tower.scale(tower.inv(x), point))
    return None


def desarguesian_membership(tower: FieldTower, generators):
    """Decide whether the span of ``generators`` is a multiplication-spread member.

    The spread partitions F_q^(hk) into the h-dimensional subspaces obtained
    by reading each vector blockwise through the trace-dual basis and fixing
    a projective point of F_{q^h}^k.  Returns the normalized point, or None
    when the span is not a member.
    """
    gens = [tuple(u) for u in generators]
    if not gens:
        return None
    dim = len(gens[0])
    if any(len(u) != dim for u in gens):
        raise ValueError("ragged generator list")
    if dim % tower.h:
        raise ValueError(f"vector length {dim} is not a multiple of h = {tower.h}")
    if linalg.mat_rank(tower, [list(u) for u in gens]) != tower.h:
        return None
    ref = None
    for u in gens:
        pt = _normalize_point(tower, _block_to_point(tower, u))
        if pt is None:
            continue
        if ref is None:
            ref = pt
        elif pt != ref:
            return None
    return ref


def desarguesian_block(tower: FieldTower, point):
    """Generators of the spread member at ``point``; inverse of membership.

    They are the h columns of the F_q matrices M_x of multiplication by the
    x of ``point`` (``LinearizedPoly.matrix``), stacked over x: generator c
    is (M_x[l][c]) over x and then l, and reads through the dual basis as
    d_c * ``point``.
    """
    if not any(point):
        raise ValueError("the zero tuple is not a projective point")
    mats = [LinearizedPoly.scalar(tower, x).matrix() for x in point]
    return tuple(tuple(m[l][c] for m in mats for l in range(tower.h)) for c in range(tower.h))


# ---------------------------------------------------------------------------
# projection

def project_system(system: ProjectiveHSystem, index: int) -> ProjectiveHSystem:
    """Quotient the ambient space by block ``index`` and drop that block.

    The quotient is ``code.project``'s: the rows v of the left null space of
    the dim x (generators of block ``index``) matrix, so v.u = 0 on the
    block, map each other generator u to (v.u)_v.  An empty block gives the
    identity.  On a system of a code this is the system of its shortening.
    """
    if not (0 <= index < system.n):
        raise ValueError("block index out of range")
    t, blk = system.tower, system.blocks[index]
    kernel = linalg.left_nullspace(t, [[u[i] for u in blk] for i in range(system.dim)])
    return ProjectiveHSystem(t, len(kernel), [
        [linalg.mat_vec(t, kernel, u) for u in other]
        for j, other in enumerate(system.blocks) if j != index])


# ---------------------------------------------------------------------------
# serialization

def system_to_dict(system: ProjectiveHSystem) -> dict:
    t = system.tower
    return {
        "field": t.descriptor(),
        "dim": system.dim,
        "blocks": [[[t.digits(c) for c in u] for u in blk] for blk in system.blocks],
    }


def system_from_dict(data: dict, tower: FieldTower | None = None) -> ProjectiveHSystem:
    """Inverse of ``system_to_dict``; ValueError when keys are missing,
    ``blocks`` is not a list of lists of vectors (lists) or ``dim`` is not
    a non-negative integer."""
    keys = ("dim", "blocks") if tower is not None else ("field", "dim", "blocks")
    require_keys(data, keys, "system JSON", nested=("blocks",))
    if not all(isinstance(u, list) for blk in data["blocks"] for u in blk):
        raise ValueError("system JSON blocks must hold vectors as lists")
    if not _is_int(data["dim"]) or data["dim"] < 0:
        raise ValueError("system JSON dim must be an integer >= 0")
    t = tower if tower is not None else FieldTower.from_descriptor(data["field"])
    blocks = [[[t.from_digits(d) for d in u] for u in blk] for blk in data["blocks"]]
    return ProjectiveHSystem(t, data["dim"], blocks)

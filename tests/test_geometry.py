import random

import pytest

from addmds import code as code_mod
from addmds import linalg
from addmds.code import (
    AdditiveCode,
    apply_move,
    is_mds,
    min_distance,
    project,
    random_move,
    rs_code,
    weight_enumerator,
)
from addmds.errors import BudgetExceeded, DimensionMismatch, SpanFailure
from addmds.geometry import (
    ProjectiveHSystem,
    code_from_system,
    desarguesian_block,
    desarguesian_membership,
    is_pseudo_arc,
    project_system,
    system_from_code,
    system_from_dict,
    system_min_distance,
    system_to_dict,
)
from addmds.linpoly import LinearizedPoly
from addmds.search import k4_example_search

import conftest
import oracles


def test_roundtrip_code_system_code(f9):
    code = rs_code(f9, 2)
    system = system_from_code(code)
    assert system.n == code.n and system.dim == code.k_fq
    again = code_from_system(system)
    assert again.gen == code.gen


def test_system_validation(f9):
    with pytest.raises(ValueError):
        ProjectiveHSystem(f9, 2, [((1, 2, 3),)])  # wrong length
    with pytest.raises(ValueError):
        ProjectiveHSystem(f9, 2, [((1, 4),)])  # 4 is outside F_3
    sys_a = ProjectiveHSystem(f9, 2, [((1, 0), (0, 1)), ((1, 1),)])
    sys_b = ProjectiveHSystem(f9, 2, [((1, 1), (1, 2)), ((2, 2),)])
    assert sys_a == sys_b  # same subspaces, different generators
    assert hash(sys_a) == hash(sys_b)


def test_code_from_system_errors(f4):
    with pytest.raises(ValueError):
        code_from_system(ProjectiveHSystem(f4, 2, [((1, 0), (0, 1), (1, 1))]))
    with pytest.raises(SpanFailure):
        code_from_system(ProjectiveHSystem(f4, 2, [((1, 0),), ((1, 0),)]))


def test_distance_bridge(f4, f9):
    rng = random.Random(20)
    codes = [rs_code(f4, 2), rs_code(f9, 2), project(rs_code(f9, 3), {1})]
    codes += [apply_move(c, random_move(c.tower, c.n, rng)) for c in list(codes)]
    for code in codes:
        assert system_min_distance(system_from_code(code)) == min_distance(code)


def test_system_distance_matches_oracle(f9, f16_over_f4):
    rs = system_from_code(rs_code(f16_over_f4, 2))
    systems = [
        # an empty block is never hit
        ProjectiveHSystem(f9, 2, [((1, 0), (0, 1)), (), ((1, 1),)]),
        # a block with more than h = 2 generators
        ProjectiveHSystem(f9, 3, [((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                                  ((1, 1, 0),), ((0, 1, 2), (1, 0, 1), (1, 1, 0))]),
        # blocks not spanning F_3^3: (0, 0, 1) hits nothing, so d = 0
        ProjectiveHSystem(f9, 3, [((1, 0, 0),), ((0, 1, 0), (1, 1, 0))]),
        # F_16 / F_4: blocks over a non-prime F_q, plus an empty block
        ProjectiveHSystem(f16_over_f4, rs.dim, rs.blocks[:5] + ((),)),
    ]
    for system in systems:
        assert system_min_distance(system) == oracles.brute_system_min_distance(system)
    assert system_min_distance(systems[2]) == 0


def test_distance_bridge_budget(f9):
    system = system_from_code(rs_code(f9, 3))
    with pytest.raises(BudgetExceeded):
        system_min_distance(system, budget=10)


def test_pseudo_arc_iff_mds(f4, f9):
    assert is_pseudo_arc(system_from_code(rs_code(f4, 2)))
    assert is_pseudo_arc(system_from_code(project(rs_code(f9, 3), {0})))
    # repetition-style code is far from MDS
    bad = AdditiveCode(f9, [(1, 1, 0), (3, 3, 0), (0, 0, 1), (0, 0, 3)])
    assert not is_pseudo_arc(system_from_code(bad))
    with pytest.raises(DimensionMismatch):
        is_pseudo_arc(ProjectiveHSystem(f9, 3, [((1, 0, 0),)]))


def test_pseudo_arc_matches_rank_oracle(f4, f8, f9, f16_over_f4):
    rng = random.Random(22)
    codes = [rs_code(f4, 2), rs_code(f8, 2), rs_code(f9, 2), rs_code(f9, 3),
             rs_code(f16_over_f4, 2)]
    codes += [project(c, {j}) for c in list(codes) for j in (0, c.n - 1)]
    codes += [apply_move(c, random_move(c.tower, c.n, rng)) for c in list(codes)]
    codes.append(AdditiveCode(f9, [(1, 1, 0), (3, 3, 0), (0, 0, 1), (0, 0, 3)]))
    systems = [system_from_code(c) for c in codes]
    rs = system_from_code(rs_code(f9, 2))
    b0, b1 = rs.blocks[0], rs.blocks[1]
    systems += [
        # every block of rank h, but two equal blocks never span together
        ProjectiveHSystem(f9, 4, rs.blocks[:4] + (b0,)),
        # a block of rank 1 < h
        ProjectiveHSystem(f9, 4, rs.blocks[:3] + (b0[:1],)),
        # h + 1 generators of rank h, and h + 1 generators of rank h + 1
        ProjectiveHSystem(f9, 4, rs.blocks[1:5] + (b0 + (b0[0],),)),
        ProjectiveHSystem(f9, 4, rs.blocks[2:5] + (b0 + b1[:1],)),
        # n < k, and n = k = 0: the span condition is vacuous
        ProjectiveHSystem(f9, 6, [((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
                                  ((0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0))]),
        ProjectiveHSystem(f9, 0, []),
    ]
    verdicts = [is_pseudo_arc(sy) for sy in systems]
    assert verdicts == [oracles.brute_is_pseudo_arc(sy) for sy in systems]
    assert verdicts[-7:] == [False, False, False, True, False, True, True]
    assert sum(verdicts) > len(systems) // 2
    with pytest.raises(BudgetExceeded):
        is_pseudo_arc(system_from_code(rs_code(f9, 3)), budget=10)


def test_weight_memo_is_invisible(f9):
    code = rs_code(f9, 3)
    system = system_from_code(code)
    want = weight_enumerator(code)
    assert system_min_distance(system) == 8 and is_pseudo_arc(system)
    assert is_mds(code) and min_distance(code) == 8
    for call in (lambda: weight_enumerator(code, budget=10),
                 lambda: min_distance(code, budget=10),
                 lambda: is_mds(code, budget=10),
                 lambda: system_min_distance(system, budget=10),
                 lambda: is_pseudo_arc(system, budget=10)):
        with pytest.raises(BudgetExceeded):
            call()
    got = weight_enumerator(code)
    got[0] = 5
    got.append(1)
    assert weight_enumerator(code) == want
    assert min_distance(code) == 8 and is_mds(code)


def test_weight_memo_is_invisible_on_rank_route(f25, monkeypatch):
    # the F_25 k = 4 example takes the rank route: the walk ranks the 56
    # nonempty sets of at most k = 4 of the 6 coordinates in one batch
    # (every set of 3 has 6 < K = 8 F_p columns, every set of 4 spans) and
    # enumerates none of the 5^8 messages
    def no_enumeration(*args):
        raise AssertionError("enumerated a code that takes the rank route")

    ranked = []
    ranks = code_mod._subset_ranks

    def counted_ranks(blocks, sets, *args):
        ranked.append(len(sets))
        return ranks(blocks, sets, *args)

    code = k4_example_search(f25).code
    system = system_from_code(code)
    monkeypatch.setattr(code_mod, "_weight_distribution", no_enumeration)
    monkeypatch.setattr(code_mod, "_subset_ranks", counted_ranks)
    calls = (lambda: weight_enumerator(code, budget=10),
             lambda: min_distance(code, budget=10),
             lambda: is_mds(code, budget=10),
             lambda: system_min_distance(system, budget=10),
             lambda: is_pseudo_arc(system, budget=10))

    def refusals():
        out = []
        for call in calls:
            with pytest.raises(BudgetExceeded) as err:
                call()
            out.append(str(err.value))
        return out

    cold = refusals()
    assert cold == ["390625 codewords exceed budget 10"] * 3 + ["390625 messages exceed budget 10"] * 2
    want = weight_enumerator(code)
    assert want == [1, 0, 0, 480, 7920, 76464, 305760]
    assert system_min_distance(system) == 3 and is_pseudo_arc(system)
    assert is_mds(code) and min_distance(code) == 3
    assert ranked == [56, 56]  # once for the code, once for the system
    assert refusals() == cold
    got = weight_enumerator(code)
    got[3] = 0
    got.append(1)
    assert weight_enumerator(code) == want
    assert min_distance(code) == 3 and is_mds(code)


def test_multiplication_matrix(f9):
    for alpha in f9.elements():
        m = LinearizedPoly.scalar(f9, alpha).matrix()
        for x in f9.elements():
            want = list(f9.coords(f9.mul(alpha, x)))
            got = linalg.mat_mul(f9, [list(f9.coords(x))], m)[0]
            assert got == want


def test_rs_blocks_lie_in_spread_with_moment_points(f4):
    code = rs_code(f4, 2)
    system = system_from_code(code)
    for j in range(4):
        pt = desarguesian_membership(f4, system.blocks[j])
        assert pt == (1, j)  # (1, x) at the evaluation point x
    assert desarguesian_membership(f4, system.blocks[4]) == (0, 1)


def test_membership_is_move_invariant(f9):
    rng = random.Random(21)
    code = rs_code(f9, 2)
    system = system_from_code(code)
    points = [desarguesian_membership(f9, blk) for blk in system.blocks]
    mv = random_move(f9, code.n, rng)
    moved_system = system_from_code(apply_move(code, mv))
    for j in range(code.n):
        assert desarguesian_membership(f9, moved_system.blocks[j]) == points[mv.perm[j]]


def test_membership_depends_on_generator_basis(f4):
    code = rs_code(f4, 2)
    rows = list(code.gen)
    rows[1], rows[2] = rows[2], rows[1]  # mix the two message blocks
    mixed = AdditiveCode(f4, rows)
    assert mixed == code  # same code
    mixed_system = system_from_code(mixed)
    members = [desarguesian_membership(f4, blk) for blk in mixed_system.blocks]
    assert any(pt is None for pt in members)


def test_membership_rejections(f9):
    assert desarguesian_membership(f9, [(1, 0, 0, 0)]) is None  # rank 1 < h
    with pytest.raises(ValueError, match="not a multiple of h"):
        desarguesian_membership(f9, [(1, 0, 0), (0, 1, 0)])  # length not h*k
    with pytest.raises(ValueError, match="^ragged generator list$"):
        desarguesian_membership(f9, [(1, 0, 0, 0), (0, 1, 0)])
    assert desarguesian_membership(f9, []) is None
    # a zero generator reads as no point and leaves the member's point alone
    blk = desarguesian_block(f9, (1, 7))
    assert desarguesian_membership(f9, blk + ((0,) * 4,)) == desarguesian_membership(f9, blk)
    assert desarguesian_membership(f9, ((0,) * 4,) + blk) == (1, 7)


def test_desarguesian_block_inverts_membership(f9):
    pts = [(1, 0), (1, 7), (0, 1), (1, 5), (5, 8)]
    for pt in pts:
        blk = desarguesian_block(f9, pt)
        assert len(blk) == f9.h
        got = desarguesian_membership(f9, blk)
        from addmds.geometry import _normalize_point
        assert got == _normalize_point(f9, pt)
    with pytest.raises(ValueError):
        desarguesian_block(f9, (0, 0))


def _trace_block(tower, point):
    """The spread member's generators read off traces: vector l holds
    Tr(omega^l x omega^t) for each x of ``point`` and t < h."""
    return [[tower.trace_to_fq(tower.mul(tower.mul(w, x), v))
             for x in point for v in tower.omega_powers] for w in tower.omega_powers]


@pytest.mark.parametrize("key", [(3, 1, 2), (2, 1, 3), (2, 2, 2)])
def test_desarguesian_block_spans_the_trace_member(key):
    """Every normalised point with k <= 2: the block built from the
    multiplication matrices spans the member read off traces, and
    membership gives the point back."""
    t = conftest.tower(*key)
    points = [(1,)] + [(1, y) for y in range(t.size)] + [(0, 1)]
    for pt in points:
        blk = [list(u) for u in desarguesian_block(t, pt)]
        want = _trace_block(t, pt)
        assert linalg.mat_rank(t, blk) == linalg.mat_rank(t, blk + want) == t.h
        assert desarguesian_membership(t, blk) == pt


def test_project_system_matches_code_shortening(f9):
    """Projection from block j is the system of the code shortened at j,
    dim and blocks equal as given, for every j of scrambled RS codes with
    k = 1..3; and on a system with an empty block and a repeated generator
    the quotient keeps the subspaces and the invariants."""
    for key in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 1, 3)]:
        t = conftest.tower(*key)
        rng = random.Random(str(key) + " shorten")
        for k in (1, 2, 3):
            code = rs_code(t, k)
            code = apply_move(code, random_move(t, code.n, rng))
            system = system_from_code(code)
            for j in range(code.n):
                via_system = project_system(system, j)
                via_code = system_from_code(project(code, {j}))
                assert via_system.dim == via_code.dim == code.k_fq - t.h
                assert via_system.blocks == via_code.blocks
    code = rs_code(f9, 2)
    system = system_from_code(code)
    for j in (0, 3, 9):
        via_system = project_system(system, j)
        via_code = system_from_code(project(code, {j}))
        assert via_system.dim == via_code.dim == code.k_fq - f9.h
        assert system_min_distance(via_system) == system_min_distance(via_code)
        assert is_pseudo_arc(via_system) == is_pseudo_arc(via_code)
    with pytest.raises(ValueError):
        project_system(system, 10)
    plain = list(system.blocks)
    plain[1] = ()
    odd = list(plain)
    odd[2] = plain[2] + (plain[2][0],)  # h + 1 generators, the same span
    plain, odd = (ProjectiveHSystem(f9, system.dim, b) for b in (plain, odd))
    same = project_system(odd, 1)  # the empty block: the identity quotient
    assert same.dim == system.dim and same.blocks == odd.blocks[:1] + odd.blocks[2:]
    for j in range(odd.n):
        via_odd, via_plain = project_system(odd, j), project_system(plain, j)
        assert via_odd == via_plain and via_odd.dim == system.dim - odd.block_rank(j)
        assert system_min_distance(via_odd) == system_min_distance(via_plain)
        assert is_pseudo_arc(via_odd) == is_pseudo_arc(via_plain) == (j == 1)


def test_system_json_roundtrip(f4):
    system = system_from_code(rs_code(f4, 2))
    data = system_to_dict(system)
    again = system_from_dict(data)
    assert again == system and again.blocks == system.blocks
    assert system_from_dict(data, f4).blocks == system.blocks
    for bad, msg in (({}, "lacks field, dim, blocks"), (dict(data, blocks=5), "list of lists"),
                     (dict(data, dim="x"), "dim must be an integer"),
                     (dict(data, blocks=[[5]]), "vectors as lists")):
        with pytest.raises(ValueError, match=msg):
            system_from_dict(bad)


@pytest.mark.parametrize("dim", [True, -2], ids=["bool", "negative"])
def test_system_json_rejects_bad_dim(f4, dim):
    data = dict(system_to_dict(system_from_code(rs_code(f4, 2))), dim=dim)
    with pytest.raises(ValueError, match="^system JSON dim must be an integer >= 0$"):
        system_from_dict(data)
    with pytest.raises(ValueError, match="^system JSON dim must be an integer >= 0$"):
        system_from_dict({"field": data["field"], "dim": dim, "blocks": []})

import random
from functools import lru_cache

import pytest

from addmds import code as code_mod
from addmds import linalg
from addmds.code import (
    AdditiveCode,
    EquivalenceMove,
    InterpolationForm,
    apply_move,
    code_from_dict,
    code_to_dict,
    compose_moves,
    identity_move,
    inverse_move,
    is_mds,
    linear_equivalence_witness,
    min_distance,
    project,
    random_move,
    rs_code,
    to_interpolation_form,
    to_standard_form,
    weight_enumerator,
)
from addmds.errors import BudgetExceeded, NonInvertibleMap, NotMds
from addmds.geometry import (
    ProjectiveHSystem,
    code_from_system,
    system_from_code,
    system_min_distance,
)
from addmds.gf import field_create
from addmds.linpoly import LinearizedPoly, random_invertible
from addmds.search import k4_example_search

import conftest
import oracles


def test_rs_shape_and_distance(f4, f9):
    c4 = rs_code(f4, 2)
    assert (c4.n, c4.k_fq, c4.message_length()) == (5, 4, 2)
    assert min_distance(c4) == 4 and is_mds(c4)
    c9 = rs_code(f9, 3)
    assert (c9.n, c9.k_fq, c9.message_length()) == (10, 6, 3)
    assert min_distance(c9) == 8 and is_mds(c9)


def test_rs_rejects_bad_k(f4):
    with pytest.raises(ValueError):
        rs_code(f4, 0)
    with pytest.raises(ValueError):
        rs_code(f4, 5)


def test_rs_row_structure(f4):
    code = rs_code(f4, 2)
    # row (i*h + l) = omega^l * (evaluations of X^i, then infinity column)
    for i in range(2):
        for l in range(2):
            row = code.gen[i * 2 + l]
            w = f4.omega_powers[l]
            for x in range(4):
                assert row[x] == f4.mul(w, f4.pow_int(x, i))
            assert row[4] == (w if i == 1 else 0)


def test_min_distance_matches_bruteforce(f4, f9):
    rng = random.Random(10)
    codes = [rs_code(f4, 2), rs_code(f4, 3), project(rs_code(f4, 2), {0}),
             rs_code(f9, 2), project(rs_code(f9, 3), {1, 4})]
    for code in codes:
        scr = apply_move(code, random_move(code.tower, code.n, rng))
        for c in (code, scr):
            assert min_distance(c) == oracles.brute_min_distance(c)


def _kernel_cases():
    f8, f9 = conftest.tower(2, 1, 3), conftest.tower(3, 1, 2)
    f16 = conftest.tower(2, 2, 2)
    big = conftest.tower(3, 2, 4)  # 6561 elements: above TABLE_LIMIT, q = 9
    rs9 = rs_code(f9, 2)
    rows = [tuple(big.pow_int(big.omega, 5 * i + 3 * j + 1) for j in range(4))
            for i in range(2)]
    return {
        "F8": rs_code(f8, 2),
        "F16/F4": rs_code(f16, 2),
        "F16/F4 scrambled": apply_move(rs_code(f16, 2),
                                       random_move(f16, 17, random.Random(3))),
        "F3^8, k_fq = 2": AdditiveCode(big, rows),
        "zero coordinates": AdditiveCode(
            f9, [row[:3] + (0,) + row[3:] + (0,) for row in rs9.gen]),
    }


@pytest.mark.parametrize("name", ["F8", "F16/F4", "F16/F4 scrambled",
                                  "F3^8, k_fq = 2", "zero coordinates"])
def test_kernel_matches_oracle(name):
    code = _kernel_cases()[name]
    assert weight_enumerator(code) == oracles.brute_weight_distribution(code)
    assert min_distance(code) == oracles.brute_min_distance(code)
    assert system_min_distance(system_from_code(code)) == min_distance(code)


def test_dependent_rows_give_distance_zero(f9):
    row = rs_code(f9, 2).gen[0]
    code = AdditiveCode(f9, [row, tuple(f9.mul(2, x) for x in row)], check=False)
    assert weight_enumerator(code)[0] == f9.q
    assert min_distance(code) == 0


def _groups(obj):
    """(k, column groups) of a code or a system, as the weight kernels take them."""
    if isinstance(obj, AdditiveCode):
        return obj.k_fq, [[tuple(row[j] for row in obj.gen)] for j in range(obj.n)]
    return obj.dim, obj.blocks


def _fp_input(t, k, groups):
    """(p, F_p matrix, members): the arguments both weight routes take."""
    return (t.p, *code_mod._fp_blocks(t, k, groups))


_ROUTE_CODES = ["F8", "F16/F4", "F16/F4 scrambled", "F3^8, k_fq = 2", "zero coordinates",
                "dependent rows", "k_fq = 0", "RS F9", "RS F16/F4", "RS F25", "RS F27",
                "k4 F25", "k4 F25 scrambled", "k4 F49", "k4 F49 scrambled"]


@lru_cache(maxsize=None)
def _route_code(name):
    if name in ("dependent rows", "k_fq = 0"):
        f9 = conftest.tower(3, 1, 2)
        if name == "k_fq = 0":
            return project(rs_code(f9, 2), range(7))
        row = rs_code(f9, 2).gen[0]
        return AdditiveCode(f9, [row, tuple(f9.mul(2, x) for x in row)], check=False)
    if name.startswith("RS"):
        towers = {"F9": (3, 1, 2), "F16/F4": (2, 2, 2), "F25": (5, 1, 2), "F27": (3, 1, 3)}
        return rs_code(conftest.tower(*towers[name.split()[1]]), 2)
    if name.startswith("k4"):
        p = {"F25": 5, "F49": 7}[name.split()[1]]
        t = conftest.tower(p, 1, 2)
        code = k4_example_search(t, budget=1 << 23).code
        if name.endswith("scrambled"):
            code = apply_move(code, random_move(t, code.n, random.Random(p)))
        return code
    return _kernel_cases()[name]


def _check_routes(obj, twin):
    """The rank route equals the enumeration on ``obj`` and, where the
    brute-force oracle runs, so does ``twin``'s distribution."""
    blocks = _fp_input(obj.tower, *_groups(obj))
    want = code_mod._weight_distribution(*blocks)
    assert code_mod._rank_weight_distribution(*blocks)[0] == want
    if twin.tower.q ** twin.k_fq <= 10 ** 4:
        assert want == oracles.brute_weight_distribution(twin)
    return want


@pytest.mark.parametrize("view", ["code", "system"])
@pytest.mark.parametrize("name", _ROUTE_CODES)
def test_rank_route_matches_enumeration(name, view):
    code = _route_code(name)
    want = _check_routes(code if view == "code" else system_from_code(code), code)
    if name == "dependent rows":
        assert want[0] == 3
    if name.startswith("k4"):
        assert want[:3] == [1, 0, 0] and want[3] > 0  # MDS: d = n - k + 1 = 3


def test_rank_route_on_rank_deficient_block(f9):
    blocks = system_from_code(rs_code(f9, 2)).blocks
    u = blocks[0][0]
    system = ProjectiveHSystem(f9, 4, blocks[1:4] + ((u, tuple(f9.mul(2, c) for c in u)),))
    assert system.block_rank(3) == 1
    _check_routes(system, code_from_system(system))


@pytest.mark.parametrize("zeros, copies, route", [(4, 1, "rank"), (5, 1, "enumeration"),
                                                  (0, 2, "rank, then enumeration")])
def test_weight_route_cost_model(zeros, copies, route, monkeypatch):
    # the F_25 k = 4 example (5^8 messages: at most 976 ranks at
    # _RANK_COST = 400) with zero coordinates in front or every coordinate
    # repeated.  Each zero coordinate doubles the deficient family, and
    # column counts see it: with 4 zeros the walk is 911 ranks, with 5 the
    # 1,823 ranks it is sure to take exceed the cap before any rank.  A
    # repeated coordinate adds live columns but no rank: column counts
    # promise 793 ranks, and the walk crosses the cap after them
    t = conftest.tower(5, 1, 2)
    code = k4_example_search(t).code
    padded = AdditiveCode(t, [(0,) * zeros + row * copies for row in code.gen])
    blocks = _fp_input(t, *_groups(padded))
    want = code_mod._weight_distribution(*blocks)
    seen = {"ranks": 0, "enumerations": 0}
    ranks, enumerate_ = code_mod._subset_ranks, code_mod._weight_distribution

    def counted_ranks(blocks, sets, *args):
        seen["ranks"] += len(sets)
        return ranks(blocks, sets, *args)

    def counted_enumeration(*args):
        seen["enumerations"] += 1
        return enumerate_(*args)

    monkeypatch.setattr(code_mod, "_subset_ranks", counted_ranks)
    monkeypatch.setattr(code_mod, "_weight_distribution", counted_enumeration)
    assert weight_enumerator(padded) == want
    assert want[0] == 1 and sum(want) == t.q ** code.k_fq
    assert seen["ranks"] == {"rank": 911, "enumeration": 0}.get(route, 793)
    assert seen["enumerations"] == (route != "rank")
    assert code_mod._rank_weight_distribution(*blocks)[0] == want


_WALK_TOWERS = {"F4": (2, 1, 2), "F8": (2, 1, 3), "F9": (3, 1, 2),
                "F16/F4": (2, 2, 2), "F25": (5, 1, 2), "F27": (3, 1, 3)}


def _walk_cases(t, rng):
    """(k, groups) inputs of the rank walk: random codes with a zero and a
    repeated coordinate, random systems with blocks of rank < h (fewer or
    dependent generators, or none), and a code with K = 0."""
    fq = t.fq_elements
    cases = [(0, [[()] for _ in range(3)])]
    for k_fq in (1, t.h, t.h + 1, 2 * t.h):
        n = rng.randint(3, 6)
        cols = [tuple(rng.randrange(t.size) for _ in range(k_fq)) for _ in range(n)]
        cols[rng.randrange(n)] = (0,) * k_fq
        cols.insert(rng.randrange(n + 1), cols[rng.randrange(n)])
        cases.append((k_fq, [[c] for c in cols]))
    for dim in (t.h, 2 * t.h):
        blocks = []
        for _ in range(rng.randint(3, 6)):
            blk = [tuple(rng.choice(fq) for _ in range(dim)) for _ in range(rng.randint(0, t.h))]
            if blk and rng.random() < 0.5:
                blk.append(tuple(t.mul(rng.choice(fq), c) for c in blk[0]))
            blocks.append(blk)
        cases.append((dim, blocks))
    return cases


@pytest.mark.parametrize("name", list(_WALK_TOWERS))
def test_rank_walk_matches_level_oracle(name):
    # one padded batch of sure sets, then the continuation from deficient
    # sets of >= K columns, against the walk with one kernel call per level:
    # the same weights, ranks taken and None at every cap
    t = conftest.tower(*_WALK_TOWERS[name])
    rng = random.Random(sum(_WALK_TOWERS[name]))
    continued = 0
    for k, groups in _walk_cases(t, rng):
        weights, ranks = oracles.level_rank_weight_distribution(t, k, groups)
        blocks = _fp_input(t, k, groups)
        assert code_mod._rank_weight_distribution(*blocks) == (weights, ranks)
        if t.q ** k <= 1 << 16:
            assert weights == code_mod._weight_distribution(*blocks)
        _, mat, members = blocks
        sure = code_mod._sure_ranks(members, mat.shape[0])
        continued += ranks > sure
        for cap in sorted({0, ranks // 2, max(sure - 1, 0), sure, max(ranks - 1, 0), ranks}):
            got = code_mod._rank_weight_distribution(*blocks, cap)
            assert got == oracles.level_rank_weight_distribution(t, k, groups, cap)
            assert got == (None if cap < ranks else (weights, ranks))
    assert continued  # some walk ranks past its sure sets


def _move_cases(t, rng):
    """(code, is it MDS) over ``t``: an RS code and a punctured one, and
    non-MDS codes: random rows (k_fq = h + 1) and RS with a repeated coordinate."""
    rs = rs_code(t, 2)
    keep = sorted(rng.sample(range(rs.n), 5))
    rows = [tuple(rng.randrange(t.size) for _ in range(4)) for _ in range(t.h + 1)]
    return [(rs, True), (AdditiveCode(t, [tuple(r[j] for j in keep) for r in rs.gen]), True),
            (AdditiveCode(t, rows, check=False), False),
            (AdditiveCode(t, [r + r[:1] for r in rs.gen]), False)]


@pytest.mark.parametrize("name", list(_WALK_TOWERS))
def test_moves_preserve_weight_distributions(name):
    t = conftest.tower(*_WALK_TOWERS[name])
    rng = random.Random(len(name) + t.size)
    for code, mds in _move_cases(t, rng):
        want = weight_enumerator(code)
        assert is_mds(code) == mds
        for _ in range(3):
            moved = apply_move(code, random_move(t, code.n, rng))
            blocks = _fp_input(t, *_groups(moved))
            assert weight_enumerator(moved) == want
            assert code_mod._weight_distribution(*blocks) == want
            assert code_mod._rank_weight_distribution(*blocks)[0] == want
            assert is_mds(moved) == mds


def test_weight_enumerator(f9):
    code = rs_code(f9, 2)
    enum = weight_enumerator(code)
    assert enum[0] == 1
    assert sum(enum) == f9.q ** code.k_fq
    assert all(enum[w] == 0 for w in range(1, code.n - 1))  # d = n - k + 1


def test_codeword_budget(f9):
    code = rs_code(f9, 3)
    with pytest.raises(BudgetExceeded):
        min_distance(code, budget=100)


def _padded_k4(zeros):
    """The F_25 k = 4 example (5^8 codewords) with ``zeros`` zero coordinates
    in front: its rank walk takes 56 ranks, with 5 zeros 1,823."""
    t = conftest.tower(5, 1, 2)
    return AdditiveCode(t, [(0,) * zeros + row for row in k4_example_search(t).code.gen])


def test_codeword_budget_charges_the_rank_walk():
    code = _padded_k4(0)
    ranks = code_mod._rank_weight_distribution(*_fp_input(code.tower, *_groups(code)))[1]
    cap = ranks * code_mod._RANK_COST
    assert ranks == 56 and cap < 5 ** 8
    with pytest.raises(BudgetExceeded, match=f"^390625 codewords exceed budget {cap - 1}$"):
        is_mds(_padded_k4(0), budget=cap - 1)
    assert is_mds(_padded_k4(0), budget=cap)


@pytest.mark.parametrize("route", ["rank", "enumeration"])
def test_one_fp_matrix_per_weight_distribution(route, monkeypatch):
    # the F_25 k = 4 example walks 56 ranks; RS over F_9 with k = 2 has 81
    # messages, too few to pay for one rank, so it is enumerated
    code = _padded_k4(0) if route == "rank" else rs_code(conftest.tower(3, 1, 2), 2)
    calls = {"_fp_blocks": 0, "_weight_distribution": 0}

    def counted(name):
        fn = getattr(code_mod, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(code_mod, name, counted(name))
    weight_enumerator(code)
    assert calls == {"_fp_blocks": 1, "_weight_distribution": int(route == "enumeration")}


def _budget_outcome(code, budget):
    try:
        return weight_enumerator(code, budget)
    except BudgetExceeded as exc:
        return str(exc)


@pytest.mark.parametrize("zeros", [0, 5], ids=["rank walk", "enumeration"])
def test_codeword_budget_outcome_ignores_the_memo(zeros):
    # a code object that computed its weights under the default budget
    # answers every later budget as a fresh object does
    warm = _padded_k4(zeros)
    weight_enumerator(warm)
    outcomes = []
    for budget in (22399, 22400, 5 ** 8 - 1, 5 ** 8):
        outcomes.append(_budget_outcome(warm, budget))
        assert outcomes[-1] == _budget_outcome(_padded_k4(zeros), budget)
    raised = [isinstance(o, str) for o in outcomes]
    assert raised == ([True, False, False, False] if zeros == 0 else [True, True, True, False])


def test_generator_validation(f4):
    with pytest.raises(ValueError):
        AdditiveCode(f4, [(1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        AdditiveCode(f4, [(1, 2), (1, 2)])  # dependent rows
    with pytest.raises(ValueError):
        AdditiveCode(f4, [], n=None)
    with pytest.raises(ValueError, match="negative"):
        AdditiveCode(f4, [], n=-1)
    empty = AdditiveCode(f4, [], n=4)
    assert empty.k_fq == 0 and not is_mds(empty)


def test_equality_ignores_basis_choice(f4):
    code = rs_code(f4, 2)
    rows = list(code.gen)
    mixed = [rows[0], tuple(f4.add(a, b) for a, b in zip(rows[1], rows[0]))] + rows[2:]
    other = AdditiveCode(f4, mixed)
    assert other == code
    assert hash(other) == hash(code)
    assert AdditiveCode(f4, rows[:2]) != code


def test_message_length_requires_h_divisor(f4):
    code = AdditiveCode(f4, [(1, 0, 1)])
    with pytest.raises(NotMds):
        code.message_length()
    assert not is_mds(code)


def test_project_matches_bruteforce_shortening(f9):
    code = rs_code(f9, 2)
    for positions in [{0}, {3}, {0, 5}]:
        short = project(code, positions)
        keep = [j for j in range(code.n) if j not in positions]
        want = {tuple(w[j] for j in keep)
                for w in oracles.brute_codewords(code)
                if all(w[j] == 0 for j in positions)}
        got = set(oracles.brute_codewords(short))
        assert got == want
    with pytest.raises(ValueError):
        project(code, {99})


def test_field_linearity_detection(f4):
    assert rs_code(f4, 2).is_field_linear()
    assert not AdditiveCode(f4, [(1, 1)]).is_field_linear()
    # scrambling a linear code by a non-scalar map breaks closure
    move = EquivalenceMove((0, 1, 2, 3, 4),
                           (LinearizedPoly(f4, (0, 1)),) +
                           (LinearizedPoly.identity(f4),) * 4)
    assert not apply_move(rs_code(f4, 2), move).is_field_linear()


def _independent_code(t, rng, rows_of):
    """AdditiveCode of the rows ``rows_of()`` makes, drawn again until they
    are F_q-independent."""
    while True:
        try:
            return AdditiveCode(t, rows_of())
        except ValueError:
            pass


def _closed_under_omega(code):
    t = code.tower
    words = set(oracles.brute_codewords(code))
    return all(tuple(t.mul(t.omega, x) for x in w) in words for w in words)


@pytest.mark.parametrize("key", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)],
                         ids=["F4", "F8", "F9", "F16_F4"])
def test_field_linearity_matches_brute_closure(key):
    t = conftest.tower(*key)
    rng = random.Random(f"linear-{key}")
    n = 4

    def vector():
        return [rng.randrange(t.size) for _ in range(n)]

    def span(count):  # the F_{q^h}-span of ``count`` random vectors
        return lambda: [tuple(t.mul(w, x) for x in v)
                        for v in [vector() for _ in range(count)] for w in t.omega_powers]

    codes = [rs_code(t, k) for k in (1, 2)]
    codes += [apply_move(c, random_move(t, c.n, rng)) for c in codes for _ in range(2)]
    codes += [_independent_code(t, rng, span(count)) for count in (1, 2)]
    # random additive codes, h dividing k_fq or not
    codes += [_independent_code(t, rng, lambda: [tuple(vector()) for _ in range(k_fq)])
              for k_fq in (1, t.h - 1, t.h, t.h + 1, 2 * t.h) for _ in range(2)]
    answers = [code.is_field_linear() for code in codes]
    assert answers == [_closed_under_omega(code) for code in codes]
    assert True in answers and False in answers


def test_project_on_no_positions_is_the_code(f9):
    rng = random.Random(9)
    code = rs_code(f9, 2)
    for c in (code, apply_move(code, random_move(f9, code.n, rng)), AdditiveCode(f9, [], n=3)):
        short = project(c, [])
        assert (short.n, short.gen) == (c.n, c.gen) and short == c


def test_structured_basis(f9):
    code = rs_code(f9, 2)
    rows = oracles.field_linear_rows(code)
    assert len(rows) == 2
    # the basis (g_i, omega*g_i) of the rows spans the code again
    again = AdditiveCode(f9, [tuple(f9.mul(w, x) for x in g) for g in rows
                              for w in f9.omega_powers])
    assert again == code


def test_moves_roundtrip(f9):
    rng = random.Random(11)
    code = rs_code(f9, 2)
    for _ in range(10):
        mv = random_move(f9, code.n, rng)
        moved = apply_move(code, mv)
        assert min_distance(moved) == min_distance(code)
        back = apply_move(moved, inverse_move(mv))
        assert back == code
        two = compose_moves(inverse_move(mv), mv)
        assert apply_move(code, two) == code
    assert apply_move(code, identity_move(f9, code.n)).gen == code.gen


def test_move_validation(f9):
    ident = LinearizedPoly.identity(f9)
    with pytest.raises(ValueError):
        EquivalenceMove((0, 0), (ident, ident))
    with pytest.raises(NonInvertibleMap):
        EquivalenceMove((0, 1), (ident, LinearizedPoly.zero(f9)))


def test_interpolation_form_roundtrip(f9):
    rng = random.Random(12)
    code = rs_code(f9, 2)
    form = to_interpolation_form(code)
    assert form.build_code() == code
    scr = apply_move(code, random_move(f9, code.n, rng))
    assert to_interpolation_form(scr).build_code() == scr


@pytest.mark.parametrize("key", [(3, 1, 2), (2, 1, 3), (2, 2, 2)])
def test_map_grid_rows_interpolate_to_their_maps(key):
    """A k x n grid [I | M] of invertible maps, written out by
    ``_rows_from_maps``, interpolates back to M."""
    t = conftest.tower(*key)
    rng = random.Random(sum(key))
    ident, zero = LinearizedPoly.identity(t), LinearizedPoly.zero(t)
    for k, n in ((1, 3), (2, 4), (2, 5), (3, 5)):
        maps = tuple(tuple(random_invertible(t, rng) for _ in range(k)) for _ in range(n - k))
        grid = [[ident if j == i else zero for j in range(k)] + [row[i] for row in maps]
                for i in range(k)]
        code = AdditiveCode(t, code_mod._rows_from_maps(t, grid))
        assert code.k_fq == k * t.h and code.n == n
        assert to_interpolation_form(code).maps == maps


@pytest.mark.parametrize("key", [(3, 1, 2), (7, 1, 2), (2, 2, 2), (2, 3, 2)],
                         ids=["F9", "F49", "F16_F4", "F64_F8"])
def test_map_grid_rows_are_the_map_values(key):
    """``_rows_from_maps`` gives row (i, l) = (M_ij(omega^l))_j, as the scalar
    evaluation ``M(w)`` does, for zero, monomial and random maps."""
    t = conftest.tower(*key)
    rng = random.Random(repr(key))
    maps = [LinearizedPoly.zero(t), LinearizedPoly.identity(t),
            LinearizedPoly.monomial(t, rng.randrange(1, t.size), 1)]
    maps += [LinearizedPoly(t, tuple(rng.randrange(t.size) for _ in range(t.h)))
             for _ in range(20)]
    for k, n in ((1, 1), (2, 3), (3, 4)):
        grid = [[rng.choice(maps) for _ in range(n)] for _ in range(k)]
        assert code_mod._rows_from_maps(t, grid) == tuple(
            tuple(m(w) for m in row) for row in grid for w in t.omega_powers)


def test_interpolation_rejects_non_mds(f4):
    # repetition rows only on the first two coordinates: distance 1 < n
    rows = [(1, 1, 0), (f4.omega, f4.omega, 0), (0, 0, 1),
            (0, 0, f4.omega)]
    code = AdditiveCode(f4, rows)
    with pytest.raises(NotMds, match="information set"):
        to_interpolation_form(code)
    # coordinate 0 is zero in every codeword, so {0, 1} is no information set
    rows = [(0, 1, 1), (0, f4.omega, f4.omega), (0, 0, 1), (0, 0, f4.omega)]
    with pytest.raises(NotMds, match="information set"):
        to_interpolation_form(AdditiveCode(f4, rows))


def test_dimension_zero_code_is_not_mds(f9):
    code = rs_code(f9, 2)
    for kept in (1, 3):
        empty = project(code, range(code.n - kept))
        assert (empty.n, empty.k_fq) == (kept, 0) and not is_mds(empty)
        for fn in (to_standard_form, linear_equivalence_witness):
            with pytest.raises(NotMds, match="k_fq = 0"):
                fn(empty)


# singular maps at (r, i) of a k = 2, n = 5 interpolation form over F_9, and
# the text naming the first of them in (r, i) order: row 0, column 0, interior
_SINGULAR_CASES = {
    "row0": ({(0, 1), (2, 0)}, "interpolation map at (2, 1) is singular"),
    "column0": ({(1, 0), (1, 1), (2, 1)}, "interpolation map at (3, 0) is singular"),
    "interior": ({(1, 1), (2, 0)}, "interpolation map at (3, 1) is singular"),
}


@pytest.mark.parametrize("case", sorted(_SINGULAR_CASES))
def test_not_mds_text_names_the_first_singular_map(f9, case):
    singular, text = _SINGULAR_CASES[case]
    rng = random.Random(sorted(_SINGULAR_CASES).index(case))
    trace = LinearizedPoly(f9, (f9.neg(1), 1))  # X^3 - X vanishes on F_3
    maps = tuple(tuple(trace if (r, i) in singular else random_invertible(f9, rng)
                       for i in range(2)) for r in range(3))
    code = InterpolationForm(f9, 5, 2, maps).build_code()
    # new maps per coordinate keep every singular map where it is
    moved = apply_move(code, EquivalenceMove(tuple(range(5)), tuple(
        random_invertible(f9, rng) for _ in range(5))))
    for c in (code, moved):
        for fn in (to_interpolation_form, to_standard_form, linear_equivalence_witness):
            with pytest.raises(NotMds) as err:
                fn(c)
            assert str(err.value) == text


def test_moves_built_by_the_library_have_invertible_maps(f9):
    rng = random.Random(29)
    codes = [rs_code(f9, 2), rs_code(conftest.tower(2, 1, 3), 3)]
    for t in (conftest.tower(2, 2, 2), conftest.tower(3, 1, 3)):
        codes += [_conj_positive(t, rng), _negative(t, rng)]
    codes = [apply_move(c, random_move(c.tower, c.n, rng)) for c in codes]
    moves = []
    for code in codes:
        form, move = code_mod._standard_form(code)
        assert all(f.is_invertible() for row in form.maps for f in row)
        moves += [move, inverse_move(move), compose_moves(move, inverse_move(move))]
        wit = linear_equivalence_witness(code)
        if wit is not None:
            moves.append(wit.linearizing_move())
    assert len(moves) > 3 * len(codes)
    for move in moves:
        assert all(f.is_invertible() for f in move.maps)
        # the same maps pass the check a move built from outside goes through
        assert EquivalenceMove(move.perm, move.maps) == move
    ident = LinearizedPoly.identity(f9)
    with pytest.raises(NonInvertibleMap):
        EquivalenceMove((0, 1, 2), (ident, LinearizedPoly(f9, (f9.neg(1), 1)), ident))
    # and the shape checks: one map per coordinate, one coordinate per position
    with pytest.raises(ValueError, match="^need one map per coordinate$"):
        EquivalenceMove((0, 1, 2), (ident, ident))
    with pytest.raises(ValueError, match="^move length does not match the code$"):
        apply_move(rs_code(f9, 2), EquivalenceMove((0, 1, 2), (ident,) * 3))


@pytest.mark.parametrize("key, k", [((3, 1, 2), 3), ((5, 1, 2), 2), ((2, 1, 3), 3),
                                    ((2, 2, 2), 2), ((3, 1, 3), 2)],
                         ids=["F9", "F25", "F8", "F16_F4", "F27"])
def test_standard_form_structure(key, k):
    t = conftest.tower(*key)
    rng = random.Random(13)
    ident = LinearizedPoly.identity(t)
    base = rs_code(t, k)
    for _ in range(3):
        code = apply_move(base, random_move(t, base.n, rng))
        std, move = to_standard_form(code)
        assert apply_move(code, move) == std
        form = to_interpolation_form(std)
        assert all(m == ident for m in form.maps[0])          # row k all identity
        assert all(row[0] == ident for row in form.maps)      # column 0 identity
        assert min_distance(std) == min_distance(code)
        # the composed maps are the ones interpolating the standard code gives
        assert code_mod._standard_form(code) == (form, move)


@pytest.mark.parametrize("key", [(3, 1, 2), (2, 1, 3), (3, 1, 3), (2, 2, 2), (5, 1, 2), (2, 3, 2),
                                 (2, 1, 4), (3, 1, 4)],
                         ids=lambda k: "F%d_%d_%d" % k)
def test_eigenvalues_are_the_roots_of_the_dickson_characteristic_polynomial(key):
    # every a != 0 with det(D(m) - aI) = 0, in log order, from the Krylov
    # relations of D' = D(m) in the v coordinates (``_eigenbranches``); the
    # scalar maps cX with c in F_q have D = cI, so each Krylov space is a
    # line and the search needs h start vectors
    t = conftest.tower(*key)
    rng = random.Random(str(key))
    maps = [random_invertible(t, rng) for _ in range(20)]
    maps += [LinearizedPoly.scalar(t, c) for c in t.fq_elements if c]
    for m in maps:
        d = m.dickson()
        want = [a for a in sorted(t.nonzero(), key=t._log.__getitem__) if not linalg.mat_det(
            t, [[t.sub(x, a) if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(d)])]
        dick = [[d[-i][-l] for l in range(t.h)] for i in range(t.h)]
        assert code_mod._eigenvalues(t, dick) == want, m


@pytest.mark.parametrize("key", [(3, 1, 2), (3, 1, 3), (2, 2, 3), (5, 1, 4)],
                         ids=["F9", "F27", "F64_F4", "F625_F5"])
def test_witness_decisions_build_no_fq_matrix(key, monkeypatch):
    # the eigenvalues come from the Dickson matrix that the branches split
    # by, so no map's F_q matrix is built
    t = conftest.tower(*key)
    rng = random.Random(sum(key))
    codes = [(_conj_positive(t, rng), True), (_negative(t, rng), False)]
    codes = [(apply_move(c, random_move(t, c.n, rng)), linearizable) for c, linearizable in codes]
    calls = []
    eigenvalues = code_mod._eigenvalues

    def counted(*args):
        calls.append(args)
        return eigenvalues(*args)

    def forbidden(self):
        raise AssertionError("LinearizedPoly.matrix called")

    monkeypatch.setattr(LinearizedPoly, "matrix", forbidden)
    monkeypatch.setattr(code_mod, "_eigenvalues", counted)
    for code, linearizable in codes:
        wit = linear_equivalence_witness(code)
        assert (wit is not None) == linearizable
        if wit is not None:
            assert apply_move(code, wit.linearizing_move()).is_field_linear()
    assert calls


def test_witness_on_linear_code_is_identity_map(f4):
    wit = linear_equivalence_witness(rs_code(f4, 2))
    assert wit is not None
    assert wit.g == LinearizedPoly.identity(f4)


def test_witness_recovers_scrambled_linear(f9):
    rng = random.Random(14)
    code = rs_code(f9, 3)
    for _ in range(5):
        scr = apply_move(code, random_move(f9, code.n, rng))
        wit = linear_equivalence_witness(scr)
        assert wit is not None
        moved = apply_move(scr, wit.linearizing_move())
        assert moved.is_field_linear()


def _k2_code(tower, maps):
    """k = 2 code with interpolation rows (id, id) and (id, M) for M in maps."""
    ident = LinearizedPoly.identity(tower)
    rows = ((ident, ident),) + tuple((ident, m) for m in maps)
    return InterpolationForm(tower, 2 + len(rows), 2, rows).build_code()


def _conj_positive(tower, rng):
    """Maps g0 o (aX) o g0^-1 for two a outside {0, 1}: linearizable."""
    g0 = random_invertible(tower, rng)
    a1, a2 = rng.sample(range(2, tower.size), 2)
    return _k2_code(tower, [g0.conjugate(a1), g0.conjugate(a2)])


def _negative(tower, rng):
    """Maps cX with F_q(c) = F_{q^h} and an invertible non-monomial f: a g
    with g^-1 o (cX) o g scalar is a monomial, which never makes f scalar."""
    c = rng.choice([x for x in tower.nonzero() if tower.subfield_degree(x) == tower.h])
    ident, cx = LinearizedPoly.identity(tower), LinearizedPoly.scalar(tower, c)
    while True:
        f = random_invertible(tower, rng)
        if (not f.is_monomial() and (f - ident).is_invertible()
                and (f - cx).is_invertible()):
            return _k2_code(tower, [cx, f])


def _witness_cases(name):
    """(codes, whether each is linearizable) for one oracle case."""
    rng = random.Random(61)
    if name == "rs":
        codes = []
        for t in (conftest.tower(3, 1, 2), conftest.tower(5, 1, 2)):
            for k in (2, 3):
                code = rs_code(t, k)
                codes += [code, apply_move(code, random_move(t, code.n, rng))]
        return codes, [True] * len(codes)
    towers = (conftest.tower(2, 2, 2), conftest.tower(3, 1, 3))
    if name in ("conjugate", "negative"):
        build = _conj_positive if name == "conjugate" else _negative
        codes = []
        for t in towers:
            for _ in range(2):
                code = build(t, rng)
                codes += [code, apply_move(code, random_move(t, code.n, rng))]
        return codes, [name == "conjugate"] * len(codes)
    if name == "k4":
        code = k4_example_search(conftest.tower(5, 1, 2)).code
        return [code, project(code, {2}), project(code, {3})], [False, True, True]
    # F_16 over F_2: the singular g = (1, 0, 8, 0) satisfies M o g = g o (7X)
    # before the lex-first invertible witness (1, 0, 8, 4)
    t = field_create(2, 1, 4)
    g0 = LinearizedPoly(t, (15, 12, 9, 15))
    return [_k2_code(t, [g0.conjugate(7)])], [True]


def _check_witness_cases(name):
    codes, expect = _witness_cases(name)
    verdicts = []
    for code in codes:
        wit = linear_equivalence_witness(code)
        assert wit == oracles.brute_linear_witness(code)
        verdicts.append(wit is not None)
    assert verdicts == expect
    if name == "singular":
        assert wit.g.coeffs == (1, 0, 8, 4) and wit.scalars == ((1, 1), (1, 6))
        t, m = wit.g.tower, to_interpolation_form(codes[0]).maps[1][1]
        early = LinearizedPoly(t, (1, 0, 8, 0))
        u = m.compose(early)
        assert u == early.compose(LinearizedPoly.scalar(t, u.coeffs[0]))
        assert not early.is_invertible()


@pytest.mark.parametrize("name", ["rs", "conjugate", "negative", "k4", "singular"])
def test_witness_matches_oracle(name):
    _check_witness_cases(name)


def test_witness_on_f16_over_f2_matches_oracle():
    t = field_create(2, 1, 4)
    rng = random.Random(64)
    for build, linearizable in ((_negative, False), (_conj_positive, True)):
        for _ in range(2):
            code = build(t, rng)
            code = apply_move(code, random_move(t, code.n, rng))
            wit = linear_equivalence_witness(code)
            assert wit == oracles.brute_linear_witness(code)
            assert (wit is not None) == linearizable


def test_witness_on_f81_decides_both_ways():
    # 531,441 candidates, too many for the brute oracle; the fuzz test runs the scan oracle here
    t = field_create(3, 1, 4)
    rng = random.Random(81)
    neg = _negative(t, rng)
    assert linear_equivalence_witness(apply_move(neg, random_move(t, neg.n, rng))) is None
    pos = _conj_positive(t, rng)
    pos = apply_move(pos, random_move(t, pos.n, rng))
    wit = linear_equivalence_witness(pos)
    assert wit is not None and wit.g.is_invertible()
    assert apply_move(pos, wit.linearizing_move()).is_field_linear()


def test_negative_witness_takes_few_inverses():
    t = field_create(3, 1, 3)
    code = _negative(t, random.Random(62))
    code = apply_move(code, random_move(t, code.n, random.Random(63)))
    before = len(t.memo("inverses"))
    assert linear_equivalence_witness(code) is None
    # the standard form inverts at most 2n maps; the decision itself inverts none
    assert len(t.memo("inverses")) - before <= 2 * code.n


def test_witness_candidate_budget(f9):
    # the singular F_16 case: 6 and 7 lie in F_4, so both branches are planes
    # and are walked; the branch of 6 starts with the witness (1, 0, 8, 4),
    # the branch of 7 reads the singular (1, 0, 8, 0) and then one more g
    (code,), _ = _witness_cases("singular")
    for budget in (0, 2):
        with pytest.raises(BudgetExceeded, match=f"^witness walk exceeds budget {budget}$"):
            linear_equivalence_witness(code, budget=budget)
    assert linear_equivalence_witness(code, budget=3).g.coeffs == (1, 0, 8, 4)
    # the one target 2X is an F_3 scalar, so the whole space is walked and
    # its first g, the identity, is the witness
    code = _k2_code(f9, [LinearizedPoly.scalar(f9, 2)])
    with pytest.raises(BudgetExceeded, match="^witness walk exceeds budget 0$"):
        linear_equivalence_witness(code, budget=0)
    assert linear_equivalence_witness(code, budget=1).g == LinearizedPoly.identity(f9)
    # lines are never walked, so never charged
    assert linear_equivalence_witness(rs_code(f9, 2), budget=0) is not None
    assert linear_equivalence_witness(_negative(f9, random.Random(5)), budget=0) is None


def test_witness_on_f256_over_f4_under_the_default_budget():
    # the scan would read 256^3 = 16,777,216 candidates, over the default 2^22
    t = field_create(2, 2, 4)
    rng = random.Random(256)
    neg = _negative(t, rng)
    assert linear_equivalence_witness(apply_move(neg, random_move(t, neg.n, rng))) is None
    pos = _conj_positive(t, rng)
    pos = apply_move(pos, random_move(t, pos.n, rng))
    wit = linear_equivalence_witness(pos)
    assert wit is not None and wit.g.coeffs[0] == 1
    assert apply_move(pos, wit.linearizing_move()).is_field_linear()


def _of_degree(tower, degree, count, rng):
    return rng.sample([x for x in tower.nonzero()
                       if tower.subfield_degree(x) == degree], count)


def _split_map(tower, rng):
    """g0 o T o g0^(-1) for a T whose F_q-matrix in the omega basis is upper
    triangular and not scalar: its characteristic polynomial splits over F_q."""
    fq = tower.fq_elements
    g0 = random_invertible(tower, rng)
    while True:
        values = []
        for l in range(tower.h):
            column = [rng.choice(fq) for _ in range(l)] + [rng.choice(fq[1:])]
            values.append(tower.from_coords(column + [0] * (tower.h - l - 1)))
        t_map = LinearizedPoly.from_values(tower, values)
        if any(t_map.coeffs[1:]) or not tower.in_fq(t_map.coeffs[0]):
            return g0.compose(t_map).compose(g0.inverse())


def _route_cases(tower, route, rng):
    """(code, linearizable) pairs of one kind of k = 2 code.

    - "pivot hit": a conjugate of a scalar of a proper subfield (degree s,
      the largest proper divisor of h) first, then conjugates of scalars a
      with F_q(a) = F_{q^h} by the same g0; or one such conjugate alone;
    - "pivot miss": one such conjugate and a random invertible map;
    - "reducible": a map whose characteristic polynomial splits over F_q
      (``_split_map``) and one such conjugate;
    - "scan": only maps with dependent S^i(1), the subfield conjugate and its
      square, or the Frobenius X^q, which is never a scalar conjugate.
    """
    h = tower.h
    s = max(d for d in range(1, h) if h % d == 0)
    g0 = random_invertible(tower, rng)
    sub = g0.conjugate(_of_degree(tower, s, 1, rng)[0])
    if route == "pivot hit":
        a, b = _of_degree(tower, h, 2, rng)
        return [(_k2_code(tower, [sub, g0.conjugate(a), g0.conjugate(b)]), True),
                (_k2_code(tower, [g0.conjugate(b)]), True)]
    if route == "pivot miss":
        a, = _of_degree(tower, h, 1, rng)
        return [(_k2_code(tower, [g0.conjugate(a), random_invertible(tower, rng)]), False)]
    if route == "reducible":
        a, = _of_degree(tower, h, 1, rng)
        return [(_k2_code(tower, [_split_map(tower, rng), g0.conjugate(a)]), False)]
    return [(_k2_code(tower, [sub, sub.compose(sub)]), True),
            (_k2_code(tower, [LinearizedPoly.monomial(tower, 1, 1)]), False)]


@pytest.mark.parametrize("route", ["pivot hit", "pivot miss", "reducible", "scan"])
@pytest.mark.parametrize("key", [(2, 1, 3), (3, 1, 2), (5, 1, 2), (3, 1, 3), (2, 2, 3),
                                 (2, 1, 4)],
                         ids=["F8", "F9", "F25", "F27", "F64_F4", "F16"])
def test_witness_route_matches_oracle(key, route):
    t = conftest.tower(*key)
    for code, linearizable in _route_cases(t, route, random.Random(sum(key) + len(route))):
        wit = linear_equivalence_witness(code)
        assert wit == oracles.brute_linear_witness(code)
        assert (wit is not None) == linearizable


def _fuzz_code(tower, rng):
    """A seeded k = 2 code with one to three maps, each a conjugate of an
    element of a random subfield degree by one of one or two g0, a random
    invertible map or a monomial; scrambled half of the time."""
    h = tower.h
    g0s = [random_invertible(tower, rng) for _ in range(rng.choice((1, 2)))]
    maps = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(4)
        if kind < 2:
            degree = rng.choice([d for d in range(1, h + 1) if h % d == 0])
            maps.append(rng.choice(g0s).conjugate(_of_degree(tower, degree, 1, rng)[0]))
        elif kind == 2:
            maps.append(random_invertible(tower, rng))
        else:
            c = rng.randrange(1, tower.size)
            maps.append(LinearizedPoly.monomial(tower, c, rng.randrange(h)))
    code = _k2_code(tower, maps)
    if rng.random() < 0.5:
        code = apply_move(code, random_move(tower, code.n, rng))
    return code


def _outcome(decide, code):
    try:
        return decide(code)
    except NotMds:
        return NotMds


@pytest.mark.parametrize("key, count", [((2, 1, 3), 60), ((3, 1, 3), 40), ((2, 1, 4), 20),
                                        ((2, 2, 2), 60), ((3, 1, 4), 16)],
                         ids=["F8", "F27", "F16", "F16_F4", "F81"])
def test_witness_fuzz_matches_oracle(key, count):
    # F_81/F_3 against the batched scan, the rest against the brute oracle
    t = conftest.tower(*key)
    oracle = oracles.scan_linear_witness if t.size == 81 else oracles.brute_linear_witness
    rng = random.Random(7 * sum(key))
    kinds = set()
    for _ in range(count):
        code = _fuzz_code(t, rng)
        got = _outcome(linear_equivalence_witness, code)
        assert got == _outcome(oracle, code)
        kinds.add(got if got in (None, NotMds) else "witness")
    assert {None, "witness"} <= kinds


@pytest.mark.parametrize("key", [(2, 2, 4), (2, 1, 6), (5, 1, 4)],
                         ids=["F256_F4", "F64_F2", "F625_F5"])
def test_witness_on_subfield_only_codes(key):
    # every map conjugates a scalar of one proper subfield F_{q^s}, so no map
    # has independent S^i(1) and the witness comes from a walk of planes or
    # larger branches; a scan would read 256^3, 32^5... candidates
    t = conftest.tower(*key)
    rng = random.Random(sum(key))
    for s in (d for d in range(2, t.h) if t.h % d == 0):
        g0 = random_invertible(t, rng)
        code = _k2_code(t, [g0.conjugate(a) for a in _of_degree(t, s, 2, rng)])
        code = apply_move(code, random_move(t, code.n, rng))
        wit = linear_equivalence_witness(code)
        assert wit is not None and wit.g.coeffs[0] == 1 and wit.g.is_invertible()
        assert apply_move(code, wit.linearizing_move()).is_field_linear()


# ---------------------------------------------------------------------------
# the two decision routes: scalar maps for short codes, int arrays for long ones

_PARITY_TOWERS = {"F9": (3, 1, 2), "F25": (5, 1, 2), "F49": (7, 1, 2), "F8": (2, 1, 3),
                  "F27": (3, 1, 3), "F125": (5, 1, 3), "F16_F4": (2, 2, 2), "F64_F4": (2, 2, 3),
                  "F16_h1": (2, 4, 1), "F16_F2": (2, 1, 4), "F4096_F64": (2, 6, 2),
                  "F6561_F81": (3, 4, 2)}


def _route_outcome(run, *args):
    try:
        return run(*args)
    except (NotMds, BudgetExceeded) as err:
        return type(err), str(err)


def _routes_agree(code, budget=None):
    """Both routes' (standard form, move) and witness, or their NotMds or
    BudgetExceeded text, required equal; the public entry points take
    the route that the code's number of maps selects."""
    forms = [_route_outcome(run, code) for run in (code_mod._scalar_standard_form,
                                                  code_mod._array_standard_form)]
    wits = [_route_outcome(run, code, budget) for run in (code_mod._scalar_witness,
                                                         code_mod._array_witness)]
    assert forms[0] == forms[1]
    assert wits[0] == wits[1]
    assert _route_outcome(code_mod._standard_form, code) == forms[0]
    assert _route_outcome(linear_equivalence_witness, code, budget) == wits[0]
    return wits[0]


def _punctured_rs(t, k, n):
    """The first n coordinates of rs_code(t, k), an MDS code of length n."""
    return AdditiveCode(t, [row[:n] for row in rs_code(t, k).gen], n=n, check=False)


def _map_move(t, n, rng):
    """A random move that keeps every coordinate in place."""
    return EquivalenceMove(tuple(range(n)), random_move(t, n, rng).maps)


def _threshold_codes(t, rng):
    """Codes of exactly _ARRAY_MAPS - 1 and _ARRAY_MAPS maps: k = 1 with
    random invertible maps, and k = 2 with conjugates by one g0 (positive)."""
    codes = []
    for maps in (code_mod._ARRAY_MAPS - 1, code_mod._ARRAY_MAPS):
        rows = tuple((random_invertible(t, rng),) for _ in range(maps))
        sized = [InterpolationForm(t, maps + 1, 1, rows).build_code()]
        if maps % 2 == 0:
            g0 = random_invertible(t, rng)
            sized.append(_k2_code(t, [g0.conjugate(rng.randrange(1, t.size))
                                      for _ in range(maps // 2 - 1)]))
        long = maps >= code_mod._ARRAY_MAPS
        assert [code_mod._long_code(c) for c in sized] == [long] * len(sized)
        codes += [(c, True) for c in sized]
    return codes


@pytest.mark.parametrize("name", list(_PARITY_TOWERS))
def test_decision_routes_agree(name):
    t = conftest.tower(*_PARITY_TOWERS[name])
    rng = random.Random(name)
    rs = _punctured_rs(t, 2, min(t.size + 1, 64))
    codes = [(rs, True), (_conj_positive(t, rng), True)]
    if t.h > 1:  # over F_q itself every code is linear
        codes.append((_negative(t, rng), False))
    # these are MDS, so permuted coordinates interpolate too; the
    # threshold codes need not be, so their moves keep the coordinates
    codes += [(apply_move(c, random_move(t, c.n, rng)), linearizable) for c, linearizable in codes]
    for c, linearizable in _threshold_codes(t, rng):
        codes += [(c, linearizable), (apply_move(c, _map_move(t, c.n, rng)), linearizable)]
    assert any(code_mod._long_code(c) for c, _ in codes)
    for code, linearizable in codes:
        wit = _routes_agree(code)
        assert (wit is not None) == linearizable
        if wit is not None and code_mod._long_code(code):
            assert apply_move(code, wit.linearizing_move()).is_field_linear()


# singular maps of a k = 2 code with 11 trailing coordinates (22 maps), and
# the text naming the first in (r, i) order: row 0, column 0, interior
_LONG_SINGULAR_CASES = {
    "row0": ({(0, 1), (5, 0)}, "interpolation map at (2, 1) is singular"),
    "corner": ({(0, 0), (0, 1)}, "interpolation map at (2, 0) is singular"),
    "column0": ({(4, 0), (4, 1), (7, 1)}, "interpolation map at (6, 0) is singular"),
    "interior": ({(3, 1), (6, 0)}, "interpolation map at (5, 1) is singular"),
}


@pytest.mark.parametrize("name", list(_PARITY_TOWERS))
def test_decision_routes_raise_the_same_not_mds(name):
    t = conftest.tower(*_PARITY_TOWERS[name])
    rng = random.Random(name)
    # X^q - X kills F_q; over F_q itself the zero map is the singular one
    trace = LinearizedPoly(t, (t.neg(1), 1) + (0,) * (t.h - 2) if t.h > 1 else (0,))
    for singular, text in _LONG_SINGULAR_CASES.values():
        maps = tuple(tuple(trace if (r, i) in singular else random_invertible(t, rng)
                           for i in range(2)) for r in range(11))
        code = InterpolationForm(t, 13, 2, maps).build_code()
        assert code_mod._long_code(code)
        for c in (code, apply_move(code, _map_move(t, code.n, rng))):
            assert _routes_agree(c) == (NotMds, text)
            assert _route_outcome(code_mod._array_standard_form, c) == (NotMds, text)
    # coordinates 0 and 1 equal: the first k = 2 coordinates are no information set
    code = _punctured_rs(t, 2, min(t.size + 1, 30))
    code = AdditiveCode(t, [row[:1] + row[:1] + row[2:] for row in code.gen], n=code.n,
                        check=False)
    text = "first k coordinates are not an information set"
    assert _routes_agree(code) == (NotMds, text)
    assert _route_outcome(code_mod._array_standard_form, code) == (NotMds, text)


def test_decision_routes_charge_the_same_walk():
    # every target of a long code is the F_3 scalar 2X over F_9, so the
    # whole space is one branch and is walked; over F_16/F_2 the targets
    # conjugate elements of F_4, so the branches are planes
    f9, f16 = conftest.tower(3, 1, 2), conftest.tower(2, 1, 4)
    rng = random.Random(16)
    g0 = random_invertible(f16, rng)
    codes = [_k2_code(f9, [LinearizedPoly.scalar(f9, 2)] * 10),
             _k2_code(f16, [g0.conjugate(a) for a in _of_degree(f16, 2, 2, rng)] * 5)]
    for code in codes:
        code = apply_move(code, _map_move(code.tower, code.n, rng))
        assert code_mod._long_code(code)
        assert _routes_agree(code, 0) == (BudgetExceeded, "witness walk exceeds budget 0")
        walks = [_routes_agree(code, budget) for budget in range(4)]
        assert isinstance(walks[-1], code_mod.LinearWitness)


def test_long_codes_decide_without_scalar_inverses(monkeypatch):
    # the route is chosen from n and k before any map is inverted: RS codes
    # over F_25 and F_27 (48 and 52 maps) take no LinearizedPoly.inverse,
    # while a k4-verify-shaped code (k = 4, n = 8: 16 maps) and a 6-map
    # code still reach it
    assert code_mod._ARRAY_MAPS > 16
    rng = random.Random(48)

    def scrambled(code):
        return apply_move(code, random_move(code.tower, code.n, rng))

    long_codes = [scrambled(rs_code(conftest.tower(*key), 2)) for key in ((5, 1, 2), (3, 1, 3))]
    short_codes = [scrambled(_punctured_rs(conftest.tower(3, 1, 2), 4, 8)),
                   scrambled(_conj_positive(conftest.tower(5, 1, 2), rng))]

    def forbidden(self):
        raise AssertionError("LinearizedPoly.inverse called")

    monkeypatch.setattr(LinearizedPoly, "inverse", forbidden)
    for code in long_codes:
        assert linear_equivalence_witness(code) is not None
        assert to_standard_form(code)[0].n == code.n
    for code in short_codes:
        assert not code_mod._long_code(code)
        for decide in (linear_equivalence_witness, to_standard_form):
            with pytest.raises(AssertionError, match="LinearizedPoly.inverse called"):
                decide(code)


def test_code_json_roundtrip(f9):
    code = rs_code(f9, 2)
    data = code_to_dict(code)
    again = code_from_dict(data)
    assert again == code and again.gen == code.gen
    assert code_from_dict(data, f9).gen == code.gen
    for bad in ({}, dict(data, n=99), dict(data, k_fq=3),
                {key: v for key, v in data.items() if key != "rows"},
                dict(data, n=-1, k_fq=0, rows=[]), dict(data, k_fq=True, rows=data["rows"][:1]),
                dict(data, n=10.0), dict(data, k_fq="2")):
        with pytest.raises(ValueError):
            code_from_dict(bad)

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

from addmds import code as code_mod
from addmds.cli import _FLAG_ARGS, _VERBS, main
from addmds.code import (
    AdditiveCode,
    EquivalenceMove,
    InterpolationForm,
    apply_move,
    code_to_dict,
    random_move,
    rs_code,
)
from addmds.linpoly import LinearizedPoly, random_invertible

import conftest


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse(stdout):
    return json.loads(stdout)


def strip_timestamp(stdout):
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": null', stdout)


def test_field_report(capsys, tmp_path):
    out_file = tmp_path / "field.json"
    code, out, _ = run(capsys, "field", "--p", "3", "--e", "1", "--h", "2",
                       "--out", str(out_file))
    assert code == 0
    rep = parse(out)
    assert rep["q"] == 3 and rep["size"] == 9
    assert rep["invertible_linearized_maps"] == 48
    assert json.loads(out_file.read_text()) == rep


def test_python_m_addmds_runs(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "addmds", "field", "--p", "3", "--h", "2"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["size"] == 9


@pytest.mark.parametrize("p", ["2", "3"], ids=["F4", "F9"])
def test_streamed_report_reaches_stdout_and_out_alike(tmp_path, p):
    # a real pipe: capsys replaces sys.stdout, so it cannot see the stream;
    # the F_4 report is one batch of encoder chunks, the F_9 report many
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    target = tmp_path / "F"
    proc = subprocess.run([sys.executable, "-m", "addmds", "propm", "--p", p, "--h", "2",
                           "--out", str(target)],
                          cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == target.read_bytes() and json.loads(proc.stdout)["all_ok"] is True


def test_bad_out_path_exits_2_before_any_report(capsys, tmp_path):
    code, out, err = run(capsys, "field", "--p", "3", "--h", "2",
                         "--out", str(tmp_path / "missing" / "field.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


HUGE_P = 2305843009213693951  # 2^61 - 1, prime


@pytest.mark.parametrize("argv", [
    ["field", "--p", str(HUGE_P), "--h", "1"],
    ["field", "--p", "3", "--h", "100000000"],
    ["field", "--p", "2", "--h", "4000000000"],
    ["check-mds", "--in", "huge.json"],
])
def test_huge_tower_exits_2_at_once(tmp_path, f9, argv):
    # a subprocess with a timeout: before the size check came first, these
    # ran trial division of p or built p^(e*h) until killed
    code_json = code_to_dict(rs_code(f9, 2))
    code_json["field"] = {"p": HUGE_P, "e": 1, "h": 1, "modulus": [0, 1], "omega": [1]}
    (tmp_path / "huge.json").write_text(json.dumps(code_json))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "addmds", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: TowerTooLarge") and len(proc.stderr.splitlines()) == 1


def test_propm_battery_over_budget_exits_2_at_once(tmp_path):
    # F_27 has 11232^2 pairs; without the cap the batteries built N x N
    # arrays of about 1 GB each
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "addmds", "propm", "--p", "3", "--h", "3"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: BudgetExceeded: 126157824 pairs exceed budget 4194304\n"


def test_propm_battery_over_budget_calls_no_verifier(capsys, monkeypatch):
    # the zero-coefficient battery runs first and refuses at its pair charge,
    # before it lists a polynomial; no other verifier runs
    from addmds import propm
    for name in ("invertible_linearized", "verify_semilinear_criterion",
                 "verify_two_nonzero_lemma",
                 "verify_lm_prop_implication", "verify_inverse_lemma"):
        monkeypatch.setattr(propm, name, lambda *a, **k: pytest.fail("a verifier ran"))
    code, out, err = run(capsys, "propm", "--p", "3", "--h", "3")
    assert code == 2 and out == ""
    assert err == "error: BudgetExceeded: 126157824 pairs exceed budget 4194304\n"


def test_propm_short_length_calls_no_verifier(capsys, monkeypatch):
    # n < 4 is refused before the batteries, not after three of them ran
    from addmds import propm
    for name in ("invertible_linearized", "verify_zero_coeff_lemma",
                 "verify_semilinear_criterion", "verify_two_nonzero_lemma",
                 "verify_lm_prop_implication", "verify_inverse_lemma"):
        monkeypatch.setattr(propm, name, lambda *a, **k: pytest.fail("a verifier ran"))
    code, out, err = run(capsys, "propm", "--p", "5", "--h", "2", "--n", "3")
    assert code == 2 and out == ""
    assert err == "error: need n >= 4\n"


def test_propm_battery_budget_flag(capsys):
    # F_9: 48^2 = 2304 pairs
    code, out, err = run(capsys, "propm", "--p", "3", "--h", "2", "--budget-candidates", "2303")
    assert code == 2 and out == "" and "2304 pairs exceed budget 2303" in err
    code, out, _ = run(capsys, "propm", "--p", "3", "--h", "2", "--budget-candidates", "2304")
    assert code == 0 and parse(out)["all_ok"] is True


def test_memory_error_exits_2_with_one_line(capsys, monkeypatch):
    # a battery the pair cap admits can still outgrow the machine's memory
    from addmds import propm

    def exhausted(*args, **kwargs):
        raise MemoryError("no room for the orbit classes")
    monkeypatch.setattr(propm, "verify_zero_coeff_lemma", exhausted)
    code, out, err = run(capsys, "propm", "--p", "2", "--h", "2")
    assert code == 2 and out == ""
    assert err == "error: MemoryError: no room for the orbit classes\n"


def test_rs_then_check_mds(capsys, tmp_path):
    rs_file = tmp_path / "rs.json"
    code, out, _ = run(capsys, "rs", "--p", "2", "--e", "1", "--h", "2",
                       "--k", "2", "--out", str(rs_file))
    assert code == 0
    rep = parse(out)
    assert rep["n"] == 5 and rep["codewords"] == 16

    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(rep["code"]))
    code, out, _ = run(capsys, "check-mds", "--in", str(code_file))
    assert code == 0
    rep = parse(out)
    assert rep["min_distance"] == 4 and rep["is_mds"] is True


def test_check_mds_fails_on_non_mds(capsys, tmp_path, f4):
    bad = AdditiveCode(f4, [(1, 1, 0), (2, 2, 0), (0, 0, 1), (0, 0, 2)])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(code_to_dict(bad)))
    code, out, _ = run(capsys, "check-mds", "--in", str(path))
    assert code == 1
    assert parse(out)["is_mds"] is False


def test_project_and_standard_form(capsys, tmp_path, f9):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_dict(rs_code(f9, 2))))
    code, out, _ = run(capsys, "project", "--in", str(path), "--n", "0")
    assert code == 0
    rep = parse(out)
    assert rep["after"] == {"n": 9, "k_fq": 2}
    code, out, _ = run(capsys, "standard-form", "--in", str(path))
    assert code == 0
    assert parse(out)["move_reproduces_form"] is True


def test_standard_form_check_catches_wrong_move(capsys, tmp_path, monkeypatch, f9):
    # scale the last coordinate's map by omega: the moved code is still
    # equivalent, but its interpolation maps are no longer a standard form
    right = code_mod._standard_form

    def wrong(code):
        form, move = right(code)
        scaled = LinearizedPoly.scalar(f9, f9.omega).compose(move.maps[-1])
        return form, EquivalenceMove(move.perm, move.maps[:-1] + (scaled,))

    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_dict(rs_code(f9, 2))))
    monkeypatch.setattr(code_mod, "_standard_form", wrong)
    code, out, _ = run(capsys, "standard-form", "--in", str(path))
    assert code == 1
    assert parse(out)["move_reproduces_form"] is False


def test_standard_form_of_the_whole_space(capsys, tmp_path, f9):
    # n = k = 2 over F_9 (k_fq = 4): no interpolation maps, the identity move
    w = f9.omega
    whole = AdditiveCode(f9, [(1, 0), (w, 0), (0, 1), (0, w)])
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_dict(whole)))
    code, out, err = run(capsys, "standard-form", "--in", str(path))
    assert (code, err) == (0, "")
    rep = parse(out)
    assert rep["move_reproduces_form"] is True
    assert rep["move"]["perm"] == [0, 1]
    code, out, _ = run(capsys, "linear-witness", "--in", str(path))
    assert code == 0
    rep = parse(out)
    assert rep["witness_found"] and rep["g"] == [[1, 0], [0, 0]]
    assert rep["moved_code_is_linear"] is True


def test_linear_witness_on_linear_input(capsys, tmp_path, f4):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_dict(rs_code(f4, 2))))
    code, out, _ = run(capsys, "linear-witness", "--in", str(path))
    assert code == 0
    rep = parse(out)
    assert rep["witness_found"] and rep["g"] == [[1, 0], [0, 0]]
    assert rep["moved_code_is_linear"] is True


def test_linear_witness_on_subfield_only_code(capsys, tmp_path):
    # both maps conjugate scalars of F_16 < F_256 by one g0, so no map has
    # independent M^i(1) and 256^3 candidates g would exceed the default budget
    t = conftest.tower(2, 2, 4)
    rng = random.Random(16)
    g0 = random_invertible(t, rng)
    scalars = rng.sample([x for x in t.nonzero() if t.subfield_degree(x) == 2], 2)
    ident = LinearizedPoly.identity(t)
    rows = ((ident, ident),) + tuple((ident, g0.conjugate(a)) for a in scalars)
    subfield = InterpolationForm(t, 5, 2, rows).build_code()
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_dict(apply_move(subfield, random_move(t, 5, rng)))))
    code, out, err = run(capsys, "linear-witness", "--in", str(path))
    assert code == 0 and err == ""
    rep = parse(out)
    assert rep["witness_found"] and rep["moved_code_is_linear"]


def _scrambled_code(tower, rng, linearizable):
    """Seeded scramble of a k = 2 MDS code: RS when ``linearizable``; else the
    interpolation rows (id, id), (id, cX), (id, f) with F_q(c) = F_{q^h} and f
    not a monomial, which no move makes linear."""
    if linearizable:
        code = rs_code(tower, 2)
    else:
        c = rng.choice([x for x in tower.nonzero() if tower.subfield_degree(x) == tower.h])
        ident, cx = LinearizedPoly.identity(tower), LinearizedPoly.scalar(tower, c)
        f = random_invertible(tower, rng)
        while (f.is_monomial() or not (f - ident).is_invertible()
               or not (f - cx).is_invertible()):
            f = random_invertible(tower, rng)
        rows = ((ident, ident), (ident, cx), (ident, f))
        code = InterpolationForm(tower, 5, 2, rows).build_code()
    return apply_move(code, random_move(tower, code.n, rng))


def _report_digest(stdout):
    report = parse(stdout)
    del report["generated_at"]
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of each report without generated_at, frozen while the witness still
# re-interpolated the standard code; a negative report holds only its verdict
_NO_WITNESS = "cfcd8a97342c2be4ac02895edeb57325ca75cd516c0bacd329e6c1a69e9a0afb"


@pytest.mark.parametrize("key, linearizable, standard_digest, witness_digest", [
    ((3, 1, 2), True, "3e6e3b40af8865b3ce068fef512663de7f058bf8cd475f6651d2beb548ca8d70",
     "4cb78b5956cb2f582607cb4f35374e2ac8baa5e827187576161772f08d3fecdd"),
    ((3, 1, 2), False, "cb8e67b8d2a247e2548f4ab80ff7ffa872b107dfcad9acc1966386e4f6625b51",
     _NO_WITNESS),
    ((5, 1, 2), True, "6cff0448af388ff99a18c90128393e481722706a1613d165622f69e94f5175ea",
     "cba8812d861d635066255e3babd223936d6c3915f1d1e5334937a027a7cc8a8e"),
    ((5, 1, 2), False, "9841cf33bf0318819cdbd6c327a0510b4e3e8ee277a5d5b5d17a04006c56e043",
     _NO_WITNESS),
    ((2, 2, 2), True, "72aae92f840ff380df382e93d3e0c2be5dc6833d2e0f03baf6d514fdbd2d9bbf",
     "c24b58a068c1db89ad267df22a3be1432d3ea208d1f69b26ae575bc064908e16"),
    ((2, 2, 2), False, "de6d67864e88b059c94e612773534fad802f62ee1c6f8801cce5f3a7437ae6f8",
     _NO_WITNESS),
], ids=["F9-rs", "F9-negative", "F25-rs", "F25-negative", "F16_F4-rs", "F16_F4-negative"])
def test_witness_report_digests(capsys, tmp_path, key, linearizable,
                                standard_digest, witness_digest):
    tower = conftest.tower(*key)
    path = tmp_path / "code.json"
    rng = random.Random(sum(key) + linearizable)
    path.write_text(json.dumps(code_to_dict(_scrambled_code(tower, rng, linearizable))))
    code, out, _ = run(capsys, "standard-form", "--in", str(path))
    assert code == 0 and parse(out)["move_reproduces_form"] is True
    assert _report_digest(out) == standard_digest
    code, out, _ = run(capsys, "linear-witness", "--in", str(path))
    assert code == (0 if linearizable else 1)
    assert parse(out)["witness_found"] is linearizable
    assert _report_digest(out) == witness_digest


# sha256 of each report without generated_at, frozen before the generator
# rows were built from one map grid and read back through one F_q expansion;
# every run exits 0
@pytest.mark.parametrize("key, k, digests", [
    ((3, 1, 2), 3, {
        "rs": "e3e91ea3a0b4d80ea92a04ce23adeb18992850291abc7d7b2b3f3e8b834498f7",
        "check-mds": "90b7dd5f2359d35a6aefcd913f85b8ac6c75fb4077c898cf3cd711a5778b94d6",
        "geometry": "b26d47a6638e30ca6bfefb615f01e278c9592dcc62710aeacc0c3862314b47d5",
        "project": "a408f179deb3a1855c7e88521f178ffc5472833b937d5095efad71b316bd37ac",
        "standard-form": "6be9c31057a6a86c463a71ecf3376ce0915659c78d185265a19eacf8de7a17b0",
        "linear-witness": "db42e299ac10d3c9b3762449fdd3c106567be54ea0563b535951ebee3dcce8c6",
    }),
    ((2, 2, 2), 2, {
        "rs": "02b8ad635bca7dcbf4c530f63dcc497d14e5451a4d1344dca39dce1bbab5944d",
        "check-mds": "0de6518b0e6fd8a802c6636b42b6b647a72ea1d9ec7c086cc75e1aba7ac9f231",
        "geometry": "1e0175d761e82e450b38853f09966168dd72be21ef1274a6027453288ccbfc20",
        "project": "88166d4f032004512de3086e19fecba11d449c058055560fd932686f5a3b3a41",
        "standard-form": "7f70f428e62068ffeda3cd126c197144cca83f1311c10e24674f8d07916020cf",
        "linear-witness": "5f2018310720c9b00c7a0c4f8aff5f5210aa09a55d43eaca517009a7a7ce7829",
    }),
    ((2, 1, 3), 2, {
        "rs": "b6ff5ae52a16c0f96e4360df7cf003629c01ee8837ac6b9725e39bc492fd5891",
        "check-mds": "886133279267eaabd44f799c0ec0e0ca7d3a2afca477c00d8dc8e6c81e0b1d3e",
        "geometry": "6a251d1058d6e269afa4f34ca8ab227c1d9d6b5d942ec113745b5c604d21a01b",
        "project": "1592e4139c6bc94983e8bdb0c35dbb18988d374b1d7a462e02672c911e534383",
        "standard-form": "1c836e7d1bd4a726f17131ff576ff304da8471926656113abd108557995804fb",
        "linear-witness": "7bde694494acf74602d05139d7597860dba195f4c715de3403012f11a07f9614",
    }),
])
def test_rs_report_digests(capsys, tmp_path, key, k, digests):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_dict(rs_code(conftest.tower(*key), k))))
    field = [arg for flag, value in zip(("--p", "--e", "--h"), key) for arg in (flag, str(value))]
    argvs = {"rs": ["rs", *field, "--k", str(k)],
             "project": ["project", "--in", str(path), "--n", "1"]}
    for verb, digest in digests.items():
        code, out, _ = run(capsys, *argvs.get(verb, [verb, "--in", str(path)]))
        assert (verb, code, _report_digest(out)) == (verb, 0, digest)


@pytest.mark.parametrize("p, n, hunt_digest, verify_digest", [
    (5, None, "ee6b4581407adc47b0bc1084eae1fddbab149b1c0c6b09e3c75990a1280a0365",
     "cfbd9db02c8cf0c4c9ea9cba76d342906ec32ea73aaa54c2863c88921e5bdcce"),
    (7, 8, "b68ef9b534fc7d24cb90c4738ad3f6a7d2a8f71dc97b8993b3972c9280f24410",
     "3f6726f3142f498b0aa8f7729249af0ff32faab64ebf364dbf48cc6ed80a2673"),
])
def test_k4_report_digests(capsys, tmp_path, p, n, hunt_digest, verify_digest):
    path = tmp_path / "found.json"
    length = [] if n is None else ["--n", str(n)]
    code, out, _ = run(capsys, "hunt-k4", "--p", str(p), "--h", "2", *length, "--out", str(path))
    assert code == 0 and _report_digest(out) == hunt_digest
    code, out, _ = run(capsys, "verify-example", "--in", str(path))
    assert code == 0 and _report_digest(out) == verify_digest


def test_geometry_report(capsys, tmp_path, f4):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_dict(rs_code(f4, 2))))
    code, out, _ = run(capsys, "geometry", "--in", str(path))
    assert code == 0
    rep = parse(out)
    assert rep["pseudo_arc"] is True
    assert rep["distance_bridge_agrees"] is True
    assert rep["block_ranks"] == [2] * 5
    assert all(m is not None for m in rep["spread_membership"])


def test_propm_battery(capsys):
    code, out, _ = run(capsys, "propm", "--p", "2", "--e", "1", "--h", "2")
    assert code == 0
    rep = parse(out)
    assert rep["all_ok"] is True
    assert set(rep["verifiers"]) == {
        "semilinear_criterion", "zero_coefficient_lemma", "two_nonzero_lemma",
        "prop_m_implication", "inverse_lemma_samples"}


def test_propm_battery_default_n_meets_the_lemma_minimum(capsys):
    # F_2 itself: q^h + 1 = 3 is below the lm_prop minimum n = 4
    code, out, err = run(capsys, "propm", "--p", "2", "--h", "1")
    assert (code, err) == (0, "")
    rep = parse(out)
    assert rep["n"] == 4 == rep["verifiers"]["prop_m_implication"]["n"]
    assert rep["all_ok"] is True


def test_propm_pair(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"f": [[1, 0], [0, 0]], "g": [[1, 0], [0, 0]]}))
    code, out, _ = run(capsys, "propm", "--p", "3", "--e", "1", "--h", "2",
                       "--in", str(path))
    assert code == 0
    rep = parse(out)
    assert rep["m"] == 7  # identity pair over F_9
    assert rep["witness"][0] == [[1, 0], [1, 0], [1, 0]]
    assert rep["inverse_lemma"]["ok"] is True


def test_propm_pair_f25(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"f": [[1, 0], [0, 0]], "g": [[1, 0], [0, 0]]}))
    code, out, err = run(capsys, "propm", "--p", "5", "--h", "2", "--in", str(path))
    assert (code, err) == (0, "")
    rep = parse(out)
    assert rep["m"] == 23  # identity pair over F_25: q^h - 2, by the product limit
    assert rep["inverse_lemma"]["ok"] is True


def test_propm_pair_budget_covers_the_inverse_lemma(capsys, tmp_path, monkeypatch):
    # the default lowered to 10 stands in for 2^22; (X, X) over F_9 has 64
    # candidate triples, so only the flag may admit them, in both halves
    from addmds import propm
    monkeypatch.setattr(code_mod, "DEFAULT_CANDIDATE_BUDGET", 10)
    monkeypatch.setattr(propm, "DEFAULT_CANDIDATE_BUDGET", 10, raising=False)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"f": [[1, 0], [0, 0]], "g": [[1, 0], [0, 0]]}))
    argv = ("propm", "--p", "3", "--h", "2", "--in", str(path))
    code, out, err = run(capsys, *argv, "--budget-candidates", "1000")
    assert (code, err) == (0, "") and parse(out)["inverse_lemma"]["ok"] is True
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: BudgetExceeded: 64 candidate triples exceed budget 10\n"


def test_propm_battery_budget_covers_the_inverse_samples(capsys, monkeypatch):
    # the default lowered to 8 stands in for 2^22: F_4's 36 pairs need the
    # flag, and its sampled pairs have 9 triples each, so samples charged
    # to the default, not to the flag, would refuse
    from addmds import propm
    monkeypatch.setattr(code_mod, "DEFAULT_CANDIDATE_BUDGET", 8)
    monkeypatch.setattr(propm, "DEFAULT_CANDIDATE_BUDGET", 8, raising=False)
    code, out, err = run(capsys, "propm", "--p", "2", "--h", "2", "--budget-candidates", "36")
    assert (code, err) == (0, "")
    assert parse(out)["verifiers"]["inverse_lemma_samples"]["ok"] is True


def test_hunt_and_verify(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "hunt-k4", "--p", "5", "--e", "1", "--h", "2")
    assert code == 0
    rep = parse(out)
    assert rep["found"] is True
    assert rep["verification"]["ok"] is True
    found = tmp_path / "found-example.json"
    assert found.exists()

    code, out, _ = run(capsys, "verify-example", "--in", str(found))
    assert code == 0
    assert parse(out)["verification"]["ok"] is True


def test_hunt_exhausted_report(capsys, tmp_path, monkeypatch):
    # a None from the search is a proof that the space holds no example:
    # exit 1, a short report, and no found-example file
    from addmds import search
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(search, "k4_example_search", lambda *args, **kwargs: None)
    code, out, err = run(capsys, "hunt-k4", "--p", "5", "--h", "2", "--n", "5")
    assert (code, err) == (1, "")
    rep = parse(out)
    del rep["generated_at"]
    assert rep == {"command": "hunt-k4", "found": False, "exhausted": True, "n": 5}
    assert list(tmp_path.iterdir()) == []


def test_hunt_f81_verifies_under_the_default_budgets(capsys, tmp_path):
    # 9^8 codewords exceed the default codeword budget; the rank walk fits it
    code, out, _ = run(capsys, "hunt-k4", "--p", "3", "--e", "2", "--h", "2",
                       "--out", str(tmp_path / "ex.json"))
    assert code == 0 and parse(out)["verification"]["ok"] is True


def test_hunt_out_flag(capsys, tmp_path):
    target = tmp_path / "custom.json"
    code, _, _ = run(capsys, "hunt-k4", "--p", "5", "--e", "1", "--h", "2",
                     "--out", str(target))
    assert code == 0 and target.exists()


def test_verify_example_rejects_tampered_file(capsys, tmp_path):
    target = tmp_path / "ex.json"
    run(capsys, "hunt-k4", "--p", "5", "--e", "1", "--h", "2", "--out", str(target))
    data = json.loads(target.read_text())
    data["example"]["code"]["rows"][0][0] = [1, 1]
    target.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify-example", "--in", str(target))
    assert code == 2
    assert "disagrees" in err


def test_malformed_json_diagnostic(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"rows": [1,\n  2,,]}')
    code, _, err = run(capsys, "check-mds", "--in", str(path))
    assert code == 2
    assert "line 2" in err and "column" in err


@pytest.mark.parametrize("change, message", [
    (lambda d: {}, "lacks field, n, k_fq, rows"),
    (lambda d: dict(d, n=99), "n = 99"),
    (lambda d: dict(d, k_fq=3), "k_fq = 3"),
    (lambda d: dict(d, n=-1, k_fq=0, rows=[]), "code JSON n must be a non-negative integer"),
    (lambda d: dict(d, k_fq=True, rows=d["rows"][:1]),
     "code JSON k_fq must be a non-negative integer"),
    (lambda d: dict(d, field={}), "field descriptor lacks p, e, h"),
    (lambda d: dict(d, field=5), "field descriptor must be a JSON object"),
    (lambda d: dict(d, rows=5), "rows must be a list of lists"),
    (lambda d: dict(d, rows=[5] + d["rows"][1:]), "rows must be a list of lists"),
    (lambda d: dict(d, rows=[[5] + d["rows"][0][1:]] + d["rows"][1:]),
     "digit vector must be a list of integers"),
    (lambda d: dict(d, field=dict(d["field"], p="3")), "field descriptor p must be an integer"),
    (lambda d: dict(d, rows=[[["x", 0]] + d["rows"][0][1:]] + d["rows"][1:]),
     "digit vector must be a list of integers"),
    (lambda d: dict(d, field=dict(d["field"], modulus=7)),
     "field descriptor modulus must be a list of integers"),
    (lambda d: dict(d, field=dict(d["field"], omega=[4, 1])),
     "field descriptor omega digits must lie in [0, p)"),
    (lambda d: dict(d, field=dict(d["field"], omega=d["field"]["omega"] + [0])),
     "field descriptor omega must have e*h digits"),
    (lambda d: dict(d, field=dict(d["field"], modulus=[5] + d["field"]["modulus"][1:])),
     "field descriptor modulus digits must lie in [0, p)"),
])
def test_inconsistent_code_json(capsys, tmp_path, f9, change, message):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(change(code_to_dict(rs_code(f9, 2)))))
    code, out, err = run(capsys, "check-mds", "--in", str(path))
    assert code == 2 and out == ""
    assert message in err and len(err.splitlines()) == 1


def test_verify_example_lacking_keys(capsys, tmp_path, f9):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_dict(rs_code(f9, 2))))
    code, out, err = run(capsys, "verify-example", "--in", str(path))
    assert code == 2 and out == ""
    assert "example JSON lacks base, alpha, beta, g, code" in err
    assert len(err.splitlines()) == 1


def test_verify_example_rejects_misshapen_base(capsys, tmp_path):
    target = tmp_path / "ex.json"
    run(capsys, "hunt-k4", "--p", "5", "--e", "1", "--h", "2", "--out", str(target))
    example = json.loads(target.read_text())["example"]
    base = example["base"]
    for bad in (base[:3], base[:3] + [base[3][:5]], [row[:4] for row in base]):
        target.write_text(json.dumps(dict(example, base=bad)))
        code, out, err = run(capsys, "verify-example", "--in", str(target))
        assert code == 2 and out == ""
        assert "base must be 4 rows of one length" in err
    dependent = [row[:1] + row[:1] + row[2:] for row in base]  # columns 0 and 1 equal
    target.write_text(json.dumps(dict(example, base=dependent)))
    code, out, err = run(capsys, "verify-example", "--in", str(target))
    assert code == 2 and "must be independent" in err


def test_propm_pair_lacking_keys(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"f": [[1, 0], [0, 0]]}))
    code, out, err = run(capsys, "propm", "--p", "3", "--e", "1", "--h", "2",
                         "--in", str(path))
    assert code == 2 and out == ""
    assert "pair JSON lacks g" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("pair, key", [
    ({"f": [[0, 0], [0, 0]], "g": [[1, 0], [0, 0]]}, "f"),
    ({"f": [[1, 0], [0, 0]], "g": [[1, 0], [2, 0]]}, "g"),  # X + 2X^3 is singular over F_9
], ids=["zero-f", "singular-g"])
def test_propm_pair_not_invertible(capsys, tmp_path, pair, key):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out, err = run(capsys, "propm", "--p", "3", "--e", "1", "--h", "2",
                         "--in", str(path))
    assert code == 2 and out == ""
    assert f"pair JSON {key} is not an invertible" in err and len(err.splitlines()) == 1


def test_missing_file_and_missing_flags(capsys, tmp_path, f4):
    code, _, err = run(capsys, "check-mds", "--in", str(tmp_path / "none.json"))
    assert code == 2
    code, _, err = run(capsys, "check-mds")
    assert code == 2 and "needs --in" in err
    code, _, err = run(capsys, "rs", "--p", "2", "--e", "1", "--h", "2")
    assert code == 2 and "--k" in err
    rs_file = tmp_path / "rs.json"
    rs_file.write_text(json.dumps(code_to_dict(rs_code(f4, 2))))
    for argv, message in [(("field", "--h", "2"), "this command needs --p and --h"),
                          (("project", "--in", str(rs_file)), "project needs --n"),
                          (("verify-example",), "verify-example needs --in")]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(f"error: {message}"), argv
        assert len(err.splitlines()) == 1


def test_budget_exit(capsys):
    code, _, err = run(capsys, "hunt-k4", "--p", "5", "--e", "1", "--h", "2",
                       "--budget-candidates", "7")
    assert code == 2 and "BudgetExceeded" in err


def test_usage_error_exit(capsys):
    assert main([]) == 2
    assert main(["no-such-verb"]) == 2
    code, _, err = run(capsys, "hunt-k4", "--p", "2", "--e", "2", "--h", "2")
    assert code == 2 and "FieldTooSmall" in err


def test_reports_deterministic(capsys):
    _, out1, _ = run(capsys, "propm", "--p", "2", "--e", "1", "--h", "2",
                     "--seed", "7")
    _, out2, _ = run(capsys, "propm", "--p", "2", "--e", "1", "--h", "2",
                     "--seed", "7")
    assert strip_timestamp(out1) == strip_timestamp(out2)
    _, out3, _ = run(capsys, "hunt-k4", "--p", "5", "--e", "1", "--h", "2",
                     "--out", "/dev/null")
    _, out4, _ = run(capsys, "hunt-k4", "--p", "5", "--e", "1", "--h", "2",
                     "--out", "/dev/null")
    assert strip_timestamp(out3) == strip_timestamp(out4)


@pytest.mark.parametrize("argv", [
    ["field", "--p", "3", "--h", "2", "--k", "99", "--seed", "3"],
    ["rs", "--p", "3", "--h", "2", "--k", "2", "--n", "4"],
    ["check-mds", "--in", "code.json", "--budget-candidates", "5"],
    ["standard-form", "--in", "code.json", "--seed", "1"],
    ["verify-example", "--in", "ex.json", "--p", "5"],
    ["hunt-k4", "--p", "5", "--h", "2", "--in", "ex.json"],
])
def test_foreign_flag_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv, name", [
    (["check-mds", "--in", "none.json", "--budget-codewords", "0"], "budget_codewords"),
    (["linear-witness", "--in", "none.json", "--budget-candidates", "-1"], "budget_candidates"),
    (["hunt-k4", "--p", "5", "--h", "2", "--budget-codewords", "-3"], "budget_codewords"),
])
def test_non_positive_budget_is_a_usage_error(capsys, argv, name):
    # checked before the verb runs: the missing file is never opened
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {name} must be positive\n")


@pytest.mark.parametrize("verb", sorted(_VERBS))
def test_every_verb_takes_only_its_own_flags(capsys, verb):
    flags = _VERBS[verb][1]
    code, out, _ = run(capsys, verb, "--help")
    assert code == 0 and all(f"--{flag}" in out for flag in flags)
    for flag in sorted(set(_FLAG_ARGS) - set(flags)):
        code, out, err = run(capsys, verb, f"--{flag}", "1")
        assert code == 2 and out == "" and "unrecognized arguments" in err, flag


_ODD_VALUES = (None, True, -1, 0, 1, 2, 5, 10 ** 6, 1.5, "3", [], {}, [0], [[0]], {"p": 3})


def _mutate(data, rng):
    """``data`` with one seeded change at a random place: a list entry or a
    key dropped, a list entry doubled, or a leaf replaced by a small int
    (often still a valid digit) or an odd value."""
    if isinstance(data, (dict, list)) and data:
        key = rng.choice(list(data) if isinstance(data, dict) else range(len(data)))
        out = dict(data) if isinstance(data, dict) else list(data)
        roll = rng.random()
        if roll < 0.1:
            del out[key]
        elif roll < 0.15 and isinstance(out, list):
            out.insert(key, out[key])
        else:
            out[key] = _mutate(out[key], rng)
        return out
    if type(data) is int and rng.random() < 0.6:
        return rng.randrange(6)
    return rng.choice(_ODD_VALUES)


@lru_cache(maxsize=None)
def _fuzz_sources():
    """(JSON document, the argv that read it) per input format; no verb
    reads a system, so a system goes where a code is read."""
    f9 = conftest.tower(3, 1, 2)
    code = code_to_dict(rs_code(f9, 2))
    system = {"field": f9.descriptor(), "dim": 4,
              "blocks": [[[f9.digits(1), f9.digits(0)], [f9.digits(0), f9.digits(1)]]]}
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "ex.json")
        assert main(["hunt-k4", "--p", "5", "--h", "2", "--out", out]) == 0
        example = json.loads(Path(out).read_text())
    pair = {"f": [[1, 0], [0, 0]], "g": [[1, 1], [2, 0]]}
    verbs = [["check-mds"], ["standard-form"], ["linear-witness"], ["geometry"],
             ["project", "--n", "1"]]
    return {"code": (code, verbs), "system": (system, verbs[:1] + verbs[3:4]),
            "example": (example, [["verify-example"]]),
            "pair": (pair, [["propm", "--p", "3", "--h", "2"]])}


@pytest.mark.parametrize("kind, count", [("code", 150), ("system", 30), ("example", 60),
                                         ("pair", 100)])
def test_mutated_json_exits_cleanly(capsys, tmp_path, kind, count):
    # every mutant exits 0, 1 or 2 with at most a one-line diagnostic, never a traceback
    data, verbs = _fuzz_sources()[kind]
    rng = random.Random(kind)
    path = tmp_path / "in.json"
    exits = set()
    for _ in range(count):
        mutant = _mutate(data, rng)
        path.write_text(json.dumps(mutant))
        for argv in verbs:
            code, _, err = run(capsys, *argv, "--in", str(path))
            assert code in (0, 1, 2) and len(err.splitlines()) <= 1, (mutant, argv, err)
            exits.add(code)
    assert 2 in exits

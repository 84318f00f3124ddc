"""Batch front-end.

Every subcommand prints one JSON report to stdout (and to ``--out`` when
given).  Reports are deterministic for a fixed configuration except for the
``generated_at`` field.  Exit status: 0 when every assertion in the run
passed, 1 when a mathematical assertion failed, 2 for usage, input or
budget problems.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import nullcontext
from datetime import datetime, timezone
from itertools import chain, islice

from . import geometry, propm, search
from .code import (
    apply_move,
    code_from_dict,
    code_to_dict,
    distance_from_weights,
    is_mds,
    linear_equivalence_witness,
    min_distance,
    project,
    rs_code,
    to_interpolation_form,
    to_standard_form,
    weight_enumerator,
)
from .errors import (
    AddmdsError,
    BudgetExceeded,
    FieldTooSmall,
    InvalidSubfield,
    NotPrime,
    TowerMismatch,
    TowerTooLarge,
)
from .gf import FieldTower, field_create, require_keys
from .linpoly import LinearizedPoly, random_invertible

# exit 2 with one line; MemoryError is an input too large for the machine
USAGE_ERRORS = (BudgetExceeded, FieldTooSmall, NotPrime, TowerTooLarge,
                TowerMismatch, InvalidSubfield, MemoryError)
INVERSE_SAMPLES = 25  # random pairs the propm battery checks the inverse lemma on


def _tower(args: argparse.Namespace) -> FieldTower:
    if args.p is None or args.h is None:
        raise ValueError("this command needs --p and --h (and --e for q = p^e)")
    return field_create(args.p, args.e, args.h)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _load_code(args: argparse.Namespace):
    if args.input is None:
        raise ValueError("this command needs --in with a code JSON file")
    return code_from_dict(_load_json(args.input))


def _emit(args: argparse.Namespace, payload: dict, out: str | None = None) -> None:
    report = {"command": args.command,
              "generated_at": datetime.now(timezone.utc).isoformat()}
    report.update(payload)
    path = out or args.output
    # batched chunks: never the whole text, nor a slow write per chunk; a bad path fails first
    with open(path, "w", encoding="utf-8") if path else nullcontext() as fh:
        chunks = chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(report), "\n")
        while text := "".join(islice(chunks, 1 << 12)):
            sys.stdout.write(text)
            if fh:
                fh.write(text)


# ---------------------------------------------------------------------------
# subcommands; each returns True when every assertion passed

def _cmd_field(args: argparse.Namespace) -> bool:
    t = _tower(args)
    glh = propm.gl_order(t)
    _emit(args, {
        "field": t.descriptor(),
        "q": t.q,
        "size": t.size,
        "omega": t.digits(t.omega),
        "invertible_linearized_maps": glh,
        "dual_basis": [t.digits(x) for x in t.dual_basis()],
    })
    return True


def _cmd_rs(args: argparse.Namespace) -> bool:
    t = _tower(args)
    if args.k is None:
        raise ValueError("rs needs --k")
    code = rs_code(t, args.k)
    _emit(args, {
        "field": t.descriptor(),
        "code": code_to_dict(code),
        "n": code.n,
        "message_length": code.message_length(),
        "codewords": t.size ** code.message_length(),
    })
    return True


def _cmd_check_mds(args: argparse.Namespace) -> bool:
    code = _load_code(args)
    enum = weight_enumerator(code, args.budget_codewords)
    d = distance_from_weights(enum)
    k = code.message_length()
    mds = is_mds(code, args.budget_codewords)
    _emit(args, {
        "n": code.n,
        "message_length": k,
        "codewords": code.tower.size ** k,
        "min_distance": d,
        "singleton_defect": code.n - k + 1 - d,
        "weight_enumerator": enum,
        "is_mds": mds,
    })
    return mds


def _cmd_project(args: argparse.Namespace) -> bool:
    code = _load_code(args)
    if args.n is None:
        raise ValueError("project needs --n with the position to remove")
    shortened = project(code, {args.n})
    _emit(args, {
        "position": args.n,
        "before": {"n": code.n, "k_fq": code.k_fq},
        "after": {"n": shortened.n, "k_fq": shortened.k_fq},
        "code": code_to_dict(shortened),
    })
    return True


def _cmd_standard_form(args: argparse.Namespace) -> bool:
    code = _load_code(args)
    std, move = to_standard_form(code)
    # interpolate the moved code afresh: its row-0 and column-0 maps must be the identity
    maps = to_interpolation_form(std).maps
    one = LinearizedPoly.identity(code.tower).coeffs
    # n = k leaves no maps at all, so there is nothing to check
    ok = all(f.coeffs == one for row in maps[:1] for f in row) and all(
        row[0].coeffs == one for row in maps)
    _emit(args, {
        "code": code_to_dict(std),
        "move": {
            "perm": list(move.perm),
            "maps": [m.to_json() for m in move.maps],
        },
        "move_reproduces_form": ok,
    })
    return ok


def _cmd_linear_witness(args: argparse.Namespace) -> bool:
    code = _load_code(args)
    t = code.tower
    wit = linear_equivalence_witness(code, args.budget_candidates)
    payload = {"witness_found": wit is not None}
    if wit is not None:
        moved = apply_move(code, wit.linearizing_move())
        payload["g"] = wit.g.to_json()
        payload["scalars"] = [[t.digits(c) for c in row] for row in wit.scalars]
        payload["moved_code_is_linear"] = moved.is_field_linear()
    _emit(args, payload)
    return wit is not None and payload["moved_code_is_linear"]


def _cmd_geometry(args: argparse.Namespace) -> bool:
    code = _load_code(args)
    t = code.tower
    system = geometry.system_from_code(code)
    membership = []
    for block in system.blocks:
        pt = geometry.desarguesian_membership(t, block)
        membership.append(None if pt is None else [t.digits(x) for x in pt])
    d_code = min_distance(code, args.budget_codewords)
    d_system = geometry.system_min_distance(system, args.budget_codewords)
    bridge = d_code == d_system
    _emit(args, {
        "system": geometry.system_to_dict(system),
        "block_ranks": [system.block_rank(i) for i in range(len(system.blocks))],
        "pseudo_arc": geometry.is_pseudo_arc(system, args.budget_codewords),
        "spread_membership": membership,
        "min_distance_code": d_code,
        "min_distance_system": d_system,
        "distance_bridge_agrees": bridge,
    })
    return bridge


def _cmd_propm(args: argparse.Namespace) -> bool:
    t = _tower(args)
    if args.input is not None:
        f, g = _load_pair(t, _load_json(args.input))
        m, wit = propm.max_prop_m(f, g, args.budget_candidates)
        inverse = propm.verify_inverse_lemma(f, g, args.budget_candidates)
        _emit(args, {
            "field": t.descriptor(),
            "f": f.to_json(),
            "g": g.to_json(),
            "triples": propm.triple_count(f, g),
            "m": m,
            "witness": [[t.digits(x) for x in tr] for tr in wit.triples],
            "inverse_lemma": inverse,
        })
        return bool(inverse["ok"])
    budget = args.budget_candidates
    n = args.n if args.n is not None else max(t.size + 1, 4)
    if n < 4:  # refused before any battery runs
        raise ValueError("need n >= 4")
    reports = {
        # first: it charges the pair budget before any battery runs
        "zero_coefficient_lemma": propm.verify_zero_coeff_lemma(t, budget),
        "semilinear_criterion": propm.verify_semilinear_criterion(t),
        "two_nonzero_lemma": propm.verify_two_nonzero_lemma(t),
        "prop_m_implication": propm.verify_lm_prop_implication(t, n, budget),
        "inverse_lemma_samples": _inverse_samples(t, args.seed, budget),
    }
    ok = all(r["ok"] for r in reports.values())
    _emit(args, {"field": t.descriptor(), "n": n, "verifiers": reports, "all_ok": ok})
    return ok


def _load_pair(t: FieldTower, data):
    """The (f, g) of a propm pair JSON; ValueError naming a missing key or a
    key whose polynomial is not invertible."""
    require_keys(data, ("f", "g"), "pair JSON", nested=("f", "g"))
    pair = tuple(LinearizedPoly.from_json(t, data[key]) for key in ("f", "g"))
    for key, poly in zip(("f", "g"), pair):
        if not poly.is_invertible():
            raise ValueError(f"pair JSON {key} is not an invertible linearized polynomial")
    return pair


def _inverse_samples(t: FieldTower, seed: int, budget: int | None) -> dict:
    rng = random.Random(seed)
    bad = []
    for _ in range(INVERSE_SAMPLES):
        f = random_invertible(t, rng)
        g = random_invertible(t, rng)
        rep = propm.verify_inverse_lemma(f, g, budget)
        if not rep["ok"]:
            bad.append(rep)
    return {"seed": seed, "samples": INVERSE_SAMPLES, "violations": bad, "ok": not bad}


def _cmd_hunt_k4(args: argparse.Namespace) -> bool:
    t = _tower(args)
    n = args.n if args.n is not None else 6
    ex = search.k4_example_search(t, n=n, budget=args.budget_candidates)
    if ex is None:
        _emit(args, {"found": False, "exhausted": True, "n": n})
        return False
    report = search.verify_k4_example(ex, args.budget_codewords,
                                      args.budget_candidates)
    payload = {
        "found": True,
        "example": search.example_to_dict(ex),
        "verification": report,
    }
    _emit(args, payload, out=args.output or "found-example.json")
    return bool(report["ok"])


def _cmd_verify_example(args: argparse.Namespace) -> bool:
    if args.input is None:
        raise ValueError("verify-example needs --in with a found-example JSON file")
    data = _load_json(args.input)
    if isinstance(data, dict) and "example" in data:
        data = data["example"]
    ex = search.example_from_dict(data)
    report = search.verify_k4_example(ex, args.budget_codewords,
                                      args.budget_candidates)
    _emit(args, {"verification": report})
    return bool(report["ok"])


# each verb: its handler and the flags it reads; any other flag is a usage error
_FIELD = ("p", "e", "h")
_VERBS = {
    "field": (_cmd_field, _FIELD + ("out",)),
    "rs": (_cmd_rs, _FIELD + ("k", "out")),
    "check-mds": (_cmd_check_mds, ("in", "budget-codewords", "out")),
    "project": (_cmd_project, ("in", "n", "out")),
    "standard-form": (_cmd_standard_form, ("in", "out")),
    "linear-witness": (_cmd_linear_witness, ("in", "budget-candidates", "out")),
    "geometry": (_cmd_geometry, ("in", "budget-codewords", "out")),
    "propm": (_cmd_propm, _FIELD + ("n", "budget-candidates", "seed", "in", "out")),
    "hunt-k4": (_cmd_hunt_k4, _FIELD + ("n", "budget-codewords", "budget-candidates", "out")),
    "verify-example": (_cmd_verify_example,
                       ("in", "budget-codewords", "budget-candidates", "out")),
}

_FLAG_ARGS = {
    "p": dict(type=int, help="characteristic"),
    "e": dict(type=int, default=1, help="q = p^e"),
    "h": dict(type=int, help="extension degree over F_q"),
    "k": dict(type=int, help="message length"),
    "n": dict(type=int, help="code length / position / threshold length"),
    "budget-codewords": dict(type=int, dest="budget_codewords"),
    "budget-candidates": dict(type=int, dest="budget_candidates"),
    "seed": dict(type=int, default=0),
    "in": dict(dest="input"),
    "out": dict(dest="output"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addmds",
        description="additive MDS codes: construction, certificates, searches",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, flags) in _VERBS.items():
        # no abbreviations: "--h" on a verb without --h would otherwise mean --help
        sp = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAG_ARGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        for name in ("budget_codewords", "budget_candidates"):
            value = getattr(args, name, None)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        ok = _VERBS[args.command][0](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except USAGE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except AddmdsError as exc:
        print(f"assertion failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: seeded input generation, loading, jobs.

Every workload is a list of jobs.  ``generate(workload, seed)`` builds the
inputs in the repo's JSON formats (``docs/formats.md``): field descriptors,
additive codes, equivalence moves and q-polynomials.  A sample process
loads them with ``load`` (creating every tower with ``field_create``),
runs each job with ``run_job`` and records a canonical answer that holds
only mathematics, never a timing, so answers of one seed can be compared
byte for byte across samples.

Generation uses the library itself (random moves, Dickson invertibility),
in the orchestrating process only; the timed samples see just the JSON.
"""

from __future__ import annotations

import hashlib
import json
import random

import addmds
from addmds import code as code_mod
from addmds import propm
from addmds.linpoly import LinearizedPoly

WORKLOADS = ("k4-verify", "witness-decide", "lemma-battery", "big-tower")

# Explicit budgets.  The F_49, n = 6 hunt space is 42^2 * 49^2 = 4,235,364,
# above the library default of 2^22 candidates.
BUDGETS = {
    "hunt_candidates": 1 << 23,
    "codewords": 1 << 24,
    "witness_candidates": 1 << 22,
}

# (p, e, h) of every tower a workload uses.
TOWERS = {
    "k4-verify": [(5, 1, 2), (7, 1, 2)],
    "witness-decide": [(3, 1, 2), (5, 1, 2), (7, 1, 2), (3, 1, 3), (2, 2, 3), (5, 1, 3)],
    "lemma-battery": [(2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2)],
    "big-tower": [(2, 6, 2), (3, 4, 2)],
}

# witness-decide mix per sample: (tower, count) per construction.  A
# positive's scan stops at a seed-dependent candidate; on F_125 that swings
# one decision between 0.2 and 1.1 s, so F_125 appears as negatives only.
_RS_POSITIVES = [((3, 1, 2), 2), ((5, 1, 2), 2), ((7, 1, 2), 2), ((3, 1, 3), 2)]
_CONJ_POSITIVES = [((3, 1, 3), 4), ((2, 2, 3), 4)]
_NEGATIVES = [((3, 1, 3), 8), ((2, 2, 3), 6), ((5, 1, 3), 3)]

# big-tower: F_{64^2} (4096 elements, tables) and F_{81^2} (6561, none).
_BIG_DECISIONS = [((2, 6, 2), True, 2), ((2, 6, 2), False, 2), ((3, 4, 2), False, 1)]
_BIG_STANDARD_FORMS = [((2, 6, 2), 2), ((3, 4, 2), 2)]

_LEMMAS = [
    ("zero_coeff", (2, 1, 3), None),
    ("zero_coeff", (3, 1, 2), None),
    ("semilinear", (3, 1, 3), None),
    ("lm_prop", (2, 2, 2), 17),
    ("two_nonzero", (3, 1, 3), None),
]
_INVERSE_SAMPLES = ((3, 1, 2), 25)


def gl_order(q: int, h: int) -> int:
    """|GL_h(F_q)|: the number of invertible q-polynomials over F_{q^h}."""
    out = 1
    for i in range(h):
        out *= q ** h - q ** i
    return out


# ---------------------------------------------------------------------------
# JSON helpers in the docs/formats.md shapes

def move_to_json(move) -> dict:
    return {"perm": list(move.perm), "maps": [m.to_json() for m in move.maps]}


def move_from_json(tower, data) -> code_mod.EquivalenceMove:
    return code_mod.EquivalenceMove(
        tuple(data["perm"]),
        tuple(LinearizedPoly.from_json(tower, m) for m in data["maps"]))


def _k2_code(tower, maps):
    """k = 2 code with interpolation rows (id, id) and (id, M) for M in maps."""
    ident = LinearizedPoly.identity(tower)
    rows = [(ident, ident)] + [(ident, m) for m in maps]
    form = code_mod.InterpolationForm(tower, 2 + len(rows), 2, tuple(rows))
    return form.build_code()


def _scrambled(tower, code, rng):
    return code_mod.apply_move(code, code_mod.random_move(tower, code.n, rng))


def _conj_positive(tower, rng):
    """Maps g0 o (aX) o g0^-1 for distinct a outside {0, 1}: linearizable."""
    g0 = addmds.random_invertible(tower, rng)
    a1, a2 = rng.sample(range(2, tower.size), 2)
    return _k2_code(tower, [g0.conjugate(a1), g0.conjugate(a2)])


def _negative(tower, rng):
    """Maps cX and f with F_q(c) = F_{q^h} and f invertible, non-monomial.

    A common g with g^-1 o (cX) o g scalar must be a monomial, and
    conjugating the non-scalar f by a monomial never gives a scalar, so no
    move makes this code linear.  MDS needs f, f - id and f - cX invertible.
    """
    gens = [x for x in tower.nonzero() if tower.subfield_degree(x) == tower.h]
    c = rng.choice(gens)
    ident = LinearizedPoly.identity(tower)
    cx = LinearizedPoly.scalar(tower, c)
    while True:
        f = addmds.random_invertible(tower, rng)
        if (not f.is_monomial() and (f - ident).is_invertible()
                and (f - cx).is_invertible()):
            return _k2_code(tower, [cx, f])


def _decision(tower, code, expect, rng, tag):
    return {"kind": "witness", "tag": tag, "expect": expect,
            "code": code_mod.code_to_dict(_scrambled(tower, code, rng))}


# ---------------------------------------------------------------------------
# generation

def generate(workload: str, seed: int) -> dict:
    """Inputs for one seed: towers, budgets and the job list, as JSON data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    towers = {spec: addmds.field_create(*spec) for spec in TOWERS[workload]}
    jobs = []
    if workload == "k4-verify":
        for spec, n in (((5, 1, 2), 6), ((7, 1, 2), 6), ((7, 1, 2), 8)):
            t = towers[spec]
            jobs.append({"kind": "k4", "field": t.descriptor(), "n": n,
                         "move": move_to_json(code_mod.random_move(t, n, rng))})
    elif workload == "witness-decide":
        for spec, count in _RS_POSITIVES:
            t = towers[spec]
            for _ in range(count):
                jobs.append(_decision(t, addmds.rs_code(t, 2), True, rng, f"rs{t.size}"))
        for spec, count in _CONJ_POSITIVES:
            t = towers[spec]
            for _ in range(count):
                jobs.append(_decision(t, _conj_positive(t, rng), True, rng, f"conj{t.size}"))
        for spec, count in _NEGATIVES:
            t = towers[spec]
            for _ in range(count):
                jobs.append(_decision(t, _negative(t, rng), False, rng, f"neg{t.size}"))
    elif workload == "lemma-battery":
        for name, spec, n in _LEMMAS:
            jobs.append({"kind": "lemma", "verifier": name,
                         "field": towers[spec].descriptor(), "n": n})
        spec, count = _INVERSE_SAMPLES
        t = towers[spec]
        pairs = [{"f": addmds.random_invertible(t, rng).to_json(),
                  "g": addmds.random_invertible(t, rng).to_json()} for _ in range(count)]
        jobs.append({"kind": "inverse", "field": t.descriptor(), "pairs": pairs})
    else:
        for spec, expect, count in _BIG_DECISIONS:
            t = towers[spec]
            for _ in range(count):
                base = _conj_positive(t, rng) if expect else _negative(t, rng)
                tag = ("conj" if expect else "neg") + f"{t.size}"
                jobs.append(_decision(t, base, expect, rng, tag))
        for spec, count in _BIG_STANDARD_FORMS:
            t = towers[spec]
            for _ in range(count):
                jobs.append({"kind": "standard_form", "tag": f"std{t.size}",
                             "code": code_mod.code_to_dict(
                                 _scrambled(t, _conj_positive(t, rng), rng))})
    for i, job in enumerate(jobs):
        job["id"] = i
    return {"workload": workload, "seed": seed, "budgets": dict(BUDGETS),
            "towers": [towers[s].descriptor() for s in TOWERS[workload]],
            "jobs": jobs}


# ---------------------------------------------------------------------------
# loading (the set-up a CLI --in user pays)

def load(inputs: dict):
    """Create every tower with field_create and decode every job's inputs."""
    towers = {}
    for desc in inputs["towers"]:
        t = addmds.field_create(desc["p"], desc["e"], desc["h"])
        if t.descriptor() != desc:
            raise ValueError(f"tower {desc} is not the canonical one")
        towers[json.dumps(desc, sort_keys=True)] = t

    def tower_of(desc):
        return towers[json.dumps(desc, sort_keys=True)]

    loaded = []
    for job in inputs["jobs"]:
        kind = job["kind"]
        if kind == "k4":
            t = tower_of(job["field"])
            obj = (t, job["n"], move_from_json(t, job["move"]))
        elif kind in ("witness", "standard_form"):
            t = tower_of(job["code"]["field"])
            obj = code_mod.code_from_dict(job["code"], t)
        elif kind == "lemma":
            obj = tower_of(job["field"])
        elif kind == "inverse":
            t = tower_of(job["field"])
            obj = [(LinearizedPoly.from_json(t, pair["f"]), LinearizedPoly.from_json(t, pair["g"]))
                   for pair in job["pairs"]]
        else:
            raise ValueError(f"unknown job kind {kind!r}")
        loaded.append(obj)
    return towers, loaded


# ---------------------------------------------------------------------------
# jobs: the timed program calls

def _digest(report) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(job: dict, obj, budgets: dict):
    """Run one job; returns (answer, keep) where keep feeds the later checks."""
    kind = job["kind"]
    if kind == "k4":
        t, n, move = obj
        ex = addmds.k4_example_search(t, n=n, budget=budgets["hunt_candidates"])
        if ex is None:
            return {"found": False}, None
        report = addmds.verify_k4_example(ex, budgets["codewords"], budgets["witness_candidates"])
        moved = addmds.apply_move(ex.code, move)
        system = addmds.system_from_code(moved)
        answer = {
            "found": True,
            "example": {"alpha": t.digits(ex.alpha), "beta": t.digits(ex.beta),
                        "g": ex.g.to_json()},
            "verification": report,
            "min_distance": addmds.min_distance(moved, budgets["codewords"]),
            "weight_enumerator": addmds.weight_enumerator(moved, budgets["codewords"]),
            "system_min_distance": addmds.system_min_distance(system, budgets["codewords"]),
            "pseudo_arc": addmds.is_pseudo_arc(system),
        }
        return answer, None
    if kind == "witness":
        t = obj.tower
        wit = addmds.linear_equivalence_witness(obj, budgets["witness_candidates"])
        answer = {"linearizable": wit is not None,
                  "g": wit.g.to_json() if wit else None,
                  "scalars": [[t.digits(a) for a in row] for row in wit.scalars] if wit else None}
        return answer, wit
    if kind == "standard_form":
        std, move = addmds.to_standard_form(obj)
        return {"code": code_mod.code_to_dict(std), "move": move_to_json(move)}, (std, move)
    if kind == "lemma":
        name = job["verifier"]
        if name == "zero_coeff":
            rep = propm.verify_zero_coeff_lemma(obj)
        elif name == "semilinear":
            rep = propm.verify_semilinear_criterion(obj)
        elif name == "lm_prop":
            rep = propm.verify_lm_prop_implication(obj, job["n"])
        else:
            rep = propm.verify_two_nonzero_lemma(obj)
        summary = {k: v for k, v in rep.items() if not isinstance(v, (list, dict))}
        summary.update(verifier=name, q=obj.q, h=obj.h, sha256=_digest(rep))
        return summary, None
    if kind == "inverse":
        reps = [propm.verify_inverse_lemma(f, g) for f, g in obj]
        return {"oks": [r["ok"] for r in reps], "ms": [r["m"] for r in reps],
                "sha256": _digest(reps)}, None
    raise ValueError(f"unknown job kind {kind!r}")


def post_check_data(job: dict, obj, answer: dict, keep) -> None:
    """Program calls the checks need, made after the timed section.

    Positives must turn field-linear under their linearizing move; a
    standard form must be reproduced by its move and have identity maps in
    row 0 and column 0 of its interpolation form.
    """
    kind = job["kind"]
    if kind == "witness" and keep is not None:
        moved = addmds.apply_move(obj, keep.linearizing_move())
        answer["linear_after_move"] = moved.is_field_linear()
    elif kind == "standard_form":
        std, move = keep
        answer["move_reproduces_form"] = addmds.apply_move(obj, move).gen == std.gen
        form = code_mod.to_interpolation_form(std)
        ident = LinearizedPoly.identity(obj.tower)
        answer["identity_row_and_column"] = (
            all(m == ident for m in form.maps[0])
            and all(row[0] == ident for row in form.maps))
        answer["same_size"] = std.n == obj.n and std.k_fq == obj.k_fq


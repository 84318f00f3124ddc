"""Answer checks: each takes a job and its canonical answer, returns failures.

The expected values come from the job's construction and from closed
forms, never from the program under test:

- an additive MDS code of length n with Q^k codewords over F_Q has the
  MDS weight distribution (MacWilliams-Sloane, Ch. 11), and minimum
  distance d = n - k + 1 by enumeration and by its projective system;
- a witness verdict must match how the code was built, and a positive
  must turn F_{q^h}-linear under its linearizing move;
- a lemma report must be ``ok`` with its pair total fixed by |GL_h(F_q)|.
"""

from __future__ import annotations

from math import comb

from workloads import gl_order

# Values pinned by the repository's acceptance battery (criterion 05, F_9).
PINNED = {("zero_coeff", 3, 2): {"pairs": 2304, "qualifying_pairs": 256, "max_m": 7}}

K4_MESSAGE_LENGTH = 4


def mds_weight_distribution(n: int, k: int, big_q: int):
    """A_0..A_n of any MDS code of length n with big_q^k codewords."""
    d = n - k + 1
    out = [1] + [0] * n
    for w in range(d, n + 1):
        out[w] = comb(n, w) * sum((-1) ** j * comb(w, j) * (big_q ** (w - d + 1 - j) - 1)
                                  for j in range(w - d + 1))
    return out


def _size(desc: dict) -> int:
    return desc["p"] ** (desc["e"] * desc["h"])


def check_k4(job: dict, answer: dict):
    if not answer.get("found"):
        return ["hunt found no example"]
    n, k = job["n"], K4_MESSAGE_LENGTH
    d = n - k + 1
    bad = []
    if not answer["verification"].get("ok"):
        bad.append("verify_k4_example is not ok")
    if answer["weight_enumerator"] != mds_weight_distribution(n, k, _size(job["field"])):
        bad.append("weight enumerator differs from the MDS weight distribution")
    if answer["min_distance"] != d:
        bad.append(f"min_distance {answer['min_distance']} != {d}")
    if answer["system_min_distance"] != d:
        bad.append(f"system_min_distance {answer['system_min_distance']} != {d}")
    if answer["pseudo_arc"] is not True:
        bad.append("is_pseudo_arc is not True on an MDS code")
    return bad


def check_witness(job: dict, answer: dict):
    if answer["linearizable"] != job["expect"]:
        return [f"verdict {answer['linearizable']} but built {job['expect']}"]
    if job["expect"] and answer.get("linear_after_move") is not True:
        return ["positive is not field-linear after linearizing_move()"]
    return []


def check_standard_form(job: dict, answer: dict):
    return [f"standard form: {key} fails"
            for key in ("move_reproduces_form", "identity_row_and_column", "same_size")
            if answer.get(key) is not True]


def check_lemma(job: dict, answer: dict):
    name = job["verifier"]
    q, h = answer["q"], answer["h"]
    bad = [] if answer.get("ok") is True else [f"{name}: report not ok"]
    gl = gl_order(q, h)
    expected = {
        "zero_coeff": ("pairs", gl * gl),
        "lm_prop": ("pairs", gl * gl),
        "semilinear": ("pairs", gl * (q ** h - 1)),
        "two_nonzero": ("two_term_candidates", comb(h, 2) * (q ** h - 1) ** 2),
    }[name]
    key, total = expected
    if answer.get(key) != total:
        bad.append(f"{name}: {key} {answer.get(key)} != {total}")
    for key, value in PINNED.get((name, q, h), {}).items():
        if answer.get(key) != value:
            bad.append(f"{name}: {key} {answer.get(key)} != pinned {value}")
    return bad


def check_inverse(job: dict, answer: dict):
    if len(answer["oks"]) != len(job["pairs"]):
        return ["inverse lemma: sample count differs"]
    failed = answer["oks"].count(False)
    return [f"inverse lemma: {failed} samples not ok"] if failed else []


CHECKS = {"k4": check_k4, "witness": check_witness, "standard_form": check_standard_form,
          "lemma": check_lemma, "inverse": check_inverse}


def check_job(job: dict, answer: dict):
    """Failure messages for one answer; a raised job arrives as {"error": ...}."""
    if "error" in answer:
        return [f"raised: {answer['error']}"]
    try:
        return CHECKS[job["kind"]](job, answer)
    except (KeyError, TypeError) as exc:
        return [f"malformed answer: {exc!r}"]

"""Spans around the calls into each layer of ``addmds``, recorded from outside.

``Tracer.install()`` wraps the public functions a layer offers to the
others and rebinds every module attribute that refers to an original, so
names imported with ``from .code import is_mds`` (as ``search`` does) go
through the wrapper too.  ``LinearizedPoly`` methods are patched on the
class.  Each call records a span (name, start, end, parent, job id).

Per span name the tracer keeps exact aggregates for every call: calls,
total time and self time (the span minus the time its child spans cover).
The raw span records are kept in memory up to ``SPAN_CAP`` and written out
at the end; calls past the cap still count in the aggregates and in
``dropped``.  ``wrapper_cost_ns`` calibrates what one traced call adds, so
a traced run can estimate its own overhead.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# Exact work counts: each maps (args, kwargs, result) of one call to a count.

def _codewords(args, kwargs, result):
    code = args[0]
    return code.tower.q ** code.k_fq


def _messages(args, kwargs, result):
    system = args[0]
    return system.tower.q ** system.dim


def _witness_candidates(args, kwargs, result):
    if result is not None:
        return 0
    t = args[0].tower
    return t.size ** (t.h - 1)


def _witness_negative(args, kwargs, result):
    return 1 if result is None else 0


def _hunt_space(args, kwargs, result):
    t = args[0]
    return (t.size - t.q) ** 2 * t.size ** t.h


# (module, attribute, span name, counters) of the wrapped functions.
FUNCTIONS = [
    ("linalg", "mat_det", "linalg.mat_det", None),
    ("linalg", "mat_rref", "linalg.mat_rref", None),
    ("linalg", "mat_inv", "linalg.mat_inv", None),
    ("linpoly", "invertible_linearized", "linpoly.invertible_linearized", None),
    ("code", "min_distance", "code.enum", {"code.enum.codewords": _codewords}),
    ("code", "weight_enumerator", "code.enum", {"code.enum.codewords": _codewords}),
    ("code", "is_mds", "code.is_mds", None),
    ("code", "project", "code.project", None),
    ("code", "to_standard_form", "code.standard_form", None),
    ("code", "linear_equivalence_witness", "code.witness",
     {"code.witness.negative": _witness_negative,
      "code.witness.candidates": _witness_candidates}),
    ("geometry", "system_min_distance", "geometry.scan",
     {"geometry.scan.messages": _messages}),
    ("geometry", "is_pseudo_arc", "geometry.pseudo_arc", None),
    ("propm", "prop_triples", "propm.prop_triples", None),
    ("propm", "max_prop_m", "propm.max_prop_m", None),
    ("propm", "verify_zero_coeff_lemma", "propm.verifier.zero_coeff", None),
    ("propm", "verify_semilinear_criterion", "propm.verifier.semilinear", None),
    ("propm", "verify_lm_prop_implication", "propm.verifier.lm_prop", None),
    ("propm", "verify_two_nonzero_lemma", "propm.verifier.two_nonzero", None),
    ("propm", "verify_inverse_lemma", "propm.verifier.inverse", None),
    ("search", "k4_example_search", "search.hunt", {"search.hunt.space": _hunt_space}),
    ("search", "verify_k4_example", "search.verify", None),
    ("search", "screen_conditions", "search.screen", None),
    ("search", "mds_screen", "search.screen", None),
]

# (module, class, method, span name): patched on the class.
METHODS = [
    ("gf", "FieldTower", "_build_tables", "gf.build"),
    ("linpoly", "LinearizedPoly", "compose", "linpoly.compose"),
    ("linpoly", "LinearizedPoly", "inverse", "linpoly.inverse"),
    ("linpoly", "LinearizedPoly", "is_invertible", "linpoly.is_invertible"),
]

_FIELDS = 6  # seq, name id, start ns, end ns, parent seq, job id
SPAN_CAP = 100_000  # raw span records kept per tracer


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.total_ns = []
        self.self_ns = []
        self.counters = {}
        self.records = array("q")
        self.dropped = 0
        self.job = -1
        self._seq = 0
        self._stack = []  # frames [seq, child_ns]
        self._undo = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def wrap(self, name: str, fn, counters=None):
        """A wrapper of ``fn`` that records one span per call."""
        nid = self._id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        for cname in counters or ():
            self.counters.setdefault(cname, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            seq = self._seq
            self._seq = seq + 1
            parent = stack[-1][0] if stack else -1
            frame = [seq, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[nid] += 1
                self.total_ns[nid] += dur
                self.self_ns[nid] += dur - frame[1]
                if len(self.records) < SPAN_CAP * _FIELDS:
                    self.records.extend((seq, nid, start, end, parent, self.job))
                else:
                    self.dropped += 1
            if counters:
                for cname, count in counters.items():
                    self.counters[cname] += count(args, kwargs, result)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def install(self):
        """Wrap FUNCTIONS and METHODS of the imported addmds package."""
        import addmds  # noqa: F401  (loads every submodule)

        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "addmds" or key.startswith("addmds."))]
        for modname, attr, name, counters in FUNCTIONS:
            original = getattr(sys.modules[f"addmds.{modname}"], attr)
            wrapped = self.wrap(name, original, counters)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[f"addmds.{modname}"], clsname)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total_s and self_s; plus the counters."""
        spans = {
            name: {"calls": self.calls[i], "total_s": self.total_ns[i] / 1e9,
                   "self_s": self.self_ns[i] / 1e9}
            for i, name in enumerate(self.names)
        }
        return {"spans": spans, "counters": dict(self.counters),
                "recorded": len(self.records) // _FIELDS, "dropped": self.dropped}

    def write(self, path) -> None:
        """Write the summary and the recorded spans (integer rows) as JSON."""
        r = self.records
        rows = [list(r[i:i + _FIELDS]) for i in range(0, len(r), _FIELDS)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": self.summary(),
                       "fields": ["seq", "name", "start_ns", "end_ns", "parent_seq", "job"],
                       "names": self.names, "spans": rows}, fh)


def wrapper_cost_ns() -> float:
    """Median extra time in ns that one traced call takes over a bare call."""
    calls, repeats = 20_000, 3

    def bare():
        return None

    traced = Tracer().wrap("calibrate", bare)
    clock = time.perf_counter_ns
    costs = []
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            bare()
        mid = clock()
        for _ in range(calls):
            traced()
        end = clock()
        costs.append(((end - mid) - (mid - start)) / calls)
    return sorted(costs)[repeats // 2]

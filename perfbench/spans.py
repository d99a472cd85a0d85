"""Span tracing of the library layers, for the traced run only.

``Tracer.install`` replaces each hooked library function by a timing
wrapper in every ``schurmult`` module that holds a reference to it, so the
wrapper runs wherever callers look the name up (``solver.orbit_char_x``,
``cli.weyl_character_u``, the recursive ``schur.elementary_schur``, ...).
The polynomial product is hooked on the class that defines ``__mul__`` for
``XPoly``.  Spans stay in memory as ``[name, parent, start, end, outer,
info]`` lists and are written out once, at the end of the run.  End-to-end
metrics are never measured with a tracer installed.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

# (module, function, span name)
HOOKS = (
    ("solver", "solve_multiplicities", "solver.solve"),
    ("lattice", "sub_Q_lambda1", "lattice.sub_Q_lambda1"),
    ("orbitchar", "orbit_char_x", "orbitchar.orbit_char_x"),
    ("orbitchar", "reduce_to_generators", "orbitchar.reduce_to_generators"),
    ("orbitchar", "generator_to_x", "orbitchar.generator_to_x"),
    ("schur", "generalized_schur", "schur.generalized_schur"),
    ("schur", "elementary_schur", "schur.elementary_schur"),
    ("polyengine", "poly_det", "polyengine.poly_det"),
    ("polyengine", "poly_divide_exact", "polyengine.poly_divide_exact"),
    ("weyl", "alternant_matrix", "weyl.alternant_matrix"),
    ("weyl", "weyl_character_u", "weyl.weyl_character_u"),
    ("weyl", "verify_factorization", "weyl.verify_factorization"),
    ("oracle", "freudenthal", "oracle.freudenthal"),
    ("oracle", "kostka_multiplicity", "oracle.kostka_multiplicity"),
)
MUL_SPAN = "polyengine.mul"
# Results of these calls inside a solve make up its monomial support.
_SUPPORT_SPANS = ("orbitchar.orbit_char_x", "schur.generalized_schur")


class Tracer:
    """Records one span per hooked call while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._supports: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import schurmult
        from schurmult import polyengine

        modules = [m for n, m in sys.modules.items() if n.startswith("schurmult") and m]
        for mod_name, attr, span in HOOKS:
            original = getattr(getattr(schurmult, mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(span, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, value))
                        setattr(mod, name, wrapper)
        owner = next(c for c in polyengine.XPoly.__mro__ if "__mul__" in vars(c))
        self._undo.append((owner, "__mul__", vars(owner)["__mul__"]))
        owner.__mul__ = self._wrap(MUL_SPAN, vars(owner)["__mul__"])
        if self.missing:
            print(f"trace: hook points not found: {', '.join(self.missing)}", file=sys.stderr)

    def uninstall(self) -> None:
        for target, name, value in reversed(self._undo):
            setattr(target, name, value)
        self._undo.clear()

    def op(self, kind: str, fn, *args):
        """Run one timed benchmark call as a root span ``op:<kind>``."""
        return self._wrap("op:" + kind, fn)(*args)

    def _wrap(self, name: str, fn):
        spans, stack, depth, supports = self.spans, self._stack, self._depth, self._supports
        is_solve = name == "solver.solve"
        feeds_support = name in _SUPPORT_SPANS

        @wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, depth[name] == 0, None]
            stack.append(len(spans))
            spans.append(record)
            depth[name] += 1
            if is_solve:
                supports.append([])
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                depth[name] -= 1
                stack.pop()
                collected = supports.pop() if is_solve else None
            if is_solve:
                monomials = set()
                for poly in collected:
                    monomials.update(poly.terms)
                record[5] = (len(monomials), len(result))
            elif feeds_support:
                if supports:
                    supports[-1].append(result)
                if name == "orbitchar.orbit_char_x":
                    record[5] = len(result.terms)
            elif name == "lattice.sub_Q_lambda1":
                record[5] = len(result)
            return result

        return wrapper


def rebase(spans: list[list], offset: int) -> list[list]:
    """Spans of another process, with ids shifted to follow ``offset`` spans."""
    return [
        [s[0], s[1] + offset if s[1] >= 0 else -1, s[2], s[3], s[4], s[5]] for s in spans
    ]


def summarize(spans: list[list], ops: int) -> dict[str, float]:
    """Per-layer metrics per timed call.

    Times are seconds per call: inclusive for a layer entry point (outermost
    span of that name only), self time (duration minus direct children) where
    the metric says ``self``.  Counts are per call; ``class_size``, ``rows``
    and ``unknowns`` are means per solve.
    """
    child_time: dict[int, float] = defaultdict(float)
    has_child: set[int] = set()
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[3] - s[2]
            has_child.add(s[1])
    incl: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    infos: dict[str, list] = defaultdict(list)
    generalized_hits = 0
    for i, s in enumerate(spans):
        name, dur = s[0], s[3] - s[2]
        calls[name] += 1
        self_t[name] += dur - child_time[i]
        if s[4]:
            incl[name] += dur
        if s[5] is not None:
            infos[name].append(s[5])
        if name == "schur.generalized_schur" and i not in has_child:
            generalized_hits += 1

    per = 1.0 / max(ops, 1)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    solves = infos["solver.solve"]
    return {
        "lattice.self_s": self_t["lattice.sub_Q_lambda1"] * per,
        "lattice.class_size": mean(infos["lattice.sub_Q_lambda1"]),
        "orbitchar.reduce_s": incl["orbitchar.reduce_to_generators"] * per,
        "orbitchar.gen_to_x_s": incl["orbitchar.generator_to_x"] * per,
        "orbitchar.column_terms": sum(infos["orbitchar.orbit_char_x"]) * per,
        "solver.self_s": self_t["solver.solve"] * per,
        "solver.rows": mean([rows for rows, _ in solves]),
        "solver.unknowns": mean([unknowns for _, unknowns in solves]),
        "schur.elementary_s": incl["schur.elementary_schur"] * per,
        "schur.generalized_s": incl["schur.generalized_schur"] * per,
        "schur.generalized_hit_ratio": (
            generalized_hits / calls["schur.generalized_schur"]
            if calls["schur.generalized_schur"]
            else 0.0
        ),
        "weyl.alternant_s": incl["weyl.alternant_matrix"] * per,
        "weyl.character_s": incl["weyl.weyl_character_u"] * per,
        "weyl.verify_s": incl["weyl.verify_factorization"] * per,
        "oracle.freudenthal_s": incl["oracle.freudenthal"] * per,
        "oracle.kostka_s": incl["oracle.kostka_multiplicity"] * per,
        "polyengine.mul_calls": calls[MUL_SPAN] * per,
        "polyengine.mul_s": incl[MUL_SPAN] * per,
        "polyengine.divide_exact_calls": calls["polyengine.poly_divide_exact"] * per,
        "polyengine.divide_exact_s": incl["polyengine.poly_divide_exact"] * per,
        "polyengine.det_s": incl["polyengine.poly_det"] * per,
        "cli.self_s": self_t["op:audit"] * per,
    }


def write(spans: list[list], path) -> None:
    """Spans as gzipped JSON lines ``[id, parent, name, start, end, info]``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps([i, s[1], s[0], s[2], s[3], s[5]]) + "\n")

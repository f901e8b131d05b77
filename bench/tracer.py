"""Layer tracing for the benchmark's traced run.

``Tracer.install`` wraps the public functions of each ``superloop``
module from outside the package: nothing under ``src/`` knows about it.
Two kinds of wrapper exist.

* A *span* records name, start, end and the enclosing span, keeps the
  record in memory, and accumulates self time: its duration minus the
  time its child spans cover.  Spans sit at layer boundaries.
* An *op* counts a hot operation (scalar arithmetic, ``Elem`` and
  ``Mat`` products) and its inclusive time without opening a span, so
  its time stays inside the self time of the enclosing span and is also
  reported on its own.  Op counts and times are aggregated per
  enclosing span name as well.

Spans go to disk once, in ``write_spans``, after the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import weakref
from collections import Counter, defaultdict
from time import perf_counter

SCALAR_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add", "__neg__": "add",
    "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div", "__rtruediv__": "div",
    "__pow__": "pow",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id or -1, name, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_calls: Counter = Counter()
        self.op_s: dict[str, float] = defaultdict(float)
        self.op_by_span: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.scalar_max_terms = 0
        self.incl_s: dict[str, float] = defaultdict(float)  # outermost calls only
        self._depth: Counter = Counter()
        self._stack: list[list] = []  # [id, name, child seconds]
        self._ids = itertools.count()
        self._active_ops: set[str] = set()
        self._currents: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- wrappers ------------------------------------------------------

    def span(self, name, fn, on_result=None):
        stack, spans, self_s, calls = self._stack, self.spans, self.self_s, self.calls
        depth, incl_s = self._depth, self.incl_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(self._ids), name, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                self_s[name] += duration - frame[2]
                if not depth[name]:
                    incl_s[name] += duration
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                spans.append((frame[0], parent, name, start, end))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def op(self, name, fn, group=None, bucket=None, on_result=None):
        """Count and time ``fn`` without a span; nested calls of ``group`` count once."""
        group = group or name
        active, stack = self._active_ops, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if group in active:
                return fn(*args, **kwargs)
            active.add(group)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                active.discard(group)
            if result is NotImplemented:
                return result
            key = name if bucket is None else f"{name}.{bucket(*args)}"
            self.op_calls[key] += 1
            self.op_s[key] += elapsed
            per_span = self.op_by_span[(stack[-1][1] if stack else "-", key)]
            per_span[0] += 1
            per_span[1] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap the layers of the ``superloop`` package."""
        from superloop import cli, coeffs, linalg, modrep, pbw, superfree, weyl

        modules = [coeffs, linalg, superfree, pbw, modrep, weyl, cli]
        count = self.counts

        def patch(module, attr, wrapped):
            # modules import each other's names, so rebind every reference
            original = getattr(module, attr)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)

        def span(module, attr, name, on_result=None):
            patch(module, attr, self.span(name, getattr(module, attr), on_result))

        def method_span(cls, attr, name, on_result=None):
            setattr(cls, attr, self.span(name, getattr(cls, attr), on_result))

        def tally(key, size=len):
            def on_result(args, result):
                count[key] += size(result)

            return on_result

        # coeffs: scalar arithmetic as ops, series and gcd as spans
        scalar_type = coeffs.Scalar

        def size(x):
            return len(x.numer) + len(x.denom) if type(x) is scalar_type else 1

        def terms(args, result):
            # term products of the operands: a machine-independent measure of the work
            work = 1
            for x in args:
                work *= size(x)
            count["coeffs.scalar_term_products"] += work
            n = size(result)
            if n > self.scalar_max_terms:
                self.scalar_max_terms = n

        for attr, kind in SCALAR_OPS.items():
            setattr(scalar_type, attr, self.op(
                f"coeffs.scalar_{kind}", getattr(scalar_type, attr), group="scalar", on_result=terms
            ))
        span(coeffs, "expand_ratio", "coeffs.expand_ratio")
        span(coeffs, "poly_gcd", "coeffs.poly_gcd")

        # linalg
        setattr(linalg.Mat, "__mul__", self.op(
            "linalg.mat_mul", linalg.Mat.__mul__, bucket=lambda a, b: f"dim{a.nrows}"
        ))

        def reducer_add(args, grew):
            count["linalg.reducer_adds"] += 1
            count["linalg.reducer_useful"] += int(grew)

        method_span(linalg.RowReducer, "add", "linalg.reducer", on_result=reducer_add)
        method_span(linalg.RowReducer, "reduce", "linalg.reducer")
        method_span(linalg.RowReducer, "contains", "linalg.reducer")
        span(linalg, "solve_span", "linalg.solve_span",
             on_result=tally("linalg.solve_span_hits", lambda sol: int(sol is not None)))
        span(linalg, "kron_super", "linalg.kron_super")
        span(linalg, "joint_nullspace", "linalg.joint_nullspace")

        # superfree
        setattr(superfree.Elem, "__mul__", self.op("superfree.elem_mul", superfree.Elem.__mul__))
        span(superfree, "relation_elem", "superfree.relation_elem")
        span(superfree, "mu_recursion_certificate", "superfree.mu_certificate")
        span(superfree, "_guided_reduce", "superfree.guided_reduce")
        span(superfree, "lambda_elem", "superfree.lambda_mu_build")
        span(superfree, "mu_elem", "superfree.lambda_mu_build")
        span(superfree, "appendixA_check", "superfree.appendix_a")

        # pbw
        span(pbw, "enumerate_pbw", "pbw.enumerate", on_result=tally("pbw.monomials"))
        span(pbw, "all_words", "pbw.enumerate", on_result=tally("pbw.words"))
        span(pbw, "monomial_elem", "pbw.monomial_elem")

        # modrep
        currents = self._currents

        def distinct(args, result):
            module, key = args
            seen = currents.setdefault(module, set())
            if key not in seen:
                seen.add(key)
                count["modrep.distinct_currents"] += 1

        method_span(modrep.LoopModule, "elem_matrix", "modrep.elem_matrix")
        method_span(modrep.LoopModule, "gen", "modrep.gen", on_result=distinct)
        span(modrep, "highest_weight", "modrep.highest_weight")
        span(modrep, "check_coproduct_formula", "modrep.coproduct")
        span(modrep, "cartan_coproduct_constants", "modrep.coproduct")
        span(modrep, "relation_report", "modrep.relation_report")

        # weyl
        span(weyl, "series_to_torsion", "weyl.series_to_torsion")
        span(weyl, "torsion_to_series", "weyl.torsion_to_series")
        span(weyl, "monoid_product", "weyl.monoid_product")
        span(weyl, "star_product_window", "weyl.star_product")

        # cli: main's self time is argument parsing and serialisation
        for suite in list(cli.SUITES):
            cli.SUITES[suite] = self.span("cli.suite", cli.SUITES[suite])
        span(cli, "run", "cli.suite")
        span(cli, "main", "cli.main")

    # -- results -------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, name, start, end]) + "\n")

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "op_calls": dict(self.op_calls),
            "op_s": dict(self.op_s),
            "op_by_span": {f"{s} {k}": v for (s, k), v in sorted(self.op_by_span.items())},
            "scalar_max_terms": self.scalar_max_terms,
            "spans": len(self.spans),
        }

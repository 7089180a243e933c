"""Per-layer spans, recorded from outside the program.

``Tracer`` wraps the public functions of charvar's modules at every module
attribute that binds them (``rank_at`` and ``twisted_betti`` are imported
into several modules, and some are imported late from inside functions,
which reads the module attribute at call time).  Each call records a span
with its name, start, end and parent, plus counters computed from the
arguments or the result.  ``restore`` puts every original back, so untraced
timings never run through a wrapper.

A span's self time is its duration minus the durations of its child spans;
children nest inside their parent because the program is single-threaded.
Time the wrappers spend computing counters is excluded from every span
around them.

``laurent`` is observed only through the matrices handed to ``lmatrix``
and ``intlinalg``: wrapping its per-term operators, which run millions of
times, would distort the traced run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# -- counters ---------------------------------------------------------------


def _cells(matrix) -> int:
    return matrix.rows * matrix.cols


def _terms(matrix) -> int:
    return sum(len(p.terms) for row in matrix.entries for p in row)


def _max_span(matrix) -> int:
    return max((p.degree_span(0) for row in matrix.entries for p in row
                if p.terms), default=0)


def _grid_cells(grid) -> int:
    return len(grid) * (len(grid[0]) if grid else 0)


def _max_bits_rational(grid) -> int:
    best = 0
    for row in grid:
        for x in row:
            num = getattr(x, "numerator", x)
            den = getattr(x, "denominator", 1)
            best = max(best, abs(num).bit_length(), den.bit_length())
    return best


def _max_bits_int(grid) -> int:
    return max((abs(x).bit_length() for row in grid for x in row), default=0)


def _complex_cells(cx) -> int:
    return sum(_cells(d) for d in cx.differentials)


def _complex_terms(cx) -> int:
    return sum(_terms(d) for d in cx.differentials)


def _window_cells(cx, radius, *_a, **_k) -> int:
    return sum(cx.ranks) * (radius + 1) ** cx.nvars


def _rank_at_name(matrix, character, *_a, **_k) -> str:
    return "lmatrix.rank_at." + ("generic" if character.is_generic else "point")


# -- what is wrapped -----------------------------------------------------------

# (module, attribute, span name, time metrics, counters).  The time metric
# is "self_s" for leaves and "total_s" for spans whose children carry the
# work; the Smith form reports both, since its divisions are a child span.  Counters map a name to ("in" or "out", a function of the call's
# arguments or of its result); a run sums them over calls, except that it
# takes the maximum of those named max_*.
TARGETS = (
    ("charvar.cli", "main", "cli.main", "self_s", {}),
    ("charvar.certify", "certify_non_fp", "certify.certify_non_fp", "total_s", {}),
    ("charvar.certify", "generic_vanishing_probe",
     "certify.generic_vanishing_probe", "total_s", {}),
    ("charvar.certify", "kernel_report_univariate",
     "certify.kernel_report_univariate", "total_s", {}),
    ("charvar.jumploci", "is_full_v1", "jumploci.is_full_v1", "total_s", {}),
    ("charvar.jumploci", "is_full_vr_product", "jumploci.is_full_vr_product",
     "total_s", {}),
    ("charvar.jumploci", "generic_betti_in_degree",
     "jumploci.generic_betti_in_degree", "total_s", {}),
    ("charvar.constructions", "build_model", "constructions.build_model",
     "total_s", {}),
    ("charvar.presentations", "abelianize", "presentations.abelianize",
     "total_s", {}),
    ("charvar.presentations", "validate_epimorphism",
     "presentations.validate_epimorphism", "total_s", {}),
    ("charvar.fox", "alexander_matrix", "fox.alexander_matrix", "self_s", {}),
    ("charvar.complexes", "twisted_betti", "complexes.twisted_betti", "self_s", {}),
    ("charvar.complexes", "tensor_complex", "complexes.tensor_complex", "self_s",
     {"cells_out": ("out", _complex_cells),
      "terms_out": ("out", _complex_terms)}),
    ("charvar.complexes", "TwistedComplex.__post_init__", "complexes.dd_check",
     "self_s", {}),
    ("charvar.complexes", "TwistedComplex.specialize", "complexes.specialize",
     "total_s", {}),
    ("charvar.complexes", "kernel_homology_univariate",
     "complexes.kernel_homology_univariate", "self_s", {}),
    ("charvar.complexes", "window_homology", "complexes.window_homology", "self_s",
     {"cells": ("in", _window_cells)}),
    ("charvar.lmatrix", "rank_at", _rank_at_name, "total_s", {}),
    ("charvar.lmatrix", "generic_rank", "lmatrix.generic_rank", "self_s",
     {"cells_in": ("in", _cells), "terms_in": ("in", _terms)}),
    ("charvar.lmatrix", "LaurentMatrix.evaluate", "lmatrix.evaluate", "self_s",
     {"cells": ("in", lambda self, *_a: _cells(self))}),
    ("charvar.lmatrix", "LaurentMatrix.__matmul__", "lmatrix.matmul", "self_s", {}),
    ("charvar.lmatrix", "smith_univariate", "lmatrix.smith_univariate",
     ("self_s", "total_s"),
     {"cells_in": ("in", _cells), "max_span_in": ("in", _max_span)}),
    ("charvar.lmatrix", "univariate_divmod", "lmatrix.univariate_divmod",
     "self_s", {}),
    ("charvar.intlinalg", "rational_rank", "intlinalg.rational_rank", "self_s",
     {"cells_in": ("in", _grid_cells),
      "max_bits_in": ("in", _max_bits_rational)}),
    ("charvar.intlinalg", "integer_rank", "intlinalg.integer_rank", "self_s",
     {"max_bits_in": ("in", _max_bits_int)}),
    ("charvar.intlinalg", "smith_normal_form", "intlinalg.smith_normal_form",
     "self_s", {}),
)

# Span names whose value depends on the call, with every name they yield.
SPLIT_NAMES = {_rank_at_name: ("lmatrix.rank_at.point", "lmatrix.rank_at.generic")}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, with its unit."""
    out = []
    for _mod, _attr, name, time_metrics, counters in TARGETS:
        if isinstance(time_metrics, str):
            time_metrics = (time_metrics,)
        for span in SPLIT_NAMES.get(name, (name,)):
            out.append((f"{span}.calls", "count"))
            out.extend((f"{span}.{metric}", "s") for metric in time_metrics)
            for counter in counters:
                unit = "bits" if "bits" in counter else (
                    "degree" if "span" in counter else "count")
                out.append((f"{span}.{counter}", unit))
            if span == "cli.main":
                out.append(("cli.main.errors", "count"))
    return out


def charvar_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "charvar" or name.startswith("charvar."))]


class Tracer:
    """Installs wrappers, collects spans, restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._overhead = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, _metric, counters in TARGETS:
            module = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._replace(owner, meth, original,
                              self._wrap(original, name, counters))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, counters)
            for mod in charvar_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapper)

    def _replace(self, owner, key, original, wrapper) -> None:
        self._saved.append((owner, key, original))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, name, counters):
        spans, stack = self.spans, self._stack
        pre = [(k, f) for k, (when, f) in counters.items() if when == "in"]
        post = [(k, f) for k, (when, f) in counters.items() if when == "out"]
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            span = Span(name(*args, **kwargs) if callable(name) else name,
                        stack[-1] if stack else -1,
                        {k: f(*args, **kwargs) for k, f in pre})
            stack.append(len(spans))
            spans.append(span)
            tracer._overhead += clock() - entered
            span.overhead_in = tracer._overhead
            span.start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                span.overhead_in = tracer._overhead - span.overhead_in
                stack.pop()
                if result is not None:
                    for k, f in post:
                        span.counters[k] = f(result)
                if span.name == "cli.main" and result not in (0, None):
                    span.error = True
                tracer._overhead += clock() - span.end

        return wrapper

    def take(self) -> list["Span"]:
        """The finished spans, with self times filled in; forgets them."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans = list(self.spans)
        for span in spans:
            span.self_s = span.duration
        for span in spans:
            if span.parent >= 0:
                spans[span.parent].self_s -= span.duration
        self.spans.clear()
        self._overhead = 0.0
        return spans


class Span:
    __slots__ = ("name", "parent", "counters", "start", "end", "overhead_in",
                 "error", "self_s")

    def __init__(self, name: str, parent: int, counters: dict):
        self.name = name
        self.parent = parent
        self.counters = counters
        self.start = self.end = self.overhead_in = self.self_s = 0.0
        self.error = False

    @property
    def duration(self) -> float:
        """Wall time of the call, less the wrappers' own time inside it."""
        return self.end - self.start - self.overhead_in


def snapshot() -> dict:
    """Every callable bound in charvar's modules and every wrapped method,
    to compare before and after a traced run."""
    out = {}
    for mod in charvar_modules():
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = value
    for mod_name, attr, *_rest in TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(importlib.import_module(mod_name), cls_name)
            out[(mod_name, attr)] = owner.__dict__[meth]
    return out

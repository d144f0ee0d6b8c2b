"""Per-layer spans recorded from outside germindex.

The benchmark does not edit the program.  Instead, `install` rebinds each
public function named in LAYERS, in every germindex module that holds a
reference to it (``germs.gcd2``, ``oracle.gcd2``, ``cli.local_index`` ...),
to a wrapper that records a span; methods are rebound on their class.
`restore` puts every original binding back.

A span is ``[name, start, end, parent, request]``: ``parent`` is the index
of the enclosing span in the same list (-1 at top level) and ``request`` is
the identifier of the benchmark request that caused it.  Spans stay in
memory until the benchmark writes them out at exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = {
    "germs": ("iterate", "decompose", "delta", "branches", "classify_branch",
              "local_index"),
    "polys": ("gcd2", "factor_list2", "resultant_z1", "Poly2.compose",
              "Poly2.exact_div", "Poly2.shear_z2"),
    "oracle": ("fixed_multiplicity", "fixed_index_positive"),
    "scenario": ("load_fixture",),
    "surface": ("lefschetz_number", "count_isolated_periodic",
                "validate_periodic_inventory"),
    "reports": ("emit_json",),
}
WRAPPED = tuple(f"{module}.{name}" for module, names in LAYERS.items()
                for name in names)
IMPORT_SPAN = "cli.import"


class Tracer:
    """Collects nested spans of one thread in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.request = None
        self._open: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, self.request])
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        """End span `index` and any span still open inside it (a timeout
        raised inside an inner close can leave one open)."""
        now = self.clock()
        while self._open:
            top = self._open.pop()
            self.spans[top][2] = now
            if top == index:
                break

    def unwind(self) -> None:
        """End every span still open (after an interrupted request)."""
        if self._open:
            self.close(self._open[0])


def _traced(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every function in WRAPPED; returns the bindings for `restore`."""
    for module in LAYERS:
        importlib.import_module(f"germindex.{module}")
    loaded = [m for n, m in sorted(sys.modules.items())
              if m is not None and (n == "germindex" or n.startswith("germindex."))]
    bindings = []
    for qualified in WRAPPED:
        module_name, _, attr = qualified.partition(".")
        module = sys.modules[f"germindex.{module_name}"]
        if "." in attr:
            class_name, method = attr.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            targets = [(owner, method)]
        else:
            original = getattr(module, attr)
            targets = [(m, key) for m in loaded
                       for key, value in list(vars(m).items()) if value is original]
        wrapper = _traced(tracer, qualified, original)
        for owner, key in targets:
            bindings.append((owner, key, original))
            setattr(owner, key, wrapper)
    return bindings


def restore(bindings: list[tuple]) -> None:
    for owner, key, original in reversed(bindings):
        setattr(owner, key, original)


def merge(span_lists) -> list[list]:
    """Concatenate span lists recorded separately, keeping parent links."""
    out: list[list] = []
    for spans in span_lists:
        base = len(out)
        for name, start, end, parent, request in spans:
            out.append([name, start, end, parent + base if parent >= 0 else -1,
                        request])
    return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest strictly, so a span's children are disjoint
    and lie inside it: subtracting their durations removes exactly the part
    of its interval that they cover.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _has_ancestor(spans, index: int, prefix: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, requests: int, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    bench.unattributed_s is the part of the traced wall time that no span's
    self time covers, so the self times plus it add up to the wall time.
    """
    calls = {name: 0 for name in WRAPPED}
    own = {name: 0.0 for name in WRAPPED}
    engine_factorizations = 0
    selfs = self_times(spans)
    for index, (span, self_s) in enumerate(zip(spans, selfs)):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_s
        if name == "polys.factor_list2" and _has_ancestor(spans, index, "germs."):
            engine_factorizations += 1

    def ratio(num, den):
        return num / den if den else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for name in WRAPPED:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (own[name], "s")
    metrics["germs.decompose_per_query"] = (
        ratio(calls["germs.decompose"], requests), "ratio")
    metrics["polys.factor_list2_per_decompose"] = (
        ratio(engine_factorizations, calls["germs.decompose"]), "ratio")
    metrics["oracle.shears_per_elimination"] = (
        ratio(calls["polys.Poly2.shear_z2"], calls["polys.resultant_z1"]), "ratio")
    metrics["bench.unattributed_s"] = (wall_s - sum(selfs), "s")
    return metrics

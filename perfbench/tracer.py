"""Outside-in tracer: wraps the package's public functions, records spans.

The package is not edited. Each traced function is replaced at every
module attribute that binds it (``mu_lower`` is bound in ``quartic``,
``cli``, ``reports``, ``suites`` and the package root), and the
``SupportSet`` constructors are replaced on the class, so calls made from
inside the package are seen too. ``uninstall`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, info]`` lists.
Each thread has its own span stack. A span opened on a worker
thread whose stack is empty takes the innermost open main-thread span as
its parent, so work a thread pool does is charged to the call that
started the pool. A span's self time is its duration minus the *union* of
its children's intervals: children on parallel threads overlap, and
subtracting their sum would give negative self times.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# the package modules the benchmark treats as layers
LAYERS = ("cli", "core", "quartic", "additive", "spheres", "asymptotics", "reports", "suites")
SUPPORT_SET_CONSTRUCTORS = ("sphere", "ball", "span", "from_masks")


# what each traced result records: the transformed array's length and item
# size (for computed work counts), ascent iterations, hereditary exactness
RESULT_HOOKS = {
    "core.walsh_transform": lambda array: (array.shape[0], array.itemsize),
    "quartic.mu_lower": lambda estimate: estimate.iterations,
    "additive.hereditary_energy": lambda result: result.exact,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._main_ident = threading.get_ident()
        self._main_stack: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func):
        spans, stack_of, main_stack = self.spans, self._stack, self._main_stack
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = [name, 0.0, 0.0, parent, None]
            spans.append(span)
            stack.append(span)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if hook is not None:
                span[4] = hook(result)
            return result

        return traced

    def install(self, package: str = "cubequartic") -> None:
        """Wrap every public function of each layer module, wherever it is bound."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr in getattr(module, "__all__", ()):
                func = getattr(module, attr)
                if inspect.isfunction(func) and func.__module__ == module.__name__:
                    replacements[id(func)] = self._wrap(f"{layer}.{attr}", func)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped)
        support_set = sys.modules[f"{package}.core"].SupportSet
        for attr in SUPPORT_SET_CONSTRUCTORS:
            raw = support_set.__dict__[attr]
            self._patches.append((support_set, attr, raw))
            setattr(support_set, attr, classmethod(self._wrap("core.SupportSet", raw.__func__)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanStats:
    """Per-function aggregates of one set of spans."""

    def __init__(self, spans: list[list]) -> None:
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.min_self_s = 0.0
        self.info: dict[str, list] = defaultdict(list)
        self.walsh_in_mu_lower = 0  # transforms run inside quartic.mu_lower
        for span in spans:
            name, start, end, parent = span[0], span[1], span[2], span[3]
            kids = [(max(a, start), min(b, end)) for a, b in children.get(id(span), ())]
            own = (end - start) - _union_length([k for k in kids if k[1] > k[0]])
            self.min_self_s = min(self.min_self_s, own)
            self.calls[name] += 1
            self.self_s[name] += own
            ancestors = []
            while parent is not None:
                ancestors.append(parent[0])
                parent = parent[3]
            if name not in ancestors:  # recursion counts once in the total
                self.total_s[name] += end - start
            if name == "core.walsh_transform" and "quartic.mu_lower" in ancestors:
                self.walsh_in_mu_lower += 1
            if span[4] is not None:
                self.info[name].append((span[4], end - start))


def write_spans(spans: list[list], path) -> None:
    """One JSON line per span: name, start, end, index of the parent span."""
    index = {id(span): i for i, span in enumerate(spans)}
    with gzip.open(path, "wt", encoding="ascii") as handle:
        for span in spans:
            parent = index.get(id(span[3])) if span[3] is not None else None
            handle.write(json.dumps([span[0], span[1], span[2], parent]) + "\n")


def job_layer_values(spans: list[list], stdout_bytes: int):
    """Per-layer values of one job that add up across jobs, the job's
    per-function table, and its lowest self time."""
    stats = SpanStats(spans)
    values: dict[str, float] = {}
    for name, calls in stats.calls.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.total_s"] = stats.total_s[name]
        values[f"{name}.self_s"] = stats.self_s[name]
    for layer in LAYERS:
        names = [n for n in stats.calls if n.startswith(layer + ".")]
        values[f"{layer}.calls"] = sum(stats.calls[n] for n in names)
        values[f"{layer}.self_s"] = sum(stats.self_s[n] for n in names)
    walsh = stats.info["core.walsh_transform"]
    hered = stats.info["additive.hereditary_energy"]
    values.update({
        "core.walsh_transform.butterflies": sum(
            (size.bit_length() - 1) * size // 2 for (size, _), _ in walsh),
        # computed, not measured: each of the n passes copies one half, then
        # reads both halves twice and writes one half twice (4 * 2^n elements)
        "core.walsh_transform.bytes_computed": sum(
            4 * (size.bit_length() - 1) * size * item for (size, item), _ in walsh),
        "quartic.mu_lower.walsh_calls": stats.walsh_in_mu_lower,
        "quartic.ascent.iterations": sum(it for it, _ in stats.info["quartic.mu_lower"]),
        "additive.hereditary_energy.exhaustive_calls": sum(1 for exact, _ in hered if exact),
        "additive.hereditary_energy.heuristic_calls": sum(1 for exact, _ in hered if not exact),
        "additive.hereditary_energy.exhaustive_s": sum(s for exact, s in hered if exact),
        "additive.hereditary_energy.heuristic_s": sum(s for exact, s in hered if not exact),
        "cli.stdout_bytes": stdout_bytes,
    })
    functions = {n: [stats.calls[n], stats.total_s[n], stats.self_s[n]] for n in sorted(stats.calls)}
    return values, functions, stats.min_self_s

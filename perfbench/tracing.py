"""Per-layer spans for a traced benchmark run.

The layers are the package's modules: ``core``, ``oracle``, ``analysis``,
``verify`` and ``cli``.  ``install`` replaces, for the length of a traced
round, the names through which the layers reach each other with wrappers
that record a span per call.  Each span knows its parent (the span open when
it started), so a layer's self time is its spans' time minus the time of the
spans they opened.

``core`` is traced where other modules reach it: ``cli.core`` and
``verify.core`` become a copy of the module with wrapped public functions,
and every name ``analysis`` imported from it is wrapped.  Its own public
functions call each other on hot paths (the decomposition calls
``power_sum`` once per bit), so patching ``core`` in place would count and
time those inner calls.  ``oracle``, ``analysis`` and ``verify`` are
patched in place, so that ``analysis`` can split a scan row into bound,
delta and format time.
"""

import functools
import inspect
import types
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer", "install", "METRICS"]

# Self time of each wrapped function; the rest of a layer goes to "<layer>.other_s".
_TIME_KEYS = {
    "core.newman_sum_recursive": "core.recursive_s",
    "core.newman_sum_decomposition": "core.decomposition_s",
    "core.decomposition_terms": "core.trace_s",
    "core.recursion_trace": "core.trace_s",
    "analysis.lower_bound": "analysis.bound_s",
    "analysis.upper_bound": "analysis.bound_s",
    "analysis.delta": "analysis.delta_s",
    "analysis.format_significant": "analysis.format_s",
}
_LAYER_KEYS = {"oracle": "oracle.s", "verify": "verify.self_s", "cli": "cli.self_s"}

#: Per-layer metrics of one traced round, with their units.
METRICS = {
    "core.recursive_s": "s",
    "core.decomposition_s": "s",
    "core.trace_s": "s",
    "core.other_s": "s",
    "core.calls": "count",
    "oracle.s": "s",
    "oracle.enumerated": "count",
    "oracle.ns_per_int": "ns",
    "oracle.prefix_mib": "MiB",
    "analysis.bound_s": "s",
    "analysis.delta_s": "s",
    "analysis.format_s": "s",
    "analysis.other_s": "s",
    "analysis.bound_calls": "count",
    "verify.self_s": "s",
    "verify.checks": "count",
    "cli.self_s": "s",
    "cli.output_mib": "MiB",
    "trace.overhead_s": "s",
}


def _enumerated(name, bound):
    """Integers the oracle visits for one call, from its arguments."""
    a = bound.arguments
    if name == "oracle_prefix":
        return a["limit"]
    if name == "oracle_sum":
        return len(range(a["residue"], a["x"], a["modulus"]))
    if name == "oracle_interval_sum":
        start, m = a["start"], a["modulus"]
        return len(range(start + (a["residue"] - start) % m, a["stop"], m))
    return 0


class Tracer:
    """Self time per metric key and counts, over the spans of one round."""

    def __init__(self):
        self.values = defaultdict(float)
        self._open = []          # child time of each open span, innermost last

    def call(self, key, fn, *args, **kwargs):
        self._open.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            children = self._open.pop()
            self.values[key] += dt - children
            if self._open:
                self._open[-1] += dt

    def wrap(self, layer, fn):
        """fn wrapped so that each call is a span of ``layer``."""
        name = fn.__name__
        key = _TIME_KEYS.get(f"{layer}.{name}", _LAYER_KEYS.get(layer, f"{layer}.other_s"))
        values = self.values

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self.call(key, next, it)
                    except StopIteration:
                        return
                    yield item
            return traced_gen

        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(key, fn, *args, **kwargs)
            if layer == "core":
                values["core.calls"] += 1
            elif layer == "oracle":
                values["oracle.enumerated"] += _enumerated(name, sig.bind(*args, **kwargs))
                if name == "oracle_prefix":
                    values["oracle.prefix_mib"] += len(result) * result.itemsize / 2 ** 20
            elif key == "analysis.bound_s":
                values["analysis.bound_calls"] += 1
            elif layer == "verify":
                values["verify.checks"] += result.checks
            return result
        return traced


def install(tracer, modules):
    """Route the layers' calls to each other through ``tracer``.

    ``modules`` maps layer name to module.  Returns a function that puts
    every replaced name back.
    """
    saved = []

    def replace(obj, name, value):
        saved.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    core = modules["core"]
    core_wrapped = {}        # id of a public core function -> its wrapper
    core_proxy = types.ModuleType(core.__name__, core.__doc__)
    core_proxy.__dict__.update(vars(core))
    for name in core.__all__:
        fn = getattr(core, name)
        if inspect.isfunction(fn):
            core_wrapped[id(fn)] = tracer.wrap("core", fn)
            setattr(core_proxy, name, core_wrapped[id(fn)])

    for layer in ("oracle", "analysis", "verify"):
        mod = modules[layer]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn):
                replace(mod, name, tracer.wrap(layer, fn))

    for layer in ("oracle", "analysis", "verify", "cli"):
        mod = modules[layer]
        for name, value in list(vars(mod).items()):
            if value is core:
                replace(mod, name, core_proxy)
            elif id(value) in core_wrapped:
                replace(mod, name, core_wrapped[id(value)])

    def uninstall():
        for obj, name, value in reversed(saved):
            setattr(obj, name, value)
    return uninstall

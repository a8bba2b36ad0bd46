"""Spans around pfecalc's public functions, installed from outside the package.

``install`` replaces each traced function by a wrapper, in its own module and
under every other name that refers to it: names that sibling modules bound
with ``from .x import y`` (``identities.sigma``, ``roots.series_to_pfe``,
``congruences.partition_power``), the package's re-exports, and class
attribute aliases such as ``TruncatedSeries.__rmul__``.  Spans stay in memory
until the traced process writes them out.
"""

import functools
import sys
import time

# (span name, module, attribute); the span name is the per-layer metric prefix.
TARGETS = (
    ("pfe.enumerate_pfe", "pfecalc.pfe", "enumerate_pfe"),
    ("pfe.series_to_pfe", "pfecalc.pfe", "series_to_pfe"),
    ("pfe.g_to_pfe", "pfecalc.pfe", "g_to_pfe"),
    ("pfe.column_weight_sums", "pfecalc.pfe", "column_weight_sums"),
    ("pfe.collapse_form1", "pfecalc.pfe", "collapse_form1"),
    ("pfe.verify_divisor_sum", "pfecalc.pfe", "verify_divisor_sum"),
    ("pfe.frequency_row_check", "pfecalc.pfe", "frequency_row_check"),
    ("series.power", "pfecalc.series", "TruncatedSeries.power"),
    ("series.mul", "pfecalc.series", "TruncatedSeries.__mul__"),
    ("identities.partition_power", "pfecalc.identities", "partition_power"),
    ("identities.named_series", "pfecalc.identities", "named_series"),
    ("identities.verify", "pfecalc.identities", "verify"),
    ("arith.sigma", "pfecalc.arith", "sigma"),
    ("arith.divisors", "pfecalc.arith", "divisors"),
    ("arith.mobius", "pfecalc.arith", "mobius"),
    ("arith.mobius_inversion", "pfecalc.arith", "mobius_inversion"),
    ("arith.padic_valuation", "pfecalc.arith", "padic_valuation"),
    ("arith.bernoulli", "pfecalc.arith", "bernoulli"),
    ("roots.integrality_check", "pfecalc.roots", "integrality_check"),
    ("roots.prime_power_divisibility", "pfecalc.roots", "prime_power_divisibility"),
    ("roots.root_integrality", "pfecalc.roots", "root_integrality"),
    ("congruences.check_family", "pfecalc.congruences", "check_family"),
    ("congruences.scan", "pfecalc.congruences", "scan"),
    ("cli.main", "pfecalc.cli", "main"),
)

# The reference module is never timed, so its caches are not counted.
UNTIMED_MODULES = ("pfecalc.oracle",)


class Tracer:
    """Records spans as [name, start, end, parent index, job id]."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def write(self, path):
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\tjob\n")
            for name, start, end, parent, job in self.spans:
                out.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{job}\n")


def _namespaces():
    """Every pfecalc module loaded so far, and the classes each one defines."""
    for modname, mod in list(sys.modules.items()):
        if modname != "pfecalc" and not modname.startswith("pfecalc."):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == modname:
                yield value


def loaded_targets():
    """(span name, original object) for each target whose module is loaded."""
    for name, modname, attr in TARGETS:
        owner = sys.modules.get(modname)
        if owner is None:
            continue
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        yield name, vars(owner)[last]


def install(tracer):
    """Wrap every loaded target and rebind all its aliases; returns an undo list."""
    wrappers = {id(original): (original, tracer.wrap(name, original))
                for name, original in loaded_targets()}
    undo = []
    for ns in _namespaces():
        for key, value in list(vars(ns).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(ns, key, hit[1])
                undo.append((ns, key, value))
    return undo


def uninstall(undo):
    for ns, key, value in undo:
        setattr(ns, key, value)


def cached_functions():
    """The lru_cache objects of the timed pfecalc modules."""
    found = {}
    for ns in _namespaces():
        if getattr(ns, "__name__", None) in UNTIMED_MODULES:
            continue
        if isinstance(ns, type) and ns.__module__ in UNTIMED_MODULES:
            continue
        for value in vars(ns).values():
            if hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


def cache_counts(functions):
    hits = misses = 0
    for fn in functions:
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def layer_stats(spans):
    """Per span name: [calls, busy_s, self_s].

    busy_s counts only the outermost span of a name, so recursion is not
    counted twice; self_s is each span's duration minus the time its direct
    child spans cover (children of one span never overlap: one thread).
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += (end - start) - covered[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry[1] += end - start
    return stats


def merge_stats(total, stats):
    for name, (calls, busy, self_s) in stats.items():
        entry = total.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += busy
        entry[2] += self_s

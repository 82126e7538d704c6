"""Span and counter recording around the public API of every repgames module.

Nothing under src/ is edited.  `install` replaces each public function and
method with a wrapper that records a span (name, start, end, parent) and a
call count.  A module-level function is replaced in its defining module and
in every repgames module that bound the same object with `from .x import f`;
class methods are replaced on the class, so every call through an instance
is seen.  References held elsewhere (dict values such as
`strategy._FIXTURES` or `suites.SWEEPS`, default arguments, closures) keep
the original function, so their time lands in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time
import weakref
from collections import defaultdict

LAYERS = ("cli", "reduction", "corrsamp", "depbreak", "prob", "strategy",
          "games", "values", "infotheory", "matcore", "suites")

# A name's first SPANS_PER_NAME calls in a round are kept span by span; its
# later calls only add to the (name, parent) totals.  The spans kept per
# round are thus at most SPANS_PER_NAME times the number of wrapped names.
SPANS_PER_NAME = 1_000


def freeze(v):
    """Hashable image of an argument: dicts and sequences by value."""
    if isinstance(v, dict):
        return tuple(sorted((k, freeze(x)) for k, x in v.items()))
    if isinstance(v, (list, tuple)):
        return tuple(freeze(x) for x in v)
    if hasattr(v, "item") and getattr(v, "ndim", 1) == 0:
        return v.item()
    return v


class Tracer:
    """Spans, self times and counters for one round at a time."""

    def __init__(self):
        self._serials = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count()
        self.stack = []
        self._span_ids = itertools.count()
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.layer_calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.distinct = defaultdict(set)
        self.agg = {}
        self.spans = []
        self.covered_s = 0.0
        self.round_start = time.perf_counter()

    def serial(self, obj) -> int:
        """Stable id of a live instance (ids of freed objects are reused)."""
        try:
            return self._serials[obj]
        except KeyError:
            s = self._serials[obj] = next(self._next_serial)
            return s

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, next(self._span_ids)]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, start, child_s, span_id = frame
        dur = end - start
        own = dur - child_s
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        else:
            self.covered_s += dur
        layer = name.split(".", 1)[0]
        self.calls[name] += 1
        self.self_s[name] += own
        self.layer_self[layer] += own
        self.layer_calls[layer] += 1
        key = (name, parent[0] if parent is not None else None)
        row = self.agg.get(key)
        if row is None:
            row = self.agg[key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur
        row[2] += own
        if self.calls[name] > SPANS_PER_NAME:
            return
        self.spans.append((span_id, name, start - self.round_start,
                           end - self.round_start,
                           parent[3] if parent is not None else None))

    def wrap(self, name: str, fn, key=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                tracer.distinct[name].add(key(tracer, *args, **kwargs))
            frame = tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if after is not None:
                after(tracer, out, args)
            return out

        return traced

    def aggregated(self) -> list:
        """Names whose calls this round went past SPANS_PER_NAME."""
        return sorted(n for n, c in self.calls.items() if c > SPANS_PER_NAME)

    def tree(self) -> list:
        """(name, parent, calls, total_s, self_s) rows, heaviest first."""
        rows = [[n, p, c, t, s] for (n, p), (c, t, s) in self.agg.items()]
        rows.sort(key=lambda r: -r[3])
        return rows


# ---- hooks: distinct-argument keys and counters read from return values ----

def _key_coarse(tr, self, side, constraints):
    return (tr.serial(self), side, freeze(constraints))


def _key_aligned(tr, self, side, constraints, held):
    return (tr.serial(self), side, freeze(constraints), freeze(held))


def _key_fine(tr, self, side, i, constraints, held):
    return (tr.serial(self), side, i, freeze(constraints), freeze(held))


def _key_context(tr, self, i, r_a, r_b, x, y):
    return (tr.serial(self), i, freeze(r_a), freeze(r_b), int(x), int(y))


def _after_reduction(tr, rep, _args):
    tr.counters["reduction.trials"] += rep.trials_run
    tr.counters["reduction.disagreements"] += rep.disagreements
    tr.counters["reduction.failures"] += rep.failures


def _after_ext(tr, dist, _args):
    tr.counters["depbreak.extended_joint.cells"] += dist.table.size


def _after_useful(tr, rep, _args):
    tr.counters["depbreak.usefulness_check.contexts"] += rep.contexts
    tr.counters["depbreak.usefulness_check.skipped"] += rep.skipped


def _after_born(tr, dist, _args):
    tr.counters["strategy.born_joint.cells"] += dist.table.size


def _after_seesaw(tr, res, _args):
    tr.counters["values.seesaw.iterations"] += res.iterations


def _after_sweep(tr, res, _args):
    tr.counters["suites.trials"] += res.trials


def _after_prob(tr, out, args):
    """Largest table a distribution-building call read or made."""
    cells = max(getattr(getattr(v, "table", None), "size", 0)
                for v in (out, *args[:1]))
    if cells > tr.counters["prob.max_table_cells"]:
        tr.counters["prob.max_table_cells"] = cells


COUNTERS = ("reduction.trials", "reduction.disagreements",
            "reduction.failures", "depbreak.extended_joint.cells",
            "depbreak.usefulness_check.contexts",
            "depbreak.usefulness_check.skipped", "strategy.born_joint.cells",
            "values.seesaw.iterations", "suites.trials",
            "prob.max_table_cells")
KEYS = {
    "depbreak.coarse_family": _key_coarse,
    "depbreak.aligned": _key_aligned,
    "depbreak.fine_family": _key_fine,
    "reduction.context_win": _key_context,
}
AFTER = {
    "reduction.run_reduction": _after_reduction,
    "depbreak.extended_joint": _after_ext,
    "depbreak.usefulness_check": _after_useful,
    "strategy.born_joint": _after_born,
    "values.seesaw": _after_seesaw,
    **{f"prob.{f}": _after_prob for f in (
        "given", "marginal", "condition", "reordered", "kernel",
        "product_extend", "uniform")},
}


def _after_for(name: str):
    if name in AFTER:
        return AFTER[name]
    if name.startswith("suites.sweep_"):
        return _after_sweep
    return None


def _public_callables(modules: dict):
    """(layer, owner class or None, attribute, function) for every public
    function and method defined in the layer modules."""
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield layer, None, attr, obj
            elif inspect.isclass(obj):
                for m_attr, m_obj in list(vars(obj).items()):
                    if m_attr.startswith("_"):
                        continue
                    if isinstance(m_obj, classmethod):
                        yield layer, obj, m_attr, m_obj.__func__
                    elif inspect.isfunction(m_obj):
                        yield layer, obj, m_attr, m_obj


def install(tracer: Tracer) -> list:
    """Wrap every public function and method of the layer modules.

    A callable is named layer.attribute, or layer.Class.attribute where two
    classes of one layer define the same method (the `ok` of the report
    classes).  Returns the wrapped names.
    """
    modules = {layer: importlib.import_module(f"repgames.{layer}")
               for layer in LAYERS}
    found = list(_public_callables(modules))
    short = [f"{layer}.{attr}" for layer, _, attr, _ in found]
    names = []
    replaced = {}     # id(original function) -> (original, wrapper)
    for (layer, owner, attr, fn), name in zip(found, short):
        if short.count(name) > 1:
            name = f"{layer}.{owner.__name__}.{attr}"
        wrapper = tracer.wrap(name, fn, KEYS.get(name), _after_for(name))
        names.append(name)
        if owner is None:
            replaced[id(fn)] = (fn, wrapper)
        elif isinstance(vars(owner)[attr], classmethod):
            setattr(owner, attr, classmethod(wrapper))
        else:
            setattr(owner, attr, wrapper)
    # rebind each function wherever a repgames module imported it by name
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return names

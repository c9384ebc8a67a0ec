"""Per-layer tracing of the qrr package from outside it.

``Tracer.install()`` wraps every public function and method of the qrr layer
modules and rebinds every name each one is bound to, in every loaded qrr
module (``from .context import powq`` copies the function into the importing
module, so patching the defining module alone would miss most calls).
``uninstall()`` puts every original back.

Each wrapped call is a span: name, start, end, its parent (the enclosing
span) and the check it ran under.  A traced pass makes a few million spans,
so they are folded into per-(check, name) totals as they close instead of
being kept: calls, duration, and self time, which is the duration minus the
part covered by child spans.  Spans nest on one thread, so the self times of
all spans add up to the duration of the outermost ones.

Term callables passed to ``sum_series``/``sum_bilateral`` are wrapped too and
charged to the module that defined them, so ``summation`` self time is the
engine's own overhead.  A few layer counts are taken at the same boundaries
(summed terms, non-converged sums, partition filter admissions, ...).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("context", "summation", "pochhammer", "qfunctions", "qbessel",
          "qpolynomials", "formal", "exactpoly", "partitions", "harness")

# Operator methods that do a layer's work; other dunders (construction,
# hashing, comparison, repr) are charged to their caller.
_OPERATORS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__",
                        "__mul__", "__rmul__", "__neg__", "__truediv__",
                        "__call__"})

_MARK = "_perfbench_span"


def layer_of(module_name: str | None) -> str | None:
    """Layer a qrr module belongs to (``qrr.harness.*`` is one layer)."""
    parts = (module_name or "").split(".")
    if len(parts) >= 2 and parts[0] == "qrr" and parts[1] in LAYERS:
        return parts[1]
    return None


def _qrr_modules():
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "qrr" or name.startswith("qrr."))]


def _wanted(name: str) -> bool:
    return not name.startswith("_") or name in _OPERATORS


def is_wrapper(obj) -> bool:
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    return getattr(obj, _MARK, False)


def leftover_wrappers() -> list[str]:
    """Names in loaded qrr modules and classes still bound to a span wrapper."""
    left = []
    for modname, mod in _qrr_modules():
        for attr, obj in vars(mod).items():
            if is_wrapper(obj):
                left.append(f"{modname}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == modname:
                left.extend(f"{modname}.{attr}.{name}"
                            for name, member in vars(obj).items()
                            if is_wrapper(member))
    return left


class Tracer:
    """Span recorder that patches the qrr layers while installed."""

    def __init__(self):
        # (check, span name) -> [calls, duration_s, self_s]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self.check = None
        self._stack = [[0.0]]       # child time of each open span
        self._patches = []          # (owner, attr, original) to restore

    # -- spans ------------------------------------------------------------

    def wrap(self, fn, name, before=None, after=None, on_error=None):
        """``fn`` recording one span per call under ``name``.

        ``before(args)`` may replace the positional arguments; ``after(args,
        result)`` and ``on_error(exc)`` see the outcome.  They run outside the
        span, so their cost is charged to the caller, as the rest of the
        tracing overhead is.
        """
        stack, stats, clock, tracer = self._stack, self.stats, time.perf_counter, self

        def span(*args, **kwargs):
            if before is not None:
                args = before(args)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                st = stats[(tracer.check, name)]
                st[0] += 1
                st[1] += duration
                st[2] += duration - frame[0]
            if after is not None:
                after(args, result)
            return result

        setattr(span, _MARK, True)
        span.__name__ = getattr(fn, "__name__", name)
        span.__wrapped__ = fn
        return span

    def wrap_generator(self, fn, name):
        """A generator function: each resume is one span under ``name``."""
        tracer = self

        def resumable(*args, **kwargs):
            step = tracer.wrap(fn(*args, **kwargs).__next__, name)
            while True:
                try:
                    value = step()
                except StopIteration:
                    return
                yield value

        setattr(resumable, _MARK, True)
        resumable.__wrapped__ = fn
        return resumable

    # -- layer-specific hooks ---------------------------------------------

    def _wrap_term(self, args):
        term = args[0]
        if not getattr(term, _MARK, False):
            layer = layer_of(getattr(term, "__module__", None)) or "external"
            term = self.wrap(term, f"{layer}.term")
        return (term,) + tuple(args[1:])

    def _summed(self, args, outcome):
        self.counts["summation.terms"] += outcome.terms_used
        if not outcome.converged:
            self.counts["summation.nonconverged"] += 1

    def _sum_failed(self, exc):
        from qrr.errors import NonConvergenceError, RatioTestError

        if isinstance(exc, (RatioTestError, NonConvergenceError)):
            self.counts["summation.errors"] += 1

    def _infinite_product(self, args, outcome):
        self.counts["pochhammer.infinite.factors"] += outcome.terms_used

    def _formal_mul(self, args):
        a, b = args[0], args[1]
        if hasattr(b, "c") and hasattr(a, "c"):
            # Trip count of the schoolbook product over the sparser operand's
            # nonzero coefficients (computed from the operands, not counted).
            nza = [i for i, v in enumerate(a.c) if v != 0]
            nzb = [i for i, v in enumerate(b.c) if v != 0]
            self.counts["formal.mul.coeff_ops"] += sum(
                a.N - i + 1 for i in min(nza, nzb, key=len))
        return args

    def _admitted(self, args, result):
        self.counts["partitions.examined"] += 1
        self.counts["partitions.admitted"] += bool(result)

    def _enter_check(self, args):
        self.check = f"{args[0]}.{args[1]}"
        return args

    def _hooks(self, name):
        if name in ("summation.sum_series", "summation.sum_bilateral"):
            hooks = {"before": self._wrap_term}
            if name == "summation.sum_series":
                hooks.update(after=self._summed, on_error=self._sum_failed)
            return hooks
        if name == "pochhammer.pochhammer_infinite":
            return {"after": self._infinite_product}
        if name == "formal.FormalSeries.__mul__":
            return {"before": self._formal_mul}
        if name.startswith("partitions.") and name.endswith(".admits"):
            return {"after": self._admitted}
        if name == "harness.run_check":
            return {"before": self._enter_check}
        return {}

    def _span_for(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator(fn, name)
        return self.wrap(fn, name, **self._hooks(name))

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every public function and method of the layer modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _qrr_modules()
        spans = {}  # id(original function) -> wrapper
        for modname, mod in modules:
            layer = layer_of(modname)
            if layer is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != modname or not _wanted(attr):
                    continue
                if inspect.isfunction(obj):
                    spans[id(obj)] = self._span_for(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._patch_class(obj, f"{layer}.{attr}")
        # Rebind every name a wrapped function is bound to, in every module.
        for _, mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = spans.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patch(mod, attr, wrapper)
        return self

    def _patch_class(self, cls, prefix):
        done = {}  # aliases such as __rmul__ = __mul__ share one wrapper
        for attr, member in list(vars(cls).items()):
            if not _wanted(attr):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(member):
                new = done.get(id(member)) or self._span_for(member, name)
                done[id(member)] = new
            elif isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self._span_for(member.__func__, name))
            elif isinstance(member, property) and member.fget is not None:
                new = property(self._span_for(member.fget, name),
                               member.fset, member.fdel, member.__doc__)
            else:
                continue
            self._patch(cls, attr, new)

    def uninstall(self):
        """Restore every patched name, in reverse order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def by_name(self):
        """Span name -> [calls, duration_s, self_s] summed over checks."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), (calls, dur, self_s) in self.stats.items():
            acc = out[name]
            acc[0] += calls
            acc[1] += dur
            acc[2] += self_s
        return dict(out)

    def layer_totals(self):
        """Layer -> (calls, self_s) summed over all its span names."""
        out = defaultdict(lambda: [0, 0.0])
        for name, (calls, _, self_s) in self.by_name().items():
            acc = out[name.split(".", 1)[0]]
            acc[0] += calls
            acc[1] += self_s
        return {layer: tuple(v) for layer, v in out.items()}

    def check_layers(self):
        """Check -> layer -> self_s, for the checks run while installed."""
        out = defaultdict(lambda: defaultdict(float))
        for (check, name), (_, _, self_s) in self.stats.items():
            out[check][name.split(".", 1)[0]] += self_s
        return {check: dict(layers) for check, layers in out.items()}

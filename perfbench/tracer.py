"""In-memory span recorder that wraps mlclt's public API from outside.

`Tracer.install()` wraps every public function and every public class with
its own ``__post_init__`` defined in the modules named in `MODULES`.  It
then rebinds every attribute of every loaded ``mlclt.*`` module whose value
*is* one of the wrapped functions, under whatever name it is bound there:
``cli`` imports ``sliced_w1`` as ``_sliced_w1``, and
``concentration.moderate_tail_table`` reaches ``fields.monte_carlo``
through a function-local ``from .fields import monte_carlo``, which reads
the rebound module attribute at call time.  Classes are timed through
``__post_init__`` so that ``isinstance`` and ``type(x)(...)`` keep working.
The package source is never changed; `uninstall()` restores every binding.

A span is ``[name, start, end, parent, error, attrs]``, with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 at
the top).  The stack is per tracer, so trace one thread only: the CLI
workloads never pass ``--threads``.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import types

MODULES = ("fields", "distances", "stein", "multilevel", "concentration",
           "gaussians", "cli")


def _monte_carlo_attrs(args: dict, result) -> dict:
    structure = args["structure"]
    attrs = {"L": structure.L, "d": structure.d, "n": int(args["n"])}
    if isinstance(result, tuple):  # return_per_index=True
        attrs["per_index_bytes"] = int(result[1].nbytes)
    return attrs


def _third_derivative_attrs(args: dict, result) -> dict:
    return {"points": int(result["n_points"])}


# Extra facts recorded on a span, from the bound arguments and the result.
ANNOTATORS = {
    "fields.monte_carlo": _monte_carlo_attrs,
    "stein.third_derivative_certificate": _third_derivative_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.wrapped: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = ANNOTATORS.get(name)
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[5] = annotate(signature.bind(*args, **kwargs).arguments,
                                   result)
            return result

        return wrapper

    def install(self) -> None:
        replacements = {}
        for short in MODULES:
            mod = sys.modules.get(f"mlclt.{short}")
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if isinstance(value, types.FunctionType):
                    if value not in replacements:
                        replacements[value] = self._wrap(name, value)
                        self.wrapped.append(name)
                elif isinstance(value, type) and "__post_init__" in vars(value):
                    original = vars(value)["__post_init__"]
                    self._restore.append((value, "__post_init__", original))
                    setattr(value, "__post_init__", self._wrap(name, original))
                    self.wrapped.append(name)
        for modname, mod in list(sys.modules.items()):
            if modname != "mlclt" and not modname.startswith("mlclt."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in replacements:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacements[value])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def summarize(spans) -> dict:
    """Per name: calls, errors and self seconds (the span's duration minus
    the durations of its direct child spans)."""
    out: dict = {}
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for (name, start, end, _, error, _), inner in zip(spans, child_time):
        agg = out.setdefault(name, {"calls": 0, "errors": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["errors"] += int(error)
        agg["self_s"] += end - start - inner
    return out

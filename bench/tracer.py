"""Span tracing for the benchmark's traced run, installed from outside flagval.

Each traced function is replaced by a wrapper that times its span and
charges the span's duration, minus the time of the traced spans it
encloses, to the function as self time.  Spans are reduced as they
close (calls and self time per function), so memory does not grow with
the number of calls.

The wrapper must replace every reference that flagval holds to the
original: `from .poly import factor` binds a second name in another
module, and the suite table holds its functions in a dict.  Methods are
replaced on their class; a class itself is never rebound, because
isinstance checks depend on it.  After installing, the garbage
collector's referrer lists prove that no other reference is left.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import types
from time import perf_counter


class TraceError(RuntimeError):
    """A traced function could not be wrapped everywhere it is bound."""


class Tracer:
    def __init__(self) -> None:
        # child-time accumulator of each open span; the bottom one is the root
        self._open = [0.0]
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.inputs: dict[str, set] = {}  # name -> distinct input keys
        self.cells = 0  # sum of rows * cols over fqlin.nullspace calls
        self._own: list = []  # objects the wrappers hold that may refer to originals

    def wrap(self, name: str, orig, key=None, cells: bool = False):
        open_spans = self._open
        rec = self.stats[name] = [0, 0.0]
        seen = self.inputs[name] = set() if key else None

        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(key(args, kwargs))
            if cells:
                rows = args[1]
                self.cells += len(rows) * len(rows[0]) if rows else 0
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                rec[0] += 1
                rec[1] += dur - open_spans.pop()
                open_spans[-1] += dur

        functools.update_wrapper(traced, orig)
        self._own += [traced.__dict__, *traced.__closure__]
        return traced

    def summary(self) -> dict:
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if self.inputs[name] is not None:
                out[f"{name}.distinct"] = len(self.inputs[name]) / calls if calls else 0.0
        out["fqlin.nullspace.cells"] = self.cells
        return out


def install(layers: dict, distinct: set) -> Tracer:
    """Wrap every function named in `layers` ({module: {qualname: home}})."""
    from flagval.fields import RationalFn

    def norm(arg):
        return (arg.num, arg.den) if isinstance(arg, RationalFn) else arg

    def input_key(args, kwargs):
        return tuple(map(norm, args)), tuple((k, norm(v)) for k, v in sorted(kwargs.items()))

    for module in layers:
        importlib.import_module(f"flagval.{module}")
    namespaces = [m.__dict__ for n, m in sorted(sys.modules.items()) if n == "flagval" or n.startswith("flagval.")]

    tracer = Tracer()
    originals = []
    for module, fns in layers.items():
        for qualname in fns:
            name = f"{module}.{qualname}"
            *path, attr = qualname.split(".")
            owner = sys.modules[f"flagval.{module}"]
            for part in path:
                owner = getattr(owner, part)
            orig = vars(owner)[attr]
            traced = tracer.wrap(
                name, orig, key=input_key if name in distinct else None, cells=name == "fqlin.nullspace"
            )
            if path:
                setattr(owner, attr, traced)
            else:
                _rebind(namespaces, orig, traced)
            originals.append((name, orig))

    own = {id(o) for o in tracer._own}
    for name, orig in originals:
        for ref in gc.get_referrers(orig):
            if id(ref) in own or isinstance(ref, types.FrameType) or ref is originals:
                continue
            if any(ref is entry for entry in originals):
                continue
            raise TraceError(f"{name}: a {type(ref).__name__} still refers to the unwrapped function")
    return tracer


def _rebind(namespaces: list[dict], orig, traced) -> None:
    """Replace `orig` in module globals and in module-level dicts and lists."""
    for ns in namespaces:
        for key, value in list(ns.items()):
            if value is orig:
                ns[key] = traced
            elif isinstance(value, dict):
                for k, v in value.items():
                    if v is orig:
                        value[k] = traced
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    if v is orig:
                        value[i] = traced

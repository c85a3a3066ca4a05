"""Span tracer for the public functions of the ``dworklab`` modules.

`install` wraps every public function of the loaded ``dworklab`` modules
(generators and classes excepted) and of ``dworklab.kernels``.  Modules bind
names at import (``from .kernels import vp_int``), so the wrapper replaces
the function in every loaded ``dworklab`` module that holds it, not only
where it is defined.  Spans stay in memory as ``[name, start, end, parent,
raised, info]`` and `write` saves them once, at exit, with the operation id.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path

MODULES = ("exactcore", "kernels", "series", "bounds", "groups", "applications", "cli")

# Several loaders are reported as one layer entry.
ALIASES = {"series.load_exp_series": "series.load", "series.load_log_series": "series.load"}

# The three exception families the CLI turns into exit status 2.
EXIT2_FAMILIES = (ValueError, OSError, ArithmeticError)

_spans: list[list] = []
_stack = [-1]
_import_span: list[float] = []


def _family(exc: BaseException) -> str:
    for cls in EXIT2_FAMILIES:
        if isinstance(exc, cls):
            return cls.__name__
    return type(exc).__name__


def _cache_lookup_found(args, kwargs) -> bool:
    """Whether cli.cache_get_or_compute(spec, n_max, cache_dir) will find an entry."""
    cli = sys.modules["dworklab.cli"]
    spec = args[0] if args else kwargs["spec"]
    cache_dir = args[2] if len(args) > 2 else kwargs.get("cache_dir")
    return cache_dir is not None and cli._cache_path(Path(cache_dir), spec).exists()


def _wrap(name: str, fn):
    def traced(*args, **kwargs):
        info = None
        if name == "cli.cache_get_or_compute":
            info = {"found": _cache_lookup_found(args, kwargs)}
        idx = len(_spans)
        span = [name, 0.0, 0.0, _stack[-1], None, info]
        _spans.append(span)
        _stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[4] = _family(exc)
            raise
        finally:
            span[2] = time.perf_counter()
            _stack.pop()
        if name == "kernels.hall_exp":
            span[5] = {"h_max_bits": max((abs(x).bit_length() for x in result), default=0)}
        elif name == "kernels.log_residue_precision":
            span[5] = {"precision": result}
        elif info is not None:
            info["recomputed"] = any(
                s[0] == "groups.hom_count_ints" for s in _spans[idx + 1 :]
            )
        return result

    traced.__wrapped__ = fn
    return traced


def _targets():
    """(reported name, function) for every function the tracer wraps."""
    for short in MODULES:
        mod = sys.modules.get(f"dworklab.{short}")
        if mod is None:
            continue
        if short == "kernels":
            names = [n for n in mod.__all__ if callable(getattr(mod, n))]
        else:
            names = [
                n
                for n, obj in vars(mod).items()
                if not n.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(obj)
            ]
        for n in names:
            full = f"{short}.{n}"
            yield ALIASES.get(full, full), getattr(mod, n)


def install() -> None:
    wrappers = {id(fn): (fn, _wrap(name, fn)) for name, fn in _targets()}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "dworklab" or modname.startswith("dworklab.")):
            continue
        for attr, obj in list(vars(mod).items()):
            original, wrapper = wrappers.get(id(obj), (None, None))
            if original is obj:
                setattr(mod, attr, wrapper)


def record_import(start: float, end: float) -> None:
    _import_span[:] = [start, end]


def write(path: str, op_id) -> None:
    doc = {"op": op_id, "import": _import_span, "spans": _spans}
    # json.dumps takes the C encoder; json.dump to a file does not.
    text = json.dumps(doc, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)

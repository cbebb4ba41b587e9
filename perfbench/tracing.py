"""Spans around the public functions of the openbilliards modules.

The benchmark wraps the program from its own files; the program is not
edited. Every public function defined in one of the package's modules is
wrapped under each module-level name that binds it, so a call through an
imported name (``openbilliards.cli.solve_cavity``,
``openbilliards.scattering.r_matrix``) is recorded as well as a call from
inside the defining module. Spans stay in memory and are written out when
the step that made them ends.

A span is ``[name, start, end, parent, error, extra]``: ``name`` is
``<module>.<function>`` of the defining module, ``parent`` the index of the
enclosing span (-1 at the root), ``error`` the exception type name when the
call raised, and ``extra`` a dict of counts taken from the arguments and the
result (bytes, points, peak RSS).

This file is stdlib only: the analysis half runs in the benchmark's runner
process, which never imports numpy.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import resource
import time
from pathlib import Path

PACKAGE = "openbilliards"
LAYERS = ("geometry", "cavity", "leads", "scattering", "spectra", "oned", "twobody", "cli")

STEP_PREFIX = "step:"


def maxrss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _dir_bytes(path) -> int:
    root = Path(path)
    if not root.is_dir():
        return 0
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _file_bytes(path) -> int:
    p = Path(path)
    return p.stat().st_size if p.is_file() else 0


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


# Counts taken at selected boundaries. Each hook gets (args, kwargs, result)
# of a call that returned and gives a small dict of numbers.

def _assemble_extra(args, kwargs, result):
    return {"matrix_bytes": int(result.nbytes), "maxrss_mb": maxrss_mb()}


def _solution_extra(args, kwargs, result):
    return {
        "basis_size": int(result.basis.size),
        "k_keep": int(result.k_keep),
        "maxrss_mb": maxrss_mb(),
    }


def _save_extra(args, kwargs, result):
    return {"bytes": _dir_bytes(_arg(args, kwargs, 1, "directory"))}


def _load_extra(args, kwargs, result):
    extra = _solution_extra(args, kwargs, result)
    extra["bytes"] = _dir_bytes(_arg(args, kwargs, 0, "directory"))
    return extra


def _sweep_extra(args, kwargs, result):
    skipped = {}
    for _, reason in result.skipped:
        skipped[reason] = skipped.get(reason, 0) + 1
    return {
        "requested": int(len(result.k_requested)),
        "computed": int(len(result.k)),
        "skipped": skipped,
    }


def _file_extra(args, kwargs, result):
    return {"bytes": _file_bytes(_arg(args, kwargs, 1, "path"))}


def _cli_solution_extra(args, kwargs, result):
    # The lowest levels the CLI worked with, for the output checks.
    return {"energies": [float(e) for e in result.energies[:20]]}


def _pair_extra(args, kwargs, result):
    spec = _arg(args, kwargs, 2, "spec")
    return {"quad_order": int(spec.quad_order), "maxrss_mb": maxrss_mb()}


HOOKS = {
    "cavity.assemble_hamiltonian": _assemble_extra,
    "cavity.solve_cavity": _solution_extra,
    "cavity.save_solution": _save_extra,
    "cavity.load_solution": _load_extra,
    "scattering.sweep_conductance": _sweep_extra,
    "scattering.write_t_store": _file_extra,
    "twobody.interaction_block": _pair_extra,
    "cli.get_solution": _cli_solution_extra,
}


class Tracer:
    """Records spans for the wrapped functions of one process.

    ``only`` limits wrapping to the given span names; the untraced runs use
    it to time a single call without tracing anything else.
    """

    def __init__(self, only=None):
        self.spans: list[list] = []
        self.active = True
        self.wrapped: set[str] = set()
        self._only = None if only is None else set(only)
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}

    def install(self) -> None:
        """Wrap the public functions in every module namespace of the package."""
        modules = []
        for layer in LAYERS:
            try:
                modules.append(importlib.import_module(f"{PACKAGE}.{layer}"))
            except ImportError:
                continue
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                origin = getattr(obj, "__module__", "") or ""
                if not origin.startswith(PACKAGE + "."):
                    continue
                name = f"{origin[len(PACKAGE) + 1:]}.{obj.__name__}"
                if self._only is not None and name not in self._only:
                    continue
                setattr(module, attr, self._wrapper(name, obj))
                self.wrapped.add(name)

    def _wrapper(self, name, fn):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        hook = HOOKS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = type(exc).__name__
                raise
            else:
                if hook is not None:
                    try:
                        record[5] = hook(args, kwargs, result)
                    except Exception as exc:  # a changed return type must not stop the program
                        record[5] = {"hook_error": f"{type(exc).__name__}: {exc}"}
                return result
            finally:
                stack.pop()
                record[2] = clock()

        self._wrappers[key] = wrapper
        return wrapper

    @contextlib.contextmanager
    def step(self, label: str):
        """A root span covering one benchmark step."""
        index = len(self.spans)
        self.spans.append([STEP_PREFIX + label, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, None, None])
        self._stack.append(index)
        try:
            yield
        except BaseException as exc:
            self.spans[index][4] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()


# ---------------------------------------------------------------------------
# Analysis (runner side)
# ---------------------------------------------------------------------------

class SpanTree:
    """Durations, self times and nesting of one process's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(i)

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i: int) -> float:
        # Children of a span run inside it and one after another (the
        # program is single-threaded in Python), so their durations add.
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def ancestors(self, i: int):
        parent = self.spans[i][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def step_of(self, i: int) -> str | None:
        for a in self.ancestors(i):
            if self.spans[a][0].startswith(STEP_PREFIX):
                return self.spans[a][0][len(STEP_PREFIX):]
        return None

    def outermost(self, names) -> list[int]:
        """Spans named in `names` with no ancestor also named in `names`."""
        names = set(names)
        hits = []
        for i, span in enumerate(self.spans):
            if span[0] in names and not any(self.spans[a][0] in names for a in self.ancestors(i)):
                hits.append(i)
        return hits

    def inclusive(self, names) -> float:
        return sum(self.duration(i) for i in self.outermost(names))

    def covered(self, root: int) -> float:
        """Time inside `root` covered by its program spans."""
        return sum(self.duration(c) for c in self.children[root])

    def module_names(self, module: str) -> set[str]:
        return {s[0] for s in self.spans if s[0].split(".", 1)[0] == module}


def percentile_summary(samples) -> dict:
    """Median plus the highest percentile that has at least ten samples beyond it."""
    values = sorted(samples)
    n = len(values)
    out = {"n": n, "median": median(values)}
    if n >= 11:
        out["p"] = round(100.0 * (n - 10) / n, 2)
        out["p_value"] = values[n - 11]
    return out


def median(values) -> float:
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])

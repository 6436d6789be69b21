"""Span tracing of opiniongame's public functions, installed from outside.

The tracer replaces each listed function with a recording wrapper in every
opiniongame module that binds its name (so intra-package calls such as
solver -> linalg.exp_with_integral are seen), and puts the originals back on
exit.  Nothing under src/ changes.  Spans are kept in memory; per-layer sums
are computed when the traced pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from dataclasses import dataclass

MODULES = ("opiniongame", "opiniongame.network", "opiniongame.linalg",
           "opiniongame.solver", "opiniongame.analytic", "opiniongame.verify",
           "opiniongame.cli")

# (layer, function) pairs wrapped by the tracer; the layer is the module.
TARGETS = (
    ("network", "validate"), ("network", "build_matrices"),
    ("linalg", "exp_with_integral"), ("linalg", "solve_linear"),
    ("solver", "solve_equilibrium"), ("solver", "spectral_data"),
    ("solver", "transition_blocks"),
    ("analytic", "gamma"), ("analytic", "complete_trajectory"),
    ("analytic", "leader_trajectory"), ("analytic", "leader_distance"),
    ("analytic", "epsilon_consensus_time"), ("analytic", "leader_consensus_time"),
    ("verify", "nash_residual"), ("verify", "best_response"),
    ("verify", "deviation_test"), ("verify", "cumulative_trapezoid_matrix"),
    ("verify", "stationarity_check"), ("verify", "evaluate_cost"),
    ("cli", "closed_form_deviation"), ("cli", "write_trajectory_csv"),
)


def _note_spectral(args, kwargs, result):
    return "general" if result is None else "spectral"


def _note_csv(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# Extra facts recorded on a span when the call returns.
_NOTES = {"solver.spectral_data": _note_spectral,
          "cli.write_trajectory_csv": _note_csv}


@dataclass
class Span:
    name: str
    op: int          # identifier shared by every span of one benchmark op
    parent: int      # index of the enclosing span, -1 for an op root
    start: float
    end: float = 0.0
    error: str = ""  # exception type name if the call raised
    note: object = None


class Tracer:
    """Context manager that installs the wrappers; records only inside op()."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        mods = [importlib.import_module(name) for name in MODULES]
        for layer, fname in TARGETS:
            original = getattr(importlib.import_module(f"opiniongame.{layer}"), fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx].error = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if note is not None:
                self.spans[idx].note = note(args, kwargs, result)
            return result

        return wrapper

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._op, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id, kind):
        """Mark one benchmark op as the root span; wrappers record only here."""
        self._op = op_id
        idx = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    # -- per-layer sums -----------------------------------------------------

    def totals(self):
        """{span name: (calls, self seconds)}; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = {}
        for s, c in zip(self.spans, child):
            calls, self_s = out.get(s.name, (0, 0.0))
            out[s.name] = (calls + 1, self_s + (s.end - s.start) - c)
        return out

    def layer_metrics(self):
        """Values for every per-layer metric that the spans determine."""
        totals = self.totals()
        out = {}
        for layer, fname in TARGETS:
            calls, self_s = totals.get(f"{layer}.{fname}", (0, 0.0))
            out[f"{layer}.{fname}.calls"] = calls
            out[f"{layer}.{fname}.self_ms"] = 1e3 * self_s
        solves = [i for i, s in enumerate(self.spans)
                  if s.name == "solver.solve_equilibrium"]
        general = {s.parent for s in self.spans
                   if s.name == "solver.spectral_data" and s.note == "general"}
        out["solver.general_route_share"] = (
            sum(1 for i in solves if i in general) / len(solves) if solves else 0.0)
        errors = [self.spans[i].error for i in solves]
        out["solver.singular_failures"] = errors.count("SingularMatrixError")
        out["solver.boundary_failures"] = errors.count("ArithmeticError")
        out["cli.csv_bytes"] = sum(s.note for s in self.spans
                                   if s.name == "cli.write_trajectory_csv"
                                   and s.note is not None)
        return out

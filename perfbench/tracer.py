"""Span tracer that wraps hornitp's public functions from outside.

``Tracer.install`` replaces each target function by a wrapper in every
``hornitp`` module that holds a binding of it: modules import with
``from .x import f``, so ``solver``, ``horn``, ``problems`` and ``engine``
each hold their own binding of ``engine.sat``, and rebinding only the
defining module would miss those calls.  ``uninstall`` restores them.

Wrappers record spans only between ``begin`` and ``end``.  Span stacks are
per thread, so work on the threads that ``solve`` starts for ``jobs > 1``
is never attributed to a span of another thread.  A span's self time is
its duration minus the time its child spans cover; spans of one thread
nest, so that coverage is the sum of the children's durations.  Spans are
folded into per-key totals as they close instead of being kept.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from time import perf_counter

# module -> public functions that open a span
SPAN_TARGETS = {
    "chc": ["parse_chc"],
    "analysis": ["classify", "normalize", "connected_components"],
    "encodings": ["sequence_from_linear_treelike", "tree_problem_from_treelike",
                  "dag_problem_from_linear"],
    "lp": ["decide_rational"],
    "engine": ["sat", "binary_interpolant"],
    "terms": ["to_dnf"],
    "solver": ["tree_interpolate", "dag_interpolate", "body_disjoint_transform",
               "find_counterexample", "_solve_component"],
    "horn": ["verify_solution"],
    "problems": ["check_tree", "check_dag"],
}
MODULES = tuple(SPAN_TARGETS)

# engine's recursive cube deciders; each call runs decide_rational once, so
# the calls made from inside another one are the integer branch nodes
BRANCH_TARGETS = ("_decide", "_interpolate_cubes")

# decide_rational calls with more variables than this are "large"; the
# bucket follows an input property, not the engine that serves the call
SMALL_LP_VARS = 6


def _lp_key(args, kwargs):
    atoms = args[0] if args else kwargs["atoms"]
    names: set = set()
    for a in atoms:
        names |= a.vars
    size = "large" if len(names) > SMALL_LP_VARS else "small"
    return f"lp.decide_rational.{size}", len(atoms)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list = []  # (module object, attribute, original)
        self.missing: list = []  # targets absent from this hornitp version
        self.recording = False
        # totals over all traced instances
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.atoms = defaultdict(int)
        self.module_self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.error_types = defaultdict(int)
        self.branch_nodes = 0
        self.dnf_cubes = 0
        self.instances = 0
        self.wall_s = 0.0
        self.remainder_s = 0.0
        self.components = 0
        self.component_max_s = 0.0
        self.component_sum_s = 0.0

    # -- installation -------------------------------------------------------

    def install(self):
        package = [m for name, m in sys.modules.items()
                   if name == "hornitp" or name.startswith("hornitp.")]
        for module, names in SPAN_TARGETS.items():
            for name in names:
                self._rebind(package, module, name, self._span_wrapper)
        for name in BRANCH_TARGETS:
            self._rebind(package, "engine", name, self._branch_wrapper)

    def _rebind(self, package, module, name, make):
        original = getattr(sys.modules.get(f"hornitp.{module}"), name, None)
        if original is None:
            self.missing.append(f"{module}.{name}")
            return
        wrapper = make(module, name, original)
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- recording ------------------------------------------------------------

    def begin(self):
        """Start recording the spans of one instance."""
        self._roots: list = []  # (start, end) of spans opened on an empty stack
        self._components: list = []
        self._verify_calls = 0
        self._seen_errors: dict = {}
        self._t0 = perf_counter()
        self.recording = True

    def end(self) -> int:
        """Stop recording; return the number of horn.verify_solution spans
        the instance opened."""
        t1 = perf_counter()
        self.recording = False
        self.instances += 1
        self.wall_s += t1 - self._t0
        covered, reach = 0.0, self._t0
        for start, stop in sorted(self._roots):
            if stop > reach:
                covered += stop - max(start, reach)
                reach = stop
        self.remainder_s += (t1 - self._t0) - covered
        self.components += len(self._components)
        self.component_max_s += max(self._components, default=0.0)
        self.component_sum_s += sum(self._components)
        return self._verify_calls

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, module, name, original):
        key = f"{module}.{name}"
        is_lp = key == "lp.decide_rational"
        is_dnf = key == "terms.to_dnf"

        def wrapper(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            span_key, n_atoms = _lp_key(args, kwargs) if is_lp else (key, 0)
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            frame = [span_key, 0.0]  # key, time covered by children
            stack.append(frame)
            error = None
            cubes = 0
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                if is_dnf:
                    cubes = len(result)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                stop = perf_counter()
                stack.pop()
                duration = stop - start
                if stack:
                    stack[-1][1] += duration
                self._close(module, span_key, parent, start, stop, duration - frame[1],
                            error, n_atoms, cubes)

        wrapper.__wrapped__ = original
        return wrapper

    def _close(self, module, key, parent, start, stop, self_time, error, n_atoms, cubes):
        duration = stop - start
        with self._lock:
            self.calls[key] += 1
            self.self_s[key] += self_time
            self.total_s[key] += duration
            self.module_self_s[module] += self_time
            if n_atoms:
                self.atoms[key] += n_atoms
            self.dnf_cubes += cubes
            if key == "engine.sat" and parent in ("solver.tree_interpolate",
                                                  "solver.find_counterexample"):
                sub = ("solver.frontier_check" if parent == "solver.tree_interpolate"
                       else "solver.find_counterexample.sat")
                self.calls[sub] += 1
                self.self_s[sub] += self_time
                self.total_s[sub] += duration
            if key == "solver._solve_component":
                self._components.append(duration)
            if key == "horn.verify_solution":
                self._verify_calls += 1
            if parent is None:
                self._roots.append((start, stop))
            if error is not None and (module, id(error)) not in self._seen_errors:
                # count an exception once per module, however many of the
                # module's nested spans it leaves; holding the object keeps
                # its id from being reused within the instance
                self._seen_errors[(module, id(error))] = error
                self.errors[module] += 1
                self.error_types[f"{module}.{type(error).__name__}"] += 1

    def _branch_wrapper(self, module, name, original):
        def wrapper(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            local = self._local
            depth = getattr(local, "branch_depth", 0)
            if depth:
                with self._lock:
                    self.branch_nodes += 1
            local.branch_depth = depth + 1
            try:
                return original(*args, **kwargs)
            finally:
                local.branch_depth = depth

        wrapper.__wrapped__ = original
        return wrapper

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, averaged per traced instance unless the name
        says otherwise."""
        n = max(self.instances, 1)
        large = "lp.decide_rational.large"
        small = "lp.decide_rational.small"
        out = {
            "chc.parse_chc.calls": self.calls["chc.parse_chc"] / n,
            "chc.parse_chc.self_s": self.self_s["chc.parse_chc"] / n,
            "analysis.classify.self_s": self.self_s["analysis.classify"] / n,
            "analysis.normalize.self_s": self.self_s["analysis.normalize"] / n,
            "analysis.connected_components.self_s":
                self.self_s["analysis.connected_components"] / n,
            f"{large}.calls": self.calls[large] / n,
            f"{large}.self_s": self.self_s[large] / n,
            f"{large}.atoms_mean": self.atoms[large] / max(self.calls[large], 1),
            f"{small}.calls": self.calls[small] / n,
            f"{small}.self_s": self.self_s[small] / n,
            "solver.frontier_check.calls": self.calls["solver.frontier_check"] / n,
            "solver.frontier_check.self_s": self.self_s["solver.frontier_check"] / n,
            "solver.frontier_check.total_s": self.total_s["solver.frontier_check"] / n,
            "solver.tree_interpolate.self_s": self.self_s["solver.tree_interpolate"] / n,
            "solver.dag_interpolate.self_s": self.self_s["solver.dag_interpolate"] / n,
            "solver.body_disjoint_transform.self_s":
                self.self_s["solver.body_disjoint_transform"] / n,
            "engine.binary_interpolant.calls": self.calls["engine.binary_interpolant"] / n,
            "engine.binary_interpolant.self_s": self.self_s["engine.binary_interpolant"] / n,
            "engine.branch_nodes": self.branch_nodes / n,
            "terms.to_dnf.calls": self.calls["terms.to_dnf"] / n,
            "terms.to_dnf.cubes": self.dnf_cubes / n,
            "solver.find_counterexample.calls": self.calls["solver.find_counterexample"] / n,
            "solver.find_counterexample.self_s": self.self_s["solver.find_counterexample"] / n,
            "solver.find_counterexample.sat_calls":
                self.calls["solver.find_counterexample.sat"] / n,
            "horn.verify_solution.calls": self.calls["horn.verify_solution"] / n,
            "horn.verify_solution.self_s": self.self_s["horn.verify_solution"] / n,
            "problems.check_tree.self_s": self.self_s["problems.check_tree"] / n,
            "problems.check_dag.self_s": self.self_s["problems.check_dag"] / n,
            "solver.components": self.components / n,
            "solver.component_s.max": self.component_max_s / n,
            "solver.component_s.sum": self.component_sum_s / n,
        }
        for module in MODULES:
            out[f"{module}.self_s"] = self.module_self_s[module] / n
            out[f"{module}.errors"] = self.errors[module] / n
        out["trace.instances"] = self.instances
        out["trace.remainder_s"] = self.remainder_s / n
        return out

"""Solve recorder and per-layer tracer, installed from outside the package.

Both work by rebinding module attributes of `satgp`: a public function is
replaced by a wrapper in the module that defines it, in every other
`satgp` module that imported it by name, and in the package namespace.
Nothing inside the package is edited.

`Recorder` wraps only `solve` and is installed in every run: per round it
maps each distinct (instance, normalized init) input to its search trace
(verdict, conflicts, decisions, propagations).  Keying by input rather
than by call order keeps the trace comparable when a later version
answers repeated inputs from a memo.  Its cost is one `normalize` and
one hash of the init vector per solve, tens of microseconds against
searches of milliseconds.

`Tracer` wraps the public functions of every module and keeps one span
per call (function, start, end, parent span) in memory.  It is installed
only for the traced rounds of a `--trace 1` run.
"""

from __future__ import annotations

import hashlib
import inspect
import struct
import sys
from time import perf_counter

# Called once per tree node; its work is counted by lang.node_evals.
NOT_TRACED = frozenset({"eval_node"})


class CheckFailure(Exception):
    """An output of the program is wrong, or differs between rounds."""


def init_digest(normalize, init) -> str:
    """Digest of the init vector after the package's `normalize`, so two
    inits that differ by a positive scale share a digest."""
    vec = normalize(init)
    packed = struct.pack(f"<{len(vec)}d", *vec)
    return hashlib.blake2b(packed, digest_size=8).hexdigest()


def _modules(pkg):
    prefix = pkg.__name__ + "."
    return [pkg] + [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)]


class _Rebinder:
    """Swaps function objects for wrappers wherever satgp binds them."""

    def __init__(self, pkg, wrappers):
        self.sites = []
        for module in _modules(pkg):
            for attr, value in vars(module).items():
                for original, wrapper in wrappers:
                    if value is original:
                        self.sites.append((module, attr, original, wrapper))

    def install(self):
        for module, attr, _, wrapper in self.sites:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self.sites:
            setattr(module, attr, original)


class Recorder:
    """Records the search trace of every distinct solve input of a round."""

    def __init__(self, pkg, names):
        """`names` maps a preprocessed Cnf value to its instance name; the
        caller may fill it after construction."""
        self.outcomes = {}
        self.calls = 0
        self.solve = pkg.solver.solve
        normalize = pkg.lang.normalize
        recorder = self

        def solve(cnf, init, config=None):
            out = recorder.solve(cnf, init, config)
            key = (names.get(cnf, "?"), init_digest(normalize, init))
            trace = (out.verdict, out.conflicts, out.decisions, out.propagations)
            seen = recorder.outcomes.setdefault(key, trace)
            if seen != trace:
                raise CheckFailure(
                    f"instance {key[0]} init {key[1]}: the same input gave {seen} and {trace}"
                )
            recorder.calls += 1
            return out

        solve.__wrapped__ = self.solve
        self.rebinder = _Rebinder(pkg, [(self.solve, solve)])
        self.rebinder.install()

    def start_round(self):
        self.outcomes = {}
        self.calls = 0

    def close(self):
        self.rebinder.uninstall()


class Tracer:
    """Spans around every call to a public function of the package.

    Public means: a function named in `satgp.__all__`, plus
    `harness.random_init`, minus the per-node interpreter `eval_node`.
    A span is [function name, start, end, parent span index, extra]; extra
    holds the counts a span carries (solve trace, interpreter counters).
    """

    def __init__(self, pkg):
        self.spans = []
        self.stack = []
        wrappers = []
        targets = {name: getattr(pkg, name) for name in pkg.__all__}
        targets["random_init"] = pkg.harness.random_init
        for name, fn in sorted(targets.items()):
            if not inspect.isfunction(fn) or name in NOT_TRACED:
                continue
            # `solve` is already the recorder's wrapper; tracing wraps it
            # again, so both run in traced rounds.
            layer = getattr(fn, "__wrapped__", fn).__module__.rsplit(".", 1)[-1]
            wrappers.append((fn, self._wrap(f"{layer}.{name}", fn)))
        self.rebinder = _Rebinder(pkg, wrappers)

    def _wrap(self, label, fn):
        spans, stack = self.spans, self.stack
        counts_interpreter = label == "lang.compute_activities"
        is_solve = label == "solver.solve"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if counts_interpreter:
                counters = kwargs.get("counters")
                if counters is None:
                    counters = kwargs["counters"] = {}
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = [label, start, end, parent, None]
            if counts_interpreter:
                spans[idx][4] = (counters["node_evals"], counters["in_executions"])
            elif is_solve:
                spans[idx][4] = (result.conflicts, result.decisions, result.propagations)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        self.rebinder.install()

    def uninstall(self):
        self.rebinder.uninstall()

    def mark(self) -> int:
        return len(self.spans)

    def window(self, start: int, end: int) -> dict:
        """Per-layer figures of the spans recorded between two marks."""
        spans = self.spans[start:end]

        def parent_of(span):
            return self.spans[span[3]] if span[3] >= 0 else None

        def inside(span, label):
            p = parent_of(span)
            while p is not None:
                if p[0] == label:
                    return True
                p = parent_of(p)
            return False

        def total(label, within=None):
            return sum(s[2] - s[1] for s in spans
                       if s[0] == label and (within is None or inside(s, within))
                       and not inside(s, label))

        def calls(label):
            return sum(1 for s in spans if s[0] == label)

        solves = [s for s in spans if s[0] == "solver.solve" and not inside(s, "solver.solve")]
        acts = [s for s in spans if s[0] == "lang.compute_activities"]
        return {
            "cnf.parse_dimacs_s": total("cnf.parse_dimacs"),
            "cnf.preprocess_bcp_s": total("cnf.preprocess_bcp"),
            "cnf.compute_var_stats_s": total("cnf.compute_var_stats"),
            "cnf.reorder_s": total("cnf.reorder"),
            "lang.compute_activities_s": total("lang.compute_activities"),
            "lang.compute_activities_calls": len(acts),
            "lang.node_evals": sum(s[4][0] for s in acts),
            "lang.in_executions": sum(s[4][1] for s in acts),
            "solver.solve_s": sum(s[2] - s[1] for s in solves),
            "solver.solve_calls": len(solves),
            "solver.conflicts": sum(s[4][0] for s in solves),
            "solver.decisions": sum(s[4][1] for s in solves),
            "solver.propagations": sum(s[4][2] for s in solves),
            "solve_durations": [s[2] - s[1] for s in solves],
            "gp.evaluate_s": total("gp.evaluate"),
            "gp.evaluate_calls": calls("gp.evaluate"),
            "gp.step_steady_state_s": total("gp.step_steady_state"),
            "gp.evaluate_in_step_s": total("gp.evaluate", within="gp.step_steady_state"),
            "harness.run_histogram_s": total("harness.run_histogram"),
            "harness.random_init_s": total("harness.random_init", within="harness.run_histogram"),
            "harness.solve_in_histogram_s": total("solver.solve", within="harness.run_histogram"),
        }

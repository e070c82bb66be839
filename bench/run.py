"""Benchmark of satgp's solve throughput in the paper's three uses.

    python3 bench/run.py --workload solve_ladder --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --regenerate      # rewrite bench/expected_traces.json

Run from the root of a source checkout; the package is imported from
`src/`.  A run is: selection (fixes the round's make-up; untimed), set-up
of the selected instances (repeated, median taken), one untimed warm-up
round, then identical timed rounds until `--seconds` is used up.  Every
round's results must equal the warm-up round's, and at the default seed
every search trace must equal `expected_traces.json`.  Times are scaled
to a reference host speed by `HostClock`.  The last line of standard output is one JSON
object: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`.  Details of the run go to `bench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from probe import CheckFailure, Recorder, Tracer
from workloads import FULL, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_TRACES = BENCH_DIR / "expected_traces.json"
OUT_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 1
SETUP_REPEATS = 25
IMPORT_REPEATS = 25
MIN_ROUNDS = 3
# Wall time of `reference_work` on the measuring host when it ran fast;
# scaled times read as wall times on a host of that speed.
REFERENCE_S = 0.025


def reference_work():
    """Fixed pure-Python work like an interpreter's inner loop: list
    indexing, branches and dict updates.  It uses nothing of satgp, so a
    change to the package does not move it."""
    xs = list(range(1000))
    counts = {}
    total = 0
    for k in range(200):
        for i in range(1000):
            j = xs[(i * 7 + k) % 1000]
            if j & 1:
                total += j
            else:
                counts[j] = counts.get(j, 0) + 1
        xs.reverse()
    return total + len(counts)


class HostClock:
    """Times steps in seconds of a host running at the reference speed.

    The measuring host is a shared VM whose speed drifts by up to 2x over
    minutes.  Each step's wall time is divided by the mean wall time of
    `reference_work` run just before and just after it, and multiplied by
    REFERENCE_S, so host slowness that falls on both cancels.
    """

    def __init__(self):
        self.restart()

    def restart(self):
        """Measures the reference anew; call after untimed work."""
        self.last_reference = self._reference()

    @staticmethod
    def _reference():
        start = perf_counter()
        reference_work()
        return perf_counter() - start

    def time(self, step):
        """Runs `step`; returns its value, wall time and scaled time."""
        start = perf_counter()
        value = step()
        wall = perf_counter() - start
        reference = self._reference()
        scaled = REFERENCE_S * wall * 2.0 / (self.last_reference + reference)
        self.last_reference = reference
        return value, wall, scaled


def import_package(clock=None, repeats=1):
    """Import satgp from the checkout's src/, never from anywhere else.

    The package is imported `repeats` times, each time after dropping it
    from sys.modules; returns the last import and, if a clock is given,
    the median scaled time.
    """
    src = ROOT / "src"
    if not (src / "satgp" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package at {src / 'satgp'}; run from a source checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m == "satgp" or m.startswith("satgp.")]:
            del sys.modules[name]
        if clock is None:
            pkg = importlib.import_module("satgp")
        else:
            pkg, _, scaled = clock.time(lambda: importlib.import_module("satgp"))
            times.append(scaled)
    if Path(pkg.__file__).resolve().parent != (src / "satgp").resolve():
        raise SystemExit(f"bench: imported satgp from {pkg.__file__}, not from {src}")
    return pkg, statistics.median(times) if times else None


def compare_traces(workload, expected: dict, outcomes: dict) -> None:
    """Raise CheckFailure naming the first search whose trace differs."""
    got = traces_by_instance(outcomes)
    for instance in sorted(set(expected) | set(got)):
        want, have = expected.get(instance, {}), got.get(instance, {})
        for digest in sorted(set(want) | set(have)):
            if want.get(digest) != have.get(digest):
                raise CheckFailure(
                    f"{workload.name}: instance {instance}"
                    f" {workload.init_label(instance, digest)}: trace"
                    f" (verdict, conflicts, decisions, propagations) is"
                    f" {have.get(digest)}, expected {want.get(digest)}"
                )


def traces_by_instance(outcomes: dict) -> dict:
    out = {}
    for (instance, digest), trace in sorted(outcomes.items()):
        out.setdefault(instance, {})[digest] = list(trace)
    return out


def median_window(windows, key):
    return statistics.median(w[key] for w in windows)


def layer_metrics(setup_windows, round_windows, distinct_ratio, overhead) -> dict:
    """Per-layer figures of one set-up plus one round (medians of each)."""
    first_setup, first_round = setup_windows[0], round_windows[0]

    def seconds(key):
        return median_window(setup_windows, key) + median_window(round_windows, key)

    def count(key):
        return first_setup[key] + first_round[key]

    acts_s = seconds("lang.compute_activities_s")
    solve_s = seconds("solver.solve_s")
    durations = [d for w in round_windows for d in w["solve_durations"]]
    values = {
        "cnf.parse_dimacs_s": (seconds("cnf.parse_dimacs_s"), "s"),
        "cnf.preprocess_bcp_s": (seconds("cnf.preprocess_bcp_s"), "s"),
        "cnf.compute_var_stats_s": (seconds("cnf.compute_var_stats_s"), "s"),
        "cnf.reorder_s": (seconds("cnf.reorder_s"), "s"),
        "lang.compute_activities_s": (acts_s, "s"),
        "lang.compute_activities_calls": (count("lang.compute_activities_calls"), "count"),
        "lang.node_evals": (count("lang.node_evals"), "count"),
        "lang.in_executions": (count("lang.in_executions"), "count"),
        "lang.node_evals_per_s": (count("lang.node_evals") / acts_s if acts_s else 0.0, "1/s"),
        "solver.solve_s": (solve_s, "s"),
        "solver.solve_calls": (count("solver.solve_calls"), "count"),
        "solver.conflicts": (count("solver.conflicts"), "count"),
        "solver.decisions": (count("solver.decisions"), "count"),
        "solver.propagations": (count("solver.propagations"), "count"),
        "solver.conflicts_per_s": (count("solver.conflicts") / solve_s, "1/s"),
        "solver.propagations_per_s": (count("solver.propagations") / solve_s, "1/s"),
        "solver.solve_ms_p50": (1000.0 * statistics.median(durations), "ms"),
        "solver.distinct_ratio": (distinct_ratio, "ratio"),
        "gp.evaluate_s": (seconds("gp.evaluate_s"), "s"),
        "gp.evaluate_calls": (count("gp.evaluate_calls"), "count"),
        "gp.step_steady_state_s": (seconds("gp.step_steady_state_s"), "s"),
        "gp.self_s": (statistics.median(
            w["gp.step_steady_state_s"] - w["gp.evaluate_in_step_s"] for w in round_windows), "s"),
        "harness.run_histogram_s": (seconds("harness.run_histogram_s"), "s"),
        "harness.random_init_s": (seconds("harness.random_init_s"), "s"),
        "harness.self_s": (statistics.median(
            w["harness.run_histogram_s"] - w["harness.solve_in_histogram_s"]
            - w["harness.random_init_s"] for w in round_windows), "s"),
        "trace.overhead": (overhead, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def warm_up(workload, recorder):
    """Run the round once untimed and check its results.

    Returns the results, the search traces by input, and the solve calls.
    """
    recorder.start_round()
    result = workload.round()
    outcomes, calls = dict(recorder.outcomes), recorder.calls
    workload.check(result, outcomes)
    return result, outcomes, calls


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes=FULL, expected_path: Path = EXPECTED_TRACES) -> dict:
    """One benchmark run; returns the result object printed by main."""
    clock = HostClock()
    sat, import_s = import_package(clock, IMPORT_REPEATS)
    workdir = OUT_DIR / f"{workload_name}-seed{seed}-trace{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[workload_name](sat, seed, workdir, sizes)
    select_start = perf_counter()
    workload.select()
    select_s = perf_counter() - select_start
    selected = workload.names()
    recorder = Recorder(sat, selected)
    tracer = Tracer(sat) if trace else None
    try:
        setup_times, setup_windows = [], []
        clock.restart()
        for _ in range(SETUP_REPEATS):
            gc.collect()
            if tracer:
                tracer.install()
                mark = tracer.mark()
            _, _, scaled = clock.time(workload.setup)
            setup_times.append(scaled)
            if tracer:
                tracer.uninstall()
                setup_windows.append(tracer.window(mark, tracer.mark()))
            if workload.names() != selected:
                raise CheckFailure(f"{workload_name}: set-up gave other instances than the selection")

        warm_start = perf_counter()
        reference, outcomes, calls = warm_up(workload, recorder)
        warm_up_s = perf_counter() - warm_start
        if seed == DEFAULT_SEED:
            expected = json.loads(expected_path.read_text())[workload_name]
            compare_traces(workload, expected, outcomes)
        summary = workload.summary(reference)

        round_times = {False: [], True: []}
        wall_times = []
        round_windows = []
        clock.restart()
        rounds_start = perf_counter()
        rounds = 0
        while True:
            traced = bool(tracer) and rounds % 2 == 1
            gc.collect()
            recorder.start_round()
            if traced:
                tracer.install()
                mark = tracer.mark()
            result, elapsed, scaled = clock.time(workload.round)
            if traced:
                tracer.uninstall()
                round_windows.append(tracer.window(mark, tracer.mark()))
            round_times[traced].append(scaled)
            wall_times.append(elapsed)
            rounds += 1
            if recorder.outcomes != outcomes or workload.summary(result) != summary:
                raise CheckFailure(f"{workload_name}: round {rounds} differs from the warm-up round")
            used = perf_counter() - rounds_start
            need = 2 * MIN_ROUNDS if tracer else MIN_ROUNDS
            if rounds >= need and used + elapsed > seconds:
                break
    finally:
        recorder.close()

    round_s = statistics.median(round_times[False])
    conflicts = workload.round_conflicts(reference)
    if trace:
        overhead = statistics.median(round_times[True]) / round_s
        metrics = layer_metrics(setup_windows, round_windows, len(outcomes) / calls, overhead)
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "round_s": {"value": round_s, "unit": "s"},
            "conflicts_per_s": {"value": conflicts / round_s, "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    details = {
        "workload": workload_name, "seed": seed, "trace": trace,
        "import_s": import_s, "select_s": select_s, "setup_times": setup_times,
        "warm_up_s": warm_up_s,
        "round_times": round_times[False], "traced_round_times": round_times[True],
        "round_wall_times": wall_times,
        "round_conflicts": conflicts, "round_operations": workload.round_operations(reference),
        "solve_calls": calls, "distinct_inputs": len(outcomes),
        "make_up": workload.describe(), "metrics": metrics,
        "traces": traces_by_instance(outcomes),
    }
    (workdir / "result.json").write_text(json.dumps(details, indent=1, default=str))
    if tracer:
        (workdir / "spans.json").write_text(json.dumps([s[:4] for s in tracer.spans]))
    return {
        "correct": True,
        "attempted": rounds * workload.round_operations(reference),
        "failed": 0,
        "metrics": metrics,
    }


def regenerate(sizes=FULL, path: Path = EXPECTED_TRACES, seed: int = DEFAULT_SEED) -> None:
    """Write the search traces of every workload's round at `seed`."""
    sat, _ = import_package()
    traces = {}
    for name, cls in WORKLOADS.items():
        workdir = OUT_DIR / f"{name}-seed{seed}-regenerate"
        workdir.mkdir(parents=True, exist_ok=True)
        workload = cls(sat, seed, workdir, sizes)
        workload.select()
        recorder = Recorder(sat, workload.names())
        try:
            workload.setup()
            _, outcomes, _ = warm_up(workload, recorder)
        finally:
            recorder.close()
        traces[name] = traces_by_instance(outcomes)
    path.write_text(json.dumps(traces, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate", action="store_true",
                        help=f"rewrite {EXPECTED_TRACES.name} at the default seed and exit")
    args = parser.parse_args(argv)
    if args.regenerate:
        regenerate()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailure as exc:
        print(f"bench: FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

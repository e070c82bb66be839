"""Experiment harness: initialization histograms, reorder comparisons and
validation sweeps.

The histogram procedure measures how much the initial activities matter
for a problem: solve once with the all-zero baseline (conflict count k0),
then many times with per-variable uniform random activities, and bin each
run's conflict count as a rounded percentage of k0.  Every sample's
activity vector is drawn from its own stored seed, so the best and worst
runs can be replayed in isolation.

All reports embed the master seed and a hash of the solver configuration;
CSV artifacts start with the comment line
`# config-hash=<hex> master-seed=<int>` and are byte-stable across reruns
except for wall-time columns.

`map_shared` is the one `--jobs` path of the package: histogram samples
and GP fitness evaluation both fan out through it.  A call that needs one
worker runs inline and never imports the process-pool machinery
(`multiprocessing`, `concurrent.futures`); the first multi-worker call
imports it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import partial

from .cnf import Cnf, preprocess_bcp, random_3sat, reorder
from .lang import InitProgram, compute_activities, print_program
from .rng import SplitMix64, spawn_seeds
from .solver import SCHEDULE, SolveOutcome, SolverConfig, solve, solve_with_baseline

# Generator coordinates of the bundled desk-scale instance used by the
# test suite and the documentation examples (unsatisfiable, baseline of
# 60 conflicts at the default solver configuration).
BUNDLED_3SAT = {"num_vars": 50, "num_clauses": 215, "seed": 7}


def bundled_cnf() -> Cnf:
    """The bundled random 3-SAT instance (deterministic, never changes)."""
    return random_3sat(**BUNDLED_3SAT)


def config_hash(config: SolverConfig) -> str:
    """Stable 16-hex-digit digest of a solver configuration together with
    the fixed search schedule (solver.SCHEDULE)."""
    blob = json.dumps({**asdict(config), **SCHEDULE}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def percent_bin(conflicts: int, k0: int) -> int:
    """100 * conflicts / k0 rounded to the nearest integer, halves up, in
    exact integers: the histogram bin of a run with that many conflicts."""
    return (200 * conflicts + k0) // (2 * k0)


@dataclass
class SampleRow:
    sample_id: int
    seed: int
    conflicts: int
    decisions: int
    percent: int


@dataclass
class HistogramReport:
    """One histogram run.  baseline is the zero-initialization search
    (its conflicts are k0); config_hash, of the solver configuration,
    goes into the CSV comment line."""

    problem: str
    samples: int
    lo: float
    hi: float
    master_seed: int
    config_hash: str
    baseline: SolveOutcome
    bins: dict[int, int]
    rows: list[SampleRow]
    min_conflicts: int
    min_seed: int
    max_conflicts: int
    max_seed: int


def random_init(num_vars: int, seed: int, lo: float, hi: float) -> list[float]:
    """Per-variable uniform activities in [lo, hi) from one sample seed."""
    gen = SplitMix64(seed)
    return [gen.uniform(lo, hi) for _ in range(num_vars)]


def _searched_formula(cnf: Cnf) -> Cnf:
    """preprocess_bcp's reduction of raw cnf; ValueError if that decides it."""
    reduced, verdict, _ = preprocess_bcp(cnf)
    if verdict != "reduced":
        raise ValueError(f"problem is {verdict} after preprocessing")
    return reduced


def replay_sample(
    cnf: Cnf, seed: int, lo: float, hi: float, config: SolverConfig
) -> SolveOutcome:
    """Re-run one run_histogram sample of the raw formula cnf from its
    stored seed: the search runs on preprocess_bcp's reduced formula, and
    a formula that run_histogram refuses is refused the same way."""
    reduced = _searched_formula(cnf)
    return solve(reduced, random_init(reduced.num_vars, seed, lo, hi), config)


def pool_size(jobs: int, tasks: int) -> int:
    """Worker processes for `tasks` tasks at `--jobs jobs`.

    Never more than the tasks or the CPUs: a process pool starts all of
    its workers at once, however few tasks there are.
    """
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


_shared = None  # what map_shared shipped to this worker process


def _install_shared(shared) -> None:
    global _shared
    _shared = shared


def _call_shared(fn, task):
    return fn(_shared, task)


def map_shared(fn, shared, tasks, jobs: int = 1) -> list:
    """[fn(shared, task) for task in tasks], in task order.

    With more than one worker (see pool_size) the tasks run in a pool of
    spawned processes, and `shared` is pickled once per worker, for the
    pool's initializer, instead of into every task.  fn must be a
    module-level function; each worker gets its own copy of `shared`,
    which lives as long as the pool.  With one worker the tasks run inline
    and the pool modules are not imported; the first multi-worker call
    imports them.
    """
    tasks = list(tasks)
    workers = pool_size(jobs, len(tasks))
    if workers == 1:
        return [fn(shared, task) for task in tasks]
    # Imported here, not at the top: they load about 30 modules that a
    # serial run never uses.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, len(tasks) // (4 * workers))
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_install_shared,
        initargs=(shared,),
    ) as pool:
        return list(pool.map(partial(_call_shared, fn), tasks, chunksize=chunksize))


def _histogram_sample(shared, seed: int) -> tuple[int, int]:
    cnf, lo, hi, config = shared
    outcome = solve(cnf, random_init(cnf.num_vars, seed, lo, hi), config)
    return outcome.conflicts, outcome.decisions


def check_histogram_args(samples: int, lo: float, hi: float) -> None:
    """ValueError unless samples >= 1 and [lo, hi) is a finite range with
    lo < hi (or the degenerate all-zero range 0:0)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not lo < hi and not (lo == hi == 0.0):
        raise ValueError(f"range {lo}:{hi}: need lo < hi (or the degenerate all-zero range 0:0)")
    if not all(math.isfinite(x) for x in (lo, hi, hi - lo)):
        raise ValueError(f"range {lo}:{hi}: lo, hi and hi - lo must be finite")


def run_histogram(
    cnf: Cnf,
    samples: int,
    lo: float,
    hi: float,
    config: SolverConfig,
    master_seed: int,
    problem: str = "",
    jobs: int = 1,
) -> HistogramReport:
    """Random-initialization histogram for one raw problem.

    Every search runs on the formula preprocess_bcp reduces cnf to.
    Sample i draws its activities from child seed i of master_seed (see
    rng.spawn_seeds), so replay_sample can re-run any sample later; a
    sample's bin is percent_bin of its conflicts.  Raises ValueError,
    before any search, for arguments check_histogram_args refuses and for
    a formula that preprocessing alone decides, and when the baseline
    solves without conflicts, because percentages of zero are undefined.
    """
    check_histogram_args(samples, lo, hi)
    cnf = _searched_formula(cnf)
    baseline = solve_with_baseline(cnf, config)
    if baseline.conflicts == 0:
        raise ValueError("baseline has no conflicts; histogram undefined")

    seeds = spawn_seeds(master_seed, samples)
    results = map_shared(_histogram_sample, (cnf, lo, hi, config), seeds, jobs)

    bins: dict[int, int] = {}
    rows: list[SampleRow] = []
    for i, (seed, (conflicts, decisions)) in enumerate(zip(seeds, results)):
        percent = percent_bin(conflicts, baseline.conflicts)
        bins[percent] = bins.get(percent, 0) + 1
        rows.append(SampleRow(i, seed, conflicts, decisions, percent))

    best = min(rows, key=lambda r: r.conflicts)
    worst = max(rows, key=lambda r: r.conflicts)
    return HistogramReport(
        problem=problem,
        samples=samples,
        lo=lo,
        hi=hi,
        master_seed=master_seed,
        config_hash=config_hash(config),
        baseline=baseline,
        bins=bins,
        rows=rows,
        min_conflicts=best.conflicts,
        min_seed=best.seed,
        max_conflicts=worst.conflicts,
        max_seed=worst.seed,
    )


@dataclass
class ReorderComparison:
    original: HistogramReport
    reordered: HistogramReport
    kappa_ratio: float  # reordered k0 / original k0


def compare_reordered(
    cnf: Cnf,
    reorder_seed: int,
    samples: int,
    config: SolverConfig,
    master_seed: int,
    problem: str = "",
) -> ReorderComparison:
    """run_histogram of the raw CNF and of its reordered twin, with
    uniform activities in [0, 1).

    Reordering only renames variables, flips polarities and permutes
    clauses, so preprocessing decides the twin exactly when it decides
    cnf, and run_histogram refuses such a formula before any search.
    """
    twins = (cnf, reorder(cnf, reorder_seed)[0])
    names = (problem, f"{problem}.reordered" if problem else "reordered")
    original, reordered = (
        run_histogram(twin, samples, 0.0, 1.0, config, master_seed, problem=name)
        for twin, name in zip(twins, names)
    )
    ratio = reordered.baseline.conflicts / original.baseline.conflicts
    return ReorderComparison(original=original, reordered=reordered, kappa_ratio=ratio)


def percent_of_baseline(conflicts: int, baseline: int) -> float:
    """conflicts as a percentage of baseline: 100.0 when both are 0, inf
    when only the baseline is."""
    if baseline:
        return 100.0 * conflicts / baseline
    return math.inf if conflicts else 100.0


@dataclass
class ValidationRow:
    problem: str
    baseline_conflicts: int
    program_conflicts: int
    percent: float
    baseline_decisions: int
    program_decisions: int
    baseline_time: float
    program_time: float


@dataclass
class ValidationReport:
    program_text: str
    config_hash: str
    rows: list[ValidationRow]
    mean_percent: float = field(init=False)
    total_percent: float = field(init=False)

    def __post_init__(self):
        rows = self.rows
        self.mean_percent = sum(r.percent for r in rows) / len(rows) if rows else 100.0
        self.total_percent = percent_of_baseline(
            sum(r.program_conflicts for r in rows), sum(r.baseline_conflicts for r in rows))


def run_validation(
    program: InitProgram, problems, config: SolverConfig
) -> ValidationReport:
    """Measure a program against the zero baseline on held-out problems.

    `problems` is an iterable of (name, raw Cnf).  Each problem is
    preprocessed, solved with the zero initialization and with the
    program's raw initialization (the solver normalizes it internally).
    A row's percent is percent_of_baseline of the two conflict counts,
    so a problem decided by preprocessing, where no search happens
    either way, gives 100%.  This is a measurement tool; it never
    passes or fails.
    """
    rows = []
    for name, cnf in problems:
        reduced, verdict, _ = preprocess_bcp(cnf)
        if verdict != "reduced":
            rows.append(ValidationRow(name, 0, 0, 100.0, 0, 0, 0.0, 0.0))
            continue
        base = solve_with_baseline(reduced, config)
        prog_out = solve(reduced, compute_activities(program, reduced), config)
        rows.append(
            ValidationRow(
                problem=name,
                baseline_conflicts=base.conflicts,
                program_conflicts=prog_out.conflicts,
                percent=percent_of_baseline(prog_out.conflicts, base.conflicts),
                baseline_decisions=base.decisions,
                program_decisions=prog_out.decisions,
                baseline_time=base.wall_time,
                program_time=prog_out.wall_time,
            )
        )
    return ValidationReport(
        program_text=print_program(program),
        config_hash=config_hash(config),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# CSV artifacts


def csv_text(cfg_hash: str, master_seed: int, header, rows) -> str:
    """A CSV artifact: the `# config-hash=<hex> master-seed=<int>` comment
    line, the header row, then one line per row (LF line endings)."""
    buf = io.StringIO()
    buf.write(f"# config-hash={cfg_hash} master-seed={master_seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def histogram_csv(report: HistogramReport) -> str:
    """percent,count rows sorted by percent."""
    return csv_text(
        report.config_hash, report.master_seed, ["percent", "count"], sorted(report.bins.items())
    )


def samples_csv(report: HistogramReport) -> str:
    header = [f.name for f in fields(SampleRow)]
    return csv_text(report.config_hash, report.master_seed, header, map(astuple, report.rows))


def validation_csv(report: ValidationReport, master_seed: int) -> str:
    header = [f.name for f in fields(ValidationRow)]
    rows = [
        (r.problem, r.baseline_conflicts, r.program_conflicts, f"{r.percent:.3f}",
         r.baseline_decisions, r.program_decisions,
         f"{r.baseline_time:.6f}", f"{r.program_time:.6f}")
        for r in report.rows
    ]
    return csv_text(report.config_hash, master_seed, header, rows)

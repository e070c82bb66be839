"""Command-line interface.

Subcommands:

    solve      solve one DIMACS file, optionally with a computed or loaded
               initialization (exit 10 SAT / 20 UNSAT / 1 error)
    histogram  random-initialization histogram CSVs for one file
    evolve     evolve an initialization program against fitness-case files
    reorder    shuffle clauses, rename and randomly invert variables
    validate   measure a program against the zero baseline on many files
    gen        generate random 3-SAT instances

Every run that writes artifacts, gen included, also writes manifest.json
next to them, recording the command, flags, seeds, config hash and the
digest of every file it read, as needed to replay it byte for byte
(wall-time columns excepted).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import astuple
from pathlib import Path

from . import __version__
from .cnf import (
    check_int,
    check_model,
    preprocess_bcp,
    random_3sat,
    read_dimacs,
    reorder,
    write_dimacs,
    write_mapping,
)
from .gp import (
    EvalMemo,
    FitnessCaseSet,
    GpConfig,
    create_initial_population,
    load_checkpoint,
    run_evolution,
    save_checkpoint,
)
from .harness import (
    check_histogram_args,
    config_hash,
    csv_text,
    histogram_csv,
    percent_bin,
    run_histogram,
    run_validation,
    samples_csv,
    validation_csv,
)
from .lang import (
    InitProgram,
    PRESETS,
    compute_activities,
    parse_program,
    preset_program,
    print_program,
)
from .rng import SplitMix64, check_real
from .solver import SolverConfig, solve

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1


def _emit(args, config: SolverConfig | None, master_seed: int, inputs, artifacts) -> str:
    """Write a run's artifacts (name -> text) and its manifest.json into
    --out (default "."), creating it, and return that directory.

    inputs are the paths of every file the run read; the manifest records
    each one's sha256, taken before any file is written, so an input that
    an artifact replaces (evolve --resume DIR/checkpoint.txt --out DIR) is
    recorded as it was read.  config is None for commands that never
    search (reorder, gen); the manifest then records an empty config hash.
    """
    manifest = {
        "command": args.command,
        "flags": {k: v for k, v in vars(args).items() if k != "func"},
        "config_hash": "" if config is None else config_hash(config),
        "master_seed": master_seed,
        "version": __version__,
        "inputs": {path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in inputs},
    }
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    files = {**artifacts, "manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n"}
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            fh.write(text)
    return out_dir


def _solver_config(args) -> SolverConfig:
    """The solver flags as a SolverConfig; ValueError if one is out of range."""
    return SolverConfig(var_decay=args.var_decay, random_decision_freq=args.random_freq,
                        restart_first=args.restart_first, rng_seed=args.solver_seed)


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    default = SolverConfig()
    parser.add_argument("--var-decay", type=float, default=default.var_decay)
    parser.add_argument("--random-freq", type=float, default=default.random_decision_freq)
    parser.add_argument("--restart-first", type=int, default=default.restart_first)
    parser.add_argument(
        "--solver-seed",
        type=int,
        default=default.rng_seed,
        help="seed for the solver's decision RNG",
    )


def _load_program(spec: str) -> InitProgram:
    """Accept 'preset:<name>' or a path to a program text file."""
    if spec.startswith("preset:"):
        return preset_program(spec.split(":", 1)[1])
    with open(spec) as fh:
        return parse_program(fh.read())


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    config = _solver_config(args)
    build_init = _init_builder(args.init)
    cnf = read_dimacs(args.file)
    reduced, verdict, forced = preprocess_bcp(cnf)
    print(f"c file={args.file} vars={cnf.num_vars} clauses={len(cnf.clauses)}")
    print(f"c forced={len(forced)} preprocess={verdict}")

    outcome = None
    sat = verdict == "satisfied"
    model = dict.fromkeys(range(1, cnf.num_vars + 1), False)
    if verdict == "reduced":
        outcome = solve(reduced, build_init(reduced), config)
        sat = outcome.verdict == "sat"
        model = outcome.model or model
    if sat:
        for lit in forced:  # forced assignments win over the search's model
            model[abs(lit)] = lit > 0
        check_model(cnf, model)
    print("s SATISFIABLE" if sat else "s UNSATISFIABLE")
    counts = (outcome.conflicts, outcome.decisions, outcome.propagations) if outcome else (0, 0, 0)
    print("c conflicts={} decisions={} propagations={}".format(*counts))
    if outcome is not None:
        print(f"c wall_time={outcome.wall_time:.6f}")
    if args.model and sat:
        _print_model(model)

    if args.out:
        init_file = [args.init.removeprefix("file:")] if args.init.startswith("file:") else []
        _emit(args, config, args.solver_seed, [args.file, *init_file], {})
    return EXIT_SAT if sat else EXIT_UNSAT


def _init_builder(spec: str):
    """Check an --init spec before the formula is read: the kind, the
    preset name, or that the file is readable and holds finite numbers.
    Returns a function giving the activities of the preprocessed formula."""
    kind, _, name = spec.partition(":")
    if spec == "zero":
        return lambda reduced: [0.0] * reduced.num_vars
    if kind == "preset":
        program = preset_program(name)
        return lambda reduced: compute_activities(program, reduced)
    if kind == "file":
        with open(name) as fh:
            tokens = fh.read().split()
        try:
            init = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise ValueError(f"--init {spec}: {exc}") from None
        for i, a in enumerate(init, 1):
            check_real(f"--init {spec}: activity {i}", a)
        return lambda reduced: init
    raise ValueError(f"unknown --init {spec!r}; use zero, preset:<name> or file:<path>")


def _print_model(model: dict[int, bool]) -> None:
    lits = [v if model[v] else -v for v in sorted(model)]
    for i in range(0, len(lits), 20):
        print("v " + " ".join(str(l) for l in lits[i : i + 20]))
    print("v 0")


# ---------------------------------------------------------------------------
# histogram


def cmd_histogram(args) -> int:
    check_int("--jobs", args.jobs, 1)
    config = _solver_config(args)
    lo, hi = _parse_range(args.range)
    check_histogram_args(args.samples, lo, hi)
    report = run_histogram(
        read_dimacs(args.file),
        args.samples,
        lo,
        hi,
        config,
        args.seed,
        problem=os.path.basename(args.file),
        jobs=args.jobs,
    )
    artifacts = {"histogram.csv": histogram_csv(report), "samples.csv": samples_csv(report)}
    out_dir = _emit(args, config, args.seed, [args.file], artifacts)
    k0 = report.baseline.conflicts
    print(
        f"baseline conflicts k0={k0}; {report.samples} samples in"
        f" [{report.lo}, {report.hi}); best {report.min_conflicts}"
        f" ({percent_bin(report.min_conflicts, k0)}%),"
        f" worst {report.max_conflicts}"
        f" ({percent_bin(report.max_conflicts, k0)}%)"
    )
    print(f"artifacts written to {out_dir}")
    return 0


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo_text, hi_text = text.split(":")
        return float(lo_text), float(hi_text)
    except ValueError:
        raise ValueError(f"bad --range {text!r}; expected lo:hi") from None


# ---------------------------------------------------------------------------
# evolve


def cmd_evolve(args) -> int:
    check_int("--jobs", args.jobs, 1)
    solver_config = _solver_config(args)
    gp_config = GpConfig(population_size=args.pop, generations=args.gens, rng_seed=args.seed)
    named = [(os.path.basename(path), read_dimacs(path)) for path in args.files]
    cases = FitnessCaseSet.from_cnfs(named, solver_config)
    if args.resume:
        with open(args.resume) as fh:
            population, generation, rng = load_checkpoint(
                fh.read(), cases, gp_config.population_size
            )
        if args.gens <= generation:
            raise ValueError(
                f"--gens {args.gens} does not exceed the checkpoint's generation"
                f" {generation}; nothing to evolve"
            )
    else:
        rng = SplitMix64(args.seed)
        population = create_initial_population(gp_config, rng)
        generation = 0
    memo = EvalMemo()
    best, log = run_evolution(
        cases,
        gp_config,
        jobs=args.jobs,
        population=population,
        start_generation=generation,
        rng=rng,
        memo=memo,
    )

    header = ["gen", "best_fitness", "mean_fitness", "best_nodes", "best_program"]
    log_csv = csv_text(config_hash(solver_config), args.seed, header, map(astuple, log))
    artifacts = {
        "best_program.txt": print_program(best.program) + "\n",
        "evolution_log.csv": log_csv,
        "checkpoint.txt": save_checkpoint(population, log[-1].generation, rng, cases),
    }
    inputs = [*args.files, args.resume] if args.resume else args.files
    out_dir = _emit(args, solver_config, args.seed, inputs, artifacts)
    print(
        f"{memo.evaluations} evaluations, {memo.interpreter_runs}"
        f" interpreter runs, {memo.searches} searches"
    )
    print(f"best fitness {best.fitness!r} with {best.program.node_count} nodes:")
    print(f"  {print_program(best.program)}")
    print(f"artifacts written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# reorder


def cmd_reorder(args) -> int:
    cnf = read_dimacs(args.file)
    reordered, mapping = reorder(cnf, args.seed)
    stem = os.path.splitext(os.path.basename(args.file))[0]
    cnf_name = f"{stem}.reordered.cnf"
    map_name = f"{stem}.map"
    artifacts = {
        cnf_name: write_dimacs(reordered, comments=(f"reordered seed={args.seed}",)),
        map_name: write_mapping(mapping),
    }
    out_dir = _emit(args, None, args.seed, [args.file], artifacts)
    print(f"wrote {cnf_name} and {map_name} in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    config = _solver_config(args)
    program = _load_program(args.program)
    problems = [(os.path.basename(p), read_dimacs(p)) for p in args.files]
    report = run_validation(program, problems, config)
    program_file = [] if args.program.startswith("preset:") else [args.program]
    artifacts = {"validation.csv": validation_csv(report, args.solver_seed)}
    out_dir = _emit(args, config, args.solver_seed, [*program_file, *args.files], artifacts)
    print(f"program: {report.program_text}")
    for row in report.rows:
        print(
            f"  {row.problem}: {row.program_conflicts} vs {row.baseline_conflicts}"
            f" baseline conflicts ({row.percent:.1f}%)"
        )
    print(
        f"mean percent {report.mean_percent:.1f}, total percent"
        f" {report.total_percent:.1f}; artifacts in {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    check_int("--vars", args.vars, 3)
    check_int("--clauses", args.clauses, 0)
    check_int("--count", args.count, 0)
    artifacts = {}
    for seed in range(args.seed, args.seed + args.count):
        cnf = random_3sat(args.vars, args.clauses, seed)
        name = f"rand3sat_v{args.vars}_c{args.clauses}_s{seed}.cnf"
        artifacts[name] = write_dimacs(cnf, comments=(f"random 3-SAT seed={seed}",))
    out_dir = _emit(args, None, args.seed, [], artifacts)
    for name in artifacts:
        print(os.path.join(out_dir, name))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satgp",
        description="CDCL solver with evolvable activity initialization",
    )
    parser.add_argument("--version", action="version", version=f"satgp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one DIMACS CNF file")
    p.add_argument("file")
    p.add_argument(
        "--init",
        default="zero",
        help="zero | preset:<name> | file:<path>"
        f" (presets: {', '.join(sorted(PRESETS))})",
    )
    p.add_argument("--model", action="store_true", help="print v lines when SAT")
    p.add_argument("--out", default=None, help="write manifest.json here")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("histogram", help="random-initialization histogram")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--range", default="0:1", help="lo:hi for random activities")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("evolve", help="evolve an initialization program")
    p.add_argument("files", nargs="+", help="fitness case DIMACS files")
    p.add_argument("--pop", type=int, default=GpConfig().population_size)
    p.add_argument("--gens", type=int, default=GpConfig().generations)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resume", default=None, help="continue from a checkpoint file")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("reorder", help="reorder a CNF (clauses, names, polarities)")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reorder)

    p = sub.add_parser("validate", help="compare a program against the baseline")
    p.add_argument("program", help="preset:<name> or a program text file")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="generate random 3-SAT files")
    p.add_argument("--vars", type=int, default=50)
    p.add_argument("--clauses", type=int, default=215)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError) and exc.strerror:
            message = exc.strerror if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        else:
            message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands:

    solve      solve one DIMACS file, optionally with a computed or loaded
               initialization (exit 10 SAT / 20 UNSAT / 1 error)
    histogram  random-initialization histogram CSVs for one file
    evolve     evolve an initialization program against fitness-case files
    reorder    shuffle clauses, rename and randomly invert variables
    validate   measure a program against the zero baseline on many files
    gen        generate random 3-SAT instances

Every run that writes artifacts also writes manifest.json next to them,
recording the command, flags, seeds, config hash and input digests needed
to replay it byte for byte (wall-time columns excepted).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .cnf import (
    Cnf,
    DimacsError,
    check_model,
    compute_var_stats,
    preprocess_bcp,
    random_3sat,
    read_dimacs,
    reorder,
    write_dimacs,
    write_mapping,
)
from .gp import (
    FitnessCaseSet,
    GpConfig,
    load_checkpoint,
    run_evolution,
    save_checkpoint,
)
from .harness import (
    config_hash,
    csv_header_comment,
    histogram_csv,
    run_histogram,
    run_validation,
    samples_csv,
    validation_csv,
)
from .lang import (
    InitProgram,
    PRESETS,
    ProgramSyntaxError,
    compute_activities,
    parse_program,
    preset_program,
    print_program,
)
from .solver import SolverConfig, solve

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _write_manifest(args, config: SolverConfig | None, master_seed: int, paths) -> None:
    """Write manifest.json for this run into its output directory.

    config is None for commands that never search (reorder); the manifest
    then records an empty config hash.
    """
    manifest = {
        "command": args.command,
        "flags": _flags(args),
        "config_hash": "" if config is None else config_hash(config),
        "master_seed": master_seed,
        "version": __version__,
        "inputs": {path: _sha256_file(path) for path in paths},  # path -> sha256
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write(_out_dir(args), "manifest.json", text)


def _out_dir(args) -> str:
    out = args.out or os.environ.get("SATGP_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        var_decay=args.var_decay,
        random_decision_freq=args.random_freq,
        restart_first=args.restart_first,
        rng_seed=args.solver_seed,
    )


def _jobs(text: str) -> int:
    """argparse type of --jobs: a worker count of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--var-decay", type=float, default=0.95, dest="var_decay")
    parser.add_argument("--random-freq", type=float, default=0.02, dest="random_freq")
    parser.add_argument("--restart-first", type=int, default=100, dest="restart_first")
    parser.add_argument(
        "--solver-seed",
        type=int,
        default=0,
        dest="solver_seed",
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
    cnf = read_dimacs(args.file)
    reduced, verdict, forced = preprocess_bcp(cnf)
    print(f"c file={args.file} vars={cnf.num_vars} clauses={len(cnf.clauses)}")
    print(f"c forced={len(forced)} preprocess={verdict}")

    if verdict == "unsatisfiable":
        sat = False
        print("s UNSATISFIABLE")
        print("c conflicts=0 decisions=0 propagations=0")
    elif verdict == "satisfied":
        sat = True
        model = {v: False for v in range(1, cnf.num_vars + 1)}
        for lit in forced:
            model[abs(lit)] = lit > 0
        check_model(cnf, model)
        print("s SATISFIABLE")
        print("c conflicts=0 decisions=0 propagations=0")
        if args.model:
            _print_model(model)
    else:
        outcome = solve(reduced, _build_init(args, reduced), config)
        sat = outcome.verdict == "sat"
        if sat:
            model = dict(outcome.model)
            for lit in forced:  # forced assignments win over solver's defaults
                model[abs(lit)] = lit > 0
            check_model(cnf, model)
            print("s SATISFIABLE")
        else:
            print("s UNSATISFIABLE")
        print(
            f"c conflicts={outcome.conflicts} decisions={outcome.decisions}"
            f" propagations={outcome.propagations}"
        )
        print(f"c wall_time={outcome.wall_time:.6f}")
        if args.model and sat:
            _print_model(model)

    if args.out:
        _write_manifest(args, config, args.solver_seed, [args.file])
    return EXIT_SAT if sat else EXIT_UNSAT


def _build_init(args, reduced: Cnf) -> list[float]:
    spec = args.init
    if spec == "zero":
        init = [0.0] * reduced.num_vars
    elif spec.startswith("preset:"):
        program = preset_program(spec.split(":", 1)[1])
        init = compute_activities(program, reduced, compute_var_stats(reduced))
    elif spec.startswith("file:"):
        with open(spec.split(":", 1)[1]) as fh:
            init = [float(tok) for tok in fh.read().split()]
    else:
        raise ValueError(
            f"unknown --init {spec!r}; use zero, preset:<name> or file:<path>"
        )
    return init


def _print_model(model: dict[int, bool]) -> None:
    lits = [v if model[v] else -v for v in sorted(model)]
    for i in range(0, len(lits), 20):
        print("v " + " ".join(str(l) for l in lits[i : i + 20]))
    print("v 0")


# ---------------------------------------------------------------------------
# histogram


def cmd_histogram(args) -> int:
    config = _solver_config(args)
    cnf = read_dimacs(args.file)
    reduced, verdict, _ = preprocess_bcp(cnf)
    if verdict != "reduced":
        print(f"error: problem is {verdict} after preprocessing", file=sys.stderr)
        return EXIT_ERROR
    lo, hi = _parse_range(args.range)
    report = run_histogram(
        reduced,
        args.samples,
        lo,
        hi,
        config,
        args.seed,
        problem=os.path.basename(args.file),
        jobs=args.jobs,
    )
    out_dir = _out_dir(args)
    _write(out_dir, "histogram.csv", histogram_csv(report))
    _write(out_dir, "samples.csv", samples_csv(report))
    _write_manifest(args, config, args.seed, [args.file])
    k0 = report.baseline.conflicts
    print(
        f"baseline conflicts k0={k0}; {report.samples} samples in"
        f" [{report.lo}, {report.hi}); best {report.min_conflicts}"
        f" ({100 * report.min_conflicts / k0:.0f}%),"
        f" worst {report.max_conflicts}"
        f" ({100 * report.max_conflicts / k0:.0f}%)"
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
    solver_config = _solver_config(args)
    named = [(os.path.basename(path), read_dimacs(path)) for path in args.files]
    cases = FitnessCaseSet.from_cnfs(named, solver_config)
    gp_config = GpConfig(
        population_size=args.pop,
        generations=args.gens,
        tournament_size=min(10, args.pop),
        rng_seed=args.seed,
    )
    resume_kwargs = {}
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
        resume_kwargs = {
            "population": population,
            "start_generation": generation,
            "rng": rng,
        }
    state: dict = {}
    best, log = run_evolution(
        cases, gp_config, jobs=args.jobs, state_out=state, **resume_kwargs
    )

    out_dir = _out_dir(args)
    _write(out_dir, "best_program.txt", print_program(best.program) + "\n")
    log_lines = [csv_header_comment(config_hash(solver_config), args.seed)]
    log_lines.append("gen,best_fitness,mean_fitness,best_nodes,best_program")
    for rec in log:
        prog = rec.best_program.replace('"', '""')
        log_lines.append(
            f"{rec.generation},{rec.best_fitness!r},{rec.mean_fitness!r},"
            f'{rec.best_nodes},"{prog}"'
        )
    _write(out_dir, "evolution_log.csv", "\n".join(log_lines) + "\n")
    _write(
        out_dir,
        "checkpoint.txt",
        save_checkpoint(state["population"], state["generation"], state["rng"], cases),
    )
    _write_manifest(args, solver_config, args.seed, args.files)
    print(
        f"{state['evaluations']} evaluations, {state['interpreter_runs']}"
        f" interpreter runs, {state['searches']} searches"
    )
    print(f"best fitness {best.fitness!r} with {best.node_count} nodes:")
    print(f"  {print_program(best.program)}")
    print(f"artifacts written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# reorder


def cmd_reorder(args) -> int:
    cnf = read_dimacs(args.file)
    reordered, mapping = reorder(cnf, args.seed)
    out_dir = _out_dir(args)
    stem = os.path.splitext(os.path.basename(args.file))[0]
    cnf_name = f"{stem}.reordered.cnf"
    map_name = f"{stem}.map"
    _write(out_dir, cnf_name, write_dimacs(reordered, comments=(f"reordered seed={args.seed}",)))
    _write(out_dir, map_name, write_mapping(mapping))
    _write_manifest(args, None, args.seed, [args.file])
    print(f"wrote {cnf_name} and {map_name} in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    config = _solver_config(args)
    program = _load_program(args.program)
    problems = [(os.path.basename(p), read_dimacs(p)) for p in args.files]
    report = run_validation(program, problems, config)
    out_dir = _out_dir(args)
    _write(out_dir, "validation.csv", validation_csv(report, args.solver_seed))
    _write_manifest(args, config, args.solver_seed, args.files)
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
    out_dir = _out_dir(args)
    rngseeds = [args.seed + i for i in range(args.count)]
    for i, seed in enumerate(rngseeds):
        cnf = random_3sat(args.vars, args.clauses, seed)
        name = f"rand3sat_v{args.vars}_c{args.clauses}_s{seed}.cnf"
        _write(out_dir, name, write_dimacs(cnf, comments=(f"random 3-SAT seed={seed}",)))
        print(os.path.join(out_dir, name))
    return 0


# ---------------------------------------------------------------------------


def _write(out_dir: str, name: str, content: str) -> None:
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        fh.write(content)


def _flags(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


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
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("evolve", help="evolve an initialization program")
    p.add_argument("files", nargs="+", help="fitness case DIMACS files")
    p.add_argument("--pop", type=int, default=1000)
    p.add_argument("--gens", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resume", default=None, help="continue from a checkpoint file")
    p.add_argument("--jobs", type=_jobs, default=1)
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
    except (DimacsError, ProgramSyntaxError, ValueError, OSError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

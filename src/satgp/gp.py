"""Steady-state genetic programming over initialization programs.

Individuals are three-tree programs (PRE / IN / POST).  Fitness is

    F = sqrt(sum_i (c_i + d_i/1000)^2) + nodes/1000

over the fitness cases, where c_i / d_i are the solver's conflict and
decision counts; lower is better.  Squaring makes balanced improvements
across cases beat lopsided ones, decisions and tree size act as
tie-breakers.

One generation performs len(population) replacement events.  Each event
tournament-selects two parents (size min(TOURNAMENT_SIZE, len(population)),
lowest fitness wins) and creates one child by subtree crossover within a
uniformly chosen fragment (95%), by fresh ramped-half-and-half creation
(2%, depths 2..6), or by copying a parent; these settings are module
constants.  Children deeper than 17 are rejected and the parent is copied
instead.  The child replaces the loser of an inverse tournament, with the
population's current best individual protected from replacement.  Copies
reuse the parent's solver statistics: evaluation is deterministic.

run_evolution advances the population and rng its caller made.  Each
call keeps an exact two-level evaluation memo (EvalMemo): a program text
seen before skips the interpreter, and an initialization seen before on
a case skips the solver.  It serves one run only (made there, or handed
in fresh by a caller that reads its counters), so every run does the
work of a fresh one.  All fitness goes through evaluate, which scores a
population: it runs the interpreter on the new programs, then one search
per new (case, init), each phase through harness.map_shared; results and
counters never depend on the worker count.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field, replace

from .cnf import Cnf, VarStats, check_int, compute_var_stats, write_dimacs
from .harness import config_hash, map_shared, searched_formula
from .lang import (
    FUNCTIONS,
    TERMINALS_BY_FRAGMENT,
    InLayout,
    InitProgram,
    Node,
    compute_activities,
    in_layout,
    node_count,
    normalize,
    parse_program,
    print_program,
    replace_subtree,
    subtree_at,
    tree_depth,
)
from .rng import SplitMix64
from .solver import SolverConfig, solve

_FUNCTION_NAMES = tuple(FUNCTIONS)


# The operator settings of the paper's runs; no caller varies them.
CROSSOVER_PROB = 0.95
TOURNAMENT_SIZE = 10  # or the whole population when it is smaller
CREATION_PROB = 0.02
CREATION_MAX_DEPTH = 6
CROSSOVER_MAX_DEPTH = 17


@dataclass(frozen=True)
class GpConfig:
    population_size: int = 1000
    generations: int = 5
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_int("generations", self.generations, 0)
        check_int("population_size", self.population_size, 2)
        check_int("rng_seed", self.rng_seed)


@dataclass
class Individual:
    program: InitProgram
    fitness: float | None = None
    per_case: list[tuple[int, int]] | None = None  # (conflicts, decisions)
    # How the individual was made: "<method>-<depth>" ("full-4", "grow-2"),
    # "crossover" or "copy".  The package never reads it; the benchmark's
    # evolve workload does, to tell copies from the children it evaluated.
    origin: str = ""


@dataclass
class FitnessCase:
    """One preprocessed formula that GP scores programs on, with the data
    every interpreter run on it shares: its VarStats and its InLayout,
    in_layout(cnf, stats).  FitnessCaseSet.from_cnfs builds both once per
    case, and they go with the case to --jobs workers."""

    name: str
    cnf: Cnf  # preprocessed
    stats: VarStats
    layout: InLayout = field(repr=False)


@dataclass
class FitnessCaseSet:
    cases: list[FitnessCase]
    solver_config: SolverConfig

    @staticmethod
    def from_cnfs(named_cnfs, solver_config: SolverConfig) -> "FitnessCaseSet":
        """Preprocess raw CNFs into fitness cases.  Refuses, through
        searched_formula as the histogram does, problems that preprocessing
        alone decides: a fitness case must require search."""
        cases = []
        for name, cnf in named_cnfs:
            try:
                reduced = searched_formula(cnf)
            except ValueError as exc:
                raise ValueError(f"fitness case {name!r}: {exc}; it must require search") from None
            stats = compute_var_stats(reduced)
            cases.append(FitnessCase(name, reduced, stats, in_layout(reduced, stats)))
        if not cases:
            raise ValueError("at least one fitness case is required")
        return FitnessCaseSet(cases, solver_config)

    def digest(self) -> str:
        """16-hex-digit digest of the preprocessed formulas, in case order."""
        h = hashlib.sha256()
        for case in self.cases:
            h.update(write_dimacs(case.cnf).encode())
        return h.hexdigest()[:16]


def fitness(per_case, node_count: int) -> float:
    """Combine per-case (conflicts, decisions) and tree size into one score."""
    total = 0.0
    for conflicts, decisions in per_case:
        term = conflicts + decisions / 1000.0
        total += term * term
    return math.sqrt(total) + node_count / 1000.0


@dataclass
class EvalMemo:
    """Exact evaluation memo of evaluate for one set of fitness cases.

    by_text maps print_program text to per-case (conflicts, decisions),
    which skips the interpreter; by_init maps (case index, bytes of
    normalize(acts) as doubles) to (conflicts, decisions), which skips the
    solver.  Both keys are exact: a by_init key is the input that was
    searched, and the solver config, frozen, is fixed per case set.  Ranks
    would not be: x**5 keeps the order of an init but changes its trace.
    The counters tally evaluated individuals, interpreter runs and searches.
    """

    by_text: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    by_init: dict[tuple[int, bytes], tuple[int, int]] = field(default_factory=dict)
    evaluations: int = 0
    interpreter_runs: int = 0
    searches: int = 0


def _init_keys(cases: FitnessCaseSet, program: InitProgram) -> list[tuple[int, bytes]]:
    """map_shared task: the program's by_init key on every fitness case."""
    keys = []
    for i, case in enumerate(cases.cases):
        acts = normalize(compute_activities(program, case.cnf, case.stats, layout=case.layout))
        keys.append((i, struct.pack(f"{len(acts)}d", *acts)))
    return keys


def _search(cases: FitnessCaseSet, key: tuple[int, bytes]) -> tuple[int, int]:
    """map_shared task: (conflicts, decisions) of the search from a key's
    doubles, the raw activities' search, as the solver normalizes them."""
    i, packed = key
    case = cases.cases[i]
    acts = list(struct.unpack(f"{len(packed) // 8}d", packed))
    outcome = solve(case.cnf, acts, cases.solver_config)
    return outcome.conflicts, outcome.decisions


def evaluate(
    population, cases: FitnessCaseSet, jobs: int = 1, memo: EvalMemo | None = None
) -> None:
    """Set per_case and fitness on every individual whose fitness is None;
    one that has a fitness (a resumed one) is left alone and not counted.
    Without `memo`, a fresh memo serves this call.

    The one scoring function, and so the one place that decides what is
    searched: the interpreter runs on the distinct programs whose text the
    memo lacks, then each (case, init) key memo.by_init lacks is searched
    once, in first-seen order.  Both phases go through map_shared, so
    nothing depends on `jobs`, which must be an int >= 1.
    """
    check_int("jobs", jobs, 1)
    if memo is None:
        memo = EvalMemo()
    todo = [ind for ind in population if ind.fitness is None]
    texts = [print_program(ind.program) for ind in todo]
    programs = {t: ind.program for t, ind in zip(texts, todo) if t not in memo.by_text}
    if programs:
        keys = map_shared(_init_keys, cases, list(programs.values()), jobs)
        new = list(dict.fromkeys(k for ks in keys for k in ks if k not in memo.by_init))
        memo.by_init.update(zip(new, map_shared(_search, cases, new, jobs)))
        for text, ks in zip(programs, keys):
            memo.by_text[text] = [memo.by_init[k] for k in ks]
        memo.interpreter_runs += len(programs) * len(cases.cases)
        memo.searches += len(new)
    memo.evaluations += len(todo)
    for ind, text in zip(todo, texts):
        ind.per_case = memo.by_text[text]
        ind.fitness = fitness(ind.per_case, ind.program.node_count)


# ---------------------------------------------------------------------------
# Tree creation


def random_tree(rng: SplitMix64, fragment: str, depth: int, method: str) -> Node:
    """Create one random tree.

    'full' places functions everywhere above the target depth so every
    leaf sits exactly at `depth`; 'grow' draws uniformly from terminals
    and functions, so leaves may appear early.
    """
    terminals = TERMINALS_BY_FRAGMENT[fragment]
    if depth <= 1:
        return Node(terminals[rng.randrange(len(terminals))])
    if method == "full":
        kind = _FUNCTION_NAMES[rng.randrange(len(_FUNCTION_NAMES))]
    else:
        pool_size = len(terminals) + len(_FUNCTION_NAMES)
        pick = rng.randrange(pool_size)
        if pick < len(terminals):
            return Node(terminals[pick])
        kind = _FUNCTION_NAMES[pick - len(terminals)]
    children = tuple(
        random_tree(rng, fragment, depth - 1, method) for _ in range(FUNCTIONS[kind])
    )
    return Node(kind, children)


def random_individual(rng: SplitMix64, depth: int, method: str) -> Individual:
    prog = InitProgram(
        pre=random_tree(rng, "pre", depth, method),
        in_loop=random_tree(rng, "in", depth, method),
        post=random_tree(rng, "post", depth, method),
    )
    return Individual(prog, origin=f"{method}-{depth}")


def create_initial_population(config: GpConfig, rng: SplitMix64 | None = None):
    """Ramped half-and-half: cycle depths 2..CREATION_MAX_DEPTH, half of
    the individuals at each depth built with 'full', half with 'grow'."""
    if rng is None:
        rng = SplitMix64(config.rng_seed)
    ramp = [
        (depth, method)
        for depth in range(2, CREATION_MAX_DEPTH + 1)
        for method in ("full", "grow")
    ]
    population = []
    for i in range(config.population_size):
        depth, method = ramp[i % len(ramp)]
        population.append(random_individual(rng, depth, method))
    return population


# ---------------------------------------------------------------------------
# Variation operators


def crossover(
    parent_a: InitProgram, parent_b: InitProgram, rng: SplitMix64
) -> InitProgram | None:
    """Subtree crossover within one uniformly chosen fragment.

    Fragments are exchanged like-for-like (PRE with PRE and so on), which
    keeps loop-only terminals inside IN.  Returns None when the child
    would exceed CROSSOVER_MAX_DEPTH.
    """
    fragment = ("pre", "in_loop", "post")[rng.randrange(3)]
    tree_a = getattr(parent_a, fragment)
    tree_b = getattr(parent_b, fragment)
    point_a = rng.randrange(node_count(tree_a))
    point_b = rng.randrange(node_count(tree_b))
    donor = subtree_at(tree_b, point_b)
    new_tree = replace_subtree(tree_a, point_a, donor)
    if tree_depth(new_tree) > CROSSOVER_MAX_DEPTH:
        return None
    return replace(parent_a, **{fragment: new_tree})


def _sample_indices(rng: SplitMix64, n: int, k: int) -> list[int]:
    """k distinct indices from range(n), in draw order."""
    if k > n:
        raise ValueError(f"cannot draw k={k} distinct indices from n={n}")
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < k:
        i = rng.randrange(n)
        if i not in seen:
            seen.add(i)
            out.append(i)
    return out


def tournament_select(population, rng: SplitMix64, size: int) -> Individual:
    """Best (lowest fitness, the first drawn on a tie) of `size` distinct
    uniform draws.

    Sampling without replacement makes a full-population tournament
    return the global best.
    """
    drawn = (population[i] for i in _sample_indices(rng, len(population), size))
    return min(drawn, key=lambda ind: ind.fitness)


def _best_index(population) -> int:
    """The first index of the lowest fitness."""
    return min(range(len(population)), key=lambda i: population[i].fitness)


def _victim_index(population, rng: SplitMix64, size: int, protected: int) -> int:
    """Inverse tournament: the sampled individual with the highest fitness
    (the first drawn on a tie), never the protected (best-so-far) slot.
    size >= 2 draws distinct indices, so one candidate at least is not it."""
    candidates = (c for c in _sample_indices(rng, len(population), size) if c != protected)
    return max(candidates, key=lambda c: population[c].fitness)


def step_steady_state(
    population,
    cases: FitnessCaseSet,
    rng: SplitMix64,
    on_child=None,
    memo: EvalMemo | None = None,
):
    """Run len(population) replacement events in place; returns population.

    Tournaments hold min(TOURNAMENT_SIZE, len(population)) individuals;
    a population of fewer than 2 is refused with ValueError.  on_child,
    when given, is called with every freshly created Individual after
    evaluation (used by tests to audit depth and terminal rules).
    Each new child is scored by evaluate([child]) through `memo`, or a
    memo of this call only; every program checked itself when made (see
    InitProgram), and a copy shares its parent's program and fitness.
    """
    if len(population) < 2:
        raise ValueError(
            f"population has {len(population)} individuals;"
            " a steady-state step needs at least 2"
        )
    if memo is None:
        memo = EvalMemo()
    size = min(TOURNAMENT_SIZE, len(population))
    for _ in range(len(population)):
        parent_a = tournament_select(population, rng, size)
        parent_b = tournament_select(population, rng, size)

        child = None
        u = rng.random()
        if u < CROSSOVER_PROB:
            child_prog = crossover(parent_a.program, parent_b.program, rng)
            if child_prog is not None:
                child = Individual(child_prog, origin="crossover")
        elif u < CROSSOVER_PROB + CREATION_PROB:
            depth = 2 + rng.randrange(CREATION_MAX_DEPTH - 1)
            method = "full" if rng.flip() else "grow"
            child = random_individual(rng, depth, method)
        if child is None:
            child = Individual(
                parent_a.program,
                fitness=parent_a.fitness,
                per_case=parent_a.per_case,
                origin="copy",
            )

        rng.next_u64()  # unused draw, part of the pinned GP random stream

        if child.fitness is None:
            evaluate([child], cases, memo=memo)
        if on_child is not None:
            on_child(child)

        best = _best_index(population)
        victim = _victim_index(population, rng, size, best)
        population[victim] = child
    return population


@dataclass
class GenerationRecord:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_nodes: int
    best_program: str


def _record(generation: int, population) -> GenerationRecord:
    best = population[_best_index(population)]
    total = 0.0  # left to right, as sum() does only before Python 3.12
    for ind in population:
        total += ind.fitness
    return GenerationRecord(
        generation=generation,
        best_fitness=best.fitness,
        mean_fitness=total / len(population),
        best_nodes=best.program.node_count,
        best_program=print_program(best.program),
    )


def run_evolution(
    cases: FitnessCaseSet,
    config: GpConfig,
    population,
    rng: SplitMix64,
    on_child=None,
    jobs: int = 1,
    start_generation: int = 0,
    memo: EvalMemo | None = None,
):
    """Evaluate and evolve the population and rng the caller made, in place.

    Returns (best individual, list of GenerationRecord), where log[0]
    describes the evaluated population at start_generation, an int >= 0.
    A fresh run passes rng = SplitMix64(config.rng_seed) and
    create_initial_population(config, rng); a resumed run passes what
    load_checkpoint returned and its start_generation, and continues the
    exact random stream of an uninterrupted one.  After the call the two
    are the state to checkpoint, and best is an element of the population.

    The population is scored by one evaluate call and each new child by
    one more, all through one EvalMemo: the given one, whose counters then
    tally the run, or one made here.  Pass a fresh memo: one kept across
    runs on the same case set would make later runs nearly free.
    """
    check_int("start_generation", start_generation, 0)
    if len(population) != config.population_size:
        raise ValueError(
            f"population has {len(population)} individuals,"
            f" population_size is {config.population_size}"
        )
    if memo is None:
        memo = EvalMemo()
    evaluate(population, cases, jobs=jobs, memo=memo)

    log = [_record(start_generation, population)]
    for gen in range(start_generation + 1, config.generations + 1):
        step_steady_state(population, cases, rng, on_child=on_child, memo=memo)
        log.append(_record(gen, population))
    return population[_best_index(population)], log


# ---------------------------------------------------------------------------
# Checkpoints


def _checkpoint_fields(population_size: int, cases: FitnessCaseSet) -> dict:
    return {
        "population_size": str(population_size),
        "config_hash": config_hash(cases.solver_config),
        "cases_digest": cases.digest(),
    }


def save_checkpoint(population, generation: int, rng: SplitMix64, cases: FitnessCaseSet) -> str:
    """Serialize a population so an evolution run can be resumed.

    One line per individual: fitness TAB program text.  The header keeps
    the generation number and the RNG state, so a resumed run continues
    the exact random stream of an uninterrupted one, plus the population
    size, the solver-config hash and the digest of the fitness cases the
    fitness values were measured on.  generation must be an int >= 0.
    """
    check_int("generation", generation, 0)
    fields = {
        "generation": generation,
        "rng_state": rng.state,
        **_checkpoint_fields(len(population), cases),
    }
    lines = ["# " + " ".join(f"{key}={value}" for key, value in fields.items())]
    for ind in population:
        lines.append(f"{ind.fitness!r}\t{print_program(ind.program)}")
    return "\n".join(lines) + "\n"


def _header_int(fields: dict, key: str, bits: int | None = None) -> int:
    """Header field `key`: decimal digits (below 2**bits, given bits)."""
    text = fields.get(key, "missing")
    if not (text.isascii() and text.isdigit()) or (bits and int(text) >> bits):
        bound = f" below 2**{bits}" if bits else ""
        raise ValueError(f"checkpoint {key} is {text}, expected an integer >= 0{bound}")
    return int(text)


def load_checkpoint(text: str, cases: FitnessCaseSet, population_size: int):
    """Inverse of save_checkpoint; returns (population, generation, rng).

    Raises ValueError, naming the field or the line, when the checkpoint
    was made for another population size, solver configuration or set of
    fitness cases, when a field or line is malformed or out of range
    (generation >= 0, rng_state < 2**64, a finite fitness >= 0), when a
    header key repeats or is not one save_checkpoint writes, and when its
    individuals do not match its header.
    """
    lines = text.splitlines()
    header = lines[0] if lines else ""
    if not header.startswith("# generation="):
        raise ValueError("not a population checkpoint")
    expected_fields = _checkpoint_fields(population_size, cases)
    fields: dict[str, str] = {}
    for part in header[2:].split():
        key, _, value = part.partition("=")
        if not value:
            raise ValueError(f"checkpoint header part {key!r} has no value")
        if key in fields:
            raise ValueError(f"checkpoint header repeats {key!r}")
        if key not in ("generation", "rng_state", *expected_fields):
            raise ValueError(f"checkpoint header has unknown key {key!r}")
        fields[key] = value
    for key, expected in expected_fields.items():
        if fields.get(key) != expected:
            raise ValueError(
                f"checkpoint {key} is {fields.get(key, 'missing')},"
                f" this run has {expected}"
            )
    generation = _header_int(fields, "generation")
    rng = SplitMix64(_header_int(fields, "rng_state", bits=64))
    population = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fit_text, tab, prog_text = line.partition("\t")
        try:
            if not tab:
                raise ValueError("expected fitness TAB program")
            fit = float(fit_text)
            if not (math.isfinite(fit) and fit >= 0.0):
                raise ValueError(f"fitness {fit_text!r} is not a finite number >= 0")
            population.append(Individual(parse_program(prog_text), fitness=fit))
        except ValueError as exc:
            raise ValueError(f"checkpoint line {line_no}: {exc}") from None
    if len(population) != population_size:
        raise ValueError(
            f"checkpoint holds {len(population)} individuals,"
            f" its header says population_size={population_size}"
        )
    return population, generation, rng

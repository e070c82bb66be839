"""The three workloads: selection, set-up, one round of work, and checks.

Every workload takes the `satgp` package and reaches its functions through
the package's attributes at call time, so the recorder and the tracer in
`probe.py` see every call.

A round is fixed by the selection, which is untimed: it draws candidate
instances with the workload seed and solves them to size the round so
that its work comes close to a target.  The timed set-up then builds only
the instances the round uses, from their generator seeds.  Sizing by work
keeps a round about equally long for every seed: the hardness of random
3-SAT instances of one size spreads over more than a factor of ten.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from probe import CheckFailure, init_digest

RATIO = 4.26  # clauses per variable, at the 3-SAT phase transition
# Work, the unit of the round targets, is conflicts plus SEARCH_COST per
# search.  On the machine the targets were set on, a search's fixed part
# (solver set-up, clause attach, model check) took about as long as 30
# conflicts.  Work leaves out evolve's interpreter time, so that evolve's
# rounds hold about the same number of conflicts at every seed.
SEARCH_COST = 30
TOLERANCE = 0.04  # a round's work is within this share of its target
FILL_MAX = 16  # candidates `fill` searches among
HISTOGRAM_POOL = 60  # candidate instances
HISTOGRAM_MAX_SAMPLES = 2000
EVOLVE_POOL = 40  # candidate instances per case size
NODE_EVALS_TOLERANCE = 0.15  # evolve's node evaluations, as a share of the target
EVOLVE_BALANCED = 12  # evolve candidates tried for both targets before the closest will do


@dataclass(frozen=True)
class Sizes:
    # solve_ladder: rung sizes, candidates per rung, and the round's work
    ladder_rungs: tuple = (100, 125, 150)
    ladder_target: int = 13000
    ladder_pool: int = 24
    # histogram: one instance with zero-init conflicts k0 inside the band
    histogram_vars: int = 55
    histogram_k0: tuple = (100, 135)
    histogram_target: int = 22000
    # evolve: two fitness cases, (variables, k0 band) each; one generation
    # per run, populations cycling through evolve_populations
    evolve_cases: tuple = ((50, (45, 75)), (75, (150, 220)))
    evolve_populations: tuple = (12, 16, 20, 24)
    evolve_target: int = 19000
    evolve_node_evals: int = 1_200_000


FULL = Sizes()
SMALL = Sizes(
    ladder_rungs=(40, 60),
    ladder_target=450,
    ladder_pool=40,
    histogram_vars=30,
    histogram_k0=(10, 40),
    histogram_target=600,
    evolve_cases=((30, (5, 30)), (40, (10, 50))),
    evolve_populations=(10, 12),
    evolve_target=2000,
    evolve_node_evals=200_000,
)


def generator_seed(seed: int, index: int) -> int:
    """Generator seed of candidate `index` of a pool (pools differ by size)."""
    return 1000 * seed + index


def dimacs_roundtrip(sat, cnf, path):
    """Write the instance as DIMACS text and parse it back, as a user would."""
    path.write_text(sat.write_dimacs(cnf))
    return sat.read_dimacs(path)


def satisfies(clauses, true_literals) -> bool:
    """The benchmark's own clause checker: every clause has a true literal."""
    return all(any(lit in true_literals for lit in clause) for clause in clauses)


def trace_of(outcome):
    return (outcome.verdict, outcome.conflicts, outcome.decisions, outcome.propagations)


def float_bytes(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def tree_size(node) -> int:
    return 1 + sum(tree_size(child) for child in node.children)


def own_fitness(per_case, program) -> float:
    """F = sqrt(sum_i (c_i + d_i/1000)^2) + nodes/1000, as the paper defines it."""
    total = 0.0
    for conflicts, decisions in per_case:
        term = conflicts + decisions / 1000.0
        total += term * term
    nodes = tree_size(program.pre) + tree_size(program.in_loop) + tree_size(program.post)
    return math.sqrt(total) + nodes / 1000.0


def interleave(pools):
    """Candidates of several pools in turn: first of each, second of each..."""
    for group in zip(*pools):
        yield from group


def fill(solved, target, admissible=lambda chosen: True, rank=lambda chosen: 0):
    """The subset of `solved` (pairs of item and work) that holds its
    last entry, is admissible, and sums to within TOLERANCE of `target`:
    lowest `rank`, then closest to the target, then fewest items, then
    earliest.  None if there is no such subset.  Subsets without the last
    entry were tried before it was added.
    """
    if len(solved) > FILL_MAX:
        raise CheckFailure(f"no {FILL_MAX} candidates sum to about {target} units of work")
    *others, last = solved
    best = None
    for mask in range(1 << len(others)):
        picked = [i for i in range(len(others)) if mask >> i & 1] + [len(others)]
        total = sum(solved[i][1] for i in picked)
        if abs(total - target) <= TOLERANCE * target:
            chosen = [solved[i] for i in picked]
            key = (rank(chosen), abs(total - target), len(picked), picked)
            if admissible(chosen) and (best is None or key < best[0]):
                best = (key, chosen)
    return None if best is None else best[1]


def percent_of(conflicts: int, k0: int) -> int:
    """100 * conflicts / k0 rounded half away from zero, in exact integers."""
    return (200 * conflicts + k0) // (2 * k0)


class Workload:
    """Selection, set-up, round and checks of one workload."""

    name = ""

    def __init__(self, sat, seed: int, workdir, sizes: Sizes = FULL):
        self.sat = sat
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        self.config = sat.SolverConfig()

    def select(self) -> None:
        """Fix the round's make-up by solving candidates; untimed."""
        raise NotImplementedError

    def setup(self) -> None:
        """Everything before the first solve, for the selected instances only."""
        raise NotImplementedError

    def names(self) -> dict:
        """Preprocessed Cnf value -> instance name of the round's instances.

        The recorder names searches by it.  Set-up must give the value the
        selection gave, however often it is repeated.
        """
        raise NotImplementedError

    def round(self):
        """One round of the workload's work; returns its results."""
        raise NotImplementedError

    def summary(self, result):
        """A comparable value of a round's results."""
        raise NotImplementedError

    def check(self, result, outcomes) -> None:
        """Raise CheckFailure unless the warm-up round's results are right."""
        raise NotImplementedError

    def round_conflicts(self, result) -> int:
        raise NotImplementedError

    def round_operations(self, result) -> int:
        raise NotImplementedError

    def init_label(self, instance: str, digest: str) -> str:
        return f"init {digest}"

    def describe(self) -> dict:
        return {}


@dataclass
class LadderInstance:
    recipe: tuple  # (variables, generator seed)
    name: str
    raw: object
    cnf: object  # preprocessed
    forced: list
    stats: object


class SolveLadder(Workload):
    """Long searches: zero init and the `precursor` preset on 100-150 vars."""

    name = "solve_ladder"

    def _make(self, n, gen):
        """The preprocessed instance, or None if BCP alone decides it."""
        sat = self.sat
        name = f"ladder-n{n}-g{gen}"
        raw = sat.random_3sat(n, round(RATIO * n), gen)
        raw = dimacs_roundtrip(sat, raw, self.workdir / f"{name}.cnf")
        cnf, verdict, forced = sat.preprocess_bcp(raw)
        if verdict != "reduced":
            return None
        return LadderInstance((n, gen), name, raw, cnf, forced, sat.compute_var_stats(cnf))

    def _candidates(self, n):
        for j in range(self.sizes.ladder_pool):
            inst = self._make(n, generator_seed(self.seed, j))
            if inst is not None:
                yield inst

    def setup(self):
        self.precursor = self.sat.preset_program("precursor")
        self.instances = [self._make(*inst.recipe) for inst in self.instances]

    def names(self):
        return {inst.cnf: inst.name for inst in self.instances}

    def _solve_pair(self, inst):
        sat = self.sat
        zero = sat.solve_with_baseline(inst.cnf, self.config)
        acts = sat.compute_activities(self.precursor, inst.cnf, inst.stats)
        return zero, sat.solve(inst.cnf, acts, self.config)

    def select(self):
        sat = self.sat
        target = self.sizes.ladder_target
        rungs = set(self.sizes.ladder_rungs)
        precursor = sat.preset_program("precursor")
        solved = []  # (instance, conflicts of its zero + precursor searches)
        chosen = None
        for inst in interleave(self._candidates(n) for n in self.sizes.ladder_rungs):
            zero = sat.solve_with_baseline(inst.cnf, self.config)
            if zero.conflicts > target * (1 + TOLERANCE):
                continue
            acts = sat.compute_activities(precursor, inst.cnf, inst.stats)
            pre = sat.solve(inst.cnf, acts, self.config)
            solved.append((inst, zero.conflicts + pre.conflicts + 2 * SEARCH_COST))
            chosen = fill(solved, target, lambda c: {i.recipe[0] for i, _ in c} == rungs)
            if chosen is not None:
                break
        if chosen is None:
            raise CheckFailure(f"{self.name}: no candidates sum to about {target} units of work")
        self.instances = [inst for inst, _ in chosen]
        self.candidates_solved = len(solved)

    def round(self):
        return [(inst, *self._solve_pair(inst)) for inst in self.instances]

    def summary(self, result):
        return [(inst.name, trace_of(z), z.model, trace_of(p), p.model) for inst, z, p in result]

    def check(self, result, outcomes):
        for inst, zero, pre in result:
            if zero.verdict != pre.verdict:
                raise CheckFailure(
                    f"{self.name}: instance {inst.name}: zero init says {zero.verdict},"
                    f" precursor says {pre.verdict}"
                )
            for label, out in (("zero", zero), ("precursor", pre)):
                if out.verdict != "sat":
                    continue
                true_literals = {v if value else -v for v, value in out.model.items()}
                true_literals.update(inst.forced)
                if not satisfies(inst.raw.clauses, true_literals):
                    raise CheckFailure(
                        f"{self.name}: instance {inst.name} init {label}: the model"
                        " does not satisfy the original CNF"
                    )

    def round_conflicts(self, result):
        return sum(z.conflicts + p.conflicts for _, z, p in result)

    def round_operations(self, result):
        return 2 * len(result)

    def init_label(self, instance, digest):
        for inst in self.instances:
            if inst.name == instance:
                if digest == init_digest(self.sat.normalize, [0.0] * inst.cnf.num_vars):
                    return "init zero"
                return "init precursor"
        return super().init_label(instance, digest)

    def describe(self):
        return {
            "instances": [
                {"name": i.name, "vars": i.cnf.num_vars, "clauses": i.cnf.num_clauses}
                for i in self.instances
            ],
            "candidates_solved": self.candidates_solved,
        }


class Histogram(Workload):
    """Many short searches from uniform random inits: `compare_reordered`."""

    name = "histogram"

    def _make(self, gen):
        """(name, raw, preprocessed, preprocessed reordered twin), or None
        if BCP alone decides either twin."""
        sat = self.sat
        name = f"histogram-n{self.sizes.histogram_vars}-g{gen}"
        raw = sat.random_3sat(self.sizes.histogram_vars, round(RATIO * self.sizes.histogram_vars), gen)
        raw = dimacs_roundtrip(sat, raw, self.workdir / f"{name}.cnf")
        twin, _ = sat.reorder(raw, self.seed)
        cnf, verdict, _ = sat.preprocess_bcp(raw)
        twin_cnf, twin_verdict, _ = sat.preprocess_bcp(twin)
        if verdict == twin_verdict == "reduced":
            return name, raw, cnf, twin_cnf
        return None

    def setup(self):
        self.instance, self.raw, self.cnf, self.twin = self._make(self.gen)

    def names(self):
        return {self.cnf: self.instance, self.twin: f"{self.instance}.reordered"}

    def select(self):
        sat = self.sat
        lo, hi = self.sizes.histogram_k0
        for j in range(HISTOGRAM_POOL):
            self.gen = generator_seed(self.seed, j)
            made = self._make(self.gen)
            if made is None:
                continue
            name, raw, cnf, twin = made
            k0 = sat.solve_with_baseline(cnf, self.config).conflicts
            if lo <= k0 <= hi:
                twin_k0 = sat.solve_with_baseline(twin, self.config).conflicts
                if twin_k0 > 0:
                    break
        else:
            raise CheckFailure(f"{self.name}: no candidate has k0 in [{lo}, {hi}]")
        self.instance, self.raw, self.cnf, self.twin = made
        # Samples until the round's work reaches the target; sample i
        # draws from child seed i of the master seed on both twins.
        seeds = sat.spawn_seeds(self.seed, HISTOGRAM_MAX_SAMPLES)
        filled = k0 + twin_k0 + 2 * SEARCH_COST
        self.samples = 0
        while filled < self.sizes.histogram_target:
            if self.samples == len(seeds):
                raise CheckFailure(f"{self.name}: {len(seeds)} samples did not reach the target")
            init = sat.harness.random_init(cnf.num_vars, seeds[self.samples], 0.0, 1.0)
            filled += sat.solve(cnf, init, self.config).conflicts
            filled += sat.solve(twin, init, self.config).conflicts + 2 * SEARCH_COST
            self.samples += 1
        self.k0 = k0

    def round(self):
        return self.sat.compare_reordered(
            self.raw, self.seed, self.samples, self.config, self.seed, problem=self.instance
        )

    def summary(self, result):
        out = []
        for rep in (result.original, result.reordered):
            rows = [(r.sample_id, r.seed, r.conflicts, r.decisions, r.percent) for r in rep.rows]
            out.append((rep.baseline.conflicts, rep.baseline.decisions, sorted(rep.bins.items()),
                        rows, rep.min_seed, rep.max_seed))
        return out

    def check(self, result, outcomes):
        sat = self.sat
        digest = init_digest(sat.normalize, [0.0] * self.cnf.num_vars)
        verdicts = {outcomes[(self.instance, digest)][0],
                    outcomes[(f"{self.instance}.reordered", digest)][0]}
        if len(verdicts) != 1:
            raise CheckFailure(f"{self.name}: instance {self.instance}: the twins' baselines disagree")
        for rep, cnf in ((result.original, self.cnf), (result.reordered, self.twin)):
            k0 = rep.baseline.conflicts
            bins = {}
            for row in rep.rows:
                percent = percent_of(row.conflicts, k0)
                if percent != row.percent:
                    raise CheckFailure(
                        f"{self.name}: {rep.problem} sample {row.sample_id}: percent"
                        f" {row.percent}, expected {percent}"
                    )
                bins[percent] = bins.get(percent, 0) + 1
            if bins != rep.bins or sum(rep.bins.values()) != self.samples or rep.samples != self.samples:
                raise CheckFailure(f"{self.name}: {rep.problem}: bins differ from the sample rows")
            if rep.min_conflicts != min(r.conflicts for r in rep.rows) or \
                    rep.max_conflicts != max(r.conflicts for r in rep.rows):
                raise CheckFailure(f"{self.name}: {rep.problem}: wrong min or max")
            for seed, conflicts in ((rep.min_seed, rep.min_conflicts), (rep.max_seed, rep.max_conflicts)):
                replay = sat.replay_sample(cnf, seed, 0.0, 1.0, self.config)
                if replay.conflicts != conflicts:
                    raise CheckFailure(
                        f"{self.name}: {rep.problem}: replaying seed {seed} gave"
                        f" {replay.conflicts} conflicts, the report says {conflicts}"
                    )

    def round_conflicts(self, result):
        return sum(rep.baseline.conflicts + sum(r.conflicts for r in rep.rows)
                   for rep in (result.original, result.reordered))

    def round_operations(self, result):
        return 2 * (1 + self.samples)

    def init_label(self, instance, digest):
        sat = self.sat
        n = self.cnf.num_vars
        if digest == init_digest(sat.normalize, [0.0] * n):
            return "init zero"
        for i, seed in enumerate(sat.spawn_seeds(self.seed, self.samples)):
            if digest == init_digest(sat.normalize, sat.harness.random_init(n, seed, 0.0, 1.0)):
                return f"init sample {i} (seed {seed})"
        return super().init_label(instance, digest)

    def describe(self):
        return {"instance": self.instance, "vars": self.cnf.num_vars,
                "clauses": self.cnf.num_clauses, "k0": self.k0, "samples": self.samples}


class Evolve(Workload):
    """Small GP populations, one generation each, on two fitness cases."""

    name = "evolve"

    def _make(self, recipes):
        """The fitness case set of the (variables, generator seed) pairs."""
        sat = self.sat
        named = []
        for n, gen in recipes:
            name = f"evolve-n{n}-g{gen}"
            raw = sat.random_3sat(n, round(RATIO * n), gen)
            named.append((name, dimacs_roundtrip(sat, raw, self.workdir / f"{name}.cnf")))
        return sat.FitnessCaseSet.from_cnfs(named, self.config)

    def setup(self):
        self.cases = self._make(self.recipes)

    def names(self):
        return {case.cnf: case.name for case in self.cases.cases}

    def select(self):
        sat = self.sat
        self.recipes = []
        for n, (lo, hi) in self.sizes.evolve_cases:
            for j in range(EVOLVE_POOL):
                recipe = (n, generator_seed(self.seed, j))
                case = self._make([recipe]).cases[0]
                if lo <= sat.solve_with_baseline(case.cnf, self.config).conflicts <= hi:
                    self.recipes.append(recipe)
                    break
            else:
                raise CheckFailure(f"{self.name}: no {n}-variable case has k0 in [{lo}, {hi}]")
        self.cases = self._make(self.recipes)
        # Evolutions of populations cycling through the sizes in the list,
        # each from its own GP seed, until a subset of them fills the work
        # target and holds about the target number of interpreter node
        # evaluations: the programs' sizes differ so much between seeds
        # that the interpreter's share of a round would otherwise range
        # over a factor of three.
        solved = []
        node_evals = {}
        target = self.sizes.evolve_target
        evals_target = self.sizes.evolve_node_evals

        def evals_off(chosen):
            return abs(sum(node_evals[spec] for spec, _ in chosen) - evals_target)

        chosen = None
        while chosen is None:
            k = len(solved)
            spec = (self.sizes.evolve_populations[k % len(self.sizes.evolve_populations)],
                    generator_seed(self.seed, k))
            run = self._evolve(*spec)
            node_evals[spec] = self._node_evals(run)
            solved.append((spec, self._work(run)))
            chosen = fill(solved, target, lambda c: evals_off(c) <= NODE_EVALS_TOLERANCE * evals_target)
            if chosen is None and len(solved) == EVOLVE_BALANCED:
                # No subset meets both targets: of those that meet the work
                # target, take the one closest to the node evaluation target.
                fits = [fill(solved[:i + 1], target, rank=evals_off) for i in range(len(solved))]
                chosen = min((c for c in fits if c), key=evals_off, default=None)
        self.runs = [spec for spec, _ in chosen]
        self.node_evals = sum(node_evals[spec] for spec in self.runs)
        self.candidates_solved = len(solved)

    def _work(self, run):
        return self.round_conflicts([run]) + SEARCH_COST * self.round_operations([run])

    def _node_evals(self, run):
        """Interpreter node evaluations of a run's evaluated individuals."""
        total = 0
        for ind in run[2]:
            for case in self.cases.cases:
                counters = {}
                self.sat.compute_activities(ind.program, case.cnf, case.stats, counters=counters)
                total += counters["node_evals"]
        return total

    def _evolve(self, population_size, gp_seed):
        sat = self.sat
        config = sat.GpConfig(population_size=population_size, generations=1, rng_seed=gp_seed)
        rng = sat.SplitMix64(config.rng_seed)
        population = sat.create_initial_population(config, rng)
        evaluated = list(population)
        children = []
        best, log = sat.run_evolution(
            self.cases, config, on_child=children.append, population=population, rng=rng
        )
        evaluated += [c for c in children if c.origin != "copy"]
        return best, log, evaluated, children

    def round(self):
        return [self._evolve(*spec) for spec in self.runs]

    def summary(self, result):
        return [([(i.program, i.fitness, i.per_case) for i in evaluated],
                 [(c.program, c.fitness) for c in children],
                 (best.program, best.fitness),
                 [(r.best_fitness, r.mean_fitness, r.best_nodes) for r in log])
                for best, log, evaluated, children in result]

    def check(self, result, outcomes):
        for (population, gp_seed), (best, log, evaluated, _) in zip(self.runs, result):
            where = f"{self.name}: population {population}, GP seed {gp_seed}"
            self._check_run(where, best, log, evaluated)

    def _check_run(self, where, best, log, evaluated):
        sat = self.sat
        if any(ind.fitness is None for ind in evaluated):
            raise CheckFailure(f"{where}: an individual was left unevaluated")
        per_case = []
        for case in self.cases.cases:
            acts = sat.compute_activities(best.program, case.cnf, case.stats)
            reference = sat.reference_compute_activities(best.program, case.cnf, case.stats)
            if float_bytes(acts) != float_bytes(reference):
                raise CheckFailure(
                    f"{where}: case {case.name}: compute_activities and"
                    " reference_compute_activities differ on the best program"
                )
            out = sat.solve(case.cnf, acts, self.config)
            scaled = sat.solve(case.cnf, [2.0 * a for a in acts], self.config)
            if (scaled.conflicts, scaled.decisions) != (out.conflicts, out.decisions):
                raise CheckFailure(f"{where}: case {case.name}: doubling the best init changed the search")
            per_case.append((out.conflicts, out.decisions))
        fitness = own_fitness(per_case, best.program)
        if fitness != best.fitness:
            raise CheckFailure(f"{where}: best fitness {best.fitness!r}, recomputed {fitness!r}")
        bests = [r.best_fitness for r in log]
        if any(b > a for a, b in zip(bests, bests[1:])):
            raise CheckFailure(f"{where}: the logged best fitness increased: {bests}")

    def round_conflicts(self, result):
        return sum(c for _, _, evaluated, _ in result for ind in evaluated for c, _ in ind.per_case)

    def round_operations(self, result):
        return sum(len(evaluated) for _, _, evaluated, _ in result) * len(self.cases.cases)

    def describe(self):
        return {"cases": [{"name": c.name, "vars": c.cnf.num_vars, "clauses": c.cnf.num_clauses}
                          for c in self.cases.cases],
                "runs": self.runs, "node_evals": self.node_evals,
                "candidates_solved": self.candidates_solved}


WORKLOADS = {w.name: w for w in (SolveLadder, Histogram, Evolve)}

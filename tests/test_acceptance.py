"""Acceptance suite: one test per shipping criterion.

Each test prints `ACCEPTANCE <nn> <slug>: PASS|FAIL` (visible with
`pytest -s` or in failure output) and enforces the criterion at its
stated tolerance.
"""

import math
import time
from contextlib import contextmanager

import pytest

from conftest import make_random_cnf, run_tree
from oracles import model_satisfies, truth_table_satisfiable
from satgp.cnf import Cnf, preprocess_bcp, random_3sat, reorder
from satgp.gp import (
    CREATION_MAX_DEPTH,
    CROSSOVER_MAX_DEPTH,
    FitnessCaseSet,
    GpConfig,
    create_initial_population,
    fitness,
    run_evolution,
)
from satgp.harness import bundled_cnf, replay_sample, run_histogram
from satgp.lang import (
    CLAMP_LIMIT,
    FUNCTIONS,
    TERMINALS_BY_FRAGMENT,
    compute_activities,
    iter_nodes,
    normalize,
    parse_program,
    reference_compute_activities,
    tree_depth,
    validate_tree,
)
from satgp.gp import random_individual
from satgp.rng import SplitMix64
from satgp.solver import SolverConfig, solve, solve_with_baseline


@contextmanager
def criterion(number: int, slug: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {slug}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} {slug}: PASS ({elapsed:.1f}s)")


def test_criterion_01_fitness_golden_value():
    with criterion(1, "fitness-golden-value"):
        assert abs(fitness([(464, 9231)], 11) - 473.242) < 1e-9


def test_criterion_02_solver_matches_brute_force():
    with criterion(2, "solver-oracle-agreement"):
        rng = SplitMix64(0xACCE9)
        total = 0
        sat_seen = unsat_seen = 0
        for trial in range(500):
            if trial % 16 == 0:
                nv = 20
            else:
                nv = 10 + rng.randrange(7)  # 10..16
            ratio = 3.0 + 0.5 * rng.randrange(5)  # 3.0..5.0
            nc = int(nv * ratio)
            cnf = random_3sat(nv, nc, seed=10_000 + trial)
            out = solve_with_baseline(cnf, SolverConfig(rng_seed=trial))
            expected = truth_table_satisfiable(cnf)
            assert (out.verdict == "sat") == expected, f"instance {trial}"
            if out.verdict == "sat":
                sat_seen += 1
                assert model_satisfies(cnf, out.model), f"model {trial}"
            else:
                unsat_seen += 1
            total += 1
        assert total == 500
        assert sat_seen > 0 and unsat_seen > 0  # both verdicts exercised


# Hand-built programs that jointly use every terminal and every function.
COVERAGE_PROGRAMS = [
    "PRE: add(xn+xp) / IN: add(ln+lp+lc+cs+xs+ls+ic+il) / POST: sub(nv%nc)",
    "PRE: setv1(exp(1)) / IN: set(min(lc, max(xc, 2))) / POST: div(sqrt(abs(v1)))",
    "PRE: progn2(set(3), setv2(4)) / IN: if(and(xs,ls), mul(a0), add(v2))"
    " / POST: progn3(log(xc), sgn(a0), inv(nc))",
    "IN: add(if(or(lessthan(ln,lp), xor(ls,xs)), 1, 0)*lc) / POST: sub(neg(0))",
    "IN: add(cs-il) / POST: mul(v2+v1)",
]


def test_criterion_03_dual_interpreter_equivalence():
    with criterion(3, "dual-interpreter-bitwise"):
        rng = SplitMix64(0xD0A1)
        programs = [parse_program(text) for text in COVERAGE_PROGRAMS]
        while len(programs) < 110:
            programs.append(random_individual(rng, 2 + rng.randrange(4), "grow").program)

        used = set()
        for prog in programs:
            for _, tree in prog.fragments():
                used.update(node.kind for node in iter_nodes(tree))
        assert set(FUNCTIONS) <= used, set(FUNCTIONS) - used
        assert set(TERMINALS_BY_FRAGMENT["in"]) <= used, (
            set(TERMINALS_BY_FRAGMENT["in"]) - used
        )

        pairs = 0
        for i, prog in enumerate(programs):
            cnf = make_random_cnf(
                rng, 3 + rng.randrange(9), 2 + rng.randrange(16), min_width=2
            )
            fast = compute_activities(prog, cnf)
            slow = reference_compute_activities(prog, cnf)
            assert fast == slow, f"pair {i} diverged"  # bitwise list equality
            pairs += 1
        assert pairs >= 100


def test_criterion_04_hand_trace_oracles():
    with criterion(4, "hand-trace-oracles"):
        cnf = Cnf.from_lists(2, [[1, 2], [1, -2]])

        # Independent trace, written against the per-variable template.
        def trace(in_op):
            occ = {v: sum(1 for c in cnf.clauses for l in c if abs(l) == v)
                   for v in (1, 2)}
            pos = {v: sum(1 for c in cnf.clauses for l in c if l == v)
                   for v in (1, 2)}
            acts = []
            for x in (1, 2):
                a0 = 0.0
                for clause in cnf.clauses:
                    if not any(abs(l) == x for l in clause):
                        continue
                    for lit in clause:
                        if abs(lit) == x:
                            continue
                        if in_op == "sub_xp":
                            a0 -= pos[x]
                        else:  # add_lc
                            a0 += occ[abs(lit)]
                acts.append(a0)
            return acts

        assert trace("sub_xp") == [-4.0, -2.0]
        assert trace("add_lc") == [4.0, 4.0]
        for text, expected in [("IN: sub(xp)", [-4.0, -2.0]),
                               ("IN: add(lc)", [4.0, 4.0])]:
            prog = parse_program(text)
            assert compute_activities(prog, cnf) == expected
            assert reference_compute_activities(prog, cnf) == expected


def test_criterion_05_clamping_and_protected_ops():
    with criterion(5, "clamping-protected-ops"):
        rng = SplitMix64(0x05)
        for _ in range(80):
            cnf = make_random_cnf(rng, 3 + rng.randrange(8),
                                  2 + rng.randrange(14), min_width=2)
            prog = random_individual(rng, 2 + rng.randrange(4), "grow").program
            for value in compute_activities(prog, cnf):
                assert -CLAMP_LIMIT <= value <= CLAMP_LIMIT

        # run_tree checks eval_node against compute_activities.
        for denom in (0.0, 1e-10, -1e-10):
            for numerator, expected in ((3.0, CLAMP_LIMIT), (-3.0, -CLAMP_LIMIT),
                                        (0.0, CLAMP_LIMIT)):
                assert run_tree("div(v1)", a0=numerator, v1=denom)[0] == expected
            assert run_tree("inv(v1)", v1=denom)[0] == CLAMP_LIMIT
        assert run_tree("log(0)")[0] == -CLAMP_LIMIT
        assert run_tree("sqrt(neg(1))")[0] == -1.0


def test_criterion_06_normalization_and_scaling_invariance():
    with criterion(6, "normalize-scaling-invariance"):
        rng = SplitMix64(0x06)
        cnf = random_3sat(20, 85, seed=606)
        config = SolverConfig(rng_seed=2)

        # All-zero vector: normalize leaves it unchanged by definition.
        assert normalize([0.0] * 20) == [0.0] * 20

        nontrivial = 0
        attempts = 0
        while nontrivial < 50:
            attempts += 1
            assert attempts < 500
            prog = random_individual(rng, 2 + rng.randrange(4), "grow").program
            acts = compute_activities(prog, cnf)
            norm = normalize(acts)
            raw_out = solve(cnf, acts, config)
            norm_out = solve(cnf, norm, config)
            assert (raw_out.conflicts, raw_out.decisions) == (
                norm_out.conflicts,
                norm_out.decisions,
            )
            if any(a != 0.0 for a in acts):
                nontrivial += 1
                assert max(abs(a) for a in norm) == 1.0
                assert all(-1.0 <= a <= 1.0 for a in norm)
        assert nontrivial == 50


def test_criterion_07_histogram_methodology():
    with criterion(7, "histogram-methodology"):
        cnf = bundled_cnf()
        config = SolverConfig(rng_seed=0)
        report = run_histogram(cnf, 200, 0.0, 1.0, config,
                               master_seed=777, problem="bundled")
        assert sum(report.bins.values()) == 200
        assert len(report.bins) >= 2
        best = replay_sample(cnf, report.min_seed, 0.0, 1.0, config)
        worst = replay_sample(cnf, report.max_seed, 0.0, 1.0, config)
        assert best.conflicts == report.min_conflicts
        assert worst.conflicts == report.max_conflicts


def test_criterion_08_gp_mechanics():
    with criterion(8, "gp-mechanics"):
        start = time.perf_counter()
        cases = FitnessCaseSet.from_cnfs(
            [("bundled", bundled_cnf())], SolverConfig(rng_seed=1)
        )
        config = GpConfig(population_size=50, generations=5, rng_seed=88)

        audited = []

        def audit(child):
            if child.origin.startswith(("full", "grow")):
                limit = CREATION_MAX_DEPTH
            else:
                limit = CROSSOVER_MAX_DEPTH
            for fragment, tree in child.program.fragments():
                validate_tree(tree, fragment)
                assert tree_depth(tree) <= limit
            audited.append(child)

        rng = SplitMix64(config.rng_seed)
        initial = create_initial_population(config, rng)
        for ind in initial:
            for fragment, tree in ind.program.fragments():
                validate_tree(tree, fragment)
                assert tree_depth(tree) <= CREATION_MAX_DEPTH

        best, log = run_evolution(cases, config, initial, rng, on_child=audit)
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"run took {elapsed:.0f}s"
        assert len(audited) == config.population_size * config.generations
        series = [rec.best_fitness for rec in log]
        assert len(series) == config.generations + 1
        assert all(b <= a for a, b in zip(series, series[1:]))
        assert best.fitness == series[-1]


def test_criterion_09_reordering_soundness():
    with criterion(9, "reorder-equisatisfiable"):
        rng = SplitMix64(0x09)
        sat_checked = 0
        for trial in range(100):
            cnf = make_random_cnf(rng, 3 + rng.randrange(10),
                                  1 + rng.randrange(24), min_width=1)
            reordered, mapping = reorder(cnf, seed=trial * 11 + 3)
            expected = truth_table_satisfiable(cnf)
            assert truth_table_satisfiable(reordered) == expected
            reduced, verdict, forced = preprocess_bcp(reordered)
            if verdict == "unsatisfiable":
                assert expected is False
                continue
            if verdict == "satisfied":
                model = {v: False for v in range(1, reordered.num_vars + 1)}
                for lit in forced:
                    model[abs(lit)] = lit > 0
            else:
                out = solve_with_baseline(reduced, SolverConfig(rng_seed=trial))
                assert (out.verdict == "sat") == expected
                if out.verdict != "sat":
                    continue
                model = dict(out.model)
                for lit in forced:
                    model[abs(lit)] = lit > 0
            back = {old: model[mapping.var_map[old]] != mapping.inverted[old]
                    for old in range(1, cnf.num_vars + 1)}
            assert model_satisfies(cnf, back)
            sat_checked += 1
        assert sat_checked > 30  # plenty of mapped-back models exercised


def test_criterion_10_fitness_ordering_property():
    with criterion(10, "fitness-ordering"):
        rng = SplitMix64(0x10)
        for _ in range(200):
            decisions = rng.randrange(10_000)
            nodes = rng.randrange(100)
            low = rng.randrange(10_000)
            high = low + 1 + rng.randrange(1000)
            f_low = fitness([(low, decisions)], nodes)
            f_high = fitness([(high, decisions)], nodes)
            assert f_low < f_high
        balanced = fitness([(10, 0), (10, 0)], 0)
        lopsided = fitness([(1, 0), (19, 0)], 0)
        assert balanced == pytest.approx(math.sqrt(200.0))
        assert lopsided == pytest.approx(math.sqrt(362.0))
        assert balanced < lopsided

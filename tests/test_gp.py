import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from satgp import gp
from satgp.cnf import Cnf, random_3sat
from satgp.gp import (
    EvalMemo,
    FitnessCaseSet,
    GpConfig,
    Individual,
    create_initial_population,
    crossover,
    evaluate,
    fitness,
    load_checkpoint,
    run_evolution,
    save_checkpoint,
    step_steady_state,
    tournament_select,
)
from satgp.lang import (
    TERMINALS_BY_FRAGMENT,
    compute_activities,
    iter_nodes,
    parse_program,
    print_program,
    tree_depth,
    validate_tree,
)
from satgp.rng import SplitMix64
from satgp.solver import SolverConfig, solve, solve_with_baseline


def small_cases() -> FitnessCaseSet:
    cnf = random_3sat(20, 85, seed=77)
    return FitnessCaseSet.from_cnfs([("case0", cnf)], SolverConfig(rng_seed=1))


def small_config(**overrides) -> GpConfig:
    base = dict(
        population_size=16,
        generations=2,
        rng_seed=9,
    )
    base.update(overrides)
    return GpConfig(**base)


def fresh_run(cases, config, **kwargs):
    """run_evolution on the population and rng that config.rng_seed makes."""
    rng = SplitMix64(config.rng_seed)
    return run_evolution(cases, config, create_initial_population(config, rng), rng, **kwargs)


class TestConfig:
    @pytest.mark.parametrize("field,value", [
        ("generations", -2),
        ("population_size", 1),
        ("population_size", 2.5),
        ("generations", 1.5),
        ("generations", True),
        ("rng_seed", 1.0),
    ])
    def test_bad_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            GpConfig(**{field: value})

    def test_config_is_frozen(self):
        config = GpConfig()
        with pytest.raises(ValueError, match="population_size"):
            dataclasses.replace(config, population_size=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.generations = -1

    def test_small_population_evolves(self):
        config = GpConfig(population_size=4, generations=2, rng_seed=3)
        best, log = fresh_run(small_cases(), config)
        assert [rec.generation for rec in log] == [0, 1, 2]
        assert best.fitness == log[-1].best_fitness


class TestFitness:
    def test_golden_value(self):
        assert abs(fitness([(464, 9231)], 11) - 473.242) < 1e-9

    def test_zero_case(self):
        assert fitness([(0, 0)], 0) == 0.0

    def test_three_four_five(self):
        assert fitness([(3, 0), (4, 0)], 0) == pytest.approx(5.0, abs=1e-12)

    def test_balanced_beats_lopsided(self):
        balanced = fitness([(10, 0), (10, 0)], 0)
        lopsided = fitness([(1, 0), (19, 0)], 0)
        assert balanced < lopsided

    @settings(max_examples=80, deadline=None)
    @given(
        conflicts=st.integers(0, 10**6),
        decisions=st.integers(0, 10**6),
        nodes=st.integers(0, 10**4),
    )
    def test_strictly_monotone(self, conflicts, decisions, nodes):
        base = fitness([(conflicts, decisions)], nodes)
        assert fitness([(conflicts + 1, decisions)], nodes) > base
        assert fitness([(conflicts, decisions + 1)], nodes) > base
        assert fitness([(conflicts, decisions)], nodes + 1) > base


def is_full_shape(tree, target_depth):
    """Every leaf at exactly target_depth."""
    def leaf_depths(node, depth):
        if not node.children:
            yield depth
        for child in node.children:
            yield from leaf_depths(child, depth + 1)
    return set(leaf_depths(tree, 1)) == {target_depth}


class TestCreation:
    def test_depth_bounds(self):
        config = small_config(population_size=200)
        for ind in create_initial_population(config):
            for _, tree in ind.program.fragments():
                assert tree_depth(tree) <= gp.CREATION_MAX_DEPTH

    def test_deterministic(self):
        config = small_config(population_size=50)
        a = create_initial_population(config)
        b = create_initial_population(config)
        assert [i.program for i in a] == [i.program for i in b]

    def test_fragment_terminal_restrictions(self):
        config = small_config(population_size=300)
        legal_outside = set(TERMINALS_BY_FRAGMENT["pre"])
        for ind in create_initial_population(config):
            for fragment, tree in ind.program.fragments():
                validate_tree(tree, fragment)
                if fragment == "in":
                    continue
                for node in iter_nodes(tree):
                    if not node.children:
                        assert node.kind in legal_outside

    def test_both_shapes_at_each_ramp_depth(self):
        config = GpConfig(population_size=1000, rng_seed=4)
        population = create_initial_population(config)
        seen = {}
        for ind in population:
            method, depth = ind.origin.split("-")
            seen.setdefault((method, int(depth)), 0)
            seen[(method, int(depth))] += 1
        for depth in range(2, 7):
            assert seen[("full", depth)] == 100
            assert seen[("grow", depth)] == 100
        # full trees really are full-shaped at their ramp depth
        for ind in population:
            method, depth = ind.origin.split("-")
            if method == "full":
                for _, tree in ind.program.fragments():
                    assert is_full_shape(tree, int(depth))
            else:
                for _, tree in ind.program.fragments():
                    assert tree_depth(tree) <= int(depth)


class TestEvaluate:
    def test_zero_program_matches_baseline(self):
        cases = small_cases()
        baseline = solve_with_baseline(cases.cases[0].cnf, cases.solver_config)
        ind = Individual(parse_program("IN: 0"))
        evaluate([ind], cases)
        assert ind.per_case == [(baseline.conflicts, baseline.decisions)]

    def test_deterministic(self):
        cases = small_cases()
        prog = parse_program("IN: add(lc)")
        a, b = Individual(prog), Individual(prog)
        evaluate([a], cases)
        evaluate([b], cases)
        assert a.fitness == b.fitness
        assert a.per_case == b.per_case

    @pytest.mark.parametrize("clauses,verdict", [
        ([[1], [-1, 2]], "satisfied"),
        ([[1], [-1]], "unsatisfiable"),
    ])
    def test_rejects_trivial_fitness_case(self, clauses, verdict):
        # The message is run_histogram's, from the same gate, plus the case.
        message = (f"^fitness case 'triv': problem is {verdict} after preprocessing;"
                   " it must require search$")
        with pytest.raises(ValueError, match=message):
            FitnessCaseSet.from_cnfs(
                [("triv", Cnf.from_lists(2, clauses))], SolverConfig()
            )

    def test_parallel_evaluation_matches_sequential(self):
        cases = small_cases()
        config = small_config(population_size=8)
        seq = create_initial_population(config)
        par = create_initial_population(config)
        evaluate(seq, cases, jobs=1)
        evaluate(par, cases, jobs=2)
        assert [i.fitness for i in seq] == [i.fitness for i in par]


def two_cases() -> FitnessCaseSet:
    return FitnessCaseSet.from_cnfs(
        [(f"case{i}", random_3sat(20, 85, seed=77 + i)) for i in range(2)],
        SolverConfig(rng_seed=1),
    )


def count_solves(monkeypatch) -> list:
    calls = []

    def counted(cnf, init, config=None):
        calls.append(cnf)
        return solve(cnf, init, config)

    monkeypatch.setattr(gp, "solve", counted)
    return calls


class TestMemo:
    # Duplicate texts, and distinct texts whose activities differ only by
    # a positive scale (lc, 2*lc and 4*lc are exact in binary).
    TEXTS = ["IN: add(lc)", "IN: add(lc*2)", "IN: add(lc)", "IN: add(lc*4)",
             "IN: sub(xp)", "IN: sub(xp)"]

    def population(self):
        return [Individual(parse_program(text)) for text in self.TEXTS]

    def test_premise_scaled_activities(self):
        cases = two_cases()
        base, double = (parse_program(t) for t in self.TEXTS[:2])
        for case in cases.cases:
            acts = compute_activities(base, case.cnf, case.stats)
            doubled = compute_activities(double, case.cnf, case.stats)
            assert doubled == [2 * a for a in acts]
            assert len(set(acts)) > 1

    def test_matches_fresh_solves(self):
        cases = two_cases()
        population = self.population()
        evaluate(population, cases, memo=EvalMemo())
        for ind in population:
            per_case = []
            for case in cases.cases:
                acts = compute_activities(ind.program, case.cnf, case.stats)
                out = solve(case.cnf, acts, cases.solver_config)
                per_case.append((out.conflicts, out.decisions))
            assert ind.per_case == per_case
            assert ind.fitness == fitness(per_case, ind.program.node_count)

    def test_fewer_solves_than_evaluations(self, monkeypatch):
        cases = two_cases()
        calls = count_solves(monkeypatch)
        memo = EvalMemo()
        evaluate(self.population(), cases, memo=memo)
        evaluated = len(self.TEXTS) * len(cases.cases)
        # one search per case for the lc family and one for sub(xp)
        assert len(calls) == memo.searches == 2 * len(cases.cases) < evaluated
        assert memo.interpreter_runs == 4 * len(cases.cases)  # distinct texts
        assert memo.evaluations == len(self.TEXTS)

    def test_population_counters_match_one_by_one(self):
        cases = two_cases()
        together, alone = EvalMemo(), EvalMemo()
        population, singles = self.population(), self.population()
        evaluate(population, cases, jobs=1, memo=together)
        for ind in singles:
            evaluate([ind], cases, memo=alone)
        counters = [(m.evaluations, m.interpreter_runs, m.searches, m.by_text, m.by_init)
                    for m in (together, alone)]
        assert counters[0] == counters[1]
        assert [(i.fitness, i.per_case) for i in population] == [
            (i.fitness, i.per_case) for i in singles]

    def test_known_init_not_searched_again(self, monkeypatch):
        cases = two_cases()
        first = EvalMemo()
        evaluate([Individual(parse_program("IN: add(lc)"))], cases, memo=first)
        # Keep case 0's init only; add(lc*2) has the same normalized init.
        memo = EvalMemo(by_init={k: v for k, v in first.by_init.items() if k[0] == 0})
        calls = count_solves(monkeypatch)
        evaluate([Individual(parse_program("IN: add(lc*2)"))], cases, jobs=1, memo=memo)
        assert calls == [cases.cases[1].cnf]
        assert memo.searches == 1
        assert memo.interpreter_runs == len(cases.cases)

    def test_memo_does_not_outlive_a_run(self, monkeypatch):
        cases = two_cases()
        config = small_config(population_size=12, generations=2)
        calls = count_solves(monkeypatch)
        counts = []
        for _ in range(2):
            memo = EvalMemo()
            fresh_run(cases, config, memo=memo)
            counts.append((len(calls), memo.searches))
            calls.clear()
        assert counts[0] == counts[1]
        assert counts[0][0] == counts[0][1] > 0

    def test_parallel_run_counts_and_records_match(self):
        cases = two_cases()
        config = small_config(population_size=12, generations=1)
        runs = []
        for jobs in (1, 2):
            rng = SplitMix64(config.rng_seed)
            population = create_initial_population(config, rng)
            memo = EvalMemo()
            best, log = run_evolution(
                cases, config, jobs=jobs, population=population, rng=rng, memo=memo
            )
            assert any(best is ind for ind in population)
            runs.append((log, best.per_case, memo.evaluations, memo.interpreter_runs,
                         memo.searches, [(i.fitness, i.per_case) for i in population],
                         rng.state))
        assert runs[0] == runs[1]

    def test_evaluated_individual_left_untouched(self, monkeypatch):
        # The --resume path: a checkpointed individual keeps its fitness.
        cases = two_cases()
        resumed = Individual(parse_program("IN: sub(xp)"), fitness=7.5)
        fresh = Individual(parse_program("IN: add(lc)"))
        interpreted = []

        def counted(program, cnf, stats):
            interpreted.append(print_program(program))
            return compute_activities(program, cnf, stats)

        monkeypatch.setattr(gp, "compute_activities", counted)
        calls = count_solves(monkeypatch)
        memo = EvalMemo()
        evaluate([resumed, fresh], cases, memo=memo)
        assert (resumed.fitness, resumed.per_case) == (7.5, None)
        assert interpreted == ["IN: add(lc)"] * len(cases.cases)
        assert len(calls) == memo.searches == len(cases.cases)
        assert (memo.evaluations, memo.interpreter_runs) == (1, len(cases.cases))
        assert fresh.fitness is not None

    def test_parallel_population_searches_each_init_once(self):
        cases = two_cases()
        memo = EvalMemo()
        evaluate(self.population(), cases, jobs=2, memo=memo)
        # lc, lc*2 and lc*4 share one normalized init per case.
        assert memo.searches == 2 * len(cases.cases)


class TestSelection:
    def test_tournament_full_size_returns_global_best(self):
        cases = small_cases()
        config = small_config(population_size=12)
        population = create_initial_population(config)
        evaluate(population, cases)
        best_fit = min(i.fitness for i in population)
        # Sampling is without replacement, so a full-size tournament sees
        # the whole population and must return the global best.
        for seed in range(5):
            winner = tournament_select(population, SplitMix64(seed), len(population))
            assert winner.fitness == best_fit

    def test_tournament_size_one_is_uniform_pick(self):
        cases = small_cases()
        config = small_config(population_size=6)
        population = create_initial_population(config)
        evaluate(population, cases)
        rng = SplitMix64(4)
        picks = {id(tournament_select(population, rng, 1)) for _ in range(60)}
        assert len(picks) > 1

    def test_ties_go_to_the_first_candidate(self):
        # All fitnesses equal: each selection keeps its first candidate.
        population = [Individual(parse_program("IN: 0"), fitness=1.0) for _ in range(6)]
        drawn = gp._sample_indices(SplitMix64(2), 6, 4)
        assert tournament_select(population, SplitMix64(2), 4) is population[drawn[0]]
        assert gp._victim_index(population, SplitMix64(2), 4, drawn[0]) == drawn[1]
        assert gp._best_index(population) == 0

    def test_tournament_larger_than_population_refused(self):
        population = create_initial_population(small_config(population_size=4))
        with pytest.raises(ValueError, match="k=5.*n=4"):
            tournament_select(population, SplitMix64(1), 5)


class TestCrossover:
    def test_fragment_closure_and_depth(self):
        rng = SplitMix64(8)
        config = small_config(population_size=60)
        population = create_initial_population(config)
        made = 0
        for _ in range(400):
            a = population[rng.randrange(len(population))]
            b = population[rng.randrange(len(population))]
            child = crossover(a.program, b.program, rng)
            if child is None:
                continue
            made += 1
            for fragment, tree in child.fragments():
                validate_tree(tree, fragment)
                assert tree_depth(tree) <= 17
        assert made > 300

    def test_rejection_on_depth(self):
        rng = SplitMix64(9)
        deep = parse_program("IN: " + "neg(" * 16 + "1" + ")" * 16)
        assert tree_depth(deep.in_loop) == 17
        rejected = 0
        for _ in range(200):
            child = crossover(deep, deep, rng)
            if child is None:
                rejected += 1
        assert rejected > 0


class TestSteadyState:
    def test_elitism_and_population_size(self):
        cases = small_cases()
        config = small_config(population_size=14, generations=1)
        rng = SplitMix64(config.rng_seed)
        population = create_initial_population(config, rng)
        evaluate(population, cases)
        best_before = min(i.fitness for i in population)
        step_steady_state(population, cases, rng)
        assert len(population) == 14
        assert min(i.fitness for i in population) <= best_before

    def test_children_respect_rules(self):
        cases = small_cases()
        config = small_config(population_size=12, generations=1)
        rng = SplitMix64(2)
        population = create_initial_population(config, rng)
        evaluate(population, cases)
        children = []
        step_steady_state(population, cases, rng, on_child=children.append)
        assert len(children) == 12
        for child in children:
            limit = 6 if child.origin.startswith(("full", "grow")) else 17
            for fragment, tree in child.program.fragments():
                validate_tree(tree, fragment)
                assert tree_depth(tree) <= limit

    def test_small_population_has_one_event_per_individual(self):
        # Four individuals: tournaments of four, four replacement events.
        cases = small_cases()
        rng = SplitMix64(3)
        population = create_initial_population(small_config(population_size=4), rng)
        evaluate(population, cases)
        children = []
        step_steady_state(population, cases, rng, on_child=children.append)
        assert len(children) == 4

    def test_population_below_two_refused(self):
        population = create_initial_population(small_config(population_size=4))
        with pytest.raises(ValueError, match="population has 1 individuals"):
            step_steady_state(population[:1], small_cases(), SplitMix64(1))


class TestRunEvolution:
    def test_generations_zero_returns_best_of_random(self):
        cases = small_cases()
        config = small_config(generations=0, population_size=10)
        best, log = fresh_run(cases, config)
        assert len(log) == 1 and log[0].generation == 0
        assert best.fitness == log[0].best_fitness

    def test_deterministic_rerun(self):
        cases = small_cases()
        config = small_config(population_size=10, generations=2)
        best_a, log_a = fresh_run(cases, config)
        best_b, log_b = fresh_run(cases, config)
        assert log_a == log_b
        assert print_program(best_a.program) == print_program(best_b.program)

    def test_best_fitness_non_increasing(self):
        cases = small_cases()
        config = small_config(population_size=12, generations=3)
        _, log = fresh_run(cases, config)
        series = [rec.best_fitness for rec in log]
        assert all(b <= a for a, b in zip(series, series[1:]))

    def test_best_reevaluates_to_same_fitness(self):
        cases = small_cases()
        config = small_config(population_size=10, generations=1)
        best, _ = fresh_run(cases, config)
        fresh = Individual(best.program)
        evaluate([fresh], cases)
        assert fresh.fitness == best.fitness

    def test_interpreter_and_solver_run_only_inside_evaluate(self, monkeypatch):
        # A tracer that times fitness by wrapping gp.evaluate sees all of it
        # only if nothing else runs the interpreter or a search.
        depth, counts = [0], {"evaluate": 0, "compute_activities": 0, "solve": 0}

        def flagged(*args, **kwargs):
            counts["evaluate"] += 1
            depth[0] += 1
            try:
                return real_evaluate(*args, **kwargs)
            finally:
                depth[0] -= 1

        def guarded(name, fn):
            def call(*args, **kwargs):
                assert depth[0], f"{name} ran outside gp.evaluate"
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        real_evaluate = gp.evaluate
        monkeypatch.setattr(gp, "evaluate", flagged)
        for name in ("compute_activities", "solve"):
            monkeypatch.setattr(gp, name, guarded(name, getattr(gp, name)))
        children = []
        fresh_run(small_cases(), small_config(population_size=10, generations=2),
                  on_child=children.append)
        new = [c for c in children if c.origin != "copy"]
        # one call for generation 0, then one per new child
        assert counts["evaluate"] == 1 + len(new) > 1
        assert counts["compute_activities"] > 0 and counts["solve"] > 0

    def test_resume_matches_uninterrupted(self):
        cases = small_cases()
        full_config = small_config(population_size=10, generations=3)
        _, log_full = fresh_run(cases, full_config)

        part_config = small_config(population_size=10, generations=2)
        rng = SplitMix64(part_config.rng_seed)
        population = create_initial_population(part_config, rng)
        _, log_part = run_evolution(cases, part_config, population=population, rng=rng)
        checkpoint = save_checkpoint(population, log_part[-1].generation, rng, cases)
        population, generation, rng = load_checkpoint(checkpoint, cases, 10)
        _, log_resumed = run_evolution(
            cases,
            full_config,
            population=population,
            start_generation=generation,
            rng=rng,
        )
        assert log_resumed[-1] == log_full[-1]


def evolved(cases):
    """(population, generation, rng) after a 6-individual generation-0 run."""
    config = small_config(population_size=6, generations=0)
    rng = SplitMix64(config.rng_seed)
    population = create_initial_population(config, rng)
    _, log = run_evolution(cases, config, population=population, rng=rng)
    return population, log[-1].generation, rng


class TestCheckpoint:
    def test_roundtrip(self):
        cases = small_cases()
        run_population, run_generation, run_rng = evolved(cases)
        text = save_checkpoint(run_population, run_generation, run_rng, cases)
        population, generation, rng = load_checkpoint(text, cases, 6)
        assert generation == run_generation == 0
        assert rng.state == run_rng.state
        assert [print_program(i.program) for i in population] == [
            print_program(i.program) for i in run_population
        ]
        assert [i.fitness for i in population] == [i.fitness for i in run_population]

    def test_mismatch_refused(self):
        cases = small_cases()
        text = save_checkpoint(*evolved(cases), cases)
        other_cnf = FitnessCaseSet.from_cnfs(
            [("case0", random_3sat(20, 85, seed=78))], cases.solver_config
        )
        other_config = FitnessCaseSet.from_cnfs(
            [("case0", random_3sat(20, 85, seed=77))], SolverConfig(rng_seed=2)
        )
        with pytest.raises(ValueError, match="population_size"):
            load_checkpoint(text, cases, 7)
        with pytest.raises(ValueError, match="cases_digest"):
            load_checkpoint(text, other_cnf, 6)
        with pytest.raises(ValueError, match="config_hash"):
            load_checkpoint(text, other_config, 6)
        old_header = text.split(" population_size=")[0] + "\n"
        with pytest.raises(ValueError, match="population_size is missing"):
            load_checkpoint(old_header, cases, 6)

    def test_truncated_or_malformed_body_refused(self):
        cases = small_cases()
        lines = save_checkpoint(*evolved(cases), cases).splitlines()
        truncated = "\n".join(lines[:3]) + "\n"
        with pytest.raises(ValueError, match="holds 2 individuals.*population_size=6"):
            load_checkpoint(truncated, cases, 6)
        lines[4] = lines[4].replace("\t", " ")
        with pytest.raises(ValueError, match="checkpoint line 5: expected fitness TAB program"):
            load_checkpoint("\n".join(lines) + "\n", cases, 6)

    def test_repeated_header_key_refused(self):
        # A repeated key used to be accepted, the last value winning.
        cases = small_cases()
        lines = save_checkpoint(*evolved(cases), cases).splitlines()
        lines[0] += " generation=1"
        with pytest.raises(ValueError, match="repeats 'generation'"):
            load_checkpoint("\n".join(lines) + "\n", cases, 6)

    def test_unknown_header_key_refused(self):
        # A key that save_checkpoint never writes used to be ignored.
        cases = small_cases()
        lines = save_checkpoint(*evolved(cases), cases).splitlines()
        lines[0] += " bogus=1"
        with pytest.raises(ValueError, match="checkpoint header has unknown key 'bogus'"):
            load_checkpoint("\n".join(lines) + "\n", cases, 6)

    @pytest.mark.parametrize("generation,message", [
        (-1, "generation must be >= 0, got -1"),
        (1.0, r"generation must be an int, got 1\.0"),
    ])
    def test_bad_generation_not_saved(self, generation, message):
        cases = small_cases()
        population, _, rng = evolved(cases)
        with pytest.raises(ValueError, match=message):
            save_checkpoint(population, generation, rng, cases)

    @pytest.mark.parametrize("start,message", [
        (-2, "start_generation must be >= 0, got -2"),
        (True, "start_generation must be an int, got True"),
    ])
    def test_bad_start_generation_refused_before_evaluation(self, monkeypatch, start, message):
        monkeypatch.setattr(gp, "evaluate", lambda *args, **kwargs: pytest.fail("evaluated"))
        cases = small_cases()
        config = small_config(population_size=6, generations=1)
        rng = SplitMix64(config.rng_seed)
        population = create_initial_population(config, rng)
        with pytest.raises(ValueError, match=message):
            run_evolution(cases, config, population=population, rng=rng, start_generation=start)

    def test_population_of_other_size_refused(self):
        cases = small_cases()
        config = small_config(population_size=6, generations=1)
        rng = SplitMix64(config.rng_seed)
        population = create_initial_population(small_config(population_size=4), rng)
        with pytest.raises(ValueError, match="population has 4 individuals"):
            run_evolution(cases, config, population=population, rng=rng)

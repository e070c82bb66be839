import dataclasses
from fractions import Fraction
from unittest import mock

import pytest

from conftest import make_random_cnf
from oracles import model_satisfies, truth_table_satisfiable
from satgp import solver
from satgp.cnf import Cnf, preprocess_bcp, random_3sat
from satgp.lang import compute_activities, normalize, preset_program
from satgp.rng import SplitMix64
from satgp.solver import SolveOutcome, SolverConfig, solve, solve_with_baseline


def counts(outcome: SolveOutcome):
    return (outcome.verdict, outcome.conflicts, outcome.decisions,
            outcome.propagations)


class TestBasics:
    @pytest.mark.parametrize("clauses", [(), ((1,), (1, 2)), ((), (1, 2))],
                             ids=["no clauses", "unit clause", "empty clause"])
    def test_unreduced_formula_refused(self, clauses):
        with pytest.raises(ValueError, match="formula that preprocess_bcp reduced"):
            solve(Cnf(3, clauses), [0.0, 0.0, 0.0])

    def test_all_four_assignments_excluded(self):
        cnf = Cnf.from_lists(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]])
        assert solve_with_baseline(cnf).verdict == "unsat"

    def test_simple_sat_with_model_check(self):
        cnf = Cnf.from_lists(3, [[1, 2], [-1, 3], [-2, -3]])
        out = solve_with_baseline(cnf)
        assert out.verdict == "sat"
        assert model_satisfies(cnf, out.model)

    def test_init_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            solve(Cnf.from_lists(2, [[1, 2]]), [0.0])

    def test_non_finite_init(self):
        with pytest.raises(ValueError, match="non-finite"):
            solve(Cnf.from_lists(2, [[1, 2]]), [0.0, float("inf")])

    def test_bad_config(self):
        with pytest.raises(ValueError, match="var_decay"):
            solve_with_baseline(Cnf.from_lists(1, [[1]]), SolverConfig(var_decay=1.5))

    @pytest.mark.parametrize("field,value,message", [
        ("var_decay", 0.0, "var_decay must be in"),
        ("var_decay", 1.0, "var_decay must be in"),
        ("var_decay", Fraction(1, 2), "var_decay must be an int or a float"),
        ("random_decision_freq", -0.1, "random_decision_freq must be in"),
        ("random_decision_freq", 1.0, "random_decision_freq must be in"),
        ("random_decision_freq", False, "random_decision_freq must be an int or a float"),
        ("restart_first", 0, "restart_first must be >= 1"),
        ("restart_first", 2.5, "restart_first must be an int"),
        ("rng_seed", 1.5, "rng_seed must be an int"),
        ("rng_seed", True, "rng_seed must be an int"),
    ])
    def test_bad_config_refused_when_made(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**{field: value})

    def test_config_is_frozen(self):
        config = SolverConfig()
        with pytest.raises(ValueError, match="var_decay"):
            dataclasses.replace(config, var_decay=1.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.var_decay = 1.5

    def test_out_of_range_literal_refused(self):
        # Literal 4 of a 3-variable formula used to alias the slot of -3 in
        # the solver's arrays, and this satisfiable formula read unsat.
        clauses = ((-1, -3), (1, -2), (1, 2), (1, -4), (-4, 1), (2, -4),
                   (4, -3), (-2, 3), (-3, -1), (3, -4))
        assert solve(Cnf(4, clauses), [0.0] * 4).verdict == "sat"
        with pytest.raises(ValueError, match=r"clause \(1, -4\)"):
            solve(Cnf(3, clauses), [0.0] * 3)

    def test_baseline_is_zero_init(self):
        cnf = random_3sat(15, 60, seed=3)
        a = solve_with_baseline(cnf)
        b = solve(cnf, [0.0] * 15)
        assert counts(a) == counts(b)
        assert a.model == b.model

    def test_decisions_at_least_one_when_search_needed(self):
        cnf = Cnf.from_lists(2, [[1, 2]])
        out = solve_with_baseline(cnf)
        assert out.decisions >= 1


class TestDeterminism:
    def test_identical_runs(self):
        cnf = random_3sat(20, 88, seed=14)
        config = SolverConfig(rng_seed=5)
        a = solve_with_baseline(cnf, config)
        b = solve_with_baseline(cnf, config)
        assert counts(a) == counts(b)
        assert a.model == b.model

    def test_seed_changes_trace(self):
        cnf = random_3sat(20, 88, seed=14)
        runs = {
            counts(solve_with_baseline(cnf, SolverConfig(rng_seed=s)))
            for s in range(8)
        }
        assert len(runs) > 1  # the decision RNG must matter


class TestOracleAgreement:
    def test_verdicts_match_truth_table(self):
        # A quick 80-instance slice; the full 500-instance sweep runs in
        # the acceptance suite.
        rng = SplitMix64(900)
        for trial in range(80):
            nv = 8 + rng.randrange(7)
            nc = int(nv * (3.0 + rng.randrange(5) * 0.5))
            cnf = random_3sat(nv, nc, seed=trial + 1000)
            out = solve_with_baseline(cnf, SolverConfig(rng_seed=trial))
            expected = truth_table_satisfiable(cnf)
            assert (out.verdict == "sat") == expected
            if out.verdict == "sat":
                assert model_satisfies(cnf, out.model)

    def test_mixed_width_instances(self):
        rng = SplitMix64(901)
        for trial in range(60):
            cnf = make_random_cnf(rng, 3 + rng.randrange(10),
                                  1 + rng.randrange(25), min_width=1, max_width=5)
            reduced, verdict, _ = preprocess_bcp(cnf)
            expected = truth_table_satisfiable(cnf)
            if verdict == "unsatisfiable":
                assert expected is False
                continue
            if verdict == "satisfied":
                assert expected is True
                continue
            out = solve_with_baseline(reduced, SolverConfig(rng_seed=trial))
            assert (out.verdict == "sat") == expected
            if out.verdict == "sat":
                assert model_satisfies(reduced, out.model)


class TestScalingInvariance:
    def test_raw_vs_normalized_identical(self):
        cnf = random_3sat(20, 85, seed=21)
        rng = SplitMix64(500)
        for _ in range(20):
            init = [rng.uniform(-300.0, 300.0) for _ in range(20)]
            raw = solve(cnf, init)
            norm = solve(cnf, normalize(init))
            assert counts(raw) == counts(norm)

    def test_power_of_two_scaling_identical(self):
        cnf = random_3sat(18, 76, seed=22)
        rng = SplitMix64(501)
        init = [rng.uniform(-5.0, 5.0) for _ in range(18)]
        reference = counts(solve(cnf, init))
        for factor in (0.5, 2.0, 1024.0, 2.0**-30):
            scaled = [a * factor for a in init]
            assert counts(solve(cnf, scaled)) == reference

    def test_integer_scaling_identical(self):
        # Small integer activities scale exactly in floating point.
        cnf = random_3sat(16, 70, seed=23)
        rng = SplitMix64(502)
        init = [float(rng.randrange(21) - 10) for _ in range(16)]
        reference = counts(solve(cnf, init))
        for factor in (3.0, 7.0, 100.0):
            scaled = [a * factor for a in init]
            assert counts(solve(cnf, scaled)) == reference


    def test_monotone_nonlinear_map_can_change_trace(self):
        # Order is not all that matters: x -> x**5 keeps the order of a
        # uniform init but changes the magnitudes that bumps add to.
        cnf = random_3sat(75, 320, seed=1)
        changed = 0
        for seed in range(10):
            rng = SplitMix64(seed)
            init = [rng.uniform(0.0, 1.0) for _ in range(75)]
            fifth = [a**5 for a in init]
            changed += solve(cnf, init).conflicts != solve(cnf, fifth).conflicts
        assert changed >= 1


class TestConfigKnobs:
    def test_restart_schedule_affects_search(self):
        cnf = random_3sat(24, 103, seed=31)
        a = solve_with_baseline(cnf, SolverConfig(restart_first=2, rng_seed=1))
        b = solve_with_baseline(cnf, SolverConfig(restart_first=10**9, rng_seed=1))
        assert a.verdict == b.verdict  # completeness regardless of restarts

    def test_random_decisions_disabled(self):
        cnf = random_3sat(15, 63, seed=32)
        out = solve_with_baseline(cnf, SolverConfig(random_decision_freq=0.0))
        assert out.verdict in ("sat", "unsat")

    def test_heavy_random_decisions_still_complete(self):
        cnf = random_3sat(12, 55, seed=33)
        out = solve_with_baseline(cnf, SolverConfig(random_decision_freq=0.9))
        assert (out.verdict == "sat") == truth_table_satisfiable(cnf)

    def test_aggressive_db_reduction_stays_sound(self):
        cnf = random_3sat(20, 86, seed=34)
        schedule = {"learnt_db_initial_fraction": 0.01, "learnt_db_growth": 1.0}
        with mock.patch.dict(solver.SCHEDULE, schedule):
            out = solve_with_baseline(cnf)
        assert (out.verdict == "sat") == truth_table_satisfiable(cnf)
        if out.model:
            assert model_satisfies(cnf, out.model)

    def test_config_is_not_mutated(self):
        config = SolverConfig()
        snapshot = dataclasses.asdict(config)
        solve_with_baseline(random_3sat(10, 42, seed=35), config)
        assert dataclasses.asdict(config) == snapshot


class TestConfigMatrix:
    # Unusual parameter corners must stay sound and complete on raw inputs
    # with unit clauses, run through the pipeline as cmd_solve runs them.
    # (config, overrides of solver.SCHEDULE)
    CONFIGS = [
        (SolverConfig(restart_first=1, rng_seed=1), {"restart_factor": 1.1}),
        (SolverConfig(rng_seed=2), {"learnt_db_initial_fraction": 0.02, "clause_decay": 0.9}),
        (SolverConfig(var_decay=0.5, random_decision_freq=0.3, rng_seed=3), {}),
    ]

    @pytest.mark.parametrize("config_idx", range(len(CONFIGS)))
    def test_oracle_agreement_on_raw_inputs(self, config_idx):
        config, schedule = self.CONFIGS[config_idx]
        rng = SplitMix64(4000 + config_idx)
        searched = 0
        for trial in range(40):
            raw = make_random_cnf(rng, 3 + rng.randrange(9),
                                  1 + rng.randrange(26), min_width=1, max_width=4)
            reduced, verdict, forced = preprocess_bcp(raw)
            model = dict.fromkeys(range(1, raw.num_vars + 1), False)
            sat = verdict == "satisfied"
            if verdict == "reduced":
                searched += 1
                with mock.patch.dict(solver.SCHEDULE, schedule):
                    out = solve(reduced, [0.0] * reduced.num_vars, config)
                sat = out.verdict == "sat"
                model.update(out.model or {})
            assert sat == truth_table_satisfiable(raw)
            if sat:
                model.update((abs(lit), lit > 0) for lit in forced)
                assert model_satisfies(raw, model)
        assert searched >= 10


class TestSchedule:
    """Overrides of solver.SCHEDULE reach the search.  The golden entry
    rescale_threshold=1e10 has the default trace, so the increments show
    what its counts cannot."""

    @staticmethod
    def finished_search(**schedule):
        cnf = preprocess_bcp(random_3sat(100, 426, 1))[0]
        with mock.patch.dict(solver.SCHEDULE, schedule):
            search = solver._Search(cnf, [0.0] * cnf.num_vars, SolverConfig())
            assert search.run()[0] == "unsat"
        return search

    def test_rescale_threshold_rescales_var_inc(self):
        assert self.finished_search().var_inc > 1.0
        assert self.finished_search(rescale_threshold=1e10).var_inc < 1.0

    def test_clause_decay_grows_cla_inc(self):
        assert self.finished_search().cla_inc < 10.0
        search = self.finished_search(clause_decay=0.5)
        # Doubled on every conflict, and rescaled on the way.
        assert 1e10 < search.cla_inc < 2.0 ** search.conflicts


class TestHardUnsat:
    def test_pigeonhole_5_into_4(self):
        # PHP(5,4): pigeon p in hole h is var 4*(p-1)+h.
        clauses = []
        for p in range(5):
            clauses.append([4 * p + h + 1 for h in range(4)])
        for h in range(4):
            for p1 in range(5):
                for p2 in range(p1 + 1, 5):
                    clauses.append([-(4 * p1 + h + 1), -(4 * p2 + h + 1)])
        cnf = Cnf.from_lists(20, clauses)
        out = solve_with_baseline(cnf)
        assert out.verdict == "unsat"
        assert out.conflicts > 0


def mixed_width_cnf(seed: int, n: int, binary: int, ternary: int, wide: int) -> Cnf:
    """Random binary, 3-literal and 5-8-literal clauses, shuffled together."""
    rng = SplitMix64(seed)
    clauses = [*make_random_cnf(rng, n, binary, 2, 2).clauses,
               *make_random_cnf(rng, n, ternary, 3, 3).clauses,
               *make_random_cnf(rng, n, wide, 5, 8).clauses]
    rng.shuffle(clauses)
    return Cnf(n, tuple(clauses))


def with_duplicate_literals(cnf: Cnf) -> Cnf:
    """Every 7th clause repeats its first literal in front, so that clause
    sits twice in one watch list."""
    return Cnf(cnf.num_vars, tuple((c[0],) + c if i % 7 == 0 else c
                                   for i, c in enumerate(cnf.clauses)))


MIXED_WIDTH_INSTANCES = {
    "a": (1, 100, 20, 340, 300),
    "b": (1, 100, 25, 340, 300),
    "c": (2, 120, 30, 408, 240),
}

# (instance, init, solver seed, random_decision_freq, duplicate literals)
# -> (verdict, conflicts, decisions, propagations), computed with the
# propagate loop that scanned every clause from its third literal with
# enumerate and copied the unvisited watchers by position on a conflict.
PINNED_MIXED_WIDTH = [
    ("a", "zero", 0, 0.02, False, ("unsat", 668, 833, 20544)),
    ("a", "add_lc", 0, 0.02, False, ("unsat", 776, 1008, 23857)),
    ("a", "zero", 1, 0.2, False, ("unsat", 588, 815, 16291)),
    ("b", "zero", 0, 0.02, False, ("sat", 377, 489, 11909)),
    ("b", "add_lc", 0, 0.02, False, ("sat", 95, 135, 2605)),
    ("b", "zero", 1, 0.2, False, ("sat", 142, 194, 4383)),
    ("c", "zero", 0, 0.02, False, ("sat", 615, 870, 21698)),
    ("c", "add_lc", 0, 0.02, False, ("sat", 64, 103, 2462)),
    ("c", "zero", 1, 0.2, False, ("sat", 82, 138, 2764)),
    ("a", "zero", 0, 0.02, True, ("unsat", 521, 699, 14352)),
    ("b", "zero", 0, 0.02, True, ("sat", 256, 342, 6898)),
    ("c", "zero", 0, 0.02, True, ("sat", 138, 231, 4093)),
]


class TestMixedWidthTraces:
    """Original 2-literal clauses and 5-8-literal clauses take the
    propagate paths that 3-SAT instances rarely do."""

    @pytest.mark.parametrize("name,init,seed,freq,dup,trace", PINNED_MIXED_WIDTH)
    def test_pinned_trace(self, name, init, seed, freq, dup, trace):
        cnf = mixed_width_cnf(*MIXED_WIDTH_INSTANCES[name])
        assert {len(c) for c in cnf.clauses} == {2, 3, 5, 6, 7, 8}
        if dup:
            cnf = with_duplicate_literals(cnf)
        acts = ([0.0] * cnf.num_vars if init == "zero"
                else compute_activities(preset_program(init), cnf))
        config = SolverConfig(rng_seed=seed, random_decision_freq=freq)
        out = solve(cnf, acts, config)
        assert counts(out) == trace
        if out.verdict == "sat":
            assert model_satisfies(cnf, out.model)

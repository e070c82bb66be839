import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from satgp import harness
from satgp.cnf import Cnf, preprocess_bcp, random_3sat
from satgp.harness import (
    bundled_cnf,
    compare_reordered,
    config_hash,
    histogram_csv,
    map_shared,
    percent_bin,
    pool_size,
    random_init,
    replay_sample,
    run_histogram,
    run_validation,
    samples_csv,
    validation_csv,
)
from satgp.lang import parse_program, preset_program
from satgp.rng import spawn_seeds
from satgp.solver import SolverConfig


CONFIG = SolverConfig(rng_seed=3)


def reduced_bundled():
    reduced, verdict, _ = preprocess_bcp(bundled_cnf())
    assert verdict == "reduced"
    return reduced


class TestPercentBin:
    # Over these ranges 100 * c / k0 is at least 1 / (2 * k0) from a half
    # unless it is one, far more than the float error, so the float
    # formula the bins used before is an exact oracle.
    @given(st.integers(0, 10**10), st.integers(1, 10**9))
    @example(5, 8)
    @example(13, 8)
    @example(1, 200)
    @example(0, 1)
    def test_matches_float_rounding_halves_up(self, conflicts, k0):
        assert percent_bin(conflicts, k0) == math.floor(100.0 * conflicts / k0 + 0.5)


class TestHistogram:
    def test_zero_range_single_bin_at_100(self):
        report = run_histogram(reduced_bundled(), 1, 0.0, 0.0, CONFIG, master_seed=5)
        assert report.bins == {100: 1}

    def test_counts_sum_and_extremes(self):
        report = run_histogram(
            reduced_bundled(), 30, 0.0, 1.0, CONFIG, master_seed=6, problem="bundled"
        )
        assert sum(report.bins.values()) == 30
        k0 = report.baseline.conflicts
        percents = [100.0 * r.conflicts / k0 for r in report.rows]
        assert min(percents) <= 100.0 * report.min_conflicts / k0 + 1e-9
        assert max(percents) >= 100.0 * report.max_conflicts / k0 - 1e-9
        assert len(report.bins) >= 2

    def test_replay_best_and_worst(self):
        cnf = bundled_cnf()
        report = run_histogram(cnf, 20, 0.0, 1.0, CONFIG, master_seed=7)
        best = replay_sample(cnf, report.min_seed, 0.0, 1.0, CONFIG)
        worst = replay_sample(cnf, report.max_seed, 0.0, 1.0, CONFIG)
        assert best.conflicts == report.min_conflicts
        assert worst.conflicts == report.max_conflicts

    def test_deterministic_bins(self):
        cnf = reduced_bundled()
        a = run_histogram(cnf, 15, 0.0, 1.0, CONFIG, master_seed=8)
        b = run_histogram(cnf, 15, 0.0, 1.0, CONFIG, master_seed=8)
        assert a.bins == b.bins
        assert [r.conflicts for r in a.rows] == [r.conflicts for r in b.rows]

    def test_seed_derivation_is_documented_stream(self):
        cnf = reduced_bundled()
        report = run_histogram(cnf, 5, 0.0, 1.0, CONFIG, master_seed=42)
        assert [r.seed for r in report.rows] == spawn_seeds(42, 5)

    @pytest.mark.parametrize("samples,lo,hi,message", [
        (0, 0.0, 1.0, "samples must be >= 1"),
        (5, 1.0, 0.5, "need lo < hi"),
    ])
    def test_bad_arguments_refused(self, samples, lo, hi, message):
        with pytest.raises(ValueError, match=message):
            run_histogram(reduced_bundled(), samples, lo, hi, CONFIG, master_seed=1)

    def test_baseline_without_conflicts_raises(self):
        trivial = Cnf.from_lists(2, [[1, 2]])
        with pytest.raises(ValueError, match="baseline has no conflicts"):
            run_histogram(trivial, 5, 0.0, 1.0, CONFIG, master_seed=1)

    def test_raw_formula_is_preprocessed_first(self):
        bundled = bundled_cnf()
        raw = Cnf(bundled.num_vars, ((1,), *bundled.clauses))
        reduced, verdict, forced = preprocess_bcp(raw)
        assert verdict == "reduced" and forced and reduced != raw
        a = run_histogram(raw, 10, 0.0, 1.0, CONFIG, master_seed=10)
        b = run_histogram(reduced, 10, 0.0, 1.0, CONFIG, master_seed=10)
        assert a.baseline.conflicts > 0
        assert (a.baseline.conflicts, a.baseline.decisions) == (
            b.baseline.conflicts, b.baseline.decisions)
        assert histogram_csv(a) == histogram_csv(b)
        assert samples_csv(a) == samples_csv(b)
        for seed, conflicts in ((a.min_seed, a.min_conflicts), (a.max_seed, a.max_conflicts)):
            assert replay_sample(raw, seed, 0.0, 1.0, CONFIG).conflicts == conflicts

    @pytest.mark.parametrize("clauses,verdict", [
        ([[1], [-1, 2]], "satisfied"),
        ([[1], [-1]], "unsatisfiable"),
    ])
    @pytest.mark.parametrize("run", [
        lambda cnf: run_histogram(cnf, 5, 0.0, 1.0, CONFIG, master_seed=1),
        lambda cnf: compare_reordered(cnf, 1, 5, CONFIG, master_seed=1),
        lambda cnf: replay_sample(cnf, 1, 0.0, 1.0, CONFIG),
    ], ids=["run_histogram", "compare_reordered", "replay_sample"])
    def test_decided_by_preprocessing_refused_before_search(
        self, monkeypatch, clauses, verdict, run
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("searched a formula that preprocessing decides")

        monkeypatch.setattr(harness, "solve", no_search)
        monkeypatch.setattr(harness, "solve_with_baseline", no_search)
        with pytest.raises(ValueError, match=f"^problem is {verdict} after preprocessing$"):
            run(Cnf.from_lists(2, clauses))

    def test_parallel_matches_sequential(self):
        cnf = reduced_bundled()
        seq = run_histogram(cnf, 10, 0.0, 1.0, CONFIG, master_seed=9, jobs=1)
        par = run_histogram(cnf, 10, 0.0, 1.0, CONFIG, master_seed=9, jobs=2)
        assert seq.bins == par.bins
        assert [r.conflicts for r in seq.rows] == [r.conflicts for r in par.rows]


class TestWorkerPool:
    # Sizing is tested without starting a pool: a pool forks all of its
    # workers at once.
    def test_never_more_workers_than_tasks(self):
        assert pool_size(5000, 3) <= 3
        assert pool_size(5000, 0) == 1

    def test_unknown_cpu_count_gives_one_worker(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert pool_size(8, 8) == 1

    def test_one_worker_runs_in_order_in_process(self):
        seen = []
        assert map_shared(lambda shared, task: seen.append(task) or shared + task,
                          10, [3, 1, 2], jobs=1) == [13, 11, 12]
        assert seen == [3, 1, 2]

    def test_pool_modules_imported_only_when_a_pool_starts(self):
        # A fresh interpreter: this process may have loaded them already.
        script = textwrap.dedent("""
            import operator, os, sys
            import satgp, satgp.cli
            from satgp.cnf import preprocess_bcp
            from satgp.harness import bundled_cnf, map_shared, run_histogram
            from satgp.solver import SolverConfig

            reduced, _, _ = preprocess_bcp(bundled_cnf())
            run_histogram(reduced, 3, 0.0, 1.0, SolverConfig(), 1)
            pool = {"multiprocessing", "concurrent.futures"}
            assert not pool & set(sys.modules), sorted(pool & set(sys.modules))
            if (os.cpu_count() or 1) >= 2:
                assert map_shared(operator.add, 10, [3, 1, 2], jobs=2) == [13, 11, 12]
                assert pool <= set(sys.modules)
        """)
        src = str(Path(harness.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr


class TestCompareReordered:
    def test_verdicts_agree(self):
        # bundled instance is unsatisfiable; reordering must preserve that.
        cnf = bundled_cnf()
        for seed in (1, 2, 3):
            comparison = compare_reordered(cnf, seed, 3, CONFIG, master_seed=12)
            assert comparison.original.baseline.conflicts > 0
            assert comparison.reordered.baseline.conflicts > 0

    def test_trivial_problem_rejected(self):
        trivial = Cnf.from_lists(3, [[1], [2], [3]])
        with pytest.raises(ValueError, match="problem is satisfied after preprocessing"):
            compare_reordered(trivial, 1, 3, CONFIG, master_seed=13)


class TestValidation:
    def test_zero_program_is_100_percent(self):
        problems = [
            ("a", random_3sat(15, 63, seed=41)),
            ("b", random_3sat(15, 63, seed=42)),
        ]
        report = run_validation(preset_program("zero"), problems, CONFIG)
        assert all(row.percent == 100.0 for row in report.rows)
        assert report.mean_percent == 100.0
        assert report.total_percent == 100.0

    def test_add_lc_produces_full_report(self):
        problems = [(f"p{i}", random_3sat(14, 60, seed=50 + i)) for i in range(10)]
        report = run_validation(preset_program("add_lc"), problems, CONFIG)
        assert len(report.rows) == 10
        for row in report.rows:
            assert row.baseline_conflicts >= 0
            assert row.program_conflicts >= 0
            assert row.percent >= 0.0
            assert row.baseline_time >= 0.0

    def test_specialist_matches_direct_evaluation(self):
        from satgp.gp import FitnessCaseSet, Individual, evaluate

        cnf = bundled_cnf()
        program = parse_program("IN: sub(xp)")
        report = run_validation(program, [("bundled", cnf)], CONFIG)
        cases = FitnessCaseSet.from_cnfs([("bundled", cnf)], CONFIG)
        ind = Individual(program)
        evaluate([ind], cases)
        assert report.rows[0].program_conflicts == ind.per_case[0][0]
        assert report.rows[0].program_decisions == ind.per_case[0][1]

    def test_trivial_problem_contributes_100(self):
        trivial = Cnf.from_lists(2, [[1], [2]])
        report = run_validation(preset_program("add_lc"), [("t", trivial)], CONFIG)
        assert report.rows[0].percent == 100.0

    def test_conflicts_over_a_conflict_free_baseline_are_inf(self):
        cnf = random_3sat(20, 60, 3)
        report = run_validation(preset_program("sub_xp"), [("c", cnf)], SolverConfig())
        row = report.rows[0]
        assert (row.baseline_conflicts, row.program_conflicts) == (0, 3)
        assert row.percent == report.total_percent == math.inf
        trivial = Cnf.from_lists(2, [[1], [2]])
        report = run_validation(preset_program("zero"), [("c", cnf), ("t", trivial)],
                                SolverConfig())
        assert [row.percent for row in report.rows] == [100.0, 100.0]
        assert report.total_percent == 100.0


class TestCsvArtifacts:
    def test_histogram_csv_shape(self):
        report = run_histogram(
            reduced_bundled(), 12, 0.0, 1.0, CONFIG, master_seed=21, problem="x"
        )
        text = histogram_csv(report)
        lines = text.strip().splitlines()
        assert lines[0].startswith("# config-hash=")
        assert f"master-seed=21" in lines[0]
        assert lines[1] == "percent,count"
        counts = [int(line.split(",")[1]) for line in lines[2:]]
        assert sum(counts) == 12

    def test_samples_csv_replayable(self):
        cnf = bundled_cnf()
        report = run_histogram(cnf, 6, 0.0, 1.0, CONFIG, master_seed=22)
        lines = samples_csv(report).strip().splitlines()
        assert lines[1] == "sample_id,seed,conflicts,decisions,percent"
        first = lines[2].split(",")
        outcome = replay_sample(cnf, int(first[1]), 0.0, 1.0, CONFIG)
        assert outcome.conflicts == int(first[2])

    def test_validation_csv_columns(self):
        report = run_validation(
            preset_program("zero"), [("q", random_3sat(12, 50, seed=60))], CONFIG
        )
        lines = validation_csv(report, master_seed=0).strip().splitlines()
        assert lines[1].split(",") == [
            "problem",
            "baseline_conflicts",
            "program_conflicts",
            "percent",
            "baseline_decisions",
            "program_decisions",
            "baseline_time",
            "program_time",
        ]

    def test_csv_determinism_excluding_time(self):
        cnf = reduced_bundled()
        a = run_histogram(cnf, 8, 0.0, 1.0, CONFIG, master_seed=23)
        b = run_histogram(cnf, 8, 0.0, 1.0, CONFIG, master_seed=23)
        assert histogram_csv(a) == histogram_csv(b)
        assert samples_csv(a) == samples_csv(b)


class TestRandomInit:
    def test_range_and_determinism(self):
        a = random_init(50, 99, 0.25, 0.75)
        b = random_init(50, 99, 0.25, 0.75)
        assert a == b
        assert all(0.25 <= x < 0.75 for x in a)

    def test_config_hash_stability(self):
        assert config_hash(SolverConfig()) == config_hash(SolverConfig())
        assert config_hash(SolverConfig()) != config_hash(SolverConfig(rng_seed=1))

    def test_config_hash_values_pinned(self):
        # The hash covers the fixed schedule too; these values are in every
        # artifact and checkpoint written so far, so they must not move.
        assert config_hash(SolverConfig()) == "5a707cdfcdbbbaa3"
        assert config_hash(SolverConfig(rng_seed=1)) == "740788ce425004a0"
        assert config_hash(SolverConfig(var_decay=0.9)) == "db57cf23e8c7bfe3"

    @pytest.mark.parametrize("zero", [0, 0.0, -0.0])
    def test_equal_configs_hash_alike(self, zero):
        # 0 and -0.0 used to hash apart from 0.0, which --random-freq 0 builds.
        assert config_hash(SolverConfig(random_decision_freq=zero)) == "16c3481950a51d44"

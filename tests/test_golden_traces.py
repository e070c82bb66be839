"""Golden search traces: exact counts that any refactor must reproduce.

A trace is the (verdict, conflicts, decisions, propagations) result of one
(cnf, init, config) input.  The paper's experiments are these numbers, so
a change that moves any of them alters results and is not a refactor.
The evolution case also pins the GP random stream: one changed draw in
step_steady_state changes every later generation.
"""

import dataclasses

import pytest

from satgp.cnf import compute_var_stats, preprocess_bcp
from satgp.gp import FitnessCaseSet, GpConfig, run_evolution
from satgp.harness import bundled_cnf
from satgp.lang import compute_activities, preset_program
from satgp.solver import SolverConfig, solve

# (solver seed, init) -> trace on the bundled instance after preprocess_bcp.
GOLDEN_TRACES = {
    (0, "zero"): ("unsat", 60, 84, 1154),
    (0, "add_lc"): ("unsat", 34, 34, 600),
    (0, "sub_xp"): ("unsat", 156, 207, 2733),
    (0, "precursor"): ("unsat", 193, 220, 3160),
    (1, "zero"): ("unsat", 140, 173, 2492),
    (1, "add_lc"): ("unsat", 34, 34, 600),
    (1, "sub_xp"): ("unsat", 215, 273, 3607),
    (1, "precursor"): ("unsat", 193, 221, 3164),
}

# run_evolution on the bundled case, GpConfig(population_size=20,
# generations=2, rng_seed=3), default solver config.
GOLDEN_BEST_FITNESS = 32.044
GOLDEN_BEST_PER_CASE = [(32, 38)]
GOLDEN_GENERATIONS = [
    (0, 32.046, 65.8601, 8, "PRE: set(xp) / IN: max(0, xp) / POST: xor(3, nv)"),
    (1, 32.046, 37.654750000000014, 8, "PRE: set(xp) / IN: max(0, xp) / POST: xor(3, 4)"),
    (2, 32.044, 32.044299999999986, 6, "PRE: set(xp) / IN: xp / POST: xor(3, 4)"),
]


@pytest.fixture(scope="module")
def reduced_bundled():
    reduced, verdict, forced = preprocess_bcp(bundled_cnf())
    assert (verdict, forced) == ("reduced", [])
    return reduced


@pytest.mark.parametrize("seed,init_name", sorted(GOLDEN_TRACES))
def test_solve_trace(reduced_bundled, seed, init_name):
    program = preset_program(init_name)
    acts = compute_activities(program, reduced_bundled, compute_var_stats(reduced_bundled))
    if init_name == "zero":
        assert acts == [0.0] * reduced_bundled.num_vars
    out = solve(reduced_bundled, acts, SolverConfig(rng_seed=seed))
    trace = (out.verdict, out.conflicts, out.decisions, out.propagations)
    assert trace == GOLDEN_TRACES[(seed, init_name)]


def test_tiny_evolution():
    cases = FitnessCaseSet.from_cnfs([("bundled", bundled_cnf())], SolverConfig())
    best, log = run_evolution(
        cases, GpConfig(population_size=20, generations=2, rng_seed=3)
    )
    assert best.fitness == GOLDEN_BEST_FITNESS
    assert best.per_case == GOLDEN_BEST_PER_CASE
    assert [dataclasses.astuple(rec) for rec in log] == GOLDEN_GENERATIONS

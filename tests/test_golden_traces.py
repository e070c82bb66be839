"""Golden search traces: exact counts that any refactor must reproduce.

A trace is the (verdict, conflicts, decisions, propagations) result of one
(cnf, init, config) input.  The paper's experiments are these numbers, so
a change that moves any of them alters results and is not a refactor.
The evolution case also pins the GP random stream: one changed draw in
step_steady_state changes every later generation.

golden_traces.json pins a random 3-SAT corpus, plus configs that reach
the solver's rarely taken branches (activity rescales, random decisions,
short restarts).  The module needs only the standard library, so any
interpreter can check every pinned value without pytest.  Regenerate the
file only on purpose, and say so:

    PYTHONPATH=src python3 tests/test_golden_traces.py --check
    PYTHONPATH=src python3 tests/test_golden_traces.py --regenerate
"""

import dataclasses
import functools
import json
import sys
from pathlib import Path
from unittest import mock

from satgp.cnf import compute_var_stats, preprocess_bcp, random_3sat
from satgp.gp import FitnessCaseSet, GpConfig, run_evolution
from satgp.harness import bundled_cnf, random_init
from satgp.lang import PRESETS, compute_activities, preset_program
from satgp.solver import SCHEDULE, SolverConfig, solve

GOLDEN_FILE = Path(__file__).with_name("golden_traces.json")

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


def pytest_generate_tests(metafunc):
    # In place of pytest.mark.parametrize, which would need pytest at import.
    if metafunc.function is test_solve_trace:
        metafunc.parametrize("seed,init_name", sorted(GOLDEN_TRACES))


@functools.lru_cache(maxsize=None)
def reduced_bundled():
    reduced, verdict, forced = preprocess_bcp(bundled_cnf())
    assert (verdict, forced) == ("reduced", [])
    return reduced


def bundled_trace(seed, init_name):
    reduced = reduced_bundled()
    acts = compute_activities(preset_program(init_name), reduced, compute_var_stats(reduced))
    if init_name == "zero":
        assert acts == [0.0] * reduced.num_vars
    out = solve(reduced, acts, SolverConfig(rng_seed=seed))
    return (out.verdict, out.conflicts, out.decisions, out.propagations)


def test_solve_trace(seed, init_name):
    assert bundled_trace(seed, init_name) == GOLDEN_TRACES[(seed, init_name)]


def tiny_evolution():
    """(best fitness, best per-case counts, log rows) of the pinned run."""
    cases = FitnessCaseSet.from_cnfs([("bundled", bundled_cnf())], SolverConfig())
    best, log = run_evolution(
        cases, GpConfig(population_size=20, generations=2, rng_seed=3)
    )
    return best.fitness, best.per_case, [dataclasses.astuple(rec) for rec in log]


def test_tiny_evolution():
    assert tiny_evolution() == (GOLDEN_BEST_FITNESS, GOLDEN_BEST_PER_CASE, GOLDEN_GENERATIONS)


def corpus_cases():
    """Yield (key, cnf, init, config, schedule) for every trace in
    golden_traces.json; schedule overrides entries of solver.SCHEDULE.

    Every preset and three uniform random inits in [-1, 1) on random 3-SAT
    at 50, 75 and 100 variables (ratio 4.26, seed 7), each at solver seeds
    0 and 1; the longer of these searches run reduce_db at the default
    fraction.  The zero init on random_3sat(100, 426, 1) then takes each config that
    forces a branch: the schedule entries rescale_threshold=1e10 (one
    variable rescale) and clause_decay=0.5 (clause rescales), and the
    settings random_decision_freq=0.2 and restart_first=10.
    """
    for n in (50, 75, 100):
        cnf, verdict, _ = preprocess_bcp(random_3sat(n, round(4.26 * n), 7))
        assert verdict == "reduced"
        stats = compute_var_stats(cnf)
        inits = {
            name: compute_activities(preset_program(name), cnf, stats)
            for name in sorted(PRESETS)
        }
        for seed in (1, 2, 3):
            inits[f"random{seed}"] = random_init(cnf.num_vars, seed, -1.0, 1.0)
        for name, init in inits.items():
            for rng_seed in (0, 1):
                yield (f"3sat{n}/{name}/seed{rng_seed}", cnf, init,
                       SolverConfig(rng_seed=rng_seed), {})
    cnf = preprocess_bcp(random_3sat(100, 426, 1))[0]
    zero = [0.0] * cnf.num_vars
    for field, value in [("rescale_threshold", 1e10), ("clause_decay", 0.5)]:
        yield f"3sat100s1/zero/{field}={value}", cnf, zero, SolverConfig(), {field: value}
    for field, value in [("random_decision_freq", 0.2), ("restart_first", 10)]:
        yield f"3sat100s1/zero/{field}={value}", cnf, zero, SolverConfig(**{field: value}), {}


def corpus_traces() -> dict[str, list]:
    traces = {}
    for key, cnf, init, config, schedule in corpus_cases():
        with mock.patch.dict(SCHEDULE, schedule):
            out = solve(cnf, init, config)
        traces[key] = [out.verdict, out.conflicts, out.decisions, out.propagations]
    return traces


def test_corpus_traces():
    assert corpus_traces() == json.loads(GOLDEN_FILE.read_text())


def check() -> list[str]:
    """The names of the pinned sets that this interpreter does not reproduce."""
    matches = {
        "corpus": corpus_traces() == json.loads(GOLDEN_FILE.read_text()),
        "bundled": all(bundled_trace(*k) == v for k, v in GOLDEN_TRACES.items()),
        "evolution": tiny_evolution()
        == (GOLDEN_BEST_FITNESS, GOLDEN_BEST_PER_CASE, GOLDEN_GENERATIONS),
    }
    return [name for name, ok in matches.items() if not ok]


if __name__ == "__main__":
    if sys.argv[1:] == ["--regenerate"]:
        lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in corpus_traces().items()]
        GOLDEN_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    elif sys.argv[1:] == ["--check"]:
        differ = check()
        print(f"Python {sys.version.split()[0]}: corpus, bundled and evolution traces,",
              f"differ: {', '.join(differ)}" if differ else "all match")
        sys.exit(1 if differ else 0)
    else:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_golden_traces.py"
                 " --check | --regenerate")

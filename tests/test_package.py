"""The package's public surface: the names `from satgp import *` binds,
and the functions the benchmark's tracer wraps."""

import types

import satgp

# Each function whose layer bench/run.py --trace 1 reports.
TRACED_LAYERS = (
    "parse_dimacs preprocess_bcp compute_var_stats reorder compute_activities"
    " solve evaluate step_steady_state run_histogram"
).split()


def test_every_public_name_resolves_once_and_none_is_a_module():
    names = satgp.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(satgp, name), types.ModuleType), name
    assert "__version__" in names
    assert set(TRACED_LAYERS) <= set(names)

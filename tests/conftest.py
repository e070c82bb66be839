import struct

import pytest

from satgp.cnf import Cnf, VarStats
from satgp.lang import _CONSTANTS, compute_activities, eval_node, node_count, parse_program
from satgp.rng import SplitMix64


def make_random_cnf(rng: SplitMix64, num_vars: int, num_clauses: int,
                    min_width: int = 1, max_width: int = 4) -> Cnf:
    """Random CNF with distinct variables per clause (no tautologies)."""
    clauses = []
    for _ in range(num_clauses):
        width = min_width + rng.randrange(max_width - min_width + 1)
        width = min(width, num_vars)
        vars_ = []
        while len(vars_) < width:
            v = rng.randrange(num_vars) + 1
            if v not in vars_:
                vars_.append(v)
        clauses.append(tuple(v if rng.flip() else -v for v in vars_))
    return Cnf(num_vars, tuple(clauses))


def run_tree(expr: str, a0=0.0, v1=0.0, xc=0.0):
    """Evaluate a PRE/POST expression with eval_node from the given a0, v1
    and xc, and check that compute_activities computes the same value and
    registers bit for bit, with eval_node's node count.  Returns eval_node's
    value and its env, in which each register holds its final value.

    The compiled run uses one variable in no clause, whose stats carry the
    inputs: PRE loads a0 from xn and v1 from xp, and POST wraps the
    expression so that the activity reads out each result in turn.
    """
    a0, v1, xc = float(a0), float(v1), float(xc)

    def oracle(text):
        env = {**_CONSTANTS, "xn": a0, "xp": v1, "xc": xc, "nv": 1.0, "nc": 0.0,
               "a0": a0, "v1": v1, "v2": 0.0, "node_evals": 0}
        return eval_node(parse_program(f"POST: {text}").post, env), env

    value, env = oracle(expr)
    stats = VarStats(xn=[0, a0], xp=[0, v1], xc=[0, xc])
    for post, expected in (
        (f"set({expr})", value),
        (expr, env["a0"]),
        (f"set(progn2({expr}, v1))", env["v1"]),
        (f"set(progn2({expr}, v2))", env["v2"]),
    ):
        prog = parse_program(f"PRE: set(xn), setv1(xp) / POST: {post}")
        counters = {}
        [got] = compute_activities(prog, Cnf(1, ()), stats, counters=counters)
        assert struct.pack("<d", got) == struct.pack("<d", expected), (post, got, expected)
        node_evals = node_count(prog.pre) + oracle(post)[1]["node_evals"]
        assert counters == {"node_evals": node_evals, "in_executions": 0}, post
    return value, env


@pytest.fixture
def rng():
    return SplitMix64(0xC0FFEE)

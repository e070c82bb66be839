import struct

import pytest

from satgp.cnf import Cnf, VarStats
from satgp.lang import EvalContext, Registers, compute_activities, eval_node, parse_program
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
    registers bit for bit.  Returns eval_node's (value, registers).

    The compiled run uses one variable in no clause, whose stats carry the
    inputs: PRE loads a0 from xn and v1 from xp, and POST wraps the
    expression so that the activity reads out each result in turn.
    """
    a0, v1, xc = float(a0), float(v1), float(xc)
    ctx = EvalContext()
    ctx.xn, ctx.xp, ctx.xc, ctx.nv = a0, v1, xc, 1.0
    regs = Registers()
    regs.a0, regs.v1 = a0, v1
    value = eval_node(parse_program(f"POST: {expr}").post, ctx, regs)
    stats = VarStats(xn=[0, a0], xp=[0, v1], xc=[0, xc])
    for post, expected in (
        (f"set({expr})", value),
        (expr, regs.a0),
        (f"set(progn2({expr}, v1))", regs.v1),
        (f"set(progn2({expr}, v2))", regs.v2),
    ):
        prog = parse_program(f"PRE: set(xn), setv1(xp) / POST: {post}")
        [got] = compute_activities(prog, Cnf(1, ()), stats)
        assert struct.pack("<d", got) == struct.pack("<d", expected), (post, got, expected)
    return value, regs


@pytest.fixture
def rng():
    return SplitMix64(0xC0FFEE)

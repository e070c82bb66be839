import hashlib
import re
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_random_cnf, run_tree
from satgp import lang
from satgp.cnf import Cnf, compute_var_stats, preprocess_bcp, random_3sat
from satgp.gp import crossover, random_individual, random_tree
from satgp.harness import bundled_cnf
from satgp.lang import (
    CLAMP_LIMIT,
    FRAGMENT_NAMES,
    FUNCTIONS,
    InitProgram,
    MAX_NESTING,
    Node,
    PRESETS,
    ProgramSyntaxError,
    TERMINALS_BY_FRAGMENT,
    compute_activities,
    node_count,
    normalize,
    parse_program,
    preset_program,
    print_program,
    reference_compute_activities,
    replace_subtree,
    tree_depth,
)
from satgp.rng import SplitMix64


class TestEvalSemantics:
    def test_div_by_zero_uses_numerator_sign(self):
        value, env = run_tree("div(0)", a0=5.0)
        assert value == CLAMP_LIMIT and env["a0"] == CLAMP_LIMIT
        value, env = run_tree("div(0)", a0=-5.0)
        assert value == -CLAMP_LIMIT
        value, env = run_tree("div(0)", a0=0.0)  # sign of 0 counts as positive
        assert value == CLAMP_LIMIT

    def test_div_near_zero_denominators(self):
        for denom in (0.0, 1e-10, -1e-10):
            assert run_tree("div(v1)", a0=3.0, v1=denom)[0] == CLAMP_LIMIT
            assert run_tree("div(v1)", a0=-3.0, v1=denom)[0] == -CLAMP_LIMIT

    def test_inv_near_zero(self):
        for denom in (0.0, 1e-10, -1e-10):
            assert run_tree("inv(v1)", v1=denom)[0] == CLAMP_LIMIT

    def test_pdiv_infix_is_pure(self):
        value, env = run_tree("4%0", a0=7.0)
        assert value == CLAMP_LIMIT
        assert env["a0"] == 7.0  # '%' must not touch a0

    def test_exp_clamps(self):
        value, _ = run_tree("exp(xc)", xc=100.0)
        assert value == CLAMP_LIMIT
        value, _ = run_tree("exp(xc)", xc=1e6)  # would overflow a double
        assert value == CLAMP_LIMIT

    def test_log_and_sqrt_totalized(self):
        assert run_tree("log(0)")[0] == -CLAMP_LIMIT
        assert run_tree("log(neg(1))")[0] == -CLAMP_LIMIT
        assert run_tree("sqrt(neg(1))")[0] == -1.0
        assert run_tree("sqrt(4)")[0] == 2.0

    def test_sgn(self):
        assert run_tree("sgn(neg(3))")[0] == -1.0
        assert run_tree("sgn(0)")[0] == 0.0
        assert run_tree("sgn(2)")[0] == 1.0

    def test_boolean_functions(self):
        assert run_tree("and(1,2)")[0] == 1.0
        assert run_tree("and(1,0)")[0] == 0.0
        assert run_tree("or(0,2)")[0] == 1.0
        assert run_tree("or(0,0)")[0] == 0.0
        assert run_tree("xor(1,0)")[0] == 1.0
        assert run_tree("xor(1,1)")[0] == 0.0
        assert run_tree("lessthan(1,2)")[0] == 1.0
        assert run_tree("lessthan(2,2)")[0] == 0.0

    def test_if_is_lazy(self):
        # The untaken branch contains set(); registers must stay clean.
        _, env = run_tree("if(lessthan(1,2), 3, set(4))")
        assert env["a0"] == 0.0
        value, env = run_tree("if(lessthan(1,2), 3, 4)")
        assert value == 3.0
        value, env = run_tree("if(0, set(1), 4)")
        assert value == 4.0 and env["a0"] == 0.0

    def test_progn_returns_last(self):
        value, env = run_tree("progn2(set(1), 2)")
        assert value == 2.0 and env["a0"] == 1.0
        value, env = run_tree("progn3(set(1), set(2), 3)")
        assert value == 3.0 and env["a0"] == 2.0

    def test_register_writes_clamped(self):
        _, env = run_tree("setv1(exp(4)*exp(4)*exp(4)*exp(4)*exp(4)*exp(4)*exp(4))")
        assert env["v1"] == CLAMP_LIMIT
        _, env = run_tree("set(neg(exp(4))*exp(4)*exp(4)*exp(4)*exp(4)*exp(4)*exp(4))")
        assert env["a0"] == -CLAMP_LIMIT

    @pytest.mark.parametrize("expr,value", [
        ("if(1, xc, 0)", CLAMP_LIMIT), ("if(0, 0, neg(xc))", -CLAMP_LIMIT),
        ("progn2(0, xc)", CLAMP_LIMIT), ("progn3(0, 0, xc)", CLAMP_LIMIT),
        ("min(xc, xc)", CLAMP_LIMIT), ("max(xc, 0)", CLAMP_LIMIT), ("abs(xc)", CLAMP_LIMIT),
        ("neg(xc)", -CLAMP_LIMIT), ("plus(xc, 1)", CLAMP_LIMIT), ("setv1(xc)", CLAMP_LIMIT),
    ])
    def test_terminals_beyond_the_limit_clamped(self, expr, value):
        # Only a terminal (here xc = 3e6) can exceed the limit unclamped.
        assert run_tree(expr, xc=3e6)[0] == value

    def test_side_effect_order_left_to_right(self):
        # add(set(3)) sets a0 to 3, then adds 3 to the already-updated a0.
        value, env = run_tree("add(set(3))")
        assert value == 6.0 and env["a0"] == 6.0


def _bytes(acts: list[float]) -> bytes:
    return struct.pack(f"<{len(acts)}d", *acts)


def _random_program(rng: SplitMix64) -> InitProgram:
    return random_individual(rng, 2 + rng.randrange(4), "grow").program


class TestClampingProperty:
    def test_outputs_always_in_range(self):
        rng = SplitMix64(77)
        for _ in range(60):
            cnf = make_random_cnf(rng, 3 + rng.randrange(8), 2 + rng.randrange(15),
                                  min_width=2)
            prog = _random_program(rng)
            for value in compute_activities(prog, cnf):
                assert -CLAMP_LIMIT <= value <= CLAMP_LIMIT


# Independent hand/brute trace for the two pinned example programs.  This
# is a direct transcription of the per-variable template, specialized to
# the two programs so it shares nothing with the package interpreter.
def brute_trace_sub_xp(cnf):
    xp = {v: sum(1 for c in cnf.clauses for l in c if l == v)
          for v in range(1, cnf.num_vars + 1)}
    out = []
    for x in range(1, cnf.num_vars + 1):
        a0 = 0.0
        for clause in cnf.clauses:
            if any(abs(l) == x for l in clause):
                for lit in clause:
                    if abs(lit) != x:
                        a0 = a0 - xp[x]
        out.append(a0)
    return out


def brute_trace_add_lc(cnf):
    occ = {v: sum(1 for c in cnf.clauses for l in c if abs(l) == v)
           for v in range(1, cnf.num_vars + 1)}
    out = []
    for x in range(1, cnf.num_vars + 1):
        a0 = 0.0
        for clause in cnf.clauses:
            if any(abs(l) == x for l in clause):
                for lit in clause:
                    if abs(lit) != x:
                        a0 = a0 + occ[abs(lit)]
        out.append(a0)
    return out


HAND_TRACE_CNF = Cnf.from_lists(2, [[1, 2], [1, -2]])
HAND_TRACE_EXPECTED = {
    "sub_xp": [-4.0, -2.0],  # frozen hand-computed values
    "add_lc": [4.0, 4.0],
}


class TestHandTraceOracles:
    def test_sub_xp(self):
        expected = HAND_TRACE_EXPECTED["sub_xp"]
        assert brute_trace_sub_xp(HAND_TRACE_CNF) == expected
        prog = parse_program("IN: sub(xp)")
        assert compute_activities(prog, HAND_TRACE_CNF) == expected
        assert reference_compute_activities(prog, HAND_TRACE_CNF) == expected

    def test_add_lc(self):
        expected = HAND_TRACE_EXPECTED["add_lc"]
        assert brute_trace_add_lc(HAND_TRACE_CNF) == expected
        prog = parse_program("IN: add(lc)")
        assert compute_activities(prog, HAND_TRACE_CNF) == expected
        assert reference_compute_activities(prog, HAND_TRACE_CNF) == expected


# What Cnf accepts and make_random_cnf never makes: a duplicate literal, a
# tautology, both in one clause, and a repeated clause.  IN runs once per
# occurrence of X in a clause, so (1, 1, 2) runs it twice for X = 1.
REPEATS_CNF = Cnf(3, ((1, 1, 2), (2, -2), (-3, 1, 3, -3), (1, 2), (1, 2), (-1, -1)))


class TestDualInterpreter:
    @pytest.mark.parametrize("short", ["xn", "xp", "xc"])
    @pytest.mark.parametrize("interpret", [compute_activities, reference_compute_activities])
    def test_stats_of_wrong_size_refused(self, interpret, short):
        cnf = bundled_cnf()
        stats = compute_var_stats(cnf)
        setattr(stats, short, getattr(stats, short)[:-1])
        with pytest.raises(ValueError, match="^VarStats size does not match cnf.num_vars$"):
            interpret(preset_program("add_lc"), cnf, stats)

    def test_bitwise_equivalence_random_pairs(self):
        rng = SplitMix64(123)
        for _ in range(100):
            cnf = make_random_cnf(rng, 3 + rng.randrange(9), 2 + rng.randrange(18),
                                  min_width=2)
            prog = _random_program(rng)
            fast = compute_activities(prog, cnf)
            slow = reference_compute_activities(prog, cnf)
            assert fast == slow  # bitwise: same floats, same order

    def test_equivalence_on_mixed_widths_and_units(self):
        rng = SplitMix64(124)
        for _ in range(30):
            cnf = make_random_cnf(rng, 3 + rng.randrange(6), 1 + rng.randrange(12),
                                  min_width=1, max_width=5)
            prog = _random_program(rng)
            assert compute_activities(prog, cnf) == reference_compute_activities(prog, cnf)

    def test_zero_program_yields_zero_vector(self):
        cnf = random_3sat(10, 30, seed=9)
        assert compute_activities(preset_program("zero"), cnf) == [0.0] * 10

    def test_side_effect_free_program_yields_zero_vector(self):
        cnf = random_3sat(8, 20, seed=10)
        prog = parse_program("PRE: neg(4) / IN: exp(lc)+sgn(ls) / POST: sqrt(xc)")
        assert compute_activities(prog, cnf) == [0.0] * 8

    def test_loop_terminal_bounds_hold(self, monkeypatch):
        # The reference checks the terminal ranges before every IN run;
        # the fast sweep has no check and must match it bit for bit.
        checked = []
        check = lang._check_in_bounds

        def counting_check(env):
            checked.append(env)
            check(env)

        monkeypatch.setattr(lang, "_check_in_bounds", counting_check)
        rng = SplitMix64(125)
        prog = parse_program("IN: add(ic+il+cs+ls+xs+ln+lp+lc)")
        cnfs = [make_random_cnf(rng, 3 + rng.randrange(8), 1 + rng.randrange(15),
                                min_width=1, max_width=5) for _ in range(40)]
        for cnf in cnfs + [REPEATS_CNF]:
            counters, reference_counters = {}, {}
            fast = compute_activities(prog, cnf, counters=counters)
            checked.clear()
            assert reference_compute_activities(prog, cnf, counters=reference_counters) == fast
            assert counters == reference_counters
            assert len(checked) == counters["in_executions"]

    def test_in_runs_once_per_occurrence(self):
        # X = 1 meets (1, 2) first, with ic 0, then its two occurrences in
        # (1, 1, 2), with ic 1 and 2, and two other literals each.
        cnf = Cnf(2, ((1, 1, 2), (1, 2)))
        for interpret in (compute_activities, reference_compute_activities):
            assert interpret(parse_program("IN: add(ic)"), cnf) == [6.0, 2.0]

    def test_repeated_variables_match_template(self):
        prog = parse_program("IN: setv1(v1*3+ic+il), add(xs-ls) / POST: add(v1)")
        _check_against_template(prog, REPEATS_CNF)

    def test_bounds_check_rejects_out_of_range_terminals(self):
        env = dict.fromkeys(("ln", "lp", "lc", "xs", "ic", "il"), 0.0)
        env.update(xc=1.0, cs=2.0, ls=1.0)
        lang._check_in_bounds(env)
        env["ic"] = 1.0
        with pytest.raises(RuntimeError, match="ic=1.0 outside"):
            lang._check_in_bounds(env)

    def test_operation_counter_bound(self):
        cnf = random_3sat(12, 30, seed=11)
        prog = parse_program("PRE: set(1) / IN: add(lc*ic) / POST: mul(2)")
        counters = {}
        compute_activities(prog, cnf, counters=counters)
        in_runs = sum(len(c) * (len(c) - 1) for c in cnf.clauses)
        assert counters["in_executions"] == in_runs
        bound = (
            node_count(prog.in_loop) * in_runs
            + (node_count(prog.pre) + node_count(prog.post)) * cnf.num_vars
        )
        assert counters["node_evals"] <= bound


# Exact interpreter work and output on the bundled instance after
# preprocess_bcp: node_evals, in_executions and the sha256 of the
# little-endian activity doubles.  The second program takes its `if`
# branches unevenly (ic < 2 only for each variable's first two clauses);
# the third nests setv1 inside set and set inside setv2.
PINNED_RUNS = [
    ("PRE: set(1) / IN: add(lc*ic) / POST: mul(2)",
     5360, 1290, "45472227cee9db86427f1a04644cd75c949034a9cd82dd88985c91920f002e79"),
    ("IN: if(lessthan(ic, 2), add(lc), progn2(setv1(v1+ls), sub(v1%3)))",
     15470, 1290, "e643ca1404532a459b181c16ae4d0bd967b8e3434e1a8e4c066446da676b567d"),
    ("PRE: setv1(set(xp)) / IN: setv2(set(add(setv1(v1+ln)))), if(xs, add(v2), div(3))"
     " / POST: div(setv1(v1-xc))",
     15880, 1290, "441e211f8318ce5fff3b38f3a64c4da75e0e89c945d8c650aeda406dfd0780f4"),
    ("IN: add(exp(-lc)-lp)",
     7840, 1290, "b2c2444d28d91e5ad6cdffcafb0f416350f8b9d5c02eeca0683b67917c0b8dd2"),
    ("PRE: setv2(inv(xn)) / IN: if(and(ls, xor(xs, lessthan(il, 1))),"
     " mul(max(log(lc), sqrt(cs-ln))), setv2(min(abs(v2), sgn(ic-1))))"
     " / POST: add(progn3(setv1(v2), neg(v1), nc%xc))",
     21240, 1290, "5be6978565012534caacc9fcaddf6768a62c0e298e8e658ea11e466a2e515295"),
]


class TestPinnedRuns:
    @pytest.mark.parametrize("text,node_evals,in_executions,digest", PINNED_RUNS)
    def test_exact_counters_and_bytes(self, text, node_evals, in_executions, digest):
        cnf = preprocess_bcp(bundled_cnf())[0]
        counters = {}
        acts = compute_activities(parse_program(text), cnf, counters=counters)
        assert counters == {"node_evals": node_evals, "in_executions": in_executions}
        packed = struct.pack(f"<{len(acts)}d", *acts)
        assert hashlib.sha256(packed).hexdigest() == digest

    def test_primitive_order_is_pinned(self):
        # gp.random_tree draws by position in these tables, so their order
        # is part of the GP random stream.
        assert tuple(FUNCTIONS.items()) == (
            ("add", 1), ("sub", 1), ("mul", 1), ("div", 1), ("set", 1),
            ("setv1", 1), ("setv2", 1),
            ("inv", 1), ("neg", 1), ("exp", 1), ("log", 1), ("sgn", 1),
            ("sqrt", 1), ("abs", 1),
            ("progn2", 2), ("min", 2), ("max", 2),
            ("and", 2), ("or", 2), ("xor", 2), ("lessthan", 2),
            ("plus", 2), ("minus", 2), ("times", 2), ("pdiv", 2),
            ("progn3", 3), ("if", 3),
        )
        assert TERMINALS_BY_FRAGMENT["in"] == (
            "xn", "xp", "xc", "nv", "nc", "0", "1", "2", "3", "4", "a0", "v1", "v2",
            "ln", "lp", "lc", "cs", "xs", "ls", "ic", "il",
        )
        assert TERMINALS_BY_FRAGMENT["pre"] == TERMINALS_BY_FRAGMENT["post"]
        assert TERMINALS_BY_FRAGMENT["pre"] == TERMINALS_BY_FRAGMENT["in"][:13]


def _if_heavy_tree(rng: SplitMix64, fragment: str, depth: int) -> Node:
    """Nested `if`s whose conditions, and the branches at the bottom, are
    small random trees, so that both branches of most `if`s get taken."""
    if depth <= 1:
        return random_tree(rng, fragment, 1 + rng.randrange(3), "grow")
    cond = random_tree(rng, fragment, 1 + rng.randrange(3), "grow")
    return Node("if", (cond, _if_heavy_tree(rng, fragment, depth - 1),
                       _if_heavy_tree(rng, fragment, depth - 1 - rng.randrange(2))))


def _closure_test_programs(rng: SplitMix64) -> list[InitProgram]:
    """`full` trees of depth 4-6, if-heavy trees, and three crossover
    descendants of them whose IN trees are 13 to CROSSOVER_MAX_DEPTH deep."""
    def program(make):
        return InitProgram(*(make(f) for f in FRAGMENT_NAMES))

    programs = [program(lambda f, d=d: random_tree(rng, f, d, "full")) for d in (4, 5, 6)]
    programs += [program(lambda f: _if_heavy_tree(rng, f, 4)) for _ in range(6)]
    children, parent = [], programs[-1]
    while len(children) < 3:
        child = crossover(parent, programs[rng.randrange(len(programs))], rng)
        if child is not None and tree_depth(child.in_loop) > tree_depth(parent.in_loop):
            parent = child
            if tree_depth(child.in_loop) > 12:
                children.append(child)
                parent = programs[-1 - len(children)]
    return programs + children


def _check_against_template(prog, cnf, stats=None):
    """compute_activities must equal reference_compute_activities, which
    walks the per-variable template with eval_node, bit for bit, and fill
    the same counters: node_evals and in_executions."""
    counters, reference_counters = {}, {}
    acts = compute_activities(prog, cnf, stats, counters=counters)
    reference = reference_compute_activities(prog, cnf, stats, counters=reference_counters)
    assert counters == reference_counters
    assert _bytes(acts) == _bytes(reference)


class TestClosureEvaluation:
    """compute_activities runs closures built per call; eval_node is the
    oracle for their values, their order of effects and their count."""

    def test_counters_and_bytes_match_template(self):
        rng = SplitMix64(126)
        programs = _closure_test_programs(rng)
        cnfs = [Cnf(3, ((1,), (), (-2, 3)))]
        for _ in range(4):
            cnf = make_random_cnf(rng, 3 + rng.randrange(6), 1 + rng.randrange(10),
                                  min_width=1, max_width=5)
            # Three more variables that occur in no clause.
            cnfs.append(Cnf(cnf.num_vars + 3, cnf.clauses))
        for cnf in cnfs:
            stats = compute_var_stats(cnf)
            for prog in programs:
                _check_against_template(prog, cnf, stats)

    def test_bundled_instance(self):
        cnf = preprocess_bcp(bundled_cnf())[0]
        stats = compute_var_stats(cnf)
        programs = _closure_test_programs(SplitMix64(127))
        # Three if-heavy programs and the last crossover descendant; the
        # reference is slow on an instance of this size.
        for prog in programs[3:6] + programs[-1:]:
            _check_against_template(prog, cnf, stats)

    @pytest.mark.parametrize("expr,value,a0", [
        ("plus(a0, set(3))", 4.0, 3.0),  # a0 is read before set runs
        ("minus(v1, setv1(4))", -2.0, 1.0),
        ("progn3(a0, set(2), a0)", 2.0, 2.0),
        ("lessthan(add(1), add(1))", 1.0, 3.0),  # 2 < 3: left child first
        ("min(set(3), add(2))", 3.0, 5.0),
        ("mul(set(2))", 4.0, 4.0),  # the child runs before a0 is read
    ])
    def test_children_run_left_to_right(self, expr, value, a0):
        got, env = run_tree(expr, a0=1.0, v1=2.0)
        assert (got, env["a0"]) == (value, a0)

    @pytest.mark.parametrize("expr,value,a0,v1", [
        ("plus(a0, add(1))", 3.0, 2.0, 2.0),  # the leaf a0 is read first
        ("plus(add(1), a0)", 4.0, 2.0, 2.0),  # ... and here after add runs
        ("setv1(v1)", 2.0, 1.0, 2.0),
        ("add(a0)", 2.0, 2.0, 2.0),
        ("minus(setv1(3), v1)", 0.0, 1.0, 3.0),
    ])
    def test_leaf_operand_next_to_register_writer(self, expr, value, a0, v1):
        got, env = run_tree(expr, a0=1.0, v1=2.0)
        assert (got, env["a0"], env["v1"]) == (value, a0, v1)

    @pytest.mark.parametrize("kind", list(FUNCTIONS))
    def test_every_kind_on_leaf_and_non_leaf_operands(self, kind):
        # Operand i is the leaf leaves[i] or the register writer writers[i],
        # which changes what the leaves read; all 2**arity mixes.
        leaves = ("a0", "v1", "xc")
        writers = ("add(2)", "setv1(minus(a0, v1))", "sub(xc)")
        arity = FUNCTIONS[kind]
        for mask in range(2 ** arity):
            args = [writers[i] if mask >> i & 1 else leaves[i] for i in range(arity)]
            for a0 in (1.5, -0.5, 0.0):
                run_tree(f"{kind}({', '.join(args)})", a0=a0, v1=-2.0, xc=3.0)

    @pytest.mark.parametrize("kind,pick", [
        ("min", min), ("max", max), ("progn2", lambda x, y: y),
    ])
    def test_signed_zero(self, kind, pick):
        # neg(0) is -0.0, and so is the leaf a0 here; the builtins min and
        # max return their first argument when the two compare equal.
        for x in ("0", "neg(0)", "a0"):
            for y in ("0", "neg(0)", "a0"):
                value, _ = run_tree(f"{kind}({x}, {y})", a0=-0.0)
                expected = pick(*(0.0 if arg == "0" else -0.0 for arg in (x, y)))
                assert struct.pack("<d", value) == struct.pack("<d", expected), (x, y)

    def test_if_counts_condition_and_taken_branch_only(self):
        cnf = Cnf(2, ((1, 2),))
        # 2 IN runs: `if` + cond (2 nodes) + taken branch set(lc)
        # (2 nodes) or sub(progn2(1, 2)) (4 nodes).
        for cond, per_run in (("1", 4), ("0", 6)):
            prog = parse_program(f"IN: if({cond}, set(lc), sub(progn2(1, 2)))")
            counters = {}
            compute_activities(prog, cnf, counters=counters)
            assert counters == {"node_evals": 2 * 2 + 2 * per_run, "in_executions": 2}


# A repeated clause, a unit and an empty clause; an IN tree that writes
# no register and has no `if` is skipped on it, and must still count
# every (clause, literal) run.
INERT_CNF = Cnf(5, ((1, -2), (2, 3, -4, 5), (1, -2), (-3,), (), (4, -5, 1), (2, 3, -4, 5)))


class TestInertIn:
    @pytest.mark.parametrize("text", [
        "IN: 0",
        "PRE: set(xp) / IN: exp(lc)+sgn(ls)*a0 / POST: add(v1)",
        "PRE: setv1(xc) / IN: min(v1, lessthan(a0, ln)) / POST: mul(v1)",
        "PRE: set(2) / IN: progn3(ic, il, cs) / POST: div(nc)",
        # Not inert: setv1 changes what POST reads; `if` counts its branch.
        "PRE: set(xn) / IN: setv1(v1+ln) / POST: add(v1)",
        "IN: if(ls, xs, progn2(ln, lp))",
    ])
    def test_matches_template(self, text):
        prog = parse_program(text)
        for cnf in (INERT_CNF, preprocess_bcp(bundled_cnf())[0]):
            _check_against_template(prog, cnf, compute_var_stats(cnf))

    def test_random_inert_programs_match_template(self):
        rng = SplitMix64(128)
        programs = []
        while len(programs) < 8:
            prog = InitProgram(*(random_tree(rng, f, 2 + rng.randrange(3), "grow")
                                 for f in FRAGMENT_NAMES))
            if not any(node.kind in lang._ACTIVE_IN for node in lang.iter_nodes(prog.in_loop)):
                programs.append(prog)
        stats = compute_var_stats(INERT_CNF)
        for prog in programs:
            _check_against_template(prog, INERT_CNF, stats)

    def test_inert_in_loop_is_skipped(self, monkeypatch):
        calls = []
        order = lang.binary_first_order
        monkeypatch.setattr(lang, "binary_first_order", lambda c: calls.append(c) or order(c))
        for text, runs in (("IN: exp(lc)+a0", 0), ("IN: setv2(lc)", 1), ("IN: if(0, 1, 2)", 1)):
            calls.clear()
            compute_activities(parse_program(text), INERT_CNF)
            assert len(calls) == runs, text


class TestNormalize:
    def test_examples(self):
        assert normalize([2.0, -4.0, 1.0]) == [0.5, -1.0, 0.25]
        assert normalize([0.0, 0.0]) == [0.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=30))
    @example([2.0, 5e-324, 0.0])  # the subnormal underflows to a tie with 0.0
    def test_properties(self, values):
        result = normalize(values)
        assert len(result) == len(values)
        if any(v != 0.0 for v in values):
            assert max(abs(r) for r in result) == 1.0
            assert all(-1.0 <= r <= 1.0 for r in result)
        # Magnitude order is kept weakly: division can round distinct
        # magnitudes to a tie, never swap them.
        ranked_in = sorted(range(len(values)), key=lambda i: abs(values[i]))
        assert [abs(result[i]) for i in ranked_in] == sorted(abs(r) for r in result)

    def test_idempotent_bitwise(self):
        rng = SplitMix64(126)
        for _ in range(50):
            values = [rng.uniform(-500, 500) for _ in range(20)]
            once = normalize(values)
            assert normalize(once) == once


class TestTextFormat:
    @pytest.mark.parametrize(
        "text",
        [
            "IN: sub(xp)",
            "PRE: set(xn) / IN: div(lp) / POST: add(1)",
            "POST: add(nc+3)",
            "POST: add(exp(1))",
            "IN: set(min(xn,xp))",
            "PRE: add(nc) / IN: sub(nv) / POST: sub(xn), mul(2), sub(xc)",
            "IN: set(xc) / POST: div(xp)",
            "PRE: div(lessthan(2,xn)) / POST: div(2)",
            "IN: add(and(ls,xs))",
            "IN: add(ln+xs+1)",
            "POST: set(nv)",
            "IN: set(lp) / POST: add(1)",
            "PRE: add(sgn(set(xp)+nc-3))",
            "IN: setv1(add(setv1(xs))),setv1(setv2(xc))",
            "POST: if(xor(v2,a0)%add(v1),0,sub(xc))",
            "IN: setv2(set(xp)), if(lessthan(ln,v2),0,mul(il))",
            "IN: set(3),div(2)",
            "IN: div(sub(1))",
            "IN: add(exp(-lc)-lp)",
            "pre: set(xn) / in = div(lp) / Post= add(1)",
            "in_loop_code: add(lc)",
            "IN: add(lc) //",
            "PRE: set(1) // IN: add(lc) /// POST: sub(xc) //",
        ],
    )
    def test_parse_print_roundtrip(self, text):
        prog = parse_program(text)
        printed = print_program(prog)
        assert parse_program(printed) == prog

    @pytest.mark.parametrize(
        "text,canonical",
        [
            ("in: sub(xp)", "IN: sub(xp)"),
            ("pre = set(xn) / in= div(lp) / post :add(1)",
             "PRE: set(xn) / IN: div(lp) / POST: add(1)"),
            ("Post_Loop_Code = add(1)", "POST: add(1)"),
            ("IN: add(lc) //", "IN: add(lc)"),
            ("PRE: set(1) // IN: add(lc) ///", "PRE: set(1) / IN: add(lc)"),
        ],
    )
    def test_label_spellings(self, text, canonical):
        assert parse_program(text) == parse_program(canonical)

    @pytest.mark.parametrize(
        "text",
        [
            "PRE: set(1) xIN: add(lc)",  # xIN is not a label; ':' is no token
            "_IN: add(lc)",  # no label at all
            "IN: add(lc) $",
            "IN: add(l\u00e9)",
            "IN: add(\u00e9)",
            "IN: add(4xc)",
            "IN: add(lc) / /",
        ],
    )
    def test_rejected_text(self, text):
        with pytest.raises(ProgramSyntaxError):
            parse_program(text)

    def test_long_form_labels(self):
        prog = parse_program(
            "PRE_LOOP_CODE = neg (4)\n"
            " IN_LOOP_CODE = if (sub (xp), cs, inv (4))\n"
            "POST_LOOP_CODE = exp (neg (xc))\n"
        )
        assert prog.node_count == 11
        assert print_program(prog) == (
            "PRE: neg(4) / IN: if(sub(xp), cs, inv(4)) / POST: exp(neg(xc))"
        )

    def test_empty_braces_are_default(self):
        prog = parse_program("PRE: {} / IN: add(lc) / POST: {}")
        assert prog == parse_program("IN: add(lc)")

    def test_empty_body_after_label_is_default(self):
        prog = parse_program("PRE: / IN: add(lc)")
        assert prog == parse_program("IN: add(lc)")

    def test_empty_text_rejected(self):
        with pytest.raises(ProgramSyntaxError, match="label"):
            parse_program("")

    def test_comma_inside_parentheses_rejected(self):
        with pytest.raises(ProgramSyntaxError):
            parse_program("IN: (set(1), 2)")

    def test_missing_fragments_default_to_zero(self):
        prog = parse_program("IN: sub(xp)")
        assert prog.pre == Node("0") and prog.post == Node("0")

    def test_all_zero_program_prints_canonically(self):
        assert print_program(parse_program("IN: 0")) == "IN: 0"

    def test_loop_terminal_rejected_outside_in(self):
        with pytest.raises(ProgramSyntaxError, match="only available inside IN"):
            parse_program("PRE: add(ls)")
        with pytest.raises(ProgramSyntaxError, match="only available inside IN"):
            parse_program("POST: set(ic)")

    def test_program_checked_when_made(self):
        with pytest.raises(ProgramSyntaxError, match="only available inside IN"):
            InitProgram(pre=Node("ln"))
        with pytest.raises(ProgramSyntaxError, match="argument"):
            InitProgram(in_loop=Node("add"))
        with pytest.raises(ProgramSyntaxError, match="unknown"):
            InitProgram(post=Node("bogus"))

    def test_unknown_symbol(self):
        with pytest.raises(ProgramSyntaxError, match="unknown"):
            parse_program("IN: add(bogus)")

    def test_arity_mismatch(self):
        with pytest.raises(ProgramSyntaxError, match="argument"):
            parse_program("IN: add(1, 2)")
        with pytest.raises(ProgramSyntaxError, match="argument"):
            parse_program("IN: min(1)")

    def test_constant_out_of_range(self):
        with pytest.raises(ProgramSyntaxError, match="0..4"):
            parse_program("IN: add(7)")

    def test_duplicate_fragment(self):
        with pytest.raises(ProgramSyntaxError, match="duplicate"):
            parse_program("IN: 1 / IN: 2")

    def test_infix_precedence_and_associativity(self):
        prog = parse_program("IN: 1+2*3")
        assert prog.in_loop == Node(
            "plus", (Node("1"), Node("times", (Node("2"), Node("3"))))
        )
        prog = parse_program("IN: (1+2)*3")
        assert prog.in_loop == Node(
            "times", (Node("plus", (Node("1"), Node("2"))), Node("3"))
        )
        left = parse_program("IN: 4-3-1").in_loop
        assert left == Node(
            "minus", (Node("minus", (Node("4"), Node("3"))), Node("1"))
        )

    # IN text nested `depth` levels deep, in each way that nests.
    NESTINGS = {
        "calls": lambda depth: "add(" * (depth - 1) + "lc" + ")" * (depth - 1),
        "parentheses": lambda depth: "(" * (depth - 1) + "lc" + ")" * (depth - 1),
        "unary minus": lambda depth: "-" * (depth - 1) + "lc",
        "infix chain": lambda depth: "-".join(["lc"] * depth),
        "sequence": lambda depth: ", ".join(["lc"] * (2 * depth - 2)),
    }

    @pytest.mark.parametrize("shape", NESTINGS)
    def test_nesting_limit(self, shape):
        text = "IN: " + self.NESTINGS[shape](MAX_NESTING)
        prog = parse_program(text)
        assert parse_program(print_program(prog)) == prog
        cnf = random_3sat(6, 12, seed=14)
        assert _bytes(compute_activities(prog, cnf)) == _bytes(
            reference_compute_activities(prog, cnf))
        with pytest.raises(ProgramSyntaxError, match="nested deeper than"):
            parse_program("IN: " + self.NESTINGS[shape](MAX_NESTING + 1))

    def test_right_nested_subtraction_roundtrips(self):
        tree = Node("minus", (Node("4"), Node("minus", (Node("3"), Node("1")))))
        prog = InitProgram(in_loop=tree)
        assert parse_program(print_program(prog)) == prog

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_random_tree_roundtrip(self, seed):
        rng = SplitMix64(seed)
        prog = _random_program(rng)
        assert parse_program(print_program(prog)) == prog


# Label and token spellings of the text format, a few unknown or illegal
# ones among them, for fuzzing the parser.
_FUZZ_TOKENS = sorted({*FUNCTIONS, *TERMINALS_BY_FRAGMENT["in"], "5", "12", "foo",
                       "(", ")", ",", "+", "-", "*", "%", "{}", "/", "$"})
_FUZZ_LABELS = ("PRE:", "IN:", "POST:", "in =", "Post_Loop_Code=", "IN_LOOP_CODE:")
_FUZZ_REGEX = "(?:({}) ?(?:({}) ?){{0,14}}){{1,3}}".format(
    "|".join(re.escape(label) for label in _FUZZ_LABELS),
    "|".join(re.escape(token) for token in _FUZZ_TOKENS),
)


def _check_reparse(text: str) -> None:
    """Text that parses must print to text that parses to the same program;
    any other text must be refused with ProgramSyntaxError."""
    try:
        prog = parse_program(text)
    except ProgramSyntaxError:
        return
    assert parse_program(print_program(prog)) == prog


class TestTextFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.from_regex(_FUZZ_REGEX, fullmatch=True))
    @example("IN: lc-(lc-lc) / PRE: xn % 3 * 4")
    @example("in = add (lc) , sub(xp) ,, 1")
    @example("POST: - - 4 / IN: {} / PRE: ()")
    def test_token_text_reparses(self, text):
        _check_reparse(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="PREINOSTpreinost_:=/ \n(){},+-*%012345aclnsvx", max_size=50))
    @example("IN: 1 POST: 2 PRE: 3")
    @example("IN:IN")
    @example("PRE = 0 / in: (((1)))")
    def test_any_text_reparses(self, text):
        _check_reparse(text)


class TestPresets:
    def test_all_presets_parse(self):
        for name in PRESETS:
            prog = preset_program(name)
            assert isinstance(prog, InitProgram)

    def test_precursor_always_negative(self):
        cnf = random_3sat(12, 40, seed=13)
        acts = compute_activities(preset_program("precursor"), cnf)
        assert all(a < 0 for a in acts)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset 'nope'; available: "):
            preset_program("nope")


class TestTreeUtilities:
    def test_node_count_matches_example_program(self):
        prog = parse_program(
            "PRE: neg(4) / IN: if(sub(xp), cs, inv(4)) / POST: exp(neg(xc))"
        )
        assert prog.node_count == 11

    def test_depth_of_terminal_is_one(self):
        assert tree_depth(Node("0")) == 1
        assert tree_depth(Node("neg", (Node("1"),))) == 2

    @staticmethod
    def _neg_chain(depth: int) -> Node:
        tree = Node("lc")
        for _ in range(depth - 1):
            tree = Node("neg", (tree,))
        return tree

    def test_nesting_limit_is_a_program_rule(self):
        # A program is made only if its printed text parses back, so trees
        # built from Nodes obey the same depth limit as parsed text.
        prog = InitProgram(in_loop=self._neg_chain(MAX_NESTING))
        assert tree_depth(prog.in_loop) == MAX_NESTING
        assert parse_program(print_program(prog)) == prog
        # 3000 levels lie beyond Python's recursion limit: the check walks
        # level by level, so it refuses the tree instead of overflowing.
        for depth in (MAX_NESTING + 1, 3000):
            with pytest.raises(ProgramSyntaxError, match="nested deeper than"):
                InitProgram(in_loop=self._neg_chain(depth))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_replace_subtree_rebuilds_only_the_path(self, seed):
        rng = SplitMix64(seed)
        tree = random_tree(rng, "in", 2 + rng.randrange(5), "grow")
        donor = random_tree(rng, "in", 1 + rng.randrange(3), "grow")

        def naive(node: Node, pos: list[int], index: int) -> Node:
            """Copy every node, counting preorder positions in pos[0]."""
            pos[0] += 1
            if pos[0] - 1 == index:
                pos[0] += node_count(node) - 1
                return donor
            return Node(node.kind, tuple(naive(c, pos, index) for c in node.children))

        def paths(node: Node, path=()):
            yield path
            for k, child in enumerate(node.children):
                yield from paths(child, path + (k,))

        for index, path in enumerate(paths(tree)):
            new = replace_subtree(tree, index, donor)
            assert new == naive(tree, [0], index)
            old = tree
            for step in path:
                for k, (a, b) in enumerate(zip(old.children, new.children)):
                    assert k == step or a is b
                old, new = old.children[step], new.children[step]
            assert new is donor
        assert index == node_count(tree) - 1
        with pytest.raises(IndexError):
            replace_subtree(tree, node_count(tree), donor)

"""Initialization programs: expression trees, interpreter and text format.

An initialization program computes one activity value per CNF variable.
It consists of three expression trees that plug into this template,
executed once per variable X:

    a0 = 0.0; v1 = 0.0; v2 = 0.0
    PRE
    for each occurrence of X in a clause C (binary clauses first):
        for each other position of C, holding literal L:
            IN
    POST
    activity(X) = a0

PRE and POST see X's occurrence counts (xn xp xc), the formula's counts
(nv nc), the constants 0..4 and the registers (a0 v1 v2); IN additionally
sees the clause/literal terminals (ln, lp, lc, cs, xs, ls, ic, il); ic
counts X's occurrences, so a clause that names X twice runs IN twice.  All
function return values and register writes are clamped to [-1e6, 1e6],
and division by anything smaller in magnitude than 1e-9 returns the
positive or negative limit according to the numerator's sign (sign of 0
counts as positive).  Every function is total, so evaluation cannot fail
at runtime.
An InitProgram checks its trees when made, the MAX_NESTING depth limit
included, so the evaluators need not, and every program prints to text
that parse_program reads back.

Each primitive is defined once: the terminals in TERMINALS_BY_FRAGMENT,
the functions in two evaluation tables, _WRITERS (the seven register
writers add sub mul div set setv1 setv2) and _PURE (inv .. progn3), plus
the lazy `if`, the only special form.  A table entry maps its children's
value lists, one value per variable, to the node's value list.  The
FUNCTIONS arity table is derived from them, and the text format's infix
operators (+ - * %) come from one table, _INFIX, shared by parser and
printer.

`compute_activities` runs the template for many variables at once.  Each
register and terminal is a list with one value per variable, and each
node runs once as one table entry over the variables that are active:

- PRE and POST run over all variables.
- IN runs step by step, step k over the variables that have a k-th run
  (occurrence, other literal).  An InLayout orders the variables by their
  number of runs, longest first, so those are a prefix of the order, and
  holds each step's loop-terminal columns.  It depends only on the
  formula and its VarStats: a FitnessCase builds one when made, and a
  call given none builds its own.
- The lazy `if` splits its variables by the condition: each branch runs
  on its own part, and its value and the registers it writes are
  scattered back.

So each variable sees the same IEEE operations in the same order as in
the template.
Node evaluations are counted exactly from each fragment's static size
and the `if` branches taken, times the variables that took them.  An IN
tree with no register writer (add sub mul div set setv1 setv2) and no
`if` is inert: it cannot change a register, and its node count does not
depend on the run, so its runs are counted but not executed.  The oracle
`reference_compute_activities` walks the trees with eval_node, on one
dict per variable that holds every terminal and register, applying the
same tables to one-value lists, and checks the loop-terminal ranges
before each IN run.  Both must agree bitwise, in values and in counters.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .cnf import Cnf, VarStats, compute_var_stats

CLAMP_LIMIT = 1e6
DIV_EPSILON = 1e-9

# Terminals usable in every fragment; loop terminals only inside IN.
TERMINALS_COMMON = (
    "xn", "xp", "xc", "nv", "nc", "0", "1", "2", "3", "4", "a0", "v1", "v2",
)
TERMINALS_LOOP = ("ln", "lp", "lc", "cs", "xs", "ls", "ic", "il")

TERMINALS_BY_FRAGMENT = {
    "pre": TERMINALS_COMMON,
    "in": TERMINALS_COMMON + TERMINALS_LOOP,
    "post": TERMINALS_COMMON,
}

_CONSTANTS = {"0": 0.0, "1": 1.0, "2": 2.0, "3": 3.0, "4": 4.0}

FRAGMENT_NAMES = ("pre", "in", "post")


class ProgramSyntaxError(ValueError):
    """Raised for malformed program text or fragment-rule violations."""


@dataclass(frozen=True)
class Node:
    """One tree node: a terminal (no children) or a function application."""

    kind: str
    children: tuple["Node", ...] = ()


ZERO = Node("0")


def node_count(tree: Node) -> int:
    return 1 + sum(node_count(c) for c in tree.children)


def tree_depth(tree: Node) -> int:
    """Depth counted in nodes (a lone terminal has depth 1), level by level."""
    depth, level = 0, [tree]
    while level:
        depth += 1
        level = [child for node in level for child in node.children]
    return depth


def iter_nodes(tree: Node):
    """Preorder traversal."""
    yield tree
    for child in tree.children:
        yield from iter_nodes(child)


def subtree_at(tree: Node, index: int) -> Node:
    """Return the subtree rooted at preorder position `index`."""
    for i, node in enumerate(iter_nodes(tree)):
        if i == index:
            return node
    raise IndexError(index)


def replace_subtree(tree: Node, index: int, donor: Node) -> Node:
    """Return `tree` with the subtree at preorder `index` replaced by donor.
    Only the path from the root to `index` is rebuilt; the rest is shared."""
    if index == 0:
        return donor
    index -= 1
    for i, child in enumerate(tree.children):
        size = node_count(child)
        if index < size:
            new_child = replace_subtree(child, index, donor)
            return Node(tree.kind, tree.children[:i] + (new_child,) + tree.children[i + 1:])
        index -= size
    raise IndexError(index)


# Deepest program accepted, in tree depth and in the text's nested operands;
# GP trees stay far below it (CROSSOVER_MAX_DEPTH is 17).  Deeper trees could
# exhaust Python's recursion limit in the parser, printer or evaluators.
MAX_NESTING = 100
_TOO_DEEP = f"program nested deeper than {MAX_NESTING} levels"


def validate_tree(tree: Node, fragment: str) -> None:
    """Check arities, the fragment's terminals and at most MAX_NESTING levels,
    level by level without recursion; raise ProgramSyntaxError on violation.
    So every program prints to text that parse_program reads back."""
    legal_terminals = TERMINALS_BY_FRAGMENT[fragment]
    level = [tree]
    for _ in range(MAX_NESTING):
        for node in level:
            if node.kind in FUNCTIONS:
                arity = FUNCTIONS[node.kind]
                if len(node.children) != arity:
                    raise ProgramSyntaxError(
                        f"{node.kind} expects {arity} argument(s), got {len(node.children)}"
                    )
            elif node.kind in TERMINALS_BY_FRAGMENT["in"]:
                if node.children:
                    raise ProgramSyntaxError(f"terminal {node.kind} cannot take arguments")
                if node.kind not in legal_terminals:
                    raise ProgramSyntaxError(
                        f"terminal {node.kind} is only available inside IN,"
                        f" not in {fragment.upper()}"
                    )
            else:
                raise ProgramSyntaxError(f"unknown symbol {node.kind!r}")
        level = [child for node in level for child in node.children]
        if not level:
            return
    raise ProgramSyntaxError(_TOO_DEEP)


@dataclass(frozen=True)
class InitProgram:
    """The GP genotype: one tree per template fragment.  A tree that breaks
    validate_tree's rules raises ProgramSyntaxError when the program is made."""

    pre: Node = ZERO
    in_loop: Node = ZERO
    post: Node = ZERO

    def __post_init__(self) -> None:
        for fragment, tree in self.fragments():
            validate_tree(tree, fragment)

    @property
    def node_count(self) -> int:
        return node_count(self.pre) + node_count(self.in_loop) + node_count(self.post)

    def fragments(self):
        return zip(FRAGMENT_NAMES, (self.pre, self.in_loop, self.post))


# The clamp is written out in the table entries below, `_HI if (r := ...) >
# _HI else _LO if r < _LO else r`, because a call per value costs more.
_HI, _LO = CLAMP_LIMIT, -CLAMP_LIMIT
_EPS = DIV_EPSILON
_exp, _log, _sqrt = math.exp, math.log, math.sqrt


def _clamp(x: list[float]) -> list[float]:
    return [_HI if v > _HI else _LO if v < _LO else v for v in x]


def _div(x: list[float], y: list[float]) -> list[float]:
    """Protected division: a near-zero divisor gives the limit with x's sign."""
    return [(_HI if a >= 0 else _LO) if -_EPS < b < _EPS
            else _HI if (r := a / b) > _HI else _LO if r < _LO else r
            for a, b in zip(x, y)]


# Pure functions of their children's values, all evaluated left to right.
# Each maps its children's value lists, one value per variable, to the
# node's value list; eval_node applies it to lists of one value.
# plus/minus/times/pdiv are the infix + - * %; pdiv does not touch a0.
# min and max keep the builtins' choice between equal values (0 and -0).
_PURE = {
    "inv": lambda x: _div([1.0] * len(x), x),
    "neg": lambda x: [_HI if (r := -v) > _HI else _LO if r < _LO else r for v in x],
    # math.exp overflows above ~709.78
    "exp": lambda x: [_HI if v > 709.0 or (r := _exp(v)) > _HI else r for v in x],
    # log of a positive double lies in (-745, 710): no clamp needed.
    "log": lambda x: [_LO if v <= 0.0 else _log(v) for v in x],
    "sgn": lambda x: [-1.0 if v < 0.0 else 1.0 if v > 0.0 else 0.0 for v in x],
    "sqrt": lambda x: [-1.0 if v < 0.0 else _HI if (r := _sqrt(v)) > _HI else r for v in x],
    "abs": lambda x: [_HI if (r := abs(v)) > _HI else r for v in x],
    "progn2": lambda x, y: _clamp(y),
    "min": lambda x, y: [_HI if (r := b if b < a else a) > _HI else _LO if r < _LO else r
                         for a, b in zip(x, y)],
    "max": lambda x, y: [_HI if (r := b if b > a else a) > _HI else _LO if r < _LO else r
                         for a, b in zip(x, y)],
    "and": lambda x, y: [1.0 if a > 0.0 and b > 0.0 else 0.0 for a, b in zip(x, y)],
    "or": lambda x, y: [1.0 if a > 0.0 or b > 0.0 else 0.0 for a, b in zip(x, y)],
    "xor": lambda x, y: [1.0 if (a > 0.0) != (b > 0.0) else 0.0 for a, b in zip(x, y)],
    "lessthan": lambda x, y: [1.0 if a < b else 0.0 for a, b in zip(x, y)],
    "plus": lambda x, y: [_HI if (r := a + b) > _HI else _LO if r < _LO else r
                          for a, b in zip(x, y)],
    "minus": lambda x, y: [_HI if (r := a - b) > _HI else _LO if r < _LO else r
                           for a, b in zip(x, y)],
    "times": lambda x, y: [_HI if (r := a * b) > _HI else _LO if r < _LO else r
                           for a, b in zip(x, y)],
    "pdiv": _div,
    "progn3": lambda x, y, z: _clamp(z),
}

# Writer -> (register r, f): r := f(r, v), where v is the child's value,
# computed first because the child may itself write r.  The new r is the
# return value.  The set* writers are progn2: they ignore the old value.
_WRITERS = {
    "add": ("a0", _PURE["plus"]),
    "sub": ("a0", _PURE["minus"]),
    "mul": ("a0", _PURE["times"]),
    "div": ("a0", _div),
    "set": ("a0", _PURE["progn2"]),
    "setv1": ("v1", _PURE["progn2"]),
    "setv2": ("v2", _PURE["progn2"]),
}

# Function name -> arity, in the order gp.random_tree draws from.
FUNCTIONS = {
    **dict.fromkeys(_WRITERS, 1),
    **{name: f.__code__.co_argcount for name, f in _PURE.items()},
    "if": 3,
}


def eval_node(node: Node, env: dict) -> float:
    """Evaluate one tree depth-first, left to right, with side effects.

    env maps every terminal in scope (registers and constants included) to
    its value, and "node_evals", a name no program can use, to the count
    of eval_node calls.  Only `if` is lazy (it evaluates the condition and
    exactly one branch); every other function evaluates all of its
    children, and then a writer stores its register's new value.
    """
    env["node_evals"] += 1
    kind, ch = node.kind, node.children
    if not ch:
        return env[kind]
    if kind == "if":
        branch = ch[1] if eval_node(ch[0], env) > 0.0 else ch[2]
        return _clamp([eval_node(branch, env)])[0]
    args = [[eval_node(child, env)] for child in ch]
    if kind in _WRITERS:
        reg, f = _WRITERS[kind]
        [env[reg]] = f([env[reg]], *args)
        return env[reg]
    [r] = _PURE[kind](*args)
    return r


def binary_first_order(clauses) -> list[tuple[int, ...]]:
    """The pinned clause visit order: two-literal clauses first, then the
    rest, each group in stored order."""
    binaries = [c for c in clauses if len(c) == 2]
    others = [c for c in clauses if len(c) != 2]
    return binaries + others


def _check_in_bounds(env: dict) -> None:
    ln, lp, lc, cs, xs, ls, ic, il, xc = (
        env[k] for k in ("ln", "lp", "lc", "cs", "xs", "ls", "ic", "il", "xc"))
    if not (ln >= 0 and lp >= 0 and lc == ln + lp):
        raise RuntimeError("literal stats out of bounds")
    if cs < 2:
        raise RuntimeError("IN ran for a clause narrower than 2 literals")
    if xs not in (0.0, 1.0) or ls not in (0.0, 1.0):
        raise RuntimeError("polarity terminal outside {0,1}")
    if not (0 <= ic < xc):
        raise RuntimeError(f"ic={ic} outside [0, xc={xc})")
    if not (0 <= il < cs - 1):
        raise RuntimeError(f"il={il} outside [0, cs-1={cs - 1})")


def _checked_stats(cnf: Cnf, stats: VarStats | None) -> VarStats:
    """Shared prologue: compute the stats, or check that they fit cnf."""
    if stats is None:
        stats = compute_var_stats(cnf)
    if {len(stats.xn), len(stats.xp), len(stats.xc)} != {cnf.num_vars + 1}:
        raise ValueError("VarStats size does not match cnf.num_vars")
    return stats


class InLayout(NamedTuple):
    """The IN loop of the template for one formula and its VarStats, laid
    out by step: step k holds the k-th IN run of every variable that has
    one.  `order` lists the variables by their number of IN runs, longest
    first, so the variables of step k are a prefix of it; `steps[k]` is
    that prefix's width and a map from each loop terminal to its column,
    one value per variable of the step.
    """

    cnf: Cnf
    stats: VarStats
    order: list[int]
    steps: list[tuple[int, dict[str, list[float]]]]


def in_layout(cnf: Cnf, stats: VarStats | None = None) -> InLayout:
    """Lay out the IN runs of cnf by step, in one pass over the runs.  A
    run of X is an (occurrence of X in a clause C, other position of C,
    holding literal L), in the pinned clause order; ic counts X's
    occurrences and il the other positions.
    """
    stats = _checked_stats(cnf, stats)
    n = cnf.num_vars
    occurrences = [[] for _ in range(n + 1)]  # (C, i) for each position i of X in C
    for clause in binary_first_order(cnf.clauses):
        for i, lit in enumerate(clause):
            occurrences[abs(lit)].append((clause, i))
    # Shared floats for cs, ic and il, so a column costs a pointer per value.
    floats = [float(k) for k in range(1 + max(map(len, [*cnf.clauses, *occurrences])))]
    # Each variable's runs as (L, cs, xs, ic, il) tuples.
    runs = [[(L, floats[len(c)], 1.0 if c[i] > 0 else 0.0, floats[ic], floats[il])
             for ic, (c, i) in enumerate(occ) for il, L in enumerate(c[:i] + c[i + 1:])]
            for occ in occurrences]
    order = sorted(range(1, n + 1), key=lambda x: len(runs[x]), reverse=True)
    # ln, lp, lc and ls are looked up by signed literal L, -v at 2n+1-v.
    by_literal = []
    for counts in stats.xn, stats.xp, stats.xc:
        col = [float(x) for x in counts]
        by_literal.append((col + col[:0:-1]).__getitem__)
    ln, lp, lc = by_literal
    ls = ([1.0] * (n + 1) + [0.0] * n).__getitem__
    per_var = [runs[x] for x in order]
    steps = []
    for k in range(len(per_var[0]) if n else 0):
        while len(per_var[-1]) <= k:  # variables with no k-th run
            per_var.pop()
        L, cs, xs, ic, il = zip(*[r[k] for r in per_var])
        steps.append((len(per_var), {
            "ln": list(map(ln, L)), "lp": list(map(lp, L)), "lc": list(map(lc, L)),
            "cs": list(cs), "xs": list(xs), "ls": list(map(ls, L)),
            "ic": list(ic), "il": list(il)}))
    return InLayout(cnf, stats, order, steps)


# IN kinds that write a register, or whose node count depends on the run.
# An IN tree with none of them changes nothing that PRE or POST can see,
# so compute_activities need not run it (a structural intron).
_ACTIVE_IN = frozenset(_WRITERS) | {"if"}


def _static_count(node: Node) -> int:
    """The nodes every run of `node` evaluates: all but those inside the
    branches of an `if`."""
    if node.kind == "if":
        return 1 + _static_count(node.children[0])
    return 1 + sum(map(_static_count, node.children))


def _shape(node: Node) -> tuple[int, set[str], set[str]]:
    """The static count of `node`, the terminals and registers a run of it
    may read or write, and the registers it may write."""
    names, writes = set(), set()
    for sub in iter_nodes(node):
        if not sub.children:
            names.add(sub.kind)
        elif sub.kind in _WRITERS:
            writes.add(_WRITERS[sub.kind][0])
    return _static_count(node), names | writes, writes


class _Batch:
    """One call's evaluator: runs a node for many variables at once, as
    eval_node runs it for one.

    env maps each terminal and register in scope to a list that holds one
    value per active variable; a node's value is such a list too.  A
    writer replaces its register's list with a new one, and no list is
    changed once a node has returned it, so a value may be a terminal's
    list itself.  `taken` sums, over the `if` branches run, the branch's
    static count times the variables that took it.
    """

    def __init__(self):
        self.taken = 0
        self.shapes = {}  # id of an `if` node -> the _shape of each branch

    def run(self, node: Node, env: dict) -> list[float]:
        kind, ch = node.kind, node.children
        if not ch:
            return env[kind]
        if len(ch) == 1:  # every writer is unary
            c = ch[0]
            x = self.run(c, env) if c.children else env[c.kind]
            w = _WRITERS.get(kind)
            if w is None:
                return _PURE[kind](x)
            reg, f = w
            env[reg] = r = f(env[reg], x)
            return r
        if kind != "if":
            args = [self.run(c, env) if c.children else env[c.kind] for c in ch]
            return _PURE[kind](*args)
        # Split the variables by the condition: each branch runs on its
        # part, and its value and the registers it writes are scattered back.
        cond, *branches = ch
        c = self.run(cond, env)
        shapes = self.shapes.get(id(node))
        if shapes is None:
            shapes = self.shapes[id(node)] = [_shape(b) for b in branches]
        yes = [i for i, v in enumerate(c) if v > 0.0]
        if not yes or len(yes) == len(c):  # all take one branch
            k = 0 if yes else 1
            self.taken += shapes[k][0] * len(c)
            return _clamp(self.run(branches[k], env))
        no = [i for i, v in enumerate(c) if not v > 0.0]
        merged = {}  # "" (a name no program uses) -> the value, each register written -> its list
        for part, branch, (static, names, writes) in zip((yes, no), branches, shapes):
            self.taken += static * len(part)
            sub = {name: list(map(env[name].__getitem__, part)) for name in names}
            sub[""] = self.run(branch, sub)
            for name in ("", *writes):
                if name not in merged:
                    merged[name] = list(env.get(name, c))
                full = merged[name]
                for i, v in zip(part, sub[name]):
                    full[i] = v
        out = merged.pop("")
        env.update(merged)
        return _clamp(out)


def compute_activities(
    prog: InitProgram,
    cnf: Cnf,
    stats: VarStats | None = None,
    *,
    layout: InLayout | None = None,
    counters: dict | None = None,
) -> list[float]:
    """Run the template for all variables at once, each node as one
    comprehension over the active variables (see the module docstring).

    Result index v-1 holds the activity of variable v; it matches
    reference_compute_activities bitwise.  layout must be
    in_layout(cnf, stats), else ValueError before any node runs; without
    one, the call builds it.  An inert IN tree is not run, and needs none.

    counters (a dict) receives 'in_executions', which is the sum over
    clauses of |C|*(|C|-1), and 'node_evals', exactly eval_node's count:
    num_vars*(|PRE| + |POST|) + in_executions*|IN| plus the static count
    of every `if` branch taken, |T| counting the nodes outside branches.
    """
    if layout is not None:
        if layout.cnf != cnf:
            raise ValueError("layout was built for another formula")
        if stats is None:
            stats = layout.stats
        elif layout.stats != stats:
            raise ValueError("layout was built from other VarStats")
    stats = _checked_stats(cnf, stats)
    n = cnf.num_vars
    active_in = any(node.kind in _ACTIVE_IN for node in iter_nodes(prog.in_loop))
    if active_in:
        _, in_names, in_writes = _shape(prog.in_loop)
        if layout is None:
            layout = in_layout(cnf, stats)
    order = layout.order if layout is not None else range(1, n + 1)

    # Every list in variable order, one value per variable.
    env = {name: [value] * n for name, value in _CONSTANTS.items()}
    env.update(nv=[float(n)] * n, nc=[float(len(cnf.clauses))] * n,
               a0=[0.0] * n, v1=[0.0] * n, v2=[0.0] * n)
    for name in ("xn", "xp", "xc"):
        env[name] = [float(getattr(stats, name)[v]) for v in order]
    batch = _Batch()
    batch.run(prog.pre, env)
    if active_in:
        shared = in_names.difference(TERMINALS_LOOP)
        for reg in in_writes:  # lists of this call's own, written in place
            env[reg] = list(env[reg])
        for width, columns in layout.steps:
            step = {**columns, **{name: env[name][:width] for name in shared}}
            batch.run(prog.in_loop, step)
            for reg in in_writes:
                env[reg][:width] = step[reg]
    batch.run(prog.post, env)

    out = [0.0] * n
    for v, a in zip(order, _clamp(env["a0"])):
        out[v - 1] = a
    if counters is not None:
        in_runs = sum(len(c) * (len(c) - 1) for c in cnf.clauses)
        n_pre, n_in, n_post = map(_static_count, (prog.pre, prog.in_loop, prog.post))
        counters["node_evals"] = n * (n_pre + n_post) + in_runs * n_in + batch.taken
        counters["in_executions"] = in_runs
    return out


def reference_compute_activities(
    prog: InitProgram,
    cnf: Cnf,
    stats: VarStats | None = None,
    *,
    counters: dict | None = None,
) -> list[float]:
    """Direct per-variable transcription of the template; testing oracle.

    Deliberately naive: for each variable it walks the whole clause list
    looking for occurrences, and each variable starts from a fresh env
    (see eval_node).  Before every IN execution it checks the documented
    loop-terminal ranges and raises RuntimeError on a breach.  Must equal
    compute_activities bitwise, and so must the counters it fills: the
    eval_node calls and the IN executions.
    """
    stats = _checked_stats(cnf, stats)
    n = cnf.num_vars
    ordered = binary_first_order(cnf.clauses)
    out = [0.0] * n
    node_evals = in_runs = 0
    for x in range(1, n + 1):
        env = {**_CONSTANTS, "a0": 0.0, "v1": 0.0, "v2": 0.0, "node_evals": 0,
               "nv": float(n), "nc": float(len(cnf.clauses)),
               "xn": float(stats.xn[x]), "xp": float(stats.xp[x]), "xc": float(stats.xc[x])}
        eval_node(prog.pre, env)
        ic = 0
        for clause in ordered:
            for i, lit in enumerate(clause):
                if abs(lit) != x:
                    continue
                env.update(cs=float(len(clause)), xs=1.0 if lit > 0 else 0.0, ic=float(ic))
                ic += 1
                for il, lit_l in enumerate(clause[:i] + clause[i + 1:]):
                    lv = abs(lit_l)
                    env.update(ln=float(stats.xn[lv]), lp=float(stats.xp[lv]),
                               lc=float(stats.xc[lv]), ls=1.0 if lit_l > 0 else 0.0,
                               il=float(il))
                    _check_in_bounds(env)
                    eval_node(prog.in_loop, env)
                    in_runs += 1
        eval_node(prog.post, env)
        out[x - 1] = _clamp([env["a0"]])[0]
        node_evals += env["node_evals"]
    if counters is not None:
        counters["node_evals"] = node_evals
        counters["in_executions"] = in_runs
    return out


def normalize(acts: list[float]) -> list[float]:
    """Divide all activities by the largest magnitude.

    The result lies in [-1, 1] with at least one entry of magnitude
    exactly 1; an all-zero vector is returned unchanged.  Idempotent.
    """
    biggest = max((abs(a) for a in acts), default=0.0)
    if biggest == 0.0:
        return list(acts)
    return [a / biggest for a in acts]


# ---------------------------------------------------------------------------
# Text format


# A fragment label is a whole word that names a fragment in any case,
# followed by ':' or '='.
_LABEL_ALIASES = {
    "PRE": "pre", "PRE_LOOP_CODE": "pre",
    "IN": "in", "IN_LOOP_CODE": "in",
    "POST": "post", "POST_LOOP_CODE": "post",
}
_LABEL = re.compile(r"(?<!\w)(\w+)\s*[:=]")

# One token (name, digit run or punctuation) or one unexpected character.
_TOKEN = re.compile(r"\s*(?:([A-Za-z_]\w*|\d+|[-()+*%,{}])|(\S))")

# Infix function -> (symbol, precedence); shared by parser and printer.
_INFIX = {"plus": ("+", 1), "minus": ("-", 1), "times": ("*", 2), "pdiv": ("%", 2)}
_INFIX_BY_SYMBOL = {sym: (kind, prec) for kind, (sym, prec) in _INFIX.items()}
_TIGHTEST = max(prec for _, prec in _INFIX.values())


def _tokenize(text: str) -> list[str]:
    tokens = []
    for token, bad in _TOKEN.findall(text):
        if bad:
            raise ProgramSyntaxError(f"unexpected character {bad!r}")
        tokens.append(token)
    return tokens


class _ExprParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ProgramSyntaxError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise ProgramSyntaxError(f"expected {tok!r}, got {got!r}")

    def parse_list(self) -> list[Node]:
        """Comma-separated expressions: call arguments, or a fragment's
        sequence (sugar for progn2/progn3 chains)."""
        items = [self.parse_infix()]
        while self.peek() == ",":
            self.take()
            items.append(self.parse_infix())
        return items

    def parse_infix(self, prec: int = 1) -> Node:
        """Left-associative infix operators binding at least as tight as prec."""
        if prec > _TIGHTEST:
            return self.parse_unary()
        node = self.parse_infix(prec + 1)
        while (op := _INFIX_BY_SYMBOL.get(self.peek())) and op[1] == prec:
            self.take()
            node = Node(op[0], (node, self.parse_infix(prec + 1)))
        return node

    def parse_unary(self) -> Node:
        """An operand; each one nested inside another counts one level."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ProgramSyntaxError(_TOO_DEEP)
        if self.peek() == "-":
            self.take()
            node = Node("neg", (self.parse_unary(),))
        else:
            node = self.parse_primary()
        self.depth -= 1
        return node

    def parse_primary(self) -> Node:
        tok = self.take()
        if tok == "(":
            node = self.parse_infix()
            self.expect(")")
            return node
        if tok.isdigit():
            if tok not in _CONSTANTS:
                raise ProgramSyntaxError(f"constant {tok} not available (only 0..4)")
            return Node(tok)
        if tok.isidentifier():  # InitProgram checks the name and arity
            if self.peek() != "(":
                return Node(tok)
            self.take()
            args = self.parse_list()
            self.expect(")")
            return Node(tok, tuple(args))
        raise ProgramSyntaxError(f"unexpected token {tok!r}")


def _fold_sequence(items: list[Node]) -> Node:
    while len(items) > 1:
        if len(items) == 2:
            return Node("progn2", (items[0], items[1]))
        head = Node("progn3", (items[0], items[1], items[2]))
        items = [head] + items[3:]
    return items[0]


def parse_program(text: str) -> InitProgram:
    """Parse program text into an InitProgram.

    Fragments are labeled PRE / IN / POST (the *_LOOP_CODE long forms are
    accepted too) followed by ':' or '=' and an expression; fragments are
    separated by '/' or simply by the next label.  Missing or empty ('{}')
    fragments default to the terminal 0.  Fragments are parsed in text
    order, then InitProgram checks the trees (terminals, arities, depth).
    """
    # Locate fragment labels without tokenizing the whole text first, so
    # that '/' may act as a separator.
    labels = [m for m in _LABEL.finditer(text) if m[1].upper() in _LABEL_ALIASES]
    if not labels:
        raise ProgramSyntaxError("no PRE/IN/POST fragment label found")
    head = text[: labels[0].start()].strip()
    if head:
        raise ProgramSyntaxError(f"unexpected text before first label: {head!r}")

    trees: dict[str, Node] = {}
    ends = [m.start() for m in labels[1:]] + [len(text)]
    for label, body_end in zip(labels, ends):
        fragment = _LABEL_ALIASES[label[1].upper()]
        if fragment in trees:
            raise ProgramSyntaxError(f"duplicate fragment {fragment.upper()}")
        body = text[label.end() : body_end].strip().rstrip("/").strip()  # '/' separates fragments
        if body in ("", "{}"):
            trees[fragment] = ZERO
            continue
        parser = _ExprParser(_tokenize(body))
        trees[fragment] = _fold_sequence(parser.parse_list())
        if parser.peek() is not None:
            raise ProgramSyntaxError(f"trailing tokens in {fragment.upper()}: {parser.peek()!r}")
    return InitProgram(*(trees.get(fragment, ZERO) for fragment in FRAGMENT_NAMES))


def _print_expr(node: Node, parent_prec: int = 0, right_side: bool = False) -> str:
    kind = node.kind
    if not node.children:
        return kind
    if kind not in _INFIX:
        args = ", ".join(_print_expr(c) for c in node.children)
        return f"{kind}({args})"
    sym, prec = _INFIX[kind]
    left = _print_expr(node.children[0], prec, False)
    right = _print_expr(node.children[1], prec, True)
    text = f"{left}{sym}{right}"
    # Parenthesize when this node binds looser than its parent, or when it
    # sits on the right of an equal-precedence operator (left associativity).
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def print_program(prog: InitProgram) -> str:
    """Canonical one-line text form; fragments equal to `0` are omitted.

    parse_program(print_program(p)) reconstructs p exactly.  Sequencing
    commas from the input are canonicalized into explicit progn2/progn3
    calls.
    """
    parts = []
    for fragment, tree in prog.fragments():
        if tree == ZERO:
            continue
        parts.append(f"{fragment.upper()}: {_print_expr(tree)}")
    if not parts:
        return "IN: 0"
    return " / ".join(parts)


PRESETS = {
    "zero": "IN: 0",
    "add_lc": "IN: add(lc)",
    "sub_xp": "IN: sub(xp)",
    "precursor": "IN: add(exp(-lc)-lp)",
}


def preset_program(name: str) -> InitProgram:
    """Look up a built-in program by name ('zero', 'add_lc', 'sub_xp',
    'precursor')."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return parse_program(PRESETS[name])

"""Initialization programs: expression trees, interpreter and text format.

An initialization program computes one activity value per CNF variable.
It consists of three expression trees that plug into this template,
executed once per variable X:

    a0 = 0.0; v1 = 0.0; v2 = 0.0
    PRE
    for each clause C containing X (binary clauses first):
        for each literal L in C except X's own literal:
            IN
    POST
    activity(X) = a0

PRE and POST see only whole-formula terminals; IN additionally sees the
clause/literal terminals (ln, lp, lc, cs, xs, ls, ic, il).  All function
return values and register writes are clamped to [-1e6, 1e6], and division
by anything smaller in magnitude than 1e-9 returns the positive or
negative limit according to the numerator's sign (sign of 0 counts as
positive).  Every function is total, so evaluation cannot fail at runtime.

Each primitive is defined once: the terminals in TERMINALS_BY_FRAGMENT,
the functions in two evaluation tables, _WRITERS (the seven register
writers add sub mul div set setv1 setv2) and _PURE (inv .. progn3), plus
the lazy `if`, the only special form.  The FUNCTIONS arity table is
derived from them, and the text format's infix operators (+ - * %) come
from one table, _INFIX, shared by parser and printer.

`compute_activities` builds one closure per tree node on each call and
runs the template with them, counting node evaluations exactly from each
fragment's static size and the `if` branches taken.  A closure reads a
leaf operand (a terminal or a constant) straight from the shared state
instead of calling a closure for it.  An IN tree with no register writer
(add sub mul div set setv1 setv2) and no `if` is inert: it cannot change
a register, and its node count does not depend on the run, so its runs
are counted but not executed.  The oracle `reference_compute_activities`
walks the trees with eval_node and checks the loop-terminal ranges before
each IN run.  Both must agree bitwise, in values and in counts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

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
_REGISTERS = frozenset({"a0", "v1", "v2"})

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
    """Return a copy of `tree` with the node at preorder `index` replaced."""

    def rebuild(node: Node, pos: int) -> tuple[Node, int]:
        if pos == index:
            return donor, pos + node_count(node)
        nxt = pos + 1
        if not node.children:
            return node, nxt
        new_children = []
        changed = False
        for child in node.children:
            new_child, nxt = rebuild(child, nxt)
            changed = changed or new_child is not child
            new_children.append(new_child)
        if not changed:
            return node, nxt
        return Node(node.kind, tuple(new_children)), nxt

    result, _ = rebuild(tree, 0)
    return result


def validate_tree(tree: Node, fragment: str) -> None:
    """Check arities and fragment terminal restrictions; raise on violation."""
    legal_terminals = TERMINALS_BY_FRAGMENT[fragment]
    for node in iter_nodes(tree):
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


@dataclass(frozen=True)
class InitProgram:
    """The GP genotype: one tree per template fragment."""

    pre: Node = ZERO
    in_loop: Node = ZERO
    post: Node = ZERO

    @property
    def node_count(self) -> int:
        return node_count(self.pre) + node_count(self.in_loop) + node_count(self.post)

    def fragments(self):
        yield "pre", self.pre
        yield "in", self.in_loop
        yield "post", self.post


def validate_program(prog: InitProgram) -> None:
    for fragment, tree in prog.fragments():
        validate_tree(tree, fragment)


class Registers:
    """Per-variable mutable registers; reset to zero before PRE runs."""

    __slots__ = ("a0", "v1", "v2")

    def __init__(self):
        self.a0 = self.v1 = self.v2 = 0.0


class EvalContext:
    """Terminal values for the variable / clause / literal in scope.

    Loop fields (ln..il) are only meaningful while an IN tree runs; the
    fragment rules guarantee PRE/POST never read them.  node_evals counts
    every eval_node call for cost accounting.
    """

    __slots__ = (
        "xn", "xp", "xc", "nv", "nc",
        "ln", "lp", "lc", "cs", "xs", "ls", "ic", "il",
        "node_evals",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0.0)
        self.node_evals = 0


def _clamp(x: float) -> float:
    if x > CLAMP_LIMIT:
        return CLAMP_LIMIT
    if x < -CLAMP_LIMIT:
        return -CLAMP_LIMIT
    return x


# The clamp is written out in the table entries below, `_HI if (r := ...) >
# _HI else _LO if r < _LO else r`, because a call per node costs more.
_HI, _LO = CLAMP_LIMIT, -CLAMP_LIMIT


def _div(x: float, y: float) -> float:
    """Protected division: a near-zero divisor gives the limit with x's sign."""
    if -DIV_EPSILON < y < DIV_EPSILON:
        return _HI if x >= 0 else _LO
    r = x / y
    return _HI if r > _HI else _LO if r < _LO else r


# Pure functions of their children's values, all evaluated left to right.
# plus/minus/times/pdiv are the infix + - * %; pdiv does not touch a0.
# min and max keep the builtins' choice between equal values (0 and -0).
_PURE = {
    "inv": lambda v: _div(1.0, v),
    "neg": lambda v: _HI if (r := -v) > _HI else _LO if r < _LO else r,
    # math.exp overflows above ~709.78
    "exp": lambda v: _HI if v > 709.0 or (r := math.exp(v)) > _HI else r,
    # log of a positive double lies in (-745, 710): no clamp needed.
    "log": lambda v: _LO if v <= 0.0 else math.log(v),
    "sgn": lambda v: -1.0 if v < 0.0 else (1.0 if v > 0.0 else 0.0),
    "sqrt": lambda v: -1.0 if v < 0.0 else _HI if (r := math.sqrt(v)) > _HI else r,
    "abs": lambda v: _HI if (r := abs(v)) > _HI else r,
    "progn2": lambda x, y: _HI if y > _HI else _LO if y < _LO else y,
    "min": lambda x, y: _HI if (r := y if y < x else x) > _HI else _LO if r < _LO else r,
    "max": lambda x, y: _HI if (r := y if y > x else x) > _HI else _LO if r < _LO else r,
    "and": lambda x, y: 1.0 if x > 0.0 and y > 0.0 else 0.0,
    "or": lambda x, y: 1.0 if x > 0.0 or y > 0.0 else 0.0,
    "xor": lambda x, y: 1.0 if (x > 0.0) != (y > 0.0) else 0.0,
    "lessthan": lambda x, y: 1.0 if x < y else 0.0,
    "plus": lambda x, y: _HI if (r := x + y) > _HI else _LO if r < _LO else r,
    "minus": lambda x, y: _HI if (r := x - y) > _HI else _LO if r < _LO else r,
    "times": lambda x, y: _HI if (r := x * y) > _HI else _LO if r < _LO else r,
    "pdiv": _div,
    "progn3": lambda x, y, z: _HI if z > _HI else _LO if z < _LO else z,
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


def eval_node(node: Node, ctx: EvalContext, regs: Registers) -> float:
    """Evaluate one tree depth-first, left to right, with side effects.

    Only `if` is lazy (it evaluates the condition and exactly one branch);
    every other function evaluates all of its children.
    """
    ctx.node_evals += 1
    kind = node.kind
    ch = node.children

    if not ch:
        c = _CONSTANTS.get(kind)
        if c is not None:
            return c
        return getattr(regs if kind in _REGISTERS else ctx, kind)

    f = _PURE.get(kind)
    if f is not None:
        x = eval_node(ch[0], ctx, regs)
        if len(ch) == 1:
            return f(x)
        y = eval_node(ch[1], ctx, regs)
        if len(ch) == 2:
            return f(x, y)
        return f(x, y, eval_node(ch[2], ctx, regs))
    if kind in _WRITERS:
        reg, f = _WRITERS[kind]
        v = eval_node(ch[0], ctx, regs)
        setattr(regs, reg, f(getattr(regs, reg), v))
        return getattr(regs, reg)
    if kind == "if":
        cond = eval_node(ch[0], ctx, regs)
        branch = ch[1] if cond > 0.0 else ch[2]
        return _clamp(eval_node(branch, ctx, regs))
    raise ProgramSyntaxError(f"unknown function {kind!r}")


def binary_first_order(clauses) -> list[tuple[int, ...]]:
    """The pinned clause visit order: two-literal clauses first, then the
    rest, each group in stored order."""
    binaries = [c for c in clauses if len(c) == 2]
    others = [c for c in clauses if len(c) != 2]
    return binaries + others


def _check_in_bounds(ctx: EvalContext) -> None:
    if not (ctx.ln >= 0 and ctx.lp >= 0 and ctx.lc == ctx.ln + ctx.lp):
        raise RuntimeError("literal stats out of bounds")
    if ctx.cs < 2:
        raise RuntimeError("IN ran for a clause narrower than 2 literals")
    if ctx.xs not in (0.0, 1.0) or ctx.ls not in (0.0, 1.0):
        raise RuntimeError("polarity terminal outside {0,1}")
    if not (0 <= ctx.ic < ctx.xc):
        raise RuntimeError(f"ic={ctx.ic} outside [0, xc={ctx.xc})")
    if not (0 <= ctx.il < ctx.cs - 1):
        raise RuntimeError(f"il={ctx.il} outside [0, cs-1={ctx.cs - 1})")


def _checked_stats(prog: InitProgram, cnf: Cnf, stats: VarStats | None) -> VarStats:
    """Shared prologue: validate the program, compute or check the stats."""
    validate_program(prog)
    if stats is None:
        stats = compute_var_stats(cnf)
    if len(stats.xc) != cnf.num_vars + 1:
        raise ValueError("VarStats size does not match cnf.num_vars")
    return stats


# Positions in the state list a program's closures share: the register
# bank, the terminals bound for the current variable, clause and literal,
# then the constants 0..4.
_SLOT = {name: i for i, name in enumerate((
    "a0", "v1", "v2", "xn", "xp", "xc", "nv", "nc",
    "cs", "xs", "ic", "ln", "lp", "lc", "ls", "il", *_CONSTANTS))}

# IN kinds that write a register, or whose node count depends on the run.
# An IN tree with none of them changes nothing that PRE or POST can see,
# so compute_activities need not run it (a structural intron).
_ACTIVE_IN = frozenset(_WRITERS) | {"if"}


def _closure(node: Node, s: list[float], taken: list[int]):
    """Build a closure that evaluates `node` as eval_node does, on state `s`.

    Returns (closure, static count), the static count being the nodes
    evaluated on every run: all but those inside `if` branches.  A taken
    branch adds its own static count to taken[0] when it runs.  A unary
    or binary node reads a leaf operand as s[k] instead of calling it;
    Python evaluates call arguments left to right, as eval_node does.
    """
    kind, ch = node.kind, node.children
    if not ch:
        k = _SLOT[kind]
        return (lambda: s[k]), 1
    built = [_closure(child, s, taken) for child in ch]
    count = 1 + sum(n for _, n in built)
    if kind == "if":
        (cond, n_cond), (yes, n_yes), (no, n_no) = built

        def branch():
            if cond() > 0.0:
                taken[0] += n_yes
                r = yes()
            else:
                taken[0] += n_no
                r = no()
            return _HI if r > _HI else _LO if r < _LO else r

        return branch, 1 + n_cond
    # Each operand: its slot for a leaf, else its closure.
    ops = [g if c.children else _SLOT[c.kind] for c, (g, _) in zip(ch, built)]
    if kind in _WRITERS:
        (x,) = ops
        # The child runs before the register is read.
        reg, f = _WRITERS[kind]
        k = _SLOT[reg]
        if type(x) is int:
            def write():
                s[k] = r = f(s[k], s[x])
                return r
        else:
            def write():
                v = x()
                s[k] = r = f(s[k], v)
                return r
        return write, count
    f = _PURE[kind]
    if len(ops) == 1:
        (x,) = ops
        return (lambda: f(s[x])) if type(x) is int else (lambda: f(x())), count
    if len(ops) == 3:
        x, y, z = (g for g, _ in built)
        return (lambda: f(x(), y(), z())), count
    x, y = ops
    if type(x) is int:
        return (lambda: f(s[x], s[y])) if type(y) is int else (lambda: f(s[x], y())), count
    return (lambda: f(x(), s[y])) if type(y) is int else (lambda: f(x(), y())), count


def compute_activities(
    prog: InitProgram,
    cnf: Cnf,
    stats: VarStats | None = None,
    *,
    counters: dict | None = None,
) -> list[float]:
    """Run the program's closures over the CNF, one variable at a time.

    Result index v-1 holds the activity of variable v.  Each call builds
    one closure per tree node, then runs the per-variable template: PRE,
    IN for every (clause containing X, other literal L) in the pinned
    clause order, POST.  It matches reference_compute_activities bitwise.
    An IN tree with no register writer and no `if` is inert: it cannot
    change a0, v1 or v2, so its runs are counted but skipped.

    counters (a dict) receives 'in_executions', which is the sum over
    clauses of |C|*(|C|-1), and 'node_evals', exactly eval_node's count:
    num_vars*(|PRE| + |POST|) + in_executions*|IN| plus the static count
    of every `if` branch taken, |T| counting the nodes outside branches.
    """
    stats = _checked_stats(prog, cnf, stats)
    n = cnf.num_vars
    xnf = [float(x) for x in stats.xn]
    xpf = [float(x) for x in stats.xp]
    xcf = [float(x) for x in stats.xc]

    s = [0.0] * len(_SLOT)
    s[6], s[7] = float(n), float(len(cnf.clauses))  # nv, nc
    s[16:] = _CONSTANTS.values()
    taken = [0]
    (pre, n_pre), (in_tree, n_in), (post, n_post) = (
        _closure(tree, s, taken) for _, tree in prog.fragments())

    # occurrences[x]: (cs, xs, clause, i) for each clause C in the pinned
    # order and each position i in C of a literal of variable x.
    occurrences = [[] for _ in range(n + 1)]
    if any(node.kind in _ACTIVE_IN for node in iter_nodes(prog.in_loop)):
        for clause in binary_first_order(cnf.clauses):
            cs = float(len(clause))
            for i, lit in enumerate(clause):
                occurrences[abs(lit)].append((cs, 1.0 if lit > 0 else 0.0, clause, i))
    # (ln, lp, lc, ls) of each literal, indexed by signed literal (-v at 2n+1-v).
    terms = [(xnf[v], xpf[v], xcf[v], 1.0) for v in range(n + 1)]
    terms += [(xnf[v], xpf[v], xcf[v], 0.0) for v in range(n, 0, -1)]

    out = [0.0] * n
    for x in range(1, n + 1):
        s[:6] = 0.0, 0.0, 0.0, xnf[x], xpf[x], xcf[x]  # a0 v1 v2 xn xp xc
        pre()
        ic = 0.0
        for s[8], s[9], clause, i in occurrences[x]:  # cs xs
            s[10] = ic
            ic += 1.0
            il = 0.0
            for j, lit in enumerate(clause):
                if j != i:
                    s[11:15] = terms[lit]  # ln lp lc ls
                    s[15] = il
                    il += 1.0
                    in_tree()
        post()
        out[x - 1] = _clamp(s[0])

    if counters is not None:
        in_runs = sum(len(c) * (len(c) - 1) for c in cnf.clauses)
        counters["node_evals"] = n * (n_pre + n_post) + in_runs * n_in + taken[0]
        counters["in_executions"] = in_runs
    return out


def reference_compute_activities(
    prog: InitProgram, cnf: Cnf, stats: VarStats | None = None
) -> list[float]:
    """Direct per-variable transcription of the template; testing oracle.

    Deliberately naive: for each variable it walks the whole clause list
    looking for occurrences.  Before every IN execution it checks the
    documented loop-terminal ranges and raises RuntimeError on a breach.
    Must equal compute_activities bitwise.
    """
    stats = _checked_stats(prog, cnf, stats)
    n = cnf.num_vars
    ordered = binary_first_order(cnf.clauses)
    out = [0.0] * n
    for x in range(1, n + 1):
        ctx = EvalContext()
        ctx.nv = float(n)
        ctx.nc = float(len(cnf.clauses))
        ctx.xn = float(stats.xn[x])
        ctx.xp = float(stats.xp[x])
        ctx.xc = float(stats.xc[x])
        regs = Registers()

        eval_node(prog.pre, ctx, regs)
        ic = 0
        for clause in ordered:
            x_pos = None
            for j, lit in enumerate(clause):
                if abs(lit) == x:
                    x_pos = j
                    break
            if x_pos is None:
                continue
            ctx.cs = float(len(clause))
            ctx.xs = 1.0 if clause[x_pos] > 0 else 0.0
            ctx.ic = float(ic)
            il = 0
            for j, lit_l in enumerate(clause):
                if j == x_pos:
                    continue
                lv = abs(lit_l)
                ctx.ln = float(stats.xn[lv])
                ctx.lp = float(stats.xp[lv])
                ctx.lc = float(stats.xc[lv])
                ctx.ls = 1.0 if lit_l > 0 else 0.0
                ctx.il = float(il)
                _check_in_bounds(ctx)
                eval_node(prog.in_loop, ctx, regs)
                il += 1
            ic += 1
        eval_node(prog.post, ctx, regs)
        out[x - 1] = _clamp(regs.a0)
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


# Deepest program text accepted, in nested operands and in tree depth; GP
# trees stay far below it (CROSSOVER_MAX_DEPTH is 17).  Deeper text could
# exhaust Python's recursion limit in the parser, printer or evaluators.
MAX_NESTING = 100
_TOO_DEEP = f"program nested deeper than {MAX_NESTING} levels"


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
        if tok.isidentifier():  # validate_tree checks the name and arity
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
    fragments default to the terminal 0.  Loop-only terminals are rejected
    outside IN.
    """
    # Locate fragment labels without tokenizing the whole text first, so
    # that '/' may act as a separator.
    labels = [m for m in _LABEL.finditer(text) if m[1].upper() in _LABEL_ALIASES]
    if not labels:
        raise ProgramSyntaxError("no PRE/IN/POST fragment label found")
    head = text[: labels[0].start()].strip()
    if head:
        raise ProgramSyntaxError(f"unexpected text before first label: {head!r}")

    found: dict[str, str] = {}
    ends = [m.start() for m in labels[1:]] + [len(text)]
    for label, body_end in zip(labels, ends):
        fragment = _LABEL_ALIASES[label[1].upper()]
        body = text[label.end() : body_end].strip()
        body = body.rstrip("/").strip()  # '/' separates fragments
        if fragment in found:
            raise ProgramSyntaxError(f"duplicate fragment {fragment.upper()}")
        found[fragment] = body

    trees = {}
    for fragment in FRAGMENT_NAMES:
        body = found.get(fragment, "")
        if body in ("", "{}"):
            trees[fragment] = ZERO
            continue
        parser = _ExprParser(_tokenize(body))
        tree = _fold_sequence(parser.parse_list())
        if parser.peek() is not None:
            raise ProgramSyntaxError(
                f"trailing tokens in {fragment.upper()}: {parser.peek()!r}"
            )
        if tree_depth(tree) > MAX_NESTING:  # long infix chains or sequences
            raise ProgramSyntaxError(_TOO_DEEP)
        validate_tree(tree, fragment)
        trees[fragment] = tree
    return InitProgram(pre=trees["pre"], in_loop=trees["in"], post=trees["post"])


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
    try:
        return parse_program(PRESETS[name])
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None

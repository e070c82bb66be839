"""CNF data model, DIMACS I/O, per-variable statistics, BCP and reordering.

Literals are signed integers as in DIMACS: +v / -v for variable v >= 1.
A clause is a tuple of literals, a formula is a Cnf value.  All operations
here are pure: they never mutate their inputs and return fresh values, so
Cnf objects are safe to share between threads and processes.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from itertools import chain

from .rng import SplitMix64, check_int

logger = logging.getLogger(__name__)

# Counts and literals, separated by white space, each an optional minus and
# ASCII digits: int() alone would also read "+1", "1_0" and non-ASCII digits.
_INTEGERS = re.compile(r"-?[0-9]+(?:\s+-?[0-9]+)*").fullmatch


class DimacsError(ValueError):
    """Raised on malformed DIMACS input; message names the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Cnf:
    """A CNF formula: variable count plus an ordered clause list.  num_vars
    must be an int >= 0 (see check_int) and every literal an int with
    0 < abs(lit) <= num_vars; anything else raises ValueError."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.num_vars
        check_int("num_vars", n, 0)
        # Over every literal, not the union set, where 1.0 and True pass as 1.
        if set(map(type, chain.from_iterable(self.clauses))) - {int}:
            bad = next(c for c in self.clauses if any(type(lit) is not int for lit in c))
            raise ValueError(f"clause {bad} has a literal that is not an int")
        lits = set().union(*self.clauses)
        if lits and (0 in lits or max(lits) > n or min(lits) < -n):
            bad = next(c for c in self.clauses if any(not 0 < abs(lit) <= n for lit in c))
            raise ValueError(f"clause {bad} has a literal 0 or beyond num_vars={n}")

    @staticmethod
    def from_lists(num_vars: int, clauses) -> "Cnf":
        return Cnf(num_vars, tuple(tuple(c) for c in clauses))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


@dataclass
class VarStats:
    """Per-variable literal occurrence counts, 1-based (index 0 unused).

    xn / xp are the negative / positive occurrence counts, xc their sum.
    """

    xn: list[int]
    xp: list[int]
    xc: list[int]


def parse_dimacs(source) -> Cnf:
    """Parse DIMACS CNF text into a Cnf.

    Accepts str or bytes.  Comment lines start with 'c'; a line that is
    exactly '%' ends the input (common benchmark-file tail).  Clauses are
    0-terminated integer lists and may span lines.  Duplicate literals
    within a clause are removed, tautological clauses are dropped.  A
    header/actual clause-count mismatch is logged as a warning, not an
    error.
    """
    if isinstance(source, bytes):
        source = source.decode("ascii", errors="replace")

    num_vars = None
    declared_clauses = encountered_clauses = 0
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    last_line_no = 0

    for line_no, raw in enumerate(source.splitlines(), start=1):
        last_line_no = line_no
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line == "%":
            break
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(line_no, "duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[:2] != ["p", "cnf"] or not all(map(_INTEGERS, parts[2:])):
                raise DimacsError(line_no, f"malformed header {line!r}")
            num_vars, declared_clauses = int(parts[2]), int(parts[3])
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError(line_no, "negative counts in header")
            continue
        if num_vars is None:
            raise DimacsError(line_no, "clause data before 'p cnf' header")
        whole = _INTEGERS(line)  # tokens are matched alone only on a bad line
        for tok in line.split():
            if not (whole or _INTEGERS(tok)):
                raise DimacsError(line_no, f"non-integer token {tok!r}")
            lit = int(tok)
            if lit == 0:
                encountered_clauses += 1
                clause = _clean_clause(current)
                if clause is not None:
                    clauses.append(clause)
                current = []
                continue
            if abs(lit) > num_vars:
                raise DimacsError(
                    line_no, f"variable {abs(lit)} exceeds declared {num_vars}"
                )
            current.append(lit)

    if current:
        raise DimacsError(last_line_no, "unterminated clause at end of input")
    if num_vars is None:
        raise DimacsError(last_line_no or 1, "missing 'p cnf' header")

    if declared_clauses != encountered_clauses:
        logger.warning(
            "header declares %d clauses but file contains %d",
            declared_clauses,
            encountered_clauses,
        )
    return Cnf(num_vars, tuple(clauses))


def _clean_clause(lits: list[int]) -> tuple[int, ...] | None:
    """Dedup literals preserving first occurrence; drop tautologies."""
    seen: set[int] = set()
    out = []
    for lit in lits:
        if -lit in seen:
            return None
        if lit in seen:
            continue
        seen.add(lit)
        out.append(lit)
    return tuple(out)


def read_dimacs(path) -> Cnf:
    with open(path, "rb") as fh:
        return parse_dimacs(fh.read())


def write_dimacs(cnf: Cnf, comments: tuple[str, ...] = ()) -> str:
    """Serialize a Cnf to DIMACS text (LF line endings)."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def check_model(cnf: Cnf, model: dict[int, bool]) -> None:
    """Raise RuntimeError naming the first clause that `model` falsifies."""
    true_lits = {v if value else -v for v, value in model.items()}
    for clause in cnf.clauses:
        if true_lits.isdisjoint(clause):
            raise RuntimeError(f"model check failed on clause {clause}")


def compute_var_stats(cnf: Cnf) -> VarStats:
    """Count negative/positive/total occurrences of every variable."""
    n = cnf.num_vars
    xn = [0] * (n + 1)
    xp = [0] * (n + 1)
    for clause in cnf.clauses:
        for lit in clause:
            if lit > 0:
                xp[lit] += 1
            else:
                xn[-lit] += 1
    xc = [xn[v] + xp[v] for v in range(n + 1)]
    return VarStats(xn=xn, xp=xp, xc=xc)


def preprocess_bcp(cnf: Cnf) -> tuple[Cnf, str, list[int]]:
    """Exhaustively propagate unit clauses before search.

    Returns (reduced, verdict, forced) where verdict is one of 'reduced',
    'satisfied' or 'unsatisfiable' and forced lists the propagated literals
    in assignment order.  Satisfied clauses are removed and false literals
    stripped; surviving clauses keep their original relative order.  On
    'unsatisfiable' the original Cnf is returned unchanged.
    """
    assigns: dict[int, bool] = {}
    forced: list[int] = []
    clauses: list[tuple[int, ...]] = list(cnf.clauses)

    while True:
        reduced: list[tuple[int, ...]] = []
        for clause in clauses:
            satisfied = False
            lits = []
            for lit in clause:
                val = assigns.get(abs(lit))
                if val is None:
                    lits.append(lit)
                elif val == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not lits:
                return cnf, "unsatisfiable", forced
            reduced.append(tuple(lits))
        clauses = reduced

        units = [c[0] for c in clauses if len(c) == 1]
        if not units:
            break
        for lit in units:
            var, val = abs(lit), lit > 0
            prev = assigns.get(var)
            if prev is None:
                assigns[var] = val
                forced.append(lit)
            elif prev != val:
                return cnf, "unsatisfiable", forced

    verdict = "satisfied" if not clauses else "reduced"
    return Cnf(cnf.num_vars, tuple(clauses)), verdict, forced


@dataclass
class ReorderMapping:
    """Bijection between an original formula and its reordered twin.

    var_map[old] = new variable index (1-based, index 0 unused).
    inverted[old] = True when the variable's polarity was flipped.
    clause_map[new_idx] = old clause index.
    """

    var_map: list[int]
    inverted: list[bool]
    clause_map: list[int]

    def map_literal(self, lit: int) -> int:
        """The twin's literal for literal lit of the original formula."""
        old = abs(lit)
        new = self.var_map[old]
        positive = (lit > 0) != self.inverted[old]
        return new if positive else -new


def reorder(cnf: Cnf, seed: int) -> tuple[Cnf, ReorderMapping]:
    """Permute clause order, rename variables and flip random polarities.

    Deterministic for a given seed (SplitMix64 stream: variable
    permutation, then inversion flags, then clause permutation); every
    integer is a seed.  Satisfiability is preserved.  The mapping gives
    each original literal's twin (map_literal) and is what write_mapping
    writes as the .map sidecar.
    """
    n = cnf.num_vars
    rng = SplitMix64(seed)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    var_map = [0] + perm
    inverted = [False] + [rng.flip() for _ in range(n)]
    clause_map = list(range(len(cnf.clauses)))
    rng.shuffle(clause_map)

    mapping = ReorderMapping(var_map=var_map, inverted=inverted, clause_map=clause_map)
    new_clauses = tuple(
        tuple(mapping.map_literal(lit) for lit in cnf.clauses[old_idx])
        for old_idx in clause_map
    )
    return Cnf(n, new_clauses), mapping


def write_mapping(mapping: ReorderMapping) -> str:
    """Serialize a ReorderMapping as the text sidecar format.

    Lines 'v <old> <new> <inv:0|1>' then 'c <old_idx> <new_idx>'.
    """
    lines = []
    for old in range(1, len(mapping.var_map)):
        lines.append(
            f"v {old} {mapping.var_map[old]} {1 if mapping.inverted[old] else 0}"
        )
    for new_idx, old_idx in enumerate(mapping.clause_map):
        lines.append(f"c {old_idx} {new_idx}")
    return "\n".join(lines) + "\n"


def random_3sat(num_vars: int, num_clauses: int, seed: int) -> Cnf:
    """Generate a uniform random 3-SAT instance.

    Each clause picks three distinct variables and random polarities, so
    clauses are tautology- and duplicate-literal-free by construction.
    """
    check_int("num_vars", num_vars, 3)
    check_int("num_clauses", num_clauses, 0)
    rng = SplitMix64(seed)
    clauses = []
    for _ in range(num_clauses):
        vars_ = []
        while len(vars_) < 3:
            v = rng.randrange(num_vars) + 1
            if v not in vars_:
                vars_.append(v)
        clauses.append(tuple(v if rng.flip() else -v for v in vars_))
    return Cnf(num_vars, tuple(clauses))

"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own code paths: satisfiability is
decided by exhaustive truth-table enumeration (vectorized with numpy) and
statistics are recounted with a plain dictionary double loop.  The
reorder sidecar, which the package only writes, is parsed back here, and
the solver's decision rule is restated with plain lists.
"""

from __future__ import annotations

import numpy as np

from satgp.cnf import ReorderMapping

MAX_ORACLE_VARS = 20


def truth_table_satisfiable(cnf) -> bool:
    """Brute-force satisfiability over all 2^n assignments."""
    n = cnf.num_vars
    if n > MAX_ORACLE_VARS:
        raise ValueError(f"oracle limited to {MAX_ORACLE_VARS} variables")
    if any(len(c) == 0 for c in cnf.clauses):
        return False
    total = 1 << n
    indices = np.arange(total, dtype=np.uint32)
    alive = np.ones(total, dtype=bool)
    for clause in cnf.clauses:
        satisfied = np.zeros(total, dtype=bool)
        for lit in clause:
            bit = (indices >> (abs(lit) - 1)) & 1
            satisfied |= bit == (1 if lit > 0 else 0)
        alive &= satisfied
        if not alive.any():
            return False
    return bool(alive.any())


def model_satisfies(cnf, model: dict[int, bool]) -> bool:
    """Check a model against every clause, the boring way."""
    for clause in cnf.clauses:
        if not any(model[abs(lit)] == (lit > 0) for lit in clause):
            return False
    return True


def list_decide(search) -> None:
    """The solver's decision rule with the unassigned variables, their
    activities and the ties built as Python lists over all n variables.
    A `_Search` subclass that uses it as decide must give the solver's
    traces.  `_Search` keeps literal v at 2v and -v at 2v+1."""
    val = search.val
    rng = search.rng
    free = [v for v in range(1, search.n + 1) if val[2 * v] is None]
    if rng.random() < search.config.random_decision_freq:
        v = free[rng.randrange(len(free))]
    else:
        act = search.activity
        acts = [act[v] for v in free]
        best = max(acts)
        ties = acts.count(best)
        if ties == 1:
            v = free[acts.index(best)]
        else:
            v = [u for u, a in zip(free, acts) if a == best][rng.randrange(ties)]
    search.decisions += 1
    search.trail_lim.append(len(search.trail))
    search.enqueue(2 * v + 1, None)  # -v, false first


def recount_stats(cnf) -> tuple[dict, dict, dict]:
    """Naive occurrence recount; returns (xn, xp, xc) dicts."""
    xn = {v: 0 for v in range(1, cnf.num_vars + 1)}
    xp = {v: 0 for v in range(1, cnf.num_vars + 1)}
    for clause in cnf.clauses:
        for lit in clause:
            if lit > 0:
                xp[lit] += 1
            else:
                xn[-lit] += 1
    xc = {v: xn[v] + xp[v] for v in xn}
    return xn, xp, xc


def read_mapping(text: str) -> ReorderMapping:
    """Parse the sidecar text that cnf.write_mapping produces."""
    var_rows = []
    clause_rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            var_rows.append((int(parts[1]), int(parts[2]), parts[3] == "1"))
        elif parts[0] == "c":
            clause_rows.append((int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"bad mapping line {line!r}")
    n = max((old for old, _, _ in var_rows), default=0)
    var_map = [0] * (n + 1)
    inverted = [False] * (n + 1)
    for old, new, inv in var_rows:
        var_map[old] = new
        inverted[old] = inv
    clause_map = [0] * len(clause_rows)
    for old_idx, new_idx in clause_rows:
        clause_map[new_idx] = old_idx
    return ReorderMapping(var_map=var_map, inverted=inverted, clause_map=clause_map)

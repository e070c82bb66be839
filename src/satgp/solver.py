"""Conflict-driven clause-learning SAT solver with injectable activities.

The decision heuristic is an activity scheme in the MiniSAT style: each
variable carries a double-precision activity; on every conflict the
variables of the learned clause are bumped by the current increment and
the increment grows by 1/var_decay, so older bumps decay 5% per conflict
at the default setting.  Decisions pick the unassigned variable of
maximum activity (ties broken by the seeded RNG), except that with a
small probability a uniformly random unassigned variable is chosen.
Decision variables are always assigned false first.

The caller supplies the initial activity vector.  It is normalized
internally (divided by its largest magnitude), which makes the search
trace invariant under positive scaling of the initialization: solving
with `acts` and with `normalize(acts)` produces identical statistics,
because normalization is idempotent bit for bit.  Positive scaling is the
only invariance: an order-preserving but nonlinear map (say x -> x**5)
changes the magnitudes that conflict bumps add to, and so the search.

Search machinery: two-watched-literal propagation, first-UIP clause
learning with non-chronological backjumping, geometric restarts that keep
learned clauses and activities, and learned-clause database reduction
driven by clause activities.  There is no timeout; the solver always runs
to completion and the returned model is verified against the input
clauses before it is returned.  Top-level unit propagation is not redone
here: solve searches only a formula that cnf.preprocess_bcp reduced, and
refuses one with no clause, a unit clause or an empty clause.

The restart, decay and learned-clause schedule is fixed, as in MiniSat,
in the table SCHEDULE; SolverConfig holds the four settings that vary
(var_decay, random_decision_freq, restart_first, rng_seed), and
harness.config_hash covers both.

Data structures follow MiniSat (Een & Sorensson, SAT 2003) in plain
Python lists.  The truth values and the watch lists are indexed by signed
literal: with 2n+1 entries, Python's negative indexing puts literal -v at
2n+1-v, so reading a literal needs no abs().  Propagation tries a visited
clause's third literal before it scans the rest, and on a conflict keeps
the watchers it has not visited in their order.  There are no blocker
literals: they would change the watch order, and so the trace.  Decisions
scan the variable range linearly; an exact order heap kept the traces but
made the bench's solve_ladder only 6.3% faster.  Intended for desk-scale
experiments.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .cnf import Cnf, check_model
from .lang import normalize
from .rng import SplitMix64

VAR_RESCALE_FACTOR = 1e-100
CLAUSE_RESCALE_LIMIT = 1e20

# MiniSat's fixed search schedule, read by _Search as it runs: the restart
# factor, the learned-clause capacity (a fraction of the clause count, grown
# per restart), the clause activity decay and the variable rescale limit.
SCHEDULE = {
    "rescale_threshold": 1e100,
    "restart_factor": 1.5,
    "learnt_db_initial_fraction": 1.0 / 3.0,
    "learnt_db_growth": 1.1,
    "clause_decay": 0.999,
}


@dataclass(frozen=True)
class SolverConfig:
    """Search parameters; the defaults define this toolkit's baseline.
    An out-of-range value raises ValueError when the config is made."""

    var_decay: float = 0.95
    random_decision_freq: float = 0.02
    restart_first: int = 100
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("restart_first", "rng_seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        for name in ("var_decay", "random_decision_freq"):
            value = getattr(self, name)
            if type(value) not in (int, float):
                raise ValueError(f"{name} must be an int or a float, got {value!r}")
        if not 0.0 < self.var_decay < 1.0:
            raise ValueError("var_decay must be in (0, 1)")
        if not 0.0 <= self.random_decision_freq < 1.0:
            raise ValueError("random_decision_freq must be in [0, 1)")
        # Stored as floats, and -0.0 as 0.0, so that equal configs hash alike.
        for name in ("var_decay", "random_decision_freq"):
            object.__setattr__(self, name, float(getattr(self, name)) + 0.0)
        if self.restart_first < 1:
            raise ValueError("restart_first must be >= 1")


@dataclass
class SolveOutcome:
    verdict: str  # 'sat' or 'unsat'
    conflicts: int
    decisions: int
    propagations: int  # implied assignments made during search
    model: dict[int, bool] | None  # present iff sat; covers every variable
    wall_time: float  # seconds; the only nondeterministic field


class _Clause:
    __slots__ = ("lits", "learnt", "activity")

    def __init__(self, lits: list[int], learnt: bool = False):
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0


class _Search:
    def __init__(self, cnf: Cnf, init: list[float], config: SolverConfig):
        self.cnf = cnf
        self.config = config
        n = cnf.num_vars
        self.n = n
        # Internal normalization: the scale of the initial activities can
        # never matter (their magnitudes relative to each other still do).
        acts = normalize(list(init))
        self.activity = [0.0] + acts
        self.var_inc = 1.0
        self.cla_inc = 1.0
        # Indexed by signed literal (-v lands at 2n+1-v): True, False or
        # None for unassigned; both signs are set and cleared together.
        self.val: list[bool | None] = [None] * (2 * n + 1)
        self.level = [0] * (n + 1)
        # reason[v] is meaningful only while v is assigned.
        self.reason: list[_Clause | None] = [None] * (n + 1)
        self.seen = [False] * (n + 1)  # all False between analyze calls
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: list[list[_Clause]] = [[] for _ in range(2 * n + 1)]
        self.learnts: list[_Clause] = []
        self.rng = SplitMix64(config.rng_seed)
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0

    # -- assignment plumbing -------------------------------------------------

    def enqueue(self, lit: int, reason: _Clause | None) -> None:
        self.val[lit] = True
        self.val[-lit] = False
        v = abs(lit)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        bound = self.trail_lim[target_level]
        val = self.val
        for lit in self.trail[bound:]:
            val[lit] = None
            val[-lit] = None
        del self.trail[bound:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # -- clause plumbing -----------------------------------------------------

    def attach(self, clause: _Clause) -> None:
        self.watches[clause.lits[0]].append(clause)
        self.watches[clause.lits[1]].append(clause)

    def locked(self, clause: _Clause) -> bool:
        first = clause.lits[0]
        return self.val[first] is not None and self.reason[abs(first)] is clause

    # -- propagation ---------------------------------------------------------

    def propagate(self) -> _Clause | None:
        """Process the trail queue; return a conflicting clause or None.

        A visited clause first moves its falsified watch to lits[1].  The
        loop is inlined because it takes most of a search's time; the
        third literal, the only other one of a 3-SAT clause, is tried
        before the scan of the rest.
        """
        trail = self.trail
        val = self.val
        watches = self.watches
        level = self.level
        reason = self.reason
        depth = len(self.trail_lim)
        qhead = self.qhead
        start = len(trail)
        confl = None
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchers = watches[false_lit]
            if not watchers:
                continue
            keep: list[_Clause] = []
            watches[false_lit] = keep
            visits = iter(watchers)
            for clause in visits:
                lits = clause.lits
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                if val[first] is True:
                    keep.append(clause)
                    continue
                if len(lits) > 2 and val[lits[2]] is not False:
                    lit = lits[2]
                    lits[1] = lit
                    lits[2] = false_lit
                    watches[lit].append(clause)
                    continue
                for k in range(3, len(lits)):
                    lit = lits[k]
                    if val[lit] is not False:
                        lits[1] = lit
                        lits[k] = false_lit
                        watches[lit].append(clause)
                        break
                else:
                    keep.append(clause)
                    if val[first] is False:
                        keep.extend(visits)  # the watchers not yet visited
                        confl = clause
                        qhead = len(trail)
                        break
                    val[first] = True
                    val[-first] = False
                    v = first if first > 0 else -first
                    level[v] = depth
                    reason[v] = clause
                    trail.append(first)
            if confl is not None:
                break
        self.qhead = qhead
        self.propagations += len(trail) - start
        return confl

    # -- activities ----------------------------------------------------------

    def bump_clause(self, clause: _Clause) -> None:
        clause.activity += self.cla_inc
        if clause.activity > CLAUSE_RESCALE_LIMIT:
            for c in self.learnts:
                c.activity *= 1.0 / CLAUSE_RESCALE_LIMIT
            self.cla_inc *= 1.0 / CLAUSE_RESCALE_LIMIT

    # -- conflict analysis ---------------------------------------------------

    def analyze(self, confl: _Clause) -> tuple[list[int], int]:
        """First-UIP learning; returns (learnt literals, backjump level).

        The asserting literal ends up at position 0 and a literal from the
        backjump level at position 1.
        """
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        learnt: list[int] = [0]  # placeholder for the asserting literal
        counter = 0
        p = 0
        idx = len(trail) - 1
        current = len(self.trail_lim)
        clause = confl

        while True:
            if clause.learnt:
                self.bump_clause(clause)
            lits = clause.lits
            for q in lits if p == 0 else lits[1:]:  # lits[0] is the resolved literal
                v = q if q > 0 else -q
                if not seen[v]:
                    lv = level[v]
                    if lv > 0:
                        seen[v] = True
                        if lv == current:
                            counter += 1
                        else:
                            learnt.append(q)
            while True:
                p = trail[idx]
                v = p if p > 0 else -p
                if seen[v]:
                    break
                idx -= 1
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            clause = reason[v]
            idx -= 1

        # Every current-level mark was cleared as its variable was resolved;
        # the rest are exactly the learnt clause's other variables.
        for q in learnt[1:]:
            seen[q if q > 0 else -q] = False
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        max_i = 1
        bt_level = 0
        for i in range(1, len(learnt)):
            q = learnt[i]
            lv = level[q if q > 0 else -q]
            if lv > bt_level:
                max_i, bt_level = i, lv
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, bt_level

    # -- learned clause database ----------------------------------------------

    def reduce_db(self) -> None:
        """Drop roughly half of the learned clauses, lowest activity first.

        Binary and locked (currently-reason) clauses are kept; the
        surviving half is additionally filtered against cla_inc/len.
        The dropped clauses leave their watch lists in one filtering pass
        per affected literal, which keeps the order of the other watchers.
        """
        self.learnts.sort(key=lambda c: c.activity)
        extra_lim = self.cla_inc / len(self.learnts)
        half = len(self.learnts) // 2
        kept: list[_Clause] = []
        dropped: set[_Clause] = set()
        for i, clause in enumerate(self.learnts):
            removable = len(clause.lits) > 2 and not self.locked(clause)
            if removable and (i < half or clause.activity < extra_lim):
                dropped.add(clause)
            else:
                kept.append(clause)
        self.learnts = kept
        watches = self.watches
        for lit in {w for c in dropped for w in c.lits[:2]}:
            watches[lit] = [c for c in watches[lit] if c not in dropped]

    # -- search --------------------------------------------------------------

    def decide(self) -> None:
        """Assign false to an unassigned variable: with probability
        random_decision_freq a uniform one, else one of maximum activity,
        the ties broken uniformly in variable order."""
        val = self.val
        rng = self.rng
        free = [v for v in range(1, self.n + 1) if val[v] is None]
        if rng.random() < self.config.random_decision_freq:
            v = free[rng.randrange(len(free))]
        else:
            act = self.activity
            acts = [act[v] for v in free]
            best = max(acts)
            ties = acts.count(best)
            if ties == 1:
                v = free[acts.index(best)]
            else:
                v = [u for u, a in zip(free, acts) if a == best][rng.randrange(ties)]
        self.decisions += 1
        self.trail_lim.append(len(self.trail))
        self.enqueue(-v, None)  # false first

    def run(self) -> tuple[str, dict[int, bool] | None]:
        for clause_lits in self.cnf.clauses:
            self.attach(_Clause(list(clause_lits)))

        rescale_threshold = SCHEDULE["rescale_threshold"]
        restart_factor = SCHEDULE["restart_factor"]
        learnt_db_growth = SCHEDULE["learnt_db_growth"]
        clause_decay = SCHEDULE["clause_decay"]
        max_learnts = len(self.cnf.clauses) * SCHEDULE["learnt_db_initial_fraction"]
        var_decay = self.config.var_decay
        restart_budget = float(self.config.restart_first)
        conflicts_since_restart = 0
        activity = self.activity

        while True:
            confl = self.propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_since_restart += 1
                if not self.trail_lim:
                    return "unsat", None
                learnt, bt_level = self.analyze(confl)
                self.cancel_until(bt_level)
                if len(learnt) == 1:
                    self.enqueue(learnt[0], None)
                else:
                    clause = _Clause(learnt, learnt=True)
                    self.attach(clause)
                    self.learnts.append(clause)
                    self.bump_clause(clause)
                    self.enqueue(learnt[0], clause)
                # Bump the learnt clause's variables; rescale all on overflow.
                var_inc = self.var_inc
                for lit in learnt:
                    v = lit if lit > 0 else -lit
                    activity[v] += var_inc
                    if activity[v] > rescale_threshold:
                        for u in range(1, self.n + 1):
                            activity[u] *= VAR_RESCALE_FACTOR
                        var_inc *= VAR_RESCALE_FACTOR
                self.var_inc = var_inc / var_decay
                self.cla_inc /= clause_decay
            else:
                if conflicts_since_restart >= restart_budget:
                    # Restart: back to level 0, keep clauses and activities.
                    conflicts_since_restart = 0
                    restart_budget *= restart_factor
                    max_learnts *= learnt_db_growth
                    self.cancel_until(0)
                    continue
                if len(self.learnts) - len(self.trail) >= max_learnts:
                    self.reduce_db()
                if len(self.trail) == self.n:
                    model = {v: self.val[v] for v in range(1, self.n + 1)}
                    check_model(self.cnf, model)
                    return "sat", model
                self.decide()


def solve(cnf: Cnf, init: list[float], config: SolverConfig = SolverConfig()) -> SolveOutcome:
    """Complete search over `cnf` starting from the given initial activities.

    `cnf` must be a formula that preprocess_bcp reduced, with at least one
    clause and none shorter than 2 literals, else ValueError is raised
    before any search.  `init` must hold one finite value per variable
    (index v-1 for variable v); a Cnf and a SolverConfig check themselves
    when made.  Identical (cnf, init, config) always produces an identical
    outcome apart from wall_time.
    """
    if min(map(len, cnf.clauses), default=0) < 2:
        raise ValueError("solve needs a formula that preprocess_bcp reduced: "
                         "at least one clause, none shorter than 2 literals")
    if len(init) != cnf.num_vars:
        raise ValueError(
            f"init length {len(init)} does not match num_vars {cnf.num_vars}"
        )
    for i, a in enumerate(init):
        if not math.isfinite(a):
            raise ValueError(f"non-finite initial activity at variable {i + 1}")

    start = time.perf_counter()
    search = _Search(cnf, init, config)
    verdict, model = search.run()
    return SolveOutcome(
        verdict=verdict,
        conflicts=search.conflicts,
        decisions=search.decisions,
        propagations=search.propagations,
        model=model,
        wall_time=time.perf_counter() - start,
    )


def solve_with_baseline(cnf: Cnf, config: SolverConfig = SolverConfig()) -> SolveOutcome:
    """Solve with the standard all-zero initialization.

    The conflict count of this run is the baseline against which other
    initializations of the same problem/config/seed are compared.
    """
    return solve(cnf, [0.0] * cnf.num_vars, config)

"""Script replay: execute statements in order, verdict each assertion,
track the proved element set and match each goal against it through
``rewrite.GoalIndex``.

``judge`` is the one place that composes an identity's verdict: the rewrite
engine proves, and the end projection and homology oracles, which share no
code with it, refute or confirm."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import BudgetExhausted, McgError
from .homology import verify_identity_homology
from .modelfile import load_model
from .models import SurfaceModel
from .permgroup import Permutation, project
from .rewrite import (
    DEFAULT_BUDGET,
    Budget,
    GoalIndex,
    ProvedEqual,
    Unknown,
    canonical,
    check_involution,
    equivalent,
    normalize,
)
from .script import (
    EvalContext,
    PermSpec,
    ProofScript,
    SAssertEq,
    SAssertInvolution,
    SAssertProjection,
    SGoalset,
    SLet,
    eval_word,
)
from .words import Word


@dataclass(frozen=True)
class ProvedDistinct:
    kind = "ProvedDistinct"
    oracle: str  # the oracle that refuted: "projection" or "homology"
    witness: str


Verdict = ProvedEqual | ProvedDistinct | Unknown


@dataclass
class StatementResult:
    index: int
    line: int
    kind: str
    statement: str
    verdict: str  # ProvedEqual / ProvedDistinct / Unknown / Yes / No / bound / ok / error
    ok: bool
    oracle: str = ""  # homology cross-check, when one ran
    budget_used: int = 0
    witness: str = ""
    wall_ms: float = 0.0

    def json_fields(self) -> dict:
        """The report's fields, in order: all but the clock."""
        return {k: v for k, v in vars(self).items() if k != "wall_ms"}


@dataclass
class ReplayReport:
    script: str
    model: str
    n: int
    budget: int
    statements: list[StatementResult] = field(default_factory=list)
    wall_s: float = 0.0
    env: dict[str, Word] = field(default_factory=dict)  # the LET bindings, reduced as replay made them

    @property
    def passed(self) -> bool:
        return all(s.ok for s in self.statements)

    @property
    def failures(self) -> list[StatementResult]:
        return [s for s in self.statements if not s.ok]

    @property
    def unknowns(self) -> list[StatementResult]:
        return [s for s in self.statements if s.verdict == "Unknown"]


def replay(
    script: ProofScript,
    n: int | None = None,
    budget: int | None = None,
    model: SurfaceModel | None = None,
) -> ReplayReport:
    """Run a parsed script, every engine call under ``budget``; failures do
    not stop execution: a statement that raises an ``McgError`` is an
    ``error`` row, and a failed ``LET`` binds nothing."""
    n = n if n is not None else script.default_n()  # None on a chain model: the model fixes n
    if script.param is not None and n is not None:
        msg = script.param.check(n)
        if msg:
            raise McgError(f"{script.path}: {msg}")
    if budget is None:
        budget = script.budget if script.budget is not None else DEFAULT_BUDGET
    model = model or load_model(script.kind, n)
    if n is not None and n != model.n:
        raise McgError(f"{script.path}: the {model.describe()} model has n={model.n}, not {n}")
    ctx = EvalContext(model, model.n)
    proved: list[tuple[str, Word]] = []
    report = ReplayReport(script.path, model.describe(), model.n, budget, env=ctx.env)

    t_start = time.perf_counter()
    for idx, stmt in enumerate(script.statements):
        t0 = time.perf_counter()
        res = StatementResult(idx, stmt.line, type(stmt).__name__[1:], stmt.text(), "ok", True)
        try:
            if isinstance(stmt, SLet):
                w = eval_word(stmt.expr, ctx)
                red = normalize(w, budget)
                if not red.normalized:
                    res.witness = f"reduction budget exhausted; kept unreduced ({len(w)} letters)"
                w = ctx.env[stmt.name] = red.word
                proved.append((stmt.name, w))
                res.verdict = "bound"
            elif isinstance(stmt, SAssertEq):
                left = eval_word(stmt.left, ctx)
                right = eval_word(stmt.right, ctx)
                judge(res, left, right, budget)
                if res.ok:
                    # goal matching reads the commutation-canonical form,
                    # or the side as written once the budget runs out
                    try:
                        right = Word(model, canonical(model, right.letters, Budget(budget)))
                    except BudgetExhausted:
                        pass
                    proved.append((f"eq@{stmt.line}", right))
            elif isinstance(stmt, SAssertInvolution):
                w = eval_word(stmt.expr, ctx)
                judge(res, *check_involution(w), budget)
                if res.ok:
                    proved.append((f"involution@{stmt.line}", w))
            elif isinstance(stmt, SAssertProjection):
                w = eval_word(stmt.expr, ctx)
                got = project(w)
                want = _perm_of(stmt.perm, model.n)
                res.verdict = "Yes" if got == want else "No"
                res.ok = got == want
                if not res.ok:
                    res.witness = f"projects to {got.cycle_notation()}, expected {want.cycle_notation()}"
            elif isinstance(stmt, SGoalset):
                misses = []
                hits = []
                index = GoalIndex(proved)
                for g in stmt.goals:
                    name = index.first_equal(eval_word(g, ctx), budget)
                    if name is None:
                        misses.append(g.text())
                    else:
                        hits.append(f"{g.text()} <= {name}")
                res.verdict = "Yes" if not misses else "No"
                res.ok = not misses
                res.witness = "; ".join(hits if not misses else ["missing: " + ", ".join(misses)])
            else:
                raise McgError(f"unhandled statement {stmt!r}")
        except McgError as e:
            res.verdict, res.ok, res.witness = "error", False, str(e)
            if isinstance(stmt, SLet):
                ctx.failed[stmt.name] = stmt.line
        res.wall_ms = (time.perf_counter() - t0) * 1000
        report.statements.append(res)
    report.wall_s = time.perf_counter() - t_start
    return report


def judge(res: StatementResult, w1: Word, w2: Word, budget: int) -> Verdict:
    """Verdict the identity w1 = w2 of an ``ASSERT_EQ`` or
    ``ASSERT_INVOLUTION`` row, write it into ``res`` and return it.

    The deciders run in a fixed order: the engine, which only proves; then,
    on a pair it leaves Unknown, the end projection and homology, which only
    refute. Homology runs once per pair, whatever the engine found, and the
    row shows its result; a proof that homology refutes is an oracle
    conflict, named in the witness, and fails the row.
    """
    v: Verdict = equivalent(w1, w2, budget)
    hom = verify_identity_homology(w1, w2, None)
    if v.kind == "Unknown":
        p1, p2 = project(w1), project(w2)
        if p1 != p2:
            e = next(e for e in range(1, w1.model.n + 1) if p1(e) != p2(e))
            v = ProvedDistinct("projection", f"end {e} maps to {p1(e)} vs {p2(e)}")
        elif hom.status == "Refuted":
            v = ProvedDistinct("homology", hom.witness)
    res.verdict = v.kind
    res.oracle = str(hom)
    res.budget_used = getattr(v, "budget_used", 0)
    res.ok = v.kind == "ProvedEqual" and hom.status != "Refuted"
    if v.kind == "ProvedEqual" and hom.status == "Refuted":
        res.witness = f"ORACLE CONFLICT: {hom.witness}"
    else:
        res.witness = getattr(v, "witness", "") or "; ".join(getattr(v, "trace", ()))
    return v


def _perm_of(spec: PermSpec, n: int) -> Permutation:
    if spec.kind == "ncycle":
        return Permutation.from_cycles(n, "(" + " ".join(map(str, range(1, n + 1))) + ")")
    if spec.kind == "identity":
        return Permutation.identity(n)
    return Permutation.from_cycles(n, spec.text())

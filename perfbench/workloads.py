"""The four benchmark workloads and their known-answer checks.

Each workload has a ``setup`` that builds its inputs and a ``run_pass`` that
runs one pass, a closed loop with one caller: each op starts when the
previous verdict has returned. A pass returns a ``PassResult`` with one
latency per op and the ops whose outcome contradicts the known answer.

Every call into the program goes through a module attribute
(``mcg.rewrite.equivalent``), never a name bound at import time, so the
tracer's wrappers see it.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

MODULES = ("homology", "modelfile", "permgroup", "replay", "report", "rewrite", "script", "shiftmap", "sweeps", "words")

DEFAULT_RUNS = (("thmA", 17), ("thmA", 19), ("thmB", 16), ("thmB", 18), ("thmC", None), ("thmD", None))
WIDE_RUNS = (("thmA", 129), ("thmB", 128))
CROSS_MODELS = (("sn", 16), ("sn", 17), ("jacob", None), ("lochness", None))
CROSS_PAIRS_PER_MODEL = 1000
CROSS_BUDGET = 4000
CROSS_WINDOW = 20
SELFCHECK_WINDOW = 20
SELFCHECK_SWEEP_WINDOW = 12
# mcg selfcheck runs the homology sweep at window 12 too, where it takes over
# a second on sn16 and sn17: too long an op to be timed steadily.
SELFCHECK_HOMOLOGY_SWEEP_WINDOW = 4
SELFCHECK_LINE_S = 0.04  # an untraced check line shorter than this runs again

# definite verdicts of a statement: everything but Unknown and error
UNDECIDED = frozenset({"Unknown", "error"})


@dataclass
class PassResult:
    latencies_ms: list[float] = field(default_factory=list)
    failed: int = 0
    decided: int = 0
    notes: list[str] = field(default_factory=list)
    surplus_s: float = 0.0  # repeated calls beyond each op's fastest; not part of the pass

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)


def import_mcg(src: str) -> SimpleNamespace:
    """Import the mcg package from ``src``."""
    if sys.path[0] != src:
        sys.path.insert(0, src)
    pkg = importlib.import_module("mcg")
    if not pkg.__file__.startswith(src):
        raise ImportError(f"mcg was imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module("mcg." + m) for m in MODULES})


def _read_data(mcg: SimpleNamespace) -> SimpleNamespace:
    from importlib import resources

    scripts = resources.files("mcg.data.scripts")
    texts = {name: scripts.joinpath(name + ".mcg").read_text(encoding="utf-8") for name in ("thmA", "thmB", "thmC", "thmD")}
    manifest = json.loads(resources.files("mcg.data").joinpath("coverage.json").read_text(encoding="utf-8"))
    return SimpleNamespace(mcg=mcg, texts=texts, manifest=manifest["entries"])


# ---------------------------------------------------------------------------
# verify-default / verify-wide


def _strip_clock(report_text: str) -> str:
    doc = json.loads(report_text)
    del doc["timestamp"], doc["wall_time_s"]
    return json.dumps(doc, indent=2, sort_keys=True)


def verify_setup(src: str, runs) -> SimpleNamespace:
    state = _read_data(import_mcg(src))
    state.runs = runs
    names = {name for name, _ in runs}
    state.coverage = {(e["script"], e["line"]) for e in state.manifest if e["script"] in names}
    state.reference = None  # first pass's report, clock fields removed
    return state


def verify_pass(state: SimpleNamespace, index: int, tracer=None) -> PassResult:
    mcg = state.mcg
    reports = []
    for i, (name, n) in enumerate(state.runs):
        if tracer is not None:
            tracer.op = i  # statements run inside replay; spans carry the run
        script = mcg.script.parse(state.texts[name], name + ".mcg")
        reports.append(mcg.replay.replay(script, n=n))
    text = mcg.report.render_json(reports)

    res = PassResult()
    doc = _strip_clock(text)
    if state.reference is None:
        state.reference = (doc, [[st.json_fields() for st in r.statements] for r in reports])
    ref_doc, ref_statements = state.reference
    covered = set()
    for (name, n), rep, ref in zip(state.runs, reports, ref_statements):
        for st, ref_st in zip(rep.statements, ref):
            res.latencies_ms.append(st.wall_ms)
            res.decided += st.verdict not in UNDECIDED
            key = (name, st.line)
            if not st.ok:
                res.fail(f"{name} n={n} line {st.line}: {st.verdict} {st.witness}")
            elif key in state.coverage and st.verdict != "ProvedEqual":
                res.fail(f"{name} n={n} line {st.line}: coverage entry is {st.verdict}")
            elif st.json_fields() != ref_st:
                res.fail(f"{name} n={n} line {st.line}: report differs from the first pass")
            if key in state.coverage:
                covered.add(key)
    for key in sorted(state.coverage - covered):
        res.fail(f"coverage entry {key} names no statement")
    if doc != ref_doc and not res.failed:
        res.fail("report differs from the first pass outside the statements")
    return res


# ---------------------------------------------------------------------------
# cross-oracle


def cross_pairs(mcg: SimpleNamespace, model, rng: random.Random, pairs: int):
    """Word pairs drawn as in sweeps.cross_oracle_random_pairs."""
    random_word, invert = mcg.sweeps.random_word, mcg.words.invert
    out = []
    for _ in range(pairs):
        w1 = random_word(model, rng, rng.randint(1, 7))
        if rng.random() < 0.5:
            g = random_word(model, rng, rng.randint(1, 3))
            w2 = g * w1 * invert(g)
        else:
            w2 = random_word(model, rng, rng.randint(1, 7))
        out.append((w1, w2))
    return out


def cross_setup(src: str, seed: int) -> SimpleNamespace:
    """The pair set of acceptance criterion 3 at ``seed``."""
    state = _read_data(import_mcg(src))
    mcg = state.mcg
    state.pairs = []
    for kind, n in CROSS_MODELS:
        model = mcg.modelfile.load_model(kind, n)
        state.pairs += cross_pairs(mcg, model, random.Random(seed), CROSS_PAIRS_PER_MODEL)
    return state


def check_proved_pair(mcg: SimpleNamespace, w1, w2) -> str | None:
    """What contradicts a ProvedEqual verdict on (w1, w2), or None.

    Both oracles must agree with the engine; an exception is a failure too.
    """
    try:
        p1, p2 = mcg.permgroup.project(w1), mcg.permgroup.project(w2)
        if p1 != p2:
            return f"projections differ: {p1.cycle_notation()} vs {p2.cycle_notation()}"
        hom = mcg.homology.verify_identity_homology(w1, w2, CROSS_WINDOW)
    except Exception:
        return "oracle raised:\n" + traceback.format_exc()
    if hom.status == "Refuted":
        return f"homology refutes: {hom.witness}"
    return None


def cross_pass(state: SimpleNamespace, index: int, tracer=None) -> PassResult:
    mcg = state.mcg
    res = PassResult()
    clock = time.perf_counter
    for i, (w1, w2) in enumerate(state.pairs):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            verdict = mcg.rewrite.equivalent(w1, w2, CROSS_BUDGET, CROSS_WINDOW, oracles=False)
        except Exception:
            problem = "equivalent raised:\n" + traceback.format_exc()
        else:
            problem = None
            if verdict.kind == "ProvedEqual":
                res.decided += 1
                problem = check_proved_pair(mcg, w1, w2)
        res.latencies_ms.append((clock() - t0) * 1000)
        if problem:
            res.fail(f"pair {i} ({w1} vs {w2}): {problem}")
    return res


# ---------------------------------------------------------------------------
# selfcheck


def selfcheck_setup(src: str, seed: int) -> SimpleNamespace:
    return _read_data(import_mcg(src))


def _selfcheck_lines(mcg: SimpleNamespace):
    """(title, thunk) in the order ``mcg selfcheck`` runs them; a thunk
    returns (ok, detail)."""
    Permutation = mcg.permgroup.Permutation

    def transvection():
        mcg.homology.transvection_selftest()
        return True, ""

    def ncycle(n):
        return Permutation.from_cycles(n, "(" + " ".join(map(str, range(1, n + 1))) + ")")

    def order_is(gens, want):
        got = mcg.permgroup.group_order(gens)
        return got == want, f"order {got}, expected {want}"

    def full_symmetric(n):
        ok, got = mcg.permgroup.certify_full_symmetric([ncycle(n), Permutation.from_cycles(n, "(1 2)")], n)
        return ok and got == math.factorial(n), f"order {got}, expected {n}!"

    yield "transvection self-test", transvection
    models = [mcg.modelfile.load_model(kind, n) for kind, n in CROSS_MODELS]
    for model in models:
        yield f"validate {model.describe()}", lambda m=model: _report(m.validate(SELFCHECK_WINDOW))
        yield f"homology sweep {model.describe()}", lambda m=model: _report(
            mcg.sweeps.homology_property_sweep(m, SELFCHECK_HOMOLOGY_SWEEP_WINDOW)
        )
        yield f"pairing preservation {model.describe()}", lambda m=model: _report(
            mcg.sweeps.pairing_preservation_sweep(m, SELFCHECK_SWEEP_WINDOW)
        )
    yield "BSGS <5-cycle, (1 2)>", lambda: order_is([ncycle(5), Permutation.from_cycles(5, "(1 2)")], math.factorial(5))
    yield "BSGS Klein four-group", lambda: order_is(
        [Permutation.from_cycles(4, "(1 2)(3 4)"), Permutation.from_cycles(4, "(1 3)(2 4)")], 4
    )
    for n in (16, 17):
        yield f"BSGS Sym_{n}", lambda n=n: full_symmetric(n)
    yield "shift-map strip formula", lambda: _report(mcg.shiftmap.check_shift_properties())


def _report(rep) -> tuple[bool, str]:
    return rep.ok, "" if rep.ok else str(rep)


def selfcheck_pass(state: SimpleNamespace, index: int, tracer=None) -> PassResult:
    """One selfcheck sequence. Without a tracer, a line that ends within
    SELFCHECK_LINE_S runs again until its calls have taken that long: its
    latency is its fastest call and the others go to ``surplus_s``, so a
    short line is timed several times a pass, not once. With a tracer every
    line runs once."""
    res = PassResult()
    clock = time.perf_counter
    for i, (title, check) in enumerate(_selfcheck_lines(state.mcg)):
        if tracer is not None:
            tracer.op = i
        calls: list[float] = []
        while not calls or (ok and tracer is None and sum(calls) < SELFCHECK_LINE_S):
            t0 = clock()
            try:
                ok, detail = check()
            except Exception:
                ok, detail = False, "raised:\n" + traceback.format_exc()
                raised = True
            else:
                raised = False
            calls.append(clock() - t0)
        res.decided += not raised
        res.latencies_ms.append(min(calls) * 1000)
        res.surplus_s += sum(calls) - min(calls)
        if not ok:
            res.fail(f"{title}: {detail}")
    return res


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    min_passes: int  # every run makes these; decided_share and peak RSS are read over them


WORKLOADS = {
    "verify-default": Workload(lambda src, seed: verify_setup(src, DEFAULT_RUNS), verify_pass, 10),
    "verify-wide": Workload(lambda src, seed: verify_setup(src, WIDE_RUNS), verify_pass, 10),
    "cross-oracle": Workload(cross_setup, cross_pass, 4),
    "selfcheck": Workload(selfcheck_setup, selfcheck_pass, 3),
}

"""Command-line entry point: verify, selfcheck, shiftmap, project, normalize.

Exit codes: 0 all checks passed, 1 an assertion or property failed (Unknown
verdicts and ``error`` rows included), 2 configuration, parse or model
errors. The rewrite budget (``--budget``, else MCG_BUDGET, else a script's
BUDGET line, else 100000) bounds every search. No flag sets a check's
coverage: the homology oracle compares each pair up to its own displacement
bound, and the validation window and the sampled rows are constants.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from pathlib import Path

from .errors import McgError, decode_utf8
from .homology import TruncatedBasis, transvection_selftest, word_matrix
from .modelfile import load_model, parse_model_file
from .permgroup import Permutation, certify_full_symmetric, group_order, project
from .replay import replay
from .report import render_json, render_text, write_report_dir
from .rewrite import DEFAULT_BUDGET, normalize
from .script import CONVENTIONS_TEXT, ProofScript, parse, read_word
from .shiftmap import check_shift_properties
from .sweeps import homology_property_sweep, pairing_preservation_sweep

BUILTIN_SCRIPTS = ("thmA", "thmB", "thmC", "thmD")
SELFCHECK_WINDOW = 20  # selfcheck validates each model up to this genus or index
SELFCHECK_SWEEP_WINDOW = 12  # and runs its property sweeps up to this one


def _budget(flag: int | None) -> int | None:
    """The rewrite budget set on the command line: the ``--budget`` flag,
    else MCG_BUDGET, else None (a script's BUDGET line, then the default)."""
    source = f"--budget {flag}"
    if flag is None:
        env = os.environ.get("MCG_BUDGET")
        if not env:
            return None
        source = f"MCG_BUDGET={env!r}"
        try:
            flag = int(env)
        except ValueError:
            raise McgError(f"{source}: not an integer") from None
    if flag < 0:
        raise McgError(f"{source}: a budget cannot be negative")
    return flag


def _load_script_text(name: str) -> tuple[str, str]:
    if name in BUILTIN_SCRIPTS:
        return (
            resources.files("mcg.data.scripts").joinpath(name + ".mcg").read_text(encoding="utf-8"),
            name + ".mcg",
        )
    path = Path(name)
    return decode_utf8(path.read_bytes(), str(path)), str(path)


def cmd_verify(args: argparse.Namespace) -> int:
    runs: list[tuple[ProofScript, int | None]] = []
    try:
        budget = _budget(args.budget)
        for name in args.scripts or BUILTIN_SCRIPTS:
            script = parse(*_load_script_text(name))
            if args.n is None and script.kind == "sn" and script.param:
                # a script may declare several default n values (one per parity
                # quirk it wants covered); run all of them
                runs.extend((script, n) for n in script.param.defaults)
            else:
                runs.append((script, args.n))
        reports = []
        for script, n in runs:
            model = None
            if args.model_file:
                model = parse_model_file(args.model_file, n=n if n is not None else script.default_n())
                if model.kind != script.kind:
                    raise McgError(f"model file kind {model.kind!r} does not match the script ({script.kind})")
            reports.append(replay(script, n=n, budget=budget, model=model))
    except (McgError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    text = render_json(reports) if args.format == "json" else render_text(reports)
    if args.quiet and args.format == "text":
        text = "\n".join(
            line for line in text.splitlines() if line.startswith(("==", "  RESULT", "OVERALL"))
        ) + "\n"
    try:
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        if args.report_dir:
            files = write_report_dir(reports, args.report_dir)
            print(f"report files: {', '.join(map(str, files))}", file=sys.stderr)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if all(r.passed for r in reports) else 1


def cmd_selfcheck(args: argparse.Namespace) -> int:
    # a bad model file fails before anything is printed
    if args.model_file:
        models = [parse_model_file(args.model_file, n=args.n)]
    else:
        models = [load_model("sn", 16), load_model("sn", 17), load_model("jacob"), load_model("lochness")]
    failures = 0

    def run(title: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"[{'ok' if ok else 'FAIL'}] {title}" + (f": {detail}" if detail else ""))
        failures += 0 if ok else 1

    try:
        transvection_selftest()
        run("transvection sign convention self-test", True)
    except AssertionError as e:
        run("transvection sign convention self-test", False, str(e))

    for model in models:
        rep = model.validate(SELFCHECK_WINDOW)
        run(f"validate {model.describe()} at window {SELFCHECK_WINDOW}", rep.ok, str(rep) if not rep.ok else "")
        sweep = homology_property_sweep(model, SELFCHECK_SWEEP_WINDOW)
        run(f"homology/intersection sweep {model.describe()}", sweep.ok, str(sweep) if not sweep.ok else "")
        psweep = pairing_preservation_sweep(model, SELFCHECK_SWEEP_WINDOW)
        run(f"pairing preservation {model.describe()}", psweep.ok, str(psweep) if not psweep.ok else "")

    order = group_order(
        [Permutation.from_cycles(5, "(1 2 3 4 5)"), Permutation.from_cycles(5, "(1 2)")]
    )
    run("BSGS order of <5-cycle, transposition> = 120", order == 120, str(order))
    klein = group_order(
        [Permutation.from_cycles(4, "(1 2)(3 4)"), Permutation.from_cycles(4, "(1 3)(2 4)")]
    )
    run("BSGS order of the Klein four-group = 4", klein == 4, str(klein))
    for n in (16, 17, 18, 19):
        ncyc = Permutation.from_cycles(n, "(" + " ".join(map(str, range(1, n + 1))) + ")")
        ok, got = certify_full_symmetric([ncyc, Permutation.from_cycles(n, "(1 2)")], n)
        run(f"BSGS certifies Sym_{n} from n-cycle and transposition", ok, f"order {got}")

    shift = check_shift_properties()
    run("shift-map strip formula", shift.ok, str(shift) if not shift.ok else "")
    return 0 if failures == 0 else 1


def cmd_shiftmap(args: argparse.Namespace) -> int:
    report = check_shift_properties()
    print(report)
    return 0 if report.ok else 1


def cmd_project(args: argparse.Namespace) -> int:
    print(project(read_word(args.word, load_model(args.model, args.n))).cycle_notation())
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    budget = _budget(args.budget)
    w = read_word(args.word, load_model(args.model, args.n))
    # a bad --matrix-window fails before anything is printed
    basis = TruncatedBasis(w.model, args.matrix_window) if args.matrix else None
    res = normalize(w, DEFAULT_BUDGET if budget is None else budget)
    print(res.word if len(res.word) else "ID")
    if args.trace:
        print("trace:", " ".join(res.trace) or "(none)")
        print(f"budget used: {res.budget_used}")
    if not res.normalized:
        print("NOT NORMALIZED: budget exhausted", file=sys.stderr)
        return 1
    if basis is not None:
        m = word_matrix(basis, w)
        print(m.grid())
        print(m.invalid_note())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mcg",
        description="replay and verify generating-set derivations for big mapping class groups",
        epilog=f"conventions: {CONVENTIONS_TEXT}",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="replay proof scripts and verdict every assertion")
    v.add_argument("scripts", nargs="*", help=f"script paths or builtin names {BUILTIN_SCRIPTS}")
    v.add_argument("--n", type=int, default=None, help="end count for sn scripts")
    v.add_argument(
        "--budget", type=int, default=None,
        help="rewrite applications per search, LET reductions included (default: MCG_BUDGET, then the script's BUDGET line, then 100000)",
    )
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--out", default=None, help="write the report here instead of stdout")
    v.add_argument("--report-dir", default=None, help="write report.json and statements.csv here")
    v.add_argument("--model-file", default=None, help="substitute this model file for the builtin model")
    v.add_argument("--quiet", action="store_true", help="print only per-script results")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("selfcheck", help="model validation, oracle self-tests, BSGS sanity")
    s.add_argument("--model-file", default=None, help="validate this model file instead of the builtins")
    s.add_argument("--n", type=int, default=17, help="n for --model-file when it is an sn model")
    s.set_defaults(func=cmd_selfcheck)

    m = sub.add_parser("shiftmap", help="check the strip model of the handle shift exactly")
    m.set_defaults(func=cmd_shiftmap)

    p = sub.add_parser("project", help="print the image of a word in Sym_n")
    p.add_argument("word")
    p.add_argument("--model", choices=("sn", "jacob", "lochness"), default="sn")
    p.add_argument("--n", type=int, default=17)
    p.set_defaults(func=cmd_project)

    nrm = sub.add_parser("normalize", help="print the canonical form of a word")
    nrm.add_argument("word")
    nrm.add_argument("--model", choices=("sn", "jacob", "lochness"), default="sn")
    nrm.add_argument("--n", type=int, default=17)
    nrm.add_argument("--budget", type=int, default=None, help="rewrite applications (default: MCG_BUDGET, then 100000)")
    nrm.add_argument("--trace", action="store_true", help="print the rewrite trace")
    nrm.add_argument("--matrix", action="store_true", help="print the homology matrix grid")
    nrm.add_argument("--matrix-window", type=int, default=4, help="window of the --matrix grid, at least 2")
    nrm.set_defaults(func=cmd_normalize)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except McgError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

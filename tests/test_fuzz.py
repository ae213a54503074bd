"""Mutated copies of the shipped scripts and model files fail only with
``McgError``: a malformed input is reported, never a traceback."""

from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from mcg import load_model
from mcg.errors import McgError
from mcg.modelfile import parse_model_text
from mcg.script import (
    EvalContext,
    SAssertEq,
    SAssertInvolution,
    SAssertProjection,
    SGoalset,
    SLet,
    eval_word,
    parse,
)
from mcg.words import Word

DATA = resources.files("mcg.data")


def _texts(folder: str, suffix: str) -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in (DATA / folder).iterdir() if p.name.endswith(suffix)}


SCRIPTS = _texts("scripts", ".mcg")
MODELS = _texts("models", ".model")
# a tab, a digit str.isdigit accepts but int() cannot read, a non-ASCII
# decimal digit, a non-ASCII letter, a character no token holds, and the
# underscore names may hold
ALPHABET = "0123456789 \n#[](){},;=~^+-*/ABCHhn'\t²٣é$_"


@st.composite
def mutated(draw, texts: dict[str, str]) -> tuple[str, str]:
    """One shipped text with one to three single-character edits."""
    name = draw(st.sampled_from(sorted(texts)))
    text = texts[name]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(ALPHABET))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            text = text[:i] + c + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + c + text[i + 1 :]
    return name, text


def _evaluate(script) -> None:
    """Evaluate every word of the script. ``eval_word`` fails on names,
    labels, indices and powers, never on the letters a name is bound to, so
    each binding keeps only its first letters: unreduced bindings of the
    shipped scripts grow past 500,000 letters."""
    model = load_model(script.kind, script.default_n())
    ctx = EvalContext(model, model.n)
    for stmt in script.statements:
        if isinstance(stmt, SLet):
            w = eval_word(stmt.expr, ctx)
            ctx.env[stmt.name] = Word(model, w.letters[:8])
        elif isinstance(stmt, SAssertEq):
            eval_word(stmt.left, ctx), eval_word(stmt.right, ctx)
        elif isinstance(stmt, (SAssertInvolution, SAssertProjection)):
            eval_word(stmt.expr, ctx)
        elif isinstance(stmt, SGoalset):
            for goal in stmt.goals:
                eval_word(goal, ctx)


@settings(max_examples=120, deadline=None)
@given(case=mutated(SCRIPTS))
def test_mutated_script_fails_only_with_mcg_error(case):
    name, text = case
    try:
        _evaluate(parse(text, name))
    except McgError:
        pass


@settings(max_examples=200, deadline=None)
@given(case=mutated(MODELS), n=st.integers(1, 20))
def test_mutated_model_file_fails_only_with_mcg_error(case, n):
    name, text = case
    try:
        parse_model_text(text, n=n, path=name).validate(2)
    except McgError:
        pass

"""The proof-script language: parser, printer, evaluator.

A script is a line-oriented UTF-8 file (extension ``.mcg``) with a header and
a sequence of statements::

    MODEL sn
    PARAM n DEFAULT 17 PARITY odd MIN 17
    CONVENTIONS 57069111
    COMPOSE rtl

    LET F1 = A[1] C[1] B[4] B~[6] C~[8] A'~[9] h[(n+1)/2+4,(n+1)/2+5]
    ASSERT_EQ CONJ(F1, R^2) = A[3] C[3] B[6] B~[8] C~[10] A'~[11] h[(n+1)/2+6,(n+1)/2+7]
    ASSERT_INVOLUTION rho3 F1
    ASSERT_PROJECTION R = ncycle
    ASSERT_GOALSET { rho1 ; A[1,1] A~[1,2] ; h[1,2] }

Word literals: ``A[i,j]`` (genus, end) on the many-ended model, one index on
the chain models; a single index on the many-ended model means genus 1 (or
genus 0 for the C family) at that end, matching the simplified notation of
the derivations. A tilde before the bracket inverts (``B~[4,2]``), ``h[p,q]``
is the handle shift between two ends, and names refer to primitives
(``R rho1 rho2 tau`` / ``tau1 tau2 H``) or earlier LET bindings.
Juxtaposition composes right-to-left (the rightmost factor acts first);
``CONJ(x, g)`` is ``g x g~``, ``INV(x)`` the inverse, ``ID`` the empty word.
``X^k`` on a name or a group is k copies of X, of X's inverse when k < 0;
``CONJ`` and groups are freely reduced. A word over ``words.MAX_LETTERS``
letters is an ``McgError``, raised before a power would build it.
Index arithmetic allows ``+ - * /`` and the parameter ``n``; divisions must
be exact. End indices wrap modulo n.

Names must be defined before use, each LET name exactly once. The
CONVENTIONS checksum pins the engine conventions a script was written for;
a mismatch is a parse error.
"""

from __future__ import annotations

import re
from typing import NamedTuple
from .errors import InvalidLabel, McgError, ParseError, Redefinition, ScriptError, UndefinedName
from .labels import family_parse, family_print
from .models import SurfaceModel
from .records import Frozen, Record
from .words import MAX_LETTERS, Letter, Shift, Sym, Twist, Word, free_reduce, power

CONVENTIONS_TEXT = "compose=rtl;conj(x,g)=g*x*inv(g);twists=right-handed;order=end,genus,A<A'<B<C"
CONVENTIONS_ID = "57069111"  # the first 8 hex digits of the SHA-256 of CONVENTIONS_TEXT

_PRIMITIVES = {
    "sn": ("R", "rho1", "rho2", "tau"),
    "jacob": ("tau1", "tau2", "H"),
    "lochness": ("tau1", "tau2", "H"),
}


# ---------------------------------------------------------------------------
# index expressions


class INum(NamedTuple):
    value: int

    def eval(self, n: int) -> int:
        return self.value

    def text(self) -> str:
        # negative values arise only as exponents, where "^-4" re-parses
        return str(self.value)


class IVar(Frozen):
    __slots__ = ()

    def eval(self, n: int) -> int:
        return n

    def text(self) -> str:
        return "n"


class IOp(NamedTuple):
    op: str
    left: "IndexExpr"
    right: "IndexExpr"

    def eval(self, n: int) -> int:
        a, b = self.left.eval(n), self.right.eval(n)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if b == 0 or a % b:
            raise InvalidLabel(f"index division {a}/{b} is not exact")
        return a // b

    def text(self) -> str:
        return f"({self.left.text()}{self.op}{self.right.text()})"


IndexExpr = INum | IVar | IOp


# ---------------------------------------------------------------------------
# word expressions


class ECurve(NamedTuple):
    family: str
    inverse: bool
    indices: tuple[IndexExpr, ...]

    def text(self) -> str:
        idx = ",".join(i.text() for i in self.indices)
        return f"{family_print(self.family)}{'~' if self.inverse else ''}[{idx}]"


class EShift(NamedTuple):
    inverse: bool
    ends: tuple[IndexExpr, IndexExpr]

    def text(self) -> str:
        return f"h{'~' if self.inverse else ''}[{self.ends[0].text()},{self.ends[1].text()}]"


class EName(NamedTuple):
    name: str
    inverse: bool
    power: IndexExpr | None

    def text(self) -> str:
        out = self.name + ("~" if self.inverse else "")
        if self.power is not None:
            out += f"^{self.power.text()}"
        return out


class EConj(NamedTuple):
    body: "WordExpr"
    by: "WordExpr"

    def text(self) -> str:
        return f"CONJ({self.body.text()}, {self.by.text()})"


class EInv(NamedTuple):
    body: "WordExpr"

    def text(self) -> str:
        return f"INV({self.body.text()})"


class EGroup(NamedTuple):
    body: "WordExpr"
    inverse: bool
    power: IndexExpr | None

    def text(self) -> str:
        out = f"({self.body.text()})" + ("~" if self.inverse else "")
        if self.power is not None:
            out += f"^{self.power.text()}"
        return out


class EId(Frozen):
    __slots__ = ()

    def text(self) -> str:
        return "ID"


class ESeq(NamedTuple):
    parts: tuple["WordExpr", ...]

    def text(self) -> str:
        return " ".join(p.text() for p in self.parts)


WordExpr = ECurve | EShift | EName | EConj | EInv | EGroup | EId | ESeq


# ---------------------------------------------------------------------------
# statements and scripts


class PermSpec(NamedTuple):
    kind: str  # "ncycle" | "identity" | "cycles"
    cycles: tuple[tuple[int, ...], ...] = ()

    def text(self) -> str:
        if self.kind != "cycles":
            return self.kind
        if not self.cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles)


class SLet(NamedTuple):
    line: int
    name: str
    expr: WordExpr

    def text(self) -> str:
        return f"LET {self.name} = {self.expr.text()}"


class SAssertEq(NamedTuple):
    line: int
    left: WordExpr
    right: WordExpr

    def text(self) -> str:
        return f"ASSERT_EQ {self.left.text()} = {self.right.text()}"


class SAssertInvolution(NamedTuple):
    line: int
    expr: WordExpr

    def text(self) -> str:
        return f"ASSERT_INVOLUTION {self.expr.text()}"


class SAssertProjection(NamedTuple):
    line: int
    expr: WordExpr
    perm: PermSpec

    def text(self) -> str:
        return f"ASSERT_PROJECTION {self.expr.text()} = {self.perm.text()}"


class SGoalset(NamedTuple):
    line: int
    goals: tuple[WordExpr, ...]

    def text(self) -> str:
        return "ASSERT_GOALSET { " + " ; ".join(g.text() for g in self.goals) + " }"


Statement = SLet | SAssertEq | SAssertInvolution | SAssertProjection | SGoalset


class ParamSpec(NamedTuple):
    defaults: tuple[int, ...]
    parity: str | None = None  # "odd" | "even"
    minimum: int | None = None

    @property
    def default(self) -> int:
        return self.defaults[0]

    def check(self, n: int) -> str | None:
        if self.minimum is not None and n < self.minimum:
            return f"n={n} is below the script minimum {self.minimum}"
        if self.parity == "odd" and n % 2 == 0:
            return f"n={n} must be odd for this script"
        if self.parity == "even" and n % 2 == 1:
            return f"n={n} must be even for this script"
        return None

    def text(self) -> str:
        out = "PARAM n DEFAULT " + " ".join(map(str, self.defaults))
        if self.parity:
            out += f" PARITY {self.parity}"
        if self.minimum is not None:
            out += f" MIN {self.minimum}"
        return out


class ProofScript(NamedTuple):
    kind: str
    param: ParamSpec | None
    conventions: str | None
    budget: int | None
    title: str
    statements: tuple[Statement, ...]
    path: str = "<script>"

    def text(self) -> str:
        lines = []
        if self.title:
            lines.append(f"TITLE {self.title}")
        lines.append(f"MODEL {self.kind}")
        if self.param:
            lines.append(self.param.text())
        if self.conventions:
            lines.append(f"CONVENTIONS {self.conventions}")
        lines.append("COMPOSE rtl")
        if self.budget is not None:
            lines.append(f"BUDGET {self.budget}")
        lines.extend(s.text() for s in self.statements)
        return "\n".join(lines) + "\n"

    def default_n(self) -> int | None:
        """n of a run given none; None on the chain models, which fix n."""
        if self.kind != "sn":
            return None
        return self.param.default if self.param else 17

    def key(self) -> tuple:
        """Structural identity, ignoring line numbers (round-trip checks):
        each statement's repr at line 0, which names every nested node's
        type, so nodes of different types never match as plain tuples."""
        return (
            self.kind,
            self.param,
            self.conventions,
            self.budget,
            self.title,
            tuple(repr(s._replace(line=0)) for s in self.statements),
        )


# ---------------------------------------------------------------------------
# tokenizer


# curve and shift openers, names, decimal numbers, then any other single
# character: a symbol, or a character no token may hold
_TOKEN_RE = re.compile(r"(?:A'?|[BCh])~?\[|[A-Za-z_][A-Za-z0-9_]*~?|\d+|\S")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_SYMBOLS = frozenset("[](){},;=~^+-*/")
_WORD_END = frozenset({None, ")", ","})  # None: past the last token
_LEFT_END = _WORD_END | {"="}
_GOAL_END = _WORD_END | {";", "}"}


def _decimal(text: str, line: int, col: int) -> int:
    """A decimal literal, or a positioned error for one longer than the
    interpreter converts (``sys.get_int_max_str_digits``)."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"a {len(text)}-digit number is too long to read", line, col) from None


class _TokenStream:
    """The tokens of one statement's ``text``, whose first character sits at
    0-based column ``col0``, as plain strings ending in a ``None`` sentinel.
    A token's kind is read off its first character: an opener ends in ``[``,
    a name starts with a letter or ``_``, a number with a decimal digit."""

    __slots__ = ("toks", "i", "text", "line", "col0")

    def __init__(self, text: str, line: int, col0: int):
        self.toks: list[str | None] = _TOKEN_RE.findall(text)
        self.i = 0
        self.text = text
        self.line = line
        self.col0 = col0
        for j, tok in enumerate(self.toks):
            c = tok[0]
            if c in _NAME_START or c in _SYMBOLS:
                continue
            if not c.isdecimal():
                raise ParseError(f"unexpected character {tok!r}", line, self.col(j))
            try:
                int(tok)  # later int() calls on the token are safe
            except ValueError:
                _decimal(tok, line, self.col(j))  # raises, at the token's column
        self.toks.append(None)

    def col(self, j: int) -> int:
        """The 1-based column of token ``j``; of the sentinel, the column just
        past the statement's last character. Only whitespace lies between
        tokens, so each token is the next match of its text."""
        if self.toks[j] is None:
            return self.col0 + len(self.text) + 1
        pos = 0
        for tok in self.toks[:j]:
            pos = self.text.index(tok, pos) + len(tok)
        return self.col0 + self.text.index(self.toks[j], pos) + 1

    def error(self, message: str, j: int, cls: type[ScriptError] = ParseError) -> ScriptError:
        return cls(message, self.line, self.col(j))

    def next(self) -> str:
        tok = self.toks[self.i]
        if tok is None:
            raise self.error("unexpected end of statement", self.i)
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok != value:
            raise self.error(f"expected {value!r}, found {tok!r}", self.i - 1)


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str, path: str):
        self.path = path
        self.lines = text.splitlines()
        self.kind: str | None = None
        self.param: ParamSpec | None = None
        self.conventions: str | None = None
        self.budget: int | None = None
        self.title = ""
        self.statements: list[Statement] = []
        self.defined: set[str] = set()

    def parse(self) -> ProofScript:
        for lineno, raw in enumerate(self.lines, start=1):
            stripped = raw.split("#", 1)[0].rstrip()
            if not stripped.strip():
                continue
            self._statement(stripped, lineno)
        if self.kind is None:
            raise ParseError("missing MODEL line", 1, 1)
        return ProofScript(
            self.kind,
            self.param,
            self.conventions,
            self.budget,
            self.title,
            tuple(self.statements),
            self.path,
        )

    def _statement(self, text: str, line: int) -> None:
        # any whitespace ends the keyword; ``text`` has no trailing whitespace
        head, rest = (text.split(None, 1) + [""])[:2]
        key = head.upper()
        rest_col = len(text) - len(rest)  # 0-based, for the tokenizer
        col = rest_col + 1  # 1-based, for errors about the whole of ``rest``
        if key == "TITLE":
            self.title = rest
            return
        if key == "MODEL":
            if self.kind is not None:
                raise ParseError("duplicate MODEL line", line, text.index(head) + 1)
            if rest not in _PRIMITIVES:
                raise ParseError(f"unknown model kind {rest!r}", line, col)
            self.kind = rest
            self.defined.update(_PRIMITIVES[rest])
            return
        if self.kind is None:
            raise ParseError("MODEL must come before other statements", line, text.index(head) + 1)
        if key == "PARAM":
            m = re.fullmatch(
                r"n\s+DEFAULT\s+(\d+(?:\s+\d+)*)(?:\s+PARITY\s+(odd|even))?(?:\s+MIN\s+(\d+))?",
                rest,
                re.IGNORECASE,
            )
            if not m:
                raise ParseError(f"bad PARAM line {rest!r}", line, col)
            self.param = ParamSpec(
                tuple(_decimal(t, line, col) for t in m.group(1).split()),
                m.group(2).lower() if m.group(2) else None,
                _decimal(m.group(3), line, col) if m.group(3) else None,
            )
            return
        if key == "CONVENTIONS":
            if rest != CONVENTIONS_ID:
                raise ParseError(
                    f"conventions checksum {rest!r} does not match this engine ({CONVENTIONS_ID})",
                    line,
                    col,
                )
            self.conventions = rest
            return
        if key == "COMPOSE":
            if rest != "rtl":
                raise ParseError("only COMPOSE rtl (rightmost factor first) is supported", line, col)
            return
        if key == "BUDGET":
            if not rest.isdecimal():
                raise ParseError(f"bad BUDGET {rest!r}", line, col)
            self.budget = _decimal(rest, line, col)
            return
        if key == "LET":
            m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*", rest)
            if not m:
                raise ParseError("LET wants: LET name = word", line, col)
            name, body = m.group(1), rest[m.end() :]
            if name in self.defined:
                raise Redefinition(f"name {name!r} is already defined", line, col)
            expr = self._word_expr(body, line, rest_col + m.end())
            self.defined.add(name)
            self.statements.append(SLet(line, name, expr))
            return
        if key == "ASSERT_EQ":
            s = _TokenStream(rest, line, rest_col)
            left = self._parse_word(s, _LEFT_END)
            s.expect("=")
            right = self._parse_word(s, _WORD_END)
            self._finish(s)
            self.statements.append(SAssertEq(line, left, right))
            return
        if key == "ASSERT_INVOLUTION":
            expr = self._word_expr(rest, line, rest_col)
            self.statements.append(SAssertInvolution(line, expr))
            return
        if key == "ASSERT_PROJECTION":
            s = _TokenStream(rest, line, rest_col)
            expr = self._parse_word(s, _LEFT_END)
            s.expect("=")
            perm = self._perm_spec(s)
            self._finish(s)
            self.statements.append(SAssertProjection(line, expr, perm))
            return
        if key == "ASSERT_GOALSET":
            s = _TokenStream(rest, line, rest_col)
            s.expect("{")
            goals = [self._parse_word(s, _GOAL_END)]
            while s.toks[s.i] == ";":
                s.i += 1
                goals.append(self._parse_word(s, _GOAL_END))
            s.expect("}")
            self._finish(s)
            self.statements.append(SGoalset(line, tuple(goals)))
            return
        raise ParseError(f"unknown statement {head!r}", line, text.index(head) + 1)

    # -- word expressions ----------------------------------------------------

    def _finish(self, s: _TokenStream) -> None:
        if s.toks[s.i] is not None:
            raise s.error(f"trailing input {s.toks[s.i]!r}", s.i)

    def _word_expr(self, text: str, line: int, col0: int) -> WordExpr:
        s = _TokenStream(text, line, col0)
        expr = self._parse_word(s, _WORD_END)
        self._finish(s)
        return expr

    def _parse_word(self, s: _TokenStream, stop: frozenset) -> WordExpr:
        parts: list[WordExpr] = []
        while s.toks[s.i] not in stop:
            parts.append(self._parse_atom(s))
        if not parts:
            raise s.error("empty word (use ID for the identity)", s.i)
        return parts[0] if len(parts) == 1 else ESeq(tuple(parts))

    def _parse_atom(self, s: _TokenStream) -> WordExpr:
        tok = s.next()
        if tok[-1] == "[" and len(tok) > 1:  # a curve or shift opener
            inverse = tok[-2] == "~"
            if tok[0] == "h":
                e1 = self._parse_index(s)
                s.expect(",")
                e2 = self._parse_index(s)
                s.expect("]")
                return EShift(inverse, (e1, e2))
            indices = [self._parse_index(s)]
            if s.toks[s.i] == ",":
                s.i += 1
                indices.append(self._parse_index(s))
            s.expect("]")
            return ECurve(family_parse(tok[: -2 if inverse else -1]), inverse, tuple(indices))
        if tok[0] in _NAME_START:
            inverse = tok[-1] == "~"
            name = tok[:-1] if inverse else tok
            upper = name.upper()
            if upper == "ID":
                return EId()
            if upper == "CONJ":
                s.expect("(")
                body = self._parse_word(s, _WORD_END)
                s.expect(",")
                by = self._parse_word(s, _WORD_END)
                s.expect(")")
                return EConj(body, by)
            if upper == "INV":
                s.expect("(")
                body = self._parse_word(s, _WORD_END)
                s.expect(")")
                return EInv(body)
            if name not in self.defined:
                raise s.error(f"name {name!r} is not defined here", s.i - 1, UndefinedName)
            return EName(name, inverse, self._parse_power(s))
        if tok == "(":
            body = self._parse_word(s, _WORD_END)
            s.expect(")")
            inverse = s.toks[s.i] == "~"
            if inverse:
                s.i += 1
            return EGroup(body, inverse, self._parse_power(s))
        raise s.error(f"unexpected token {tok!r} in word", s.i - 1)

    def _parse_power(self, s: _TokenStream) -> IndexExpr | None:
        if s.toks[s.i] != "^":
            return None
        s.i += 1
        if s.toks[s.i] == "(":
            s.i += 1
            expr = self._parse_index(s)
            s.expect(")")
            return expr
        sign = 1
        if s.toks[s.i] == "-":
            s.i += 1
            sign = -1
        tok = s.next()
        if not tok[0].isdecimal():
            raise s.error("expected an integer exponent", s.i - 1)
        return INum(sign * int(tok))

    # -- index expressions -----------------------------------------------------

    def _parse_index(self, s: _TokenStream) -> IndexExpr:
        expr = self._parse_index_term(s)
        while s.toks[s.i] in ("+", "-"):
            op = s.next()
            expr = IOp(op, expr, self._parse_index_term(s))
        return expr

    def _parse_index_term(self, s: _TokenStream) -> IndexExpr:
        expr = self._parse_index_factor(s)
        while s.toks[s.i] in ("*", "/"):
            op = s.next()
            expr = IOp(op, expr, self._parse_index_factor(s))
        return expr

    def _parse_index_factor(self, s: _TokenStream) -> IndexExpr:
        tok = s.next()
        if tok[0].isdecimal():
            return INum(int(tok))
        if tok == "-":
            return IOp("-", INum(0), self._parse_index_factor(s))
        if tok == "(":
            expr = self._parse_index(s)
            s.expect(")")
            return expr
        if tok == "n":
            return IVar()
        raise s.error(f"unexpected token {tok!r} in an index", s.i - 1)

    def _perm_spec(self, s: _TokenStream) -> PermSpec:
        tok = s.toks[s.i]
        if tok is not None and tok[0] in _NAME_START and tok[-1] != "[":
            s.i += 1
            if tok.lower() in ("ncycle", "identity"):
                return PermSpec(tok.lower())
            raise s.error(f"unknown permutation spec {tok!r}", s.i - 1)
        cycles: list[tuple[int, ...]] = []
        while s.toks[s.i] == "(":
            s.i += 1
            elems: list[int] = []
            while s.toks[s.i] != ")":
                t = s.next()
                if not t[0].isdecimal():
                    raise s.error("cycle entries must be integers", s.i - 1)
                elems.append(int(t))
            s.expect(")")
            if elems:
                cycles.append(tuple(elems))
        if not cycles and s.toks[s.i] is not None:
            raise s.error(f"bad permutation spec near {s.toks[s.i]!r}", s.i)
        return PermSpec("identity") if not cycles else PermSpec("cycles", tuple(cycles))

def parse(text: str, path: str = "<script>") -> ProofScript:
    return _Parser(text, path).parse()


def read_word(text: str, model: SurfaceModel) -> Word:
    """One word typed on its own, in the script grammar over the primitives
    of ``model``: columns count within ``text``, and a line break is an error."""
    head = text.splitlines()[0] if text else ""
    if head != text:
        raise ParseError("a word is one line; found a line break", 1, len(head) + 1)
    parser = _Parser(text, "<word>")
    parser.defined.update(_PRIMITIVES[model.kind])
    return eval_word(parser._word_expr(text, 1, 0), EvalContext(model, model.n))


# ---------------------------------------------------------------------------
# evaluation


class EvalContext(Record):
    __slots__ = _fields = ("model", "n", "env", "failed")

    def __init__(self, model: SurfaceModel, n: int, env: dict[str, Word] | None = None, failed: dict | None = None):
        self.model = model
        self.n = n
        self.env = {} if env is None else env
        self.failed = {} if failed is None else failed  # LET name -> line, when its binding failed


def eval_word(expr: WordExpr, ctx: EvalContext) -> Word:
    return Word(ctx.model, _letters(expr, ctx))


def _power(letters: tuple[Letter, ...], k: int, expr: WordExpr) -> tuple[Letter, ...]:
    """``words.power(letters, k)``, or an ``McgError`` naming ``expr`` before
    a word longer than ``MAX_LETTERS`` is built. A node that may grow is its
    own first power."""
    count = len(letters) * abs(k)
    if count > MAX_LETTERS:
        text = expr.text() if len(expr.text()) <= 60 else expr.text()[:57] + "..."
        raise McgError(f"{text} has {count} letters, more than the {MAX_LETTERS}-letter bound on a word")
    return power(letters, k)


def _letters(expr: WordExpr, ctx: EvalContext) -> tuple[Letter, ...]:
    model, n = ctx.model, ctx.n
    if isinstance(expr, ESeq):
        return _power(tuple(g for part in expr.parts for g in _letters(part, ctx)), 1, expr)
    if isinstance(expr, EId):
        return ()
    if isinstance(expr, ECurve):
        vals = [i.eval(n) for i in expr.indices]
        if model.kind == "sn" and len(vals) == 1:
            genus = 0 if expr.family == "C" else 1
            vals = [genus, vals[0]]
        label = model.curve(expr.family, *vals)
        return (Twist(label, -1 if expr.inverse else 1),)
    if isinstance(expr, EShift):
        label, sign = model.shift(expr.ends[0].eval(n), expr.ends[1].eval(n))
        return (Shift(label, -sign if expr.inverse else sign),)
    if isinstance(expr, (EName, EGroup)):
        exp = expr.power.eval(n) if expr.power is not None else 1
        exp = -exp if expr.inverse else exp
        if isinstance(expr, EGroup):
            return free_reduce(_power(_letters(expr.body, ctx), exp, expr))
        bound = ctx.env.get(expr.name)
        if bound is not None:
            return _power(bound.letters, exp, expr)
        if expr.name in ctx.failed:
            raise McgError(f"name {expr.name!r} has no value: LET {expr.name} at line {ctx.failed[expr.name]} failed")
        if expr.name in model.symmetries:
            return (Sym(expr.name, exp),) if exp else ()
        alias = model.aliases.get(expr.name)
        if alias is not None:
            return _power(alias, exp, expr)
        raise McgError(f"name {expr.name!r} has no value in the {model.describe()} model")
    if isinstance(expr, EConj):
        body, by = _letters(expr.body, ctx), _letters(expr.by, ctx)
        return _power(free_reduce(by + body + power(by, -1)), 1, expr)
    if isinstance(expr, EInv):
        return power(_letters(expr.body, ctx), -1)
    raise TypeError(f"unhandled expression {expr!r}")

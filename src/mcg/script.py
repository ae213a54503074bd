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
from dataclasses import dataclass, field
from typing import NamedTuple
from .errors import InvalidLabel, McgError, ParseError, Redefinition, UndefinedName
from .labels import family_parse, family_print
from .models import SurfaceModel
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


@dataclass(frozen=True)
class INum:
    value: int

    def eval(self, n: int) -> int:
        return self.value

    def text(self) -> str:
        # negative values arise only as exponents, where "^-4" re-parses
        return str(self.value)


@dataclass(frozen=True)
class IVar:
    def eval(self, n: int) -> int:
        return n

    def text(self) -> str:
        return "n"


@dataclass(frozen=True)
class IOp:
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


@dataclass(frozen=True)
class ECurve:
    family: str
    inverse: bool
    indices: tuple[IndexExpr, ...]

    def text(self) -> str:
        idx = ",".join(i.text() for i in self.indices)
        return f"{family_print(self.family)}{'~' if self.inverse else ''}[{idx}]"


@dataclass(frozen=True)
class EShift:
    inverse: bool
    ends: tuple[IndexExpr, IndexExpr]

    def text(self) -> str:
        return f"h{'~' if self.inverse else ''}[{self.ends[0].text()},{self.ends[1].text()}]"


@dataclass(frozen=True)
class EName:
    name: str
    inverse: bool
    power: IndexExpr | None

    def text(self) -> str:
        out = self.name + ("~" if self.inverse else "")
        if self.power is not None:
            out += f"^{self.power.text()}"
        return out


@dataclass(frozen=True)
class EConj:
    body: "WordExpr"
    by: "WordExpr"

    def text(self) -> str:
        return f"CONJ({self.body.text()}, {self.by.text()})"


@dataclass(frozen=True)
class EInv:
    body: "WordExpr"

    def text(self) -> str:
        return f"INV({self.body.text()})"


@dataclass(frozen=True)
class EGroup:
    body: "WordExpr"
    inverse: bool
    power: IndexExpr | None

    def text(self) -> str:
        out = f"({self.body.text()})" + ("~" if self.inverse else "")
        if self.power is not None:
            out += f"^{self.power.text()}"
        return out


@dataclass(frozen=True)
class EId:
    def text(self) -> str:
        return "ID"


@dataclass(frozen=True)
class ESeq:
    parts: tuple["WordExpr", ...]

    def text(self) -> str:
        return " ".join(p.text() for p in self.parts)


WordExpr = ECurve | EShift | EName | EConj | EInv | EGroup | EId | ESeq


# ---------------------------------------------------------------------------
# statements and scripts


@dataclass(frozen=True)
class PermSpec:
    kind: str  # "ncycle" | "identity" | "cycles"
    cycles: tuple[tuple[int, ...], ...] = ()

    def text(self) -> str:
        if self.kind != "cycles":
            return self.kind
        if not self.cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles)


@dataclass(frozen=True)
class SLet:
    line: int
    name: str
    expr: WordExpr

    def text(self) -> str:
        return f"LET {self.name} = {self.expr.text()}"


@dataclass(frozen=True)
class SAssertEq:
    line: int
    left: WordExpr
    right: WordExpr

    def text(self) -> str:
        return f"ASSERT_EQ {self.left.text()} = {self.right.text()}"


@dataclass(frozen=True)
class SAssertInvolution:
    line: int
    expr: WordExpr

    def text(self) -> str:
        return f"ASSERT_INVOLUTION {self.expr.text()}"


@dataclass(frozen=True)
class SAssertProjection:
    line: int
    expr: WordExpr
    perm: PermSpec

    def text(self) -> str:
        return f"ASSERT_PROJECTION {self.expr.text()} = {self.perm.text()}"


@dataclass(frozen=True)
class SGoalset:
    line: int
    goals: tuple[WordExpr, ...]

    def text(self) -> str:
        return "ASSERT_GOALSET { " + " ; ".join(g.text() for g in self.goals) + " }"


Statement = SLet | SAssertEq | SAssertInvolution | SAssertProjection | SGoalset


@dataclass(frozen=True)
class ParamSpec:
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


@dataclass(frozen=True)
class ProofScript:
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
        """Structural identity, ignoring line numbers (round-trip checks)."""

        def strip(s: Statement):
            d = s.__dict__.copy()
            d.pop("line", None)
            return (type(s).__name__, tuple(sorted(d.items(), key=lambda kv: kv[0], reverse=False)))

        return (
            self.kind,
            self.param,
            self.conventions,
            self.budget,
            self.title,
            tuple(strip(s) for s in self.statements),
        )


# ---------------------------------------------------------------------------
# tokenizer


_TOKEN_RE = re.compile(
    r"""(?P<curve>(?:A'|A|B|C)~?\[)
      | (?P<shift>h~?\[)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*~?)
      | (?P<int>\d+)
      | (?P<sym>[\[\](){},;=~^+\-*/])
      | (?P<ws>\s+)
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


def _decimal(text: str, line: int, col: int) -> int:
    """A decimal literal, or a positioned error for one longer than the
    interpreter converts (``sys.get_int_max_str_digits``)."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"a {len(text)}-digit number is too long to read", line, col) from None


def _tokenize(text: str, line: int, col0: int = 0) -> list[Token]:
    out: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        value, col = m.group(), col0 + m.start() + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line, col)
        if kind == "int":
            _decimal(value, line, col)  # later int() calls on the token are safe
        out.append(Token(kind, value, line, col))
    return out


class _TokenStream:
    def __init__(self, tokens: list[Token], line: int, end: int):
        self.tokens = tokens
        self.i = 0
        self.line = line
        self.end = end  # the column just past the statement's last character

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of statement", self.line, self.end)
        self.i += 1
        return tok

    def expect(self, value: str) -> Token:
        tok = self.next()
        if tok.value != value:
            raise ParseError(f"expected {value!r}, found {tok.value!r}", tok.line, tok.col)
        return tok

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.value == value

    def done(self) -> bool:
        return self.i >= len(self.tokens)


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
            stream = self._stream(rest, line, rest_col)
            left = self._parse_word(stream, stop={"="})
            stream.expect("=")
            right = self._parse_word(stream, stop=set())
            self._finish(stream)
            self.statements.append(SAssertEq(line, left, right))
            return
        if key == "ASSERT_INVOLUTION":
            expr = self._word_expr(rest, line, rest_col)
            self.statements.append(SAssertInvolution(line, expr))
            return
        if key == "ASSERT_PROJECTION":
            stream = self._stream(rest, line, rest_col)
            expr = self._parse_word(stream, stop={"="})
            stream.expect("=")
            perm = self._perm_spec(stream)
            self._finish(stream)
            self.statements.append(SAssertProjection(line, expr, perm))
            return
        if key == "ASSERT_GOALSET":
            stream = self._stream(rest, line, rest_col)
            stream.expect("{")
            goals = [self._parse_word(stream, stop={";", "}"})]
            while stream.at(";"):
                stream.next()
                goals.append(self._parse_word(stream, stop={";", "}"}))
            stream.expect("}")
            self._finish(stream)
            self.statements.append(SGoalset(line, tuple(goals)))
            return
        raise ParseError(f"unknown statement {head!r}", line, text.index(head) + 1)

    # -- word expressions ----------------------------------------------------

    def _stream(self, text: str, line: int, col0: int) -> _TokenStream:
        return _TokenStream(_tokenize(text, line, col0), line, col0 + len(text) + 1)

    def _finish(self, stream: _TokenStream) -> None:
        if not stream.done():
            tok = stream.peek()
            raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)

    def _word_expr(self, text: str, line: int, col0: int) -> WordExpr:
        stream = self._stream(text, line, col0)
        expr = self._parse_word(stream, stop=set())
        self._finish(stream)
        return expr

    def _parse_word(self, stream: _TokenStream, stop: set[str]) -> WordExpr:
        parts: list[WordExpr] = []
        while not stream.done():
            tok = stream.peek()
            if tok.value in stop or tok.value in (")", ","):
                break
            parts.append(self._parse_atom(stream))
        if not parts:
            tok = stream.peek()
            line, col = (tok.line, tok.col) if tok else (stream.line, stream.end)
            raise ParseError("empty word (use ID for the identity)", line, col)
        return parts[0] if len(parts) == 1 else ESeq(tuple(parts))

    def _parse_atom(self, stream: _TokenStream) -> WordExpr:
        tok = stream.next()
        if tok.kind == "curve":
            fam_txt = tok.value.rstrip("[").rstrip("~")
            inverse = "~" in tok.value
            indices = [self._parse_index(stream)]
            if stream.at(","):
                stream.next()
                indices.append(self._parse_index(stream))
            stream.expect("]")
            return ECurve(family_parse(fam_txt), inverse, tuple(indices))
        if tok.kind == "shift":
            inverse = "~" in tok.value
            e1 = self._parse_index(stream)
            stream.expect(",")
            e2 = self._parse_index(stream)
            stream.expect("]")
            return EShift(inverse, (e1, e2))
        if tok.kind == "name":
            name = tok.value
            inverse = name.endswith("~")
            name = name.rstrip("~")
            upper = name.upper()
            if upper == "ID":
                return EId()
            if upper == "CONJ":
                stream.expect("(")
                body = self._parse_word(stream, stop=set())
                stream.expect(",")
                by = self._parse_word(stream, stop=set())
                stream.expect(")")
                return EConj(body, by)
            if upper == "INV":
                stream.expect("(")
                body = self._parse_word(stream, stop=set())
                stream.expect(")")
                return EInv(body)
            if name not in self.defined:
                raise UndefinedName(f"name {name!r} is not defined here", tok.line, tok.col)
            power = self._parse_power(stream)
            return EName(name, inverse, power)
        if tok.value == "(":
            body = self._parse_word(stream, stop=set())
            stream.expect(")")
            inverse = False
            if stream.at("~"):
                stream.next()
                inverse = True
            power = self._parse_power(stream)
            return EGroup(body, inverse, power)
        raise ParseError(f"unexpected token {tok.value!r} in word", tok.line, tok.col)

    def _parse_power(self, stream: _TokenStream) -> IndexExpr | None:
        if not stream.at("^"):
            return None
        stream.next()
        tok = stream.peek()
        if tok is not None and tok.value == "(":
            stream.next()
            expr = self._parse_index(stream)
            stream.expect(")")
            return expr
        if tok is not None and tok.value == "-":
            stream.next()
            inner = stream.next()
            if inner.kind != "int":
                raise ParseError("expected an integer exponent", inner.line, inner.col)
            return INum(-int(inner.value))
        tok = stream.next()
        if tok.kind != "int":
            raise ParseError("expected an integer exponent", tok.line, tok.col)
        return INum(int(tok.value))

    # -- index expressions -----------------------------------------------------

    def _parse_index(self, stream: _TokenStream) -> IndexExpr:
        expr = self._parse_index_term(stream)
        while stream.at("+") or stream.at("-"):
            op = stream.next().value
            expr = IOp(op, expr, self._parse_index_term(stream))
        return expr

    def _parse_index_term(self, stream: _TokenStream) -> IndexExpr:
        expr = self._parse_index_factor(stream)
        while stream.at("*") or stream.at("/"):
            op = stream.next().value
            expr = IOp(op, expr, self._parse_index_factor(stream))
        return expr

    def _parse_index_factor(self, stream: _TokenStream) -> IndexExpr:
        tok = stream.next()
        if tok.value == "-":
            inner = self._parse_index_factor(stream)
            return IOp("-", INum(0), inner)
        if tok.value == "(":
            expr = self._parse_index(stream)
            stream.expect(")")
            return expr
        if tok.kind == "int":
            return INum(int(tok.value))
        if tok.value == "n":
            return IVar()
        raise ParseError(f"unexpected token {tok.value!r} in an index", tok.line, tok.col)

    def _perm_spec(self, stream: _TokenStream) -> PermSpec:
        tok = stream.peek()
        if tok is not None and tok.kind == "name":
            stream.next()
            word_ = tok.value.lower()
            if word_ in ("ncycle", "identity"):
                return PermSpec(word_)
            raise ParseError(f"unknown permutation spec {tok.value!r}", tok.line, tok.col)
        cycles: list[tuple[int, ...]] = []
        while stream.at("("):
            stream.next()
            elems: list[int] = []
            while not stream.at(")"):
                t = stream.next()
                if t.kind != "int":
                    raise ParseError("cycle entries must be integers", t.line, t.col)
                elems.append(int(t.value))
            stream.expect(")")
            if elems:
                cycles.append(tuple(elems))
        if not cycles and not stream.done():
            tok = stream.peek()
            raise ParseError(f"bad permutation spec near {tok.value!r}", tok.line, tok.col)
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


@dataclass
class EvalContext:
    model: SurfaceModel
    n: int
    env: dict[str, Word] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)  # LET name -> line, when its binding failed


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

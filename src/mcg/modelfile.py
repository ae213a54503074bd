"""Line-oriented parser for surface model files.

A model file declares its kind, the adjacency rules of the standard curve
system, and the primitive symmetries. Adjacency rules are pattern based::

    adj C[i,j] B[i+1,j]      # every C meets the next B on its strand
    adj C[0,j] B[1,j+1]      # the genus-0 C closes up around the ends

Each index is the variable plus a constant on both sides, or a constant on
both; a line compiles to one ``models.Adjacency`` record per direction.

Symmetries are affine index maps, optionally exchanging A with A', and
compile to ``models.Symmetry`` records::

    sym R end j -> j+1
    sym rho1 end j -> 2-j swap
    sym tau perm (1 2)

Each kind takes one sort of map: ``end`` maps (variable ``j``) on ``sn``,
``chain`` maps (variable ``k``) on ``jacob`` and ``lochness``; ``perm``
lines fit every kind. ``lochness`` has no A' family, so its maps cannot
``swap``.

``alias`` lines name products of the symmetries and aliases declared above
them (the distinguished handle shift of the chain models), stored expanded
to primitive symmetries::

    alias H = tau2 tau1

All errors carry the file path and line number.
"""

from __future__ import annotations

import re
from importlib import resources

from .errors import McgError, ModelFileError, decode_utf8
from .labels import family_parse
from .models import Adjacency, Automorphism, SurfaceModel, Symmetry
from .permgroup import Permutation
from .words import MAX_LETTERS, Sym, power

_LABEL_RE = re.compile(r"^(A'|A|B|C)\[([^\]]*)\]$")
_NAME_EXP_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(~)?(?:\^(-?\d+))?$")
_Word = tuple[Sym, ...]


def _decimal(text: str, where: tuple[str, int]) -> int:
    """A decimal literal, or a positioned error for one longer than the
    interpreter converts (``sys.get_int_max_str_digits``)."""
    try:
        return int(text)
    except ValueError:
        raise ModelFileError(f"a {len(text.lstrip('-'))}-digit number is too long to read", *where) from None


def _affine(expr: str, n: int | None, var: str, where: tuple[str, int]) -> tuple[int, int]:
    """Parse ``u*var + v`` with u in {-1, 0, +1}; ``n`` is substituted numerically."""
    path, line = where
    compact = expr.replace(" ", "")
    if not re.fullmatch(r"[A-Za-z0-9+\-]*", compact):
        raise ModelFileError(f"unexpected characters in index map {expr!r}", path, line)
    tokens = re.findall(r"[A-Za-z]+|\d+|[+\-]", compact)
    u, v, sign = 0, 0, 1
    seen_term = False
    for tok in tokens:
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        elif tok.isdigit():
            v += sign * _decimal(tok, where)
            seen_term = True
        elif tok == var:
            u += sign
            seen_term = True
        elif tok == "n":
            if n is None:
                raise ModelFileError("'n' used in a model without an n parameter", path, line)
            v += sign * n
            seen_term = True
        else:
            raise ModelFileError(f"unexpected token {tok!r} in index map {expr!r}", path, line)
    if not seen_term or u not in (-1, 0, 1):
        raise ModelFileError(f"cannot read {expr!r} as an affine index map", path, line)
    return u, v


def _index_maps(text: str, kind: str, where: tuple[str, int]) -> tuple[str, list[tuple[int, int]]]:
    """The family of one side of an ``adj`` line and its ``(u, v)`` index
    maps: ``(1, v)`` for the rule variable plus v, ``(0, v)`` for the constant v."""
    m = _LABEL_RE.match(text)
    if not m:
        raise ModelFileError(f"bad label pattern {text!r}", *where)
    parts = [p for p in m.group(2).split(",") if p.strip()]
    variables = ("i", "j") if kind == "sn" else ("k",)
    if len(parts) != len(variables):
        shape = "sn patterns need [genus,end]" if kind == "sn" else "chain patterns take one index"
        raise ModelFileError(f"{text!r}: {shape}", *where)
    maps = []
    for part, var in zip(parts, variables):
        u, v = _affine(part, None, var, where)
        if u == -1:
            raise ModelFileError(f"adjacency patterns must use {var} with coefficient 1", *where)
        maps.append((u, v))
    return family_parse(m.group(1)), maps  # type: ignore[return-value]


def _alias_word(name: str, text: str, syms: dict, aliases: dict[str, _Word], where: tuple[str, int]) -> _Word:
    """The alias ``name = text`` as primitive ``Sym`` letters, zero
    exponents dropped: ``X^k`` is ``words.power`` of alias X's word, as in a
    script. Naming only what is declared above keeps aliases acyclic."""
    out: list[Sym] = []
    for tok in text.split():
        m = _NAME_EXP_RE.match(tok)
        if not m:
            raise ModelFileError(f"bad symmetry word token {tok!r}", *where)
        sym, exp = m.group(1), _decimal(m.group(3), where) if m.group(3) else 1
        if m.group(2):
            exp = -exp
        part = aliases.get(sym)
        if sym in syms:  # one letter, dropped when its exponent is 0
            part, exp = (Sym(sym, exp),), int(exp != 0)
        elif part is None:
            raise ModelFileError(f"alias {name!r} names {sym!r}, which is not declared above it", *where)
        if len(out) + len(part) * abs(exp) > MAX_LETTERS:
            raise ModelFileError(f"alias {name!r} expands to more than {MAX_LETTERS} letters", *where)
        out.extend(power(part, exp))
    return tuple(out)


def parse_model_text(text: str, n: int | None = None, path: str = "<model>") -> SurfaceModel:
    kind: str | None = None
    adjacency: dict[str, list[Adjacency]] = {}
    symmetries: dict[str, Symmetry] = {}
    aliases: dict[str, _Word] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = (path, lineno)
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        head, rest = fields[0], (fields[1] if len(fields) > 1 else "")
        if head == "kind":
            if kind is not None:
                raise ModelFileError("duplicate kind line", path, lineno)
            if rest not in ("sn", "jacob", "lochness"):
                raise ModelFileError(f"unknown model kind {rest!r}", path, lineno)
            kind = rest
            if kind == "jacob":
                n = 2
            elif kind == "lochness":
                n = 1
            elif n is None:
                raise ModelFileError("sn model requires the n parameter", path, lineno)
            elif n < 3:
                raise ModelFileError(f"sn model needs n >= 3, got {n}", path, lineno)
        elif head == "adj":
            if kind is None:
                raise ModelFileError("adj before kind", path, lineno)
            parts = rest.split()
            if len(parts) != 2:
                raise ModelFileError(f"adj wants two label patterns, got {rest!r}", path, lineno)
            left, lmaps = _index_maps(parts[0], kind, where)
            right, rmaps = _index_maps(parts[1], kind, where)
            forward, backward = [], []
            for index, (ul, vl), (ur, vr) in zip(("genus", "end"), lmaps, rmaps):
                if ul != ur:
                    msg = f"{rest!r}: the {index} index must be a variable on both sides or a constant on both"
                    raise ModelFileError(msg, *where)
                forward.append((None, vr - vl) if ul else (vl, vr))
                backward.append((None, vl - vr) if ul else (vr, vl))
            adjacency.setdefault(left, []).append(Adjacency(left, right, *forward))
            adjacency.setdefault(right, []).append(Adjacency(right, left, *backward))
        elif head == "sym":
            if kind is None:
                raise ModelFileError("sym before kind", path, lineno)
            m = re.match(r"^(\w+)\s+(end|chain|perm)\s+(.*)$", rest)
            if not m:
                raise ModelFileError(f"bad sym line {rest!r}", path, lineno)
            name, sort, spec = m.groups()
            if name in symmetries or name in aliases:
                raise ModelFileError(f"symmetry {name!r} already declared", path, lineno)
            if sort == "perm":
                try:
                    perm = Permutation.from_cycles(n, spec)
                except McgError as e:
                    raise ModelFileError(str(e), path, lineno) from None
                symmetries[name] = Symmetry(None, perm.images)
                continue
            if (sort == "end") != (kind == "sn"):
                takes = "end maps" if kind == "sn" else "chain maps"
                raise ModelFileError(f"sym {sort} maps do not apply to kind {kind}, which takes {takes}", path, lineno)
            swap = False
            if spec.endswith("swap"):
                if kind == "lochness":
                    raise ModelFileError("kind lochness has no A' family, so its sym maps cannot swap", path, lineno)
                swap, spec = True, spec[: -len("swap")].strip()
            mm = re.match(r"^([a-z])\s*->\s*(.+)$", spec)
            if not mm:
                raise ModelFileError(f"bad index map in sym line: {spec!r}", path, lineno)
            var, expr = mm.groups()
            expected = "j" if sort == "end" else "k"
            if var != expected:
                raise ModelFileError(f"sym {sort} maps use variable {expected!r}", path, lineno)
            u, v = _affine(expr, n, var, where)
            if u == 0:
                raise ModelFileError(f"index map {expr!r} is not invertible", path, lineno)
            action = Automorphism(kind, n, u, v, swap)  # type: ignore[arg-type]
            symmetries[name] = Symmetry(action, action.end_permutation())
        elif head == "alias":
            mm = re.match(r"^(\w+)\s*=\s*(.+)$", rest)
            if not mm:
                raise ModelFileError(f"bad alias line {rest!r}", path, lineno)
            name = mm.group(1)
            if name in symmetries or name in aliases:
                raise ModelFileError(f"alias {name!r} already declared", path, lineno)
            aliases[name] = _alias_word(name, mm.group(2), symmetries, aliases, where)
        else:
            raise ModelFileError(f"unknown directive {head!r}", path, lineno)

    if kind is None:
        raise ModelFileError("missing kind line", path, 1)
    assert n is not None
    return SurfaceModel(kind, n, {f: tuple(r) for f, r in adjacency.items()}, symmetries, aliases)


def parse_model_file(path: str, n: int | None = None) -> SurfaceModel:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ModelFileError(f"cannot read the model file: {e.strerror or e}", path, 0) from None
    return parse_model_text(decode_utf8(data, path), n=n, path=path)


def builtin_model_text(kind: str) -> str:
    fname = {"sn": "sn.model", "jacob": "jacob.model", "lochness": "lochness.model"}[kind]
    return resources.files("mcg.data.models").joinpath(fname).read_text(encoding="utf-8")


def load_model(kind: str, n: int | None = None) -> SurfaceModel:
    """Instantiate a shipped model (``sn`` needs n; the others fix it)."""
    return parse_model_text(builtin_model_text(kind), n=n, path=f"builtin:{kind}")

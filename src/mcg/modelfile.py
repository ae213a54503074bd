"""Line-oriented parser for surface model files.

A model file declares its kind, the adjacency rules of the standard curve
system, and the primitive symmetries. Adjacency rules are pattern based::

    adj C[i,j] B[i+1,j]      # every C meets the next B on its strand
    adj C[0,j] B[1,j+1]      # the genus-0 C closes up around the ends

Symmetries are affine index maps, optionally exchanging A with A'::

    sym R end j -> j+1
    sym rho1 end j -> 2-j swap
    sym tau perm (1 2)

``alias`` lines define named products of primitives (the distinguished
handle shift of the chain models)::

    alias H = tau2 tau1

All errors carry the file path and line number.
"""

from __future__ import annotations

import re
from importlib import resources

from .errors import McgError, ModelFileError
from .labels import family_parse
from .models import AdjacencyRule, IndexPattern, LabelPattern, SurfaceModel, SymmetrySpec
from .permgroup import Permutation

_LABEL_RE = re.compile(r"^(A'|A|B|C)\[([^\]]*)\]$")
_NAME_EXP_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(~)?(?:\^(-?\d+))?$")


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


def _index_pattern(expr: str, var: str, where: tuple[str, int]) -> IndexPattern:
    u, v = _affine(expr, None, var, where)
    if u == 0:
        return IndexPattern("const", v)
    if u != 1:
        raise ModelFileError(f"adjacency patterns must use {var} with coefficient 1", *where)
    return IndexPattern("var", v)


def _label_pattern(text: str, kind: str, where: tuple[str, int]) -> LabelPattern:
    path, line = where
    m = _LABEL_RE.match(text)
    if not m:
        raise ModelFileError(f"bad label pattern {text!r}", path, line)
    fam = family_parse(m.group(1))
    parts = [p for p in m.group(2).split(",") if p.strip()]
    if kind == "sn":
        if len(parts) != 2:
            raise ModelFileError(f"{text!r}: sn patterns need [genus,end]", path, line)
        return LabelPattern(fam, _index_pattern(parts[0], "i", where), _index_pattern(parts[1], "j", where))
    if len(parts) != 1:
        raise ModelFileError(f"{text!r}: chain patterns take one index", path, line)
    return LabelPattern(fam, _index_pattern(parts[0], "k", where), None)


def _name_word(text: str, where: tuple[str, int]) -> tuple[tuple[str, int], ...]:
    out = []
    for tok in text.split():
        m = _NAME_EXP_RE.match(tok)
        if not m:
            raise ModelFileError(f"bad symmetry word token {tok!r}", *where)
        exp = _decimal(m.group(3), where) if m.group(3) else 1
        if m.group(2):
            exp = -exp
        out.append((m.group(1), exp))
    return tuple(out)


def parse_model_text(text: str, n: int | None = None, path: str = "<model>") -> SurfaceModel:
    kind: str | None = None
    rules: list[AdjacencyRule] = []
    symmetries: dict[str, SymmetrySpec] = {}
    aliases: dict[str, tuple[tuple[str, int], ...]] = {}

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
            left = _label_pattern(parts[0], kind, where)
            right = _label_pattern(parts[1], kind, where)
            for index, a, b in (("genus", left.genus, right.genus), ("end", left.end, right.end)):
                if a is not None and a.kind != b.kind:  # type: ignore[union-attr]
                    msg = f"{rest!r}: the {index} index must be a variable on both sides or a constant on both"
                    raise ModelFileError(msg, *where)
            rules.append(AdjacencyRule(left, right))
        elif head == "sym":
            if kind is None:
                raise ModelFileError("sym before kind", path, lineno)
            m = re.match(r"^(\w+)\s+(end|chain|perm)\s+(.*)$", rest)
            if not m:
                raise ModelFileError(f"bad sym line {rest!r}", path, lineno)
            name, sort, spec = m.groups()
            if name in symmetries:
                raise ModelFileError(f"symmetry {name!r} already declared", path, lineno)
            if sort == "perm":
                try:
                    perm = Permutation.from_cycles(n, spec)
                except McgError as e:
                    raise ModelFileError(str(e), path, lineno) from None
                symmetries[name] = SymmetrySpec(name, "perm", perm=perm.images)
                continue
            swap = False
            if spec.endswith("swap"):
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
            symmetries[name] = SymmetrySpec(name, "affine", u=u, v=v, swap=swap)
        elif head == "alias":
            mm = re.match(r"^(\w+)\s*=\s*(.+)$", rest)
            if not mm:
                raise ModelFileError(f"bad alias line {rest!r}", path, lineno)
            aliases[mm.group(1)] = _name_word(mm.group(2), where)
        else:
            raise ModelFileError(f"unknown directive {head!r}", path, lineno)

    if kind is None:
        raise ModelFileError("missing kind line", path, 1)
    assert n is not None
    return SurfaceModel(kind, n, tuple(rules), symmetries, aliases)


def parse_model_file(path: str, n: int | None = None) -> SurfaceModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ModelFileError(f"cannot read the model file: {e.strerror or e}", path, 0) from None
    return parse_model_text(text, n=n, path=path)


def builtin_model_text(kind: str) -> str:
    fname = {"sn": "sn.model", "jacob": "jacob.model", "lochness": "lochness.model"}[kind]
    return resources.files("mcg.data.models").joinpath(fname).read_text(encoding="utf-8")


def load_model(kind: str, n: int | None = None) -> SurfaceModel:
    """Instantiate a shipped model (``sn`` needs n; the others fix it)."""
    return parse_model_text(builtin_model_text(kind), n=n, path=f"builtin:{kind}")

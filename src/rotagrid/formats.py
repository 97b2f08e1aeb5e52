"""Line-based text formats for matroids and grid instances, plus digests.

Both formats are UTF-8, whitespace-tokenized, with ``#`` starting a comment.
Serialization is canonical: sorted element indices inside every set, LF line
endings, single-space token separation, and normalized rationals, so equal
objects serialize byte-identically on every platform and content digests
are stable.

Matroid file::

    MATROID v1
    NAME <string>
    GROUND <m>
    TYPE LINEAR|GRAPHIC|BASES
    # LINEAR:  DIM <d> then d lines  ROW <m rationals (a or a/b, b > 0)>
    # GRAPHIC: VERTICES <v> then m lines  EDGE <u> <w>   (element order)
    # BASES:   RANK <r> then lines  BASIS <r element indices>

Grid-instance file::

    GRIDINSTANCE v1
    MATROID <relative path>
    ROWS <n>
    COLS <k>
    INDEPENDENCE REQUIRED|NOT_REQUIRED
    ROW <i>: <zero or more element indices>     (n lines)
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from pathlib import Path

from .grid import NOT_REQUIRED, REQUIRED, GridInstance
from .matroid import (BasesRep, GraphicRep, LinearRep, MatroidOracle,
                      find_exchange_violation)


class FormatError(ValueError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Lines:
    def __init__(self, text: str):
        self.items: list[tuple[int, list[str]]] = []
        for no, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0]
            toks = body.split()
            if toks:
                self.items.append((no, toks))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def take(self, keyword: str) -> tuple[int, list[str]]:
        item = self.peek()
        if item is None:
            raise FormatError(self.items[-1][0] if self.items else 1,
                              f"unexpected end of file, expected {keyword}")
        no, toks = item
        if toks[0] != keyword:
            raise FormatError(no, f"expected {keyword}, found {_shown(toks[0])}")
        self.pos += 1
        return no, toks

    def take_int(self, keyword: str, what: str) -> tuple[int, int]:
        """A `KEYWORD <integer>` line: its number and its value."""
        no, toks = self.take(keyword)
        if len(toks) != 2:
            raise FormatError(no, f"{keyword} takes exactly one {what}")
        return no, _parse_int(no, toks[1], what)

    def expect_end(self):
        item = self.peek()
        if item is not None:
            raise FormatError(item[0],
                              f"unexpected trailing content {_shown(item[1][0])}")


def _shown(tok: str) -> str:
    """A token as an error message quotes it: whole if short, else its
    first 24 characters and its length."""
    if len(tok) <= 24:
        return repr(tok)
    return f"{tok[:24]!r}... ({len(tok)} characters)"


def _parse_int(no: int, tok: str, what: str) -> int:
    try:
        return int(tok, 10)
    except ValueError:
        raise FormatError(no, f"bad {what} {_shown(tok)}") from None


_RATIONAL = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def _parse_rational(no: int, tok: str) -> Fraction:
    m = _RATIONAL.match(tok)
    if not m:
        raise FormatError(no, f"malformed rational {_shown(tok)}")
    try:
        num = int(m.group(1))
        if m.group(2) is None:
            return Fraction(num)
        den = int(m.group(2))
    except ValueError:  # past the interpreter's limit on digits converted
        raise FormatError(no, f"rational of {len(tok)} characters is too long") from None
    if den == 0:
        raise FormatError(no, f"zero denominator in {_shown(tok)}")
    return Fraction(num, den)


def parse_matroid(text: str, check_exchange: bool = True) -> MatroidOracle:
    """Parse a matroid file.

    A BASES family that breaks the basis-exchange axiom is not a matroid and
    raises FormatError at the first offending BASIS line, unless
    `check_exchange` is off (for callers that audit the family themselves).
    """
    lines = _Lines(text)
    no, toks = lines.take("MATROID")
    if toks[1:] != ["v1"]:
        raise FormatError(no, f"unsupported matroid format version {toks[1:]}")
    no, toks = lines.take("NAME")
    name = " ".join(toks[1:])
    no, m = lines.take_int("GROUND", "ground size")
    if m < 0:
        raise FormatError(no, "ground size must be nonnegative")
    no, toks = lines.take("TYPE")
    if len(toks) != 2 or toks[1] not in ("LINEAR", "GRAPHIC", "BASES"):
        raise FormatError(no, "TYPE must be LINEAR, GRAPHIC, or BASES")
    kind = toks[1]

    if kind == "LINEAR":
        no, d = lines.take_int("DIM", "dimension")
        if d <= 0:
            raise FormatError(no, "dimension must be positive")
        rows = []
        for _ in range(d):
            no, toks = lines.take("ROW")
            if len(toks) != m + 1:
                raise FormatError(no, f"expected {m} entries, found {len(toks) - 1}")
            rows.append([_parse_rational(no, t) for t in toks[1:]])
        lines.expect_end()
        columns = tuple(tuple(rows[r][c] for r in range(d)) for c in range(m))
        return MatroidOracle(LinearRep(d, columns), name=name, ground_size=m)

    if kind == "GRAPHIC":
        no, v = lines.take_int("VERTICES", "vertex count")
        if v <= 0:
            raise FormatError(no, "vertex count must be positive")
        edges = []
        for _ in range(m):
            no, toks = lines.take("EDGE")
            if len(toks) != 3:
                raise FormatError(no, "EDGE takes two endpoints")
            u, w = (_parse_int(no, t, "vertex") for t in toks[1:])
            if not (0 <= u < v and 0 <= w < v):
                raise FormatError(no, f"edge ({u},{w}) outside 0..{v - 1}")
            edges.append((u, w))
        lines.expect_end()
        return MatroidOracle(GraphicRep(v, tuple(edges)), name=name)

    no, r = lines.take_int("RANK", "rank")
    if r < 0:
        raise FormatError(no, "rank must be nonnegative")
    bases: dict[frozenset[int], int] = {}
    while lines.peek() is not None:
        no, toks = lines.take("BASIS")
        if len(toks) != r + 1:
            raise FormatError(no, f"expected {r} elements, found {len(toks) - 1}")
        b = frozenset(_parse_int(no, t, "element index") for t in toks[1:])
        if len(b) != r:
            raise FormatError(no, "repeated element inside a basis")
        for e in b:
            if not 0 <= e < m:
                raise FormatError(no, f"element {e} outside ground set 0..{m - 1}")
        if b in bases:
            raise FormatError(no, f"duplicate basis {sorted(b)}")
        bases[b] = no
    if not bases:
        item = lines.items[-1] if lines.items else (1, [])
        raise FormatError(item[0], "at least one BASIS line required")
    if check_exchange:
        violation = find_exchange_violation(bases)
        if violation is not None:
            a, x, b = violation
            raise FormatError(bases[a], f"not a matroid: no element of "
                                        f"{sorted(b)} can replace {x} in "
                                        f"basis {sorted(a)}")
    return MatroidOracle(BasesRep(r, frozenset(bases)), name=name, ground_size=m)


def serialize_matroid(oracle: MatroidOracle) -> str:
    out = ["MATROID v1", f"NAME {oracle.name}".rstrip(),
           f"GROUND {oracle.ground.size}"]
    rep = oracle.rep
    if isinstance(rep, LinearRep):
        out.append("TYPE LINEAR")
        out.append(f"DIM {rep.dim}")
        for r in range(rep.dim):
            out.append("ROW " + " ".join(str(col[r]) for col in rep.columns))
    elif isinstance(rep, GraphicRep):
        out.append("TYPE GRAPHIC")
        out.append(f"VERTICES {rep.vertices}")
        for u, w in rep.edges:
            out.append(f"EDGE {u} {w}")
    else:
        out.append("TYPE BASES")
        out.append(f"RANK {rep.rank}")
        for b in sorted(sorted(b) for b in rep.bases):
            out.append("BASIS " + " ".join(str(e) for e in b))
    return "\n".join(out) + "\n"


def parse_grid_instance(text: str, base_dir: Path | str = ".",
                        matroid: MatroidOracle | None = None) -> GridInstance:
    """Parse an instance file; the MATROID path is resolved against base_dir
    unless an oracle is supplied directly."""
    lines = _Lines(text)
    no, toks = lines.take("GRIDINSTANCE")
    if toks[1:] != ["v1"]:
        raise FormatError(no, f"unsupported instance format version {toks[1:]}")
    no, toks = lines.take("MATROID")
    if len(toks) < 2:
        raise FormatError(no, "MATROID takes a path")
    path = " ".join(toks[1:])
    if matroid is None:
        target = Path(base_dir) / path
        try:
            matroid_text = target.read_text(encoding="utf-8")
        except OSError as exc:
            raise FormatError(no, f"cannot read matroid file {path!r}: {exc}") from None
        matroid = parse_matroid(matroid_text)
    no, n = lines.take_int("ROWS", "row count")
    if n < 0:
        raise FormatError(no, "dimensions must be nonnegative")
    no, k = lines.take_int("COLS", "column count")
    if k < 0:
        raise FormatError(no, "dimensions must be nonnegative")
    if matroid.ground.size != n * k:
        raise FormatError(no, f"matroid has {matroid.ground.size} elements, "
                              f"instance needs n*k = {n * k}")
    no, toks = lines.take("INDEPENDENCE")
    if len(toks) != 2 or toks[1] not in (REQUIRED, NOT_REQUIRED):
        raise FormatError(no, "INDEPENDENCE must be REQUIRED or NOT_REQUIRED")
    mode = toks[1]
    rows = []
    for i in range(n):
        no, toks = lines.take("ROW")
        if len(toks) < 2 or toks[1] != f"{i}:":
            raise FormatError(no, f"expected 'ROW {i}:'")
        row = set()
        for t in toks[2:]:
            e = _parse_int(no, t, "element index")
            if not 0 <= e < matroid.ground.size:
                raise FormatError(no, f"element {e} outside ground set")
            if e in row:
                raise FormatError(no, f"repeated element {e} in row {i}")
            row.add(e)
        rows.append(frozenset(row))
    lines.expect_end()
    return GridInstance(matroid, n, k, tuple(rows), mode)


def serialize_grid_instance(inst: GridInstance, matroid_path: str) -> str:
    out = ["GRIDINSTANCE v1", f"MATROID {matroid_path}",
           f"ROWS {inst.n}", f"COLS {inst.k}",
           f"INDEPENDENCE {inst.independence}"]
    for i, row in enumerate(inst.rows):
        toks = " ".join(str(e) for e in sorted(row))
        out.append(f"ROW {i}:" + (" " + toks if toks else ""))
    return "\n".join(out) + "\n"


def instance_digest(inst: GridInstance) -> str:
    """SHA-256 over the canonical matroid text plus the instance body.

    The MATROID path line is excluded, so the digest depends only on
    content, never on file layout.
    """
    body = serialize_grid_instance(inst, matroid_path="-")
    body = "\n".join(l for l in body.splitlines() if not l.startswith("MATROID "))
    payload = serialize_matroid(inst.matroid) + "\x00" + body
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def matroid_digest(oracle: MatroidOracle) -> str:
    return hashlib.sha256(serialize_matroid(oracle).encode("utf-8")).hexdigest()


def write_instance_files(inst: GridInstance, directory: Path | str,
                         stem: str) -> tuple[Path, Path]:
    """Materialize `<stem>.matroid` and `<stem>.grid` under `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    matroid_path = directory / f"{stem}.matroid"
    grid_path = directory / f"{stem}.grid"
    matroid_path.write_text(serialize_matroid(inst.matroid), encoding="utf-8")
    grid_path.write_text(
        serialize_grid_instance(inst, matroid_path=matroid_path.name),
        encoding="utf-8")
    return matroid_path, grid_path

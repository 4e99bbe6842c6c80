"""Sparse integer QUBO instances: construction, evaluation, Ising conversion, file I/O.

An instance is a maximization problem over binary variables ``x_1 .. x_n``:

    maximize  offset + sum_i c_i x_i + sum_{i<j} d_ij x_i x_j

Linear coefficients ``c_i`` come from the diagonal of the usual Q-matrix view
(``x_i^2 = x_i``), and ``d_ij`` is the combined symmetric quadratic weight of
the unordered pair ``{i, j}``.  Coefficients are exact Python integers and
entries that are exactly zero are never stored, so sign-based neighbourhood
sums quantify only over real edges.
"""

from __future__ import annotations

import re
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Mapping, Sequence

import numpy as np


class QuboFormatError(ValueError):
    """Raised when an instance file is malformed."""


def canonical_pair(i: int, j: int) -> tuple[int, int]:
    """Order an index pair as (low, high)."""
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class QuboInstance:
    """Immutable sparse maximization QUBO.

    Attributes
    ----------
    n : int
        Number of variables; valid indices are 1..n.
    linear : dict[int, int]
        Nonzero linear coefficients c_i.
    quadratic : dict[tuple[int, int], int]
        Nonzero combined quadratic coefficients d_ij keyed by (i, j) with i < j.
    offset : int
        Constant term, included in every objective value.
    """

    n: int
    linear: dict[int, int]
    quadratic: dict[tuple[int, int], int]
    offset: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"variable count must be nonnegative, got {self.n}")
        for i, v in self.linear.items():
            if not 1 <= i <= self.n:
                raise ValueError(f"linear index {i} outside 1..{self.n}")
            if v == 0:
                raise ValueError(f"zero linear coefficient stored at {i}")
        for (i, j), v in self.quadratic.items():
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"pair ({i}, {j}) outside 1..{self.n}")
            if i >= j:
                raise ValueError(f"pair ({i}, {j}) is not in canonical i < j order")
            if v == 0:
                raise ValueError(f"zero quadratic coefficient stored at ({i}, {j})")

    @property
    def num_edges(self) -> int:
        return len(self.quadratic)

    def evaluate(self, x: Mapping[int, int] | Sequence[int]) -> int:
        """Objective value of a total assignment (see module-level ``evaluate``)."""
        return evaluate(self, x)


def _as_values(instance: QuboInstance, x: Mapping[int, int] | Sequence[int]) -> list[int]:
    """Normalize an assignment to a 1-indexed value list, rejecting partial ones."""
    n = instance.n
    vals = [0] * (n + 1)
    if isinstance(x, Mapping):
        missing = [i for i in range(1, n + 1) if i not in x]
        if missing:
            raise ValueError(f"partial assignment: variable {missing[0]} missing")
        items = list(x.items())
    else:
        if len(x) != n:
            raise ValueError(f"assignment has {len(x)} values, expected {n}")
        items = list(zip(range(1, n + 1), x))
    for i, v in items:
        if not 1 <= i <= n:
            raise ValueError(f"assignment index {i} outside 1..{n}")
        if v not in (0, 1):
            raise ValueError(f"non-binary value {v!r} for variable {i}")
        vals[i] = int(v)
    return vals


def build_from_triplets(n: int, entries: Iterable[tuple[int, int, int]]) -> QuboInstance:
    """Build an instance from (i, j, value) matrix entries.

    Diagonal entries (i, i) accumulate into c_i; off-diagonal entries (i, j)
    and (j, i) accumulate into the single combined coefficient d_ij.
    Duplicates are allowed and entries that cancel to zero are dropped.
    """
    linear: dict[int, int] = {}
    quadratic: dict[tuple[int, int], int] = {}
    for entry in entries:
        i, j, v = entry
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"entry {entry!r}: index outside 1..{n}")
        if i == j:
            linear[i] = linear.get(i, 0) + v
        else:
            key = canonical_pair(i, j)
            quadratic[key] = quadratic.get(key, 0) + v
    return QuboInstance(
        n,
        {i: v for i, v in linear.items() if v != 0},
        {k: v for k, v in quadratic.items() if v != 0},
        0,
    )


def evaluate(instance: QuboInstance, x: Mapping[int, int] | Sequence[int]) -> int:
    """Exact objective value offset + sum c_i x_i + sum_{i<j} d_ij x_i x_j."""
    vals = _as_values(instance, x)
    total = instance.offset
    for i, c in instance.linear.items():
        if vals[i]:
            total += c
    for (i, j), d in instance.quadratic.items():
        if vals[i] and vals[j]:
            total += d
    return total


def ising_to_qubo(
    n: int,
    h: Mapping[int, int] | Sequence[int],
    J: Mapping[tuple[int, int], int] | None = None,
) -> QuboInstance:
    """Convert maximize sum h_i s_i + sum_{i<j} J_ij s_i s_j, s in {-1,+1}^n.

    Substitutes s_i = 2 x_i - 1.  The returned instance evaluates at x to the
    Ising objective at the corresponding spins, constants folded into offset.
    """
    if isinstance(h, Mapping):
        h_items = list(h.items())
    else:
        if len(h) != n:
            raise ValueError(f"h has {len(h)} entries, expected {n}")
        h_items = list(zip(range(1, n + 1), h))
    linear: dict[int, int] = {}
    quadratic: dict[tuple[int, int], int] = {}
    offset = 0
    for i, hi in h_items:
        if not 1 <= i <= n:
            raise ValueError(f"field index {i} outside 1..{n}")
        if hi == 0:
            continue
        # h_i s_i = 2 h_i x_i - h_i
        linear[i] = linear.get(i, 0) + 2 * hi
        offset -= hi
    for (i, j), jij in (J or {}).items():
        if i == j:
            raise ValueError(f"nonzero coupling on diagonal ({i}, {j})")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"coupling pair ({i}, {j}) outside 1..{n}")
        if jij == 0:
            continue
        # J_ij s_i s_j = 4 J x_i x_j - 2 J x_i - 2 J x_j + J
        key = canonical_pair(i, j)
        quadratic[key] = quadratic.get(key, 0) + 4 * jij
        linear[i] = linear.get(i, 0) - 2 * jij
        linear[j] = linear.get(j, 0) - 2 * jij
        offset += jij
    return QuboInstance(
        n,
        {i: v for i, v in linear.items() if v != 0},
        {k: v for k, v in quadratic.items() if v != 0},
        offset,
    )


# --- text format -------------------------------------------------------------
#
#   # comment
#   p qubo <n>
#   o <offset>            (optional; writers always emit it)
#   l <i> <value>
#   q <i> <j> <value>     (any index order; repeated pairs accumulate)


# One q line whose three numbers int64 holds exactly: at most 18 digits each.
_Q_LINES = re.compile(rb"(?:q [0-9]{1,18} [0-9]{1,18} -?[0-9]{1,18}\n)*")
# The q block is checked and parsed in pieces of at most this many bytes: a
# repeated-group match costs memory in proportion to the span it covers.
_PIECE_BYTES = 1 << 16
# Lines joined per write call: one join of a 500,000-line block costs ~30 MB.
_WRITE_LINES = 1 << 13


def read_instance(path) -> QuboInstance:
    """Parse the line-oriented text format; errors carry the offending line number.

    A file whose q lines all come last in the writer's plain form has its q
    block parsed in bulk (see :func:`_read_bulk`).  Every other file, and
    every malformed one, goes through the line parser, the only one that
    reports errors.
    """
    with open(path, "rb") as fh:
        instance = _read_bulk(fh.read())
    return _read_lines(path) if instance is None else instance


def _read_bulk(data: bytes) -> QuboInstance | None:
    """The instance the line parser builds from ``data``, or None to defer to it.

    The lines before the first ``q `` line go through the line parser.  The
    rest must be ``q <i> <j> <value>\\n`` lines, single-spaced, with at most
    18 digits per number, so that int64 parses them exactly; their indices
    must lie in 1..n and off the diagonal, no pair may repeat and no value
    may be zero.  Anything else returns None: comments, CR line ends, a
    missing final newline, more digits, or data the line parser rejects.
    """
    start = data.find(b"\nq ") + 1 or len(data)
    try:
        head = data[:start].decode("utf-8")
        n, offset, linear, quadratic = _parse_lines(head.split("\n"))
    except (UnicodeDecodeError, QuboFormatError):
        return None
    # A CR ends a line for the line parser, which reads in universal
    # newline mode; q lines before the block would need merging.
    if "\r" in head or quadratic:
        return None
    pos = start
    lines = 0
    while pos < len(data):
        cut = data.rfind(b"\n", pos, pos + _PIECE_BYTES) + 1
        if cut <= pos or not _Q_LINES.fullmatch(data, pos, cut):
            return None
        numbers = np.fromstring(data[pos:cut].replace(b"q", b""), dtype=np.int64, sep=" ")
        i, j, v = numbers.reshape(-1, 3).T
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        if int(lo.min()) < 1 or int(hi.max()) > n or (lo == hi).any() or not v.all():
            return None
        quadratic.update(zip(zip(lo.tolist(), hi.tolist()), v.tolist()))
        lines += len(v)
        pos = cut
    if len(quadratic) != lines:
        return None
    return QuboInstance(n, {k: c for k, c in linear.items() if c != 0}, quadratic, offset)


def _read_lines(path) -> QuboInstance:
    """The line parser: any file the format allows, with exact integers."""
    # The file decodes chunk by chunk as it is iterated, so a bad byte
    # surfaces at the loop, not inside the per-line error mapping.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            n, offset, linear, quadratic = _parse_lines(fh)
    except UnicodeDecodeError as exc:
        raise QuboFormatError(f"file is not UTF-8 text: {exc}") from exc
    return QuboInstance(
        n,
        {i: v for i, v in linear.items() if v != 0},
        {k: v for k, v in quadratic.items() if v != 0},
        offset,
    )


def _parse_lines(lines: Iterable[str]):
    """Accumulate (n, offset, linear, quadratic) from text lines, zeros kept."""
    n = None
    offset = 0
    linear: dict[int, int] = {}
    quadratic: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        try:
            if tok[0] == "p":
                if n is not None:
                    raise QuboFormatError(f"line {lineno}: duplicate problem line")
                if len(tok) != 3 or tok[1] != "qubo":
                    raise QuboFormatError(f"line {lineno}: expected 'p qubo <n>'")
                n = int(tok[2])
                if n < 0:
                    raise QuboFormatError(f"line {lineno}: negative variable count")
                continue
            if n is None:
                raise QuboFormatError(f"line {lineno}: data before 'p qubo <n>' line")
            if tok[0] == "o":
                if len(tok) != 2:
                    raise QuboFormatError(f"line {lineno}: expected 'o <offset>'")
                offset += int(tok[1])
            elif tok[0] == "l":
                if len(tok) != 3:
                    raise QuboFormatError(f"line {lineno}: expected 'l <i> <value>'")
                i, v = int(tok[1]), int(tok[2])
                if not 1 <= i <= n:
                    raise QuboFormatError(f"line {lineno}: index {i} outside 1..{n}")
                linear[i] = linear.get(i, 0) + v
            elif tok[0] == "q":
                if len(tok) != 4:
                    raise QuboFormatError(f"line {lineno}: expected 'q <i> <j> <value>'")
                i, j, v = int(tok[1]), int(tok[2]), int(tok[3])
                if not (1 <= i <= n and 1 <= j <= n):
                    raise QuboFormatError(f"line {lineno}: pair ({i}, {j}) outside 1..{n}")
                if i == j:
                    raise QuboFormatError(f"line {lineno}: quadratic entry on diagonal")
                key = canonical_pair(i, j)
                quadratic[key] = quadratic.get(key, 0) + v
            else:
                raise QuboFormatError(f"line {lineno}: unknown directive {tok[0]!r}")
        except ValueError as exc:
            if isinstance(exc, QuboFormatError):
                raise
            raise QuboFormatError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise QuboFormatError("missing 'p qubo <n>' line")
    return n, offset, linear, quadratic


def write_instance(
    instance: QuboInstance,
    path,
    header: Sequence[str] = (),
    *,
    ids: Sequence[int] | None = None,
    n: int | None = None,
) -> None:
    """Write the canonical text form: offset first, then l lines, then q lines.

    ``path`` is a file name or an open text file, which is left open.  With
    ``ids``, variable k is written as ``ids[k - 1]`` and the problem line
    declares ``n`` variables; ``ids`` must ascend, so that the sorted order
    of the instance's indices is the sorted order of the written ones.
    """
    label = [str(k) for k in (range(instance.n + 1) if ids is None else [0, *ids])]
    opened = nullcontext(path) if hasattr(path, "write") else open(path, "w", encoding="utf-8")
    with opened as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(f"p qubo {instance.n if ids is None else n}\n")
        fh.write(f"o {instance.offset}\n")
        quadratic = instance.quadratic
        lines = chain(
            (f"l {label[i]} {v}\n" for i, v in sorted(instance.linear.items())),
            (f"q {label[i]} {label[j]} {quadratic[i, j]}\n" for i, j in sorted(quadratic)),
        )
        while chunk := "".join(islice(lines, _WRITE_LINES)):
            fh.write(chunk)

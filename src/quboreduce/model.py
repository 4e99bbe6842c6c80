"""Sparse integer QUBO instances: construction, evaluation, Ising conversion, file I/O.

An instance is a maximization problem over binary variables ``x_1 .. x_n``:

    maximize  offset + sum_i c_i x_i + sum_{i<j} d_ij x_i x_j

Linear coefficients ``c_i`` come from the diagonal of the usual Q-matrix view
(``x_i^2 = x_i``), and ``d_ij`` is the combined symmetric quadratic weight of
the unordered pair ``{i, j}``.  Coefficients are exact integers and entries
that are exactly zero are never stored, so sign-based neighbourhood sums
quantify only over real edges.

``quadratic`` is always an :class:`EdgeTable`: the constructor turns any other
mapping into one, in its iteration order, and checks the edges on its arrays,
so an instance travels from file to state and back as arrays.
"""

from __future__ import annotations

import io
import re
import sys
from collections.abc import ItemsView, Iterable, Mapping, Sequence
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np


class QuboFormatError(ValueError):
    """Raised when an instance file is malformed."""


def canonical_pair(i: int, j: int) -> tuple[int, int]:
    """Order an index pair as (low, high)."""
    return (i, j) if i < j else (j, i)


# Array entries converted to Python values, or edges written, at a time (here
# and in the state's set-up): one join of a 500,000-line q block costs ~30 MB.
_BLOCK = 1 << 13
# The coefficient types an instance holds.
_INTEGER = (int, np.integer)


def int_array(values: list[int]) -> np.ndarray:
    """The integers as int64, or as exact Python integers if one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class EdgeTable(Mapping):
    """Read-only map ``{(lo[k], hi[k]): d[k]}`` over three arrays, in array order.

    ``lo``, ``hi`` are int64; ``d`` is int64, or object when a value exceeds
    int64.  Iteration converts a block at a time; the first keyed lookup, or
    the first iteration of a one-block table, builds a dict.  A table equals
    any mapping with the same items.
    """

    __slots__ = ("lo", "hi", "d", "_index")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, d: np.ndarray):
        self.lo, self.hi, self.d, self._index = lo, hi, d, None

    def __getitem__(self, key):
        if self._index is None:
            self._index = dict(self.items())
        return self._index[key]

    def __iter__(self):
        return map(itemgetter(0), self.items())

    def __len__(self) -> int:
        return len(self.d)

    def items(self):
        return _EdgeItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _EdgeItems(ItemsView):
    def __iter__(self):
        t, k = self._mapping, _BLOCK
        if t._index is None:
            blocks = chain.from_iterable(
                zip(zip(t.lo[a:a + k].tolist(), t.hi[a:a + k].tolist()), t.d[a:a + k].tolist())
                for a in range(0, len(t.d), k))
            if len(t.d) > k:
                return blocks
            t._index = dict(blocks)  # one block: converted once, then iterated as a dict
        return iter(t._index.items())


def _as_table(quadratic: Mapping[tuple[int, int], int]) -> EdgeTable | None:
    """The map's edges as a table, in its iteration order, or None when a key
    is not a pair or an index or value is not an integer that int64 holds:
    ``np.fromiter`` would take 1.5 as 1.  Types are judged as one set."""
    if set(map(len, quadratic)) <= {2} and all(issubclass(t, _INTEGER) for t in set(map(
            type, chain(chain.from_iterable(quadratic), quadratic.values())))):
        with suppress(OverflowError):
            pairs = np.fromiter(chain.from_iterable(quadratic), np.int64, 2 * len(quadratic))
            return EdgeTable(pairs[0::2], pairs[1::2], int_array(list(quadratic.values())))
    return None


def _lex_order(lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """None if the pairs (lo[k], hi[k]) ascend strictly, else their sorting order.

    Raises ValueError for a repeated pair."""
    a, b = lo[1:], lo[:-1]
    if ((a > b) | ((a == b) & (hi[1:] > hi[:-1]))).all():
        return None
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    same = ((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])).nonzero()[0]
    if same.size:
        raise ValueError(f"pair ({lo[same[0]]}, {hi[same[0]]}) repeats")
    return order


@dataclass(frozen=True)
class QuboInstance:
    """Immutable sparse maximization QUBO.

    Attributes
    ----------
    n : int
        Number of variables; valid indices are 1..n.
    linear : dict[int, int]
        Nonzero linear coefficients c_i.
    quadratic : EdgeTable
        Nonzero combined quadratic coefficients d_ij keyed by (i, j) with i < j;
        any other mapping passed in becomes a table, in its iteration order.
    offset : int
        Constant term, included in every objective value.
    """

    n: int
    linear: dict[int, int]
    quadratic: EdgeTable
    offset: int = 0

    def __post_init__(self):
        n = self.n
        if not isinstance(n, _INTEGER) or n < 0:
            raise ValueError(f"variable count must be a nonnegative integer, got {n!r}")
        if n >= sys.maxsize:  # rows are indexed 0..n
            raise ValueError(f"variable count {n} exceeds the index range")
        if not isinstance(self.offset, _INTEGER):
            raise ValueError(f"offset {self.offset!r} is not an integer")
        for i, v in self.linear.items():
            if not (isinstance(i, _INTEGER) and 1 <= i <= n):
                raise ValueError(f"linear index {i!r} outside 1..{n}")
            if v == 0:
                raise ValueError(f"zero linear coefficient stored at {i}")
            if not isinstance(v, _INTEGER):
                raise ValueError(f"linear coefficient {v!r} at {i} is not an integer")
        items = self.quadratic.items()
        if not isinstance(self.quadratic, EdgeTable):  # None leaves the map to the loop below
            object.__setattr__(self, "quadratic", _as_table(self.quadratic))
        if (q := self.quadratic) is not None:  # checked on arrays; the loop names a bad pair
            lo, hi, d = q.lo, q.hi, q.d
            if lo.dtype != np.int64 or hi.dtype != np.int64:
                first = f", as in pair ({lo[0]}, {hi[0]})" if len(lo) and len(hi) else ""
                raise ValueError(f"edge index dtypes {lo.dtype}, {hi.dtype} are not int64{first}")
            if d.dtype != np.int64 and not (d.dtype == object and all(
                    issubclass(t, _INTEGER) for t in set(map(type, d)))):
                raise ValueError(f"edge values of dtype {d.dtype} are not exact integers")
            bad = ((lo < 1) | (hi > n) | (lo >= hi) | (d == 0)).nonzero()[0][:1]
            items = [((int(lo[k]), int(hi[k])), d[k]) for k in bad]
            if not items:
                _lex_order(lo, hi)
        for (i, j), v in items:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"pair ({i}, {j}) outside 1..{n}")
            if i >= j:
                raise ValueError(f"pair ({i}, {j}) is not in canonical i < j order")
            if v == 0:
                raise ValueError(f"zero quadratic coefficient stored at ({i}, {j})")
            if not isinstance(v, _INTEGER):
                raise ValueError(f"quadratic coefficient {v!r} at ({i}, {j}) is not an integer")
            if not (isinstance(i, _INTEGER) and isinstance(j, _INTEGER)):
                raise ValueError(f"pair ({i!r}, {j!r}) has a non-integer index")

    @classmethod
    def without_zeros(cls, n: int, linear: Mapping[int, int],
                      quadratic: Mapping[tuple[int, int], int],
                      offset: int = 0) -> QuboInstance:
        """The instance of coefficient maps that may hold zeros; the zeros are dropped."""
        return cls(n, {i: v for i, v in linear.items() if v != 0},
                   {k: v for k, v in quadratic.items() if v != 0}, offset)

    @property
    def num_edges(self) -> int:
        return len(self.quadratic)


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
    return QuboInstance.without_zeros(n, linear, quadratic)


def evaluate(instance: QuboInstance, x: Mapping[int, int] | Sequence[int]) -> int:
    """Exact objective value offset + sum c_i x_i + sum_{i<j} d_ij x_i x_j."""
    vals = _as_values(instance, x)
    total = instance.offset + sum([c for i, c in instance.linear.items() if vals[i]])
    return total + sum([d for (i, j), d in instance.quadratic.items() if vals[i] and vals[j]])


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
    return QuboInstance.without_zeros(n, linear, quadratic, offset)


# --- text format -------------------------------------------------------------
#
#   # comment
#   p qubo <n>
#   o <offset>            (optional; writers always emit it)
#   l <i> <value>
#   q <i> <j> <value>     (any index order; repeated pairs accumulate)


# One q line whose three numbers int64 holds exactly: at most 18 digits each.
_Q_LINES = re.compile(rb"(?:q [0-9]{1,18} [0-9]{1,18} -?[0-9]{1,18}\n)*")
# The q block is checked in pieces of at most this many bytes: a
# repeated-group match costs memory in proportion to the span it covers.
_PIECE_BYTES = 1 << 16


def read_instance(path) -> QuboInstance:
    """Parse the line-oriented text format; errors carry the offending line number.

    A file whose q lines all come last in the writer's plain form has its q
    block parsed in bulk (see :func:`_read_bulk`).  Every other file, and
    every malformed one, goes through the line parser, the only one that
    reports errors.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    instance = _read_bulk(data)
    return _read_lines(data) if instance is None else instance


def _read_bulk(data: bytes) -> QuboInstance | None:
    """The instance the line parser builds from ``data``, or None to defer to it.

    The lines before the first ``q `` line go through the line parser.  The
    rest must be ``q <i> <j> <value>\\n`` lines, single-spaced, with at most
    18 digits per number, so that int64 parses them exactly; they become an
    :class:`EdgeTable` in file order.  Anything else returns None: comments,
    CR line ends, a missing final newline, more digits, or data the line
    parser rejects or merges (bad indices, zeros, repeated pairs).
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
    while pos < len(data):
        cut = data.rfind(b"\n", pos, pos + _PIECE_BYTES) + 1
        if cut <= pos or not _Q_LINES.fullmatch(data, pos, cut):
            return None
        pos = cut
    i, j, v = np.fromstring(data[start:].replace(b"q", b""), dtype=np.int64,
                            sep=" ").reshape(-1, 3).T
    edges = EdgeTable(np.minimum(i, j), np.maximum(i, j), v.copy())
    try:
        return QuboInstance(n, {k: c for k, c in linear.items() if c != 0}, edges, offset)
    except ValueError:
        return None


def _read_lines(data: bytes) -> QuboInstance:
    """The line parser: any file the format allows, with exact integers.

    ``data`` decodes whole, so a bad byte's position counts from the file's
    start; lines end at LF, CRLF or a lone CR, as in a text-mode file.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise QuboFormatError(f"file is not UTF-8 text: {exc}") from exc
    n, offset, linear, quadratic = _parse_lines(io.StringIO(text, newline=None))
    return QuboInstance.without_zeros(n, linear, quadratic, offset)


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
                if n >= sys.maxsize:
                    raise QuboFormatError(
                        f"line {lineno}: variable count {n} exceeds the index range")
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
    of the instance's indices is the sorted order of the written ones.  The
    q lines are formatted from the sorted edge arrays, a slice at a time.
    """
    label = [str(k) for k in (range(instance.n + 1) if ids is None else [0, *ids])]
    q = instance.quadratic
    lo, hi, d = q.lo, q.hi, q.d
    order = _lex_order(lo, hi)
    if order is not None:
        lo, hi, d = lo[order], hi[order], d[order]
    opened = nullcontext(path) if hasattr(path, "write") else open(path, "w", encoding="utf-8")
    with opened as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(f"p qubo {instance.n if ids is None else n}\n")
        fh.write(f"o {instance.offset}\n")
        fh.write("".join(f"l {label[i]} {v}\n" for i, v in sorted(instance.linear.items())))
        for a in range(0, len(d), _BLOCK):
            b = a + _BLOCK
            fh.write("".join([f"q {label[i]} {label[j]} {v}\n" for i, j, v in zip(
                lo[a:b].tolist(), hi[a:b].tolist(), d[a:b].tolist())]))

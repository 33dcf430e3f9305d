r"""Tournaments (complete directed graphs) and the constructions studied here.

Representation: the read-only n x n boolean adjacency matrix, entry
[u, j] true iff u beats j (written u -> j).  Tournaments are immutable
once built.

Constructions: transitive, cyclic (odd order), interval tournaments,
uniformly random, blow-ups with largest-remainder part sizes, random
edge-flip perturbations, and the two-block random mix.  Each states only
its strict upper triangle; `_complete` sets the lower one.  Randomness
comes from the counter-based stream in `rng` at each pair's lexicographic
index.  Each construction reads only the pairs it needs, a block of rows
at a time, each row's run of them at its own indices through one
`rng.values_at` call per block: every pair for random and flip, the
pairs inside its parts for a blow-up, the cross pairs for a mix.

TRN v1 files are ASCII and are parsed as bytes, by one reader; files
are the only way in and out.  A non-ASCII byte is reported first, with
its line and column.  Lines end at \n, \r\n or \r, rows are stripped of
ASCII blanks, and n is at most 2**15.  The layout write_trn writes is
written and read a block of rows at a time, through one buffer of about
2**16 bytes; any other layout is read whole and parsed line by line, by
the same rules.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import permutations
from math import isfinite
from typing import Iterable, Sequence

import numpy as np

from . import rng
# The error classes live in the numpy-free base module; they are
# re-exported here, so core.DataFormatError is base.DataFormatError.
from .base import (DataFormatError, InternalInvariantError, TournamentError,
                   _ascii)


def pair_index(u: int, v: int, n: int) -> int:
    """Lexicographic index of the unordered pair (u, v), u < v, among all
    pairs of range(n).  This is the stream address of the pair's draw."""
    if not 0 <= u < v < n:
        raise ValueError(f"bad pair ({u}, {v}) for n={n}")
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


class Tournament:
    """An immutable tournament on vertices 0..n-1.  The constructor keeps
    a read-only copy of the n x n boolean adjacency matrix it is given
    and does not validate it; from_matrix does.  The out-degrees are
    summed on first use and kept."""

    __slots__ = ("n", "_dense", "_degrees")

    def __init__(self, dense: np.ndarray):
        d = np.array(dense, dtype=bool)
        d.flags.writeable = False
        self.n = d.shape[0]
        self._dense = d
        self._degrees = None

    @classmethod
    def _adopt(cls, d: np.ndarray) -> "Tournament":
        """Tournament of a freshly built n x n bool matrix that nothing
        else holds: made read-only in place instead of copied."""
        t = cls.__new__(cls)
        d.flags.writeable = False
        t.n, t._dense, t._degrees = d.shape[0], d, None
        return t

    # -- views ---------------------------------------------------------

    def dense(self) -> np.ndarray:
        """Boolean adjacency matrix, read-only; [u, v] iff u -> v."""
        return self._dense

    def orient(self, u: int, v: int) -> bool:
        """True iff u -> v."""
        return bool(self._dense[u, v])

    def out_degrees(self) -> np.ndarray:
        """Out-degrees as a read-only int64 array, the same on every call:
        one pass sums the matrix's bytes in uint16 (uint32 past 2**16
        vertices), which holds every degree."""
        if self._degrees is None:
            wide = np.uint16 if self.n <= 2**16 else np.uint32
            d = self._dense.view(np.uint8).sum(axis=1, dtype=wide)
            d = d.astype(np.int64)
            d.flags.writeable = False
            self._degrees = d
        return self._degrees

    # -- derived tournaments --------------------------------------------

    def subtournament(self, vertices: Sequence[int]) -> "Tournament":
        idx = np.asarray(list(vertices), dtype=np.intp)
        if len(set(idx.tolist())) != len(idx):
            raise TournamentError("subtournament vertices must be distinct")
        return Tournament(self._dense[np.ix_(idx, idx)])

    def relabel(self, perm: Sequence[int]) -> "Tournament":
        """Relabeled copy; new vertex a is old vertex perm[a]."""
        if sorted(perm) != list(range(self.n)):
            raise TournamentError("relabel needs a permutation of range(n)")
        return self.subtournament(perm)

    # -- dunderware ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tournament)
                and bool(np.array_equal(self._dense, other._dense)))

    def __hash__(self) -> int:
        return hash((self.n, self._dense.tobytes()))

    def __reduce__(self):
        # rebuild through the constructor: an unpickled array is writeable
        return (Tournament, (self._dense,))

    def __repr__(self) -> str:
        return f"Tournament(n={self.n})"


def from_matrix(matrix: Iterable[Iterable[int]]) -> Tournament:
    """Build a tournament from a 0/1 adjacency matrix, validating that it
    is square, zero-diagonal, and has exactly one arc per pair."""
    m = np.asarray(list(list(r) for r in matrix))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise TournamentError("adjacency matrix must be square")
    if not np.isin(m, (0, 1)).all():
        raise TournamentError("adjacency entries must be 0 or 1")
    m = m.astype(bool)
    n = m.shape[0]
    if m.diagonal().any():
        raise TournamentError("diagonal must be zero (no self-loops)")
    both = m & m.T
    if both.any():
        u, v = np.argwhere(both)[0]
        raise TournamentError(f"pair ({u}, {v}) is oriented both ways")
    neither = ~(m | m.T | np.eye(n, dtype=bool))
    if neither.any():
        u, v = np.argwhere(neither)[0]
        raise TournamentError(f"pair ({u}, {v}) has no orientation")
    return Tournament(m)


# -- constructions -------------------------------------------------------

# An n x n bool matrix is n**2 bytes, 1 GiB at this order; a construction
# peaks below 2 n**2 traced bytes, so below 2 GiB, a TRN read in
# write_trn's layout near 1 n**2, and one in another layout near 4 n**2.
_MAX_ORDER = 2**15


def _check_order(n: int) -> None:
    """Every construction calls this before it allocates."""
    if n < 1:
        raise TournamentError("n must be >= 1")
    if n > _MAX_ORDER:
        raise TournamentError(f"n={n} is over the limit of {_MAX_ORDER}")


_BLOCK = 256


def _complete(upper: np.ndarray) -> Tournament:
    """Tournament of `upper`'s strict upper triangle; overwrites the rest
    and adopts `upper`, which the caller must not keep.  The lower
    triangle is set _BLOCK rows at a time, so its temporaries stay near
    2 * _BLOCK * n bytes."""
    n = len(upper)
    for i in range(0, n, _BLOCK):
        j = min(i + _BLOCK, n)
        # row r in i..j-1 gets not upper[c, r] at each column c < r
        np.copyto(upper[i:j, :j], ~upper[:j, i:j].T,
                  where=np.tri(j - i, j, i - 1, dtype=bool))
    np.fill_diagonal(upper, False)
    return Tournament._adopt(upper)


def transitive(n: int) -> Tournament:
    """The transitive order: u -> v iff u < v."""
    _check_order(n)
    return _complete(np.tri(n, n, n, dtype=bool))


def cyclic(n: int) -> Tournament:
    """The rotational tournament on odd n: u -> v iff (v - u) mod n is in
    1..(n-1)/2.  Every out- and in-neighborhood is an arc of consecutive
    vertices, hence transitive, so these have no 4-vertex W/L patterns."""
    if n < 3 or n % 2 == 0:
        raise TournamentError("cyclic tournaments need odd n >= 3")
    _check_order(n)
    return _complete(np.tri(n, n, (n - 1) // 2, dtype=bool))


def interval(n: int, s: int) -> Tournament:
    """Near-boundary construction: u -> v for u < v iff v - u <= s, else
    v -> u.  Requires 2s >= n (so s >= ceil(n/2)), which forces every
    cyclic triangle to be 'long' and kills all W/L 4-sets."""
    if n < 3:
        raise TournamentError("n must be >= 3")
    if not (2 * s >= n and s <= n):
        raise TournamentError(f"interval needs ceil(n/2) <= s <= n, got s={s}")
    _check_order(n)
    return _complete(np.tri(n, n, s, dtype=bool))


_DRAW_PAIRS = 2**16


def _draws(seed: int, n: int, rows: range, c0: int, c1: int, test):
    """Yield (r0, bits) for the pairs (u, v) with u in `rows` and
    max(u + 1, c0) <= v < c1, in blocks of consecutive rows of about
    _DRAW_PAIRS pairs: bits[i, j] = test(x) for the stream value x of
    pair (r0 + i, c0 + j) when c0 + j > r0 + i, and False elsewhere.
    Row u's pairs are one run of the stream; a block's runs are read at
    their own pair indices by handing the block's uint64 index to
    rng.values_at, which mixes it in place."""
    step = max(1, _DRAW_PAIRS // (c1 - c0 or 1))
    for r0 in rows[::step]:
        u = np.arange(r0, min(r0 + step, rows.stop))
        v0 = np.maximum(u + 1, c0)
        runs = c1 - v0
        first = u * (2 * n - u - 1) // 2 + v0 - u - 1    # pair_index(u, v0, n)
        first[1:] -= np.cumsum(runs[:-1])
        index = np.repeat(first.astype(np.uint64), runs)
        index += np.arange(len(index), dtype=np.uint64)
        bits = np.zeros((len(u), c1 - c0), dtype=bool)
        bits[~np.tri(len(u), c1 - c0, r0 - c0, dtype=bool)] = test(
            rng.values_at(seed, index))
        yield r0, bits


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniformly random orientation.  Pair k (lexicographic order) is
    oriented u -> v iff stream value k has top bit 0."""
    _check_order(n)
    upper = np.zeros((n, n), dtype=bool)
    for r0, bits in _draws(seed, n, range(n - 1), 0, n, lambda v: v < 2**63):
        upper[r0:r0 + len(bits)] = bits
    return _complete(upper)


def check_weights(weights: Sequence[float]) -> tuple:
    w = tuple(float(x) for x in weights)
    if len(w) == 0:
        raise TournamentError("weight vector is empty")
    if not all(isfinite(x) for x in w):
        raise TournamentError(f"weights must be finite (got {w!r})")
    if any(x <= 0 for x in w):
        raise TournamentError("weights must be strictly positive")
    if abs(sum(w) - 1.0) > 1e-12:
        raise TournamentError(f"weights must sum to 1 (got {sum(w)!r})")
    return w


@dataclass(frozen=True)
class BlowupSpec:
    """A host tournament and one positive weight per host vertex."""
    host: Tournament
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", check_weights(self.weights))
        if len(self.weights) != self.host.n:
            raise TournamentError("need one weight per host vertex")


def part_sizes(weights: Sequence[float], n: int) -> list[int]:
    """Largest-remainder apportionment of n seats: floor(w_i * n) each,
    then leftover seats to the largest fractional parts, ties broken
    toward the lower index."""
    w = check_weights(weights)
    raw = [x * n for x in w]
    sizes = [int(np.floor(r)) for r in raw]
    rem = np.array([r - s for r, s in zip(raw, sizes)])
    leftover = n - sum(sizes)
    order = np.argsort(-rem, kind="stable")
    for i in order[:leftover]:
        sizes[i] += 1
    return sizes


def blowup(spec: BlowupSpec, n: int, seed: int) -> Tournament:
    """Blow-up T(H; w) sampled at n vertices: part i gets part_sizes()[i]
    consecutive vertices; cross-part pairs follow the host arc; pairs
    inside a part are oriented by the stream draw at their pair index.
    Each part's rows right of it are set from the host's row by slicing,
    and only the pairs inside a part are drawn."""
    _check_order(n)
    sizes = part_sizes(spec.weights, n)
    if min(sizes) == 0:
        k = sizes.index(0)
        raise TournamentError(
            f"part {k} is empty at n={n}; weight {spec.weights[k]} too small")
    host = spec.host.dense()
    upper = np.zeros((n, n), dtype=bool)
    e = 0
    for i, size in enumerate(sizes):
        s, e = e, e + size
        upper[s:e, e:] = np.repeat(host[i, i + 1:], sizes[i + 1:])
        for r0, bits in _draws(seed, n, range(s, e - 1), s, e,
                               lambda v: v < 2**63):
            upper[r0:r0 + len(bits), s:e] = bits
    return _complete(upper)


def flip_perturb(t: Tournament, p: float, seed: int) -> Tournament:
    """Reverse each pair's orientation independently with probability p
    (pair k flips iff stream value k / 2**64 < p)."""
    if not 0.0 <= p <= 1.0:
        raise TournamentError("p must be in [0, 1]")
    n = t.n
    _check_order(n)
    upper = t.dense().copy()
    for r0, bits in _draws(seed, n, range(n - 1), 0, n,
                           lambda v: v / 2.0**64 < p):
        upper[r0:r0 + len(bits)] ^= bits
    return _complete(upper)


@dataclass(frozen=True)
class MixSpec:
    """Two-block mix: a cross pair points t1 -> t2 with probability p."""
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise TournamentError("p must be in [0, 1]")


def mix(t1: Tournament, t2: Tournament, spec: MixSpec, seed: int) -> Tournament:
    """Disjoint union of t1 (vertices 0..n1-1) and t2 (shifted by n1) with
    every cross pair oriented t1-side -> t2-side with probability spec.p,
    drawn at the pair's index in the combined vertex order."""
    n1, n = t1.n, t1.n + t2.n
    _check_order(n)
    upper = np.zeros((n, n), dtype=bool)
    upper[:n1, :n1] = t1.dense()
    upper[n1:, n1:] = t2.dense()
    for r0, bits in _draws(seed, n, range(n1), n1, n,
                           lambda v: v / 2.0**64 < spec.p):
        upper[r0:r0 + len(bits), n1:] = bits
    return _complete(upper)


# -- canonical codes ------------------------------------------------------

CANONICAL_MAX_N = 8


def _upper_code(dense, order) -> int:
    """Code of the relabeling sending new vertex a to old order[a]: the
    upper-triangle orientation bits in pair-lex order, first pair most
    significant, so integer order equals lexicographic order."""
    code = 0
    for a in range(len(order)):
        oa = order[a]
        row = dense[oa]
        for b in range(a + 1, len(order)):
            code = (code << 1) | int(row[order[b]])
    return code


def canonical_code(t: Tournament) -> int:
    """Isomorphism-invariant integer code: the lexicographic minimum over
    all relabelings of the upper-triangle bit string.  Brute force over
    n! relabelings; rejected for n > 8."""
    if t.n > CANONICAL_MAX_N:
        raise TournamentError(f"canonical_code supports n <= {CANONICAL_MAX_N}")
    dense = t.dense().astype(np.uint8)
    return min(_upper_code(dense, order)
               for order in permutations(range(t.n)))


def from_code(code: int, n: int) -> Tournament:
    """Inverse of the upper-triangle coding for the identity labeling."""
    _check_order(n)
    bits = [code >> k & 1 for k in reversed(range(n * (n - 1) // 2))]
    upper = np.zeros((n, n), dtype=bool)
    upper[~np.tri(n, dtype=bool)] = bits    # row-major order is pair-lex order
    return _complete(upper)


# -- TRN v1 ---------------------------------------------------------------

_ZERO, _ONE, _DASH, _NEWLINE = (ord(c) for c in "01-\n")
_PARSE_BYTES = 2**16


def write_trn(t: Tournament, path) -> None:
    """Write t to `path` as TRN v1: header line, then one row of {0,1,-}
    per vertex; char j of line i is 1 iff i -> j, '-' on the diagonal.
    The rows, newlines included, go through one reusable uint8 block of
    about _PARSE_BYTES: beside t the write holds that block, never the
    whole text."""
    n, a = t.n, t.dense()
    step = max(1, _PARSE_BYTES // n)
    buf = np.empty((min(step, n), n + 1), dtype=np.uint8)
    buf[:, n] = _NEWLINE
    with open(path, "wb") as fh:
        fh.write(f"TRN v1 {n}\n".encode("ascii"))
        for r0 in range(0, n, step):
            rows = buf[:min(step, n - r0)]
            np.add(a[r0:r0 + len(rows)], _ZERO, out=rows[:, :n],
                   dtype=np.uint8)
            rows.reshape(-1)[r0::n + 2] = _DASH     # (r0 + i, r0 + i)
            fh.write(rows)


def _first_true(mask: np.ndarray, r0: int, diagonal):
    """Global row-major (i, j) of the first True entry of `mask`, rows
    r0.. of an n-column matrix, after its entries on that matrix's
    diagonal are set to `diagonal` (in place), or None."""
    mask.reshape(-1)[r0::mask.shape[1] + 1] = diagonal
    if not mask.any():
        return None
    i, j = divmod(int(np.argmax(mask)), mask.shape[1])
    return r0 + i, j


def _trn_header(data: bytes) -> tuple[int, int]:
    r"""n and the end of line 1, the header line: it ends at the first
    \r or \n, as the first of data.splitlines() does."""
    if not data:
        raise DataFormatError("line 1: empty TRN input")
    end = len(data)
    for newline in b"\n\r":
        found = data.find(newline, 0, end)
        if found >= 0:
            end = found
    line = data[:end]
    head = line.split()
    if len(head) != 3 or head[0] != b"TRN" or head[1] != b"v1":
        raise DataFormatError(
            f"line 1: expected 'TRN v1 <n>', got {line.decode()!r}")
    try:
        n = int(head[2])
    except ValueError:
        raise DataFormatError(
            f"line 1: bad vertex count {head[2].decode()!r}") from None
    if n < 1:
        raise DataFormatError("line 1: vertex count must be >= 1")
    if n > _MAX_ORDER:
        raise DataFormatError(
            f"line 1: vertex count {n} is over the limit of {_MAX_ORDER}")
    return n, end


def _trn_bits(codes: np.ndarray, d: np.ndarray, r0: int = 0):
    """Check the rows `codes` (uint8, n chars each), rows r0.. of the
    n x n bool `d`, char by char, about _PARSE_BYTES at a time, and
    write them there as bits; returns the first error in row-major
    order, or None."""
    n = d.shape[1]
    step = max(1, _PARSE_BYTES // n)
    for i0 in range(0, len(codes), step):
        block, b0 = codes[i0:i0 + step], r0 + i0
        # '0' and '1' differ only in the low bit; the diagonal must be '-'
        first = _first_true((block | 1) != _ONE, b0,
                            block.diagonal(b0) != _DASH)
        if first is not None:
            i, j = first
            if i == j:
                return f"line {i + 2}: diagonal must be '-'"
            return (f"line {i + 2}: bad char {chr(codes[i - r0, j])!r} "
                    f"at column {j + 1}")
        np.equal(block, _ONE, out=d[b0:b0 + len(block)])
    return None


def _trn_asymmetry(d: np.ndarray):
    """The first pair, in row-major order, that the bool matrix `d`
    orients both ways or not at all, as an error, or None.  Each band of
    _BLOCK rows is compared, block by block on and above the diagonal,
    with the transposes of the mirror blocks, in one reused buffer.  The
    hit mask d == d.T is symmetric, so the first row-major hit of a bad
    pair has i < j: it lies in such a block, in row i's band, and the
    least of the band's first hits per block is the first of all."""
    n = len(d)
    buf = np.empty((min(_BLOCK, n),) * 2, dtype=bool)
    for i0 in range(0, n, _BLOCK):
        hits = []
        for j0 in range(i0, n, _BLOCK):
            x = buf[:min(_BLOCK, n - i0), :min(_BLOCK, n - j0)]
            np.equal(d[i0:i0 + _BLOCK, j0:j0 + _BLOCK],
                     d[j0:j0 + _BLOCK, i0:i0 + _BLOCK].T, out=x)
            if i0 == j0:
                np.fill_diagonal(x, False)      # (u, u) is no pair
            if x.any():
                i, j = divmod(int(np.argmax(x)), x.shape[1])
                hits.append((i0 + i, j0 + j))
        if hits:
            i, j = min(hits)
            return (f"line {i + 2}: pair ({i}, {j}) is "
                    + ("oriented both ways" if d[i, j] else "unoriented"))
    return None


def _read_blocks(fh):
    r"""The tournament in the binary TRN v1 file `fh` if it is in the
    layout write_trn writes: a header line ending in \n alone, then n
    lines of n bytes, each followed by \n, then only ASCII.  Each block
    of about _PARSE_BYTES is read into one buffer, checked and written
    into the n x n matrix.  Returns None, at any position of `fh`, if
    the file is not in that layout or a row fails a check; a pair error
    is raised, as the line rules would raise it."""
    line = fh.readline(256)      # a longer header is left to _parse_trn
    if not (line.isascii() and line.endswith(b"\n") and b"\r" not in line):
        return None
    try:
        n, _ = _trn_header(line)
    except DataFormatError:
        return None
    start = fh.tell()
    if fh.seek(0, io.SEEK_END) - start < n * (n + 1):
        return None
    fh.seek(start)
    d = np.empty((n, n), dtype=bool)
    step = max(1, _PARSE_BYTES // n)
    buf = np.empty((min(step, n), n + 1), dtype=np.uint8)
    for r0 in range(0, n, step):
        rows = buf[:min(step, n - r0)]
        if (fh.readinto(rows) != rows.size
                or not (rows[:, n] == _NEWLINE).all()
                or _trn_bits(rows[:, :n], d, r0) is not None):
            return None
    while rest := fh.read(_PARSE_BYTES):
        if not rest.isascii():
            return None
    error = _trn_asymmetry(d)
    if error is not None:
        raise DataFormatError(error)
    return Tournament._adopt(d)


def _parse_trn(data: bytes) -> Tournament:
    """The TRN v1 parser by the line rules, on bytes that _ascii has
    checked (read_trn states the rules).  The first error in row-major
    order is reported with its line number.  Beside `data` the parse
    holds its lines, the join of the rows and the n x n matrix."""
    n, _ = _trn_header(data)
    lines = data.splitlines()
    if len(lines) < n + 1:
        raise DataFormatError(f"line {len(lines) + 1}: expected {n} rows, "
                              f"got {len(lines) - 1}")
    rows = [line.strip() for line in lines[1:n + 1]]
    # Rows before the first one of the wrong length are checked char by
    # char first: a bad char on an earlier line is the earlier error.
    short = next((i for i, row in enumerate(rows) if len(row) != n), n)
    codes = np.frombuffer(b"".join(rows[:short]), np.uint8).reshape(short, n)
    d = np.empty((n, n), dtype=bool)
    error = _trn_bits(codes, d)
    if error is None and short < n:
        error = (f"line {short + 2}: expected {n} chars, "
                 f"got {len(rows[short])}")
    if error is None:
        error = _trn_asymmetry(d)
    if error is not None:
        raise DataFormatError(error)
    return Tournament._adopt(d)


def read_trn(path) -> Tournament:
    r"""Read a TRN v1 file.  It must be ASCII: a non-ASCII byte is
    reported first, with its line and column.  Lines end at \n, \r\n or
    \r, rows are stripped of ASCII blanks, text after the last row is
    ignored, and n is at most 2**15 (_MAX_ORDER).

    A file in write_trn's layout is read a block of about _PARSE_BYTES
    at a time, each block checked and written into the n x n matrix:
    beside the matrix the read holds one block, and the pair check one
    _BLOCK x _BLOCK buffer: 1.05 n^2 traced bytes in all at n = 2000.
    Any other layout, and any file in that layout with a bad row, is
    read again whole and parsed line by line, so every error is the one
    the line rules give; that read also holds the bytes, the lines and
    the join of the rows (4.06 n^2 for CRLF line ends)."""
    with open(path, "rb") as fh:
        t = _read_blocks(fh)
        if t is not None:
            return t
        fh.seek(0)
        return _parse_trn(_ascii(fh.read()))

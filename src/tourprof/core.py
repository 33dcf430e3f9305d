"""Tournaments (complete directed graphs) and the constructions studied here.

Representation: the read-only n x n boolean adjacency matrix, entry
[u, j] true iff u beats j (written u -> j).  Tournaments are immutable
once built.

Constructions: transitive, cyclic (odd order), interval tournaments,
uniformly random, blow-ups with largest-remainder part sizes, random
edge-flip perturbations, and the two-block random mix.  All randomness
comes from the counter-based stream in `rng`, addressed at each pair's
lexicographic index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import isfinite
from typing import Iterable, Sequence

import numpy as np

from . import rng


class TournamentError(ValueError):
    """A construction precondition or matrix validity check failed."""


class DataFormatError(ValueError):
    """An on-disk artifact (TRN/FLAGCERT/FLAGTAB/CSV) is malformed."""


class InternalInvariantError(RuntimeError):
    """A mathematically guaranteed identity failed; indicates a bug."""


def pair_index(u: int, v: int, n: int) -> int:
    """Lexicographic index of the unordered pair (u, v), u < v, among all
    pairs of range(n).  This is the stream address of the pair's draw."""
    if not 0 <= u < v < n:
        raise ValueError(f"bad pair ({u}, {v}) for n={n}")
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


class Tournament:
    """An immutable tournament on vertices 0..n-1.  The constructor keeps
    a read-only copy of the n x n boolean adjacency matrix it is given
    and does not validate it; from_matrix does."""

    __slots__ = ("n", "_dense")

    def __init__(self, dense: np.ndarray):
        d = np.array(dense, dtype=bool)
        d.flags.writeable = False
        self.n = d.shape[0]
        self._dense = d

    # -- views ---------------------------------------------------------

    def dense(self) -> np.ndarray:
        """Boolean adjacency matrix, read-only; [u, v] iff u -> v."""
        return self._dense

    def orient(self, u: int, v: int) -> bool:
        """True iff u -> v."""
        return bool(self._dense[u, v])

    def out_degrees(self) -> np.ndarray:
        return self._dense.sum(axis=1, dtype=np.int64)

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


def transitive(n: int) -> Tournament:
    """The transitive order: u -> v iff u < v."""
    if n < 1:
        raise TournamentError("n must be >= 1")
    d = np.triu(np.ones((n, n), dtype=bool), k=1)
    return Tournament(d)


def cyclic(n: int) -> Tournament:
    """The rotational tournament on odd n: u -> v iff (v - u) mod n is in
    1..(n-1)/2.  Every out- and in-neighborhood is an arc of consecutive
    vertices, hence transitive, so these have no 4-vertex W/L patterns."""
    if n < 3 or n % 2 == 0:
        raise TournamentError("cyclic tournaments need odd n >= 3")
    diff = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    d = (diff >= 1) & (diff <= (n - 1) // 2)
    return Tournament(d)


def interval(n: int, s: int) -> Tournament:
    """Near-boundary construction: u -> v for u < v iff v - u <= s, else
    v -> u.  Requires 2s >= n (so s >= ceil(n/2)), which forces every
    cyclic triangle to be 'long' and kills all W/L 4-sets."""
    if n < 3:
        raise TournamentError("n must be >= 3")
    if not (2 * s >= n and s <= n):
        raise TournamentError(f"interval needs ceil(n/2) <= s <= n, got s={s}")
    gap = np.arange(n)[None, :] - np.arange(n)[:, None]
    d = (gap >= 1) & (gap <= s) | (gap <= -(s + 1))
    return Tournament(d)


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniformly random orientation.  Pair k (lexicographic order) is
    oriented u -> v iff stream value k has top bit 0."""
    if n < 1:
        raise TournamentError("n must be >= 1")
    npairs = n * (n - 1) // 2
    vals = rng.values(seed, 0, npairs)
    forward = ~(vals >> np.uint64(63)).astype(bool)
    d = np.zeros((n, n), dtype=bool)
    iu, ju = np.triu_indices(n, k=1)
    d[iu, ju] = forward
    d[ju, iu] = ~forward
    return Tournament(d)


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
    inside a part are oriented by the stream draw at their pair index."""
    sizes = part_sizes(spec.weights, n)
    if min(sizes) == 0:
        k = sizes.index(0)
        raise TournamentError(
            f"part {k} is empty at n={n}; weight {spec.weights[k]} too small")
    owner = np.repeat(np.arange(spec.host.n), sizes)
    host = spec.host.dense()
    d = host[np.ix_(owner, owner)].copy()
    same = owner[:, None] == owner[None, :]
    d[same] = False
    iu, ju = np.triu_indices(n, k=1)
    intra = same[iu, ju]
    vals = rng.values(seed, 0, len(iu))
    forward = ~(vals >> np.uint64(63)).astype(bool)
    d[iu[intra], ju[intra]] = forward[intra]
    d[ju[intra], iu[intra]] = ~forward[intra]
    return Tournament(d)


def flip_perturb(t: Tournament, p: float, seed: int) -> Tournament:
    """Reverse each pair's orientation independently with probability p
    (pair k flips iff stream value k / 2**64 < p)."""
    if not 0.0 <= p <= 1.0:
        raise TournamentError("p must be in [0, 1]")
    n = t.n
    iu, ju = np.triu_indices(n, k=1)
    vals = rng.values(seed, 0, len(iu))
    flip = (vals.astype(np.float64) / 2.0**64) < p
    d = t.dense().copy()
    fu, fv = iu[flip], ju[flip]
    d[fu, fv], d[fv, fu] = d[fv, fu], d[fu, fv].copy()
    return Tournament(d)


@dataclass(frozen=True)
class MixSpec:
    """Two-block mix parameters.  alpha records the intended first-block
    share (informational: the actual split is |t1| vs |t2|); p is the
    probability a cross pair points from the t1 block to the t2 block."""
    alpha: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise TournamentError("alpha must be in (0, 1)")
        if not 0.0 <= self.p <= 1.0:
            raise TournamentError("p must be in [0, 1]")


def mix(t1: Tournament, t2: Tournament, spec: MixSpec, seed: int) -> Tournament:
    """Disjoint union of t1 (vertices 0..n1-1) and t2 (shifted by n1) with
    every cross pair oriented t1-side -> t2-side with probability spec.p,
    drawn at the pair's index in the combined vertex order."""
    n1, n2 = t1.n, t2.n
    n = n1 + n2
    d = np.zeros((n, n), dtype=bool)
    d[:n1, :n1] = t1.dense()
    d[n1:, n1:] = t2.dense()
    iu, ju = np.triu_indices(n, k=1)
    cross = (iu < n1) & (ju >= n1)
    vals = rng.values(seed, 0, len(iu))
    forward = (vals.astype(np.float64) / 2.0**64) < spec.p
    d[iu[cross], ju[cross]] = forward[cross]
    d[ju[cross], iu[cross]] = ~forward[cross]
    return Tournament(d)


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
    d = np.zeros((n, n), dtype=bool)
    nbits = n * (n - 1) // 2
    k = 0
    for a in range(n):
        for b in range(a + 1, n):
            bit = (code >> (nbits - 1 - k)) & 1
            d[a, b] = bool(bit)
            d[b, a] = not bit
            k += 1
    return Tournament(d)


# -- TRN v1 ---------------------------------------------------------------

_ZERO, _ONE, _DASH, _NEWLINE = (ord(c) for c in "01-\n")


def _trn_bytes(t: Tournament) -> bytes:
    """TRN v1 as bytes: the rows are one (n, n + 1) uint8 buffer."""
    n = t.n
    buf = np.empty((n, n + 1), dtype=np.uint8)
    body = buf[:, :n]
    np.add(t.dense(), _ZERO, out=body, dtype=np.uint8)
    np.fill_diagonal(body, _DASH)
    buf[:, n] = _NEWLINE
    return f"TRN v1 {n}\n".encode("ascii") + buf.tobytes()


def to_trn_text(t: Tournament) -> str:
    """Serialize as TRN v1: header line, then one row of {0,1,-} per
    vertex; char j of line i is 1 iff i -> j, '-' on the diagonal."""
    return _trn_bytes(t).decode("ascii")


def _first_true(mask: np.ndarray):
    """Row-major (i, j) of the first True entry of a 2-D mask, or None."""
    if not mask.any():
        return None
    return divmod(int(np.argmax(mask)), mask.shape[1])


def from_trn_text(text: str) -> Tournament:
    """Parse TRN v1.  Lines split as str.splitlines() does (so CRLF is
    fine) and each row is stripped of surrounding blanks; lines after
    the last row are ignored.  The first error in row-major order is
    reported with its line number."""
    lines = text.splitlines()
    if not lines:
        raise DataFormatError("line 1: empty TRN input")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "TRN" or head[1] != "v1":
        raise DataFormatError(f"line 1: expected 'TRN v1 <n>', got {lines[0]!r}")
    try:
        n = int(head[2])
    except ValueError:
        raise DataFormatError(f"line 1: bad vertex count {head[2]!r}") from None
    if n < 1:
        raise DataFormatError("line 1: vertex count must be >= 1")
    if len(lines) < n + 1:
        raise DataFormatError(f"line {len(lines) + 1}: expected {n} rows, "
                              f"got {len(lines) - 1}")
    rows = [line.strip() for line in lines[1:n + 1]]
    # Rows before the first one of the wrong length are checked char by
    # char first: a bad char on an earlier line is the earlier error.
    short = next((i for i, row in enumerate(rows) if len(row) != n), n)
    flat = "".join(rows[:short])
    codes = (np.frombuffer(flat.encode("ascii"), dtype=np.uint8)
             if flat.isascii()
             else np.frombuffer(flat.encode("utf-32-le"), dtype="<u4"))
    codes = codes.reshape(short, n)
    diag = np.eye(short, n, dtype=bool)
    bad = np.where(diag, codes != _DASH, (codes != _ZERO) & (codes != _ONE))
    first = _first_true(bad)
    if first is not None:
        i, j = first
        if i == j:
            raise DataFormatError(f"line {i + 2}: diagonal must be '-'")
        raise DataFormatError(
            f"line {i + 2}: bad char {chr(codes[i, j])!r} at column {j + 1}")
    if short < n:
        raise DataFormatError(f"line {short + 2}: expected {n} chars, "
                              f"got {len(rows[short])}")
    d = codes == _ONE
    first = _first_true(np.triu(d == d.T, k=1))
    if first is not None:
        i, j = first
        raise DataFormatError(
            f"line {i + 2}: pair ({i}, {j}) is "
            + ("oriented both ways" if d[i, j] else "unoriented"))
    return Tournament(d)


def write_trn(t: Tournament, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_trn_bytes(t))


def read_trn(path) -> Tournament:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        pos = int(np.argmax(np.frombuffer(data, dtype=np.uint8) >= 0x80))
        # a stand-in char after the ASCII prefix lands where the bad byte is
        where = (data[:pos].decode("ascii") + "x").splitlines()
        raise DataFormatError(
            f"line {len(where)}: non-ASCII byte 0x{data[pos]:02x} "
            f"at column {len(where[-1])}")
    return from_trn_text(data.decode("ascii"))

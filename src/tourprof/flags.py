"""Small flag algebra over the single order-2 type (a directed edge).

A k-flag is a k-vertex tournament with vertices 0 and 1 labeled and
oriented 0 -> 1; isomorphisms must fix the labels.  There are 1, 4, 16
flags of order 2, 3, 4.  The four 3-flags are named by the third
vertex's pattern relative to the edge (u, v) = (0, 1):

    cyc      v -> w -> u       thru     u -> w -> v
    dom_out  u -> w, v -> w    dom_in   w -> u, w -> v

so the 3-flag densities at an edge are exactly the normalized edge
statistics X, Y, and the two dominance fractions.

For flag order k the product expansion lives on tournament types of
order N = 2k - 2.  For a type H, p_H(i, j) is the fraction of
configurations (directed arc (u, v) of H, ordered split of the other
N - 2 vertices into two (k-2)-sets) whose halves induce flags i and j.
Every type carries the same number of configurations, 12 at k = 3 and
90 at k = 4, so product_table stores the exact integer counts behind
p_H as one int64 array (types, f, f), and p_H = counts[h] / total.  The
same integers make the finite-n moment consistency check exact.

A certificate (gamma, mu, lambda, Q) proves c4 >= lambda at c3 = gamma
in the limit: it is valid when Q is positive semidefinite and

    kappa_H = d_C4(H) - mu (d_C3(H) - gamma) - <Q, p_H> - lambda >= 0

for every type H of order 2k - 2.  Certificates, their FLAGCERT files,
verify_certificate, which decides this exactly, and the closed-form
lemma1_certificate and search_certificate, which price their candidates
by the same exact kappa_H, live in tourprof.certificate without numpy;
import them from there.  They read the flag codes and the counts from
the data file that flag_data_text writes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import comb
from typing import Optional

import numpy as np

# Certificates need no numpy and live in .certificate.  The four
# functions are bound here too, where perfbench/child.py traces them.
from .certificate import (FLAG_COUNTS, read_certificate, search_certificate,
                          verify_certificate, write_certificate)
from .core import InternalInvariantError, Tournament, from_code
from .profiles import (_check_gram_memory, classify4, edge_stats, profile3,
                       profile4)

MAX_TYPE_ORDER = 6
TYPE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56}
FLAG3_NAMES = {(0, 1): "cyc", (1, 0): "thru", (1, 1): "dom_out", (0, 0): "dom_in"}


@dataclass(frozen=True)
class TournamentType:
    order: int
    code: int
    index: int
    rep: Tournament


@dataclass(frozen=True)
class Flag:
    k: int
    code: int
    index: int
    rep: Tournament
    name: Optional[str] = None


@lru_cache(maxsize=None)
def _canonical_map(k: int, labeled: int = 0) -> np.ndarray:
    """canonical[code] for every k-tournament code: the least code in its
    orbit under the relabelings that fix vertices 0..labeled-1 (same bit
    convention as core.canonical_code: pair-lex order, first pair most
    significant).  Types use labeled=0, edge-rooted flags labeled=2.

    Walks the codes in increasing order; the first unvisited code is the
    least of its orbit, so one gather over (relabelings x pairs) maps the
    whole orbit to it."""
    pairs = np.array(list(combinations(range(k), 2)),
                     dtype=np.intp).reshape(-1, 2)
    npair = len(pairs)
    pos = np.zeros((k, k), dtype=np.intp)
    pos[pairs[:, 0], pairs[:, 1]] = np.arange(npair)
    perms = np.array([tuple(range(labeled)) + rest
                      for rest in permutations(range(labeled, k))],
                     dtype=np.intp)
    oa, ob = perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]
    src = pos[np.minimum(oa, ob), np.maximum(oa, ob)]
    flip = (oa > ob).astype(np.int64)
    shifts = np.arange(npair - 1, -1, -1, dtype=np.int64)
    weights = np.int64(1) << shifts
    canon = np.full(1 << npair, -1, dtype=np.int64)
    for code in range(canon.size):
        if canon[code] < 0:
            bits = (code >> shifts) & 1
            canon[(bits[src] ^ flip) @ weights] = code
    return canon


def _orbit_minima(canon: np.ndarray) -> np.ndarray:
    """The distinct values of a _canonical_map, in increasing order: each
    code maps to the least code of its orbit, which maps to itself.
    (np.unique would give the same, but it imports numpy.ma.)"""
    return np.flatnonzero(canon == np.arange(canon.size))


@lru_cache(maxsize=None)
def enumerate_types(k: int) -> tuple:
    """All tournament types (isomorphism classes) of order k <= 6,
    sorted by canonical code.  Counts: 1, 1, 2, 4, 12, 56."""
    if not 1 <= k <= MAX_TYPE_ORDER:
        raise ValueError(f"type enumeration supports 1 <= k <= {MAX_TYPE_ORDER}")
    codes = _orbit_minima(_canonical_map(k)).tolist()
    types = tuple(TournamentType(k, code, i, from_code(code, k))
                  for i, code in enumerate(codes))
    if len(types) != TYPE_COUNTS[k]:
        raise InternalInvariantError(
            f"expected {TYPE_COUNTS[k]} types of order {k}, got {len(types)}")
    return types


@lru_cache(maxsize=None)
def enumerate_flags(k: int) -> tuple:
    """All flags of order k in {2, 3, 4} over the edge type, sorted by
    canonical code.  The labeled arc 0 -> 1 is the first pair, so the
    flags are the canonical codes whose top bit is set.  For k = 3 each
    flag carries its pattern name."""
    if k not in FLAG_COUNTS:
        raise ValueError("flag order must be 2, 3, or 4")
    canon = _canonical_map(k, 2)
    minima = _orbit_minima(canon)
    flags = []
    for i, code in enumerate(minima[minima >= canon.size // 2].tolist()):
        rep = from_code(code, k)
        name = None
        if k == 3:
            name = FLAG3_NAMES[(int(rep.orient(0, 2)), int(rep.orient(1, 2)))]
        flags.append(Flag(k=k, code=code, index=i, rep=rep, name=name))
    if len(flags) != FLAG_COUNTS[k]:
        raise InternalInvariantError(
            f"expected {FLAG_COUNTS[k]} flags of order {k}, got {len(flags)}")
    return tuple(flags)


def _induced_codes(dense: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Codes (core.canonical_code bit convention) of the tournaments that
    each vertex order orders[c] = (o_0, ..., o_{m-1}) induces in dense,
    one (n, n) matrix or a stack (..., n, n) of them.  One gather reads
    every order's upper-triangle bits."""
    m = orders.shape[-1]
    i, j = np.triu_indices(m, 1)
    weights = np.int64(1) << np.arange(len(i) - 1, -1, -1, dtype=np.int64)
    return dense[..., orders[:, i], orders[:, j]].astype(np.int64) @ weights


def subtype_density(small: TournamentType, big) -> Fraction:
    """Exact density of type `small` among |small|-subsets of `big` (a
    TournamentType or a Tournament)."""
    t = big.rep if isinstance(big, TournamentType) else big
    kin = small.order
    if kin > t.n:
        raise ValueError("subtype larger than the host tournament")
    subsets = np.array(list(combinations(range(t.n), kin)),
                       dtype=np.intp).reshape(-1, kin)
    codes = _canonical_map(kin)[_induced_codes(t.dense(), subsets)]
    return Fraction(int((codes == small.code).sum()), len(subsets))


@dataclass(frozen=True)
class ProductTable:
    """Exact flag pair expansion over the types of order 2k - 2.

    counts[h, i, j] is the number of configurations of type types[h]
    (an arc u -> v and an ordered split of the other vertices into two
    (k-2)-sets) whose halves induce flags i and j, so p_H(i, j) =
    counts[h, i, j] / total (total = 12 at k = 3, 90 at k = 4) and each
    counts[h] sums to total.  counts is a read-only int64 array of shape
    (types, f, f); tables is the same data as a dict from type code to
    an f x f tuple of Fractions, built on first use."""
    k: int
    type_order: int
    flags: tuple
    types: tuple
    total: int
    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @cached_property
    def tables(self) -> dict:
        return {h.code: tuple(tuple(Fraction(c, self.total) for c in row)
                              for row in mat)
                for h, mat in zip(self.types, self.counts.tolist())}


@lru_cache(maxsize=None)
def product_table(k: int) -> ProductTable:
    if k not in (3, 4):
        raise ValueError("product tables support k = 3 or 4")
    n_big = 2 * k - 2
    flags = enumerate_flags(k)
    types = enumerate_types(n_big)
    total = comb(n_big, 2) * comb(n_big - 2, k - 2)
    # A configuration is a vertex permutation (u, v, a-side, b-side)
    # with each side in increasing order; its halves induce the flags of
    # the vertex orders (u, v, a-side) and (u, v, b-side).
    perms = np.array(list(permutations(range(n_big))), dtype=np.intp)
    sides = perms[:, 2:].reshape(len(perms), 2, k - 2)
    conf = perms[(np.diff(sides, axis=2) > 0).all(axis=(1, 2))]
    dense = np.stack([h.rep.dense() for h in types])
    flag_codes = np.array([fl.code for fl in flags])
    canon = _canonical_map(k, 2)
    fa = np.searchsorted(flag_codes, canon[_induced_codes(dense, conf[:, :k])])
    fb = np.searchsorted(flag_codes, canon[_induced_codes(
        dense, np.concatenate([conf[:, :2], conf[:, k:]], axis=1))])
    arc = dense[:, conf[:, 0], conf[:, 1]]
    counts = np.zeros((len(types), len(flags), len(flags)), dtype=np.int64)
    np.add.at(counts, (np.nonzero(arc)[0], fa[arc], fb[arc]), 1)
    if (counts.sum(axis=(1, 2)) != total).any():
        raise InternalInvariantError(
            f"a type does not have the expected {total} configurations")
    return ProductTable(k=k, type_order=n_big, flags=flags, types=types,
                        total=total, counts=counts)


# -- finite-n moment consistency -------------------------------------------


@dataclass(frozen=True)
class MomentConsistency:
    n: int
    k: int
    entries: dict          # (i, j) -> (lhs, rhs) exact integers
    all_ok: bool


def moment_consistency_check(t: Tournament) -> MomentConsistency:
    """Exact finite-n check that edge-level 3-flag pair counts match the
    product-table expansion: with N[e, i] the count of flag i at edge e,

        N^T N - diag(sum_e N[e]) = sum_H count_H(t) * counts[H]

    because every 4-subset contributes exactly its 12 configurations
    (the table's total at k = 3), so the right side needs only the
    4-profile, which `edge_stats` gives from its one Gram pass.  Both
    sides are exact int64 sums (below C(n, 2)(n - 2)^2 < 2^63), reported
    as Python ints; N's columns meet in dot products, never stacked, so
    it traces 16 n^2 bytes, and 17 n^2 is checked before anything n x n
    is allocated."""
    if t.n < 6:
        raise ValueError("moment consistency needs n >= 6")
    _check_gram_memory(t.n, 17)
    table = product_table(3)
    stats = edge_stats(t)
    cols = [getattr(stats, f.name) for f in table.flags]
    lhs = [[int(x @ y) for y in cols] for x in cols]
    for i, x in enumerate(cols):
        lhs[i][i] -= int(x.sum())
    rhs = np.tensordot([getattr(stats.p4, f"{classify4(h.rep).lower()}_count")
                        for h in table.types], table.counts, axes=1).tolist()
    f = len(table.flags)
    entries = {(i, j): (lhs[i][j], rhs[i][j])
               for i in range(f) for j in range(f)}
    return MomentConsistency(n=t.n, k=3, entries=entries,
                             all_ok=all(a == b for a, b in entries.values()))


# -- the certificate data file -----------------------------------------------


def flag_data_text() -> str:
    """The text of certificate.DATA_FILE, JSON: for k = 3 and 4, the
    type order and configuration total of product_table(k), its flag
    codes in flag order, and one line per type in code order, [code,
    c3 count, c4 count, counts matrix]."""
    blocks = []
    for k in (3, 4):
        table = product_table(k)
        codes = json.dumps([fl.code for fl in table.flags],
                           separators=(",", ":"))
        rows = ",\n".join(
            json.dumps([h.code, profile3(h.rep).c3_count,
                        profile4(h.rep).c4_count, m], separators=(",", ":"))
            for h, m in zip(table.types, table.counts.tolist()))
        blocks.append(f'"{k}":{{"type_order":{table.type_order},'
                      f'"total":{table.total},"flags":{codes},'
                      f'"types":[\n{rows}]}}')
    return "{" + ",\n".join(blocks) + "}\n"


def write_flag_data(path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(flag_data_text())


# -- FLAGTAB v1 -------------------------------------------------------------


def table_to_text(table: ProductTable) -> str:
    f = len(table.flags)
    lines = [f"FLAGTAB v1 {table.k} {f} {len(table.types)} {table.total}"]
    for h in table.types:
        lines.append(f"type {h.code}")
        for row in table.tables[h.code]:
            lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def write_table(table: ProductTable, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(table_to_text(table))


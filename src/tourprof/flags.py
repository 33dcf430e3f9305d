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
Every 4-subset of any tournament carries the same 12 configurations at
k = 3 (90 at k = 4), which is what makes the finite-n moment
consistency check exact.

A certificate (gamma, mu, lambda, Q) proves c4 >= lambda at c3 = gamma
in the limit: it is valid when Q is positive semidefinite and

    kappa_H = d_C4(H) - mu (d_C3(H) - gamma) - <Q, p_H> - lambda >= 0

for every type H of order 2k - 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, isfinite
from typing import Optional

import numpy as np

from . import rng
from .core import (DataFormatError, InternalInvariantError, Tournament,
                   _upper_code, from_code)
from .profiles import classify4, edge_stats, profile3, profile4

MAX_TYPE_ORDER = 6
TYPE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56}
FLAG_COUNTS = {2: 1, 3: 4, 4: 16}
FLAG3_NAMES = {(0, 1): "cyc", (1, 0): "thru", (1, 1): "dom_out", (0, 0): "dom_in"}

KAPPA_TOL = 1e-9
PSD_TOL = 1e-9


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


@lru_cache(maxsize=None)
def enumerate_types(k: int) -> tuple:
    """All tournament types (isomorphism classes) of order k <= 6,
    sorted by canonical code.  Counts: 1, 1, 2, 4, 12, 56."""
    if not 1 <= k <= MAX_TYPE_ORDER:
        raise ValueError(f"type enumeration supports 1 <= k <= {MAX_TYPE_ORDER}")
    codes = np.unique(_canonical_map(k)).tolist()
    types = tuple(TournamentType(k, code, i, from_code(code, k))
                  for i, code in enumerate(codes))
    if len(types) != TYPE_COUNTS[k]:
        raise InternalInvariantError(
            f"expected {TYPE_COUNTS[k]} types of order {k}, got {len(types)}")
    return types


def _flag_code(dense: np.ndarray, order: tuple) -> int:
    """Canonical code of the flag induced on `order` (labeled pair first)
    of `dense`."""
    return int(_canonical_map(len(order), 2)[_upper_code(dense, order)])


@lru_cache(maxsize=None)
def enumerate_flags(k: int) -> tuple:
    """All flags of order k in {2, 3, 4} over the edge type, sorted by
    canonical code.  The labeled arc 0 -> 1 is the first pair, so the
    flags are the canonical codes whose top bit is set.  For k = 3 each
    flag carries its pattern name."""
    if k not in FLAG_COUNTS:
        raise ValueError("flag order must be 2, 3, or 4")
    canon = _canonical_map(k, 2)
    flags = []
    for i, code in enumerate(np.unique(canon[canon.size // 2:]).tolist()):
        rep = from_code(code, k)
        name = None
        if k == 3:
            name = FLAG3_NAMES[(int(rep.orient(0, 2)), int(rep.orient(1, 2)))]
        flags.append(Flag(k=k, code=code, index=i, rep=rep, name=name))
    if len(flags) != FLAG_COUNTS[k]:
        raise InternalInvariantError(
            f"expected {FLAG_COUNTS[k]} flags of order {k}, got {len(flags)}")
    return tuple(flags)


def flag_index_by_name(k: int, name: str) -> int:
    for f in enumerate_flags(k):
        if f.name == name:
            return f.index
    raise ValueError(f"no flag named {name!r} at order {k}")


def subtype_density(small: TournamentType, big) -> Fraction:
    """Exact density of type `small` among |small|-subsets of `big` (a
    TournamentType or a Tournament)."""
    t = big.rep if isinstance(big, TournamentType) else big
    kin = small.order
    if kin > t.n:
        raise ValueError("subtype larger than the host tournament")
    canon = _canonical_map(kin)
    dense = t.dense().astype(np.uint8)
    hits = 0
    total = 0
    for sub in combinations(range(t.n), kin):
        total += 1
        if int(canon[_upper_code(dense, sub)]) == small.code:
            hits += 1
    return Fraction(hits, total)


@dataclass(frozen=True)
class ProductTable:
    """Exact flag pair expansion over types of order 2k - 2: tables maps
    a type code to the f x f matrix of Fractions p_H(i, j); each matrix
    sums to 1 (total configurations: 12 at k = 3, 90 at k = 4)."""
    k: int
    type_order: int
    flags: tuple
    types: tuple
    total: int
    tables: dict


@lru_cache(maxsize=None)
def product_table(k: int) -> ProductTable:
    if k not in (3, 4):
        raise ValueError("product tables support k = 3 or 4")
    n_big = 2 * k - 2
    flags = enumerate_flags(k)
    fidx = {f.code: f.index for f in flags}
    types = enumerate_types(n_big)
    total = comb(n_big, 2) * comb(n_big - 2, k - 2)
    tables = {}
    for h in types:
        dense = h.rep.dense().astype(np.uint8)
        counts = [[0] * len(flags) for _ in range(len(flags))]
        arcs = np.argwhere(h.rep.dense())
        nconf = 0
        for u, v in arcs:
            rest = tuple(w for w in range(n_big) if w not in (int(u), int(v)))
            for a_side in combinations(rest, k - 2):
                b_side = tuple(w for w in rest if w not in a_side)
                i = fidx[_flag_code(dense, (int(u), int(v)) + a_side)]
                j = fidx[_flag_code(dense, (int(u), int(v)) + b_side)]
                counts[i][j] += 1
                nconf += 1
        if nconf != total:
            raise InternalInvariantError(
                f"type {h.code}: {nconf} configurations, expected {total}")
        tables[h.code] = tuple(tuple(Fraction(c, total) for c in row)
                               for row in counts)
    return ProductTable(k=k, type_order=n_big, flags=flags, types=types,
                        total=total, tables=tables)


@lru_cache(maxsize=None)
def _type_densities(order: int, code: int) -> tuple:
    """(d_C3, d_C4) of a type as exact Fractions."""
    rep = from_code(code, order)
    p3 = profile3(rep)
    d_c3 = Fraction(p3.c3_count, comb(order, 3))
    d_c4 = Fraction(profile4(rep).c4_count, comb(order, 4))
    return d_c3, d_c4


# -- certificates ----------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Sum-of-squares style lower-bound certificate for c4 at c3 = gamma."""
    k: int
    gamma: float
    mu: float
    lam: float
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        f = len(enumerate_flags(self.k))
        if q.shape != (f, f):
            raise ValueError(f"Q must be {f}x{f} for k={self.k}, got {q.shape}")
        object.__setattr__(self, "q", 0.5 * (q + q.T))


@dataclass(frozen=True)
class CertVerification:
    valid: bool
    lam: float
    min_kappa: float
    min_eigenvalue: float
    psd_ok: bool
    kappas: dict


def verify_certificate(cert: Certificate, k: Optional[int] = None) -> CertVerification:
    """Check Q >= 0 (eigenvalue tolerance 1e-9 * (1 + ||Q||_F)) and
    kappa_H >= -1e-9 for every type H of order 2k - 2."""
    if k is not None and k != cert.k:
        raise ValueError(f"certificate is for k={cert.k}, not k={k}")
    table = product_table(cert.k)
    q = cert.q
    eigs = np.linalg.eigvalsh(q)
    min_eig = float(eigs[0])
    psd_ok = min_eig >= -PSD_TOL * (1.0 + float(np.linalg.norm(q)))
    kappas = {}
    for h in table.types:
        d_c3, d_c4 = _type_densities(h.order, h.code)
        p = np.array(table.tables[h.code], dtype=np.float64)
        kappa = (float(d_c4) - cert.mu * (float(d_c3) - cert.gamma)
                 - float((q * p).sum()) - cert.lam)
        kappas[h.code] = kappa
    min_kappa = min(kappas.values())
    return CertVerification(valid=psd_ok and min_kappa >= -KAPPA_TOL,
                            lam=cert.lam, min_kappa=min_kappa,
                            min_eigenvalue=min_eig, psd_ok=psd_ok,
                            kappas=kappas)


def _lemma1_parameters(gamma: float) -> tuple:
    if not 0.0 < gamma <= 0.25:
        raise ValueError(f"gamma must be in (0, 1/4], got {gamma}")
    t = (1.0 + 8.0 * gamma) / (3.0 * gamma)
    mu = 12.0 / t - 16.0 / (t * t)
    lam = 18.0 * gamma * gamma / (1.0 + 8.0 * gamma)
    return t, mu, lam


def _v3_coeffs(t: float) -> dict:
    """Coefficients of t*X - Z in the 3-flag basis.  With the unit
    1 = cyc + thru + dom_out + dom_in and Z = 1 + 2X - 2Y this is
    (t - 3) cyc + thru - dom_out - dom_in."""
    return {"cyc": t - 3.0, "thru": 1.0, "dom_out": -1.0, "dom_in": -1.0}


def lemma1_certificate(gamma: float) -> Certificate:
    """The closed-form rank-1 certificate from Cauchy-Schwarz applied to
    t X - Z with t = (1 + 8 gamma)/(3 gamma): Q = (6/t^2) v v^T where v
    expresses t X - Z in the 3-flag basis.  Certifies
    lambda = 18 gamma^2 / (1 + 8 gamma) with every kappa_H = 0."""
    t, mu, lam = _lemma1_parameters(gamma)
    flags = enumerate_flags(3)
    coeff = _v3_coeffs(t)
    v = np.array([coeff[f.name] for f in flags])
    q = (6.0 / (t * t)) * np.outer(v, v)
    return Certificate(k=3, gamma=gamma, mu=mu, lam=lam, q=q)


def _lift_v3_to_k4(t: float) -> np.ndarray:
    """k=4 warm start: each 4-flag G gets the average of the 3-flag
    coefficients of its two unlabeled vertices (E_w phi as a 4-flag sum)."""
    coeff = _v3_coeffs(t)
    out = []
    for f in enumerate_flags(4):
        vals = []
        for w in (2, 3):
            pat = (int(f.rep.orient(0, w)), int(f.rep.orient(1, w)))
            vals.append(coeff[FLAG3_NAMES[pat]])
        out.append(0.5 * (vals[0] + vals[1]))
    return np.array(out)


def _project_psd(q: np.ndarray) -> np.ndarray:
    q = 0.5 * (q + q.T)
    vals, vecs = np.linalg.eigh(q)
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.T


def search_certificate(gamma: float, k: int = 3, iterations: int = 300,
                       seed: int = 0) -> Certificate:
    """Best-effort numerical certificate search: projected subgradient
    ascent on (Q, mu) maximizing min_H kappa_H, warm-started from the
    closed-form certificate (k = 3) or its averaged lift (k = 4), with
    seeded random restarts.  Deterministic for fixed arguments; the
    returned certificate always passes verify_certificate, and at k = 3
    it is never worse than the closed-form seed."""
    if k not in (3, 4):
        raise ValueError("certificate search supports k = 3 or 4")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    t, mu1, _ = _lemma1_parameters(gamma)
    table = product_table(k)
    f = len(table.flags)
    p_mats = np.array([[[float(x) for x in row] for row in table.tables[h.code]]
                       for h in table.types])
    d3 = np.array([float(_type_densities(h.order, h.code)[0])
                   for h in table.types])
    d4 = np.array([float(_type_densities(h.order, h.code)[1])
                   for h in table.types])

    def residuals(q, mu):
        return d4 - mu * (d3 - gamma) - (p_mats * q).sum(axis=(1, 2))

    if k == 3:
        v = np.array([_v3_coeffs(t)[fl.name] for fl in table.flags])
    else:
        v = _lift_v3_to_k4(t)
    candidates = [(np.zeros((f, f)), 0.0),
                  ((6.0 / (t * t)) * np.outer(v, v), mu1)]
    best_q, best_mu = max(candidates,
                          key=lambda c: residuals(c[0], c[1]).min())
    best_lam = residuals(best_q, best_mu).min()

    stream = rng.Stream(rng.derive(seed, 0xCE27))
    q, mu = best_q.copy(), best_mu
    scale = 0.05 * (1.0 + float(np.linalg.norm(best_q)))
    for it in range(iterations):
        r = residuals(q, mu)
        h_star = int(np.argmin(r))
        eta = scale / np.sqrt(it + 1.0)
        q = _project_psd(q - eta * p_mats[h_star])
        mu -= eta * (d3[h_star] - gamma)
        lam = residuals(q, mu).min()
        if lam > best_lam:
            best_lam, best_q, best_mu = lam, q.copy(), mu
        if (it + 1) % 50 == 0:
            noise = np.array([[stream.next_uniform() - 0.5 for _ in range(f)]
                              for _ in range(f)])
            q = _project_psd(best_q + 0.01 * scale * (noise + noise.T))
            mu = best_mu
    lam_out = float(residuals(best_q, best_mu).min()) - 1e-12
    cert = Certificate(k=k, gamma=gamma, mu=float(best_mu), lam=lam_out,
                       q=best_q)
    if not verify_certificate(cert).valid:
        raise InternalInvariantError("search produced an invalid certificate")
    return cert


# -- finite-n moment consistency -------------------------------------------


@dataclass(frozen=True)
class MomentConsistency:
    n: int
    k: int
    entries: dict          # (i, j) -> (lhs, rhs) exact integers
    all_ok: bool


def moment_consistency_check(t: Tournament, k: int = 3) -> MomentConsistency:
    """Exact finite-n check that edge-level flag pair counts match the
    product-table expansion: for 3-flags i, j,

        sum_e [N_i(e) N_j(e) - delta_ij N_i(e)]
            = 12 * sum_H p_H(i, j) * count_H(t)

    because every 4-subset contributes exactly its 12 configurations.
    Only k = 3 is implemented (the right side needs the 4-profile)."""
    if k != 3:
        raise ValueError("moment consistency is implemented for k = 3 only")
    if t.n < 6:
        raise ValueError("moment consistency needs n >= 6")
    table = product_table(3)
    stats = edge_stats(t)
    by_name = {"cyc": stats.cyc, "thru": stats.thru,
               "dom_out": stats.dom_out, "dom_in": stats.dom_in}
    counts_by_flag = [by_name[f.name].astype(object) for f in table.flags]
    p4 = profile4(t)
    type_count = {}
    for h in table.types:
        name = classify4(h.rep)
        type_count[h.code] = getattr(p4, f"{name.lower()}_count")
    entries = {}
    ok = True
    for i in range(len(table.flags)):
        for j in range(len(table.flags)):
            ni, nj = counts_by_flag[i], counts_by_flag[j]
            lhs = int((ni * nj).sum())
            if i == j:
                lhs -= int(ni.sum())
            rhs = 0
            for h in table.types:
                contrib = table.tables[h.code][i][j] * 12 * type_count[h.code]
                rhs += contrib
            if rhs.denominator != 1:
                raise InternalInvariantError("non-integer configuration count")
            rhs = int(rhs)
            entries[(i, j)] = (lhs, rhs)
            ok = ok and lhs == rhs
    return MomentConsistency(n=t.n, k=3, entries=entries, all_ok=ok)


# -- FLAGCERT v1 ------------------------------------------------------------


def certificate_to_text(cert: Certificate) -> str:
    f = cert.q.shape[0]
    lines = [f"FLAGCERT v1 {cert.k} {f}",
             repr(float(cert.gamma)), repr(float(cert.mu)),
             repr(float(cert.lam))]
    for row in cert.q:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def certificate_from_text(text: str) -> Certificate:
    lines = [ln for ln in text.splitlines()]
    if not lines:
        raise DataFormatError("line 1: empty FLAGCERT input")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "FLAGCERT" or head[1] != "v1":
        raise DataFormatError(
            f"line 1: expected 'FLAGCERT v1 <k> <f>', got {lines[0]!r}")
    try:
        k, f = int(head[2]), int(head[3])
    except ValueError:
        raise DataFormatError("line 1: k and f must be integers") from None
    if k not in (3, 4):
        raise DataFormatError(f"line 1: unsupported flag order {k}")
    if f != FLAG_COUNTS[k]:
        raise DataFormatError(
            f"line 1: expected f={FLAG_COUNTS[k]} for k={k}, got {f}")
    if len(lines) < 4 + f:
        raise DataFormatError(f"line {len(lines) + 1}: truncated certificate")
    scalars = []
    for idx, name in ((1, "gamma"), (2, "mu"), (3, "lambda")):
        try:
            scalars.append(float(lines[idx]))
        except ValueError:
            raise DataFormatError(
                f"line {idx + 1}: bad {name} value {lines[idx]!r}") from None
        if not isfinite(scalars[-1]):
            raise DataFormatError(
                f"line {idx + 1}: {name} must be finite, got {lines[idx]!r}")
    q = np.zeros((f, f))
    for r in range(f):
        parts = lines[4 + r].split()
        if len(parts) != f:
            raise DataFormatError(
                f"line {5 + r}: expected {f} entries, got {len(parts)}")
        try:
            q[r] = [float(x) for x in parts]
        except ValueError:
            raise DataFormatError(f"line {5 + r}: bad matrix entry") from None
        if not np.isfinite(q[r]).all():
            raise DataFormatError(f"line {5 + r}: matrix entries must be finite")
    return Certificate(k=k, gamma=scalars[0], mu=scalars[1], lam=scalars[2],
                       q=q)


def write_certificate(cert: Certificate, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(certificate_to_text(cert))


def read_certificate(path) -> Certificate:
    with open(path, "r", encoding="ascii") as fh:
        return certificate_from_text(fh.read())


# -- FLAGTAB v1 -------------------------------------------------------------


def table_to_text(table: ProductTable) -> str:
    f = len(table.flags)
    lines = [f"FLAGTAB v1 {table.k} {f} {len(table.types)} {table.total}"]
    for h in table.types:
        lines.append(f"type {h.code}")
        for row in table.tables[h.code]:
            lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def table_from_text(text: str) -> ProductTable:
    lines = text.splitlines()
    if not lines:
        raise DataFormatError("line 1: empty FLAGTAB input")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "FLAGTAB" or head[1] != "v1":
        raise DataFormatError(
            f"line 1: expected 'FLAGTAB v1 <k> <f> <types> <total>', "
            f"got {lines[0]!r}")
    try:
        k, f, ntypes, total = (int(x) for x in head[2:])
    except ValueError:
        raise DataFormatError("line 1: header fields must be integers") from None
    if k not in (3, 4) or f != FLAG_COUNTS[k]:
        raise DataFormatError(f"line 1: inconsistent k={k}, f={f}")
    n_big = 2 * k - 2
    flags = enumerate_flags(k)
    types = []
    tables = {}

    def fields(ln):
        if ln >= len(lines):
            raise DataFormatError(f"line {ln + 1}: truncated table")
        return lines[ln].split()

    ln = 1
    for _ in range(ntypes):
        head = fields(ln)
        if len(head) != 2 or head[0] != "type":
            raise DataFormatError(f"line {ln + 1}: expected 'type <code>'")
        try:
            code = int(head[1])
        except ValueError:
            raise DataFormatError(
                f"line {ln + 1}: bad type code {head[1]!r}") from None
        ln += 1
        mat = []
        for r in range(f):
            parts = fields(ln)
            if len(parts) != f:
                raise DataFormatError(
                    f"line {ln + 1}: expected {f} fractions, got {len(parts)}")
            try:
                mat.append(tuple(Fraction(x) for x in parts))
            except (ValueError, ZeroDivisionError):
                raise DataFormatError(f"line {ln + 1}: bad fraction") from None
            ln += 1
        types.append(TournamentType(n_big, code, len(types), from_code(code, n_big)))
        tables[code] = tuple(mat)
    for code, mat in tables.items():
        if sum(sum(row) for row in mat) != 1:
            raise DataFormatError(f"table for type {code} does not sum to 1")
    return ProductTable(k=k, type_order=n_big, flags=flags,
                        types=tuple(types), total=total, tables=tables)


def write_table(table: ProductTable, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(table_to_text(table))


def read_table(path) -> ProductTable:
    with open(path, "r", encoding="ascii") as fh:
        return table_from_text(fh.read())

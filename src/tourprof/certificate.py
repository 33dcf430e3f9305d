"""Flag-algebra certificates, FLAGCERT v1 files, their exact
verification and the certificate search, in pure Python: `verify
--cert` and `flags search` import no numpy, and neither dataclasses nor
fractions (Certificate and CertVerification are named tuples).

A certificate (gamma, mu, lambda, Q) for flag order k in {3, 4} proves
c4 >= lambda at c3 = gamma in the limit when Q is positive semidefinite
and, for every tournament type H of order N = 2k - 2,

    kappa_H = d_C4(H) - mu (d_C3(H) - gamma) - <Q, p_H> - lambda >= 0

(flags derives the inequality).  verify_certificate decides this
exactly.  The floats of a certificate are dyadic rationals and are read
as such.  It proves Q + delta I >= 0 by a fraction-free pivoted LDL^T,
with delta the least of 0 and DELTA that succeeds, and then checks
kappa_H - delta tr(p_H) >= 0 for every H: the shift costs each kappa_H
delta tr(p_H), since <delta I, p_H> = delta tr(p_H).  Every kappa_H is
an integer numerator over one common denominator, kappa_den.
lemma1_certificate gives the closed-form k = 3 certificate;
search_certificate returns the better of it (lifted to 4-flags at
k = 4) and the zero certificate, priced by the same exact kappa_H
(`_kappas`), and does not search beyond those two candidates; only the
one it returns goes through the PSD proof.

The data come from DATA_FILE, which `tourprof flags data` writes from
flags.product_table(k) and the profile counts, and which a test rebuilds
byte for byte: the codes of the k-flags, and for each type H its code,
its cyclic-triangle and C4 counts (d_C3 = c3 / C(N, 3), d_C4 =
c4 / C(N, 4)) and the integer configuration counts behind
p_H = counts / total.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from functools import lru_cache
from math import comb, isfinite, lcm
from operator import index

from .base import DataFormatError, InternalInvariantError, _read_ascii

FLAG_COUNTS = {2: 1, 3: 4, 4: 16}
DATA_FILE = os.path.join(os.path.dirname(__file__), "flagdata.json")
# The shift tried when Q itself is not proved PSD.  A rounded rank-one Q
# is often indefinite by about 1e-16; every certificate that
# search_certificate writes keeps kappa_H near 1e-12, which pays for it.
DELTA = 1e-13
# What lemma1_certificate and search_certificate subtract from lambda, so
# that every kappa_H is about 1e-12 and the exact check passes after
# rounding and DELTA's shift.
LAMBDA_MARGIN = 1e-12


class Certificate(namedtuple("Certificate", "k gamma mu lam q")):
    """Sum-of-squares style lower-bound certificate for c4 at c3 = gamma.
    k is an int, gamma, mu and lam are floats and q is the symmetric
    f x f matrix Q as a tuple of float rows, (Q + Q^T) / 2 of the rows
    given.  A named tuple, so it also equals the plain tuple of its
    fields."""
    __slots__ = ()

    def __new__(cls, k, gamma, mu, lam, q):
        try:
            k = index(k)
        except TypeError:
            raise ValueError(f"k must be an integer, got {k!r}") from None
        if k not in (3, 4):
            raise ValueError(f"certificates have k = 3 or 4, got {k}")
        f = FLAG_COUNTS[k]
        rows = [[float(x) for x in row] for row in q]
        if len(rows) != f or any(len(row) != f for row in rows):
            raise ValueError(f"Q must be {f}x{f} for k={k}")
        scalars = [float(x) for x in (gamma, mu, lam)]
        if not all(map(isfinite, scalars + sum(rows, []))):
            raise ValueError("certificate entries must be finite")
        q = tuple(tuple(0.5 * (a + b) for a, b in zip(row, col))
                  for row, col in zip(rows, zip(*rows)))
        if not all(map(isfinite, sum(q, ()))):
            raise ValueError("(Q + Q^T) / 2 overflows")
        return super().__new__(cls, k, *scalars, q)

    def replace(self, **changes):
        """A copy with the named fields changed, built (so normalised and
        checked) by the constructor, as _replace is not."""
        return type(self)(**{**self._asdict(), **changes})


CertVerification = namedtuple(
    "CertVerification", "valid lam min_kappa delta psd_ok kappas kappa_den")
CertVerification.__doc__ = """The exact verdict.  kappas maps each type code
to the integer numerator of kappa_H over the common denominator
kappa_den, and min_kappa is the least kappa_H as a float (correctly
rounded, as int / int is); delta is the shift proved (0 or DELTA), nan
when Q + DELTA I is not PSD (psd_ok false).  valid means psd_ok and
kappa_H >= delta tr(p_H) for every H."""


@lru_cache(maxsize=None)
def _data() -> dict:
    with open(DATA_FILE, encoding="ascii") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def _types(k: int) -> tuple:
    """(type order N, total, rows): one row (code, c3, c4, tr, terms) per
    type, where tr is the trace of its counts matrix and terms lists the
    (flat index, count) of its nonzero entries."""
    table = _data()[str(k)]
    rows = []
    for code, c3, c4, counts in table["types"]:
        flat = [c for row in counts for c in row]
        f = len(counts)
        rows.append((code, c3, c4, sum(flat[::f + 1]),
                     [(ix, c) for ix, c in enumerate(flat) if c]))
    return table["type_order"], table["total"], rows


def _is_psd(a: list) -> bool:
    """Whether the symmetric integer matrix a (a list of rows, which it
    overwrites) is positive semidefinite.  Fraction-free (Bareiss)
    elimination, pivoting on the largest remaining diagonal entry: after
    each step the rest is a positive multiple of the Schur complement,
    so it is PSD iff a is.  With no positive diagonal entry left, the
    rest is PSD iff it is zero."""
    rest = list(range(len(a)))
    prev = 1
    while rest:
        p = max(rest, key=lambda i: a[i][i])
        d = a[p][p]
        if d <= 0:
            return all(a[i][j] == 0 for i in rest for j in rest)
        rest.remove(p)
        piv = a[p]
        for i in rest:
            row, s = a[i], piv[i]
            for j in rest:
                row[j] = (d * row[j] - s * piv[j]) // prev
        prev = d
    return True


def _kappas(cert: Certificate) -> tuple:
    """(q, delta, per_conf, kappas, kappa_den): every float of cert as
    the integer X / 2^E over one common power of two, q the flat Q and
    delta DELTA, and each kappa_H summed in integers over the common
    denominator kappa_den = L 4^E, with L = lcm(C(N,3), C(N,4), total);
    a type's <I, p_H> is tr(p_H) per_conf / kappa_den."""
    order, total, types = _types(cert.k)
    scalars = (cert.gamma, cert.mu, cert.lam, DELTA)
    qflat = [x for row in cert.q for x in row]
    ratios = [x.as_integer_ratio() for x in scalars + tuple(qflat)]
    e = max(den.bit_length() - 1 for _, den in ratios)
    g, m, lam, delta, *q = [num << (e - den.bit_length() + 1)
                            for num, den in ratios]
    c3_den, c4_den = comb(order, 3), comb(order, 4)
    lcd = lcm(c3_den, c4_den, total)
    p, per_conf = 1 << e, (lcd // total) << e
    kappas = {code: c4 * (lcd // c4_den) * p * p
              - m * (c3 * (lcd // c3_den) * p - g * lcd)
              - lam * lcd * p
              - per_conf * sum(q[ix] * c for ix, c in terms)
              for code, c3, c4, _, terms in types}
    return q, delta, per_conf, kappas, lcd << (2 * e)


def verify_certificate(cert: Certificate) -> CertVerification:
    """Decide exactly whether cert proves c4 >= lambda at c3 = gamma (see
    the module docstring), from the integers of `_kappas`."""
    q, delta, per_conf, kappas, scale = _kappas(cert)
    f = len(cert.q)
    psd_ok = False
    for shift in (0, delta):
        a = [q[i * f:(i + 1) * f] for i in range(f)]
        for i in range(f):
            a[i][i] += shift
        if _is_psd(a):
            psd_ok = True
            break
    valid = psd_ok and all(kappas[code] >= shift * tr * per_conf
                           for code, _, _, tr, _ in _types(cert.k)[2])
    return CertVerification(
        valid=valid, lam=cert.lam, min_kappa=min(kappas.values()) / scale,
        delta=(DELTA if shift else 0.0) if psd_ok else float("nan"),
        psd_ok=psd_ok, kappas=kappas, kappa_den=scale)


# -- the two candidates ----------------------------------------------------


def _lemma1_parameters(gamma: float) -> tuple:
    if not 0.0 < gamma <= 0.25:
        raise ValueError(f"gamma must be in (0, 1/4], got {gamma}")
    t = (1.0 + 8.0 * gamma) / (3.0 * gamma)
    mu = 12.0 / t - 16.0 / (t * t)
    lam = 18.0 * gamma * gamma / (1.0 + 8.0 * gamma)
    return t, mu, lam


def _lemma1_q(t: float, k: int) -> list:
    """Q = (6/t^2) v v^T for the k-flags, as a list of rows.  The 3-flag
    basis expresses t X - Z as (t - 3) cyc + thru - dom_out - dom_in (the
    unit is 1 = cyc + thru + dom_out + dom_in and Z = 1 + 2X - 2Y); v
    gives each k-flag the mean of those coefficients over its unlabeled
    vertices w (E_w of the form, written as a k-flag sum).  The arcs
    0 - w and 1 - w are bits of the flag's code: pair-lex order, first
    pair most significant, set when the lower vertex beats the higher.
    Q is not finite when t^2 overflows, at gamma below about 2.5e-155."""
    # coeff[u -> w][v -> w] = [[dom_in, cyc], [thru, dom_out]]
    coeff = ((-1.0, t - 3.0), (1.0, -1.0))
    npair = k * (k - 1) // 2
    v = []
    for code in _data()[str(k)]["flags"]:
        # pair (0, w) is pair number w - 1 and (1, w) is k + w - 3
        bit = [code >> (npair - 1 - i) & 1 for i in range(npair)]
        terms = [coeff[bit[w - 1]][bit[k + w - 3]] for w in range(2, k)]
        v.append(sum(terms) / len(terms))
    c = 6.0 / (t * t)
    return [[c * (a * b) for b in v] for a in v]


def lemma1_certificate(gamma: float) -> Certificate:
    """The closed-form rank-1 certificate from Cauchy-Schwarz applied to
    t X - Z with t = (1 + 8 gamma)/(3 gamma): Q = (6/t^2) v v^T where v
    expresses t X - Z in the 3-flag basis.  Every kappa_H is 0 at
    lambda = 18 gamma^2 / (1 + 8 gamma); the certificate claims that
    less LAMBDA_MARGIN, as search_certificate does, so that it still
    verifies exactly once Q and lambda are rounded to floats."""
    t, mu, lam = _lemma1_parameters(gamma)
    q = _lemma1_q(t, 3)
    if not all(map(isfinite, sum(q, []))):
        raise ValueError(f"gamma={gamma!r} is too small for the Lemma 1 "
                         "certificate: its Q overflows")
    return Certificate(k=3, gamma=gamma, mu=mu, lam=lam - LAMBDA_MARGIN, q=q)


def search_certificate(gamma: float, k: int = 3) -> Certificate:
    """Certificate at c3 = gamma for flag order k in {3, 4}.

    Returns the better (larger exact min_H kappa_H at lambda = 0) of two
    fixed candidates: Q = 0 with mu = 0, and the Lemma 1 form
    Q = (6/t^2) v v^T with its mu, where v is t X - Z in the 3-flag
    basis (k = 3) or its averaged lift to 4-flags (k = 4).  A Lemma 1
    candidate that is not finite (tiny gamma) drops out.  lambda is that
    min_H kappa_H rounded to a float, less LAMBDA_MARGIN (1e-12), so
    every kappa_H is about 1e-12.

    It does not search or optimise Q, so at both k lambda is
    lb_flag(gamma) - 1e-12 up to rounding.  The result is deterministic,
    and it is returned only if verify_certificate proves it exactly."""
    if k not in (3, 4):
        raise ValueError("certificate search supports k = 3 or 4")
    t, mu1, _ = _lemma1_parameters(gamma)
    f = FLAG_COUNTS[k]
    candidates = [Certificate(k=k, gamma=gamma, mu=0.0, lam=0.0,
                              q=[[0.0] * f] * f)]
    q1 = _lemma1_q(t, k)
    if all(map(isfinite, sum(q1, []))):
        candidates.append(Certificate(k=k, gamma=gamma, mu=mu1, lam=0.0,
                                      q=q1))
    best = None
    for cand in candidates:
        *_, kappas, den = _kappas(cand)
        least = min(kappas.values())
        # the exact least kappa_H of cand against best's: a/b > c/d
        # with b, d > 0 is a d > c b; a tie keeps the earlier candidate
        if best is None or least * best_den > best_least * den:
            best, best_least, best_den = cand, least, den
    cert = best.replace(lam=best_least / best_den - LAMBDA_MARGIN)
    if not verify_certificate(cert).valid:
        raise InternalInvariantError("search produced an invalid certificate")
    return cert


# -- FLAGCERT v1 ------------------------------------------------------------


def certificate_to_text(cert: Certificate) -> str:
    lines = [f"FLAGCERT v1 {cert.k} {len(cert.q)}",
             repr(cert.gamma), repr(cert.mu), repr(cert.lam)]
    for row in cert.q:
        lines.append(" ".join(repr(x) for x in row))
    return "\n".join(lines) + "\n"


def _lines(text: str) -> list:
    r"""The lines of a FLAGCERT text, ended only at \n, \r\n or \r as
    TRN lines are (bytes.splitlines; str.splitlines would also end them
    at \v, \f and \x1c-\x1e)."""
    data = text.encode("utf-8", "surrogatepass")
    return [ln.decode("utf-8", "surrogatepass") for ln in data.splitlines()]


def certificate_from_text(text: str) -> Certificate:
    lines = _lines(text)
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
    q = []
    for r in range(f):
        parts = lines[4 + r].split()
        if len(parts) != f:
            raise DataFormatError(
                f"line {5 + r}: expected {f} entries, got {len(parts)}")
        try:
            q.append([float(x) for x in parts])
        except ValueError:
            raise DataFormatError(f"line {5 + r}: bad matrix entry") from None
        if not all(map(isfinite, q[-1])):
            raise DataFormatError(f"line {5 + r}: matrix entries must be finite")
    try:
        return Certificate(k=k, gamma=scalars[0], mu=scalars[1],
                           lam=scalars[2], q=q)
    except ValueError as exc:    # the one check left: Q's symmetrisation
        raise DataFormatError(f"lines 5-{4 + f}: {exc}") from None


def write_certificate(cert: Certificate, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(certificate_to_text(cert))


def read_certificate(path) -> Certificate:
    return certificate_from_text(_read_ascii(path).decode("ascii"))

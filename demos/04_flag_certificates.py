#!/usr/bin/env python3
"""
Flag certificates: machine-checkable lower bounds
=================================================

A sum-of-squares certificate over edge-rooted flags proves
c4 >= mu (c3 - gamma) + lambda for every large tournament.  The package
can write down the one-flag certificate in closed form, lift it to
4-flags, and prove any certificate in exact rational arithmetic.
"""
from tourprof import (enumerate_flags, enumerate_types, lb_flag,
                      lemma1_certificate, moment_consistency_check,
                      product_table, random_tournament, search_certificate,
                      subtype_density, verify_certificate)

# Types are unlabeled tournaments; on 1..6 vertices there are
# 1, 1, 2, 4, 12, 56 of them.
print("types by order:", [len(enumerate_types(k)) for k in range(1, 7)])

# A flag is a tournament with a distinguished, labeled arc 0 -> 1.  The
# four 3-flags are named by where the third vertex sits relative to the
# arc: cyc, thru, dom_out, dom_in.
for f in enumerate_flags(3):
    print(" ", f.name)

# %%
# The product table expands a product of two 3-flag densities into
# 4-type densities with exact rational coefficients: 12 labeled
# configurations per 4-type, so every entry has denominator 12.

tab = product_table(3)
print("\nconfigurations per type:", tab.total)
example = next(iter(tab.tables))
print("one block row sums to 1:",
      sum(sum(row) for row in tab.tables[example]) == 1)

# %%
# The closed-form certificate at triangle density gamma: one squared
# linear form in the 3-flag densities, giving
# lambda = 18 gamma^2 / (1 + 8 gamma), less a margin of 1e-12 that pays
# for rounding the certificate to floats.  The verifier proves it
# exactly; it gives each slack kappa_H as an integer numerator over one
# common denominator, kappa_den.

gamma = 1 / 16
cert = lemma1_certificate(gamma)
rep = verify_certificate(cert)
print(f"\ngamma = {gamma}: valid = {rep.valid}, lambda = {rep.lam:.8f}"
      f"  (lb_flag = {lb_flag(gamma):.8f})")
print("slack per 4-type (all ~1e-12, the margin: the bound is tight "
      "type by type):", ", ".join(f"{v / rep.kappa_den:.3g}"
                                  for v in rep.kappas.values()))

# %%
# search_certificate returns the better of the zero certificate and the
# closed form (lifted to 4-flags at k = 4), each priced by its exact
# least kappa_H, so it recovers the same bound.

found = search_certificate(gamma, k=3)
print("\nsearch at gamma = 1/16: lambda =", f"{verify_certificate(found).lam:.8f}")

# %%
# Certificates rest on an exact combinatorial identity: edge-level flag
# count products expand over 4-subsets with integer coefficients.  The
# check is exact in rational arithmetic.

t = random_tournament(10, 3)
mc = moment_consistency_check(t)
print("\nmoment consistency on random(10):", mc.all_ok,
      f"({len(mc.entries)} ordered flag pairs)")

# subtype_density gives the density of a small type inside a larger one
c3_type = enumerate_types(3)[1]
print("d_C3 inside each 4-type:",
      [str(subtype_density(c3_type, ty)) for ty in enumerate_types(4)])

#!/usr/bin/env python3
"""
Annealing search along the (c3, c4) boundary
============================================

Look for tournaments with unusually small c4 at a pinned triangle
density gamma.  Each proposal is a single edge flip, priced from the
incrementally kept counts in O(n) instead of a recount; a rejected
proposal changes no state, and only an accepted one is made.
"""
import time

from tourprof import (AnnealSchedule, anneal, boundary_scan,
                      conjectured_min_c4, lb_flag, objective,
                      random_tournament)

# The objective is c4 + penalty * (c3 - gamma)^2: minimize the 4-cycle
# density while a quadratic penalty pins c3 near gamma.

t = random_tournament(128, 1)
print("random(128) objective at gamma = 1/16:",
      round(objective(t, 1 / 16), 5))

# %%
# A short run at modest size.  The annealer warm-starts from a blow-up
# of the conjectured optimum, so even few moves stay in a good region.

sched = AnnealSchedule(moves=8_000, warmup=300, cool=1e-4, audit_every=1_000)
t0 = time.perf_counter()
res = anneal(n=48, gamma=1 / 16, seed=0, schedule=sched)
print(f"\nn=48, gamma=1/16, {sched.moves} moves, "
      f"{time.perf_counter() - t0:.1f}s:")
print(f"  c3 = {res.c3:.5f} (target {1 / 16:.5f})")
print(f"  c4 = {res.c4:.5f}")
print(f"  asymptotic floor lb_flag   = {lb_flag(1 / 16):.5f}"
      "   (finite n dips below by O(1/n))")
print(f"  conjectured minimum        = {conjectured_min_c4(1 / 16).c4:.5f}")
print(f"  accepted {res.accepted} of {res.proposed} proposals, "
      f"T0 = {res.temperature0:.2e}")

# The counts are maintained incrementally but audited against a full
# recount at fixed intervals; a drifting state raises immediately.

# %%
# boundary_scan runs the annealer over a (gamma, seed) grid, its jobs in
# forked worker processes (one per CPU; the results do not depend on
# it), and compares each endpoint against the conjectured curve.  A point
# more than the discovery margin below it would be flagged; at the two
# standard densities none is expected.

points = boundary_scan(n=32, seeds=2, schedule=sched)
print("\ngamma     seed  c3       c4       conj     discovery")
for p in points:
    print(f"{p.gamma:.5f}  {p.seed:4d}  {p.c3:.5f}  {p.c4:.5f}  "
          f"{p.conjectured_c4:.5f}  {p.discovery}")

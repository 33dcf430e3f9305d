#!/usr/bin/env python3
"""
Blow-up weight optimization and replacement steps
=================================================

The conjectured minimal c4 at a given c3 comes from blowing up a
transitive tournament with carefully chosen part weights.  This demo
walks the two ingredients: the constrained power-sum optimizer and the
local replacement move that powers its optimality argument, then checks
the one blow-up formula against a sampled blow-up and a two-block mix.
"""
import math

from tourprof import (BlowupSpec, MixSpec, blowup, conjectured_min_c4,
                      cyclic, min_fourth_power_sum, mix,
                      mix_profile_prediction, predict_blowup_profile,
                      profile3, profile4, replace_step, transitive)

# A transitive blow-up with weights w has (asymptotically)
#   c3 = (sum w^3) / 4      c4 = (3/8) sum w^4,
# so minimizing c4 at fixed c3 means minimizing the fourth-power sum
# over the simplex under a cube-sum equality.  The optimum uses the
# least feasible number of parts m (1/m^2 <= 4c3 < 1/(m-1)^2), with
# m - 1 equal weights a and one smaller weight b.

c3 = 0.02
c = 4 * c3
m = 1
while 1 / m**2 > c:
    m += 1
print(f"c3 = {c3}: cube-sum target C = {c}, bracket gives m = {m}")
opt = min_fourth_power_sum(c, m)
print(f"optimal weights: {m - 1} x {opt.a:.6f} + 1 x {opt.b:.6f}"
      f"  ->  c4 = {opt.c4:.6f}")
assert abs(opt.c4 - conjectured_min_c4(c3).c4) < 1e-12

# Fewer parts than the bracket allows is infeasible:
print("m - 1 parts feasible?", min_fourth_power_sum(c, m - 1) is not None)

# %%
# The replacement step: given three weights (x, y, y), produce at most
# two distinct values with the same sum and cube-sum but a strictly
# smaller fourth-power sum.  Repeated replacement is why the optimum
# needs at most two distinct weights.

for x, y in [(1.0, 0.2), (0.5, 0.25)]:
    r = replace_step(x, y)
    pat = r.pattern
    print(f"\n(x,y,y) = ({x}, {y}, {y})  ->  branch {r.branch}, "
          f"pattern {tuple(round(v, 6) for v in pat)}")
    print("  4th-power sum: %.7f -> %.7f"
          % (x**4 + 2 * y**4, sum(v**4 for v in pat)))

# At y/x = (sqrt(5) - 1)/4 the two branches agree and the third weight
# vanishes exactly.
thr = (math.sqrt(5) - 1) / 4
print("\nat the threshold y/x = %.6f: t = %.2e" % (thr, replace_step(1.0, thr).t))

# %%
# Prediction vs. a sampled blow-up at n = 600.

spec = BlowupSpec(transitive(4), conjectured_min_c4(c3).weights)
pc3, pc4 = predict_blowup_profile(spec)
t = blowup(spec, 600, seed=7)
print(f"\npredicted  c3 = {pc3:.6f}  c4 = {pc4:.6f}")
print(f"measured   c3 = {profile3(t).c3:.6f}  c4 = {profile4(t).c4:.6f}"
      f"   (n = 600)")

# %%
# The same formula predicts a two-block mix: the host [[0, p], [1 - p, 0]]
# with the blocks' own densities as part interiors.  Here a transitive
# block of 300 and a cyclic block of 301, cross pairs 1 -> 2 with p = 0.3.

b1, b2 = transitive(300), cyclic(301)
t = mix(b1, b2, MixSpec(0.3), seed=7)
pc3, pc4 = mix_profile_prediction(profile3(b1).c3, profile4(b1).c4,
                                  profile3(b2).c3, profile4(b2).c4,
                                  b1.n / t.n, 0.3)
print(f"\nmix prediction  c3 = {pc3:.6f}  c4 = {pc4:.6f}")
print(f"mix measured    c3 = {profile3(t).c3:.6f}  c4 = {profile4(t).c4:.6f}"
      f"   (n = {t.n})")

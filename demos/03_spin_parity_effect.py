"""The even/odd spin split in cat-state correlations.

Whether a bipartite spin-s cat state can violate a Bell inequality is
decided by the parity of 2s.  The interference (cross) part of the
correlation picks up a factor (-1)^(2s) between the flipped outcome
channels.  For integer s the four cross contributions cancel exactly and
the state behaves like a classical mixture; for half-integer s they add
and the quantum violation survives.  The surviving interference shrinks
geometrically with spin, as cos(theta/2)^2s-type overlap factors pile up.
The immunity is a claim about raw correlations, where inconclusive runs
count as zero: conditioned on conclusive outcomes, the s = 1 cat reaches
sqrt(5) > 2 in a CHSH search.
"""

import math

import numpy as np

import bellcat as bc

print("parity factor and cross part at the equatorial benchmark")
print("axes: both in the x-y plane, azimuth gap pi/(2s)")
print(f"{'2s':>4} {'parity':>7} {'p_nlc':>14} {'2^(2-4s)':>14}")
for two_s in range(1, 7):
    q = bc.SpinQuantum(two_s)
    state = bc.singlet(q)
    a = bc.Direction(math.pi / 2, 0.0)
    b = bc.Direction(math.pi / 2, math.pi / two_s)
    p_nlc = bc.correlation(state, a, b).p_nlc
    geometric = 2.0 ** (2 - 2 * two_s)  # 4 * (1/2)^(2s) * (1/2)^(2s)
    shown = geometric if not q.is_integer else 0.0
    print(f"{two_s:>4} {q.parity:>+7d} {p_nlc:>14.10f} {shown:>14.10f}")

print()
print("integer-spin immunity under a random CHSH scan (s = 1)")
state = bc.singlet(bc.SpinQuantum(2))
rng = np.random.default_rng(33)
best = 0.0
for _ in range(20_000):
    dirs = []
    for _ in range(4):
        t = math.acos(rng.uniform(-1, 1))
        dirs.append(bc.Direction(t, rng.uniform(0, 2 * math.pi)))
    a, b, c, d = dirs
    s_val = abs(bc.correlation(state, a, b).p_total
                + bc.correlation(state, a, c).p_total
                + bc.correlation(state, d, b).p_total
                - bc.correlation(state, d, c).p_total)
    best = max(best, s_val)
print(f"best |S| over 20000 random configurations: {best:.6f}")
print("never exceeds 2: the integer-spin cat admits a local description")

print()
print("the immunity above is a raw-mode claim; postselection changes it")
print("(s = 1: CHSH search from a resolution-3 grid winner and 2 seeded starts)")
print(f"{'mode':>13} {'max |S|':>14}")
for mode in ("raw", "postselected"):
    provider = bc.full_provider(state, mode)
    sweep = bc.grid_sweep(provider, "chsh", 3)
    found = bc.multistart_refine(provider, "chsh", 2, seed=1,
                                 extra_starts=(sweep.best_config,))
    print(f"{mode:>13} {found.best_value:>14.10f}")
print(f"{'sqrt(5)':>13} {math.sqrt(5.0):>14.10f}")
print("conditioning on conclusive outcomes lifts the integer-spin cat above 2:")
print("the fair-sampling gap a postselected test must close")

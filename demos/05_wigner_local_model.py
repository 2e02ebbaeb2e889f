"""A Wigner-style inequality that separates spin-1/2 from spin-1.

The Wigner argument constrains joint probabilities rather than
correlations: for outcomes produced by pre-assigned local values,
J(b,c) <= J(a,b) + J(a,c).  Fed with the local (interference-free) part
of the spin-1/2 singlet the bound holds for every axis triple.  The
local part of the spin-1 cat state, however, breaks it at a pole/equator
configuration, which shows this inequality tests a stronger locality
notion than the correlation-based ones.
"""

import math

import numpy as np

import bellcat as bc

rng = np.random.default_rng(55)


def axis():
    return bc.Direction(math.acos(rng.uniform(-1, 1)),
                        rng.uniform(0, 2 * math.pi))


half = bc.lc_provider(bc.singlet(bc.SpinQuantum(1)))
worst = -1.0
for _ in range(20_000):
    r = bc.check(half, "wigner", axis(), axis(), axis())
    worst = max(worst, r.lhs - r.rhs)
print("spin-1/2 local part, 20000 random axis triples:")
print(f"  max (lhs - rhs) = {worst:.6f}  (never positive, bound holds)")
print()

one = bc.lc_provider(bc.singlet(bc.SpinQuantum(2)))
a = bc.Direction(math.pi / 2, 0.0)
b = bc.Direction(0.0, 0.0)
c = bc.Direction(math.pi, 0.0)
r = bc.check(one, "wigner", a, b, c)
print("spin-1 local part at a = equator, b = north pole, c = south pole:")
print(f"  J(b,c) = {r.lhs}")
print(f"  J(a,b) + J(a,c) = {r.rhs}")
print(f"  violated: {r.violated}  (margin {r.margin:+.6f})")
print()
print("the same configuration as a serialized report:")
print(r.to_json())

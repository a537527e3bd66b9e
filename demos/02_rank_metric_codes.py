"""Gabidulin codes and the rank metric.

The rank weight of a word counts its F_q-independent coordinates; Gabidulin
codes meet the Singleton-type bound for that metric with equality whenever
the packet length m is at least the code length n.
"""

from rankguard import ctx_new
from rankguard.codes import gabidulin
from rankguard.rank_metrics import rank_weight

ctx = ctx_new(2, 4)
a = ctx.alpha

print("Rank weight counts independent coordinates over the base field:")
for vec in [(0, 0, 0), (1, 1, 1), (1, a, ctx.pow(a, 2))]:
    print(f"  rank_weight({vec}) = {rank_weight(ctx, vec)}")

print("\nGabidulin [n,k] over F_2^4 achieves minimum rank distance n-k+1:")
for k in (1, 2, 3, 4):
    code = gabidulin(ctx, 4, k)
    print(f"  [4,{k}]: exhaustive scan gives d_R = {code.min_rank_distance()}")

print("\nDuals of MRD codes are MRD again:")
code = gabidulin(ctx, 4, 2)
dual = code.dual()
print(f"  dual of [4,2] is [4,{dual.k}] with d_R = {dual.min_rank_distance()}")

print("\nPuncturing and shortening interact with duality the classical way:")
keep = [1, 2, 3]
lhs = code.puncture(keep).dual()
rhs = code.dual().shorten(keep)
print(f"  puncture-then-dual == dual-then-shorten: {lhs == rhs}")

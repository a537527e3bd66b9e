"""The relative profile (RDIP) and relative weights (RGRW) of a code pair.

For a code pair C2 < C1, the profile tracks, per subspace dimension i, the
largest gap dim(C1 cap V) - dim(C2 cap V) over Frobenius-invariant V; the
weights invert it: smallest i reaching each gap level.  Restricting V to
coordinate subspaces instead gives the classical Hamming-side tables, which
can only be larger.
"""

from rankguard import ctx_new
from rankguard.codes import LinearCode, gabidulin
from rankguard.rank_metrics import rdip, rdlp, rghw, rgrw
from rankguard.subspaces import SubspaceFamily, gaussian_binomial

ctx = ctx_new(2, 4)

print("Subspace families being maximized over (F_2, ambient dim 4):")
for i in range(5):
    fam = SubspaceFamily(ctx, 4, i)
    print(f"  dim {i}: {fam.count} Frobenius-invariant subspaces"
          f" (Gaussian binomial {gaussian_binomial(4, i, 2)})")

c1 = gabidulin(ctx, 4, 2)
c2 = LinearCode(ctx, [c1.encode((1, ctx.alpha))], 4)

profile = rdip(c1, c2)
weights = rgrw(c1, c2)
print("\nMRD outer code [4,2] with a 1-dim subcode:")
print("  profile (i=0..4):", profile.values)
print("  weights (gap=1..):", weights.values)
print("  closed forms: profile [i-2]^+ on i<=3, first weight n-k+1 = 3")

print("\nRank-side weights never beat Hamming-side ones:")
print("  rank  :", rgrw(c1, c2).values)
print("  hamming:", rghw(c1, c2).values)
print("  hamming profile:", rdlp(c1, c2).values)

rep = LinearCode(ctx_new(2, 3), [[1, 1, 1]], 3)
zero = LinearCode.zero(ctx_new(2, 3), 3)
print("\nThe repetition code separates the two metrics sharply:")
print("  rank first weight:", rgrw(rep, zero).at(1), " hamming:", rghw(rep, zero).at(1))

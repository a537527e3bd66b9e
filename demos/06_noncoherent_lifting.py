"""Noncoherent networks: identity headers carry the coding vectors.

When the sink does not know the transfer matrix, each packet matrix gets an
identity header (the lifting construction).  The minimum-discrepancy
decoder then searches over all sufficiently-high-rank transfer matrices;
that search reduces to coherent decoding of the inner scheme with the
received header as the transfer matrix, and the correction boundary matches
the coherent one of the inner scheme.
"""

import random

from rankguard import ctx_new
from rankguard.coset_scheme import build_proposed, lift
from rankguard.decoder import decode_noncoherent, delta_min_noncoherent, discrepancy_noncoherent
from rankguard.linalg import expand_to_base, ext_vec_times_base_transpose, vec_add
from rankguard.network import sample_error_pair, sample_transfer
from rankguard.rank_metrics import first_rgrw

inner = build_proposed(ctx_new(2, 4), l=1, n=3, k=2)
lifted = lift(inner, ctx_new(2, 7))
print(f"inner scheme over F_2^4, lifted packets over F_2^7 (header adds n=3 rows)")

rng = random.Random(3)
S = (rng.randrange(16),)
X = lifted.lift_encode(S, rng)
M = expand_to_base(lifted.ctx, X)
print("\nlifted packet matrix (rows = coefficients, first 3 rows = header):")
for row in M.rows:
    print("  ", row)
print("base rank:", M.rank(), "(always n: the header guarantees it)")

A = sample_transfer(rng, 2, 3, 3, 1)
Y = ext_vec_times_base_transpose(lifted.ctx, X, A)
res = decode_noncoherent(lifted, Y, rho=1)
print(f"\nsent {S} through an unknown rank-{A.rank()} transfer: decoded {res.message}"
      f" ({res.status})")

D, Z = sample_error_pair(rng, lifted.ctx, 3, 0)
fast = discrepancy_noncoherent(lifted, Y, S, rho=1, mode="fast")
oracle = discrepancy_noncoherent(lifted, Y, S, rho=1, mode="oracle")
print(f"coherent-reduction discrepancy {fast} == brute force over all transfer matrices"
      f" {oracle}")

small_inner = build_proposed(ctx_new(2, 4), l=1, n=3, k=1)
small = lift(small_inner, ctx_new(2, 7))
m1 = first_rgrw(small_inner.c1, small_inner.c2)
print(f"\ndelta identity on a 3-packet instance (inner first weight {m1}):")
for rho in (0, 1):
    brute = delta_min_noncoherent(small, rho, method="bruteforce")
    print(f"  rho={rho}: delta_rho + rho = {brute + rho}")

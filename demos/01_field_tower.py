"""Tour of the field tower F_q < F_{q^m}.

Builds F_16 over F_2, pokes at the arithmetic, and shows the Frobenius map
that everything rank-metric ultimately leans on.
"""

from rankguard import ctx_new
from rankguard.gf import smallest_irreducible

ctx = ctx_new(2, 4)  # F_16 with the default modulus x^4 + x + 1
a = ctx.alpha

print("modulus coefficients (little-endian):", list(ctx.modulus))
print("order:", ctx.order)

print("\nAn element is an int whose base-2 digits are its coefficients:")
x = ctx.from_coeffs([1, 0, 1, 1])  # 1 + a^2 + a^3
print("  [1,0,1,1] encodes as", x, "and decodes back to", list(ctx.coeffs(x)))

print("\nArithmetic is exact:")
print("  a^3 * a^2 =", ctx.mul(ctx.pow(a, 3), ctx.pow(a, 2)),
      " (= a^2 + a =", ctx.add(ctx.pow(a, 2), a), ")")
print("  inverse of a:", ctx.inv(a), " check:", ctx.mul(a, ctx.inv(a)))

print("\nThe Frobenius map x -> x^q is F_q-linear and has order m:")
for i in range(5):
    print(f"  frobenius(a, {i}) = {ctx.frobenius(a, i)}")

print("\nEvery nonzero element satisfies x^(q^m - 1) = 1:")
print("  all pass:", all(ctx.pow(v, ctx.order - 1) == 1 for v in ctx.nonzero()))

print("\nBuilt-in default moduli exist for every degree up to 16:")
print(" ", {m: smallest_irreducible(2, m) for m in range(1, 6)}, "...")

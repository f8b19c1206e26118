"""Equivariant indices with values in the Burnside ring.

The running example: the group of order two rotates the sphere S^2 by a
half turn around the vertical axis.  The two poles are fixed; everything
else moves freely.  A vector field with one source and one sink at the
poles realizes the equivariant Euler characteristic.
"""

from singindex import (
    BurnsideElement,
    GroupAction,
    Ideal,
    PermutationGroup,
    VectorFieldGerm,
    burnside_mul,
    elk_form,
    equivariant_euler,
    equivariant_gsv_from_radial,
    equivariant_ph_check,
    equivariant_radial_index,
    invariant_dimension,
    invariant_signature,
    quotient_algebra,
    r0,
    restriction,
    subgroup_as_group,
)

print("=" * 64)
print("1. The Burnside ring of a small group")
print("=" * 64)

s3 = PermutationGroup(3, [[1, 0, 2], [1, 2, 0]])
print(f"  S3 has {len(s3.classes())} conjugacy classes of subgroups "
      f"with orders {[c.order for c in s3.classes()]}")
print("  table of marks (rows: G-sets, columns: fixing subgroups):")
for row in s3.table_of_marks():
    print(f"    {list(row)}")

tau = next(c.index for c in s3.classes() if c.order == 2)
sigma = next(c.index for c in s3.classes() if c.order == 3)
product = burnside_mul(
    BurnsideElement.basis(s3, tau), BurnsideElement.basis(s3, sigma)
)
print(f"  [G/H2] * [G/H3] = {product}  (one free orbit of 6 points)")

half_turn = s3.classes()[tau].representative
restricted = restriction(BurnsideElement.basis(s3, sigma), half_turn)
print(f"  [G/H3] as a set with the order-2 subgroup acting: {restricted}")

print()
print("=" * 64)
print("2. The half-turn on the sphere")
print("=" * 64)

z2 = PermutationGroup(2, [[1, 0]])
fixed = next(c.index for c in z2.classes() if c.order == 2)
free = next(c.index for c in z2.classes() if c.order == 1)

# two fixed poles (their orbit space is two points, chi = 2); the free
# part is an open cylinder whose orbit space again has chi = 0
chi = equivariant_euler(z2, [(fixed, 2), (free, 0)])
print(f"  equivariant Euler characteristic of S^2: {chi}")

# a source at the north pole and a sink at the south pole, both of
# local index 1, make an invariant vector field with no other zeros
radial = equivariant_radial_index(z2, [(fixed, 1), (fixed, 1)])
print(f"  equivariant index sum of the two-pole field: {radial}")

whole = subgroup_as_group(z2, z2.element_set())
pole = BurnsideElement.unit(whole)
holds = equivariant_ph_check(z2, [pole, pole], chi)
print(f"  equivariant Poincare-Hopf identity holds: {holds}")
print(f"  forgetting the action (coefficient sum): {r0(chi)} = chi(S^2)")

# on a complete intersection the equivariant index on the singular
# variety and the radial one differ by the reduced equivariant Euler
# characteristic of the Milnor fibre
chibar = BurnsideElement(z2, {free: 1})
print(f"  radial {radial} + chibar {chibar} -> {equivariant_gsv_from_radial(radial, chibar)}")

print()
print("=" * 64)
print("3. Invariant dimension and invariant signature")
print("=" * 64)

plane = ("x", "y")
algebra = quotient_algebra(Ideal.from_strings(["x^2", "y^2"], plane))
swap = GroupAction(plane, [[[0, 1], [1, 0]]])
antipodal = GroupAction(plane, [[[-1, 0], [0, -1]]])
print(f"  algebra of (x^2, y^2): dimension {algebra.dimension}")
print(f"  fixed subspace under x<->y:        {invariant_dimension(algebra, swap)}")
print(f"  fixed subspace under (x,y)->(-x,-y): {invariant_dimension(algebra, antipodal)}")

# restricting the residue pairing of a real germ to the invariant part
germ = VectorFieldGerm(plane, ["x^3", "y^3"], field="R")
form = elk_form(germ)
print(f"  (x^3, y^3): full signature {form.signature()}, "
      f"invariant signature under swap {invariant_signature(form, swap)}, "
      f"under the antipodal action {invariant_signature(form, antipodal)}")

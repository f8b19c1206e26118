"""Indices of 1-forms on isolated complete intersection singularities.

The quadric cone x^2 + y^2 + z^2 = 0 in C^3 is the simplest singular
complete intersection; this script walks through every index the library
attaches to a 1-form on it and the identities tying them together.
"""

from singindex import (
    ICISGerm,
    gsv_index_1form,
    homological_index_1form,
    isolatedness_certificate,
    milnor_number,
    radial_index_1form,
    radial_index_vf_from_gsv,
    run_job,
)

space = ("x", "y", "z")
cone = ICISGerm(space, ["x^2 + y^2 + z^2"])
dz = ["0", "0", "1"]

print("the A1 cone: x^2 + y^2 + z^2 = 0 in C^3, with the 1-form dz")
print("-" * 64)

# Isolatedness is certified by the colength of the singular-locus ideal
# (equations plus maximal minors of their Jacobian).
print(f"isolated-singularity certificate (colength): {isolatedness_certificate(cone)}")

# The index on the singular variety: colength of the ideal generated by
# the equation and the maximal minors of the matrix stacking df and the
# form's coefficients.
gsv = gsv_index_1form(cone, dz)
print(f"index via the minors ideal:                  {gsv}")

# The Milnor number of a complete intersection comes from slicing with
# generic hyperplanes: each slice satisfies
#     mu(V) + mu(V . H) = colength(f, minors(df, dl)).
# A hypersurface is C^3 (mu = 0) sliced by f itself, so its Milnor number
# is the colength of the Jacobian ideal (df/dx, df/dy, df/dz).
mu = milnor_number(cone, seed=0)
print(f"Milnor number via the Jacobian colength:     {mu}")

# The radial index differs from the minors-ideal index exactly by mu.
radial = radial_index_1form(cone, dz)
print(f"radial index = {gsv} - {mu}:                       {radial}")

# The homological index (Euler characteristic of the contraction complex
# of differential forms) agrees with the minors-ideal index on complete
# intersections; the library computes it through that equality.
print(f"homological index:                           {homological_index_1form(cone, dz)}")

print()
print("an icis job document computes them all, with the rule behind each")
print("value and the colengths that certify them:")
report, code = run_job({
    "command": "icis",
    "payload": {
        "variables": list(space),
        "equations": ["x^2 + y^2 + z^2"],
        "form": dz,
        "want": ["gsv", "milnor", "radial", "homological"],
    },
})
print(f"  exit code {code}")
for name in ("gsv", "milnor", "radial", "homological"):
    print(f"  {name:<12} {report.values[name]}    [{report.rules[name]}]")
print(f"  certificates: {report.certificates}")

print()
print("vector fields instead of 1-forms")
print("-" * 64)
# For vector fields on an n-dimensional germ the conversion identity
# picks up a sign: radial = gsv - (-1)^n mu.  The geometric gsv of a
# vector field is not a colength (its defining frame involves complex
# conjugation), so the library only exposes the arithmetic identity.
print(f"  gsv=2, mu=1, n=2  ->  radial {radial_index_vf_from_gsv(2, 1, 2)}")
print(f"  gsv=0, mu=1, n=3  ->  radial {radial_index_vf_from_gsv(0, 1, 3)}")

print()
print("a deeper cone: x^3 + y^3 + z^3")
print("-" * 64)
fermat = ICISGerm(space, ["x^3 + y^3 + z^3"])
print(f"  Milnor number: {milnor_number(fermat)} (the Jacobian ideal "
      f"(x^2, y^2, z^2) has colength 8)")
generic = ["3", "-2", "5"]
print(f"  radial index of a generic linear differential: "
      f"{radial_index_1form(fermat, generic)}")

"""Writing the driving bands in terms of physical collective-spin operators.

Every band of the exact driving term can be built from i(S-^{2b} - S+^{2b})
dressed with symmetrized S_z powers; the first band uses the family
B_0 = SxSy + SySx, B_1 = SxSySz + SzSySx, B_2 = Sz B_0 Sz, ...  For N = 3
the expansion coefficients of the elementary band patterns are exactly
1/(2 sqrt 3) and +-1/sqrt(3).
"""

import json

import numpy as np

from cdlmg import (
    DickeSector,
    ModelParams,
    band_table,
    decompose_band,
    exact_cd,
    solve_first_band_beta,
)

# exact expansion coefficients at N=3
beta, residuals = solve_first_band_beta(DickeSector(3))
print("N=3 first-band coefficients over (B0, B1):")
print(np.array2string(beta, precision=10))
print(f"   reference values: 1/(2*sqrt(3)) = {1/(2*np.sqrt(3)):.10f}, "
      f"1/sqrt(3) = {1/np.sqrt(3):.10f}")
print(f"   solve residual: {residuals.max():.2e}\n")

# decompose both bands of the exact term for a six-particle ramp instant;
# the table holds each band as the vector of its superdiagonal entries
params = ModelParams(6, gamma=0.0)
term = exact_cd(params, h=0.9, hdot=0.5)
table = band_table(term)

payload, decompositions = {}, []
for b in sorted(table.bands):
    dec = decompose_band(table, b)
    decompositions.append(dec)
    payload[f"band{b}"] = dec.to_json_list()
    print(f"band {b} ({len(dec.terms)} operators, residual {dec.residual:.1e}):")
    for termk in dec.terms:
        print(f"   {termk.coefficient:+.6f} * {termk.label}")

with open("decomposition_n6.json", "w") as fh:
    json.dump(payload, fh, indent=2)
print("\nwrote decomposition_n6.json")

# the operator sum rebuilds the exact term
rebuilt = sum(dec.reconstruct() for dec in decompositions)
print(f"reconstruction error vs exact term: "
      f"{np.max(np.abs(rebuilt - term)):.2e}")

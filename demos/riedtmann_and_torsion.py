"""Periodic combinatorial configurations and window torsion classes.

The minus-window 1-configurations of a Dynkin algebra correspond to the
periodic combinatorial configurations (and hence to tilting modules); the
torsion class A(Y) of a silting object is untouched by the negative
mutations that mu_rev performs, and recovers Y through its Ext-projectives.

Run:  python3 demos/riedtmann_and_torsion.py
"""
from exseq import (
    QuiverDescriptor, WindowSpec, build_root_system, collection,
    config_to_riedtmann, enumerate_kind, ext_projectives, f_power,
    fuss_catalan, riedtmann_to_config, torsion_window,
)
from exseq.sequences import mu_rev_steps
from exseq.silting import order_silting

rs = build_root_system(QuiverDescriptor.standard("A", 3))

print("Minus-window 1-configurations of A3 and their F-orbits")
minus = enumerate_kind(rs, "m-config-minus", 1)
print(f"  count = {len(minus)}  (positive Fuss-Catalan |C_-2| = {abs(fuss_catalan(rs, -2))})")
for col in minus:
    periodic = config_to_riedtmann(col)
    seed = periodic.seeds.objects[0]
    orbit_bits = [f_power(seed, k) for k in (-1, 0, 1)]
    back = riedtmann_to_config(periodic)
    print(f"  {col}")
    print(f"    one orbit thread: {orbit_bits[0]} <- {orbit_bits[1]} -> {orbit_bits[2]}"
          f"   round trip ok: {back == col}")

print()
print("Torsion classes are blind to negative mutations (A3, m = 1)")
window = WindowSpec(-1, 3)
col = enumerate_kind(rs, "m-cluster-tilting", 1)[3]
print(f"  silting object: {col}")
baseline = torsion_window(col, window)
print(f"  |A(Y)| on degrees -1..3: {len(baseline)}")
seq = order_silting(col)
for i, sign, after in mu_rev_steps(seq):
    unchanged = torsion_window(collection(after), window) == baseline
    print(f"    mu_{i} ({sign.value:11s}) torsion class unchanged: {unchanged}")

print()
print("...and recover the silting object as their Ext-projectives:")
degs = [x.degree for x in col.summands]
wide_window = WindowSpec(min(degs) - 2, max(degs) + 2)
recovered = ext_projectives(torsion_window(col, wide_window), wide_window)
print(f"  ext-projectives = {sorted(recovered, key=lambda x: (x.degree, x.root))}")
print(f"  equals the summand set: {recovered == col.summands}")

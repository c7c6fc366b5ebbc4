"""Tour the catalog of stationary spacetimes: evaluate the rescaling factors,
confirm the printed geodesic forms against the generic transform, and watch
the relativistic factor collapse to 2m(E - U) as c grows.
"""

import numpy as np

from jacobiflow import (
    CATALOG,
    catalog_entry,
    flat_metric,
    jacobi_relativistic_stationary,
    nonrelativistic_limit_factor,
    sample_points,
    spacetime_from_entry,
    weak_field_spacetime,
)

print("available catalog families:")
for name, (_, required, optional, blurb) in sorted(CATALOG.items()):
    print("  %-16s needs %-12s %s" % (name, ",".join(required), blurb))
print()

rng = np.random.default_rng(2024)
E_REL = 1.0

for name, params in (
    ("schwarzschild", dict(M=1.0, m=1.0)),
    ("kerr", dict(M=1.0, a=0.7, m=1.0)),
    ("taub_nut", dict(M=1.0, m=1.0)),
    ("bertrand_hooke", dict(lam=1.0, m=1.0)),
):
    entry = catalog_entry(name, **params)
    conf = jacobi_relativistic_stationary(spacetime_from_entry(entry), E_REL)
    pts = sample_points(entry, 200, rng)
    worst = 0.0
    for x in pts:
        got = conf.metric(x)
        want = entry.rel_ratio * entry.reference_jacobi(x, E_REL)
        worst = max(worst, np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    print("%-16s printed form vs generic transform: worst %.2e over %d points"
          % (entry.name, worst, len(pts)))

print()
print("c -> infinity: relative error of the exact factor against 2m(E - U)")
E_NR = -0.5
x = np.array([0.05, 0.0])
target = 2.0 * (E_NR + 1.0 / x[0])
previous = None
for c in (1e2, 1e3, 1e4):
    st = weak_field_spacetime(flat_metric(2), lambda q: -1.0 / q[0], m=1.0, c=c)
    factor = nonrelativistic_limit_factor(st, E_NR).factor_at(x)
    rel = abs(factor - target) / target
    note = ""
    if previous is not None:
        note = "   (x%.1f smaller)" % (previous / rel)
    print("  c=%8.0f  rel err %.3e%s" % (c, rel, note))
    previous = rel
print("each decade of c buys two decades of accuracy: the error is O(1/c^2)")

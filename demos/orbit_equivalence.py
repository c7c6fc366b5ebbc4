"""Run the same Kepler ellipse as a time flow and as a rescaled geodesic flow,
then check that both trace the same curve in the orbit plane.
"""

import numpy as np

from jacobiflow import (
    FlowState,
    MechanicalSystem,
    clairaut_constant,
    compare_paths,
    hamilton_flow,
    integrate,
    jacobi_flow,
    polar_metric,
    unit_momentum_hamiltonian,
)

M_PARTICLE = 1.0
K_COUPLING = 1.0
ENERGY = -0.5

sys = MechanicalSystem(
    g=polar_metric(),
    U=lambda x: -K_COUPLING / x[0],
    m=M_PARTICLE,
    E=ENERGY,
    name="kepler",
)

# perihelion launch of the e = 0.5 ellipse (semi-major axis 1, period 2 pi)
x0 = np.array([0.5, 0.0])
p0 = np.array([0.0, np.sqrt(0.75)])
period = 2.0 * np.pi

print("system: %s  m=%g k=%g E=%g" % (sys.name, M_PARTICLE, K_COUPLING, ENERGY))
print("launch: r=%.3f  p_phi=%.6f  (e = 0.5 ellipse)" % (x0[0], p0[1]))
print()

# time flow, accumulating the rescaled parameter along the way
paced = integrate(
    hamilton_flow(sys),
    FlowState(x0, p0),
    period,
    pacing=lambda t, x, p: 2.0 * sys.m * (sys.E - sys.potential(x)),
    record_grid=4000,
)
s_max = paced.monitors["pacing"][-1]
print("one period of the time flow covers s = %.6f of rescaled parameter" % s_max)

# geodesic flow of the rescaled metric over the same stretch
rescaled = integrate(
    jacobi_flow(sys),
    FlowState(x0, p0),
    s_max,
    record_grid=4000,
)

deviation = compare_paths(paced, rescaled)
print("max deviation between the two configuration paths: %.3e" % deviation)

h_worst = np.max(np.abs(unit_momentum_hamiltonian(sys, rescaled.x, rescaled.p) - 1.0))
print("rescaled flow stays on its unit level set to %.3e" % h_worst)

R0 = clairaut_constant(sys, rescaled.x[0], rescaled.p[0], "jacobi_s")
Rn = clairaut_constant(sys, rescaled.x[-1], rescaled.p[-1], "jacobi_s")
print("angular invariant at start/end: %.12f / %.12f" % (R0, Rn))

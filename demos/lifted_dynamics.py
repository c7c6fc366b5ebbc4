"""Eisenhart-style lifts: run a harmonic oscillator as a geodesic one
dimension up, then do the same for a periodically driven oscillator where
the lift is the only route to a geodesic picture.
"""

import numpy as np

from jacobiflow import (
    FlowState,
    MechanicalSystem,
    compare_paths,
    embed_static,
    embed_time_dependent,
    flat_metric,
    hamilton_flow,
    integrate,
    integrate_lifted,
    lift_static,
    lift_time_dependent,
    project,
)

SPAN = 20.0

# ----- static lift: V = x^2 / 2 on a flat line ------------------------------
lifted = lift_static(flat_metric(1), lambda x: 0.5 * x[0] ** 2, m=1.0)
start = embed_static(lifted, np.array([1.0]), np.array([0.0]))
traj = integrate_lifted(lifted, start, SPAN, record_grid=2000)
mech = project(traj, lifted)

worst = max(abs(st.x[0] - np.cos(st.param)) for st in mech.states)
print("static lift of the harmonic oscillator over t in [0, %.0f]" % SPAN)
print("  projected geodesic vs cos(t): worst deviation %.3e" % worst)
pz = [st.p[1] for st in traj.states]
print("  fiber momentum spread: %.3e (conserved by construction)"
      % (max(pz) - min(pz)))
print()

# ----- time-dependent lift: U = (1 + 0.1 sin t) x^2 / 2 ---------------------
def driven_U(x, t):
    return 0.5 * (1.0 + 0.1 * np.sin(t)) * float(x @ x)

drive = lift_time_dependent(flat_metric(1), driven_U, m=1.0, c=1.0)
start = embed_time_dependent(drive, np.array([1.0]), np.array([0.0]), q=1.0)
lifted_traj = integrate_lifted(drive, start, SPAN, record_grid=4000)

p_sigma = [st.p[2] for st in lifted_traj.states]
shell = np.max(np.abs(lifted_traj.monitor("shell_residual")))
print("driven oscillator through the time-dependent lift, same span")
print("  dummy momentum spread: %.3e" % (max(p_sigma) - min(p_sigma)))
print("  worst mass-shell residual: %.3e" % shell)

# project back down and compare with a direct non-autonomous integration
mech = project(lifted_traj, drive)
direct = MechanicalSystem(
    g=flat_metric(1),
    U=driven_U,
    m=1.0,
    time_dependent=True,
    grad_U=lambda x, t: np.array([(1.0 + 0.1 * np.sin(t)) * x[0]]),
    name="driven",
)
direct_traj = integrate(
    hamilton_flow(direct),
    FlowState(0.0, np.array([1.0]), np.array([0.0])),
    SPAN,
    record_grid=4000,
)
print("  projection vs direct integration: path deviation %.3e"
      % compare_paths(mech, direct_traj))

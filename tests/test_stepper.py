"""The owned Dormand-Prince stepper against scipy's RK45, and the import
path it keeps free of scipy."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jacobiflow
from jacobiflow import flow
from jacobiflow.cli import main

scipy_integrate = pytest.importorskip("scipy.integrate")

# bertrand_kepler at k = m = 1, launched at r = 3 on the equator with
# p_r = 0.1 and the circular p_phi = sqrt(3)
BERTRAND_E = 0.5 * 0.1 ** 2 + 3.0 / 18.0 - 1.0 / 3.0
OWN_RK45 = flow.RK45


def stepper_inputs(monkeypatch, argv, out):
    """(fun, t0, y0, t_bound, tolerances) of every stepper the CLI run argv
    constructs; the run itself must complete."""
    seen = []

    class Spy(OWN_RK45):
        def __init__(self, fun, t0, y0, t_bound, **tol):
            seen.append((fun, t0, np.array(y0), t_bound, tol))
            super().__init__(fun, t0, y0, t_bound, **tol)

    monkeypatch.setattr(flow, "RK45", Spy)
    assert main([*argv, "--out", str(out)]) == 0
    return seen


@pytest.mark.parametrize("argv, runs", [
    (["orbit", "--system", "kepler", "--E", "-0.5"], 1),
    (["lift", "--kind", "timedep", "--amp", "0.3", "--span", "3", "--record", "1000"], 2),
    (["orbit", "--system", "bertrand_kepler", "--k", "1", "--m", "1", "--flow", "jacobi",
      "--E", repr(BERTRAND_E), "--initial", "3,1.5707963267948966,0,0.1,0,1.7320508075688772",
      "--span", "4"], 1),
], ids=["kepler-orbit", "timedep-lift", "catalog-jacobi-orbit"])
def test_stepper_matches_scipy_bit_for_bit(tmp_path, monkeypatch, capsys, argv, runs):
    inputs = stepper_inputs(monkeypatch, argv, tmp_path)
    assert len(inputs) == runs
    for fun, t0, y0, t_bound, tol in inputs:
        ours = OWN_RK45(fun, t0, y0, t_bound, **tol)
        ref = scipy_integrate.RK45(fun, t0, y0, t_bound, **tol)
        assert ours.h_abs == ref.h_abs and ours.nfev == ref.nfev
        steps = 0
        while ref.status == "running":
            ours.step()
            ref.step()
            steps += 1
            assert ours.status == ref.status and ours.nfev == ref.nfev
            assert ours.t == ref.t and np.array_equal(ours.y, ref.y)
            assert ours.h_abs == ref.h_abs
            sol, ref_sol = ours.dense_output(), ref.dense_output()
            for frac in (0.125, 0.5, 0.875):
                t = ref.t_old + frac * (ref.t - ref.t_old)
                assert np.array_equal(sol(t), ref_sol(t))
        assert ref.status == "finished" and steps > 10


def test_importing_the_cli_loads_no_scipy():
    src = Path(jacobiflow.__file__).resolve().parent.parent
    probe = ("import sys, jacobiflow.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"

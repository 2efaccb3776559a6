"""permlab starts without scipy.

Importing permlab and its CLI, and the CLI's subcommands on closed-form
kernels and chains, load no scipy module: LAPACK comes through
numpy.linalg, and quad, which quadrature defines and excessive binds,
imports scipy.integrate on its first call.  Only u(0) of a Levy potential
and the indicator potential call it.  Each case runs in a fresh
interpreter, since this one has scipy loaded already.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import permlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(permlab.__file__)))
SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _run(code, cwd):
    """Run code in a fresh interpreter that imports permlab from SRC, and
    return the JSON document its last line of output holds."""
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_permlab_loads_no_scipy(tmp_path):
    got = _run(f"""
import json, sys
import permlab, permlab.cli
from permlab import excessive, quadrature
print(json.dumps({{"scipy": {SCIPY},
                   "quadrature": "quad" in vars(quadrature),
                   "excessive": vars(excessive).get("quad") is quadrature.quad}}))
""", tmp_path)
    assert got["scipy"] == []
    # perfbench/tracer.py patches quad at both module names
    assert got["quadrature"] and got["excessive"]


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _kernel_analyze(tmp_path):
    return ["kernel", "analyze",
            "--base", _write(tmp_path, "base.json",
                             {"family": "exp_decay", "beta": 0.5, "C": 0.5}),
            "--f", _write(tmp_path, "f.json", {"kind": "atoms", "atoms": [[1.0, 1.0]]}),
            "--g", _write(tmp_path, "g.json", {"kind": "const", "c": 1.0}),
            "--grid", "1.0,0.7,20,0.7"]


def _lil_run(tmp_path):
    cfg = {"base": {"family": "scale", "s": {"kind": "affine", "a": 1.0, "b": 0.0}},
           "schedule": [20], "grid": {"d": 1.0, "theta": 0.85, "q": 0.95,
                                      "direction": -1},
           "k": 1, "paths": 200, "seed": 5,
           "f": {"kind": "scale_concave", "p": 3.0, "x0": 1.0},
           "g": {"kind": "scale_concave", "p": 4.0, "x0": 1.0}}
    return ["lil", "run", "--config", _write(tmp_path, "run.json", cfg)]


def _rebirth_sim(tmp_path):
    model = {"states": [0, 1], "m": [1.0, 1.0],
             "generator": [[-1.0, 0.3], [0.3, -0.8]], "mu": [0.5, 0.0]}
    return ["rebirth", "sim", "--model", _write(tmp_path, "model.json", model),
            "--paths", "200", "--seed", "3"]


@pytest.mark.parametrize("argv", [_kernel_analyze, _lil_run, _rebirth_sim],
                         ids=["kernel-analyze", "lil-run", "rebirth-sim"])
def test_closed_form_subcommands_load_no_scipy(argv, tmp_path):
    args = argv(tmp_path) + ["--out", str(tmp_path / "out.txt")]
    got = _run(f"""
import json, sys
from permlab.cli import main
rc = main({args!r})
print(json.dumps({{"rc": rc, "scipy": {SCIPY}}}))
""", tmp_path)
    assert got["rc"] == 0
    assert (tmp_path / "out.txt").read_text()
    assert got["scipy"] == []


# u(0) = 1 / (2 sqrt(beta C)) for psi = C lam^2; the indicator potential of
# exp(-|t|) on [0, 2] at x = 0.5 is the integral over [-1.5, 0.5]
QUAD_CALLS = {
    "levy-u0": ("LevyPotential(exponent_from_spec({'kind': 'gaussian_plus', "
                "'C': 0.5, 'atoms': []}), beta=0.5).u(0.0)", 1.0),
    "indicator": ("IndicatorPotential(ExpDecayBase(0.5, 0.5), 0.0, 2.0)(0.5)",
                  2.0 - math.exp(-1.5) - math.exp(-0.5)),
}


@pytest.mark.parametrize("name", sorted(QUAD_CALLS))
def test_quad_imports_scipy_integrate_on_its_first_call(name, tmp_path):
    call, want = QUAD_CALLS[name]
    got = _run(f"""
import json, sys
from permlab import ExpDecayBase, IndicatorPotential, LevyPotential, exponent_from_spec
before = {SCIPY}
value = {call}
print(json.dumps({{"before": before, "value": value, "after": {SCIPY}}}))
""", tmp_path)
    assert got["before"] == []
    assert "scipy.integrate" in got["after"]
    assert got["value"] == pytest.approx(want, rel=1e-9)

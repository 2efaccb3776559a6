"""How each kind of benchmark job is parsed, run and checked.

A job goes through three steps:

* ``parse(kind, spec)`` turns the wire-format documents into permlab objects
  without evaluating anything.  The set-up probe times exactly this.
* ``prepare(job, workdir)`` returns the zero-argument call that is timed.
  Command-line jobs write their documents to files once and call
  ``permlab.cli.main``; library jobs parse afresh on every call, so each run
  starts with cold caches, as a user's fresh process does.
* ``check(kind, spec, output)`` is the oracle.  It returns ``(ok, error,
  detail)``: ``error`` is the relative error behind ``accuracy_digits.min``
  (None when the job has no deterministic error), and ``ok`` is False when
  the output misses its oracle.
* ``declined(exc, output)`` tells a failed job in which the program refused
  to answer (a ``QuadratureError``, a rejected input) from a wrong answer.

Oracles are computed here independently of the program: closed forms for
quadratic and pure stable exponents, the tolerance budget of the quadrature
module, the identity errors of the decomposition, path-by-path bookkeeping
and z-scores of Monte Carlo means.  Criterion 8's 0.9 threshold is not
gated on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

# tolerances of the oracles
IDENTITY_TOL = 1e-10          # det, rho and block identities; nu >= 1 - tol
CLOSED_FORM_TOL = 1e-6        # quadrature against closed forms, see check_potential
OCCUPATION_TOL = 1e-12        # per-path |sum L m - elapsed| / max(1, elapsed)
MASS_TOL = 1e-12              # full rebirth: |p * sum_y w(x, y) m(y) - 1|
Z_MAX = 4.0                   # Monte Carlo means, EK identity, Laplace checks
# the quadrature module's default budget and the factor each route allows
QUAD_ABS_TOL, QUAD_REL_TOL = 1e-9, 1e-7
QUAD_BUDGET_FACTOR = {"u": 1.0, "sigma2": 4.0}
# u = I / pi and sigma2 = 2 I / pi for the transform I the module computes
QUAD_TO_RAW = {"u": math.pi, "sigma2": math.pi / 2.0}

CLI_KINDS = ("pot-u", "pot-sigma2-0", "pot-sigma2-b", "kernel", "lil",
             "rebirth-sim", "check-ek")


# -- parsing (the set-up path) ------------------------------------------------

def _grid_spec(grid: dict, n=None):
    from permlab.kernel_algebra import GridSpec
    return GridSpec(d=float(grid["d"]), theta=float(grid["theta"]),
                    n=int(grid["n"] if n is None else n), q=float(grid["q"]),
                    direction=int(grid.get("direction", 1)))


def _explicit_points(spec: dict) -> np.ndarray:
    offsets = np.geomspace(spec["lo"], spec["hi"], spec["points"] - 1)
    return np.concatenate(([spec["x0"]], spec["x0"] - offsets))


def _rebirth400_model(spec: dict) -> dict:
    """The partially reborn scale diffusion in the README model format."""
    n = spec["states"]
    edges = np.linspace(0.0, spec["length"], n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    s = centers + spec["c"] * centers ** 2
    dens = np.where(centers <= spec["x0"], 1.0 + spec["slope"] * centers, 0.0)
    mu = dens * width
    mu *= spec["mass"] / np.sum(mu)
    return {"states": list(range(n)), "m": np.full(n, width), "mu": mu,
            "potential": np.minimum.outer(s, s)}


def parse(kind: str, spec: dict):
    """Build the objects a job's documents describe, evaluating nothing."""
    from permlab import cli, rebirth
    from permlab.excessive import excessive_from_spec
    from permlab.exponents import exponent_from_spec
    from permlab.potentials import LevyPotential

    if kind.startswith("pot-"):
        return LevyPotential(exponent_from_spec(spec["psi"]), beta=spec["beta"])
    if kind in ("kernel", "grid-200"):
        base = cli.base_from_spec(spec["base"])
        grid = (_grid_spec(spec["grid"]) if kind == "kernel"
                else _explicit_points(spec))
        return (base, excessive_from_spec(spec["f"], base),
                excessive_from_spec(spec["g"], base), grid)
    if kind == "lil":
        base = cli.base_from_spec(spec["base"])
        grids = [_grid_spec(spec["grid"], n) for n in spec["schedule"]]
        f = excessive_from_spec(spec["f"], base) if "f" in spec else None
        g = excessive_from_spec(spec["g"], base) if "g" in spec else None
        return base, f, g, grids
    if kind == "rebirth-400":
        return rebirth.potential_from_spec(_rebirth400_model(spec))
    if kind in ("rebirth-sim", "partial-sim"):
        chain, mu, _ = rebirth.chain_from_spec(spec["model"])
        return rebirth.PartialRebirthModel(chain, mu)
    if kind == "full-sim":
        chain, mu, _ = rebirth.chain_from_spec(spec["model"])
        return rebirth.FullRebirthModel(chain, mu, spec["p"])
    if kind == "check-ek":
        return rebirth.chain_from_spec(spec["model"])[0]
    if kind == "laplace":
        return np.asarray(spec["cov"], dtype=float)
    raise ValueError(f"unknown job kind {kind!r}")


# -- running --------------------------------------------------------------------

def _write(workdir: str, job: dict, name: str, doc: dict) -> str:
    path = os.path.join(workdir, f"job{job['id']}-{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def cli_argv(job: dict, workdir: str) -> list[str]:
    """Write the job's documents and return its permlab command line."""
    kind, spec = job["kind"], job["spec"]
    if kind.startswith("pot-"):
        psi = _write(workdir, job, "psi", spec["psi"])
        return (["potential", "eval", "--psi", psi, "--beta", repr(spec["beta"]),
                 "--kind", "u" if kind == "pot-u" else "sigma2", "--x"]
                + [repr(x) for x in spec["x"]])
    if kind == "kernel":
        grid = spec["grid"]
        return ["kernel", "analyze",
                "--base", _write(workdir, job, "base", spec["base"]),
                "--f", _write(workdir, job, "f", spec["f"]),
                "--g", _write(workdir, job, "g", spec["g"]),
                "--grid", ",".join(repr(grid[k]) for k in ("d", "theta", "n", "q")),
                "--direction", str(grid["direction"])]
    if kind == "lil":
        return ["lil", "run", "--config", _write(workdir, job, "config", spec)]
    if kind == "rebirth-sim":
        return ["rebirth", "sim", "--model", _write(workdir, job, "model", spec["model"]),
                "--paths", str(spec["paths"]), "--seed", str(spec["seed"]),
                "--start", str(spec["start"])]
    if kind == "check-ek":
        return ["rebirth", "check-ek",
                "--model", _write(workdir, job, "model", spec["model"]),
                "--y", str(spec["y"]), "--s", repr(spec["s"]),
                "--paths", str(spec["paths"]), "--seed", str(spec["seed"])]
    raise ValueError(f"{kind!r} is not a command-line job")


def _run_cli(argv: list[str]):
    import permlab.cli as cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def prepare(job: dict, workdir: str):
    """(call, refresh): the timed call, and the untimed step run before it."""
    kind, spec = job["kind"], job["spec"]
    if kind in CLI_KINDS:
        argv = cli_argv(job, workdir)
        return (lambda: _run_cli(argv)), (lambda: None)
    state = {}

    def refresh():
        state["obj"] = parse(kind, spec)

    return (lambda: _LIB_RUNNERS[kind](spec, state.pop("obj"))), refresh


def _identities(dec) -> dict:
    return {"nu": dec.nu, "det": dec.det_ratio_error,
            "rho": dec.rho_identity_error, "block": dec.block_identity_error,
            "mmatrix": bool(dec.a_is_m_matrix and dec.a_sym_is_m_matrix)}


def _run_grid200(spec, parsed):
    from permlab import kernel_algebra as ka
    base, f, g, pts = parsed
    return _identities(ka.decompose(ka.assemble_kernel(base, f, g, pts)))


def _run_rebirth400(spec, parsed):
    from permlab import rebirth
    u, m, mu, _ = parsed
    ext = rebirth.partial_rebirth_potential(u, mu, m)
    return {"u_ext": ext.u_ext, "ok": ext.inverse_m_matrix_ok}


def _run_partial(spec, model):
    res = model.simulate(spec["start"], spec["paths"], spec["seed"])
    return {"occupation_error": res.occupation_error, "elapsed": res.elapsed}


def _run_full(spec, model):
    w = model.potential()
    res = model.simulate(spec["start"], spec["paths"], spec["seed"])
    return {"occupation_error": res.occupation_error, "elapsed": res.elapsed,
            "local_times": res.local_times, "w": w}


def _run_laplace(spec, cov):
    from permlab import sampling
    emp, analytic, z = sampling.laplace_check(cov, spec["k"], spec["s"],
                                              spec["paths"], spec["seed"])
    return {"emp": emp, "analytic": analytic, "z": z}


_LIB_RUNNERS = {"grid-200": _run_grid200, "rebirth-400": _run_rebirth400,
                "partial-sim": _run_partial, "full-sim": _run_full,
                "laplace": _run_laplace}


def declined(exc: BaseException | None, output) -> bool:
    """Whether a failed job is the program refusing to answer: it raised a
    ``QuadratureError`` or rejected its input with a ``ValueError``, or the
    command line exited 2 with its own ``error:`` message.  Declined jobs
    still count as failed; any other failure is a wrong or broken answer."""
    from permlab.quadrature import QuadratureError
    if exc is not None:
        return isinstance(exc, (QuadratureError, ValueError))
    return (isinstance(output, dict) and output.get("exit") == 2
            and output.get("stderr", "").startswith("error: "))


def digest(output) -> str:
    """A stable fingerprint of an output, to check passes agree bit for bit."""
    h = hashlib.sha256()
    if isinstance(output, dict) and "stdout" in output:
        h.update(f"{output['exit']}\n{output['stdout']}".encode())
    else:
        for key in sorted(output):
            val = output[key]
            h.update(key.encode())
            h.update(np.asarray(val).tobytes() if not isinstance(val, (bool, int))
                     else repr(val).encode())
    return h.hexdigest()


# -- oracles ----------------------------------------------------------------------

def stable_sigma2(index: float, x: float) -> float:
    """sigma2 of the pure stable exponent |lam|^index at beta = 0: C x^(index-1)."""
    c = -1.0 / (math.gamma(index) * math.cos(math.pi * index / 2.0))
    return c * abs(x) ** (index - 1.0)


def gaussian_closed_form(kind: str, c: float, beta: float, x: float) -> float:
    """u or sigma2 of psi = C lam^2 killed at rate beta (the exp_decay kernel)."""
    if kind == "sigma2" and beta == 0.0:
        return abs(x) / c
    rate, amp = math.sqrt(beta / c), 1.0 / (2.0 * math.sqrt(beta * c))
    if kind == "u":
        return amp * math.exp(-rate * abs(x))
    return 2.0 * amp * -math.expm1(-rate * abs(x))


def closed_form(kind: str, spec: dict, x: float):
    """Exact value of a potential-eval point, or None when no closed form."""
    psi, beta = spec["psi"], spec["beta"]
    if psi["kind"] == "gaussian_plus" and not psi["atoms"]:
        return gaussian_closed_form(kind, psi["C"], beta, x)
    if psi["kind"] == "stable" and kind == "sigma2" and beta == 0.0:
        return stable_sigma2(psi["index"], x)
    return None


def quad_budget_ratio(kind: str, value: float, err: float) -> float:
    """Reported error over the quadrature budget, in the module's own units."""
    to_raw = QUAD_TO_RAW[kind]
    raw_val, raw_err = value * to_raw, err * to_raw
    budget = max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(raw_val))
    return raw_err / (QUAD_BUDGET_FACTOR[kind] * budget)


def _fail(detail: str):
    return False, None, detail


def _finite(*vals) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)


def _check_cli_exit(output) -> str | None:
    if output["exit"] != 0:
        tail = output["stderr"].strip().splitlines()[-1:] or ["no message"]
        return f"exit {output['exit']}: {tail[0]}"
    return None


def _num(field: str) -> float:
    """A CSV number.  ``potential eval`` prints err_bound with the repr of a
    numpy scalar (``np.float64(1e-09)``) under numpy 2; the number inside is
    what the oracle checks."""
    if field.startswith("np.float64(") and field.endswith(")"):
        field = field[len("np.float64("):-1]
    return float(field)


def _csv(text: str, header: str) -> list[list[str]] | None:
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        return None
    return [line.split(",") for line in lines[1:]]


def check_potential(kind: str, spec: dict, output):
    bad = _check_cli_exit(output)
    if bad:
        return _fail(bad)
    rows = _csv(output["stdout"], "x,y,value,err_bound")
    if rows is None or len(rows) != len(spec["x"]):
        return _fail("wrong CSV shape")
    which = "u" if kind == "pot-u" else "sigma2"
    worst = 0.0
    for (x_s, _, v_s, e_s), x in zip(rows, spec["x"]):
        x_out, value, err = _num(x_s), _num(v_s), _num(e_s)
        if x_out != x or not _finite(value, err) or err < 0.0 or value <= 0.0:
            return _fail(f"bad row at x={x}: {value!r} +- {err!r}")
        ratio = quad_budget_ratio(which, value, err)
        if ratio > 1.0:
            return _fail(f"bound {err:.3g} over budget at x={x} ({ratio:.3g})")
        # errors are relative to the value, floored where the module's
        # absolute tolerance takes over from its relative one
        scale = max(abs(value), QUAD_ABS_TOL / QUAD_REL_TOL / QUAD_TO_RAW[which])
        exact = closed_form(which, spec, x)
        if exact is not None:
            rel = abs(value - exact) / scale
            if rel > CLOSED_FORM_TOL:
                return _fail(f"{which}({x}) = {value!r}, closed form {exact!r}")
        else:
            rel = err / scale
        worst = max(worst, rel)
    return True, worst, "ok"


_LIBRARY_IDENTITIES: dict[str, dict] = {}


def library_identities(spec: dict) -> dict:
    """Identities of a kernel job's decomposition, recomputed through the
    library.  The command line reports det_ratio and nu but neither the rho
    nor the block identity error, so the oracle decomposes the same input
    again, once per spec and outside the timed calls (see ``prime``)."""
    key = json.dumps(spec, sort_keys=True)
    if key not in _LIBRARY_IDENTITIES:
        from permlab import kernel_algebra as ka
        _LIBRARY_IDENTITIES[key] = _identities(
            ka.decompose(ka.assemble_kernel(*parse("kernel", spec))))
    return _LIBRARY_IDENTITIES[key]


def prime(kind: str, spec: dict):
    """Compute a job's oracle reference values ahead of the timed passes.
    An input the library declines is left alone: its job fails on its own."""
    if kind != "kernel":
        return
    try:
        library_identities(spec)
    except Exception as exc:
        if not declined(exc, None):
            raise


def check_identities(det: float, rho: float, block: float, nu: float,
                     mmatrix: bool):
    worst = max(det, rho, block)
    if not worst <= IDENTITY_TOL:
        return _fail(f"identity errors det {det:.3g}, rho {rho:.3g}, block {block:.3g}")
    if not nu >= 1.0 - IDENTITY_TOL:
        return _fail(f"nu = {nu!r} below 1")
    if not mmatrix:
        return _fail("the inverse blocks are not M-matrices")
    return True, worst, "ok"


def check_kernel(kind: str, spec: dict, output):
    bad = _check_cli_exit(output)
    if bad:
        return _fail(bad)
    rep = json.loads(output["stdout"])
    want = {"nu", "rho", "rowsums", "mmatrix_ok", "det_ratio", "cond", "m"}
    if set(rep) != want:
        return _fail(f"report keys {sorted(rep)}")
    grid = spec["grid"]
    m = grid["n"] + 1 - math.floor(grid["n"] ** grid["q"])
    if rep["m"] != m or not _finite(rep["nu"], rep["rho"], rep["det_ratio"], rep["cond"]):
        return _fail("report has a wrong grid size or a non-finite entry")
    lib = library_identities(spec)
    return check_identities(rep["det_ratio"], lib["rho"], lib["block"], rep["nu"],
                            rep["mmatrix_ok"] is True)


def check_grid200(kind: str, spec: dict, out):
    return check_identities(out["det"], out["rho"], out["block"], out["nu"],
                            out["mmatrix"])


def check_rebirth400(kind: str, spec: dict, out):
    if not out["ok"]:
        return _fail("inverse of the extension is not an M-matrix")
    model = _rebirth400_model(spec)
    u, mu = model["potential"], model["mu"]
    n = spec["states"]
    f = u.T @ mu
    want = np.empty((n + 1, n + 1))
    want[:n, :n] = u + f[None, :]
    want[n, :n] = f
    want[:, n] = 1.0
    rel = float(np.max(np.abs(out["u_ext"] - want) / np.abs(want)))
    if rel > 1e-12:
        return _fail(f"extension differs from u + f by {rel:.3g}")
    return True, rel, "ok"


def check_lil(kind: str, spec: dict, output):
    bad = _check_cli_exit(output)
    if bad:
        return _fail(bad)
    rows = _csv(output["stdout"], "n,m_n,epsilon,freq_lower,freq_upper,nu,paths")
    if rows is None or len(rows) != 3 * len(spec["schedule"]):
        return _fail("wrong CSV shape")
    grid = spec["grid"]
    bordered = "f" in spec
    for i, (n, m, eps, lo, hi, nu, paths) in enumerate(rows):
        want_n = spec["schedule"][i // 3]
        want_m = want_n + 1 - math.floor(want_n ** grid["q"])
        lo, hi, nu = float(lo), float(hi), float(nu)
        if (int(n), int(m), int(paths)) != (want_n, want_m, spec["paths"]):
            return _fail(f"row {i} describes the wrong grid")
        if float(eps) != (0.1, 0.2, 0.3)[i % 3]:
            return _fail(f"row {i} has epsilon {eps}")
        if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
            return _fail(f"row {i} frequencies {lo}, {hi}")
        if bordered and not nu >= 1.0 - IDENTITY_TOL:
            return _fail(f"row {i} nu = {nu!r} below 1")
        if not bordered and nu != 1.0:
            return _fail(f"row {i} nu = {nu!r} without borders")
    return True, None, "ok"


def check_rebirth_sim(kind: str, spec: dict, output):
    bad = _check_cli_exit(output)
    if bad:
        return _fail(bad)
    rows = _csv(output["stdout"], "state,mean_local_time,std_error,expected")
    if rows is None or len(rows) != len(spec["model"]["states"]) + 1:
        return _fail("wrong CSV shape")
    for label, mean, se, want in rows:
        mean, se, want = float(mean), float(se), float(want)
        if not (_finite(mean, se, want) and se > 0.0):
            return _fail(f"state {label}: non-finite mean or zero error")
        z = (mean - want) / se
        if abs(z) > Z_MAX:
            return _fail(f"state {label}: z = {z:.2f}")
    return True, None, "ok"


def _occupation(out) -> float:
    return float(np.max(out["occupation_error"] / np.maximum(1.0, out["elapsed"])))


def check_partial(kind: str, spec: dict, out):
    occ = _occupation(out)
    if not occ <= OCCUPATION_TOL:
        return _fail(f"occupation error {occ:.3g}")
    return True, occ, "ok"


def check_full(kind: str, spec: dict, out):
    m = np.asarray(spec["model"]["m"], dtype=float)
    mass = float(np.max(np.abs(spec["p"] * (out["w"] @ m) - 1.0)))
    if not mass <= MASS_TOL:
        return _fail(f"full-rebirth mass identity off by {mass:.3g}")
    occ = _occupation(out)
    if not occ <= OCCUPATION_TOL:
        return _fail(f"occupation error {occ:.3g}")
    if spec["z_test"]:
        lt = out["local_times"]
        se = lt.std(axis=0, ddof=1) / math.sqrt(spec["paths"])
        z = (lt.mean(axis=0) - out["w"][spec["start"]]) / se
        if not np.all(np.abs(z) <= Z_MAX):
            return _fail(f"local-time means off the potential, z = {z}")
    return True, max(mass, occ), "ok"


def check_ek(kind: str, spec: dict, output):
    if output["exit"] not in (0, 1):
        return _fail(_check_cli_exit(output))
    rep = json.loads(output["stdout"])
    if not _finite(rep["lhs"], rep["rhs"], rep["z"]):
        return _fail("non-finite report")
    if abs(rep["z"]) > Z_MAX or output["exit"] != 0:
        return _fail(f"isomorphism z = {rep['z']:.2f}, exit {output['exit']}")
    return True, None, "ok"


def laplace_analytic(spec: dict) -> float:
    cov, s = np.asarray(spec["cov"]), np.asarray(spec["s"])
    return float(np.linalg.det(np.eye(len(s)) + cov * s[None, :]) ** (-spec["k"] / 2.0))


def check_laplace(kind: str, spec: dict, out):
    want = laplace_analytic(spec)
    rel = abs(out["analytic"] - want) / want
    if rel > 1e-12:
        return _fail(f"analytic transform {out['analytic']!r}, expected {want!r}")
    if not abs(out["z"]) <= Z_MAX:
        return _fail(f"Laplace z = {out['z']:.2f}")
    return True, rel, "ok"


_CHECKS = {"pot-u": check_potential, "pot-sigma2-0": check_potential,
           "pot-sigma2-b": check_potential, "kernel": check_kernel,
           "grid-200": check_grid200, "rebirth-400": check_rebirth400,
           "lil": check_lil, "rebirth-sim": check_rebirth_sim,
           "partial-sim": check_partial, "full-sim": check_full,
           "check-ek": check_ek, "laplace": check_laplace}


def check(kind: str, spec: dict, output):
    """Oracle of one job: (ok, relative error or None, detail)."""
    try:
        return _CHECKS[kind](kind, spec, output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return _fail(f"unreadable output: {type(exc).__name__}: {exc}")

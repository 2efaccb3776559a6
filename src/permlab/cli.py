"""Command-line entry point.

Subcommands: potential (pointwise kernel evaluation, CSV), kernel (grid
decomposition report, JSON), lil (Monte Carlo exceedance table, CSV), rebirth
(chain simulation and the isomorphism check), verify (the acceptance
battery).  Every stochastic command takes a seed and writes byte-identical
output for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import _wire as wire
from .bases import (ExpDecayBase, HitZeroLevyBase, LevyBase, PQBase,
                    ScaleMinBase, StableHitZeroBase, VBetaBase, VPQBase)
from .diffusion import PQPotential, ScalePotential
from .excessive import excessive_from_spec
from .expressions import expr_from_spec
from .exponents import exponent_from_spec
from .kernel_algebra import GridSpec, assemble_kernel, decompose, rowsum_residuals
from .potentials import LevyPotential
from .quadrature import QuadratureError
from .rebirth import (_ROUND_CAP, PartialRebirthModel, RoundCapError,
                      chain_from_spec, ek_identity_check)
from .sampling import lil_harness
from .verify import SUITES, run_suite

__all__ = ["main", "base_from_spec"]


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# (required, optional) fields of each base family besides "family"
_BASE_FIELDS = {
    "levy": (("psi", "beta"), ()), "levy_hit_zero": (("psi",), ()),
    "levy_v": (("psi", "beta"), ()), "stable_hit_zero": (("rho",), ()),
    "exp_decay": ((), ("beta", "C")), "pq": (("p", "q", "beta"), ("interval",)),
    "vpq": (("p", "q", "beta"), ("interval",)), "scale": (("s",), ("hi",)),
}
_LEVY_BASES = {"levy": LevyBase, "levy_hit_zero": HitZeroLevyBase,
               "levy_v": VBetaBase}
# the kernel of each Levy family with the bound its quadrature reports
_LEVY_BOUNDS = {"levy": lambda pot, x, y: pot.u_with_error(x - y),
                "levy_hit_zero": lambda pot, x, y: pot.u0_with_error(x, y),
                "levy_v": lambda pot, x, y: pot.v_with_error(x, y)}


def base_from_spec(spec: dict):
    """Kernel-family dispatcher for the JSON wire format."""
    family, what = wire.kind_of(spec, _BASE_FIELDS, "base", "family")
    if family in _LEVY_BASES:
        beta = 0.0 if family == "levy_hit_zero" else wire.number(spec, "beta", what)
        pot = LevyPotential(exponent_from_spec(spec["psi"]), beta=beta)
        return _LEVY_BASES[family](pot)
    if family == "stable_hit_zero":
        return StableHitZeroBase(wire.number(spec, "rho", what))
    if family == "exp_decay":
        return ExpDecayBase(wire.number(spec, "beta", what, 0.5),
                            wire.number(spec, "C", what, 0.5))
    if family in ("pq", "vpq"):
        pot = PQPotential(expr_from_spec(spec["p"]), expr_from_spec(spec["q"]),
                          beta=wire.number(spec, "beta", what),
                          interval=wire.numbers(spec, "interval", what, 2,
                                                (-2.0, 2.0)))
        return PQBase(pot) if family == "pq" else VPQBase(pot)
    pot = ScalePotential(expr_from_spec(spec["s"]),
                         hi=wire.number(spec, "hi", what, 10.0))
    return ScaleMinBase(pot)


def _write_lines(path, lines):
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# -- potential ------------------------------------------------------------

def _cmd_potential_eval(args) -> int:
    rows = ["x,y,value,err_bound"]
    xs = [float(v) for v in args.x]
    ys = [float(v) for v in args.y] if args.y else [None] * len(xs)
    if not np.all(np.isfinite(xs + (ys if args.y else []))):
        raise ValueError("--x and --y take finite numbers")
    if len(ys) == 1 and len(xs) > 1:
        ys = ys * len(xs)
    if len(ys) != len(xs):
        raise ValueError(f"--y takes one value or one per --x value; got "
                         f"{len(ys)} for {len(xs)}")
    if args.family:
        if any(v is not None for v in (args.psi, args.kind, args.beta)):
            raise ValueError("--family takes no --psi, --kind or --beta")
        if args.spec is None:
            raise ValueError("--family needs --spec")
        spec = _load_json(args.spec)
        if (isinstance(spec, dict)
                and spec.setdefault("family", args.family) != args.family):
            raise ValueError(f"--family {args.family} disagrees with the spec's "
                             f"family {spec['family']!r}")
        base = base_from_spec(spec)
        with_error = _LEVY_BOUNDS.get(args.family)
        for x, y in zip(xs, ys):
            yy = x if y is None else y
            val, err = (with_error(base.pot, x, yy) if with_error
                        else (base.kernel(x, yy), 0.0))
            rows.append(f"{x!r},{yy!r},{val!r},{float(err)!r}")
    else:
        if args.psi is None or args.spec is not None:
            raise ValueError("potential eval needs --psi, or --family with --spec")
        kind = args.kind or "u"
        # u and sigma2 take one point, u0 and vbeta two
        if (kind in ("u0", "vbeta")) != bool(args.y):
            need = "takes no" if args.y else "needs"
            raise ValueError(f"--kind {kind} {need} --y")
        pot = LevyPotential(exponent_from_spec(_load_json(args.psi)),
                            beta=0.0 if args.beta is None else args.beta)
        evaluate = {"u": pot.u_with_error, "sigma2": pot.sigma2_with_error,
                    "u0": pot.u0_with_error, "vbeta": pot.v_with_error}[kind]
        for x, y in zip(xs, ys):
            val, err = evaluate(x) if y is None else evaluate(x, y)
            y_out = "" if y is None else repr(y)
            rows.append(f"{x!r},{y_out},{val!r},{float(err)!r}")
    _write_lines(args.out, rows)
    return 0


# -- kernel ---------------------------------------------------------------

def _cmd_kernel_analyze(args) -> int:
    base = base_from_spec(_load_json(args.base))
    f = excessive_from_spec(_load_json(args.f), base)
    g = excessive_from_spec(_load_json(args.g), base)
    d, theta, n, q = args.grid.split(",")
    spec = GridSpec(d=float(d), theta=float(theta), n=int(n), q=float(q),
                    direction=args.direction)
    dec = decompose(assemble_kernel(base, f, g, spec))
    report = {
        "nu": dec.nu,
        "rho": dec.rho,
        "rowsums": rowsum_residuals(dec),
        "mmatrix_ok": bool(dec.a_is_m_matrix and dec.a_sym_is_m_matrix),
        "det_ratio": dec.det_ratio_error,
        "cond": dec.kernel.cond,
        "m": spec.m,
    }
    _write_lines(args.out, [json.dumps(report, sort_keys=True)])
    return 0


# -- lil --------------------------------------------------------------------

def _cmd_lil_run(args) -> int:
    cfg = _load_json(args.config)
    what = "lil config"
    wire.check_fields(cfg, ("base", "schedule", "grid", "k", "paths", "seed",
                            "f", "g"),
                      ("base", "schedule", "grid", "paths", "seed"), what)
    grid = cfg["grid"]
    in_grid = f"{what} 'grid'"
    wire.check_fields(grid, ("d", "theta", "q", "direction"),
                      ("d", "theta", "q"), in_grid)
    base = base_from_spec(cfg["base"])
    specs = [GridSpec(d=wire.number(grid, "d", in_grid),
                      theta=wire.number(grid, "theta", in_grid), n=n,
                      q=wire.number(grid, "q", in_grid),
                      direction=wire.integer(grid, "direction", in_grid, 1))
             for n in wire.integers(cfg, "schedule", what)]
    f = excessive_from_spec(cfg["f"], base) if "f" in cfg else None
    g = excessive_from_spec(cfg["g"], base) if "g" in cfg else None
    rows = lil_harness(base, f, g, specs, k=wire.integer(cfg, "k", what, 1),
                       n_paths=wire.integer(cfg, "paths", what),
                       seed=wire.integer(cfg, "seed", what))
    lines = ["n,m_n,epsilon,freq_lower,freq_upper,nu,paths"]
    for r in rows:
        lines.append(f"{r.n},{r.m},{r.epsilon!r},{r.freq_lower!r},"
                     f"{r.freq_upper!r},{r.nu!r},{r.paths}")
    _write_lines(args.out, lines)
    return 0


# -- rebirth -----------------------------------------------------------------

def _cmd_rebirth_sim(args) -> int:
    if args.paths < 2:     # the report carries ddof=1 standard errors
        raise ValueError(f"--paths must be at least 2, got {args.paths}")
    chain, mu, _ = chain_from_spec(_load_json(args.model))
    model = PartialRebirthModel(chain, mu)
    ext = model.extension()   # first: a chain that never dies has none
    n = chain.n_states
    if not 0 <= args.start <= n:
        raise ValueError(f"--start must lie in 0..{n}, got {args.start}")
    # each jump of a path takes one loop round; its expected jump count is
    # the expected time in each state times that state's holding rate
    hold_rate, _, m_ext = model._jump_table()
    jumps = float(ext.u_ext[args.start] @ (m_ext * hold_rate))
    if jumps > _ROUND_CAP:
        raise ValueError(f"a path from state {args.start} makes {jumps:.3g} "
                         f"jumps on average, beyond the {_ROUND_CAP}-round cap")
    res = model.simulate(args.start, args.paths, args.seed)
    lines = ["state,mean_local_time,std_error,expected"]
    means = res.local_times.mean(axis=0)
    ses = res.local_times.std(axis=0, ddof=1) / np.sqrt(args.paths)
    labels = [str(i) for i in range(n)] + ["return_point"]
    for lab, mean, se, want in zip(labels, means, ses, ext.u_ext[args.start]):
        lines.append(f"{lab},{float(mean)!r},{float(se)!r},{float(want)!r}")
    _write_lines(args.out, lines)
    return 0


def _cmd_rebirth_check_ek(args) -> int:
    s = args.s
    if not 0.0 <= s < np.inf:
        raise ValueError(f"--s must be finite and nonnegative, got {s!r}")
    chain, _, _ = chain_from_spec(_load_json(args.model))

    def f(x):
        # exp(-s * the row sums): a fold over the columns in column order,
        # numpy's own order of a row sum below 8 states, and then in place;
        # each value reads its own row only, so it does not matter that
        # ek_identity_check hands x over in blocks of paths
        total = x[:, 0].copy()
        for col in x.T[1:]:
            total += col
        total *= -s
        return np.exp(total, out=total)

    rep = ek_identity_check(chain, args.y, f, args.paths, args.seed)
    report = {"lhs": rep.lhs, "rhs": rep.rhs, "z": rep.z,
              "lhs_se": rep.lhs_se, "rhs_se": rep.rhs_se}
    _write_lines(args.out, [json.dumps(report, sort_keys=True)])
    return 0 if abs(rep.z) <= 4.0 else 1


# -- verify ------------------------------------------------------------------

def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permlab",
        description="kernel, potential, and local-time laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pot = sub.add_parser("potential", help="evaluate potential kernels")
    pot_sub = p_pot.add_subparsers(dest="subcommand", required=True)
    p_eval = pot_sub.add_parser("eval")
    p_eval.add_argument("--psi", help="exponent spec JSON path")
    p_eval.add_argument("--beta", type=float, help="with --psi; default 0")
    p_eval.add_argument("--kind", choices=["u", "sigma2", "u0", "vbeta"],
                        help="with --psi; default u")
    p_eval.add_argument("--family",
                        choices=sorted(_BASE_FIELDS),
                        help="kernel family instead of --psi")
    p_eval.add_argument("--spec", help="family spec JSON path")
    p_eval.add_argument("--x", nargs="+", required=True)
    p_eval.add_argument("--y", nargs="*", help="not with --kind u or sigma2")
    p_eval.add_argument("--out", default="-")
    p_eval.set_defaults(func=_cmd_potential_eval)

    p_ker = sub.add_parser("kernel", help="grid kernel decomposition")
    ker_sub = p_ker.add_subparsers(dest="subcommand", required=True)
    p_an = ker_sub.add_parser("analyze")
    p_an.add_argument("--base", required=True)
    p_an.add_argument("--f", required=True)
    p_an.add_argument("--g", required=True)
    p_an.add_argument("--grid", required=True, metavar="d,theta,n,q")
    p_an.add_argument("--direction", type=int, default=1, choices=[1, -1])
    p_an.add_argument("--out", default="-")
    p_an.set_defaults(func=_cmd_kernel_analyze)

    p_lil = sub.add_parser("lil", help="iterated-logarithm Monte Carlo")
    lil_sub = p_lil.add_subparsers(dest="subcommand", required=True)
    p_run = lil_sub.add_parser("run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="-")
    p_run.set_defaults(func=_cmd_lil_run)

    p_reb = sub.add_parser("rebirth", help="chain simulation and checks")
    reb_sub = p_reb.add_subparsers(dest="subcommand", required=True)
    p_sim = reb_sub.add_parser("sim")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--paths", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--start", type=int, default=0)
    p_sim.add_argument("--out", default="-")
    p_sim.set_defaults(func=_cmd_rebirth_sim)
    p_ek = reb_sub.add_parser("check-ek")
    p_ek.add_argument("--model", required=True)
    p_ek.add_argument("--y", type=int, default=0)
    p_ek.add_argument("--s", type=float, default=0.5)
    p_ek.add_argument("--paths", type=int, required=True)
    p_ek.add_argument("--seed", type=int, required=True)
    p_ek.add_argument("--out", default="-")
    p_ek.set_defaults(func=_cmd_rebirth_check_ek)

    p_ver = sub.add_parser("verify", help="run the acceptance battery")
    p_ver.add_argument("--suite", choices=sorted(SUITES), default="full")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The tree of build_parser, built on first use and kept for the process:
    parsing leaves no state in it, and building it costs far more than a
    parse, which matters to callers of main in one process."""
    return build_parser()


# a value that argparse from Python 3.13 on reads as a negative number
_NEGATIVE = re.compile(r"-\.?\d")


def _join_grid(argv: list[str]) -> list[str]:
    """argv with "--grid" and a negative d after it joined by "=": argparse
    before Python 3.13 takes "-0.5,0.3,20,0.5" for an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--grid" and _NEGATIVE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_join_grid(argv))
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, QuadratureError,
            RoundCapError) as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())

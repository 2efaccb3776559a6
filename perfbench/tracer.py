"""Outside-in tracing of permlab's layers.

``Tracer.install()`` replaces the public functions and methods of each
permlab module with wrappers, at every name a caller looks them up under:
a module-level function is patched in every permlab module that imported it
by name (``quadrature.cosine_halfline`` and ``potentials.cosine_halfline``),
a method on the class that defines it, and ``scipy.integrate.quad`` where
``quadrature`` and ``excessive`` bound it.  ``uninstall()`` puts every
original back.

While ``active`` is set, each wrapped call records a span (name, start, end,
parent span, job id) into flat in-memory columns, and a hook adds the
counts measured at that boundary (points evaluated, paths drawn, matrix
sizes).  A layer's self time is its spans' time minus the time their child
spans cover.  Counts of bytes and flops are computed from argument sizes,
not measured, and are named ``*_computed``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# -- counting hooks --------------------------------------------------------------
# Each hook gets (counts, args, kwargs, result) of one completed call.


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _h_psi(c, args, kwargs, result):
    c["exponents.lam_points"] += int(np.size(args[1]))


def _h_cosine(c, args, kwargs, result):
    cfg, value, err = _arg(args, kwargs, 2, "cfg"), result[0], result[1]
    hint = kwargs.get("scale_hint", args[5] if len(args) > 5 else None)
    ratio = err / cfg.budget(hint if hint is not None else value)
    c["quadrature.err_budget_ratio.max"] = max(c["quadrature.err_budget_ratio.max"], ratio)


def _h_one_minus_cos(c, args, kwargs, result):
    # the module accepts 4x the budget of max(|value|, scale); scale is
    # internal, so |value| stands in and the ratio is an upper bound
    cfg, value, err = _arg(args, kwargs, 2, "cfg"), result[0], result[1]
    ratio = err / (4.0 * cfg.budget(abs(value)))
    c["quadrature.err_budget_ratio.max"] = max(c["quadrature.err_budget_ratio.max"], ratio)


def _h_assemble(c, args, kwargs, result):
    c["kernel_algebra.points"] += len(result.points)


def _h_lu_factor(c, args, kwargs, result):
    n = np.shape(args[0])[0]
    c["linalg.lu_calls"] += 1
    c["linalg.flops_computed"] += 2.0 * n ** 3 / 3.0


def _h_lu_solve(c, args, kwargs, result):
    n = args[0][0].shape[0]
    b = np.shape(args[1])
    c["linalg.flops_computed"] += 2.0 * n * n * (b[1] if len(b) == 2 else 1)


def _h_inv(c, args, kwargs, result):
    # the factorization and solve are counted by their own spans; the two
    # Newton steps add two n x n products each (assumes neither stops early)
    n = np.shape(args[0])[0]
    c["linalg.inv_calls"] += 1
    c["linalg.flops_computed"] += 8.0 * n ** 3


def _h_cond1(c, args, kwargs, result):
    c["linalg.flops_computed"] += 4.0 * np.size(args[0])


def _h_chi_square(c, args, kwargs, result):
    n, k = _arg(args, kwargs, 2, "n_paths"), _arg(args, kwargs, 1, "k")
    dim = np.shape(args[0])[0]
    c["sampling.paths"] += n
    c["sampling.normals_computed"] += n * k * dim
    # z, eta, eta * eta and the result, float64
    c["sampling.bytes_computed"] += 8 * (3 * n * k * dim + n * dim)


def _h_lil(c, args, kwargs, result):
    f, g = args[1], args[2]
    specs = _arg(args, kwargs, 3, "grid_specs")
    k, n = _arg(args, kwargs, 4, "k"), _arg(args, kwargs, 5, "n_paths")
    for spec in specs:
        m = spec.m
        c["sampling.paths"] += n
        c["sampling.normals_computed"] += n * k * (1 + m) + (n * k if f or g else 0)
        # z, its correlated image, delta and three products over
        # (paths, k, m), plus the statistic arrays over (paths, m)
        c["sampling.bytes_computed"] += 8 * (6 * n * k * m + 3 * n * m)


def _h_simulate(c, args, kwargs, result):
    c["rebirth.sim.paths"] += _arg(args, kwargs, 2, "n_paths")
    c["rebirth.sim.rounds"] += result.events


def _h_conditioned(c, args, kwargs, result):
    c["rebirth.sim.paths"] += _arg(args, kwargs, 2, "n_paths")


# -- what is traced ------------------------------------------------------------
# (module, attribute path, layer, hook); the span name is module.path

_FUNCS = [
    ("exponents", "CharExponent.__call__", "exponents", _h_psi),
    ("exponents", "CharExponent.derivatives", "exponents", None),
    ("exponents", "CharExponent.bounds", "exponents", None),
    ("exponents", "CharExponent.tail_minorant", "exponents", None),
    ("exponents", "exponent_from_spec", "exponents", None),
    ("quadrature", "cosine_halfline", "quadrature", _h_cosine),
    ("quadrature", "one_minus_cos_halfline", "quadrature", _h_one_minus_cos),
    ("quadrature", "smooth_tail", "quadrature", None),
    ("potentials", "LevyPotential.u_with_error", "potentials", None),
    ("potentials", "LevyPotential.sigma2_with_error", "potentials", None),
    ("potentials", "LevyPotential.u0", "potentials", None),
    ("potentials", "LevyPotential.v", "potentials", None),
    ("expressions", "Expr.__call__", "expressions", None),
    ("expressions", "expr_from_spec", "expressions", None),
    ("diffusion", "PQPotential.u", "diffusion", None),
    ("diffusion", "PQPotential.v", "diffusion", None),
    ("diffusion", "PQPotential.sigma2", "diffusion", None),
    ("diffusion", "PQPotential.tau", "diffusion", None),
    ("diffusion", "ScalePotential.u", "diffusion", None),
    ("diffusion", "ScalePotential.inverse", "diffusion", None),
    ("diffusion", "concave_cap_value", "diffusion", None),
    ("diffusion", "concave_cap_second_derivative", "diffusion", None),
    ("excessive", "IndicatorPotential.__call__", "excessive", None),
    ("excessive", "IndicatorPotential.derivative", "excessive", None),
    ("excessive", "AtomicPotential.__call__", "excessive", None),
    ("excessive", "ConstantExcessive.__call__", "excessive", None),
    ("excessive", "ScaleConcaveExcessive.__call__", "excessive", None),
    ("excessive", "ScaleConcaveExcessive.derivative", "excessive", None),
    ("excessive", "make_flat_pair", "excessive", None),
    ("excessive", "gram_surrogate_min", "excessive", None),
    ("excessive", "excessive_from_spec", "excessive", None),
    ("kernel_algebra", "assemble_kernel", "kernel_algebra.assemble", _h_assemble),
    ("kernel_algebra", "decompose", "kernel_algebra.decompose", None),
    ("kernel_algebra", "rowsum_residuals", "kernel_algebra.decompose", None),
    ("_linalg", "lu_factor", "linalg", _h_lu_factor),
    ("_linalg", "lu_solve", "linalg", _h_lu_solve),
    ("_linalg", "inv", "linalg", _h_inv),
    ("_linalg", "slogdet", "linalg", None),
    ("_linalg", "cond1", "linalg", _h_cond1),
    ("sampling", "philox", "sampling", None),
    ("sampling", "sample_chi_square", "sampling", _h_chi_square),
    ("sampling", "laplace_check", "sampling", None),
    ("sampling", "sample_isymi_representation", "sampling", None),
    ("sampling", "sandwich_check", "sampling", None),
    ("sampling", "lil_harness", "sampling", _h_lil),
    ("rebirth", "PartialRebirthModel.simulate", "rebirth.sim", _h_simulate),
    ("rebirth", "FullRebirthModel.simulate", "rebirth.sim", _h_simulate),
    ("rebirth", "_simulate_conditioned", "rebirth.sim", _h_conditioned),
    ("rebirth", "ek_identity_check", "rebirth.sim", None),
    ("rebirth", "FiniteChain.occupation", "rebirth.algebra", None),
    ("rebirth", "FiniteChain.potential", "rebirth.algebra", None),
    ("rebirth", "FiniteChain.killed", "rebirth.algebra", None),
    ("rebirth", "PartialRebirthModel.extension", "rebirth.algebra", None),
    ("rebirth", "FullRebirthModel.potential", "rebirth.algebra", None),
    ("rebirth", "partial_rebirth_potential", "rebirth.algebra", None),
    ("rebirth", "full_rebirth_potential", "rebirth.algebra", None),
    ("rebirth", "chain_from_spec", "rebirth.algebra", None),
    ("rebirth", "potential_from_spec", "rebirth.algebra", None),
    ("cli", "main", "cli", None),
    ("cli", "base_from_spec", "cli", None),
]
for _cls in ("ExpDecayBase", "LevyBase", "HitZeroLevyBase", "StableHitZeroBase",
             "VBetaBase", "PQBase", "VPQBase", "ScaleMinBase"):
    _FUNCS.append(("bases", f"{_cls}.kernel", "bases", None))
for _cls in ("ExpDecayBase", "LevyBase"):
    _FUNCS.append(("bases", f"{_cls}.radial", "bases", None))

# scipy's quad is patched only where these modules bound it, and each
# binding belongs to the layer that calls it
_BOUND = [("quadrature", "quad", "quadrature"), ("excessive", "quad", "excessive")]

QUAD_EVALS = ("quadrature.cosine_halfline", "quadrature.one_minus_cos_halfline")
POT_EVALS = ("potentials.LevyPotential.u_with_error",
             "potentials.LevyPotential.sigma2_with_error")

LAYERS = ("exponents", "quadrature", "potentials", "bases", "diffusion",
          "expressions", "excessive", "kernel_algebra.assemble",
          "kernel_algebra.decompose", "linalg", "sampling", "rebirth.sim",
          "rebirth.algebra", "cli")

COUNTERS = ("exponents.lam_points", "quadrature.err_budget_ratio.max",
            "kernel_algebra.points", "linalg.lu_calls", "linalg.inv_calls",
            "linalg.flops_computed", "sampling.paths",
            "sampling.normals_computed", "sampling.bytes_computed",
            "rebirth.sim.paths", "rebirth.sim.rounds")


def _permlab_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "permlab" or name.startswith("permlab."))]


class Tracer:
    """Wrappers around permlab's layers, and the spans they record."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.errors: dict[str, int] = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]

    # -- patching ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, hook):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = len(tr.span_t0)
            tr.span_name.append(name_id)
            tr.span_parent.append(tr._stack[-1])
            tr.span_job.append(tr.job)
            tr.span_t0.append(0.0)
            tr.span_t1.append(0.0)
            tr._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tr.errors[name] = tr.errors.get(name, 0) + 1
                raise
            finally:
                tr.span_t1[idx] = perf_counter()
                tr.span_t0[idx] = start
                tr._stack.pop()
            if hook is not None:
                hook(tr.counts, args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Patch every traced name and start a fresh record of spans."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.names.clear()
        self.layer_of.clear()
        self.reset()
        try:
            for modname, path, layer, hook in _FUNCS:
                mod = importlib.import_module(f"permlab.{modname}")
                name = f"{modname}.{path}"
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, meth, self._wrap(cls.__dict__[meth], name, layer, hook))
                    continue
                original = getattr(mod, path)
                wrapper = self._wrap(original, name, layer, hook)
                for other in _permlab_modules():
                    for attr, val in list(vars(other).items()):
                        if val is original:
                            self._patch(other, attr, wrapper)
            for modname, attr, layer in _BOUND:
                mod = importlib.import_module(f"permlab.{modname}")
                self._patch(mod, attr, self._wrap(getattr(mod, attr),
                                                  f"{modname}.scipy_quad", layer, None))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
                "job": np.frombuffer(self.span_job, dtype=np.int32).copy(),
                "t0": np.frombuffer(self.span_t0, dtype=np.float64).copy(),
                "t1": np.frombuffer(self.span_t1, dtype=np.float64).copy()}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of everything recorded so far."""
        sp = self.spans()
        name, parent = sp["name"], sp["parent"]
        dur = sp["t1"] - sp["t0"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        span_layer = np.array([LAYERS.index(layer) for layer in self.layer_of],
                              dtype=np.int32)[name]

        def named(test):
            ids = [i for i, n in enumerate(self.names) if test(n)]
            return np.isin(name, ids)

        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = float(np.sum(self_time[span_layer == i]))
        evals = named(lambda n: n in QUAD_EVALS)
        pot = named(lambda n: n in POT_EVALS)
        with_quad = np.zeros(len(dur), dtype=bool)
        with_quad[parent[evals & has_parent]] = True
        out["exponents.calls"] = int(np.sum(named(
            lambda n: n == "exponents.CharExponent.__call__")))
        out["quadrature.evals"] = int(np.sum(evals))
        out["quadrature.scipy_quad_calls"] = int(np.sum(named(
            lambda n: n == "quadrature.scipy_quad")))
        out["quadrature.s_per_eval"] = (float(np.sum(dur[evals]) / np.sum(evals))
                                        if np.any(evals) else 0.0)
        out["quadrature.errors"] = sum(self.errors.get(n, 0) for n in QUAD_EVALS)
        out["potentials.calls"] = int(np.sum(pot))
        out["potentials.cache_hit_ratio"] = (
            float(np.sum(pot & ~with_quad) / np.sum(pot)) if np.any(pot) else 0.0)
        out["bases.kernel_calls"] = int(np.sum(named(
            lambda n: n.startswith("bases.") and n.endswith(".kernel"))))
        out["diffusion.calls"] = int(np.sum(span_layer == LAYERS.index("diffusion")))
        out["expressions.calls"] = int(np.sum(named(
            lambda n: n == "expressions.Expr.__call__")))
        out["excessive.calls"] = int(np.sum(named(
            lambda n: n.startswith("excessive.") and n.endswith(".__call__"))))
        out.update({k: float(v) for k, v in self.counts.items()})
        samp, sim = out["sampling.self_s"], out["rebirth.sim.self_s"]
        out["sampling.paths_per_s"] = out["sampling.paths"] / samp if samp > 0 else 0.0
        out["rebirth.sim.paths_per_s"] = out["rebirth.sim.paths"] / sim if sim > 0 else 0.0
        return out


def patched_names(tracer: Tracer) -> list[tuple[object, str]]:
    return [(owner, attr) for owner, attr, _ in tracer._patches]


def leftover_wrappers() -> list[str]:
    """Names in permlab modules or classes that still hold a wrapper."""
    found = []
    for mod in _permlab_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, "__perfbench_original__"):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for meth, fn in vars(val).items():
                    if hasattr(fn, "__perfbench_original__"):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found

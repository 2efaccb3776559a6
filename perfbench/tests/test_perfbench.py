"""Checks of the benchmark itself: seeded specs, metric names, oracles that
reject wrong answers, and a tracer that leaves permlab as it found it.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import jobkinds
import run
import tracer
import workloads
from speed import SpeedProbe

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _first(workload, kind, seed=0, **spec_changes):
    job = next(j for j in workloads.generate(workload, seed) if j["kind"] == kind)
    job = copy.deepcopy(job)
    job["spec"].update(spec_changes)
    return job


def _smallest_kernel(workload, seed=0):
    kernels = [j for j in workloads.generate(workload, seed) if j["kind"] == "kernel"]
    return min(kernels, key=lambda j: j["spec"]["grid"]["n"])


def _output(job, workdir):
    call, refresh = jobkinds.prepare(job, str(workdir))
    refresh()
    return call()


def _ok(job, output):
    return jobkinds.check(job["kind"], job["spec"], output)[0]


# -- seeded specs ---------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_specs(workload):
    first = workloads.dumps(workloads.generate(workload, 11))
    assert first == workloads.dumps(workloads.generate(workload, 11))
    assert first != workloads.dumps(workloads.generate(workload, 12))


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_specs_parse_and_p90_has_ten_jobs_beyond_it(workload):
    jobs = workloads.generate(workload, 5)
    for job in jobs:
        jobkinds.parse(job["kind"], job["spec"])
    # a single pass already gives job_s.p90 ten samples beyond it
    assert len(jobs) >= 100


def test_atoms_sit_on_grid_points():
    from permlab.kernel_algebra import GridSpec
    for job in workloads.generate("levy-quad", 3):
        if job["kind"] != "kernel":
            continue
        grid = job["spec"]["grid"]
        pts = set(GridSpec(grid["d"], grid["theta"], grid["n"], grid["q"],
                           grid["direction"]).points().tolist())
        for border in ("f", "g"):
            assert all(loc in pts for loc, _ in job["spec"][border]["atoms"])


# -- metric names ---------------------------------------------------------------

def test_every_end_to_end_metric_is_present():
    passes = [[{"s": 0.01 * (i + 1), "ok": True, "err": 1e-12, "detail": "ok"}
               for i in range(100)]] * 2
    metrics = run.select(run.end_to_end(passes, 0.5), BENCH["end_to_end"])
    assert list(metrics) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())
    assert {m["name"] for m in BENCH["end_to_end"]} >= {
        "setup_s", "wall_s", "job_s.p50", "job_s.p90", "peak_rss_mb",
        "pass_ratio", "accuracy_digits.min"}


def _traced_values(jobs, tmp_path):
    prepared = [run.Job(job, str(tmp_path)) for job in jobs]
    passes, values, _ = run.run_traced(prepared, SpeedProbe())
    assert all(r["ok"] for results in passes for r in results)
    return run.select(values, BENCH["per_layer"])


def test_every_layer_metric_is_present_and_split_by_workload(tmp_path):
    levy = _traced_values([_first("levy-quad", "pot-sigma2-0"),
                           _smallest_kernel("levy-quad")], tmp_path)
    grid = _traced_values([_smallest_kernel("grid-algebra")], tmp_path)
    mc = _traced_values([_first("monte-carlo", "laplace", paths=2000),
                         _first("monte-carlo", "partial-sim", paths=500)], tmp_path)
    for values in (levy, grid, mc):
        assert list(values) == [m["name"] for m in BENCH["per_layer"]]
    for name in ("exponents.calls", "quadrature.evals", "quadrature.scipy_quad_calls"):
        assert levy[name]["value"] > 0
        assert grid[name]["value"] == 0 and mc[name]["value"] == 0
    assert grid["linalg.flops_computed"]["value"] > 0
    assert mc["sampling.paths"]["value"] > 0 and mc["rebirth.sim.paths"]["value"] > 0
    assert levy["sampling.paths"]["value"] == 0 and grid["sampling.paths"]["value"] == 0
    assert 0.0 <= levy["potentials.cache_hit_ratio"]["value"] <= 1.0
    assert "trace.overhead_s" in levy


# -- oracles --------------------------------------------------------------------

def _perturbed_csv(output, column, factor):
    lines = output["stdout"].strip().splitlines()
    cells = lines[1].split(",")
    cells[column] = repr(jobkinds._num(cells[column]) * factor)
    lines[1] = ",".join(cells)
    return {**output, "stdout": "\n".join(lines) + "\n"}


def test_potential_oracles_reject_perturbed_values(tmp_path):
    # purely quadratic exponent: checked against the exp_decay closed form
    job = _first("levy-quad", "pot-u")
    job["spec"]["psi"] = {"kind": "gaussian_plus", "C": 0.5, "atoms": []}
    out = _output(job, tmp_path)
    assert _ok(job, out)
    assert not _ok(job, _perturbed_csv(out, 2, 1.0 + 1e-5))
    # any exponent: the reported bound must stay inside the budget
    job = _first("levy-quad", "pot-sigma2-b")
    job["spec"]["psi"] = {"kind": "mixture", "atoms": [[1.3, 0.5], [1.7, 1.0]]}
    out = _output(job, tmp_path)
    assert _ok(job, out)
    assert not _ok(job, _perturbed_csv(out, 3, 1e4))
    assert not _ok(job, {**out, "exit": 2})


def test_stable_sigma2_closed_form_matches_regular_variation_constant():
    from permlab.potentials import regular_variation_constant
    for r in (1.2, 1.5, 1.9):
        assert jobkinds.stable_sigma2(r, 1.0) == pytest.approx(
            regular_variation_constant(r), rel=1e-14)


def test_kernel_oracle_rejects_perturbed_identities(tmp_path, monkeypatch):
    job = _smallest_kernel("grid-algebra")
    out = _output(job, tmp_path)
    assert _ok(job, out)
    rep = json.loads(out["stdout"])
    for key, bad in (("det_ratio", 1e-9), ("nu", 1.0 - 1e-9), ("m", rep["m"] + 1),
                     ("mmatrix_ok", False)):
        wrong = {**rep, key: bad}
        assert not _ok(job, {**out, "stdout": json.dumps(wrong)})
    # rho and block identities come from the library's decomposition of the
    # same input, which the oracle caches per spec
    lib = jobkinds.library_identities(job["spec"])
    assert lib["nu"] == rep["nu"] and lib["det"] == rep["det_ratio"]
    assert jobkinds.check(job["kind"], job["spec"], out)[1] == max(
        lib["det"], lib["rho"], lib["block"])
    key_spec = json.dumps(job["spec"], sort_keys=True)
    for key in ("rho", "block"):
        monkeypatch.setitem(jobkinds._LIBRARY_IDENTITIES, key_spec, {**lib, key: 1e-9})
        assert not _ok(job, out)


def test_grid_and_rebirth_oracles_reject_perturbed_values(tmp_path):
    good = {"nu": 1.2, "det": 1e-14, "rho": 1e-15, "block": 1e-13, "mmatrix": True}
    job = _first("grid-algebra", "grid-200")
    assert _ok(job, good)
    assert jobkinds.check(job["kind"], job["spec"], good)[1] == 1e-13
    for key, bad in (("det", 1e-9), ("rho", 1e-9), ("block", 1e-9), ("nu", 0.9),
                     ("mmatrix", False)):
        assert not _ok(job, {**good, key: bad})

    job = _first("grid-algebra", "rebirth-400", states=30)
    out = _output(job, tmp_path)
    assert _ok(job, out)
    bent = out["u_ext"].copy()
    bent[3, 5] *= 1.0 + 1e-9
    assert not _ok(job, {**out, "u_ext": bent})
    assert not _ok(job, {**out, "ok": False})


def test_lil_oracle_rejects_perturbed_rows(tmp_path):
    job = copy.deepcopy(next(j for j in workloads.generate("monte-carlo", 0)
                             if j["kind"] == "lil" and "f" in j["spec"]))
    job["spec"]["paths"] = 300
    out = _output(job, tmp_path)
    assert _ok(job, out)
    lines = out["stdout"].strip().splitlines()
    for column, bad in ((3, "1.5"), (5, "0.9"), (1, "999")):
        cells = lines[2].split(",")
        cells[column] = bad
        wrong = lines[:2] + [",".join(cells)] + lines[3:]
        assert not _ok(job, {**out, "stdout": "\n".join(wrong)})


def test_simulation_oracles_reject_perturbed_values(tmp_path):
    job = _first("monte-carlo", "rebirth-sim", paths=4000)
    out = _output(job, tmp_path)
    assert _ok(job, out)
    lines = out["stdout"].strip().splitlines()
    _, mean, se, want = lines[1].split(",")
    lines[1] = ",".join(["0", repr(float(want) + 5 * float(se)), se, want])
    assert not _ok(job, {**out, "stdout": "\n".join(lines)})

    job = _first("monte-carlo", "partial-sim", paths=2000)
    out = _output(job, tmp_path)
    assert _ok(job, out)
    bent = out["occupation_error"].copy()
    bent[7] = 1e-11 * max(1.0, out["elapsed"][7])
    assert not _ok(job, {**out, "occupation_error": bent})

    job = next(j for j in workloads.generate("monte-carlo", 0)
               if j["kind"] == "full-sim" and j["spec"]["z_test"])
    job = copy.deepcopy(job)
    job["spec"]["paths"] = 20000
    out = _output(job, tmp_path)
    assert _ok(job, out)
    assert not _ok(job, {**out, "occupation_error": out["occupation_error"] + 1e-11
                         * np.maximum(1.0, out["elapsed"])})
    assert not _ok(job, {**out, "w": out["w"] * (1.0 + 1e-9)})
    lt = out["local_times"]
    shift = 5 * lt.std(axis=0, ddof=1) / np.sqrt(lt.shape[0])
    assert not _ok(job, {**out, "local_times": lt + shift})

    job = _first("monte-carlo", "check-ek", paths=20000)
    out = _output(job, tmp_path)
    assert _ok(job, out)
    rep = json.loads(out["stdout"])
    assert not _ok(job, {**out, "stdout": json.dumps({**rep, "z": 4.5})})


def test_laplace_oracle_rejects_perturbed_values():
    job = _first("monte-carlo", "laplace")
    good = {"emp": 0.5, "analytic": jobkinds.laplace_analytic(job["spec"]), "z": 0.3}
    assert _ok(job, good)
    assert not _ok(job, {**good, "analytic": good["analytic"] * (1.0 + 1e-9)})
    assert not _ok(job, {**good, "z": -4.5})


def test_refusals_are_told_from_wrong_answers():
    from permlab.quadrature import QuadratureError
    assert jobkinds.declined(QuadratureError("no", 1.0, 1.0), None)
    assert jobkinds.declined(ValueError("not excessive"), None)
    assert not jobkinds.declined(TypeError("broken"), None)
    assert jobkinds.declined(None, {"exit": 2, "stdout": "", "stderr": "error: bad grid\n"})
    assert not jobkinds.declined(None, {"exit": 2, "stdout": "",
                                        "stderr": "usage: permlab\npermlab: error: x\n"})
    assert not jobkinds.declined(None, {"exit": 0, "stdout": "1", "stderr": ""})


@pytest.mark.parametrize("workload", ["levy-quad", "grid-algebra"])
def test_edge_jobs_are_the_same_for_every_seed(workload):
    edges = {"levy-quad": workloads._LEVY_EDGE_JOBS,
             "grid-algebra": workloads._GRID_EDGE_JOBS}[workload]
    for seed in (1, 2):
        specs = [j["spec"] for j in workloads.generate(workload, seed)]
        assert all(edge["spec"] in specs for edge in edges)


# -- tracing --------------------------------------------------------------------

def _snapshot():
    import permlab
    from permlab import exponents, excessive, potentials, quadrature
    return {
        ("quadrature", "cosine_halfline"): quadrature.cosine_halfline,
        ("potentials", "cosine_halfline"): potentials.cosine_halfline,
        ("quadrature", "quad"): quadrature.quad,
        ("excessive", "quad"): excessive.quad,
        ("CharExponent", "__call__"): exponents.CharExponent.__dict__["__call__"],
        ("permlab", "assemble_kernel"): permlab.assemble_kernel,
    }


def test_tracer_restores_every_patched_name():
    before = _snapshot()
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tr:
            patched = tracer.patched_names(tr)
            assert len(patched) > len(tracer._FUNCS)
            during = _snapshot()
            assert all(during[key] is not before[key] for key in before)
            originals = {(owner, attr): getattr(owner, attr).__perfbench_original__
                         for owner, attr in patched}
            raise RuntimeError("leave the block by an exception")
    assert _snapshot() == before
    assert all(owner.__dict__[attr] is originals[(owner, attr)]
               for owner, attr in patched)
    assert tracer.leftover_wrappers() == []
    assert tracer.patched_names(tr) == []


def test_traced_outputs_equal_untraced_outputs(tmp_path):
    job = run.Job(_smallest_kernel("levy-quad"), str(tmp_path))
    assert job.run()["ok"]
    tr = tracer.Tracer()
    with tr:
        res = job.run(tracer=tr)
    assert res["ok"] and res["detail"] == "ok"   # same digest as untraced
    assert len(tr.span_t0) > 0


# -- the contract ---------------------------------------------------------------

def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

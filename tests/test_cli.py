import json
import math

import pytest

from permlab import (GridSpec, LevyPotential, exponent_from_spec,
                     regular_variation_constant)
from permlab.cli import build_parser, main


@pytest.fixture
def brownian_psi(tmp_path):
    path = tmp_path / "brownian.json"
    path.write_text(json.dumps({"kind": "gaussian_plus", "C": 0.5, "atoms": []}))
    return str(path)


def test_potential_eval_quadratic(brownian_psi, tmp_path, capsys):
    out = tmp_path / "u.csv"
    rc = main(["potential", "eval", "--psi", brownian_psi, "--beta", "0.5",
               "--kind", "u", "--x", "1", "--out", str(out)])
    assert rc == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "x,y,value,err_bound"
    x, y, value, err_bound = row.split(",")
    assert y == ""                       # u takes no second point
    assert float(x) == 1.0
    assert float(value) == pytest.approx(0.3678794, rel=1e-6)
    assert 0.0 <= float(err_bound) < 1e-8


def test_potential_eval_deterministic(brownian_psi, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["potential", "eval", "--psi", brownian_psi, "--beta", "0.5",
            "--kind", "sigma2", "--x", "0.5", "0.1"]
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def _stable_u0(index, x, y):
    c = regular_variation_constant(index)
    return 0.5 * c * (x ** (index - 1) + y ** (index - 1) - abs(x - y) ** (index - 1))


@pytest.mark.parametrize("kind, beta, psi, x, y, exact", [
    ("u0", "0", {"kind": "stable", "index": 1.5}, 0.3, 0.8,
     _stable_u0(1.5, 0.3, 0.8)),
    ("vbeta", "0.5", {"kind": "gaussian_plus", "C": 0.5, "atoms": []}, 1.0, 2.0,
     math.exp(-1.0) * -math.expm1(-2.0)),
])
def test_potential_eval_two_point_bound_covers_the_closed_form(
        tmp_path, kind, beta, psi, x, y, exact):
    spec, out = tmp_path / "psi.json", tmp_path / "out.csv"
    spec.write_text(json.dumps(psi))
    rc = main(["potential", "eval", "--psi", str(spec), "--beta", beta,
               "--kind", kind, "--x", str(x), "--y", str(y), "--out", str(out)])
    assert rc == 0
    _, _, value, err_bound = out.read_text().strip().splitlines()[1].split(",")
    assert 0.0 < float(err_bound) < 1e-8
    assert abs(float(value) - exact) <= float(err_bound)


def test_potential_eval_family(tmp_path):
    spec = tmp_path / "scale.json"
    spec.write_text(json.dumps({"family": "scale",
                                "s": {"kind": "affine", "a": 1.0, "b": 0.0}}))
    out = tmp_path / "scale.csv"
    rc = main(["potential", "eval", "--family", "scale", "--spec", str(spec),
               "--x", "1.0", "--y", "2.0", "--out", str(out)])
    assert rc == 0
    row = out.read_text().strip().splitlines()[1]
    assert float(row.split(",")[2]) == pytest.approx(2.0)


@pytest.mark.parametrize("family, beta, bound", [
    ("levy", 1.0, lambda pot, x, y: pot.u_with_error(x - y)),
    ("levy_hit_zero", None, lambda pot, x, y: pot.u0_with_error(x, y)),
    ("levy_v", 1.0, lambda pot, x, y: pot.v_with_error(x, y)),
])
def test_potential_eval_levy_family_reports_its_bounds(tmp_path, family, beta,
                                                       bound):
    psi = {"kind": "mixture", "atoms": [[1.3, 0.8], [1.8, 0.6]]}
    doc = {"family": family, "psi": psi}
    if beta is not None:
        doc["beta"] = beta
    spec, out = tmp_path / "levy.json", tmp_path / "levy.csv"
    spec.write_text(json.dumps(doc))
    rc = main(["potential", "eval", "--family", family, "--spec", str(spec),
               "--x", "0.3", "1.2", "--y", "0.8", "--out", str(out)])
    assert rc == 0
    pot = LevyPotential(exponent_from_spec(psi), beta=beta or 0.0)
    for row, x in zip(out.read_text().strip().splitlines()[1:], (0.3, 1.2)):
        value, err = (float(v) for v in row.split(",")[2:])
        assert (value, err) == bound(pot, x, 0.8)
        assert 0.0 < err < 1e-8


def test_kernel_analyze(tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"family": "exp_decay", "beta": 0.5, "C": 0.5}))
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"kind": "atoms", "atoms": [[1.0, 1.0]]}))
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"kind": "const", "c": 1.0}))
    out = tmp_path / "report.json"
    rc = main(["kernel", "analyze", "--base", str(base), "--f", str(f),
               "--g", str(g), "--grid", "1.0,0.7,20,0.7", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["mmatrix_ok"] is True
    assert report["nu"] >= 1.0 - 1e-12
    assert report["det_ratio"] <= 1e-10
    assert report["m"] == 13


def _kernel_argv(tmp_path, docs):
    """kernel analyze, with each document written to its own file."""
    argv = ["kernel", "analyze"]
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{name}", str(path)]
    return argv


def test_kernel_analyze_accepts_the_zero_pair(tmp_path, capsys):
    # f = g = 0 is the symmetric kernel: nu = 1 and a zero border
    zero = {"kind": "const", "c": 0.0}
    argv = _kernel_argv(tmp_path, {"base": EXP_DECAY, "f": zero, "g": zero})
    assert main(argv + ["--grid", "1.0,0.7,20,0.7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nu"] == 1.0
    assert report["rho"] == 0.0


def _negative_d_argv(tmp_path):
    pts = GridSpec(d=-1.0, theta=0.7, n=20, q=0.7).points()
    return _kernel_argv(tmp_path, {
        "base": {"family": "exp_decay", "beta": 0.5, "C": 0.5},
        "f": {"kind": "atoms", "atoms": [[float(pts[0]), 1.0]]},
        "g": {"kind": "atoms", "atoms": [[float(pts[-1]), 1.0]]}})


def test_kernel_analyze_takes_a_negative_d_after_an_equals_sign(tmp_path,
                                                                capsys):
    argv = _negative_d_argv(tmp_path)
    assert main(argv + ["--grid=-1.0,0.7,20,0.7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["m"] == 13 and report["mmatrix_ok"] is True


def test_kernel_analyze_takes_a_negative_d_after_a_space(tmp_path, capsys):
    # argparse before Python 3.13 reads "-1.0,..." as an option; main joins it
    argv = _negative_d_argv(tmp_path)
    assert main(argv + ["--grid=-1.0,0.7,20,0.7"]) == 0
    joined = capsys.readouterr().out
    assert main(argv + ["--grid", "-1.0,0.7,20,0.7"]) == 0
    assert capsys.readouterr().out == joined
    assert main(argv + ["--grid", "-.5,0.7,20,0.7"]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 13


def test_lil_run(tmp_path):
    cfg = {
        "base": {"family": "exp_decay", "beta": 0.5, "C": 0.5},
        "schedule": [10, 14],
        "grid": {"d": 0.0, "theta": 0.3, "q": 0.5},
        "k": 1,
        "paths": 500,
        "seed": 7,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.csv"
    rc = main(["lil", "run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,m_n,epsilon,freq_lower,freq_upper,nu,paths"
    assert len(lines) == 1 + 2 * 3
    rc2 = main(["lil", "run", "--config", str(cfg_path), "--out",
                str(tmp_path / "again.csv")])
    assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()


def test_lil_run_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"paths": 10, "seed": 1, "mystery": 2}))
    with pytest.raises(SystemExit) as err:
        main(["lil", "run", "--config", str(cfg_path)])
    assert err.value.code == 2


@pytest.fixture
def model_path(tmp_path):
    model = {
        "states": [0, 1],
        "m": [1.0, 1.0],
        "generator": [[-1.0, 0.3], [0.3, -0.8]],
        "mu": [0.5, 0.0],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    return str(path)


def test_rebirth_sim(model_path, tmp_path):
    out = tmp_path / "lt.csv"
    rc = main(["rebirth", "sim", "--model", model_path, "--paths", "20000",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "state,mean_local_time,std_error,expected"
    assert len(lines) == 4
    for line in lines[1:]:
        _, mean, se, want = line.split(",")
        assert abs(float(mean) - float(want)) <= 5 * float(se)


def test_rebirth_check_ek(model_path, tmp_path):
    out = tmp_path / "ek.json"
    rc = main(["rebirth", "check-ek", "--model", model_path, "--y", "0",
               "--paths", "20000", "--seed", "5", "--out", str(out)])
    report = json.loads(out.read_text())
    assert rc == 0
    assert abs(report["z"]) <= 4.0


def test_malformed_spec_exits_with_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "stable", "index": 1.5, "junk": 1}))
    with pytest.raises(SystemExit) as err:
        main(["potential", "eval", "--psi", str(bad), "--beta", "1.0",
              "--x", "1"])
    assert err.value.code == 2


STABLE = {"kind": "stable", "index": 1.5}
EXP_DECAY = {"family": "exp_decay"}
CONST = {"kind": "const", "c": 1.0}


def _kernel_docs(base, f=CONST):
    return {"base": base, "f": f, "g": CONST}


@pytest.mark.parametrize("docs, field", [
    (_kernel_docs({"family": "levy", "beta": 0.5}), "psi"),
    (_kernel_docs({"family": "levy", "psi": STABLE}), "beta"),
    (_kernel_docs({"family": "pq", "p": {"kind": "const", "value": 1.0},
                   "beta": 0.5}), "q"),
    (_kernel_docs(EXP_DECAY, {"kind": "atoms"}), "atoms"),
    (_kernel_docs(EXP_DECAY, {"kind": "indicator", "a": 0}), "b"),
    (_kernel_docs({"family": "scale", "s": {"kind": "affine"}}), "a"),
    (_kernel_docs({"family": "levy", "psi": {"kind": "stable"}, "beta": 0.5}),
     "index"),
    ({"config": {"base": EXP_DECAY, "schedule": [10], "paths": 10, "seed": 1}},
     "grid"),
])
def test_missing_spec_field_exits_with_usage_error(tmp_path, capsys, docs,
                                                   field):
    assert repr(field) in _usage_error(tmp_path, capsys, docs)


def _usage_error(tmp_path, capsys, docs, argv=None):
    """Write the documents, run the command they feed, expect exit 2."""
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    if argv is not None:
        argv = [paths.get(a, a) for a in argv]
    elif "config" in paths:
        argv = ["lil", "run", "--config", paths["config"]]
    elif "model" in paths:
        argv = ["rebirth", "sim", "--model", paths["model"], "--paths", "10",
                "--seed", "1"]
    else:
        argv = ["kernel", "analyze", "--base", paths["base"], "--f", paths["f"],
                "--g", paths["g"], "--grid", "1.0,0.7,20,0.7"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error: ")
    assert message.count("\n") == 1
    return message


MODEL = {"states": [0, 1], "m": [1.0, 1.0],
         "generator": [[-1.0, 0.3], [0.3, -0.8]], "mu": [0.5, 0.0]}
SCALE = {"family": "scale", "s": {"kind": "affine", "a": 1.0}}
LIL = {"base": EXP_DECAY, "schedule": [10], "grid": {
    "d": 0.0, "theta": 0.3, "q": 0.5}, "k": 1, "paths": 10, "seed": 1}


@pytest.mark.parametrize("docs, field", [
    (_kernel_docs({"family": "exp_decay", "beta": [1]}), "beta"),
    (_kernel_docs({"family": "exp_decay", "beta": 10 ** 400}), "beta"),
    (_kernel_docs({"family": "stable_hit_zero", "rho": None}), "rho"),
    (_kernel_docs({"family": "levy", "psi": {"kind": "stable", "index": {}},
                   "beta": 0.5}), "index"),
    (_kernel_docs({"family": "scale", "s": {"kind": "affine", "a": [1]}}), "a"),
    (_kernel_docs({"family": "scale", "s": {"kind": "sum", "terms": 3}}),
     "terms"),
    (_kernel_docs(EXP_DECAY, {"kind": "const", "c": "a"}), "c"),
    (_kernel_docs(EXP_DECAY, {"kind": "const", "c": [1]}), "c"),
    (_kernel_docs(EXP_DECAY, {"kind": "indicator", "a": None, "b": 1}), "a"),
    (_kernel_docs(EXP_DECAY, {"kind": "atoms", "atoms": [1]}), "atoms"),
    (_kernel_docs({"family": ["exp_decay"]}), "family"),
    (_kernel_docs({"family": "pq", "p": {"kind": "const", "value": 1.0},
                   "q": {"kind": "const", "value": 1.0}, "beta": 0.5,
                   "interval": 3}), "interval"),
    ({"model": {**MODEL, "generator": {"a": 1}}}, "generator"),
    ({"model": {**MODEL, "mu": 0.5}}, "mu"),
    ({"model": {**MODEL, "m": [1.0, 10 ** 400]}}, "m"),
    ({"model": [MODEL]}, "model spec"),
    ({"config": {"base": EXP_DECAY, "schedule": 10, "grid": {
        "d": 0.0, "theta": 0.3, "q": 0.5}, "paths": 10, "seed": 1}}, "schedule"),
    ({"config": {"base": EXP_DECAY, "schedule": [10], "grid": [0.0, 0.3, 0.5],
                 "paths": 10, "seed": 1}}, "grid"),
    ({"config": {"base": EXP_DECAY, "schedule": [10], "grid": {
        "d": 0.0, "theta": 0.3, "q": 0.5}, "paths": None, "seed": 1}}, "paths"),
    ({"model": {**MODEL, "generator": [["-1", 0.3], [0.3, -0.8]]}},
     "generator"),
    ({"model": {**MODEL, "generator": [[-1.0, 0.3], [0.3, True]]}},
     "generator"),
    ({"model": {**MODEL, "m": [True, 1.0]}}, "m"),
    ({"model": {**MODEL, "mu": ["0.5", 0.0]}}, "mu"),
    # numbers outside their range; states of the wrong type or length
    (_kernel_docs({"family": "exp_decay", "beta": 0}), "beta"),
    (_kernel_docs({"family": "exp_decay", "beta": -1}), "beta"),
    (_kernel_docs({"family": "exp_decay", "C": 0}), "C"),
    ({"model": {**MODEL, "states": 7}}, "states"),
    ({"model": {**MODEL, "states": [0, 1, 2]}}, "states"),
])
def test_wrong_typed_spec_field_exits_with_usage_error(tmp_path, capsys, docs,
                                                       field):
    message = _usage_error(tmp_path, capsys, docs)
    assert (repr(field) if field != "model spec" else field) in message


@pytest.mark.parametrize("argv", [
    ["rebirth", "sim", "--model", "model", "--paths", "10", "--seed", "1",
     "--start", "5"],
    ["rebirth", "sim", "--model", "model", "--paths", "10", "--seed", "1",
     "--start", "-1"],
    ["rebirth", "sim", "--model", "model", "--paths", "0", "--seed", "1"],
    ["rebirth", "sim", "--model", "model", "--paths", "1", "--seed", "1"],
    ["rebirth", "check-ek", "--model", "model", "--paths", "10", "--seed", "1",
     "--y", "5"],
    ["rebirth", "check-ek", "--model", "model", "--paths", "10", "--seed", "1",
     "--y", "-1"],
    ["rebirth", "check-ek", "--model", "model", "--paths", "1", "--seed", "1"],
    ["potential", "eval", "--family", "exp_decay", "--x", "0.1"],
    ["potential", "eval", "--x", "0.1"],
    ["potential", "eval", "--psi", "psi", "--kind", "u0", "--x", "0.1"],
    ["potential", "eval", "--psi", "psi", "--kind", "vbeta", "--x", "0.1"],
    ["potential", "eval", "--psi", "psi", "--kind", "u0", "--x", "0.1", "0.2",
     "--y", "0.1", "0.2", "0.3"],
    ["lil", "run", "--config", "k0"],
    ["lil", "run", "--config", "paths0"],
    ["kernel", "analyze", "--base", "base", "--f", "f", "--g", "g",
     "--grid", "nan,0.3,20,0.5"],
    ["kernel", "analyze", "--base", "base", "--f", "f", "--g", "g",
     "--grid", "inf,0.3,20,0.5"],
    ["kernel", "analyze", "--base", "base", "--f", "f", "--g", "g",
     "--grid=-inf,0.3,20,0.5"],
    # flags that the chosen route would otherwise ignore
    ["potential", "eval", "--psi", "psi", "--family", "exp_decay",
     "--spec", "base", "--x", "0.1"],
    ["potential", "eval", "--family", "exp_decay", "--spec", "base",
     "--kind", "u", "--x", "0.1"],
    ["potential", "eval", "--family", "exp_decay", "--spec", "base",
     "--beta", "0.5", "--x", "0.1"],
    ["potential", "eval", "--family", "pq", "--spec", "base", "--x", "0.1"],
    ["potential", "eval", "--psi", "psi", "--beta", "1", "--spec", "base",
     "--x", "0.1"],
    ["potential", "eval", "--psi", "psi", "--beta", "1", "--x", "0.1",
     "--y", "0.2"],
    ["potential", "eval", "--psi", "psi", "--beta", "1", "--kind", "u",
     "--x", "0.1", "--y", "0.2"],
    ["potential", "eval", "--psi", "psi", "--kind", "sigma2", "--x", "0.1",
     "--y", "0.2"],
    # non-finite points and killing rates, on both routes
    ["potential", "eval", "--psi", "psi", "--beta", "inf", "--x", "0.1"],
    ["potential", "eval", "--psi", "psi", "--beta", "nan", "--x", "0.1"],
    ["potential", "eval", "--psi", "psi", "--beta", "1", "--x", "nan"],
    ["potential", "eval", "--psi", "psi", "--kind", "sigma2", "--x", "inf"],
    ["potential", "eval", "--psi", "psi", "--kind", "u0", "--x", "0.1",
     "--y", "nan"],
    ["potential", "eval", "--family", "exp_decay", "--spec", "base",
     "--x", "nan"],
    ["potential", "eval", "--family", "exp_decay", "--spec", "base",
     "--x", "0.1", "--y", "inf"],
    # seeds outside Philox's 64-bit key
    ["rebirth", "sim", "--model", "model", "--paths", "10", "--seed", "-1"],
    ["rebirth", "sim", "--model", "model", "--paths", "10",
     "--seed", "18446744073709551616"],
    ["rebirth", "check-ek", "--model", "model", "--paths", "10",
     "--seed", "-1"],
    # its chi-square draws take seed + 1 and seed + 2
    ["rebirth", "check-ek", "--model", "model", "--paths", "10",
     "--seed", "18446744073709551615"],
    ["lil", "run", "--config", "seed_neg"],
    # Laplace arguments of the isomorphism check
    ["rebirth", "check-ek", "--model", "model", "--paths", "10", "--seed", "1",
     "--s", "nan"],
    ["rebirth", "check-ek", "--model", "model", "--paths", "10", "--seed", "1",
     "--s", "inf"],
    ["rebirth", "check-ek", "--model", "model", "--paths", "10", "--seed", "1",
     "--s", "-5"],
    # below about 1e-19 the Levy head misses its budget: a QuadratureError
    ["potential", "eval", "--psi", "psi", "--beta", "1", "--kind", "u",
     "--x", "1e-20"],
])
def test_out_of_range_arguments_exit_with_usage_error(tmp_path, capsys, argv):
    _usage_error(tmp_path, capsys, {"model": MODEL, "psi": STABLE,
                                    "k0": {**LIL, "k": 0},
                                    "paths0": {**LIL, "paths": 0},
                                    "seed_neg": {**LIL, "seed": -3},
                                    "base": EXP_DECAY, "f": CONST, "g": CONST},
                 argv)


def test_rebirth_sim_accepts_the_return_point_as_start(model_path, capsys):
    assert main(["rebirth", "sim", "--model", model_path, "--paths", "200",
                 "--seed", "1", "--start", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("return_point,")


def test_verify_core_suite_exits_zero(capsys):
    rc = main(["verify", "--suite", "core"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 10


def test_tol_scale_flag_is_a_usage_error(brownian_psi, capsys):
    # the flag changed nothing outside potential eval --psi, so it is gone
    flag = ["--tol-scale", "100"]
    argv = ["potential", "eval", "--psi", brownian_psi, "--beta", "0.5",
            "--kind", "u", "--x", "1"]
    for full, says in ((flag + argv, "invalid choice: '100'"),
                       (argv + flag, "unrecognized arguments: --tol-scale")):
        with pytest.raises(SystemExit) as err:
            main(full)
        assert err.value.code == 2
        assert says in capsys.readouterr().err
    assert "--tol-scale" not in build_parser().format_help()


def test_lil_run_with_border_functions(tmp_path):
    cfg = {
        "base": {"family": "scale", "s": {"kind": "affine", "a": 1.0, "b": 0.0}},
        "schedule": [20],
        "grid": {"d": 1.0, "theta": 0.85, "q": 0.95, "direction": -1},
        "k": 1,
        "paths": 300,
        "seed": 5,
        "f": {"kind": "scale_concave", "p": 3.0, "x0": 1.0},
        "g": {"kind": "scale_concave", "p": 4.0, "x0": 1.0},
    }
    cfg_path = tmp_path / "flat.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "flat.csv"
    rc = main(["lil", "run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    nu = float(lines[1].split(",")[5])
    assert nu >= 1.0 and nu - 1.0 < 0.01


def test_rebirth_sim_rejects_a_chain_that_never_dies(tmp_path, capsys):
    # checked before simulating: the paths would never reach the return point
    conservative = {**MODEL, "generator": [[-0.5, 0.5], [0.5, -0.5]]}
    message = _usage_error(tmp_path, capsys, {"model": conservative})
    assert "conservative" in message


def test_rebirth_sim_refuses_a_run_beyond_the_round_cap(tmp_path, capsys,
                                                        monkeypatch):
    # about 1.5e9 jumps per path: refused from the extension, before any
    # simulation round runs
    from permlab import rebirth

    def no_simulation(*args, **kwargs):
        raise AssertionError("the simulation started")

    monkeypatch.setattr(rebirth, "_jump_chain", no_simulation)
    slow = {**MODEL, "generator": [[-0.5, 0.5], [0.5, -0.500000001]]}
    message = _usage_error(tmp_path, capsys, {"model": slow})
    assert "jumps on average" in message and "200000-round cap" in message


@pytest.mark.parametrize("command", ["sim", "check-ek"])
def test_rebirth_reports_the_round_cap_as_an_error(tmp_path, capsys,
                                                   monkeypatch, command):
    # two jumps per path on average, within the pre-check of rebirth sim,
    # but the rounds run until the last of 200 paths dies, and about one
    # path in 32 makes more than 5 jumps
    from permlab import cli, rebirth
    monkeypatch.setattr(rebirth, "_ROUND_CAP", 5)
    monkeypatch.setattr(cli, "_ROUND_CAP", 5)
    model = {**MODEL, "generator": [[-1.0, 0.5], [0.5, -1.0]], "mu": [0.0, 0.0]}
    message = _usage_error(tmp_path, capsys, {"model": model}, [
        "rebirth", command, "--model", "model", "--paths", "200", "--seed", "1"])
    assert "did not terminate within 5 rounds" in message


@pytest.mark.parametrize("border", ["f", "g"])
def test_lil_run_with_one_border_is_a_usage_error(tmp_path, capsys, border,
                                                  monkeypatch):
    # with g = 0 the kernel u + g f is u whatever f is, so a lone border
    # is most likely a typo; it is refused before any path is drawn, and
    # every draw starts from a philox generator
    from permlab import sampling

    def no_sampling(*args):
        raise AssertionError("sampling started")

    monkeypatch.setattr(sampling, "philox", no_sampling)
    message = _usage_error(tmp_path, capsys, {"config": {**LIL, border: CONST}})
    assert "both border functions" in message


X = {"kind": "affine", "a": 1.0, "b": 0.0}
VPQ = {"family": "vpq", "p": {"kind": "exp", "arg": X},
       "q": {"kind": "exp", "arg": {"kind": "affine", "a": -1.0, "b": 0.0}},
       "beta": 0.5}


@pytest.mark.parametrize("base, d", [
    ({"family": "stable_hit_zero", "rho": 0.5}, -1.0),
    ({"family": "stable_hit_zero", "rho": 0.5}, 0.0),
    (VPQ, 0.0),
])
def test_lil_run_refuses_a_grid_outside_the_base_domain(tmp_path, capsys,
                                                        base, d):
    # the harness applies assemble_kernel's domain rule with or without f
    # and g; it once printed a table at d = -1 and failed in Cholesky at d = 0
    config = {**LIL, "base": base, "grid": {**LIL["grid"], "d": d}}
    message = _usage_error(tmp_path, capsys, {"config": config})
    assert "grid touches the forbidden origin of this base" in message


def test_main_keeps_no_state_between_calls(brownian_psi, capsys):
    from permlab import cli
    u = ["potential", "eval", "--psi", brownian_psi, "--beta", "0.5",
         "--x", "1"]
    assert main(u) == 0
    first = capsys.readouterr().out
    assert main(u + ["--kind", "sigma2"]) == 0
    other = capsys.readouterr().out
    for bad in (["potential", "eval", "--x", "1"], ["no-such-command"]):
        with pytest.raises(SystemExit) as err:
            main(bad)
        assert err.value.code == 2
    capsys.readouterr()
    assert main(u) == 0
    assert capsys.readouterr().out == first != other
    assert cli._parser() is cli._parser()

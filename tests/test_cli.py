import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavemix.cli as cli
import wavemix.toys as toys
from wavemix import nlw, stats
from wavemix.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_PASS,
    SCHEMA,
    ConfigError,
    RunConfig,
    _bool,
    _floats,
    parse_config,
    main,
)

ROOT = Path(__file__).resolve().parents[1]


def test_defaults_are_valid():
    cfg = parse_config()
    assert cfg["model"]["kind"] == "nlw"
    assert cfg["noise"]["eps"] == 1.0


def test_manifest_roundtrip(tmp_path):
    cfg = parse_config(overrides=["model.modes=24", "experiment.n_traj=77",
                                  "experiment.distances=0.1 0.05"])
    text = cfg.emit()
    path = tmp_path / "m.ini"
    path.write_text(text)
    cfg2 = parse_config(str(path))
    assert cfg2.values == cfg.values
    assert cfg2.content_hash() == cfg.content_hash()


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\nknid = nlw\n")
    with pytest.raises(ConfigError):
        parse_config(str(path))
    with pytest.raises(ConfigError):
        parse_config(overrides=["model.bogus=1"])


def test_rho_rejection():
    with pytest.raises(ConfigError) as e:
        parse_config(overrides=["model.rho=2.5"])
    assert "rho" in str(e.value)


@pytest.mark.parametrize("override, name", [("model.modes=0", "mode_count"),
                                             ("model.length=0", "lengths")])
def test_bad_basis_rejected(override, name, capsys):
    assert main(["simulate", "--set", override]) == EXIT_CONFIG
    assert name in capsys.readouterr().err


def test_slow_noise_decay_rejected():
    with pytest.raises(ConfigError):
        parse_config(overrides=["noise.decay_q=1.0"])


def test_dt_rule_rejected():
    with pytest.raises(ConfigError):
        parse_config(overrides=["integrator.dt=1.0", "model.modes=64"])


def test_cli_config_error_exit():
    assert main(["simulate", "--set", "model.rho=2.5"]) == EXIT_CONFIG


@pytest.mark.parametrize("command", [["simulate"], ["pressure", "--model", "ou"]])
@pytest.mark.parametrize("override", ["integrator.stride=0", "integrator.stride=-1",
                                      "integrator.horizon=-1"])
def test_bad_integrator_rejected(command, override, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(command + ["--set", override, "--out", str(out)]) == EXIT_CONFIG
    assert override.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, override", [
    (["pressure", "--model", "ou"], "experiment.n_traj=0"),
    (["pressure", "--model", "ou"], "integrator.toy_dt=0"),
    (["boundary-chain", "--model", "doublewell"], "experiment.replicas=0"),
    (["girsanov-tv"], "experiment.n_feedback=-1"),
    (["couple-fp"], "experiment.n_feedback=33"),  # M = 32
    # no feedback leaves no measure change to fit a scaling exponent to
    (["girsanov-tv"], "experiment.n_feedback=0"),
    # a penalty weight, a noise level and an OU drift and diffusion, each > 0
    (["quasipotential", "--model", "cubic"], "experiment.eta=0"),
    (["simulate", "--model", "cubic"], "model.toy_eps=-1"),
    (["simulate", "--model", "ou"], "model.theta=-1"),
    (["simulate", "--model", "ou"], "model.sigma=-1"),
    # 0 picks the default step and no cutoff; a negative value is no sentinel
    (["simulate"], "integrator.dt=-1"),
    (["simulate"], "noise.cutoff=-3"),
    # a replica that runs no step records no transition
    (["boundary-chain", "--model", "doublewell"], "experiment.rep_horizon=0"),
    (["boundary-chain", "--model", "doublewell"], "experiment.rep_horizon=-5"),
])
def test_bad_counts_and_steps_rejected(command, override, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(command + ["--set", override, "--out", str(out)]) == EXIT_CONFIG
    assert override.split("=")[0] in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


@pytest.mark.parametrize("command, override", [
    (["ldp1", "--model", "ou"], "experiment.interval=0.5"),
    (["ldp1", "--model", "ou"], "experiment.interval=0.6,0.4"),
    (["boundary-chain", "--model", "doublewell"], "experiment.radii=0.3"),
    (["boundary-chain", "--model", "doublewell"], "experiment.radii=0.45,0.3"),
    (["boundary-chain", "--model", "doublewell"], "experiment.eps_list="),
    (["girsanov-tv"], "experiment.distances=0.04"),
    (["ldp1", "--model", "chain2"], "experiment.horizons=8"),
    (["stationary-smallnoise", "--model", "cubic"], "experiment.sets="),
    (["pressure", "--model", "ou"], "experiment.betas="),
    # values each run needs: a beta besides the pinned 0, positive noise
    # levels, distances and horizons, and sets with lo < hi
    (["pressure", "--model", "ou"], "experiment.betas=0"),
    (["boundary-chain", "--model", "doublewell"], "experiment.eps_list=-0.1"),
    (["stationary-smallnoise", "--model", "cubic"], "experiment.sets=3.1,2.9"),
    (["girsanov-tv"], "experiment.distances=0,0.01"),
    (["ldp1", "--model", "ou"], "experiment.horizons=0,8"),
    # a repeated beta leaves no slope to transform, a repeated distance no
    # scaling to fit
    (["pressure", "--model", "chain2"], "experiment.betas=-0.5,0,0"),
    (["pressure", "--model", "chain2"], "experiment.betas=0.5,0.5"),
    (["girsanov-tv"], "experiment.distances=0.02,0.02"),
    # two radii, and the double well's stable nodes 0 and 2 leave rho0 below 1
    (["boundary-chain", "--model", "doublewell"], "experiment.radii=0.15,0.2,0.3,0.45,0.6"),
    (["boundary-chain", "--model", "doublewell"], "experiment.radii=0.5,1"),
    # the boundary chain runs at one noise level, the ladder at two horizons
    (["boundary-chain", "--model", "doublewell"], "experiment.eps_list=0.1,0.2"),
    (["ldp1", "--model", "chain2"], "experiment.horizons="),
])
def test_bad_list_values_rejected(command, override, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(command + ["--set", override, "--out", str(out)]) == EXIT_CONFIG
    assert override.split("=")[0] in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


# the model kinds each subcommand runs; selftest reads no model
_RUNS = {"simulate": "nlw cubic doublewell ou", "energy-audit": "nlw",
         "couple-fp": "nlw", "girsanov-tv": "nlw", "mix": "nlw",
         "occupation": "nlw cubic doublewell ou", "pressure": "ou chain2",
         "ldp1": "ou chain2", "quasipotential": "nlw cubic doublewell",
         "fw-graph": "cubic doublewell", "stationary-smallnoise": "cubic doublewell",
         "boundary-chain": "cubic doublewell"}


@pytest.mark.parametrize("command, kind", [
    (c, k) for c, runs in _RUNS.items()
    for k in ("nlw", "cubic", "doublewell", "ou", "chain2") if k not in runs.split()])
def test_unsupported_model_kind_rejected(command, kind, tmp_path, capsys):
    out = tmp_path / "run"
    assert main([command, "--model", kind, "--out", str(out)]) == EXIT_CONFIG
    assert command in capsys.readouterr().err
    assert not out.exists()


def test_percent_values_never_crash(tmp_path):
    # not a model kind: rejected before any run instead of failing inside it
    with pytest.raises(ConfigError, match="model.kind"):
        parse_config(overrides=["model.kind=50%"])
    assert main(["fw-graph", "--out", str(tmp_path / "fw"),
                 "--set", "model.kind=50%"]) == EXIT_CONFIG
    # an accepted '%' is written and read back verbatim, in [run] too
    cfg = parse_config(overrides=["model.kind=cubic", "model.nonlinearity=50%"])
    path = tmp_path / "m.ini"
    path.write_text(cfg.emit().replace("[run]\n", "[run]\nout = runs/50%(x)s\n"))
    cfg2 = parse_config(str(path))
    assert cfg2.values == cfg.values and cfg2.emit() == cfg.emit()
    assert cfg2.out == "runs/50%(x)s"


def test_usage_errors_exit_config(capsys):
    assert main(["mix", "--kappa", "1"]) == EXIT_CONFIG       # removed flag
    assert main(["mix", "--seed"]) == EXIT_CONFIG             # missing value
    assert main(["no-such-command"]) == EXIT_CONFIG
    assert main(["--help"]) == EXIT_PASS
    assert main(["mix", "--help"]) == EXIT_PASS
    assert "usage" in capsys.readouterr().out


def test_consecutive_calls_do_not_share_arguments(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "dispatch",
                        lambda cfg, command: seen.append((cfg, cfg.threads)) or 0)
    assert main(["simulate", "--set", "model.modes=12", "--set", "noise.eps=0.5",
                 "--horizon", "3", "--threads", "2"]) == EXIT_PASS
    assert main(["simulate"]) == EXIT_PASS
    (first, t1), (second, t2) = seen
    assert (first["model"]["modes"], first["noise"]["eps"], t1) == (12, 0.5, 2)
    assert first["integrator"]["horizon"] == 3.0
    assert second.values == parse_config().values and t2 == 1


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_a_config_error(threads, monkeypatch, capsys):
    monkeypatch.setattr(cli, "dispatch", lambda cfg, command: pytest.fail("dispatched"))
    assert main(["mix", "--threads", threads]) == EXIT_CONFIG
    assert "--threads" in capsys.readouterr().err


_HEAVY = ("concurrent.futures", "logging", "networkx", "numpy.ma", "scipy", "scipy.linalg",
          "scipy.optimize", "scipy.sparse", "scipy.stats")


def test_import_leaves_heavy_libraries_unloaded(tmp_path):
    # each case is a fresh process: the import and fw-graph's W-graph weights
    # (no graph library), then one tiny run; a module absent from the list is
    # not loaded, and without "scipy" no scipy module is
    code = ("import sys, numpy as np, wavemix.cli; from wavemix import rates; "
            "V = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], float); "
            "rates.w_graph_weights(rates.EquilibriumNetwork('x', [0, 1, 2], "
            "np.ones(3, bool), V)); "
            "code = wavemix.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            f"print(code, sorted(m for m in {_HEAVY!r} if m in sys.modules))")

    def run(*argv):
        args = [*argv, "--out", str(tmp_path / argv[0])] if argv else []
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        exit_code, loaded = proc.stdout.strip().splitlines()[-1].split(" ", 1)
        return int(exit_code), loaded

    assert run() == (0, "[]")
    tiny = ("--set", "experiment.n_traj=4", "--set", "integrator.horizon=0.25")
    for cmd in ("mix", "girsanov-tv", "energy-audit", "simulate", "couple-fp"):
        assert run(cmd, *tiny)[1] == "[]", cmd
    for argv in (("pressure", "--set", "model.kind=ou", "--set", "experiment.n_traj=100",
                  "--set", "integrator.horizon=1", "--set", "integrator.toy_dt=0.01"),
                 ("boundary-chain", "--set", "model.kind=doublewell",
                  "--set", "experiment.eps_list=0.15", "--set", "experiment.rep_horizon=2",
                  "--set", "integrator.toy_dt=0.002"),
                 ("fw-graph", "--set", "model.kind=cubic"),
                 # the toy quasipotential solves by banded Newton without SciPy
                 ("quasipotential", "--set", "model.kind=cubic"),
                 ("fw-graph", "--set", "model.kind=cubic",
                  "--set", "experiment.use_solver=true"),
                 # chain irreducibility by breadth-first search, the rate
                 # oracle at the drift's roots
                 ("pressure", "--set", "model.kind=chain2"),
                 ("selftest",),
                 # the wave quasipotential solves by block-banded Newton
                 ("quasipotential", "--set", "model.modes=4")):
        assert run(*argv)[1] == "[]", argv


def test_start_states_of_neighbouring_seeds_share_nothing():
    # start state k of a run has its own spawned stream: seed s + 1 does not
    # start from the second state of seed s, nor repeat any of its draws
    starts = []
    for seed in (41, 42):
        cfg = parse_config(seed=seed)
        sim = cli._wave(cfg)[3]
        starts += [cli._start(cfg, sim, k).as_array() for k in (1, 2)]
    values = np.concatenate([s.ravel() for s in starts])
    assert np.unique(values).size == values.size


def test_ldp1_horizons_of_neighbouring_seeds_share_nothing(tmp_path, monkeypatch):
    # horizon k of an ldp1 run has its own spawned stream: seed s + 1 does not
    # redraw the paths of seed s's second horizon (equal horizons, so a shared
    # stream would give equal time averages)
    real = cli.erg.ldp_level1_check
    for model in ("ou", "chain2"):
        avgs = {}
        for seed in (7, 8):
            def record(horizons, averages, *args, seed=seed):
                avgs[seed] = averages
                return real(horizons, averages, *args)
            monkeypatch.setattr(cli.erg, "ldp_level1_check", record)
            main(["ldp1", "--model", model, "--n-traj", "200", "--horizons", "8,8",
                  "--seed", str(seed), "--out", str(tmp_path / f"{model}{seed}")])
        assert np.intersect1d(avgs[8][0], avgs[7][1]).size == 0, model


def test_package_import_pins_blas_threads():
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = f"import os, wavemix; print([os.environ[v] for v in {blas!r}])"
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = str(ROOT / "src")
    for preset, want in (({}, "['1', '1', '1']"),
                         ({"OPENBLAS_NUM_THREADS": "2"}, "['2', '1', '1']")):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**env, **preset}, check=True)
        assert proc.stdout.strip() == want


def test_selftest_passes(tmp_path, capsys):
    code = main(["selftest", "--out", str(tmp_path / "st")])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "ok" in out
    verdict = json.loads((tmp_path / "st" / "verdict.json").read_text())
    assert verdict["status"] == "pass"


def test_fw_graph_cubic(tmp_path):
    out = tmp_path / "fw"
    code = main(["fw-graph", "--model", "cubic", "--out", str(out), "--seed", "3"])
    assert code == EXIT_PASS
    payload = json.loads((out / "network.json").read_text())
    assert payload["rate"]["0.0"] == pytest.approx(4.5, rel=1e-6)
    assert payload["rate"]["3.0"] == pytest.approx(0.0, abs=1e-9)
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["status"] == "pass"
    assert "tolerances" in verdict


@pytest.mark.parametrize("model", ["cubic", "doublewell"])
def test_fw_graph_judges_every_node(tmp_path, model):
    # each node's rate against the gradient closed form, by the oracle
    # network and by the collocation solver
    for solver, tol in (("0", 1e-9), ("1", 0.07)):
        out = tmp_path / solver
        assert main(["fw-graph", "--model", model, "--use-solver", solver,
                     "--out", str(out)]) == EXIT_PASS
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["tolerances"] == {"rel_error_max": tol}
        rate, oracle = verdict["metrics"]["rate"], verdict["metrics"]["oracle"]
        assert len(rate) == 3 and rate.keys() == oracle.keys()
        for node, value in rate.items():
            assert abs(value - oracle[node]) <= tol * max(oracle[node], 1.0), node


def test_repeat_run_identical_artifact_hash(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["quasipotential", "--model", "cubic", "--out", str(out),
                     "--seed", "5", "--from-point", "0", "--to-point", "3"])
        assert code == EXIT_PASS
        outs.append(json.loads((out / "verdict.json").read_text()))
    assert outs[0]["artifact_hash"] == outs[1]["artifact_hash"]
    assert outs[0]["config_hash"] == outs[1]["config_hash"]


def test_earlier_run_files_stay_out_of_the_verdict(tmp_path):
    # a second subcommand into the same --out hashes only what it wrote
    fw = ["fw-graph", "--model", "cubic", "--seed", "3"]
    assert main(["pressure", "--model", "chain2", "--out", str(tmp_path / "shared"),
                 "--betas=-1,1"]) == EXIT_PASS
    verdicts = []
    for name in ("shared", "fresh"):
        assert main(fw + ["--out", str(tmp_path / name)]) == EXIT_PASS
        verdicts.append(json.loads((tmp_path / name / "verdict.json").read_text()))
    shared, fresh = verdicts
    assert fresh["artifacts"] == ["network.json"]
    assert shared["artifacts"] == fresh["artifacts"]
    assert shared["artifact_hash"] == fresh["artifact_hash"]


def test_reported_metric_moves_the_hash(tmp_path, monkeypatch):
    # the wave quasipotential writes no result file; its hash still pins
    # the values the verdict reports
    real = cli.rates.nlw_quasipotential

    def edited(*args, **kwargs):
        res = real(*args, **kwargs)
        res.grad_norm += 1.0
        return res

    verdicts = []
    for name in ("plain", "edited"):
        if name == "edited":
            monkeypatch.setattr(cli.rates, "nlw_quasipotential", edited)
        out = tmp_path / name
        main(["quasipotential", "--set", "model.modes=2", "--out", str(out)])
        verdicts.append(json.loads((out / "verdict.json").read_text()))
    plain, changed = verdicts
    assert plain["artifacts"] == changed["artifacts"] == []
    assert (tmp_path / "plain" / "manifest.ini").read_bytes() == \
        (tmp_path / "edited" / "manifest.ini").read_bytes()
    assert changed["metrics"]["grad_norm"] == plain["metrics"]["grad_norm"] + 1.0
    assert plain["status"] == changed["status"]
    assert plain["artifact_hash"] != changed["artifact_hash"]


def test_default_model_kind_yields_to_a_set_one(tmp_path):
    assert parse_config(command="ldp1")["model"]["kind"] == "chain2"
    assert parse_config(command="fw-graph")["model"]["kind"] == "cubic"
    assert parse_config(command="selftest")["model"]["kind"] == "nlw"
    assert parse_config()["model"]["kind"] == "nlw"
    path = tmp_path / "c.ini"
    path.write_text("[model]\nkind = ou\n")
    assert parse_config(str(path), command="ldp1")["model"]["kind"] == "ou"
    assert parse_config(overrides=["model.kind=doublewell"],
                        command="fw-graph")["model"]["kind"] == "doublewell"
    assert main(["fw-graph", "--model", "nlw", "--out", str(tmp_path / "o")]) == EXIT_CONFIG


# caps that keep every subcommand small at its default model
_TINY = ("--set", "model.modes=4", "--n-feedback", "2", "--horizon", "0.5",
         "--n-traj", "4", "--horizons", "1,2", "--replicas", "4", "--rep-horizon", "2")


def test_every_subcommand_runs_its_default_model(tmp_path):
    # without --model each subcommand takes the first kind it runs, and no
    # two subcommands share an artifact hash
    hashes = {}
    for command in cli.COMMANDS:
        out = tmp_path / command
        assert main([command, "--out", str(out), *_TINY]) in (0, 1, 2), command
        hashes[command] = json.loads((out / "verdict.json").read_text())["artifact_hash"]
    assert len(set(hashes.values())) == len(hashes), hashes


@pytest.mark.parametrize("command, kind", [
    (c, k) for c, (_, kinds) in cli.COMMANDS.items() for k in kinds or ()])
def test_every_subcommand_runs_each_of_its_models(command, kind, tmp_path):
    out = tmp_path / "o"
    assert main([command, "--model", kind, "--out", str(out), *_TINY]) in (0, 1, 2)
    assert (out / "verdict.json").exists()
    assert_numeric_csvs(out)


@pytest.mark.parametrize("command, key, default, reads", [
    ("mix", "radii", [0.31, 0.45], False), ("simulate", "state_scale", 0.5, True)])
def test_artifact_hash_moves_only_with_what_the_run_reads(command, key, default, reads,
                                                          tmp_path, monkeypatch):
    # manifest.ini is not hashed: a default the run never reads moves only
    # its config_hash, and one it reads moves what it writes
    verdicts = []
    for name in ("plain", "patched"):
        if name == "patched":
            kind, _, rule = SCHEMA["experiment"][key]
            monkeypatch.setitem(SCHEMA["experiment"], key, (kind, default, rule))
        out = tmp_path / name
        assert main([command, "--out", str(out), *_TINY]) in (0, 1, 2)
        verdicts.append(json.loads((out / "verdict.json").read_text()))
    plain, patched = verdicts
    assert patched["config_hash"] != plain["config_hash"]
    assert (patched["artifact_hash"] != plain["artifact_hash"]) is reads


@pytest.mark.parametrize("args, listed", [((), False), (("--noise-eps", "0"), True)])
def test_energy_audit_lists_the_rate_limit_only_where_it_judges(args, listed, tmp_path):
    # a noisy run passes on a finite fit; only a noiseless one is held to 0.9 alpha
    out = tmp_path / "o"
    assert main(["energy-audit", *args, "--out", str(out), *_TINY]) in (0, 1)
    tolerances = json.loads((out / "verdict.json").read_text())["tolerances"]
    assert ("min_decay_rate" in tolerances) is listed


@pytest.mark.parametrize("command, paths", [("simulate", 1), ("energy-audit", 3), ("mix", 3)])
def test_wave_paths_draw_one_increment_per_linear_step(command, paths, tmp_path,
                                                       monkeypatch):
    # a path draws one (2, M) increment per step and one more per recorded
    # step after t = 0: every wave run merges the half-steps between records
    streams = []
    real = nlw.trajectory_streams

    class Counted:
        def __init__(self, gen):
            self.gen, self.drawn = gen, 0
            streams.append(self)

        def standard_normal(self, *, out):
            self.drawn += out.size
            return self.gen.standard_normal(out=out)

    monkeypatch.setattr(nlw, "trajectory_streams",
                        lambda *a, **kw: [Counted(g) for g in real(*a, **kw)])
    overrides = ["model.modes=4", "integrator.horizon=3", "experiment.n_traj=3"]
    sim = cli._wave(parse_config(None, overrides))[3]
    n_rec = len(stats.record_steps(sim.n_steps, sim.stride))
    assert sim.n_steps == 24 and n_rec == 4
    main([command, "--out", str(tmp_path / "o"),
          *[a for item in overrides for a in ("--set", item)]])
    assert len(streams) == paths
    assert [c.drawn for c in streams] == [(sim.n_steps + n_rec - 1) * 2 * 4] * paths


def test_simulate_nlw_writes_trajectory(tmp_path):
    out = tmp_path / "sim"
    code = main(["simulate", "--out", str(out), "--seed", "2",
                 "--set", "model.modes=12", "--horizon", "1.0"])
    assert code == EXIT_PASS
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,E,normH,normHs,mode_1")
    assert len(lines) > 3
    assert (out / "manifest.ini").exists()


def test_pressure_chain2(tmp_path):
    out = tmp_path / "pc"
    code = main(["pressure", "--model", "chain2", "--out", str(out),
                 "--betas=-1,-0.5,0.5,1"])
    assert code == EXIT_PASS
    lines = (out / "pressure.csv").read_text().splitlines()
    assert lines[0] == "beta,Q,stderr"
    assert (out / "rate.csv").read_text().splitlines()[0] == "p,I"


def test_pressure_beta_streams_distinct(tmp_path, monkeypatch):
    # seed + int(1e3|beta|) + (0 if beta > 0 else 7) gave 0.257 and -0.25 one path
    calls = []
    real = toys.simulate_toy

    def recording(*args, **kwargs):
        calls.append((args[4], kwargs.get("stream", ())))
        return real(*args, **kwargs)

    monkeypatch.setattr(toys, "simulate_toy", recording)
    main(["pressure", "--model", "ou", "--out", str(tmp_path / "p"), "--seed", "4",
          "--betas=-1,-0.25,0.257,0.5,1", "--n-traj", "20", "--horizon", "0.5"])
    assert len(calls) == 5
    assert len(set(calls)) == 5


def test_quasipotential_nlw_reports_grad_norm(tmp_path):
    out = tmp_path / "qp"
    main(["quasipotential", "--out", str(out), "--set", "model.modes=2",
          "--to-point", "0.3"])
    metrics = json.loads((out / "verdict.json").read_text())["metrics"]
    assert metrics["grad_norm"] >= 0.0


def test_quasipotential_nlw_judges_the_linear_oracle(tmp_path, monkeypatch):
    # at f = 0 the verdict carries the closed form and fails off it
    args = ["quasipotential", "--set", "model.modes=8", "--set", "model.nonlinearity=zero"]
    verdicts = []
    for name in ("plain", "shifted"):
        if name == "shifted":
            real = cli.rates.linear_wave_oracle
            monkeypatch.setattr(cli.rates, "linear_wave_oracle",
                                lambda *a: real(*a) * (1 + 2e-3))
        code = main(args + ["--out", str(tmp_path / name)])
        verdicts.append((code, json.loads((tmp_path / name / "verdict.json").read_text())))
    (code, plain), (shifted_code, shifted) = verdicts
    assert code == EXIT_PASS and plain["status"] == "pass"
    assert plain["tolerances"] == {"eta": 0.05, "rel_error_max": 1e-3}
    metrics = plain["metrics"]
    assert metrics["rel_error"] <= 1e-3
    assert metrics["rel_error"] == abs(metrics["value"] - metrics["oracle"]) / metrics["oracle"]
    assert shifted_code == EXIT_FAIL and shifted["status"] == "fail"
    # a nonlinear run has no closed form to report
    main(["quasipotential", "--set", "model.modes=2", "--out", str(tmp_path / "kg")])
    kg = json.loads((tmp_path / "kg" / "verdict.json").read_text())
    assert "oracle" not in kg["metrics"] and "rel_error_max" not in kg["tolerances"]


def test_quasipotential_nlw_feels_the_forcing(tmp_path):
    values = []
    for h in ("0", "0.5"):
        out = tmp_path / h
        main(["quasipotential", "--out", str(out), "--set", "model.modes=4",
              "--set", f"model.h_amplitude={h}"])
        values.append(json.loads((out / "verdict.json").read_text())["metrics"]["value"])
    assert values[0] != values[1]


def test_ldp1_reports_the_min_hits_it_judged_by(tmp_path, monkeypatch):
    import wavemix.ergodic as erg
    args = ["ldp1", "--model", "chain2", "--n-traj", "400"]
    verdicts = []
    for name, min_hits in (("plain", erg.LDP1_MIN_HITS), ("patched", 401)):
        monkeypatch.setattr(erg, "LDP1_MIN_HITS", min_hits)
        main(args + ["--out", str(tmp_path / name)])
        verdicts.append(json.loads((tmp_path / name / "verdict.json").read_text()))
    assert verdicts[0]["status"] != "inconclusive"
    assert verdicts[1]["status"] == "inconclusive"  # 400 paths give at most 400 hits
    assert [v["tolerances"]["min_hits"] for v in verdicts] == [50, 401]


def test_smallnoise_mc_reports_the_guards_it_judged_by(tmp_path, monkeypatch):
    import functools
    import wavemix.rates as rates
    # a 20-unit horizon keeps the two Monte Carlo runs short; at seed 12345
    # this window passes both guards and the intercept tolerance
    monkeypatch.setattr(rates, "smallnoise_stationary_probe",
                        functools.partial(rates.smallnoise_stationary_probe, horizon=20.0))
    args = ["stationary-smallnoise", "--model", "cubic", "--mc", "1",
            "--eps-list", "0.5,0.4", "--sets", "2.0,2.5"]
    verdicts = []
    for name, min_entries, agreement_max in (
            ("plain", rates.MC_MIN_ENTRIES, rates.MC_AGREEMENT_MAX),
            ("floor", 10 ** 6, rates.MC_AGREEMENT_MAX),
            ("agreement", rates.MC_MIN_ENTRIES, 0.0)):
        monkeypatch.setattr(rates, "MC_MIN_ENTRIES", min_entries)
        monkeypatch.setattr(rates, "MC_AGREEMENT_MAX", agreement_max)
        main(args + ["--out", str(tmp_path / name)])
        verdicts.append(json.loads((tmp_path / name / "verdict.json").read_text()))
    assert [v["status"] for v in verdicts] == ["pass", "inconclusive", "fail"]
    assert [(v["tolerances"]["mc_min_entries"], v["tolerances"]["mc_agreement_max"])
            for v in verdicts] == [(50, 0.5), (10 ** 6, 0.5), (50, 0.0)]


@pytest.mark.parametrize("n_feedback, runs", [(8, 4), (4, 3)])
def test_couple_fp_runs_each_feedback_dimension_once(tmp_path, monkeypatch,
                                                     n_feedback, runs):
    # the grid (2, 4, n_feedback, M) runs each distinct N once, and the series
    # comes from the grid's n_feedback run: the bytes of a separate run
    import wavemix.coupling as cpl
    calls = []
    real = cpl.couple_fp

    def counting(*args):
        calls.append(args[-1])
        return real(*args)
    monkeypatch.setattr(cpl, "couple_fp", counting)
    out = tmp_path / "run"
    override = f"experiment.n_feedback={n_feedback}"
    assert main(["couple-fp", "--set", override, "--out", str(out)]) == EXIT_PASS
    assert len(calls) == runs and len(set(calls)) == runs
    cfg = parse_config(overrides=[override])
    wave = basis, nl, noise, sim = cli._wave(cfg)
    z, zp = cli._start(cfg, sim, 1), cli._start(cfg, sim, 2)
    ref = cli._RunDir(tmp_path)
    cli._coupled_series(ref, "ref.csv", wave, z, zp, real(sim, nl, noise, z, zp, n_feedback))
    assert (out / "couple_fp.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("point", ["2", "1.7", "0.001"])
def test_quasipotential_needs_equilibrium_start(tmp_path, capsys, point):
    code = main(["quasipotential", "--model", "cubic", "--from-point", point,
                 "--to-point", "1.7", "--out", str(tmp_path / "qp")])
    assert code == EXIT_CONFIG
    assert "experiment.from_point" in capsys.readouterr().err


def test_boundary_chain_inconclusive_exit(tmp_path):
    out = tmp_path / "bc"
    code = main(["boundary-chain", "--model", "doublewell", "--out", str(out),
                 "--eps-list", "0.1", "--replicas", "4", "--rep-horizon", "5"])
    assert code == 2
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["status"] == "inconclusive"


def test_boundary_chain_judges_the_benchmark_leg(tmp_path):
    # the benchmark leg's config fills every cell and passes the gap judge
    out = tmp_path / "bc"
    code = main(["boundary-chain", "--model", "doublewell", "--out", str(out),
                 "--eps-list", "0.15", "--rep-horizon", "400",
                 "--set", "integrator.toy_dt=0.002"])
    verdict = json.loads((out / "verdict.json").read_text())
    assert code == EXIT_PASS and verdict["status"] == "pass"
    assert min(c for i, row in enumerate(verdict["metrics"]["counts"])
               for j, c in enumerate(row) if i != j) >= cli.rates.MIN_CELL


def test_boundary_chain_gap_above_the_limit_fails(tmp_path, monkeypatch):
    # full cells whose eps log P misses vtilde = 0.5 by 30% of it, above 0.25
    nodes = np.array([0.0, 2.0])
    vtilde = np.array([[0.0, 0.5], [0.5, 0.0]])
    report = cli.rates.BoundaryChainReport(
        nodes, np.full((2, 2), 100), np.full((2, 2), 0.5),
        np.array([[np.nan, -0.65], [-0.5, np.nan]]), vtilde, False)
    monkeypatch.setattr(cli.rates, "boundary_chain", lambda *a, **kw: report)
    out = tmp_path / "bc"
    assert main(["boundary-chain", "--model", "doublewell", "--out", str(out)]) == 1
    assert json.loads((out / "verdict.json").read_text())["status"] == "fail"


def test_boundary_chain_takes_two_radii(tmp_path):
    out = tmp_path / "bc"
    assert main(["boundary-chain", "--model", "doublewell", "--radii", "0.1,0.2",
                 "--out", str(out), "--replicas", "4", "--rep-horizon", "2"]) == 2
    assert "radii = 0.1 0.2" in (out / "manifest.ini").read_text()


def test_mix_undersampled_gap_is_inconclusive(tmp_path):
    # 16 steps recorded every 8th give 3 points of Delta(t), too few to fit
    out = tmp_path / "mix"
    code = main(["mix", "--set", "model.modes=16", "--horizon", "0.5",
                 "--n-traj", "4", "--out", str(out), "--seed", "1"])
    assert code == 2
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["status"] == "inconclusive"
    assert verdict["metrics"]["points_above_floor"] <= 3
    assert verdict["metrics"]["kappa"] == "nan"
    assert verdict["tolerances"]["min_points_above_floor"] == 5


@pytest.mark.parametrize("args", [
    ["energy-audit", "--set", "noise.eps=0", "--set", "model.modes=16",
     "--horizon", "10"],
    ["couple-fp", "--set", "model.modes=16", "--horizon", "4",
     "--n-feedback", "4"],
    ["mix", "--set", "model.modes=16", "--horizon", "8", "--n-traj", "150"],
    ["occupation", "--model", "ou", "--horizon", "20"],
    ["occupation", "--set", "model.modes=12", "--horizon", "2"],
    ["ldp1", "--model", "chain2", "--n-traj", "3000",
     "--horizons", "4,8,16", "--interval", "0.45,0.75"],
    ["stationary-smallnoise", "--model", "cubic",
     "--eps-list", "0.001", "--sets", "2.9,3.1"],
])
def test_subcommand_smoke(tmp_path, args):
    out = tmp_path / "o"
    code = main(args + ["--out", str(out), "--seed", "9"])
    assert code in (EXIT_PASS, 2)
    assert (out / "verdict.json").exists()
    assert (out / "manifest.ini").exists()
    assert_numeric_csvs(out)


def assert_numeric_csvs(out):
    """Every data cell of every CSV artifact parses as a float."""
    for path in out.glob("*.csv"):
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(","):
                float(cell)


def test_girsanov_tv_emits_couple_series(tmp_path):
    out = tmp_path / "gtv"
    code = main(["girsanov-tv", "--out", str(out), "--seed", "4",
                 "--set", "model.modes=16", "--horizon", "1",
                 "--n-traj", "80", "--n-feedback", "4",
                 "--distances", "0.04,0.02"])
    assert code == EXIT_PASS
    header = (out / "couple_series.csv").read_text().splitlines()[0]
    assert header == "t,diff_normH,lowmode_ratio,novikov_energy"
    assert_numeric_csvs(out)


# ---------------------------------------------------------------- config paths


_GRID = st.integers(-400, 400).map(lambda k: k / 8)
_GOOD = {
    float: _GRID.map(repr) | st.integers(-50, 50).map(str),
    int: st.integers(-2, 40).map(str),
    _floats: st.lists(_GRID, max_size=4).map(lambda v: ",".join(map(repr, v))),
    _bool: st.sampled_from(["1", "0", "true", "False", "yes", "no", "on", "OFF"]),
    str: st.sampled_from(["nlw", "cubic", "doublewell", "ou", "chain2", "klein_gordon",
                          "sine_gordon", "zero", "i-graph", "chain", "bogus"]),
}
_KEYS = [(s, k) for s, keys in SCHEMA.items() for k in keys]


def _outcome(path=None, overrides=None):
    try:
        cfg = parse_config(path, overrides)
    except ConfigError as e:
        return "error", str(e)
    return cfg.values, cfg.content_hash()


@st.composite
def _assignment(draw):
    section, key = draw(st.sampled_from(_KEYS))
    typ = SCHEMA[section][key][0]
    if typ is not str and draw(st.booleans()):
        return section, key, draw(st.sampled_from(["abc", "1.2.3", "0x", "--"])), True
    return section, key, draw(_GOOD[typ]), False


@settings(max_examples=60, deadline=None)
@given(_assignment())
def test_set_and_file_resolve_alike(tmp_path_factory, assignment):
    section, key, raw, bad = assignment
    path = tmp_path_factory.mktemp("cfg") / "c.ini"
    path.write_text(f"[{section}]\n{key} = {raw}\n")
    by_file = _outcome(str(path))
    assert _outcome(overrides=[f"{section}.{key}={raw}"]) == by_file
    if bad:
        assert by_file[0] == "error" and f"{section}.{key}" in by_file[1]


def _module_aliases(tree: ast.AST) -> dict[str, str]:
    """Names a file binds to ``wavemix`` modules, plus each module's own name."""
    aliases = {p.stem: p.stem for p in (ROOT / "src" / "wavemix").glob("*.py")}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "wavemix":
            for a in node.names:
                aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("wavemix.") and a.asname:
                    aliases[a.asname] = a.name.split(".", 1)[1]
    return aliases


def test_every_schema_key_and_public_function_is_used():
    cli_tree = ast.parse((ROOT / "src" / "wavemix" / "cli.py").read_text())
    read = {n.slice.value for n in ast.walk(cli_tree)
            if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant)}
    assert [k for _, k in _KEYS if k not in read] == []

    files = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    trees = {p: ast.parse(p.read_text()) for p in files}
    defs = [(p.stem, node) for p, tree in trees.items() if p.parent.name == "wavemix"
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    used = set()  # (module, name, line) of every reference
    for p, tree in trees.items():
        aliases = _module_aliases(tree)
        imported = {a.asname or a.name: (node.module.split(".")[1], a.name)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("wavemix.") for a in node.names}
        for n in ast.walk(tree):
            if not isinstance(getattr(n, "ctx", None), ast.Load):
                continue
            if isinstance(n, ast.Name):
                mod, name = imported.get(n.id, (p.stem, n.id))
                used.add((mod, name, n.lineno if mod == p.stem else 0))
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                    and n.value.id in aliases:
                used.add((aliases[n.value.id], n.attr, 0))
    unused = [f"{mod}.{fn.name}" for mod, fn in defs
              if not any(m == mod and name == fn.name
                         and not fn.lineno <= line <= fn.end_lineno
                         for m, name, line in used)]
    assert unused == []


def _definition_loads(tree: ast.AST) -> set[tuple[str, int]]:
    """(name, line) of every bare name a tree loads and every attribute it
    loads from a ``wavemix`` module: the ways to reach a module-level
    definition.  ``traj.energy`` does not reach ``spectral.energy``."""
    aliases = _module_aliases(tree)
    return {(n.id if isinstance(n, ast.Name) else n.attr, n.lineno)
            for n in ast.walk(tree) if isinstance(getattr(n, "ctx", None), ast.Load)
            and (isinstance(n, ast.Name) or isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id in aliases)}


def _attribute_loads(tree: ast.AST) -> set[tuple[str, int]]:
    """(name, line) of every attribute a tree loads: ``obj.name``, never a
    bare local of the same name."""
    return {(n.attr, n.lineno) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _parsed(*dirs: str) -> dict[Path, ast.AST]:
    return {p: ast.parse(p.read_text()) for d in dirs for p in sorted((ROOT / d).rglob("*.py"))}


def _read_outside(node, path: Path, loads: dict) -> bool:
    """True when a file of ``loads`` reads ``node``'s name outside its own body."""
    return any(name == node.name and not (q == path and node.lineno <= line <= node.end_lineno)
               for q, names in loads.items() for name, line in names)


def _gated(loads) -> set[str]:
    return {name for name, _ in
            loads(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))}


def test_public_definitions_have_a_caller():
    # a public definition is reached from the package itself or is checked by
    # an acceptance gate; anything else has no user path, exported or not
    src = _parsed("src")
    loads = {p: _definition_loads(tree) for p, tree in src.items()}
    gated = _gated(_definition_loads)
    uncalled = []
    for p, tree in src.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if not (_read_outside(node, p, loads) or node.name in gated):
                uncalled.append(f"{p.stem}.{node.name}")
    assert uncalled == []


# Public members and dataclass fields no run reads, kept because the tests use
# them as oracles or fixtures.
_ORACLES_AND_FIXTURES = {
    "OrnsteinUhlenbeck.stationary_var": "exact stationary variance of the OU ergodic tests",
    "OrnsteinUhlenbeck.clt_variance": "exact Green-Kubo variance of the OU CLT tests",
    "MaximalCoupling.sample": "the joint draw whose marginals and TV the coupling tests check",
    "Nonlinearity.polynomial": "the one non-dissipative nonlinearity the failing "
                               "check_dissipativity test can build",
    "EigenTriple.convergence": "the decay of the tilted semigroup to its rank-one "
                               "limit, which the eigentriple tests check",
    "DissipativityReport.c_lower": "the constant the energy lower-bound tests use",
    "DissipativityReport.c_balance": "a constant the Klein-Gordon certificate test pins",
    "DissipativityReport.c_gradient": "a constant the Klein-Gordon certificate test pins",
    "FlowResult.final_states": "the end states the batching and convergence tests compare",
    "EigenTriple.mu": "the left eigenvector the eigentriple tests check: <h, mu> = 1, "
                      "and mu is the stationary law at V = 0",
    "TVEstimate.ess": "a health signal of the likelihood-ratio TV estimate, for the "
                      "run telemetry to report",
    "TVEstimate.degenerate": "a health signal of the likelihood-ratio TV estimate, for "
                             "the run telemetry to report",
}


def test_public_members_have_a_caller():
    # a method or property is reached when the package loads it as an
    # attribute outside its own body, or an acceptance gate does
    src = _parsed("src")
    loads = {p: _attribute_loads(tree) for p, tree in src.items()}
    gated = _gated(_attribute_loads)
    unread = []
    for p, tree in src.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                member = f"{cls.name}.{node.name}"
                if not (_read_outside(node, p, loads) or node.name in gated
                        or member in _ORACLES_AND_FIXTURES):
                    unread.append(f"{p.stem}.{member}")
    assert unread == []


def _passes(call: ast.Call, callee: str, name: str, index: int | None) -> bool:
    """Whether ``call`` calls ``callee`` and sets its parameter ``name``, at
    positional ``index`` (None: keyword only) or through ``*``/``**``."""
    f = call.func
    if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) != callee:
        return False
    return (any(k.arg in (name, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or index is not None and len(call.args) > index)


def test_defaulted_parameters_are_passed():
    # a default that no call sets, other than the function's own recursion,
    # is a constant of the body
    calls = [(p, n) for p, tree in _parsed("src", "tests", "perfbench").items()
             for n in ast.walk(tree) if isinstance(n, ast.Call)]
    unset = []
    for p, tree in _parsed("src").items():
        # (def, its name, the name its callers call, leading parameters they skip)
        defs = [(n, n.name, n.name, 0) for n in tree.body if isinstance(n, ast.FunctionDef)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            defs += [(n, f"{cls.name}.{n.name}", cls.name if n.name == "__init__" else n.name,
                      0 if any(getattr(d, "id", None) == "staticmethod"
                               for d in n.decorator_list) else 1)
                     for n in cls.body if isinstance(n, ast.FunctionDef)]
        for fn, qualname, callee, skip in defs:
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
            params += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None]
            for name, index in params:
                if not any(_passes(c, callee, name, index) for q, c in calls
                           if not (q == p and fn.lineno <= c.lineno <= fn.end_lineno)):
                    unset.append(f"{p.stem}.{qualname}({name})")
    assert unset == []


def test_module_level_imports_are_used():
    # names in __all__ or on a "# noqa" line are re-exports, read elsewhere
    unused = []
    for path in sorted((ROOT / "src" / "wavemix").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__":
                continue
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                if name not in read and "# noqa" not in lines[a.lineno - 1]:
                    unused.append(f"{path.stem}: {name}")
    assert unused == []


def test_dataclass_fields_are_read():
    # a field is read when the package loads it as an attribute, or an
    # acceptance gate does; a bare local of the same name is not a read
    src = _parsed("src")
    loads = {p: _attribute_loads(tree) for p, tree in src.items()}
    gated = _gated(_attribute_loads)
    unread = []
    for p, tree in src.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or not any(
                    getattr(getattr(d, "func", d), "id", None) == "dataclass"
                    for d in cls.decorator_list):
                continue
            for node in cls.body:
                if not isinstance(node, ast.AnnAssign):
                    continue
                name = node.target.id
                member = f"{cls.name}.{name}"
                read = any(n == name and not (q == p and node.lineno <= line <= node.end_lineno)
                           for q, names in loads.items() for n, line in names)
                if not (read or name in gated or member in _ORACLES_AND_FIXTURES):
                    unread.append(f"{p.stem}.{member}")
    assert unread == []


def _own_scope(fn: ast.FunctionDef):
    """The nodes of a function's own scope: its body, with nested functions,
    lambdas and classes yielded but not entered."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_locals_are_read():
    # a local that nothing reads is work done for no one; an augmented
    # assignment reads its target, and "_" is the name for a value dropped
    unread = []
    for p, tree in _parsed("src").items():
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            read |= {n.target.id for n in ast.walk(fn)
                     if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
            scope = list(_own_scope(fn))
            outer = {name for n in scope if isinstance(n, (ast.Global, ast.Nonlocal))
                     for name in n.names}
            bound = {(n.id, n.lineno) for n in scope
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            bound |= {(n.name, n.lineno) for n in scope if isinstance(n, ast.FunctionDef)}
            unread += [f"{p.stem}.{fn.name}: {name} (line {line})" for name, line in bound
                       if name != "_" and name not in read | outer]
    assert unread == []


def test_streams_come_from_stats_generator():
    # every stream, the wave start states included, is stats.generator's Philox
    allowed = {("stats", "generator")}
    named = []
    for p, tree in _parsed("src").items():
        inside = {id(n) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  and (p.stem, fn.name) in allowed for n in ast.walk(fn)}
        for n in ast.walk(tree):
            name = getattr(n, "attr", getattr(n, "id", None))
            if isinstance(n, ast.alias):
                name = n.name.split(".")[-1]
            if name in ("Philox", "SeedSequence", "default_rng") and id(n) not in inside:
                named.append(f"{p.stem}:{n.lineno} {name}")
    assert named == []


def _benchmark_names() -> tuple[set[str], set[str], set[tuple[str, str]]]:
    """What ``perfbench/spans.py`` finds by name, read without importing it.

    Returns the span names it matches as strings (``parent`` comparisons and
    the keys of ``_special_posts``), the ``module.attr`` paths it reads from
    the loaded modules, and the ``(class path, attribute)`` pairs it patches.
    """
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    aliases: dict[str, str] = {}

    def path(node):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "mods" \
                and isinstance(node.slice, ast.Constant):
            return node.slice.value
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute) and node.attr != "__dict__":
            base = path(node.value)
            return base and f"{base}.{node.attr}"
        return None

    assigns = [n for n in ast.walk(tree) if isinstance(n, ast.Assign)]
    for _ in range(2):  # an alias may be built from another alias
        for node in assigns:
            targets, values = node.targets[0], node.value
            if isinstance(targets, ast.Tuple) and isinstance(values, ast.Tuple):
                pairs = zip(targets.elts, values.elts)
            else:
                pairs = [(targets, values)]
            for t, v in pairs:
                if isinstance(t, ast.Name) and path(v):
                    aliases[t.id] = path(v)

    keyed, paths, patched = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "parent":
            for c in node.comparators:
                keyed |= {e.value for e in getattr(c, "elts", [c])}
        elif isinstance(node, ast.FunctionDef) and node.name == "_special_posts":
            keyed |= {k.value for r in ast.walk(node)
                      if isinstance(r, ast.Return) and isinstance(r.value, ast.Dict)
                      for k in r.value.keys}
        elif isinstance(node, ast.Attribute) and path(node):
            paths.add(path(node))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_patch_attr":
            patched.add((path(node.args[0]), node.args[1].value))
        elif isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "__dict__" \
                and path(node.value.value):
            patched.add((path(node.value.value), node.slice.value))
    return keyed, paths, patched


def test_benchmark_names_resolve():
    # the benchmark counts path-steps by span name and patches hot methods by
    # attribute name: a rename in src/ must fail here, not only in perfbench
    import importlib
    import inspect

    def resolve(dotted: str):
        module, *attrs = dotted.split(".")
        obj = importlib.import_module(f"wavemix.{module}")
        for a in attrs:
            obj = getattr(obj, a)
        return obj

    keyed, paths, patched = _benchmark_names()
    assert {"nlw.make_kick_fn", "nlw.make_energy_fn", "nlw.trajectory_streams",
            "nlw.linear_ops", "coupling.couple_fp", "coupling.couple_fp_batch",
            "toys.simulate_toy", "rates.boundary_chain"} <= keyed
    assert "rates.minimize" in paths
    assert {("nlw.LinearOps", "__init__"), ("nlw.Nonlinearity", "f"),
            ("toys.GradientSDE", "drift"), ("toys.OrnsteinUhlenbeck", "drift"),
            ("observables.Observable", "__call__"),
            ("spectral.SpectralBasis", "eigenfunctions")} <= patched
    # a span exists only for a public function defined in its module
    for name in sorted(keyed):
        module, fn = name.split(".")
        obj = resolve(name)
        assert not fn.startswith("_") and inspect.isfunction(obj), name
        assert obj.__module__ == f"wavemix.{module}", name
    for name in sorted(paths):
        assert callable(resolve(name)), name
    for cls, attr in sorted(patched):
        assert attr in vars(resolve(cls)), f"{cls}.{attr}"

"""Command-line entry point: config parsing, dispatch, and artifact emission.

Every run resolves its configuration (file plus flag overrides) into a
manifest, executes one experiment, and writes CSV series plus a JSON verdict
carrying the measured values, the tolerances they were judged against, and a
content hash of the emitted artifacts.  The seed is the only entropy source.

Exit codes: 0 pass (and --help), 1 fail, 2 inconclusive (undersampled), 64
config or command-line usage error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from wavemix import coupling as cpl
from wavemix import ergodic as erg
from wavemix import newton
from wavemix import nlw
from wavemix import rates
from wavemix import stats
from wavemix import toys
from wavemix.observables import default_observables
from wavemix.spectral import (Field, PhaseState, SpectralBasis, phase_norm_sq_arr,
                              sobolev_phase_norm_sq_arr)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_CONFIG = 64


class ConfigError(Exception):
    pass


def _floats(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    return [float(x) for x in text.replace(",", " ").split()]


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _increasing(v: list[float]) -> bool:
    return all(a < b for a, b in zip(v, v[1:]))


def _distinct(v: list[float]) -> bool:
    return len(set(v)) == len(v)


_POSITIVE = (lambda v: v > 0, "> 0")
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")

# (type, default, rule) per key, where a rule is None or (test, words): a value
# that fails the test is a config error.  Unknown keys in a file are errors.
SCHEMA: dict[str, dict[str, tuple]] = {
    "model": {
        "kind": (str, "nlw", (lambda v: v in ("nlw", "cubic", "doublewell", "ou", "chain2"),
                              "one of nlw, cubic, doublewell, ou, chain2")),
        "length": (float, math.pi, None),
        "length2": (float, 0.0, None),
        "modes": (int, 32, None),
        "gamma": (float, 1.0, None),
        "nonlinearity": (str, "klein_gordon", None),
        "rho": (float, 1.0, None),
        "lam": (float, 0.0, None),
        "nu": (float, 0.01, None),
        "alpha": (float, 0.0, None),
        "h_amplitude": (float, 0.0, None),
        "theta": (float, 1.0, _POSITIVE),
        "sigma": (float, 1.0, _POSITIVE),
        "toy_eps": (float, 0.25, _POSITIVE),
    },
    "noise": {
        "amplitude": (float, 0.25, None),
        "decay_q": (float, 2.0, None),
        "cutoff": (int, 0, _NONNEGATIVE),
        "eps": (float, 1.0, None),
    },
    "integrator": {
        "dt": (float, 0.0, _NONNEGATIVE),
        "horizon": (float, 10.0, _POSITIVE),
        "stride": (int, 8, _POSITIVE),
        "toy_dt": (float, 1e-3, _POSITIVE),
        "allow_large_dt": (_bool, False, None),
    },
    "experiment": {
        "n_traj": (int, 400, _POSITIVE),
        "n_feedback": (int, 8, None),
        "distances": (_floats, [0.04, 0.02, 0.01],
                      (lambda v: len(v) >= 2 and min(v) > 0 and _distinct(v),
                       "at least two values, each > 0, none repeated")),
        "betas": (_floats, [-0.5, -0.25, 0.25, 0.5],
                  (lambda v: any(v) and _distinct(v),
                   "at least one value other than 0, none repeated")),
        "interval": (_floats, [0.4, 0.6],
                     (lambda v: len(v) == 2 and _increasing(v), "two values lo < hi")),
        "horizons": (_floats, [8.0, 16.0, 32.0], (lambda v: len(v) >= 2 and min(v) > 0,
                                                  "at least two values, each > 0")),
        "s_exponent": (float, 0.4, None),
        "eps_list": (_floats, [1e-3], (lambda v: len(v) >= 1 and min(v) > 0,
                                       "at least one value, each > 0")),
        "sets": (_floats, [2.9, 3.1],
                 (lambda v: len(v) >= 2 and len(v) % 2 == 0
                  and all(lo < hi for lo, hi in zip(v[::2], v[1::2])),
                  "lo/hi pairs with lo < hi, at least one")),
        "mc": (_bool, False, None),
        "from_point": (float, 0.0, None),
        "to_point": (float, 3.0, None),
        "radii": (_floats, [0.3, 0.45],
                  (lambda v: len(v) == 2 and _increasing([0.0, *v]),
                   "two values 0 < rho1 < rho0")),
        "use_solver": (_bool, False, None),
        "replicas": (int, 64, _POSITIVE),
        "rep_horizon": (float, 1500.0, _POSITIVE),
        "state_scale": (float, 0.4, None),
    },
}


class RunConfig:
    """Resolved configuration: schema values plus seed, output directory and
    thread count; of these three only the seed enters the manifest."""

    def __init__(self, values: dict[str, dict], seed: int, out: str):
        self.values = values
        self.seed = seed
        self.out = out
        self.threads = 1

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def emit(self) -> str:
        cp = configparser.ConfigParser(interpolation=None)
        cp["run"] = {"seed": str(self.seed)}
        for section in SCHEMA:
            cp[section] = {}
            for key in SCHEMA[section]:
                v = self.values[section][key]
                if isinstance(v, list):
                    cp[section][key] = " ".join(repr(x) for x in v)
                else:
                    cp[section][key] = repr(v) if isinstance(v, float) else str(v)
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def content_hash(self) -> str:
        return hashlib.sha256(self.emit().encode()).hexdigest()[:16]


def parse_config(path: str | None = None, overrides: list[str] | None = None,
                 seed: int = 12345, command: str | None = None) -> RunConfig:
    """Read the key-value config file and apply ``section.key=value`` overrides.

    Unknown sections or keys are configuration errors; there are no silent
    defaults for misspellings.  The output directory is ``out`` unless the
    file's ``[run]`` section names another.  ``model.kind`` defaults to the
    first kind ``command`` runs, else to ``nlw``.
    """
    out = "out"
    values = {s: {k: (v[1] if not isinstance(v[1], list) else list(v[1]))
                  for k, v in keys.items()}
              for s, keys in SCHEMA.items()}
    if command is not None and COMMANDS[command][1] is not None:
        values["model"]["kind"] = COMMANDS[command][1][0]
    if path is not None:
        cp = configparser.ConfigParser(interpolation=None)
        read = cp.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in cp.sections():
            if section == "run":
                if set(cp["run"]) - {"seed", "out"}:
                    raise ConfigError(f"unknown keys in [run]: "
                                      f"{sorted(set(cp['run']) - {'seed', 'out'})}")
                if "seed" in cp["run"]:
                    seed = int(cp["run"]["seed"])
                if "out" in cp["run"]:
                    out = cp["run"]["out"]
                continue
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in cp[section].items():
                _assign(values, section, key, raw)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item}")
        target, raw = item.split("=", 1)
        _assign(values, *target.split(".", 1), raw)
    cfg = RunConfig(values, seed, out)
    _validate(cfg)
    return cfg


def _assign(values: dict, section: str, key: str, raw: str) -> None:
    """Coerce ``raw`` to the schema type of ``section.key`` and store it."""
    if section not in SCHEMA or key not in SCHEMA[section]:
        raise ConfigError(f"unknown key {section}.{key}")
    try:
        values[section][key] = SCHEMA[section][key][0](raw)
    except ValueError as e:
        raise ConfigError(f"bad value for {section}.{key}: {e}")


def _validate(cfg: RunConfig):
    for section, keys in SCHEMA.items():
        for key, (_, _, rule) in keys.items():
            value = cfg[section][key]
            if rule is not None and not rule[0](value):
                raise ConfigError(f"{section}.{key}={value} must be {rule[1]}")
    if cfg["model"]["kind"] == "nlw":
        _wave(cfg)


def _wave(cfg: RunConfig):
    """The wave model of a config: ``(basis, nonlinearity, noise, sim)``.

    Each rejection is a ``ConfigError`` naming the quantity that failed.
    """
    m, n = cfg["model"], cfg["noise"]
    try:
        if m["nonlinearity"] == "klein_gordon":
            nl = nlw.Nonlinearity.klein_gordon(m["rho"], m["lam"], nu=m["nu"])
        elif m["nonlinearity"] == "sine_gordon":
            nl = nlw.Nonlinearity.sine_gordon(nu=m["nu"])
        elif m["nonlinearity"] == "zero":
            nl = nlw.Nonlinearity.zero()
        else:
            raise ConfigError(f"unknown nonlinearity {m['nonlinearity']!r}")
    except ValueError as e:
        raise ConfigError(f"nonlinearity rejected: {e}")
    rep = nlw.check_dissipativity(nl)
    if not rep.ok:
        raise ConfigError(f"dissipativity violated: {rep.violations}")
    try:
        basis = _build_basis(cfg)
    except ValueError as e:
        raise ConfigError(f"basis rejected: {e}")
    lam1 = float(basis.eigenvalues[0])
    if nl.nu > (lam1 if lam1 < m["gamma"] else m["gamma"]) / 8:
        raise ConfigError(f"nu={nl.nu} above (lambda_1 ^ gamma)/8")
    try:
        noise = nlw.NoiseModel.power_law(basis, n["amplitude"], n["decay_q"],
                                         n["cutoff"] if n["cutoff"] > 0 else None)
    except ValueError as e:
        raise ConfigError(f"noise rejected: {e}")
    try:
        sim = _build_simconfig(cfg, basis)
    except ValueError as e:
        raise ConfigError(f"integrator rejected: {e}")
    return basis, nl, noise, sim


def _build_basis(cfg: RunConfig) -> SpectralBasis:
    m = cfg["model"]
    lengths = (m["length"],) if m["length2"] <= 0 else (m["length"], m["length2"])
    return SpectralBasis(lengths, m["modes"])


def _build_simconfig(cfg: RunConfig, basis: SpectralBasis) -> nlw.SimConfig:
    m, i, n = cfg["model"], cfg["integrator"], cfg["noise"]
    dt = i["dt"] if i["dt"] > 0 else 0.5 / math.sqrt(basis.eigenvalues[-1])
    h = None
    if m["h_amplitude"] != 0.0:
        h = Field.from_mode(basis, 1, m["h_amplitude"])
    return nlw.SimConfig(basis=basis, gamma=m["gamma"], dt=dt,
                         horizon=i["horizon"], seed=cfg.seed, eps=n["eps"],
                         alpha=m["alpha"] if m["alpha"] > 0 else None, h=h,
                         stride=i["stride"], allow_large_dt=i["allow_large_dt"])


def _build_toy(cfg: RunConfig):
    kind = cfg["model"]["kind"]
    if kind == "ou":
        return toys.OrnsteinUhlenbeck(cfg["model"]["theta"], cfg["model"]["sigma"])
    return toys.builtin_cubic() if kind == "cubic" else toys.builtin_doublewell()


# First spawn-key entry of the start-state streams: an arbitrary constant far
# from the small indices of the trajectory and replica streams, whose keys
# have one entry anyway.
_START_STREAM = 0x73746172
# First spawn-key entry of the ldp1 horizon streams, likewise.
_LDP1_STREAM = 0x6C647031


def _start(cfg: RunConfig, sim: nlw.SimConfig, k: int,
           scale: float | None = None) -> PhaseState:
    """Smooth random start state number ``k`` of a run.

    It is drawn from ``stats.generator(seed, (_START_STREAM, k))``, so no two
    (seed, k) pairs share a stream: seed s + 1 does not start where seed s
    put its second state.
    """
    if scale is None:
        scale = cfg["experiment"]["state_scale"]
    rng = stats.generator(cfg.seed, (_START_STREAM, k))
    m = sim.basis.mode_count
    decay = 1.0 / np.arange(1, m + 1) ** 2
    return PhaseState.from_coeffs(sim.basis, scale * rng.standard_normal(m) * decay,
                                  scale * rng.standard_normal(m) * decay, sim.alpha)


# --------------------------------------------------------------------------
# Artifact emission


class _RunDir:
    """The ``--out`` directory of one run and the artifacts the run wrote there.

    The verdict lists and hashes only these, so files an earlier run left in
    the same directory stay out of a later verdict.
    """

    def __init__(self, path: Path):
        self.path = path
        self.written: list[Path] = []

    def write_text(self, name: str, text: str) -> None:
        path = self.path / name
        path.write_text(text, encoding="utf-8")
        self.written.append(path)

    def write_csv(self, name: str, header: list[str], rows) -> None:
        self.write_text(name, "".join(",".join(map(_fmt, row)) + "\n"
                                      for row in [header, *rows]))


def _fmt(x) -> str:
    return str(_jsonify(x))


def _finish(cfg: RunConfig, out: _RunDir, status: str, metrics: dict,
            tolerances: dict) -> int:
    artifacts = sorted(out.written)
    # the configuration, pinned by config_hash: not an artifact of the run
    (out.path / "manifest.ini").write_text(cfg.emit(), encoding="utf-8")
    result = {"status": status, "metrics": _jsonify(metrics),
              "tolerances": _jsonify(tolerances)}
    h = hashlib.sha256()
    for p in artifacts:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    # and the verdict's body: a run with no result file (the wave
    # quasipotential, selftest) is pinned by its body alone
    h.update(json.dumps(result, sort_keys=True).encode())
    verdict = {
        **result,
        "seed": cfg.seed,
        "config_hash": cfg.content_hash(),
        "artifact_hash": h.hexdigest()[:16],
        "artifacts": [p.name for p in artifacts],
    }
    (out.path / "verdict.json").write_text(json.dumps(verdict, indent=2,
                                                      sort_keys=True) + "\n")
    print(json.dumps({"status": status, "config_hash": verdict["config_hash"],
                      "artifact_hash": verdict["artifact_hash"]}))
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL,
            "inconclusive": EXIT_INCONCLUSIVE}[status]


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x) or math.isnan(x):
            return str(x)
        return x
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    return obj


# --------------------------------------------------------------------------
# Experiment implementations


def _cmd_simulate(cfg: RunConfig, out: _RunDir) -> int:
    kind = cfg["model"]["kind"]
    if kind == "nlw":
        basis, nl, noise, sim = _wave(cfg)
        traj = nlw.simulate(sim, nl, noise, _start(cfg, sim, 1))
        k = min(8, basis.mode_count)
        lam, s = basis.eigenvalues, cfg["experiment"]["s_exponent"]
        h_norm = np.sqrt(phase_norm_sq_arr(traj.states, lam, sim.alpha))
        hs_norm = np.sqrt(sobolev_phase_norm_sq_arr(traj.states, lam, sim.alpha, s))
        rows = [[traj.t[i], traj.energy[i], h_norm[i], hs_norm[i], *traj.states[i, 0, :k]]
                for i in range(traj.t.size)]
        out.write_csv("trajectory.csv",
                      ["t", "E", "normH", "normHs"] + [f"mode_{j + 1}" for j in range(k)],
                      rows)
        finite = bool(np.isfinite(traj.states).all())
        return _finish(cfg, out, "pass" if finite else "fail",
                       {"final_energy": traj.energy[-1]}, {"finite": True})
    model = _build_toy(cfg)
    eps = model.eps if kind == "ou" else cfg["model"]["toy_eps"]
    t, paths, _ = toys.simulate_toy(model, eps, cfg["integrator"]["toy_dt"],
                                    cfg["integrator"]["horizon"], cfg.seed,
                                    record_stride=cfg["integrator"]["stride"])
    out.write_csv("trajectory.csv", ["t", "u"],
                  [[t[i], paths[0, i]] for i in range(t.size)])
    return _finish(cfg, out, "pass", {"final": paths[0, -1]}, {})


def _cmd_energy_audit(cfg: RunConfig, out: _RunDir) -> int:
    basis, nl, noise, sim = _wave(cfg)
    # without noise every path is the same: one path is the pathwise audit
    res = nlw.run_flow(sim, nl, noise, _start(cfg, sim, 1),
                       n_traj=1 if cfg["noise"]["eps"] == 0 else cfg["experiment"]["n_traj"],
                       probes={"energy": nlw.make_energy_fn(basis, nl, sim.alpha),
                               "normH2": lambda s: phase_norm_sq_arr(
                                   s, basis.eigenvalues, sim.alpha)},
                       threads=cfg.threads)
    audit = nlw.energy_audit(res.t, res.probes["energy"], res.probes["normH2"], sim.alpha)
    out.write_csv("energy.csv", ["t", "E"],
                  [[audit.t[i], audit.series[i]] for i in range(audit.t.size)])
    # a noisy run is judged on its fit alone, so it lists no rate limit
    noisy, min_rate = cfg["noise"]["eps"] > 0, 0.9 * sim.alpha
    slope_ok = audit.decay is not None and (noisy or audit.decay_rate >= min_rate)
    status = "pass" if (np.isfinite(audit.c_fit) and slope_ok) else "fail"
    return _finish(cfg, out, status,
                   {"c_fit": audit.c_fit, "decay_rate": audit.decay_rate,
                    "k_fit": audit.k_fit},
                   {} if noisy else {"min_decay_rate": min_rate})


def _feedback_modes(cfg: RunConfig, basis: SpectralBasis, least: int = 0) -> int:
    """``experiment.n_feedback`` of a command that reads it: a count in [least, M]."""
    n = cfg["experiment"]["n_feedback"]
    if not least <= n <= basis.mode_count:
        raise ConfigError(
            f"experiment.n_feedback={n} outside [{least}, {basis.mode_count}]")
    return n


def _coupled_series(out: _RunDir, name: str, wave, z: PhaseState, zp: PhaseState,
                    run: cpl.CoupledRun) -> None:
    """Write path 0 of a coupled run from (z, z') as its four-column series."""
    basis, _, _, sim = wave
    d0_sq = max(float(phase_norm_sq_arr(z.as_array() - zp.as_array(),
                                        basis.eigenvalues, sim.alpha)), 1e-300)
    out.write_csv(name, ["t", "diff_normH", "lowmode_ratio", "novikov_energy"],
                  [[run.t[i], run.diff_vu[0, i],
                    run.lowmode_sq[0, i] / d0_sq * math.exp(sim.alpha * run.t[i]),
                    run.novikov_energy[0, i]] for i in range(run.t.size)])


def _cmd_couple_fp(cfg: RunConfig, out: _RunDir) -> int:
    wave = basis, nl, noise, sim = _wave(cfg)
    z, zp = _start(cfg, sim, 1), _start(cfg, sim, 2)
    n_feedback = _feedback_modes(cfg, basis)
    rep = cpl.fp_contraction_test(sim, nl, noise, z, zp,
                                  n_grid=(2, 4, n_feedback, basis.mode_count))
    _coupled_series(out, "couple_fp.csv", wave, z, zp, rep.runs[n_feedback])
    ok = rep.lowmode_ok and rep.n_star is not None
    return _finish(cfg, out, "pass" if ok else "fail",
                   {"rates": {str(k): v for k, v in rep.rates.items()},
                    "n_star": rep.n_star, "lowmode_margin": rep.lowmode_margin},
                   {"lowmode_margin_max": cpl.LOWMODE_MARGIN_MAX,
                    "rate_floor": cpl.RATE_FLOOR_PER_ALPHA * sim.alpha})


def _cmd_girsanov_tv(cfg: RunConfig, out: _RunDir) -> int:
    wave = basis, nl, noise, sim = _wave(cfg)
    # without feedback v is u' and every likelihood ratio is 1: nothing to fit
    n_feedback = _feedback_modes(cfg, basis, least=1)
    z = _start(cfg, sim, 1, scale=0.3)
    d = np.zeros((2, basis.mode_count))
    d[0, 0] = 1.0 / math.sqrt(basis.eigenvalues[0])
    d[1, 0] = -sim.alpha / math.sqrt(basis.eigenvalues[0])
    exp = cpl.girsanov_tv_experiment(sim, nl, noise, z, d,
                                     cfg["experiment"]["distances"], n_feedback,
                                     n_traj=cfg["experiment"]["n_traj"])
    rows = [[exp.distances[i], exp.tv_estimates[i].value, exp.tv_estimates[i].stderr,
             exp.bounds[i].value, exp.novikov_median[i]]
            for i in range(exp.distances.size)]
    out.write_csv("girsanov_tv.csv",
                  ["distance", "tv_estimate", "tv_stderr", "tv_bound",
                   "novikov_median"], rows)
    # representative coupled series at the largest separation
    zp = PhaseState.from_coeffs(basis, *(z.as_array() + float(exp.distances[0]) * d),
                                sim.alpha)
    _coupled_series(out, "couple_series.csv", wave, z, zp,
                    cpl.couple_fp(sim, nl, noise, z, zp, n_feedback))
    # the novikov energy scales as distance^2; an estimate may exceed its
    # bound by domination_se standard errors
    exponent, spread, domination_se = 2.0, 0.3, 3
    dominated = all(e.value <= b.value + domination_se * e.stderr
                    for e, b in zip(exp.tv_estimates, exp.bounds))
    quad = abs(exp.scaling_fit.slope - exponent) <= spread
    status = "pass" if (dominated and quad) else "fail"
    return _finish(cfg, out, status,
                   {"scaling_exponent": exp.scaling_fit.slope,
                    "dominated": dominated},
                   {"scaling_exponent": [exponent - spread, exponent + spread],
                    "domination_se": domination_se})


def _cmd_mix(cfg: RunConfig, out: _RunDir) -> int:
    _, nl, noise, sim = _wave(cfg)
    rep = cpl.mixing_rate(sim, nl, noise, _start(cfg, sim, 1), _start(cfg, sim, 2),
                          n_traj=cfg["experiment"]["n_traj"], threads=cfg.threads)
    out.write_csv("mixing.csv", ["t", "delta"],
                  [[rep.t[i], rep.delta[i]] for i in range(rep.t.size)])
    status = ("inconclusive" if rep.inconclusive
              else "pass" if rep.passed else "fail")
    # a record is above the floor when its gap exceeds floor_paired_se of its
    # own paired standard errors; the verdict reports the median floor
    return _finish(cfg, out, status,
                   {"kappa": rep.kappa, "kappa_ci": list(rep.kappa_ci),
                    "noise_floor": stats.median(rep.noise_floor),
                    "points_above_floor": rep.n_above_floor},
                   {"kappa_positive_at": 0.95,
                    "min_points_above_floor": cpl.MIN_FIT_POINTS,
                    "floor_paired_se": cpl.FLOOR_SE})


def _cmd_occupation(cfg: RunConfig, out: _RunDir) -> int:
    kind = cfg["model"]["kind"]
    horizon = cfg["integrator"]["horizon"]
    # running integrals int_0^t psi of path 0; the wave's over its records
    if kind == "nlw":
        basis, nl, noise, sim = _wave(cfg)
        obs = {o.name: o for o in default_observables(basis, sim.alpha, (1, 2))}
        res = nlw.run_flow(sim, nl, noise, _start(cfg, sim, 1), probes=obs)
        t, series = res.t, {k: stats.running_trapezoid(res.t, v[0])
                            for k, v in res.probes.items()}
    else:
        model = _build_toy(cfg)
        eps = model.eps if kind == "ou" else cfg["model"]["toy_eps"]
        t, _, ints = toys.simulate_toy(model, eps, cfg["integrator"]["toy_dt"],
                                       horizon, cfg.seed, record_stride=100)
        series = {"u": ints[0]}
    rows = [[t[i]] + [series[k][i] / t[i] if t[i] > 0 else 0.0 for k in series]
            for i in range(t.size)]
    out.write_csv("occupation.csv", ["t"] + list(series), rows)
    return _finish(cfg, out, "pass",
                   {"averages": {k: series[k][-1] / t[-1] for k in series}}, {})


def _cmd_pressure(cfg: RunConfig, out: _RunDir) -> int:
    kind = cfg["model"]["kind"]
    betas = cfg["experiment"]["betas"]
    if 0.0 not in betas:
        betas = sorted(betas + [0.0])
    if kind == "chain2":
        chain = erg.two_state_chain(1.0, 1.0, v=(1.0, 0.0))
        curve = erg.chain_pressure_curve(chain, betas)
    else:
        ou = _build_toy(cfg)
        horizon = cfg["integrator"]["horizon"]
        n_traj = cfg["experiment"]["n_traj"]
        # beta number i of the sorted curve draws from its own stream (i,)
        streams = {b: (i,) for i, b in enumerate(sorted(betas))}

        def estimator(beta: float) -> erg.PressureEstimate:
            _, _, ints = toys.simulate_toy(
                ou, ou.eps, cfg["integrator"]["toy_dt"], horizon, cfg.seed,
                n_traj=n_traj, record_stride=10 ** 9, stream=streams[beta])
            return erg.feynman_kac_estimate(beta * ints[:, -1], horizon)

        curve = erg.pressure_curve(betas, estimator, center=0.0)
    out.write_csv("pressure.csv", ["beta", "Q", "stderr"],
                  [[curve.betas[i], curve.values[i], curve.stderr[i]]
                   for i in range(curve.betas.size)])
    rate = erg.legendre(curve)
    finite = np.isfinite(rate.values)
    out.write_csv("rate.csv", ["p", "I"],
                  [[rate.p[i], rate.values[i]] for i in range(rate.p.size) if finite[i]])
    viol = curve.convexity_violations()
    return _finish(cfg, out, "pass" if viol == 0 else "fail",
                   {"convexity_violations": viol,
                    "Q": dict(zip(map(str, curve.betas), curve.values))},
                   {"convexity_violations": 0})


def _cmd_ldp1(cfg: RunConfig, out: _RunDir) -> int:
    kind = cfg["model"]["kind"]
    interval = tuple(cfg["experiment"]["interval"])
    horizons = cfg["experiment"]["horizons"]
    n_traj = cfg["experiment"]["n_traj"]
    if kind == "ou":
        ou = _build_toy(cfg)
        betas = np.linspace(-1.2, 1.2, 49)
        curve = erg.PressureCurve(betas, np.array([ou.pressure(b) for b in betas]),
                                  np.zeros(betas.size), 0.0)
        rate = erg.legendre(curve)
        avgs = []
        for k, T in enumerate(horizons):
            _, _, ints = toys.simulate_toy(ou, ou.eps, cfg["integrator"]["toy_dt"],
                                           T, cfg.seed, n_traj=n_traj,
                                           record_stride=10 ** 9,
                                           stream=(_LDP1_STREAM, k))
            avgs.append(ints[:, -1] / T)
    else:
        chain = erg.two_state_chain(1.0, 1.0, v=(1.0, 0.0))
        curve = erg.chain_pressure_curve(chain, np.linspace(-3, 3, 61))
        rate = erg.legendre(curve)
        avgs = []
        for k, T in enumerate(horizons):
            ints = chain.sample_occupation(T, n_traj, cfg.seed,
                                           stream=(_LDP1_STREAM, k))
            avgs.append(ints / T)
    rep = erg.ldp_level1_check(horizons, avgs, interval, rate)
    out.write_csv("ldp1.csv", ["horizon", "log_prob", "hits"],
                  [[rep.horizons[i], rep.log_probs[i], rep.hits[i]]
                   for i in range(rep.horizons.size)])
    status = ("inconclusive" if rep.inconclusive
              else "pass" if rep.passed else "fail")
    return _finish(cfg, out, status,
                   {"empirical": rep.empirical, "target": rep.target,
                    "rel_error": rep.rel_error},
                   {"rel_error_max": erg.LDP1_TOL, "min_hits": erg.LDP1_MIN_HITS})


def _rel_error(value: float, oracle: float) -> float:
    """|value - oracle| over the oracle, taken as at least ``newton.RTOL`` (the
    solver's resolution of actions below 1) and as 1 when it is 0: a target at
    the start or downhill of it, where a solve keeps an absolute remainder."""
    return abs(value - oracle) / (max(oracle, newton.RTOL) if oracle > 0 else 1.0)


def _cmd_quasipotential(cfg: RunConfig, out: _RunDir) -> int:
    kind = cfg["model"]["kind"]
    # the constants ``converged`` reads: each solve must stop on its rule
    stopping = {"newton_rtol": newton.RTOL, "newton_maxiter": newton.MAXITER}
    if kind in ("cubic", "doublewell"):
        model = _build_toy(cfg)
        a, b = cfg["experiment"]["from_point"], cfg["experiment"]["to_point"]
        # the oracle is the quasipotential from an equilibrium, not from any
        # point: a start beside one is moved onto it
        a_eq = float(min(model.equilibria()[0], key=lambda e: abs(e - a)))
        if abs(a_eq - a) > 1e-6:
            raise ConfigError(f"experiment.from_point={a} is not an equilibrium of "
                              f"the {kind} model")
        a = a_eq
        res = rates.toy_quasipotential(model, a, b)
        oracle = rates.toy_quasipotential_oracle(model, a, b)
        out.write_csv("quasipotential.csv", ["t", "phi"],
                      [[res.path.t[i], res.path.phis[i]]
                       for i in range(res.path.t.size)])
        tol = 0.05
        ok = res.converged and _rel_error(res.value, oracle) <= tol
        return _finish(cfg, out, "pass" if ok else "fail",
                       {"value": res.value, "oracle": oracle,
                        "grad_norm": res.grad_norm},
                       {**stopping, "rel_error_max": tol})
    basis, nl, noise, sim = _wave(cfg)
    z1 = PhaseState.zero(basis, sim.alpha)
    z2 = PhaseState(Field.from_mode(basis, 1, cfg["experiment"]["to_point"]),
                    Field.zero(basis), sim.alpha)
    res = rates.nlw_quasipotential(basis, nl, cfg["model"]["gamma"], noise, z1,
                                   z2, h_coeffs=sim.h_coeffs())
    metrics = {"value": res.value, "grad_norm": res.grad_norm}
    tolerances = dict(stopping)
    ok = res.converged
    # the free wave from rest, forced by live noise only, has a closed form
    if (cfg["model"]["nonlinearity"] == "zero" and cfg["model"]["h_amplitude"] == 0
            and np.all(noise.coeffs > 0)):
        oracle = rates.linear_wave_oracle(basis, cfg["model"]["gamma"], noise, z2,
                                          res.horizon)
        rel_error = _rel_error(res.value, oracle)
        tol = 1e-3
        metrics.update(oracle=oracle, rel_error=rel_error)
        tolerances["rel_error_max"] = tol
        ok = ok and rel_error <= tol
    return _finish(cfg, out, "pass" if ok else "fail", metrics, tolerances)


def _cmd_fw_graph(cfg: RunConfig, out: _RunDir) -> int:
    model = _build_toy(cfg)
    net = rates.toy_equilibrium_network(model)
    pts = np.asarray(net.points)
    if cfg["experiment"]["use_solver"]:
        # from a node to itself the solver returns 0 without solving
        V = np.array([[rates.toy_quasipotential(model, a, b).value for b in pts]
                      for a in pts])
        net = rates.EquilibriumNetwork(net.kind, net.points, net.stable, V)
    W = rates.w_graph_weights(net.restrict_to_stable())
    rate = rates.fw_rate(net, net.V[net.stable])
    oracle = rates.gradient_rate_oracle(model, pts)
    keys = [repr(float(p)) for p in pts]
    queries = dict(zip(keys, rate.tolist()))
    payload = {**net.to_json_dict(), "W": W.tolist(), "rate": queries}
    out.write_text("network.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    # every node against the gradient closed form, relative to max(I, 1)
    rel_error = float(np.max(np.abs(rate - oracle) / np.maximum(oracle, 1.0)))
    tol = 0.07 if cfg["experiment"]["use_solver"] else 1e-9
    return _finish(cfg, out, "pass" if rel_error <= tol else "fail",
                   {"W": W.tolist(), "rate": queries,
                    "oracle": dict(zip(keys, oracle.tolist())), "rel_error": rel_error},
                   {"rel_error_max": tol})


def _cmd_stationary_smallnoise(cfg: RunConfig, out: _RunDir) -> int:
    model = _build_toy(cfg)
    flat = cfg["experiment"]["sets"]
    sets = [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]
    mode = "mc" if cfg["experiment"]["mc"] else "exact"
    rep = rates.smallnoise_stationary_probe(model, cfg["experiment"]["eps_list"],
                                            sets, mode=mode, seed=cfg.seed)
    rows = []
    for si, (lo, hi) in enumerate(rep.sets):
        for ei, e in enumerate(rep.eps):
            rows.append([lo, hi, e, rep.eps_log_mu[si, ei]])
    out.write_csv("smallnoise.csv", ["set_lo", "set_hi", "eps", "eps_log_mu"], rows)
    exact_tol, mc_tol = 0.02, 0.2
    if rep.inconclusive:
        status = "inconclusive"
    else:
        tol = exact_tol if mode == "exact" else mc_tol
        oks = []
        for si in range(len(rep.sets)):
            tgt = rep.targets[si]
            if mode == "exact":
                oks.append(abs(rep.eps_log_mu[si, -1] - tgt) <= tol)
            else:
                denom = max(abs(tgt), 1e-12)
                oks.append(abs(rep.intercepts[si] - tgt) / denom <= tol)
        status = "pass" if all(oks) and rep.agreement_ok else "fail"
    tolerances = {"exact_abs_tol": exact_tol, "mc_rel_tol": mc_tol}
    if mode == "mc":
        tolerances.update(mc_min_entries=rates.MC_MIN_ENTRIES,
                          mc_agreement_max=rates.MC_AGREEMENT_MAX)
    return _finish(cfg, out, status,
                   {"table": rep.eps_log_mu.tolist(),
                    "intercepts": rep.intercepts.tolist(),
                    "targets": rep.targets.tolist(),
                    "stable_mass": rep.stable_mass.tolist()},
                   tolerances)


def _cmd_boundary_chain(cfg: RunConfig, out: _RunDir) -> int:
    model = _build_toy(cfg)
    radii, eps_list = cfg["experiment"]["radii"], cfg["experiment"]["eps_list"]
    if len(eps_list) != 1:
        raise ConfigError(f"experiment.eps_list={eps_list} must be one value for "
                          f"boundary-chain")
    eps = eps_list[0]
    try:  # the chain checks its radii against the model before any path runs
        rep = rates.boundary_chain(model, rates.BoundaryChainConfig(*radii), eps,
                                   seed=cfg.seed, n_replicas=cfg["experiment"]["replicas"],
                                   horizon_per_replica=cfg["experiment"]["rep_horizon"],
                                   dt=cfg["integrator"]["toy_dt"])
    except ValueError as e:
        raise ConfigError(f"experiment.radii={radii} rejected: {e}")
    rows = []
    n = rep.nodes.size
    for i in range(n):
        for j in range(n):
            rows.append([rep.nodes[i], rep.nodes[j], rep.counts[i, j],
                         rep.probabilities[i, j], rep.eps_log_p[i, j],
                         rep.vtilde[i, j]])
    out.write_csv("boundary_chain.csv",
                  ["from", "to", "count", "prob", "eps_log_p", "vtilde"], rows)
    max_gap = 0.25
    if rep.inconclusive:
        status = "inconclusive"
    else:
        ok = True
        for i in range(n):
            for j in range(n):
                if i != j and rep.vtilde[i, j] > 0 and np.isfinite(rep.vtilde[i, j]):
                    gap = abs(rep.eps_log_p[i, j] + rep.vtilde[i, j]) / rep.vtilde[i, j]
                    ok = ok and gap <= max_gap
        status = "pass" if ok else "fail"
    return _finish(cfg, out, status,
                   {"counts": rep.counts.tolist(),
                    "eps_log_p": rep.eps_log_p.tolist(),
                    "vtilde": rep.vtilde.tolist()},
                   {"rel_gap_max": max_gap, "min_cell": rates.MIN_CELL})


def _cmd_selftest(cfg: RunConfig, out: _RunDir) -> int:
    """Fast exact oracles: every check here has a closed-form answer."""
    results = {}
    basis = SpectralBasis((math.pi,), 12)
    gram = (basis.eigenfunctions * basis.weights[:, None]).T @ basis.eigenfunctions
    results["orthonormality"] = bool(np.max(np.abs(gram - np.eye(12))) < 1e-10)
    results["lambda_1"] = bool(abs(basis.eigenvalues[0] - 1.0) < 1e-12)

    mc = cpl.MaximalCoupling([0.5, 0.5], [0.75, 0.25])
    results["maximal_coupling_tv"] = bool(abs(mc.tv - 0.25) < 1e-12)

    tri = erg.fk_eigen_exact(erg.two_state_chain(1.0, 1.0, v=(1.0, 0.0)),
                             check_times=())
    results["chain_eigenvalue"] = bool(
        abs(tri.log_lam - (math.sqrt(5) - 1) / 2) < 1e-10)

    cubic = toys.builtin_cubic()
    results["cubic_potential"] = bool(
        abs(cubic.potential(1.0) - 5.0 / 12.0) < 1e-12
        and abs(cubic.potential(3.0) + 9.0 / 4.0) < 1e-12)
    results["cubic_rate"] = bool(
        abs(rates.gradient_rate_oracle(cubic, 0.0) - 4.5) < 1e-6)
    results["zero_action"] = rates.action_value(
        np.linspace(0, 1, 11), np.zeros(11)) == 0.0

    for name, ok in results.items():
        print(f"{name}: {'ok' if ok else 'FAIL'}")
    status = "pass" if all(results.values()) else "fail"
    return _finish(cfg, out, status, results, {})


# subcommand -> (its run, the model kinds it runs, the first its default; None:
# it reads no model).  ldp1 defaults to chain2: on ou from u0 = 0 the average is
# N(0, Var_T/T^2), Var_T = T - 2(1 - e^-T) + (1 - e^-2T)/2: about 30, 16 and 4
# of 400 paths in [0.4, 0.6] at T = 8, 16, 32, under LDP1_MIN_HITS
COMMANDS = {
    "simulate": (_cmd_simulate, ("nlw", "cubic", "doublewell", "ou")),
    "energy-audit": (_cmd_energy_audit, ("nlw",)),
    "couple-fp": (_cmd_couple_fp, ("nlw",)),
    "girsanov-tv": (_cmd_girsanov_tv, ("nlw",)),
    "mix": (_cmd_mix, ("nlw",)),
    "occupation": (_cmd_occupation, ("nlw", "cubic", "doublewell", "ou")),
    "pressure": (_cmd_pressure, ("ou", "chain2")),
    "ldp1": (_cmd_ldp1, ("chain2", "ou")),
    "quasipotential": (_cmd_quasipotential, ("nlw", "cubic", "doublewell")),
    "fw-graph": (_cmd_fw_graph, ("cubic", "doublewell")),
    "stationary-smallnoise": (_cmd_stationary_smallnoise, ("cubic", "doublewell")),
    "boundary-chain": (_cmd_boundary_chain, ("cubic", "doublewell")),
    "selftest": (_cmd_selftest, None),
}


def dispatch(cfg: RunConfig, subcommand: str) -> int:
    run, kinds = COMMANDS[subcommand]
    kind = cfg["model"]["kind"]
    if kinds is not None and kind not in kinds:
        raise ConfigError(f"model.kind={kind} must be one of {', '.join(kinds)} "
                          f"for {subcommand}")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return run(cfg, _RunDir(out_dir))


# flag -> the config key it sets; every experiment key has a flag of its name
FLAGS = {"--model": "model.kind", "--dt": "integrator.dt",
         "--horizon": "integrator.horizon", "--noise-eps": "noise.eps",
         **{"--" + key.replace("_", "-"): f"experiment.{key}"
            for key in SCHEMA["experiment"]}}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``wavemix`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="wavemix",
        description="Stochastic wave-equation laboratory: simulation, coupling "
                    "diagnostics, pressure and rare-event rate experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--set", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
        for flag, target in FLAGS.items():
            section, key = target.split(".")
            p.add_argument(flag, dest=target, default=None,
                           help=f"{target} (default {SCHEMA[section][key][1]!r})")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_CONFIG if e.code else EXIT_PASS
    overrides = list(args.set) + [f"{target}={getattr(args, target)}"
                                  for target in FLAGS.values()
                                  if getattr(args, target) is not None]
    try:
        cfg = parse_config(args.config, overrides, command=args.command)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        cfg.threads = args.threads
        return dispatch(cfg, args.command)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())

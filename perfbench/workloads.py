"""The benchmark's workloads: fixed sequences of ``wavemix`` CLI legs.

Every leg is one in-process ``wavemix.cli.main`` call, the path a user takes
to a ``verdict.json``.  Options are passed as ``--set section.key=value`` so
that the same overrides resolve, through ``cli.parse_config``, to the exact
configuration the leg runs; its path-step count is derived from that.
A path-step is one trajectory, replica or coupled triple advanced by one step.
"""

from __future__ import annotations

from dataclasses import dataclass

# (0, pi)^2 with 144 modes: 3249 collocation nodes, the 2D desk configuration.
_SQUARE = ("model.length2=3.141592653589793", "model.modes=144", "noise.decay_q=3")


@dataclass(frozen=True)
class Leg:
    name: str
    command: str
    overrides: tuple[str, ...]
    # a tiny run of the same model, used by the warm-up; None skips the leg
    warm: tuple[str, ...] | None

    def argv(self, seed: int, out: str, overrides: tuple[str, ...]) -> list[str]:
        args = [self.command, "--seed", str(seed), "--out", out, "--threads", "1"]
        for item in overrides:
            args += ["--set", item]
        return args


# M=32 Klein-Gordon on (0, pi): the 1D desk configuration of ac04/ac05.
WAVE1D = (
    Leg("mix-1d", "mix", ("experiment.n_traj=128", "integrator.horizon=10"),
        ("experiment.n_traj=4", "integrator.horizon=0.5")),
    Leg("girsanov-tv", "girsanov-tv",
        ("experiment.n_traj=200", "integrator.horizon=1"),
        ("experiment.n_traj=4", "integrator.horizon=0.25")),
    Leg("energy-audit-1d", "energy-audit",
        ("noise.eps=0", "integrator.horizon=20", "model.modes=64"),
        ("noise.eps=0", "integrator.horizon=0.5", "model.modes=64")),
)
WAVE2D = (
    Leg("mix-2d", "mix", _SQUARE + ("experiment.n_traj=64", "integrator.horizon=6"),
        _SQUARE + ("experiment.n_traj=4", "integrator.horizon=0.25")),
    Leg("energy-audit-2d", "energy-audit",
        _SQUARE + ("experiment.n_traj=64", "integrator.horizon=4"),
        _SQUARE + ("experiment.n_traj=4", "integrator.horizon=0.25")),
)
TOYS = (
    Leg("boundary-chain", "boundary-chain",
        ("model.kind=doublewell", "experiment.eps_list=0.15",
         "experiment.rep_horizon=400", "integrator.toy_dt=0.002"),
        ("model.kind=doublewell", "experiment.eps_list=0.15",
         "experiment.rep_horizon=2", "integrator.toy_dt=0.002")),
    Leg("pressure", "pressure",
        ("model.kind=ou", "experiment.n_traj=10000", "integrator.horizon=15",
         "integrator.toy_dt=0.01"),
        ("model.kind=ou", "experiment.n_traj=100", "integrator.horizon=1",
         "integrator.toy_dt=0.01")),
    Leg("quasipotential", "quasipotential", ("model.kind=cubic",), None),
    Leg("fw-graph", "fw-graph", ("model.kind=cubic",), ("model.kind=cubic",)),
)

WORKLOADS: dict[str, tuple[Leg, ...]] = {"wave": WAVE1D + WAVE2D, "toys": TOYS}


def path_steps(cli, leg: Leg, seed: int) -> int:
    """Path-steps the leg advances, from its resolved configuration."""
    cfg = cli.parse_config(None, list(leg.overrides), seed=seed)
    x, integ = cfg["experiment"], cfg["integrator"]
    if leg.command in ("mix", "girsanov-tv", "energy-audit"):
        n_steps = cli._build_simconfig(cfg, cli._build_basis(cfg)).n_steps
        if leg.command == "mix":      # two ensembles, from z and from z'
            return 2 * x["n_traj"] * n_steps
        if leg.command == "girsanov-tv":  # one batch per distance + one series
            return (len(x["distances"]) * x["n_traj"] + 1) * n_steps
        return (1 if cfg["noise"]["eps"] == 0 else x["n_traj"]) * n_steps
    if leg.command == "boundary-chain":
        return x["replicas"] * int(x["rep_horizon"] / integ["toy_dt"])
    if leg.command == "pressure":     # beta = 0 is pinned, not simulated
        n_steps = max(int(round(integ["horizon"] / integ["toy_dt"])), 1)
        return sum(1 for b in x["betas"] if b != 0.0) * x["n_traj"] * n_steps
    return 0


def margins(leg: Leg, verdict: dict) -> dict | None:
    """Distance of a statistical leg's verdict from its pass/fail line."""
    m = verdict["metrics"]
    if leg.command == "mix":
        return {"kappa_ci_low": m["kappa_ci"][0], "limit": 0.0}
    if leg.command == "girsanov-tv":
        return {"scaling_exponent": m["scaling_exponent"], "limit": [1.7, 2.3]}
    if leg.command == "boundary-chain":
        counts = m["counts"]
        off = [c for i, row in enumerate(counts) for j, c in enumerate(row) if i != j]
        return {"min_cell": min(off), "limit": 50}
    if leg.command == "quasipotential":
        return {"rel_error": abs(m["value"] - m["oracle"]) / m["oracle"], "limit": 0.05}
    if leg.command == "pressure":
        return {"convexity_violations": m["convexity_violations"], "limit": 0}
    return None

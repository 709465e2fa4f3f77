"""Checks of the benchmark itself: spans reach every binding, tracing leaves
results unchanged, counts repeat, and the declared metrics match the output.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

Each workload runs one untraced and two traced rounds (about 90 s in all on a
2-core machine).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 12345

# Span prefixes that must record calls on a workload, and those predicted idle.
ACTIVE = {
    "wave": ("nlw.apply_modewise", "nlw.noise", "nlw.trajectory_streams",
             "nlw.kick", "nlw.Nonlinearity.f", "nlw.energy_fn", "nlw.run_flow",
             "nlw.linear_ops", "spectral.eigenfunctions",
             "spectral.phase_norm_sq_arr", "observables.probe",
             "coupling.couple_fp_batch", "coupling.couple_fp",
             "coupling.mixing_rate", "stats.", "cli."),
    "toys": ("ergodic.feynman_kac_estimate", "ergodic.pressure_curve",
             "ergodic.legendre", "toys.simulate_toy", "toys.drift",
             "rates.boundary_chain", "rates.minimize", "rates.objective",
             "stats.", "cli."),
}
IDLE = {
    "wave": ("toys.", "ergodic.", "rates.boundary_chain", "rates.minimize",
             "rates.objective"),
    "toys": ("nlw.", "coupling.", "spectral.", "observables."),
}


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def test_declared_metrics_match_the_output():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(spans.PER_LAYER)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == \
        {"wall_s", "cpu_s", "path_steps_per_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_rounds(cli, name, tmp_path):
    legs = workloads.WORKLOADS[name]
    plain = run.run_rounds(cli, legs, SEED, 0, tmp_path, "p")
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [run.run_rounds(cli, legs, SEED, 0, tmp_path, f"t{i}", tracer)[0]
                  for i in range(2)]
        calls = {n: st.calls for n, st in tracer.stats.items()}
    finally:
        tracer.uninstall()

    # every binding is restored, including the by-name imports
    nlw, coupling = sys.modules["wavemix.nlw"], sys.modules["wavemix.coupling"]
    assert coupling.apply_modewise is nlw.apply_modewise
    assert not hasattr(nlw.apply_modewise, "__wrapped__")
    assert not hasattr(sys.modules["wavemix.rates"].simulate_toy, "__wrapped__")

    for rnd in plain + traced:
        assert rnd["codes"] == [0] * len(legs)
        assert [v["status"] for v in rnd["verdicts"]] == ["pass"] * len(legs)
    # tracing does not change any artifact
    hashes = [[v["artifact_hash"] for v in rnd["verdicts"]] for rnd in plain + traced]
    assert hashes[1] == hashes[0] and hashes[2] == hashes[0]
    # exact counts repeat between rounds of the same code and seed
    first, second = traced[0]["layers"], traced[1]["layers"]
    for key in spans.COUNTS:
        assert first[key] == second[key], key
    steps = sum(first[k] for k in spans.COUNTS if k.endswith("path_steps"))
    assert steps == sum(workloads.path_steps(cli, leg, SEED) for leg in legs)
    assert first["nlw.linear_ops.misses"] == 0

    for prefix in ACTIVE[name]:
        assert any(n.startswith(prefix) and c > 0 for n, c in calls.items()), prefix
    for prefix in IDLE[name]:
        assert not any(n.startswith(prefix) for n in calls), prefix
        for metric, value in first.items():
            if metric.startswith(prefix) and metric.endswith((".calls", ".builds")):
                assert value == 0, metric


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toys",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench_out").exists()

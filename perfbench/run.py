"""Benchmark of the wavemix CLI: timed workloads, verdict checks and layer spans.

    python3 perfbench/run.py --workload wave --seed 1 --seconds 50 --trace 0

A run imports ``wavemix.cli`` from ``src/`` next to this directory, warms up,
then repeats the workload's legs (in-process ``wavemix.cli.main`` calls) in
rounds until ``--seconds`` have passed.  Every leg must exit 0 with a ``pass``
verdict, and each leg's artifact hash must repeat in every round.

With ``--trace 0`` it reports the end-to-end metrics: medians over rounds of
the round wall and CPU time and of the path-step throughput, the median of
several set-ups, and the peak resident memory.  With ``--trace 1`` it spends
half the time on untraced rounds and half on rounds traced by ``spans``, and
reports the per-layer metrics per round; traced and untraced artifact hashes
must agree.  The last line of standard output is the result as one JSON
object; the lines before it record the environment and the verdict margins.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is first imported (here or in a child).
BLAS_PINNING = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
os.environ.update(BLAS_PINNING)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
WARMUP_RULE = ("before timing, each leg runs once at a tiny size on the same "
               "model (quasipotential excepted): lazy scipy imports and the "
               "first linear_ops build land in setup_s, not wall_s")


def load_cli():
    """Import ``wavemix.cli`` from this checkout's ``src/``, nowhere else."""
    if not (SRC / "wavemix" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no wavemix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wavemix.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "wavemix").resolve():
        raise SystemExit(f"perfbench: imported wavemix from {cli.__file__}")
    return cli


def invoke(cli, argv: list[str]) -> int:
    """One ``wavemix`` invocation, its stdout discarded; -1 if it raised."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            return cli.main(argv)
        except Exception:
            traceback.print_exc()
            return -1


def set_up(workload: str, seed: int, scratch: Path):
    """Import the CLI and warm up; returns the module and the seconds taken."""
    t0 = time.perf_counter()
    cli = load_cli()
    for leg in workloads.WORKLOADS[workload]:
        if leg.warm is None:
            continue
        code = invoke(cli, leg.argv(seed, str(scratch / f"warm-{leg.name}"), leg.warm))
        if code not in (cli.EXIT_PASS, cli.EXIT_FAIL, cli.EXIT_INCONCLUSIVE):
            raise SystemExit(f"perfbench: warm-up of {leg.name} exited {code}")
    return cli, time.perf_counter() - t0


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of a fresh process running only the set-up."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-only"], capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: set-up sample exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_rounds(cli, legs, seed: int, seconds: float, scratch: Path, tag: str,
               tracer=None) -> list[dict]:
    """Repeat the legs for at most ``seconds``; one record per round.

    After the first round, a round starts only if one more round of the last
    round's length still ends within ``seconds``.
    """
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + rounds[-1]["wall"] <= seconds:
        rdir = scratch / f"{tag}{len(rounds)}"
        if tracer is not None:
            tracer.reset()
        codes, leg_wall = [], []
        c0, t0 = time.process_time(), time.perf_counter()
        for leg in legs:
            lt0 = time.perf_counter()
            codes.append(invoke(cli, leg.argv(seed, str(rdir / leg.name), leg.overrides)))
            leg_wall.append(time.perf_counter() - lt0)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        verdicts = []
        for leg in legs:
            path = rdir / leg.name / "verdict.json"
            verdicts.append(json.loads(path.read_text()) if path.is_file() else None)
        rec = {"wall": wall, "cpu": cpu, "leg_wall": leg_wall, "codes": codes,
               "verdicts": verdicts}
        if tracer is not None:
            tracer.counts["cli.artifact_bytes"] += sum(
                p.stat().st_size for p in rdir.rglob("*") if p.is_file())
            rec["layers"] = spans.layer_values(tracer)
        shutil.rmtree(rdir, ignore_errors=True)
        rounds.append(rec)
    return rounds


def environment(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": f"{blas['name']} {blas.get('version')}",
            "scipy_blas": f"{sblas['name']} {sblas.get('version')}",
            "blas_pinning": BLAS_PINNING, "cli_threads": 1,
            "warmup": WARMUP_RULE, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    legs = workloads.WORKLOADS[args.workload]
    scratch = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            _, setup_s = set_up(args.workload, args.seed, scratch)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        samples = [setup_sample(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES - 1)]
        cli, setup_s = set_up(args.workload, args.seed, scratch)
        samples.append(setup_s)
        if args.trace:
            plain = run_rounds(cli, legs, args.seed, args.seconds / 2, scratch, "p")
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_rounds(cli, legs, args.seed, args.seconds / 2, scratch,
                                    "t", tracer)
            finally:
                tracer.uninstall()
        else:
            plain = run_rounds(cli, legs, args.seed, args.seconds, scratch, "p")
            traced = []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()
    return report(cli, args, legs, samples, plain, traced)


def report(cli, args, legs, samples, plain, traced) -> int:
    rounds = plain + traced
    attempted = len(legs) * len(rounds)
    failed = sum(1 for r in rounds for code, v in zip(r["codes"], r["verdicts"])
                 if code != 0 or v is None or v["status"] != "pass")
    hashes_repeat = all(
        len({r["verdicts"][i] and r["verdicts"][i]["artifact_hash"] for r in rounds}) == 1
        for i in range(len(legs)))
    correct = failed == 0 and hashes_repeat

    steps = [workloads.path_steps(cli, leg, args.seed) for leg in legs]
    mc = [i for i, s in enumerate(steps) if s > 0]
    median = statistics.median
    print("env " + json.dumps(environment(args), sort_keys=True))
    margins = {leg.name: workloads.margins(leg, v)
               for leg, v in zip(legs, rounds[0]["verdicts"]) if v is not None}
    print("margins " + json.dumps({k: v for k, v in margins.items() if v is not None},
                                  sort_keys=True))
    print(f"# fail_frac = {failed / attempted:.6g} ({failed} of {attempted} legs)")

    if not args.trace:
        metrics = {
            "wall_s": (median(r["wall"] for r in plain), "s"),
            "cpu_s": (median(r["cpu"] for r in plain), "s"),
            "path_steps_per_s": (median(sum(steps) / sum(r["leg_wall"][i] for i in mc)
                                        for r in plain), "1/s"),
            "setup_s": (median(samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
        print(f"# {args.workload}: medians of {len(plain)} rounds, set-up median "
              f"of {len(samples)} processes, {sum(steps)} path-steps per round")
        print("# round wall_s: " + " ".join(f"{r['wall']:.3f}" for r in plain))
        print("# set-up samples: " + " ".join(f"{x:.3f}" for x in samples))
    else:
        layers = [r["layers"] for r in traced]
        counts_repeat = all(len({lv[k] for lv in layers}) == 1 for k in spans.COUNTS)
        traced_steps = sum(layers[0][k] for k in spans.COUNTS if k.endswith("path_steps"))
        correct = correct and counts_repeat and traced_steps == sum(steps)
        metrics = {name: (layers[0][name] if unit != "s" else
                          median(lv[name] for lv in layers), unit)
                   for name, unit in spans.PER_LAYER if not name.startswith("trace.")}
        t_wall = median(r["wall"] for r in traced)
        metrics["trace.wall_s"] = (t_wall, "s")
        metrics["trace.overhead_s"] = (t_wall - median(r["wall"] for r in plain), "s")
        print(f"# {args.workload}: per-layer values per round, times are medians of "
              f"{len(traced)} traced rounds ({len(plain)} untraced); "
              f"traced path-steps {traced_steps} vs configured {sum(steps)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

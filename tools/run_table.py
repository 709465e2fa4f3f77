"""The artifact-hash table of every default CLI run and every benchmark leg.

    python3 tools/run_table.py src --seeds 12345 4242
    python3 tools/run_table.py other/src --seeds 12345 --keep runs

Runs the code under the given ``src/`` directory: each subcommand of its
``wavemix.cli.COMMANDS`` at each model kind the entry lists, at the default
configuration (the first kind without ``--model``), then the ``argv`` of each
leg of ``perfbench/workloads.py``.  Each run is one subprocess with BLAS pinned
to one thread.  Prints one markdown row per run: the exit code and the
``artifact_hash`` at each seed.  ``--keep DIR`` keeps each run's ``--out``
directory under ``DIR/<seed>/``, for comparing the files two trees write.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_PINNING = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}


def runs(src: Path):
    """(label, argv of a seed and an --out directory) of every run of the table."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import wavemix.cli as cli
    import workloads

    for command, (_, kinds) in cli.COMMANDS.items():
        for i, kind in enumerate(kinds or (None,)):
            args = [command] if i == 0 else [command, "--model", kind]
            yield " ".join(args), lambda seed, out, a=args: [*a, "--seed", str(seed),
                                                            "--out", out]
    for name, legs in workloads.WORKLOADS.items():
        for leg in legs:
            yield f"perfbench {name}/{leg.name}", \
                lambda seed, out, leg=leg: leg.argv(seed, out, leg.overrides)


def run(src: Path, argv: list[str], out: Path) -> tuple[int, dict | None]:
    """Exit code and verdict (None if it wrote none) of one ``wavemix`` run."""
    env = {**os.environ, **BLAS_PINNING, "PYTHONPATH": str(src)}
    code = subprocess.run([sys.executable, "-m", "wavemix.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    verdict = out / "verdict.json"
    return code, json.loads(verdict.read_text()) if verdict.is_file() else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="directory holding the wavemix package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[12345, 4242])
    parser.add_argument("--keep", type=Path, default=None)
    args = parser.parse_args()
    src = args.src.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        base = (args.keep or Path(tmp)).resolve()
        print("| run | exit | " + " | ".join(f"seed {s}" for s in args.seeds) + " |")
        print("|---|---|" + "---|" * len(args.seeds))
        for label, argv in runs(src):
            codes, cells = [], []
            for seed in args.seeds:
                out = base / str(seed) / label.replace(" ", "_").replace("/", "_")
                code, verdict = run(src, argv(seed, str(out)), out)
                codes.append(str(code))
                cells.append(f"`{verdict['artifact_hash']}`" if verdict else "—")
            exits = codes[0] if len(set(codes)) == 1 else "/".join(codes)
            print(f"| `{label}` | {exits} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()

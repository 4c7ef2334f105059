"""pqossim benchmark: one workload per call, one JSON result on the last line.

    python3 benchmarks/run.py --workload train-n1 --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --write-digests

Run from the repository root. With --trace 0 the result holds the
end-to-end metrics (setup_s, ops_per_s, peak_rss_mb); with --trace 1 the
per-layer metrics of a traced round. Each workload runs in fresh worker
processes (worker.py), one after another: SETUP_SAMPLES processes in all
pay `import pqossim` and the workload's set-up, the last of them also
measures, and setup_s is the median over them.

--write-digests reruns every workload at the reference seeds and rewrites
digests.json, the golden CSV digests each measuring run is checked against.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = ROOT / "bench_out" / "results"
DIGESTS_PATH = BENCH_DIR / "digests.json"

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in CONFIG["workloads"])
SETUP_SAMPLES = 3
REFERENCE_SEEDS = tuple(range(10))
# Every run ends well inside the 180 s a caller may allow it.
RUN_BUDGET_S = 165.0


class WorkerError(RuntimeError):
    pass


def spawn(role: str, workload: str, seed: int, seconds: float, trace: int,
          deadline_ns: int, sample: int = 0) -> dict:
    """Run one worker process to completion; return its JSON result."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--role", role, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--sample", str(sample),
        "--deadline-ns", str(deadline_ns),
        "--t0-ns", str(time.monotonic_ns()),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, (deadline_ns - time.monotonic_ns()) / 1e9 + 10))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{workload} {role} worker timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} {role} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic_ns()
    deadline = start + int(RUN_BUDGET_S * 1e9)
    setups = []
    if not trace:
        for sample in range(1, SETUP_SAMPLES):
            setups.append(spawn("setup", workload, seed, seconds, 0, deadline, sample)["setup_s"])
    # leave the measuring worker time to finish its last round
    result = spawn("measure", workload, seed, seconds, trace, deadline - int(20e9))
    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups
    return result


def save_result(result: dict, trace: int) -> None:
    """Keep the latest untraced and traced result of each workload side by side."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{result['workload']}.json"
    try:
        saved = json.loads(path.read_text())
    except (OSError, ValueError):
        saved = {}
    saved["traced" if trace else "untraced"] = result
    path.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")


def report(result: dict, trace: int, units: dict) -> dict:
    if trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": statistics.median(result["setup_samples_s"]),
            "ops_per_s": result["ops_per_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    print(f"workload {result['workload']} seed {result['seed']} trace {trace}: "
          f"{result['attempted']} vehicle-periods attempted, {result['failed']} failed, "
          f"correct {str(result['correct']).lower()}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def write_digests() -> int:
    """Rerun every workload at the reference seeds; rewrite digests.json."""
    table = {}
    for workload in WORKLOADS:
        entry = {}
        for seed in REFERENCE_SEEDS:
            deadline = time.monotonic_ns() + int(RUN_BUDGET_S * 1e9)
            result = spawn("digest", workload, seed, 0, 0, deadline)
            if not result["correct"]:
                print(f"{workload} seed {seed}: checks failed; digests.json left as it was",
                      file=sys.stderr)
                return 1
            entry["setup"] = result["digests"]["setup"]
            entry[f"seed{seed}"] = result["digests"]["round"]
            print(f"{workload} seed {seed}: {len(result['digests']['round'])} CSV files", flush=True)
        table[workload] = entry
    DIGESTS_PATH.write_text(json.dumps(
        {"reference_seeds": list(REFERENCE_SEEDS), "workloads": table}, indent=1, sort_keys=True
    ) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pqossim benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="rewrite digests.json from the reference seeds")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pqossim" / "__init__.py").is_file():
        print(f"benchmark: no pqossim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_digests:
            return write_digests()
        if args.workload is None:
            ap.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    save_result(result, args.trace)
    units = {m["name"]: m["unit"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]}
    print(json.dumps(report(result, args.trace, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

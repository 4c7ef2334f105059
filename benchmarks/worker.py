"""One benchmark process: import pqossim, set up a workload, run timed rounds.

Started by run.py, once per set-up sample and once per measurement, so
each process pays `import pqossim` itself and its `ru_maxrss` is its own.
Prints one JSON object as its last line of standard output.

A round is one fixed batch of run_* calls whose inputs depend only on
--seed, so every round of a run writes the same bytes. The first clean
round is kept and checked in full by `checks` once the rounds are over;
each later round must reproduce its CSV digests, and for the reference
seeds kept in `digests.json` they must match that file too.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import (
    EnvWatch,
    Failures,
    RunSpec,
    check_run,
    check_same_channel,
    check_training,
    digest_tree,
)
from tracer import Tracer, percentile_us

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / "bench_out"
DIGESTS_PATH = BENCH_DIR / "digests.json"

MIN_ROUNDS = 2
SELF_LAYERS = (
    "env.step", "env.reset", "env.state_vector", "link.lookup", "reward",
    "policies.decide", "dqn.forward", "dqn.train_batch", "dqn.replay.sample",
    "dqn.replay.push", "dqn.checkpoint", "harness.loop", "harness.csv", "harness.figures",
)
# The checkpoint the test sweep evaluates is trained at a fixed seed, so its
# greedy policy (and with it the sweep's mode mix) is the same in every run.
SETUP_SEED = 20220204

PROFILE = "quick"
WORKLOADS = {
    "train-n1": {"kind": "train", "vehicles": 1, "alpha": 0.5, "offline": 6, "online": 12},
    "train-n5": {"kind": "train", "vehicles": 5, "alpha": 1.0, "offline": 3, "online": 3},
    "test-sweep-n5": {
        "kind": "test",
        "vehicles": 5,
        "alpha": 1.0,
        "test_seeds": 2,
        "test_episodes": 1,
        "constant_modes": (0, 1450, 1451, 1452),
        # set-up training: 6 episodes of 50 periods
        "setup_offline": 3,
        "setup_online": 3,
        "setup_episode_s": 5.0,
    },
}


def import_library():
    """Import pqossim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pqossim

    if Path(pqossim.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"pqossim imported from {pqossim.__file__}, not {src}")
    from pqossim import dqn, env, harness, link, policies, reward

    return {
        "pqossim.dqn": dqn,
        "pqossim.env": env,
        "pqossim.harness": harness,
        "pqossim.link": link,
        "pqossim.policies": policies,
        "pqossim.reward": reward,
    }


def make_config(params: dict, seed: int):
    from pqossim.config import default_config
    from pqossim.reward import RewardParams

    config = default_config(PROFILE)
    config.sim.n_vehicles = params["vehicles"]
    config.sim.rng_seed = seed
    config.agent.rng_seed = seed
    config.reward = RewardParams(alpha=params["alpha"])
    return config


def train_specs(config, offline: int, online: int) -> list[RunSpec]:
    config.run.offline_episodes = offline
    config.run.online_episodes = online
    return [
        RunSpec("offline", "offline", "offline", config, offline),
        RunSpec("online", "online", "online", config, online),
    ]


def run_training(harness, specs: list[RunSpec], out: Path) -> int:
    """Offline then online training from the offline agent; returns rows made."""
    offline, online = specs
    agent, off_records = harness.run_offline_training(offline.config, out / offline.name)
    agent, on_records = harness.run_online_training(online.config, out / online.name, agent)
    return sum(len(rec.rows) for rec in off_records + on_records)


def check_training_outputs(specs: list[RunSpec], out: Path, failures: Failures) -> None:
    rows = {s.name: check_run(s, out / s.name, failures) for s in specs}
    check_training(*specs, rows, out, failures)


class TrainWorkload:
    """Offline then online training at one seed-derived config."""

    def __init__(self, modules, params: dict, seed: int, setup_dir: Path):
        self.harness = modules["pqossim.harness"]
        config = make_config(params, seed)
        self.specs = train_specs(config, params["offline"], params["online"])
        self.setup_specs: list[RunSpec] = []
        self.setup_rows = 0

    def run(self, out: Path) -> int:
        return run_training(self.harness, self.specs, out)

    def check(self, out: Path, failures: Failures) -> None:
        check_training_outputs(self.specs, out, failures)


class TestSweepWorkload:
    """Frozen-policy test runs: constant modes and greedy DQL, several seeds.

    Set-up trains a small agent (fixed seed), saves its checkpoint and loads
    it back; every (seed, policy) pair is then one run_test call.
    """

    def __init__(self, modules, params: dict, seed: int, setup_dir: Path):
        self.harness = modules["pqossim.harness"]
        dqn, policies = modules["pqossim.dqn"], modules["pqossim.policies"]

        setup_config = make_config(params, SETUP_SEED)
        setup_config.sim.episode_duration_s = params["setup_episode_s"]
        self.setup_specs = train_specs(setup_config, params["setup_offline"], params["setup_online"])
        self.setup_rows = run_training(self.harness, self.setup_specs, setup_dir)
        checkpoint = setup_dir / self.setup_specs[-1].name / "checkpoint.npz"
        self.agent = dqn.DqnAgent.load(checkpoint, setup_config.agent)

        self.calls = []  # (spec, policy, agent)
        self.seeds: list[list[RunSpec]] = []
        for j in range(params["test_seeds"]):
            test_seed = 1000 * seed + j
            config = make_config(params, test_seed)
            config.run.test_episodes = params["test_episodes"]
            group = []
            for mode_id in params["constant_modes"]:
                policy = policies.ConstantPolicy(mode_id)
                spec = RunSpec(f"s{test_seed}-{mode_id}", "test", policy.name, config,
                               params["test_episodes"], mode_id)
                self.calls.append((spec, policy, None))
                group.append(spec)
            policy = policies.DqlGreedyPolicy(self.agent.online)
            spec = RunSpec(f"s{test_seed}-dql", "test", policy.name, config, params["test_episodes"])
            self.calls.append((spec, policy, self.agent))
            group.append(spec)
            self.seeds.append(group)
        self.specs = [spec for spec, _, _ in self.calls]

    def run(self, out: Path) -> int:
        rows = 0
        for spec, policy, agent in self.calls:
            records, _ = self.harness.run_test(spec.config, out / spec.name, policy, agent)
            rows += sum(len(rec.rows) for rec in records)
        return rows

    def check(self, out: Path, failures: Failures) -> None:
        rows = {s.name: check_run(s, out / s.name, failures) for s in self.specs}
        for group in self.seeds:
            check_same_channel(group, rows, failures)


WORKLOAD_CLASSES = {"train": TrainWorkload, "test": TestSweepWorkload}


def golden_compare(workload: str, key: str, digests: dict, specs, failures: Failures) -> None:
    """Compare digests with digests.json, if it holds this workload and key."""
    try:
        golden = json.loads(DIGESTS_PATH.read_text())["workloads"][workload][key]
    except (OSError, KeyError, ValueError):
        return
    for spec in specs:
        prefix = spec.name + "/"
        mine = {k: v for k, v in digests.items() if k.startswith(prefix)}
        theirs = {k: v for k, v in golden.items() if k.startswith(prefix)}
        if mine != theirs:
            changed = sorted(set(mine.items()) ^ set(theirs.items()))
            names = sorted({k for k, _ in changed})
            failures.add(spec, f"CSV digests differ from digests.json ({key}): {names}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(setup: Tracer, rounds: Tracer, n_rounds: int, rows: int, records_bytes: int):
    """Per-layer metrics of the traced set-up plus one typical traced round.

    Every traced round repeats the same calls, so the rounds' totals divided
    by their number give one round's counts exactly and its times on average.
    """
    def total(get):
        return get(setup) + get(rounds) / n_rounds

    out = {f"{layer}.self_s": total(lambda t: t.self_ns[layer]) / 1e9 for layer in SELF_LAYERS}
    for layer in ("env.step", "policies.decide", "dqn.forward", "dqn.train_batch"):
        out[f"{layer}.calls"] = round(total(lambda t: t.layer_calls[layer]))
    out["env.step.us_p50"] = percentile_us([setup, rounds], "env.step", 50)
    out["env.step.us_p99"] = percentile_us([setup, rounds], "env.step", 99)
    out["dqn.train_batch.us_p50"] = percentile_us([setup, rounds], "dqn.train_batch", 50)
    out["harness.rows"] = rows
    out["harness.records_bytes"] = records_bytes
    out["harness.runs"] = round(total(lambda t: t.layer_calls["harness.loop"]))
    out["harness.summarize_test.calls"] = round(
        total(lambda t: t.function_calls["harness.summarize_test"])
    )
    out["trace.wall_s"] = total(lambda t: t.wall_ns) / 1e9
    out["trace.self_share"] = total(lambda t: t.self_total_ns) / total(lambda t: t.wall_ns)
    return out


def typical_round_s(rounds: list[dict]) -> float:
    """Duration of a typical round: the sum of each segment's median over rounds.

    Segments are the stretches between episode starts, the same work in
    every round, so a burst of host noise that slows one stretch of one
    round is voted out instead of stretching that whole round.
    """
    return sum(statistics.median(column) for column in zip(*(r["segments_s"] for r in rounds)))


def records_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("records.csv"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--role", choices=("setup", "measure", "digest"), required=True,
                    help="digest: measure without comparing to digests.json")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0-ns", type=int, required=True, help="time.monotonic_ns() at spawn")
    ap.add_argument("--deadline-ns", type=int, required=True)
    ap.add_argument("--sample", type=int, default=0, help="set-up sample index")
    args = ap.parse_args(argv)

    modules = import_library()
    watch = EnvWatch(modules["pqossim.env"].NetworkEnv)
    params = WORKLOADS[args.workload]
    base = OUT_DIR / args.workload / f"seed{args.seed}"
    setup_dir = base / f"setup{args.sample}"
    if setup_dir.exists():
        shutil.rmtree(setup_dir)

    # set-up and rounds are traced apart, so a round's share can be averaged
    setup_tracer, tracer = (Tracer(), Tracer()) if args.trace else (None, None)
    if setup_tracer:
        setup_tracer.install(modules)
    workload = WORKLOAD_CLASSES[params["kind"]](modules, params, args.seed, setup_dir)
    if setup_tracer:
        setup_tracer.uninstall()
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_problems = watch.finish()
    round_ops = sum(s.ops for s in workload.specs)
    ref_dir = base / "round0"  # the first round that ran cleanly, kept for the checks
    round_dir = base / "round"
    for stale in (ref_dir, round_dir):
        if stale.exists():
            shutil.rmtree(stale)
    rounds = []
    ref_digests = None
    round_rows = round_bytes = 0
    timed_ns = 0
    min_rounds = MIN_ROUNDS + (1 if tracer else 0)
    while True:
        # a traced run alternates untraced and traced rounds, untraced first
        traced = tracer is not None and len(rounds) % 2 == 1
        if round_dir.exists():
            shutil.rmtree(round_dir)
        round_dir.mkdir(parents=True)
        wall_start = time.monotonic_ns()
        if traced:
            tracer.install(modules)
        watch.marks.clear()
        start = time.perf_counter_ns()
        error = None
        try:
            rows = workload.run(round_dir)
        except Exception:  # a crashing round fails its operations; the run goes on
            error = traceback.format_exc()
            rows = 0
        elapsed = time.perf_counter_ns() - start
        cuts = [start, *watch.marks, start + elapsed]
        if traced:
            tracer.uninstall()
            round_rows, round_bytes = rows, records_bytes(round_dir)
        timed_ns += elapsed

        problems = watch.finish()
        if error:
            problems.append(f"raised:\n{error}")
        digests = digest_tree(round_dir)
        if not problems and ref_digests is None:
            ref_digests = digests
            round_dir.rename(ref_dir)
        elif not problems and digests != ref_digests:
            problems.append("CSV digests differ from the first clean round")
        for problem in problems:
            print(f"round {len(rounds)}: {problem}", file=sys.stderr)
        rounds.append({
            "traced": traced,
            "clean": not problems,
            "seconds": elapsed / 1e9,
            "ops_per_s": round_ops / (elapsed / 1e9),
            "wall_s": (time.monotonic_ns() - wall_start) / 1e9,
            "segments_s": None if error else [(b - a) / 1e9 for a, b in zip(cuts, cuts[1:])],
        })

        if timed_ns / 1e9 >= args.seconds and len(rounds) >= min_rounds:
            break
        longest = max(r["wall_s"] for r in rounds)
        if time.monotonic_ns() + 1.5 * longest * 1e9 > args.deadline_ns:
            break

    # read the high-water mark before the checks add their own objects
    peak_mb = peak_rss_mb()
    golden = args.role == "measure"
    setup_failures, failures = Failures(), Failures()
    for problem in setup_problems:
        setup_failures.add((workload.setup_specs or workload.specs)[0], f"set-up: {problem}")
    setup_digests = digest_tree(setup_dir) if setup_dir.exists() else {}
    if workload.setup_specs:
        check_training_outputs(workload.setup_specs, setup_dir, setup_failures)
        if golden:
            golden_compare(args.workload, "setup", setup_digests, workload.setup_specs,
                           setup_failures)
    if ref_digests is not None:
        workload.check(ref_dir, failures)
        if golden:
            golden_compare(args.workload, f"seed{args.seed}", ref_digests, workload.specs, failures)
    # every round builds on set-up, so a set-up failure fails every operation
    clean_failed = len(failures.bad) if setup_failures.ok else round_ops
    for r in rounds:
        r["failed"] = clean_failed if r["clean"] else round_ops
    failed = sum(r["failed"] for r in rounds)
    for message in setup_failures.messages + failures.messages:
        print(f"check failed: {message}", file=sys.stderr)

    untraced = [r for r in rounds if not r["traced"] and r["segments_s"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "correct": setup_failures.ok and failures.ok and failed == 0,
        "attempted": round_ops * len(rounds),
        "failed": failed,
        "setup_s": setup_s,
        "ops_per_s": round_ops / typical_round_s(untraced) if untraced else 0.0,
        "peak_rss_mb": peak_mb,
        "rounds": rounds,
        "digests": {"setup": setup_digests, "round": ref_digests or {}},
    }
    if tracer:
        traced = [r for r in rounds if r["traced"] and r["segments_s"]]
        traced_rate = round_ops / typical_round_s(traced) if traced else 0.0
        layers = layer_metrics(setup_tracer, tracer, len(traced),
                               workload.setup_rows + round_rows,
                               records_bytes(setup_dir) + round_bytes)
        layers["trace.ops_per_s"] = traced_rate
        layers["trace.overhead"] = (
            1.0 - traced_rate / result["ops_per_s"] if result["ops_per_s"] else 0.0
        )
        if any(t.self_total_ns > t.wall_ns for t in (setup_tracer, tracer)):
            print("trace: layer self times exceed the traced wall time", file=sys.stderr)
            result["correct"] = False
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness.

Subcommands mirror the experiment protocol:

    pqossim train-offline --profile quick --vehicles 5 --out runs/off
    pqossim train-online  --checkpoint runs/off/checkpoint.npz --out runs/on
    pqossim test --policy dql --checkpoint runs/on/checkpoint.npz --out runs/test
    pqossim test --policy constant:1452 --out runs/test-1452
    pqossim validate-metric ref.txt cand.txt
    pqossim export --records runs/test/records.csv --out runs/figs

Every run writes its fully resolved configuration next to its outputs, so
(config file, seed) reproduce a run byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config as cfgmod
from .atomic import atomic_open
from .dqn import DqnAgent
from .errors import CheckpointError, ConfigError
from .harness import emit_figures_csv, read_records_csv, run_offline_training, run_online_training, run_test
from .policies import ConstantPolicy, DqlGreedyPolicy
from .qoe import chamfer_sym, chamfer_sym_accelerated, load_point_cloud


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="config file (section.key = value lines)")
    parser.add_argument("--profile", choices=cfgmod.PROFILES, default="paper")
    parser.add_argument("--seed", type=int, help="overrides sim.rng_seed and agent.rng_seed")
    parser.add_argument("--alpha", type=float, help="QoS/QoE weight in [0, 1]")
    parser.add_argument("--vehicles", type=int, help="fleet size")
    parser.add_argument("--episodes", type=int, help="episode count for this phase")
    parser.add_argument("--out", type=Path, required=True, help="output directory")


def _build_config(args, phase: str) -> cfgmod.ExperimentConfig:
    if args.config is not None:
        config = cfgmod.load_config(args.config, profile=args.profile)
    else:
        config = cfgmod.default_config(args.profile)
    if args.seed is not None:
        config.sim.rng_seed = args.seed
        config.agent.rng_seed = args.seed
    if args.alpha is not None:
        cfgmod.apply_kv(config, "reward.alpha", repr(args.alpha))
    if args.vehicles is not None:
        config.sim.n_vehicles = args.vehicles
    if args.episodes is not None:
        setattr(config.run, f"{phase}_episodes", args.episodes)
    cfgmod.validate(config)
    return config


def _write_resolved(config, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with atomic_open(out / "resolved_config.txt") as fh:
        fh.write(cfgmod.serialize(config))


def _cmd_train_offline(args) -> int:
    config = _build_config(args, "offline")
    _write_resolved(config, args.out)
    agent = DqnAgent.load(args.checkpoint, config.agent) if args.checkpoint else None
    run_offline_training(config, args.out, agent)
    print(f"offline training done: {config.resolved_run().offline_episodes} episodes -> {args.out}")
    return 0


def _cmd_train_online(args) -> int:
    config = _build_config(args, "online")
    _write_resolved(config, args.out)
    agent = DqnAgent.load(args.checkpoint, config.agent) if args.checkpoint else None
    run_online_training(config, args.out, agent)
    print(f"online training done: {config.resolved_run().online_episodes} episodes -> {args.out}")
    return 0


def _cmd_test(args) -> int:
    config = _build_config(args, "test")
    agent = None
    if args.policy == "dql":
        if not args.checkpoint:
            raise ConfigError("--policy dql requires --checkpoint")
        # run_test checksums the agent's weights to prove the test never moved them
        agent = DqnAgent.load(args.checkpoint, config.agent)
        policy = DqlGreedyPolicy(agent.online)
    elif args.policy.startswith("constant:"):
        policy = ConstantPolicy(int(args.policy.split(":", 1)[1]))
    else:
        raise ConfigError(f"--policy must be 'dql' or 'constant:<id>', got {args.policy!r}")
    _write_resolved(config, args.out)
    _, summary = run_test(config, args.out, policy, agent)
    print(
        f"test done ({summary.policy}): {summary.episodes} episodes, "
        f"qos_fraction={summary.qos_fraction:.4f}, "
        f"median_reward={summary.median_reward:.4f} -> {args.out}"
    )
    return 0


def _cmd_validate_metric(args) -> int:
    ref = load_point_cloud(args.reference)
    cand = load_point_cloud(args.candidate)
    fast = chamfer_sym_accelerated(ref, cand)
    print(f"chamfer_sym_accelerated = {fast!r}")
    if len(ref) * len(cand) <= 4_000_000:
        plain = chamfer_sym(ref, cand)
        rel = abs(fast - plain) / max(abs(plain), 1e-300) if plain != 0.0 else abs(fast - plain)
        print(f"chamfer_sym             = {plain!r}")
        print(f"relative difference     = {rel:.3e}")
    return 0


def _cmd_export(args) -> int:
    records = read_records_csv(args.records)
    emit_figures_csv(records, args.out)
    print(f"figure CSVs written -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pqossim", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-offline", help="per-episode fixed actions, round-robin")
    _add_common(p)
    p.add_argument("--checkpoint", type=Path, help="warm-start weights")
    p.set_defaults(func=_cmd_train_offline)

    p = sub.add_parser("train-online", help="per-step epsilon-greedy training")
    _add_common(p)
    p.add_argument("--checkpoint", type=Path, help="warm-start weights")
    p.set_defaults(func=_cmd_train_online)

    p = sub.add_parser("test", help="frozen-policy evaluation")
    _add_common(p)
    p.add_argument("--policy", default="dql", help="'dql' or 'constant:<mode id>'")
    p.add_argument("--checkpoint", type=Path, help="weights for --policy dql")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("validate-metric", help="chamfer distance between two cloud files")
    p.add_argument("reference", type=Path)
    p.add_argument("candidate", type=Path)
    p.set_defaults(func=_cmd_validate_metric)

    p = sub.add_parser("export", help="rebuild figure CSVs from a records.csv")
    p.add_argument("--records", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

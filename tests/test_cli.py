import numpy as np
import pytest

from pqossim.cli import main
from pqossim.dqn import DEFAULT_LAYER_SIZES, AgentConfig, DqnAgent
from pqossim.harness import FIGURE_FILES


def write_tiny_config(tmp_path, n_vehicles=1):
    path = tmp_path / "exp.cfg"
    path.write_text(
        f"""
sim.n_vehicles = {n_vehicles}
sim.episode_duration_s = 2.0
run.offline_episodes = 3
run.online_episodes = 3
run.test_episodes = 2
"""
    )
    return path


def test_full_cli_pipeline(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out_off = tmp_path / "off"
    assert main(
        ["train-offline", "--config", str(cfg), "--profile", "quick", "--seed", "3", "--out", str(out_off)]
    ) == 0
    assert (out_off / "checkpoint.npz").exists()
    assert (out_off / "resolved_config.txt").exists()

    out_on = tmp_path / "on"
    assert main(
        [
            "train-online",
            "--config", str(cfg),
            "--profile", "quick",
            "--seed", "3",
            "--checkpoint", str(out_off / "checkpoint.npz"),
            "--out", str(out_on),
        ]
    ) == 0

    out_test = tmp_path / "test"
    assert main(
        [
            "test",
            "--config", str(cfg),
            "--profile", "quick",
            "--seed", "3",
            "--policy", "dql",
            "--checkpoint", str(out_on / "checkpoint.npz"),
            "--out", str(out_test),
        ]
    ) == 0
    for name in ("records.csv", *FIGURE_FILES):
        assert (out_test / name).exists()

    out_export = tmp_path / "figs"
    assert main(
        ["export", "--records", str(out_test / "records.csv"), "--out", str(out_export)]
    ) == 0
    for name in FIGURE_FILES:
        assert (out_export / name).read_bytes() == (out_test / name).read_bytes()
    capsys.readouterr()


def test_cli_constant_policy(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "t1452"
    code = main(
        ["test", "--config", str(cfg), "--profile", "quick", "--seed", "1",
         "--policy", "constant:1452", "--out", str(out)]
    )
    assert code == 0
    assert "constant:1452" in capsys.readouterr().out


def test_cli_episode_and_vehicle_flags(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "t"
    assert main(
        ["test", "--config", str(cfg), "--profile", "quick", "--seed", "1",
         "--policy", "constant:1450", "--episodes", "1", "--vehicles", "2", "--out", str(out)]
    ) == 0
    lines = (out / "records.csv").read_text().splitlines()
    assert len(lines) == 1 + 20 * 2  # header + steps * vehicles
    capsys.readouterr()


def test_cli_validate_metric(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    cand = tmp_path / "cand.txt"
    ref.write_text("0 0 0\n")
    cand.write_text("1 0 0\n")
    assert main(["validate-metric", str(ref), str(cand)]) == 0
    out = capsys.readouterr().out
    assert "chamfer_sym_accelerated = 2.0" in out
    assert "chamfer_sym             = 2.0" in out


def test_cli_errors(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    # dql without checkpoint
    assert main(
        ["test", "--config", str(cfg), "--policy", "dql", "--out", str(tmp_path / "x")]
    ) == 2
    # malformed policy
    assert main(
        ["test", "--config", str(cfg), "--policy", "always:1450", "--out", str(tmp_path / "y")]
    ) == 2
    # unknown mode id
    assert main(
        ["test", "--config", str(cfg), "--policy", "constant:7", "--out", str(tmp_path / "z")]
    ) == 2
    # malformed cloud file
    bad = tmp_path / "bad.txt"
    bad.write_text("not a cloud\n")
    good = tmp_path / "good.txt"
    good.write_text("0 0 0\n")
    assert main(["validate-metric", str(bad), str(good)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_export_rejects_short_and_long_rows(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "t"
    assert main(
        ["test", "--config", str(cfg), "--profile", "quick", "--seed", "1",
         "--policy", "constant:1450", "--out", str(out)]
    ) == 0
    lines = (out / "records.csv").read_text().splitlines()
    fields = lines[3].split(",")
    # a run killed mid-write leaves a short last row; here the third data row is cut
    for name, bad_fields in (("short", fields[:10]), ("long", fields + ["1"])):
        bad = tmp_path / f"{name}.csv"
        bad.write_text("\n".join([*lines[:3], ",".join(bad_fields), *lines[4:]]) + "\n")
        capsys.readouterr()
        assert main(["export", "--records", str(bad), "--out", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}:4: expected 18 fields, got {len(bad_fields)}\n"
        assert not (tmp_path / name).exists()


def test_cli_export_names_the_row_of_a_bad_field(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "t"
    assert main(
        ["test", "--config", str(cfg), "--profile", "quick", "--seed", "1",
         "--policy", "constant:1450", "--out", str(out)]
    ) == 0
    lines = (out / "records.csv").read_text().splitlines()
    reward = lines[0].split(",").index("reward")
    delay = lines[0].split(",").index("delay_mean")
    cases = (
        ("oversized", -1, "x" * 131_073, "field larger than field limit (131072)"),
        ("nan", reward, "nan", "raw reward must be in [0, 1], got nan"),
        ("above", reward, "1.5", "raw reward must be in [0, 1], got 1.5"),
        ("nan_delay", delay, "nan", "delay_mean must be finite and >= 0, got nan"),
        ("inf_delay", delay, "inf", "delay_mean must be finite and >= 0, got inf"),
        ("negative_delay", delay, "-5.0", "delay_mean must be finite and >= 0, got -5.0"),
    )
    for name, column, value, message in cases:
        fields = lines[3].split(",")
        fields[column] = value
        bad = tmp_path / f"{name}.csv"
        bad.write_text("\n".join([*lines[:3], ",".join(fields), *lines[4:]]) + "\n")
        capsys.readouterr()
        assert main(["export", "--records", str(bad), "--out", str(tmp_path / name)]) == 2
        assert capsys.readouterr().err == f"error: {bad}:4: {message}\n"
        assert not (tmp_path / name).exists()


def test_cli_export_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, n_vehicles=5)
    out = tmp_path / "t"
    assert main(
        ["test", "--config", str(cfg), "--profile", "quick", "--seed", "1",
         "--policy", "constant:1450", "--out", str(out)]
    ) == 0
    lines = (out / "records.csv").read_bytes().split(b"\n")
    assert sum(map(len, lines)) > 2 * 8192  # the file is decoded a chunk at a time, so span a few
    for line in (1, 4, len(lines) // 2, len(lines) - 1):
        bad_lines = list(lines)
        bad_lines[line - 1] = bad_lines[line - 1][:5] + b"\xff" + bad_lines[line - 1][5:]
        bad = tmp_path / f"line{line}.csv"
        bad.write_bytes(b"\n".join(bad_lines))
        capsys.readouterr()
        assert main(["export", "--records", str(bad), "--out", str(tmp_path / bad.stem)]) == 2
        assert capsys.readouterr().err == f"error: {bad}:{line}: not UTF-8 text (invalid start byte)\n"
        assert not (tmp_path / bad.stem).exists()


def test_cli_alpha_flag(tmp_path):
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "t"
    assert main(
        ["test", "--config", str(cfg), "--profile", "quick", "--seed", "1",
         "--policy", "constant:1450", "--alpha", "1.0", "--out", str(out)]
    ) == 0
    text = (out / "resolved_config.txt").read_text()
    assert "reward.alpha = 1.0" in text


def test_cli_rejects_infinite_config_values(tmp_path, capsys):
    for line in ("sim.episode_duration_s = inf", "sim.frame_rate_hz = inf"):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(line + "\n")
        capsys.readouterr()
        code = main(
            ["test", "--config", str(cfg), "--profile", "quick", "--policy", "constant:1452",
             "--episodes", "1", "--out", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err
        key = line.split(" = ")[0]
        assert err == f"error: {cfg}:1: {key} must be a finite number, got 'inf'\n"


def test_cli_dql_test_checks_the_frozen_weights(tmp_path, monkeypatch, capsys):
    import pqossim.cli as cli
    from pqossim.dqn import DqnAgent

    cfg = write_tiny_config(tmp_path)
    out_off = tmp_path / "off"
    assert main(
        ["train-offline", "--config", str(cfg), "--profile", "quick", "--seed", "3", "--out", str(out_off)]
    ) == 0
    seen = []
    real_run_test = cli.run_test

    def spy(config, output_dir, policy, agent=None):
        seen.append((policy, agent))
        return real_run_test(config, output_dir, policy, agent)

    monkeypatch.setattr(cli, "run_test", spy)
    assert main(
        ["test", "--config", str(cfg), "--profile", "quick", "--seed", "3", "--policy", "dql",
         "--checkpoint", str(out_off / "checkpoint.npz"), "--out", str(tmp_path / "test")]
    ) == 0
    (policy, agent), = seen
    assert isinstance(agent, DqnAgent)
    assert policy.net is agent.online
    capsys.readouterr()


def test_cli_rejects_bandwidth_without_resource_elements(tmp_path, capsys):
    for value in ("0.01", "1e308"):
        cfg = tmp_path / "bw.cfg"
        cfg.write_text(f"sim.bandwidth_mhz = {value}\n")
        capsys.readouterr()
        code = main(
            ["test", "--config", str(cfg), "--profile", "quick", "--policy", "constant:1452",
             "--episodes", "1", "--out", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bandwidth_mhz = {float(value)} gives no finite"), err
        assert err.count("\n") == 1


def test_cli_rejects_a_batch_larger_than_the_replay_ring(tmp_path, capsys):
    cfg = tmp_path / "agent.cfg"
    cfg.write_text("agent.batch_size = 20\nagent.replay_capacity = 10\n")
    capsys.readouterr()
    code = main(
        ["train-offline", "--config", str(cfg), "--profile", "quick", "--episodes", "1",
         "--out", str(tmp_path / "out")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: agent.batch_size (20) must be <= replay_capacity (10)"), err
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / "checkpoint.npz").exists()


def test_cli_rejects_truncated_checkpoint(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out_off = tmp_path / "off"
    assert main(
        ["train-offline", "--config", str(cfg), "--profile", "quick", "--seed", "3", "--out", str(out_off)]
    ) == 0
    whole = (out_off / "checkpoint.npz").read_bytes()
    torn = tmp_path / "torn.npz"
    for cut in (whole[: len(whole) // 2], whole[:-30]):
        torn.write_bytes(cut)
        for command in (["train-online"], ["test", "--policy", "dql"]):
            capsys.readouterr()
            code = main(
                [*command, "--config", str(cfg), "--profile", "quick", "--checkpoint", str(torn),
                 "--out", str(tmp_path / "out")]
            )
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {torn}: ") and err.count("\n") == 1, err


def test_cli_rejects_unreadable_and_remapped_checkpoints(tmp_path, capsys):
    """Every command that loads a checkpoint refuses these with one line, exit 2."""
    cfg = write_tiny_config(tmp_path)
    out_off = tmp_path / "off"
    assert main(
        ["train-offline", "--config", str(cfg), "--profile", "quick", "--seed", "3", "--out", str(out_off)]
    ) == 0
    saved = out_off / "checkpoint.npz"
    # a compression method zipfile does not know, in every member
    unknown = tmp_path / "unknown.npz"
    data = bytearray(saved.read_bytes())
    at = data.find(b"PK\x01\x02")
    while at >= 0:
        data[at + 10 : at + 12] = (99).to_bytes(2, "little")
        at = data.find(b"PK\x01\x02", at + 4)
    unknown.write_bytes(bytes(data))
    # the same weights, their action indices now naming other modes
    remapped = tmp_path / "remapped.npz"
    with np.load(saved) as arrays:
        arrays = dict(arrays)
    arrays["action_mode_ids"] = arrays["action_mode_ids"][::-1]
    with open(remapped, "wb") as fh:
        np.savez(fh, **arrays)
    for path, reason in ((unknown, "cannot read checkpoint"), (remapped, "checkpoint action mapping")):
        for command in (["train-offline"], ["train-online"], ["test", "--policy", "dql"]):
            capsys.readouterr()
            code = main(
                [*command, "--config", str(cfg), "--profile", "quick", "--checkpoint", str(path),
                 "--out", str(tmp_path / "out")]
            )
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: {reason}") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "command,config_line,key",
    [
        (["test", "--policy", "constant:1452", "--seed", "-1"], None, "sim.rng_seed"),
        (["test", "--policy", "constant:1452", "--episodes", "0"], None, "run.test_episodes"),
        (["test", "--policy", "constant:1452"], "run.test_episodes = 0", "run.test_episodes"),
        (["train-offline"], "agent.rng_seed = -2", "agent.rng_seed"),
    ],
)
def test_cli_rejects_bad_seeds_and_run_lengths_before_any_output(tmp_path, capsys, command, config_line, key):
    args = [*command, "--profile", "quick", "--out", str(tmp_path / "out")]
    if config_line is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config_line + "\n")
        args += ["--config", str(cfg)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be >= ") and err.count("\n") == 1, err
    assert not (tmp_path / "out" / "resolved_config.txt").exists()


@pytest.mark.parametrize("table", ["missing", "directory", "malformed"])
def test_cli_rejects_a_bad_mcs_table_before_any_output(tmp_path, capsys, table):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 0.5\n0.5 0.7\n")  # thresholds not increasing
    path = {"missing": tmp_path / "missing.txt", "directory": tmp_path, "malformed": bad}[table]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"channel.mcs_table_path = {path}\n")
    out = tmp_path / "out"
    for command in (["train-offline"], ["train-online"], ["test", "--policy", "constant:1452"]):
        capsys.readouterr()
        code = main([*command, "--config", str(cfg), "--profile", "quick", "--episodes", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert not out.exists()


def _rewrite(path, layer_sizes=DEFAULT_LAYER_SIZES, **fields) -> None:
    """Save a fresh agent's checkpoint at `path`, with `fields` put in its arrays."""
    DqnAgent(AgentConfig(), layer_sizes).save(path)
    with np.load(path) as data:
        arrays = {**data, **fields}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


# content -> what the one error line says after the path
BAD_CHECKPOINTS = {
    "missing": "cannot read checkpoint",
    "junk": "cannot read checkpoint",
    "npy": "cannot read checkpoint",
    "version-1": "unsupported checkpoint version 1",
    "other-network": "checkpoint network (5, 12, 6, 3) does not map 8 features to 3 actions",
    "negative-step": "checkpoint step_count -3 < 0",
    "nan-params": "params holds a NaN or infinite value",
    "inf-moments": "moments holds a NaN or infinite value",
}


@pytest.mark.parametrize("content", BAD_CHECKPOINTS)
def test_cli_rejects_a_bad_checkpoint_before_any_output(tmp_path, capsys, content):
    checkpoint = tmp_path / "ckpt.npz"
    if content == "junk":
        checkpoint.write_bytes(b"junk")
    elif content == "npy":
        with open(checkpoint, "wb") as fh:
            np.save(fh, np.arange(3))  # one bare array, not an archive
    elif content == "version-1":
        _rewrite(checkpoint, format_version=np.int64(1))
    elif content == "other-network":
        _rewrite(checkpoint, layer_sizes=(5, 12, 6, 3))  # a whole agent of another cell
    elif content == "negative-step":
        _rewrite(checkpoint, step_count=np.int64(-3))
    elif content in ("nan-params", "inf-moments"):
        rows = DqnAgent(AgentConfig())._params.copy()
        if content == "nan-params":
            rows[0] = np.nan  # the online network, which picks every action
            _rewrite(checkpoint, params=rows)
        else:
            rows[1, :] = np.inf
            _rewrite(checkpoint, moments=rows)
    out = tmp_path / "out"
    for command in (["train-offline"], ["train-online"], ["test", "--policy", "dql"]):
        capsys.readouterr()
        code = main(
            [*command, "--profile", "quick", "--episodes", "1", "--checkpoint", str(checkpoint), "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {checkpoint}: {BAD_CHECKPOINTS[content]}") and err.count("\n") == 1, err
        assert not out.exists()


def test_cli_test_reads_the_mcs_table_once(tmp_path, monkeypatch, capsys):
    import builtins
    import io

    from pqossim.link import DEFAULT_MCS_TABLE

    table = tmp_path / "mcs.txt"
    table.write_text("".join(f"{sinr} {eff}\n" for sinr, eff in DEFAULT_MCS_TABLE.tolist()))
    cfg = write_tiny_config(tmp_path)
    cfg.write_text(cfg.read_text() + f"channel.mcs_table_path = {table}\n")
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(table):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    assert main(
        ["test", "--config", str(cfg), "--profile", "quick", "--policy", "constant:1452",
         "--episodes", "1", "--out", str(tmp_path / "t")]
    ) == 0
    # validation reads it, and the env runs the table validation read
    assert len(opened) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["test", "validate-metric"])
def test_cli_names_a_config_or_cloud_file_that_is_not_utf8(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    out = tmp_path / "out"
    good = tmp_path / "ok.xyz"
    good.write_text("0 0 0\n")
    if command == "test":
        bad.write_bytes(b"sim.n_vehicles = 1\n# caf\xff\nrun.test_episodes = 1\n")
        args = ["test", "--config", str(bad), "--profile", "quick", "--policy", "constant:1452", "--out", str(out)]
    else:
        bad.write_bytes(b"0 0 0\n1 \xff 0\n")
        args = ["validate-metric", str(bad), str(good)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {bad}:2: not UTF-8 text (invalid start byte)\n"
    assert not out.exists()
    # a file that is missing is still an i/o error
    args[args.index(str(bad))] = str(tmp_path / "missing.txt")
    assert main(args) == 3
    assert not out.exists()
    capsys.readouterr()

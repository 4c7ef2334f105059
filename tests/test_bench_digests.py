"""The benchmark's reference digests hold for the library as it is.

`benchmarks/digests.json` pins the CSV bytes of one round of every benchmark
workload at its reference seeds. This builds each workload at seed 0 with
the benchmark's own code, runs one round into a temporary directory and
compares every CSV digest, the test sweep's set-up training included. It
covers what the golden test does not: one and five vehicles over
200-period episodes.
"""

import json
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize("workload", ["train-n1", "train-n5", "test-sweep-n5"])
def test_seed0_round_matches_the_benchmark_digests(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(_BENCH))
    import checks
    import worker

    golden = json.loads((_BENCH / "digests.json").read_text())["workloads"][workload]
    params = worker.WORKLOADS[workload]
    setup_dir = tmp_path / "setup"
    load = worker.WORKLOAD_CLASSES[params["kind"]](worker.import_library(), params, 0, setup_dir)
    load.run(tmp_path / "round")
    assert checks.digest_tree(tmp_path / "round") == golden["seed0"]
    if load.setup_specs:
        assert checks.digest_tree(setup_dir) == golden["setup"]

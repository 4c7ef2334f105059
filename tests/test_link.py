import numpy as np
import pytest

from pqossim.errors import ConfigError
from pqossim.link import DEFAULT_MCS_TABLE, McsTable, load_mcs_table


def lookup_one(sinr_db, table=McsTable()):
    idx, eff = table.lookup(sinr_db)
    return int(idx), float(eff)


def test_outage_floor():
    assert lookup_one(-50.0) == (0, 0.0)
    assert lookup_one(1.94) == (0, 0.0)


def test_saturation_at_top_entry():
    idx, eff = lookup_one(100.0)
    assert idx == len(DEFAULT_MCS_TABLE) - 1
    assert eff == DEFAULT_MCS_TABLE[-1, 1]


def test_thresholds_are_inclusive_lower_bounds():
    for k, (thr, eff) in enumerate(DEFAULT_MCS_TABLE):
        assert lookup_one(thr) == (k, eff)


def test_efficiency_monotone_over_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        s1, s2 = sorted(rng.uniform(-20.0, 50.0, size=2))
        assert lookup_one(s1)[1] <= lookup_one(s2)[1]


def test_vectorized_lookup_matches_scalar():
    rng = np.random.default_rng(1)
    table = McsTable()
    sinr = rng.uniform(-20.0, 50.0, size=200)
    idx, eff = table.lookup(sinr)
    for i, s in enumerate(sinr):
        assert (idx[i], eff[i]) == lookup_one(float(s), table)


@pytest.mark.parametrize(
    "table",
    [
        [[1.0, 0.5], [1.0, 0.7]],  # non-increasing threshold
        [[1.0, 0.5], [2.0, 0.5]],  # non-increasing efficiency
        [[1.0, -0.5]],  # negative efficiency
        [[1.0, 0.5, 3.0]],  # wrong shape
        [[1.0, 0.5], [np.nan, 0.7]],  # not finite
    ],
)
def test_bad_tables_rejected(table):
    with pytest.raises(ConfigError):
        McsTable(np.array(table, dtype=float))


def test_load_mcs_table_roundtrip(tmp_path):
    path = tmp_path / "mcs.txt"
    lines = "\n".join(f"{t} {e}" for t, e in DEFAULT_MCS_TABLE)
    path.write_text(lines + "\n")
    table = load_mcs_table(path)
    assert np.array_equal(table.thresholds, DEFAULT_MCS_TABLE[:, 0])
    assert np.array_equal(table.efficiencies, DEFAULT_MCS_TABLE[:, 1])


def test_load_mcs_table_malformed(tmp_path):
    path = tmp_path / "mcs.txt"
    path.write_text("not numbers\n")
    with pytest.raises(ConfigError):
        load_mcs_table(path)
    path.write_text("")
    with pytest.raises(ConfigError):
        load_mcs_table(path)


@pytest.mark.parametrize("name", ["missing.txt", ".", "nul\0name.txt", "latin1.txt"])
def test_an_unreadable_mcs_table_is_a_config_error(tmp_path, name):
    # a missing file, a directory, a name the OS cannot take and bytes that
    # do not decode all fail as one ConfigError naming the path
    (tmp_path / "latin1.txt").write_bytes(b"1.0 0.5\n\xff\xfe 0.7\n")
    path = f"{tmp_path}/{name}"
    with pytest.raises(ConfigError, match="cannot read MCS table|malformed MCS table") as caught:
        load_mcs_table(path)
    assert str(caught.value).startswith(f"{path}: ")

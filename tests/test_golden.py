"""Every deterministic output file keeps the bytes recorded in golden.json.

The digests are keyed by numpy's BLAS build (``regen_golden.host_key``). A
host without an entry fails rather than skips: a skip would let a changed
byte pass unseen.
"""

import pytest

import regen_golden
from fednoisy import cli, client
from fednoisy.config import build_config, build_datasets


def test_outputs_keep_their_recorded_digests(tmp_path):
    golden = regen_golden.read_golden()
    key = regen_golden.host_key()
    assert key in golden, (
        f"tests/golden.json has no digests for this host's key {key!r}; it "
        f"has {sorted(golden)}. Record them with {regen_golden.REGEN_COMMAND}")
    want = golden[key]
    got = regen_golden.output_digests(str(tmp_path))
    changed = sorted(p for p in want.keys() & got.keys() if want[p] != got[p])
    assert not changed, f"changed bytes: {changed}"
    assert got.keys() == want.keys(), (
        f"missing: {sorted(want.keys() - got.keys())}, "
        f"new: {sorted(got.keys() - want.keys())}")


@pytest.mark.parametrize("name", regen_golden.DUAL_CONFIGS)
def test_dual_configs_start_on_the_dual_path(name, tmp_path):
    cfg = build_config(dict(regen_golden.CONFIGS[name], out_dir=str(tmp_path)))
    exp = cli._experiment(cfg, *build_datasets(cfg))
    shapes = exp.global_params.shapes
    assert all(client.takes_dual_path(len(a), shapes, cfg.client)
               for a in exp.assignments)

"""Every deterministic output file keeps the bytes recorded in golden.json.

The digests are keyed by numpy's BLAS build (``regen_golden.host_key``). A
host without an entry fails rather than skips: a skip would let a changed
byte pass unseen.
"""

import regen_golden


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

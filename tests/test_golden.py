import pytest

import golden


def test_runs_reproduce_the_golden_digests(tmp_path):
    fp = golden.fingerprint()
    expected = golden.load().get(fp)
    if expected is None:
        pytest.skip(f"no golden digests for {fp!r}; record them with PYTHONPATH=src python tests/golden.py")
    got = golden.digests(str(tmp_path))
    changed = [f"{run}.{out}" for run in expected for out in expected[run] if got.get(run, {}).get(out) != expected[run][out]]
    assert got.keys() == expected.keys()
    assert not changed, "outputs whose bytes changed: " + ", ".join(changed)

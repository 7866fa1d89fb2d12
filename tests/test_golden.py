import json

from make_golden import GOLDEN, seeded_run


def test_seeded_run_matches_the_golden_record(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = seeded_run(tmp_path)
    assert got["i2i_items"] > 0, "the golden corpus must exercise the I2I tier"
    where = ("" if got["environment"] == want["environment"] else
             f"; the record was made under another numpy/BLAS/CPU: {want['environment']}, "
             f"this run: {got['environment']}")
    missing = object()
    for part in ("gen-synthetic", "i2i_items", "metrics", "artifacts", "outputs"):
        mine, theirs = got[part], want[part]
        if isinstance(mine, dict) and isinstance(theirs, dict):
            keys = sorted(key for key in mine.keys() | theirs.keys()
                          if mine.get(key, missing) != theirs.get(key, missing))
            assert not keys, f"{part} differ: {keys} from {GOLDEN.name}{where}"
        assert mine == theirs, f"{part} differ from {GOLDEN.name}{where}"

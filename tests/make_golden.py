"""Golden record of one small seeded run, for checking that a change keeps
the pipeline bit-identical.

The record holds `EvalReport.metrics()`, the SHA-256 of every stage
artifact, of the `decode` output on the clicked test rows and of the
`expand` output for each variant, plus the numpy build and CPU features it
was made under (BLAS and SIMD paths can change the last bits of a float).

    PYTHONPATH=src python tests/make_golden.py

rewrites tests/golden/seeded_run.json. Regenerate it only in a change that
means to move the numbers, and say why there.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from higen import cli
from higen.evaluate import EvalReport

GOLDEN = Path(__file__).parent / "golden" / "seeded_run.json"
# a corpus small enough for Tier-1 whose users revisit items, so the I2I
# table is not empty and every expansion variant has work to do
CORPUS_ARGS = ["--items", "60", "--categories", "6", "--train-queries", "120",
               "--test-queries", "30", "--users", "4", "--seed", "0"]
ARTIFACTS = ("atomic.jsonl", "embed.ckpt.json", "fusion.jsonl", "fusion.ckpt.json",
             "index.json", "decoder.ckpt.json", "i2i.jsonl")
VARIANTS = ("direct", "cluster-2", "i2i", "cluster-2-i2i")


def environment() -> dict:
    """The numpy version, its BLAS build and the CPU features it dispatches on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:     # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
            "cpu_features": sorted(name for name, on in __cpu_features__.items() if on)}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def seeded_run(out: Path) -> dict:
    """Generate the corpus under out, run every stage, decode the clicked test
    rows and expand them with each variant; returns the record."""
    assert cli.main(["gen-synthetic", "--out", str(out), *CORPUS_ARGS]) == 0
    assert cli.main(["run-all", "--config", str(out / "config.json")]) == 0
    work = out / "work"

    queries = out / "queries.jsonl"
    test_lines = (out / "test.jsonl").read_text().splitlines()
    queries.write_text("".join(line + "\n" for line in test_lines
                               if json.loads(line)["click"] == 1))
    decoded = out / "decoded.jsonl"
    assert cli.main(["decode", "--index", str(work / "index.json"),
                     "--checkpoint", str(work / "decoder.ckpt.json"),
                     "--input", str(queries), "--output", str(decoded)]) == 0
    outputs = {"decode": sha256(decoded)}
    for variant in VARIANTS:
        expanded = out / f"expand.{variant}.jsonl"
        assert cli.main(["expand", "--index", str(work / "index.json"), "--variant", variant,
                         "--i2i", str(work / "i2i.jsonl"), "--input", str(decoded),
                         "--output", str(expanded)]) == 0
        outputs[f"expand {variant}"] = sha256(expanded)

    return {
        "gen-synthetic": CORPUS_ARGS,
        "environment": environment(),
        "i2i_items": sum(1 for line in (work / "i2i.jsonl").read_text().splitlines() if line),
        "metrics": EvalReport.load(work / "report.json").metrics(),
        "artifacts": {name: sha256(work / name) for name in ARTIFACTS},
        "outputs": outputs,
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        record = seeded_run(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"golden record written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Retrieval metrics and the machine-readable evaluation report."""

from __future__ import annotations

from dataclasses import dataclass, field

from .data import read_json, write_json
from .errors import ConfigError


def recall_at_k(predictions: dict, truths: dict, k: int) -> float:
    """Fraction of queries whose truth set intersects the top-k predictions.

    predictions: query key -> ranked item list; truths: query key -> item or
    collection of items (any hit counts).
    """
    if k < 1:
        raise ConfigError("recall_at_k needs k >= 1")
    if not truths:
        return 0.0
    hits = 0
    for key, truth in truths.items():
        truth_set = {truth} if isinstance(truth, str) else set(truth)
        ranked = predictions.get(key, [])
        if truth_set & set(ranked[:k]):
            hits += 1
    return hits / len(truths)


def recall_curve(predictions: dict, truths: dict, ks) -> dict[int, float]:
    return {int(k): recall_at_k(predictions, truths, int(k)) for k in ks}


@dataclass
class EvalReport:
    """Everything needed to reproduce and compare a pipeline run: held-in,
    test and zero-shot recall curves, the merged set size, the share of merged
    entries from each recall source, warnings about the run and the run's
    config. `load` refuses a report with a field not listed here."""

    recall: dict[int, float] = field(default_factory=dict)        # held-in queries
    recall_num: float = 0.0                                       # mean merged set size
    expanded_recall: float | None = None                          # truth in merged set
    test_recall: dict[int, float] | None = None
    zero_shot_recall: dict[int, float] | None = None
    zero_shot_removed_fraction: float | None = None
    i2i_items: int = 0                                            # items in the I2I table
    recall_source_mix: dict[str, float] = field(default_factory=dict)   # source -> share
    warnings: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    skipped_stages: list[str] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def metrics(self) -> dict:
        """The deterministic part of the report (no timings)."""
        return {
            "recall": {str(k): v for k, v in sorted(self.recall.items())},
            "recall_num": self.recall_num,
            "expanded_recall": self.expanded_recall,
            "test_recall": None if self.test_recall is None else
            {str(k): v for k, v in sorted(self.test_recall.items())},
            "zero_shot_recall": None if self.zero_shot_recall is None else
            {str(k): v for k, v in sorted(self.zero_shot_recall.items())},
            "zero_shot_removed_fraction": self.zero_shot_removed_fraction,
        }

    def to_json(self) -> dict:
        return self.metrics() | {"i2i_items": self.i2i_items,
                                 "recall_source_mix": self.recall_source_mix,
                                 "warnings": self.warnings, "timings": self.timings,
                                 "skipped_stages": self.skipped_stages,
                                 "config": self.config}

    def save(self, path) -> None:
        write_json(path, self.to_json(), indent=2)

    @classmethod
    def load(cls, path) -> "EvalReport":
        curves = ("recall", "test_recall", "zero_shot_recall")
        return read_json(path, {"recall": dict, "recall_num": float}, decode=lambda d: cls(
            **d | {k: {int(j): v for j, v in d[k].items()} for k in curves if d.get(k)}))

    def summary(self) -> str:
        lines = ["evaluation summary"]
        for k in sorted(self.recall):
            lines.append(f"  recall@{k}: {self.recall[k]:.4f}")
        lines.append(f"  recall_num: {self.recall_num:.1f}")
        if self.expanded_recall is not None:
            lines.append(f"  expanded_recall: {self.expanded_recall:.4f}")
        if self.test_recall:
            for k in sorted(self.test_recall):
                lines.append(f"  test recall@{k}: {self.test_recall[k]:.4f}")
        if self.zero_shot_recall:
            for k in sorted(self.zero_shot_recall):
                lines.append(f"  zero-shot recall@{k}: {self.zero_shot_recall[k]:.4f}")
            lines.append(f"  zero-shot removed fraction: "
                         f"{self.zero_shot_removed_fraction:.4f}")
        lines.append(f"  i2i_items: {self.i2i_items}")
        if self.recall_source_mix:
            lines.append("  recall source mix: " + ", ".join(
                f"{source} {share:.4f}" for source, share in self.recall_source_mix.items()))
        lines.extend(f"  warning: {w}" for w in self.warnings)
        if self.skipped_stages:
            lines.append(f"  skipped stages: {', '.join(self.skipped_stages)}")
        return "\n".join(lines)

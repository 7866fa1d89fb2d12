"""Pipeline configuration (published defaults, a desk-scale preset, env-var
overrides (HIGEN_*), validation) and the one dataclass<->JSON round trip,
used by `PipelineConfig` and by the configs and vocabularies in checkpoints.

The length of each docID's semantic prefix is not configured: the index
stores it per docID, as the length of the item's category path (0 without
category clustering)."""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass

from .data import read_json
from .errors import ConfigError, DataError

ENV_PREFIX = "HIGEN_"


def to_json(obj) -> dict:
    """The fields of a dataclass in declaration order, tuples as lists."""
    return {f.name: list(v) if isinstance(v := getattr(obj, f.name), tuple) else v
            for f in dataclasses.fields(obj)}


def _typed(name: str, value, default):
    """value checked against the field's default: a list for a tuple (returned
    as a tuple), a finite int or float for a float, a bool only for a bool; no
    default, any."""
    if isinstance(default, tuple):
        if isinstance(value, (list, tuple)):
            return tuple(_typed(name, v, default[0]) for v in value)
        kind = "list"
    else:
        kind = type(default).__name__
        wanted = (int, float) if kind == "float" else type(default)
        if default is dataclasses.MISSING or \
                isinstance(value, wanted) and isinstance(value, bool) == (kind == "bool"):
            if kind != "float" or abs(value) <= sys.float_info.max:
                return value
            kind = "finite float"
    raise ConfigError(f"config field '{name}' expects {kind}, got {value!r}")


def from_json(cls, d: dict):
    """The dataclass cls from the JSON object d; unknown keys are errors."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return cls(**{k: _typed(k, v, defaults[k]) for k, v in d.items()})


# sizes and counts that must be at least 1
SIZE_FIELDS = ("batch_embed", "epochs_embed", "embed_dim", "d_k", "d_u", "query_len",
               "context_len", "sem_len", "batch_metric", "epochs_metric", "fusion_dim",
               "kmeans_k", "max_cluster", "batch_decoder", "epochs_decoder", "dec_emb",
               "dec_model", "i2i_top_n")


@dataclass
class PipelineConfig:
    # data
    catalog_path: str = ""
    train_path: str = ""
    test_path: str = ""
    oracle_path: str = ""
    workdir: str = "work"
    data_schema: str = "jsonl"
    seed: int = 0
    stages: tuple[str, ...] = ("embed", "metric", "docids", "decoder", "eval")

    # embedding model
    lr_embed: float = 1e-4
    batch_embed: int = 512
    epochs_embed: int = 10
    embed_dim: int = 256        # tower output and atomic embedding width
    d_k: int = 32               # attention token width
    d_u: int = 32
    embed_hidden: tuple[int, ...] = (64,)
    tau: float = 0.2
    w_c: float = 1.0
    query_len: int = 4
    context_len: int = 4
    sem_len: int = 4

    # metric learning
    lr_metric: float = 1e-5
    batch_metric: int = 10
    epochs_metric: int = 5
    fusion_dim: int = 768
    fusion_hidden: tuple[int, ...] = (64,)
    margin: float = 0.1
    cap_per_pv: int = 20

    # docID generation
    kmeans_k: int = 10
    max_cluster: int = 100
    docid_max_len: int = 8
    category_clustering: bool = True

    # decoder
    lr_decoder: float = 5e-5
    batch_decoder: int = 64
    epochs_decoder: int = 10
    dec_emb: int = 24
    dec_model: int = 48
    dec_hidden: tuple[int, ...] = (64,)
    lambda_h: float = 0.8
    lambda_s: float = 0.1
    lambda_e: float = 0.1
    position_aware: bool = True

    # serving / evaluation
    beam_width: int = 10
    topk: int = 10
    eval_ks: tuple[int, ...] = (1, 5, 10)
    variant: str = "direct"
    cap: int = 5000
    i2i_alpha: float = 1.0
    i2i_top_n: int = 50
    per_seed_n: int = 10

    @classmethod
    def desk(cls, **overrides) -> "PipelineConfig":
        """Small dims and aggressive learning rates sized for toy corpora."""
        base = dict(
            lr_embed=5e-3, batch_embed=64, epochs_embed=30, embed_dim=32, d_k=16, d_u=16,
            lr_metric=3e-3, batch_metric=32, epochs_metric=10, fusion_dim=64,
            kmeans_k=4, max_cluster=8,
            lr_decoder=8e-3, batch_decoder=32, epochs_decoder=120,
            dec_emb=24, dec_model=48,
            beam_width=16, topk=10, variant="cluster-2-i2i",
        )
        base.update(overrides)
        return cls(**base)

    def validate(self) -> "PipelineConfig":
        checks = [
            (self.lr_embed > 0 and self.lr_metric > 0 and self.lr_decoder > 0,
             "learning rates must be positive"),
            *((getattr(self, name) >= 1, f"{name} must be >= 1") for name in SIZE_FIELDS),
            *((all(v >= 1 for v in getattr(self, name)), f"every {name} entry must be >= 1")
              for name in ("embed_hidden", "fusion_hidden", "dec_hidden")),
            (self.seed >= 0, "seed must be >= 0"),
            (self.tau > 0, "tau must be positive"),
            (self.w_c >= 0, "w_c must be >= 0"),
            (self.margin > 0, "margin must be positive"),
            (self.docid_max_len >= 2, "docid_max_len must fit a cluster and an ordinal token"),
            (all(v >= 0 for v in (self.lambda_h, self.lambda_s, self.lambda_e)),
             "lambda weights must be >= 0"),
            (1 <= self.topk <= self.beam_width, "need beam_width >= topk >= 1"),
            (len(self.eval_ks) >= 1 and all(k >= 1 for k in self.eval_ks),
             "eval_ks must be a non-empty list of ks >= 1"),
            (all(k <= self.topk for k in self.eval_ks),
             f"every eval_ks entry must be <= topk ({self.topk}); recall stops there"),
            (self.cap >= 0, "cap must be >= 0"),
            (self.i2i_alpha > 0, "i2i_alpha must be positive"),
            (self.per_seed_n >= 0, "per_seed_n must be >= 0"),
            (self.data_schema in ("jsonl", "tsv"), "data_schema must be jsonl or tsv"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        variant_parse(self.variant)   # raises ConfigError on bad syntax
        return self

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        return from_json(cls, d)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            d = read_json(path)
        except DataError as exc:
            raise ConfigError(str(exc)) from None
        return cls.from_dict(d)

    def apply_env(self, environ=None) -> "PipelineConfig":
        """HIGEN_<FIELD>=value overrides, parsed as JSON when possible."""
        environ = os.environ if environ is None else environ
        defaults = {f.name: f.default for f in dataclasses.fields(self)}
        for key, raw in sorted(environ.items()):
            if not key.startswith(ENV_PREFIX):
                continue
            name = key[len(ENV_PREFIX):].lower()
            if name not in defaults:
                raise ConfigError(f"unknown config field in env var {key}")
            try:
                value = json.loads(raw)
            except ValueError:
                value = raw     # not JSON: the string itself
            setattr(self, name, _typed(name, value, defaults[name]))
        return self

    def echo(self) -> dict:
        return to_json(self)


def variant_parse(variant: str) -> tuple[int | None, bool]:
    """'direct' | 'cluster-K' | 'i2i' | 'cluster-K-i2i' ->
    (cluster prefix length or None, use i2i)."""
    if variant == "direct":
        return None, False
    if variant == "i2i":
        return None, True
    parts = variant.split("-")
    if parts[0] == "cluster" and len(parts) >= 2:
        try:
            k = int(parts[1])
        except ValueError:
            raise ConfigError(f"bad cluster prefix in variant '{variant}'") from None
        if k < 1:
            raise ConfigError(f"cluster prefix must be >= 1 in variant '{variant}'")
        if len(parts) == 2:
            return k, False
        if parts[2:] == ["i2i"]:
            return k, True
    raise ConfigError(f"unknown variant '{variant}'")

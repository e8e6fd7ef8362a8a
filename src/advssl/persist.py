"""JSON persistence for models, normalizers and reports.

Floats are serialized with Python's shortest round-trip repr, so every
64-bit value survives save -> load -> save byte-for-byte. Each model file
embeds the schema (plus its hash) and, when given, the fitted normalizer,
making a saved model self-contained for prediction on raw CSV rows.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .data import DatasetSchema, Normalizer, atomic_write
from .nnet import DenseLayer, MlpParams
from .prm import GbdtModel, LogregParams, PlainModel
from .trainer import AsslConfig, AsslModel
from .tree import RegressionTree

FORMAT_PLAIN = "advssl/plain-model/1"
FORMAT_ASSL = "advssl/assl-model/1"


def write_json(path, payload) -> None:
    """Write sorted, one-space-indented JSON plus a newline, atomically."""
    with atomic_write(path) as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


@contextlib.contextmanager
def _model_file(path):
    """Turn a bad model file's KeyError (missing key), TypeError or
    ValueError (malformed field) into one ValueError naming the file."""
    try:
        yield
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{os.path.basename(str(path))}: {detail}") from None


def mlp_to_dict(mlp: MlpParams) -> list[dict]:
    return [
        {
            "weights": layer.weights.tolist(),
            "bias": layer.bias.tolist(),
            "activation": layer.activation,
        }
        for layer in mlp.layers
    ]


def mlp_from_dict(layers: list[dict]) -> MlpParams:
    return MlpParams([DenseLayer(d["weights"], d["bias"], d["activation"]) for d in layers])


def _schema_block(schema: DatasetSchema) -> dict:
    return {"schema": schema.to_dict(), "schema_hash": schema.schema_hash()}


def _normalizer_block(normalizer: Normalizer | None) -> dict:
    return {"normalizer": None if normalizer is None else normalizer.to_dict()}


def save_plain_model(
    path, model: PlainModel, schema: DatasetSchema, normalizer: Normalizer | None = None
) -> None:
    payload: dict = {
        "format": FORMAT_PLAIN,
        "variant": model.variant,
        "input_dim": model.input_dim,
        "num_classes": model.num_classes,
    }
    payload.update(_schema_block(schema))
    payload.update(_normalizer_block(normalizer))
    if model.variant == "logistic_regression":
        payload["logreg"] = {
            "weights": model.logreg.weights.tolist(),
            "bias": model.logreg.bias.tolist(),
        }
    else:
        payload["gbdt"] = {
            "num_classes": model.gbdt.num_classes,
            "shrinkage": model.gbdt.shrinkage,
            "base_score": model.gbdt.base_score.tolist(),
            "trees": [[t.to_dict() for t in rnd] for rnd in model.gbdt.trees],
            "train_loss": list(model.gbdt.train_loss),
        }
    write_json(path, payload)


def load_model(path, expect: str | None = None) -> tuple[str, tuple]:
    """(format, what load_plain/assl_model returns) of the file, parsed once.
    A format other than expect (when given), a number that is not finite
    (NaN, Infinity, 1e999) or a schema_hash that is not the hash of the
    file's schema is a ValueError."""
    with _model_file(path):
        with open(path, encoding="utf-8") as handle:
            d = json.load(handle, parse_float=_finite, parse_constant=_finite)
        fmt = d.get("format") if isinstance(d, dict) else None
        accepted = (expect,) if expect else (FORMAT_PLAIN, FORMAT_ASSL)
        if fmt not in accepted:
            raise ValueError(f"format {fmt!r} is not {' or '.join(accepted)}")
        schema = DatasetSchema.from_dict(d["schema"])
        if d["schema_hash"] != schema.schema_hash():
            raise ValueError("schema_hash does not match its schema")
        normalizer = None if d["normalizer"] is None else Normalizer.from_dict(d["normalizer"])
        if fmt == FORMAT_PLAIN:
            return fmt, (_plain_model(d), schema, normalizer)
        nets = {name: mlp_from_dict(layers) for name, layers in d["networks"].items()}
        return fmt, (AsslModel(**nets), AsslConfig.from_dict(d["config"]), schema, normalizer)


def load_plain_model(path) -> tuple[PlainModel, DatasetSchema, Normalizer | None]:
    return load_model(path, FORMAT_PLAIN)[1]


def _plain_model(d: dict) -> PlainModel:
    if d["variant"] == "logistic_regression":
        lr = d["logreg"]
        return PlainModel(
            variant="logistic_regression",
            input_dim=int(d["input_dim"]),
            num_classes=int(d["num_classes"]),
            logreg=LogregParams(
                weights=np.asarray(lr["weights"], dtype=np.float64),
                bias=np.asarray(lr["bias"], dtype=np.float64),
            ),
        )
    g = d["gbdt"]
    return PlainModel(
        variant="gbdt",
        input_dim=int(d["input_dim"]),
        num_classes=int(d["num_classes"]),
        gbdt=GbdtModel(
            num_classes=int(g["num_classes"]),
            shrinkage=float(g["shrinkage"]),
            base_score=np.asarray(g["base_score"], dtype=np.float64),
            trees=[[RegressionTree.from_dict(t) for t in rnd] for rnd in g["trees"]],
            train_loss=[float(v) for v in g["train_loss"]],
        ),
    )


def save_assl_model(
    path,
    model: AsslModel,
    cfg: AsslConfig,
    schema: DatasetSchema,
    normalizer: Normalizer | None = None,
) -> None:
    payload: dict = {
        "format": FORMAT_ASSL,
        "config": cfg.to_dict(),
        "networks": {
            "encoder": mlp_to_dict(model.encoder),
            "supervised_head": mlp_to_dict(model.supervised_head),
            "semi_head": mlp_to_dict(model.semi_head),
            "discriminator": mlp_to_dict(model.discriminator),
        },
    }
    payload.update(_schema_block(schema))
    payload.update(_normalizer_block(normalizer))
    write_json(path, payload)


def load_assl_model(path) -> tuple[AsslModel, AsslConfig, DatasetSchema, Normalizer | None]:
    return load_model(path, FORMAT_ASSL)[1]

"""JSON persistence: one dataclass codec, the model files and the JSON writer.

`to_plain(obj)` and `from_plain(tp, raw, where)` map dataclasses (nested,
`X | None`, lists, `tuple[X, ...]`, float64 arrays) to JSON values and back,
driven by their fields and type hints. from_plain rejects an unknown or
missing key or a wrong JSON type with a ConfigError naming the path, as in
`config.prm.gbdt.rounds must be int, got str`; an int given for a float
stays an int, so a config hashes as written. to_plain leaves out a None
field whose default is None, and nothing else. Two classes' JSON is not
their list of fields, so the codec calls their to_dict and their
from_dict(d, from_plain), which decodes each value by the codec's rules:
DatasetSchema (keys "features", "labels") and TreeNode (a leaf {"value"} or
a split {"feature", "threshold", "left", "right"}).

Floats are serialized with Python's shortest round-trip repr, so every
64-bit value survives save -> load -> save byte-for-byte. A model file is
an envelope (format, schema, schema hash and the fitted normalizer or null,
which make it self-contained for prediction on raw CSV rows) plus the model
record as to_plain writes it; model.json adds the Phase-II "config". It
is read in that one form: every key that to_plain writes is required.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import types
import typing

import numpy as np

from .data import DatasetSchema, Normalizer, atomic_write
from .prm import PlainModel
from .trainer import AsslConfig, AsslModel

FORMAT_PLAIN = "advssl/plain-model/4"
FORMAT_ASSL = "advssl/assl-model/2"


def write_json(path, payload) -> None:
    """Write json.dump(payload, sort_keys=True, indent=1) plus a newline, atomically."""
    with atomic_write(path) as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")


def finite_number(text: str) -> float:
    """The float of a JSON number literal; NaN, Infinity or 1e999 is a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


class ConfigError(ValueError):
    """Raised when a run config (or any value from_plain decodes) is invalid."""


@functools.cache
def _fields(cls) -> dict:
    """name -> (type hint, required, default is None) per init field of cls."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in dataclasses.fields(cls):
        if f.init:
            required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
            out[f.name] = (hints[f.name], required, f.default is None)
    return out


def to_plain(obj):
    """obj as JSON values: dataclasses become dicts, tuples lists, arrays nested lists."""
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if dataclasses.is_dataclass(obj):
        plain = {}
        for name, (_, _, none_default) in _fields(type(obj)).items():
            value = getattr(obj, name)
            if value is not None or not none_default:
                plain[name] = to_plain(value)
        return plain
    if isinstance(obj, (list, tuple)):
        return [to_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _wrong(where: str, expected: str, raw) -> ConfigError:
    return ConfigError(f"{where} must be {expected}, got {type(raw).__name__}")


@contextlib.contextmanager
def _named(where: str, error=ConfigError):
    """Re-raise a KeyError (missing key), IndexError, TypeError, AttributeError,
    ValueError or RecursionError (input nested deeper than Python recurses)
    from the block as one error(f"{where}: ...")."""
    try:
        yield
    except (LookupError, TypeError, AttributeError, ValueError, RecursionError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise error(f"{where}: {detail}") from None


def from_plain(tp, raw, where: str):
    """The tp value whose to_plain form is raw; where names raw in errors."""
    if type(raw) is tp:  # an int, float, str or bool as written
        return raw
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None, so args[0] is X
        return None if raw is None else from_plain(args[0], raw, where)
    if origin in (list, tuple):  # list[X] or tuple[X, ...]
        if not isinstance(raw, list):
            raise _wrong(where, "list", raw)
        items = [from_plain(args[0], v, f"{where}[{i}]") for i, v in enumerate(raw)]
        return items if origin is list else tuple(items)
    if dataclasses.is_dataclass(tp):
        if not isinstance(raw, dict):
            raise _wrong(where, "dict", raw)
        if hasattr(tp, "from_dict"):
            with _named(where):
                return tp.from_dict(raw, from_plain)
        known = _fields(tp)
        if unknown := raw.keys() - known.keys():
            raise ConfigError(f"{where} has unknown key {min(unknown)!r}")
        kwargs = {}
        for name, (hint, required, _) in known.items():
            if name in raw:
                kwargs[name] = from_plain(hint, raw[name], f"{where}.{name}")
            elif required:
                raise ConfigError(f"{where}: missing key {name!r}")
        with _named(where):
            return tp(**kwargs)
    if tp is np.ndarray:
        with contextlib.suppress(ValueError):  # a ragged list is not an array
            array = np.asarray(raw)
            if isinstance(raw, list) and array.dtype.kind in "iuf":
                return array.astype(np.float64)
        raise _wrong(where, "a list of numbers", raw)
    if tp is float and type(raw) is int:  # kept as written; bool is not an int here
        return raw
    raise _wrong(where, tp.__name__, raw)


def _envelope(fmt: str, schema: DatasetSchema, normalizer: Normalizer | None) -> dict:
    return {
        "format": fmt,
        "schema": to_plain(schema),
        "schema_hash": schema.schema_hash(),
        "normalizer": to_plain(normalizer),
    }


def save_plain_model(
    path, model: PlainModel, schema: DatasetSchema, normalizer: Normalizer | None = None
) -> None:
    write_json(path, {**_envelope(FORMAT_PLAIN, schema, normalizer), **to_plain(model)})


def _check_widths(model, schema: DatasetSchema, normalizer: Normalizer | None) -> None:
    """Raise a ValueError unless model and normalizer map the schema's features
    to its labels: input width, class count, an identity logreg layer, one tree
    per class in every GBDT round, every split on a feature below input_dim,
    one normalizer entry per feature."""
    f, m = schema.num_features, schema.num_classes
    if isinstance(model, AsslModel):
        widths = {"encoder.in_dim": (model.encoder.in_dim, f)}
        widths["supervised_head.out_dim"] = (model.supervised_head.out_dim, m)
    elif model.logreg is not None:
        widths = {"input_dim": (model.input_dim, f)}
        widths["logreg.weights.shape"] = (model.logreg.weights.shape, (m, f))
        widths["logreg.activation"] = (model.logreg.activation, "identity")
    else:
        widths = {"input_dim": (model.input_dim, f)}
        widths["gbdt.base_score.shape"] = (model.gbdt.base_score.shape, (m,))
        nodes = []
        for t, trees in enumerate(model.gbdt.trees):
            widths[f"len(gbdt.trees[{t}])"] = (len(trees), m)
            nodes += [tree.root for tree in trees]
        while nodes:
            node = nodes.pop()
            if not node.is_leaf:
                if not 0 <= node.feature < f:
                    raise ValueError(f"a split reads feature {node.feature}; the schema has {f}")
                nodes += [node.left, node.right]
    if normalizer is not None:
        for name in ("mean", "std"):
            widths[f"normalizer.{name}.shape"] = (getattr(normalizer, name).shape, (f,))
    for name, (got, want) in widths.items():
        if got != want:
            raise ValueError(f"{name} is {got}; the schema needs {want}")


def load_model(path, expect: str | None = None) -> tuple[str, tuple]:
    """(format, what load_plain/assl_model returns) of the file, parsed once.
    A format other than expect (when given), a number that is not finite
    (NaN, Infinity, 1e999), a schema_hash that is not the hash of the
    file's schema, a missing or unknown key, a value the codec refuses,
    nesting deeper than Python recurses, or a model whose widths do not fit
    the schema (_check_widths) is a ValueError."""
    with _named(os.path.basename(str(path)), ValueError):
        with open(path, encoding="utf-8") as handle:
            d = json.load(handle, parse_float=finite_number, parse_constant=finite_number)
        fmt = d.pop("format", None) if isinstance(d, dict) else None
        accepted = (expect,) if expect else (FORMAT_PLAIN, FORMAT_ASSL)
        if fmt not in accepted:
            raise ValueError(f"format {fmt!r} is not {' or '.join(accepted)}")
        schema = from_plain(DatasetSchema, d.pop("schema"), "schema")
        if d.pop("schema_hash") != schema.schema_hash():
            raise ValueError("schema_hash does not match its schema")
        normalizer = from_plain(Normalizer | None, d.pop("normalizer"), "normalizer")
        if fmt == FORMAT_PLAIN:
            model = from_plain(PlainModel, d, "model")
            loaded = (model, schema, normalizer)
        else:
            cfg = from_plain(AsslConfig, d.pop("config"), "config")
            model = from_plain(AsslModel, d, "model")
            loaded = (model, cfg, schema, normalizer)
        _check_widths(model, schema, normalizer)
        return fmt, loaded


def load_plain_model(path) -> tuple[PlainModel, DatasetSchema, Normalizer | None]:
    return load_model(path, FORMAT_PLAIN)[1]


def save_assl_model(
    path, model: AsslModel, cfg: AsslConfig, schema: DatasetSchema, normalizer=None
) -> None:
    payload = {**_envelope(FORMAT_ASSL, schema, normalizer), "config": to_plain(cfg)}
    write_json(path, {**payload, **to_plain(model)})


def load_assl_model(path) -> tuple[AsslModel, AsslConfig, DatasetSchema, Normalizer | None]:
    return load_model(path, FORMAT_ASSL)[1]

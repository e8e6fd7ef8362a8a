"""JSON persistence: one dataclass codec, the model files and the JSON writer.

`to_plain(obj)` and `from_plain(tp, raw, where)` map dataclasses (nested,
`X | None`, tuples, lists, float64 arrays) to JSON values and back, driven
by their fields and type hints. from_plain rejects an unknown or missing key
or a wrong JSON type with a ConfigError naming the path, as in
`config.prm.gbdt.rounds must be int, got str`; an int given for a float
stays an int, so a config hashes as written. to_plain leaves out a None
field whose default is None, unless the field's metadata "omit" (a
predicate on the object and the value) decides. Three classes' JSON is not
their list of fields, so the codec calls their to_dict/from_dict:
DatasetSchema (keys "features", "labels"), Normalizer ("constant" as 0/1)
and TreeNode (a leaf {"value"} or a split {"feature", "threshold", "left",
"right"}).

Floats are serialized with Python's shortest round-trip repr, so every
64-bit value survives save -> load -> save byte-for-byte. Each model file
embeds the schema (plus its hash) and, when given, the fitted normalizer,
making a saved model self-contained for prediction on raw CSV rows.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import types
import typing
from json.encoder import encode_basestring_ascii

import numpy as np

from .data import DatasetSchema, Normalizer, atomic_write
from .nnet import DenseLayer, MlpParams
from .prm import PlainModel
from .trainer import AsslConfig, AsslModel

FORMAT_PLAIN = "advssl/plain-model/1"
FORMAT_ASSL = "advssl/assl-model/1"


def write_json(path, payload) -> None:
    """Write sorted, one-space-indented JSON plus a newline, atomically.

    The bytes are json.dump(payload, sort_keys=True, indent=1) + "\n" (dict
    keys must be strings). That encoder is pure Python; here each container
    of scalars is one call of json's C encoder, and the text goes out in
    chunks, never built whole.
    """
    with atomic_write(path) as handle:
        parts: list[str] = []
        _emit_json(parts, payload, 0, handle)
        handle.write("".join(parts) + "\n")


@functools.cache
def _scalars_encoder(depth: int):
    """Encodes a value at depth whose items are scalars, one item per line."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + " " * (depth + 1), ": ")).encode


def _emit_json(parts: list[str], value, depth: int, handle) -> None:
    """Append value's text at depth to parts, flushing them to handle now and then."""
    kind = type(value)
    if isinstance(value, dict):
        items = sorted(value.items())
        children = [child for _, child in items]
    elif isinstance(value, (list, tuple)):
        items, children = None, value
    else:
        if kind is float and value - value == 0.0:  # finite: json writes its repr
            parts.append(float.__repr__(value))
        elif kind is int or kind is str:
            parts.append(int.__repr__(value) if kind is int else encode_basestring_ascii(value))
        else:
            parts.append(_scalars_encoder(depth)(value))
        return
    close = "\n" + " " * depth
    if not any(map(isinstance, children, itertools.repeat((dict, list, tuple)))):
        text = _scalars_encoder(depth)(value)
        parts.append(text[0] + close + " " + text[1:-1] + close + text[-1] if children else text)
        return
    parts.append("{" if items else "[")
    sep = close + " "
    for i, child in enumerate(children):
        parts.append(sep + encode_basestring_ascii(items[i][0]) + ": " if items else sep)
        _emit_json(parts, child, depth + 1, handle)
        sep = "," + close + " "
    if len(parts) > 4096:
        handle.write("".join(parts))
        parts.clear()
    parts.append(close + ("}" if items else "]"))


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
    """name -> (type hint, required, omit predicate or None) per init field of cls."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in dataclasses.fields(cls):
        if f.init:
            required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
            omit_none = (lambda obj, value: value is None) if f.default is None else None
            omit = f.metadata.get("omit", omit_none)
            out[f.name] = (hints[f.name], required, omit)
    return out


def to_plain(obj):
    """obj as JSON values: dataclasses become dicts, tuples lists, arrays nested lists."""
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if dataclasses.is_dataclass(obj):
        plain = {}
        for name, (_, _, omit) in _fields(type(obj)).items():
            value = getattr(obj, name)
            if omit is None or not omit(obj, value):
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
    """Re-raise a KeyError (missing key), TypeError, AttributeError or
    ValueError from the block as one error(f"{where}: ...")."""
    try:
        yield
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise error(f"{where}: {detail}") from None


def from_plain(tp, raw, where: str):
    """The tp value whose to_plain form is raw; where names raw in errors."""
    if type(raw) is tp:  # an int, float, str or bool as written
        return raw
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None, so args[0] is X
        return None if raw is None else from_plain(args[0], raw, where)
    if origin in (list, tuple):
        if not isinstance(raw, list):
            raise _wrong(where, "list", raw)
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(raw)
        elif len(raw) != len(args):
            raise ConfigError(f"{where} must have {len(args)} items, got {len(raw)}")
        items = [from_plain(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(args, raw))]
        return items if origin is list else tuple(items)
    if dataclasses.is_dataclass(tp):
        if not isinstance(raw, dict):
            raise _wrong(where, "dict", raw)
        if hasattr(tp, "from_dict"):
            with _named(where):
                return tp.from_dict(raw)
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
        "schema": schema.to_dict(),
        "schema_hash": schema.schema_hash(),
        "normalizer": to_plain(normalizer),
    }


def save_plain_model(
    path, model: PlainModel, schema: DatasetSchema, normalizer: Normalizer | None = None
) -> None:
    write_json(path, {**_envelope(FORMAT_PLAIN, schema, normalizer), **to_plain(model)})


def load_model(path, expect: str | None = None) -> tuple[str, tuple]:
    """(format, what load_plain/assl_model returns) of the file, parsed once.
    A format other than expect (when given), a number that is not finite
    (NaN, Infinity, 1e999), a schema_hash that is not the hash of the
    file's schema, or a missing or unknown key is a ValueError."""
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
            if {"logistic_regression": model.logreg, "gbdt": model.gbdt}.get(model.variant) is None:
                raise ValueError(f"no parameters for a {model.variant!r} model")
            return fmt, (model, schema, normalizer)
        cfg = from_plain(AsslConfig, d.pop("config"), "config")
        nets = {
            name: MlpParams(from_plain(list[DenseLayer], layers, f"networks.{name}"))
            for name, layers in d.pop("networks").items()
        }
        if d:
            raise ValueError(f"unknown key {next(iter(d))!r}")
        return fmt, (AsslModel(**nets), cfg, schema, normalizer)


def load_plain_model(path) -> tuple[PlainModel, DatasetSchema, Normalizer | None]:
    return load_model(path, FORMAT_PLAIN)[1]


def save_assl_model(
    path, model: AsslModel, cfg: AsslConfig, schema: DatasetSchema, normalizer=None
) -> None:
    networks = {f.name: to_plain(getattr(model, f.name).layers) for f in dataclasses.fields(model)}
    payload = {**_envelope(FORMAT_ASSL, schema, normalizer), "config": to_plain(cfg)}
    write_json(path, {**payload, "networks": networks})


def load_assl_model(path) -> tuple[AsslModel, AsslConfig, DatasetSchema, Normalizer | None]:
    return load_model(path, FORMAT_ASSL)[1]

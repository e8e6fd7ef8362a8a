"""Tabular data handling: schema, CSV I/O, normalization, splits, synthesis.

The default schema mirrors the target domain: 39 numeric features grouped
into six financial-capability categories and 9 ordinal rating labels. The
synthetic generator replaces the (proprietary) real data with seeded
Gaussian class clusters whose difficulty is fully controllable.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .nnet import named_rng

LABEL_COLUMN = "rating"

DEFAULT_FEATURE_GROUPS = {
    "profit": 7,
    "operation": 7,
    "growth": 6,
    "repayment": 7,
    "cashflow": 6,
    "dupont": 6,
}

DEFAULT_LABELS = ("AAA", "AA+", "AA", "AA-", "A+", "A", "A-", "CC", "C")


class DataError(ValueError):
    """Raised for malformed input files or invalid dataset contents."""


@dataclass(frozen=True)
class DatasetSchema:
    feature_names: tuple[str, ...]
    label_names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataError("feature names must be unique")
        if len(self.label_names) < 2:
            raise DataError("need at least 2 rating labels")
        if LABEL_COLUMN in self.feature_names:
            raise DataError(f"feature name {LABEL_COLUMN!r} collides with the label column")

    @property
    def num_features(self) -> int:
        return len(self.feature_names)

    @property
    def num_classes(self) -> int:
        return len(self.label_names)

    def schema_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def label_index(self, token: str) -> int:
        token = token.strip()
        if token in self.label_names:
            return self.label_names.index(token)
        try:
            idx = int(token)
        except ValueError:
            raise DataError(f"unknown label {token!r}") from None
        if not 0 <= idx < self.num_classes:
            raise DataError(f"label index {idx} out of range [0, {self.num_classes})")
        return idx

    def to_dict(self) -> dict:
        return {"features": list(self.feature_names), "labels": list(self.label_names)}

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSchema":
        names = [d.get("features"), d.get("labels")]
        if d.keys() != {"features", "labels"} or not all(
            isinstance(v, list) and all(isinstance(n, str) for n in v) for v in names
        ):
            raise DataError('a schema is {"features": [str, ...], "labels": [str, ...]}')
        return cls(*map(tuple, names))


def default_schema() -> DatasetSchema:
    names = []
    for group, count in DEFAULT_FEATURE_GROUPS.items():
        names.extend(f"{group}_{i + 1}" for i in range(count))
    return DatasetSchema(tuple(names), DEFAULT_LABELS)


def synthetic_schema(num_features: int, num_classes: int) -> DatasetSchema:
    if num_features == 39 and num_classes == 9:
        return default_schema()
    features = tuple(f"f{i + 1}" for i in range(num_features))
    labels = tuple(f"L{i}" for i in range(num_classes))
    return DatasetSchema(features, labels)


@dataclass
class Dataset:
    """Feature rows with optional class labels (present <=> labeled)."""

    schema: DatasetSchema
    rows: np.ndarray  # (n, F) float64
    labels: np.ndarray | None = None  # (n,) int64 class indices

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise DataError(f"rows must be 2-D, got shape {self.rows.shape}")
        if self.rows.shape[1] != self.schema.num_features:
            raise DataError(
                f"rows have {self.rows.shape[1]} features, schema expects "
                f"{self.schema.num_features}"
            )
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.rows.shape[0],):
                raise DataError("label count does not match row count")
            if self.labels.size and (
                self.labels.min() < 0 or self.labels.max() >= self.schema.num_classes
            ):
                raise DataError(
                    f"labels must lie in [0, {self.schema.num_classes})"
                )

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    def subset(self, idx: np.ndarray) -> "Dataset":
        labels = None if self.labels is None else self.labels[idx].copy()
        return Dataset(self.schema, self.rows[idx].copy(), labels)


@dataclass
class Normalizer:
    """Per-feature z-score parameters fitted on the labeled training split.

    Population (1/n) standard deviation. Features with std < 1e-12 are
    marked constant and map to 0. Fitting anywhere else leaks statistics,
    so the pipeline fits exactly once, on labeled-train.
    """

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray  # bool mask

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "constant": self.constant.astype(int).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        if d.keys() != {"mean", "std", "constant"}:
            raise DataError(f"a normalizer has keys mean, std and constant, not {sorted(d)}")
        return cls(
            mean=np.asarray(d["mean"], dtype=np.float64),
            std=np.asarray(d["std"], dtype=np.float64),
            constant=np.asarray(d["constant"], dtype=bool),
        )


def fit_normalizer(train_labeled: Dataset) -> Normalizer:
    if len(train_labeled) == 0:
        raise DataError("cannot fit a normalizer on an empty dataset")
    mean = train_labeled.rows.mean(axis=0)
    std = train_labeled.rows.std(axis=0)  # population convention (ddof=0)
    constant = std < 1e-12
    return Normalizer(mean=mean, std=std, constant=constant)


def apply_normalizer(norm: Normalizer, ds: Dataset) -> Dataset:
    """z = (x - mean) / std; constant features pass through as 0.

    Not idempotent: applying twice standardizes twice.
    """
    safe_std = np.where(norm.constant, 1.0, norm.std)
    rows = (ds.rows - norm.mean) / safe_std
    rows[:, norm.constant] = 0.0
    labels = None if ds.labels is None else ds.labels.copy()
    return Dataset(ds.schema, rows, labels)


def largest_remainder(total: int, fractions: np.ndarray) -> np.ndarray:
    """Integer allocation of `total` proportional to `fractions`.

    Floors first, then hands out the remainder by descending fractional
    part; ties resolve to the lowest bucket index.
    """
    ideal = total * fractions
    base = np.floor(ideal).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover > 0:
        remainders = ideal - base
        # argsort on (-remainder, index) keeps ties deterministic
        order = np.lexsort((np.arange(fractions.size), -remainders))
        for k in order[:leftover]:
            base[k] += 1
    return base


def split_fractions(fractions) -> np.ndarray:
    """fractions as a float64 array; anything but three values >= 0 that sum
    to 1 is a DataError."""
    fr = np.asarray(fractions, dtype=np.float64)
    if fr.shape != (3,) or (fr < 0).any():
        raise DataError("split fractions must be three values >= 0")
    if abs(fr.sum() - 1.0) > 1e-9:
        raise DataError(f"split fractions must sum to 1, got {fr.sum()}")
    return fr


def stratified_split(
    ds: Dataset, fractions: tuple[float, float, float], seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Per-class proportional train/val/test split, seeded and exhaustive.

    Every input row lands in exactly one split; per-class allocation uses
    largest-remainder rounding so split sizes are as proportional as
    integer counts allow.
    """
    if not ds.is_labeled:
        raise DataError("stratified_split needs a labeled dataset")
    fr = split_fractions(fractions)
    rng = named_rng(seed, "stratified_split")
    parts: list[list[np.ndarray]] = [[], [], []]
    for cls in range(ds.schema.num_classes):
        cls_idx = np.flatnonzero(ds.labels == cls)
        if cls_idx.size == 0:
            continue
        cls_idx = rng.permutation(cls_idx)
        counts = largest_remainder(cls_idx.size, fr)
        start = 0
        for s in range(3):
            parts[s].append(cls_idx[start : start + counts[s]])
            start += counts[s]
    out = []
    for s in range(3):
        idx = np.concatenate(parts[s]) if parts[s] else np.empty(0, dtype=np.int64)
        out.append(ds.subset(idx))
    return out[0], out[1], out[2]


@dataclass
class SynthConfig:
    """Seeded Gaussian class-cluster generator settings.

    Class means sit at separation_scale times random unit directions; rows
    add isotropic noise_std noise. labeled_fraction of the rows keep their
    labels, the rest become the unlabeled pool (their generating classes
    are returned separately, for evaluation only). label_noise_rate flips
    that fraction of all emitted labels to a uniformly random other class.
    """

    num_features: int = 39
    num_classes: int = 9
    samples_per_class: int = 2223
    labeled_fraction: float = 0.1
    separation_scale: float = 3.0
    noise_std: float = 1.0
    label_noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_features < 1 or self.num_classes < 2 or self.samples_per_class < 1:
            raise DataError("num_features, num_classes, samples_per_class must be positive")
        if not 0.0 <= self.labeled_fraction <= 1.0:
            raise DataError("labeled_fraction must lie in [0, 1]")
        if not 0.0 <= self.label_noise_rate <= 1.0:
            raise DataError("label_noise_rate must lie in [0, 1]")
        if self.separation_scale < 0 or self.noise_std < 0:
            raise DataError("separation_scale and noise_std must be >= 0")


def generate_synthetic(cfg: SynthConfig) -> tuple[Dataset, Dataset, np.ndarray]:
    """Returns (labeled, unlabeled, hidden_truth).

    hidden_truth carries the emitted label for every unlabeled row; it is
    never consumed by training code, only by evaluation harnesses.
    """
    schema = synthetic_schema(cfg.num_features, cfg.num_classes)
    m, spc = cfg.num_classes, cfg.samples_per_class
    total = m * spc

    means_rng = named_rng(cfg.seed, "synth_class_means")
    directions = means_rng.normal(size=(m, cfg.num_features))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = cfg.separation_scale * directions / norms

    noise_rng = named_rng(cfg.seed, "synth_noise")
    rows = np.repeat(means, spc, axis=0) + cfg.noise_std * noise_rng.normal(
        size=(total, cfg.num_features)
    )
    labels = np.repeat(np.arange(m, dtype=np.int64), spc)

    if cfg.label_noise_rate > 0:
        noise_lab_rng = named_rng(cfg.seed, "synth_label_noise")
        flip = noise_lab_rng.random(total) < cfg.label_noise_rate
        offsets = noise_lab_rng.integers(1, m, size=total)
        labels = np.where(flip, (labels + offsets) % m, labels)

    pick_rng = named_rng(cfg.seed, "synth_labeled_pick")
    target_labeled = int(round(cfg.labeled_fraction * total))
    per_class = largest_remainder(
        target_labeled, np.full(m, 1.0 / m)
    )
    labeled_mask = np.zeros(total, dtype=bool)
    for cls in range(m):
        cls_idx = np.arange(cls * spc, (cls + 1) * spc)
        chosen = pick_rng.permutation(cls_idx)[: per_class[cls]]
        labeled_mask[chosen] = True

    labeled = Dataset(schema, rows[labeled_mask], labels[labeled_mask])
    unlabeled = Dataset(schema, rows[~labeled_mask], None)
    hidden_truth = labels[~labeled_mask].copy()
    return labeled, unlabeled, hidden_truth


def load_csv(path, schema: DatasetSchema) -> Dataset:
    """Load a UTF-8 CSV with a header row into a Dataset.

    Columns are mapped to schema order by header name; a `rating` column is
    optional and may hold label names or integer indices. Unparsable,
    missing or non-finite feature cells are an error that lists the 1-based
    data row numbers.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("file has no header row") from None
        header = [h.strip() for h in header]
        known = set(schema.feature_names) | {LABEL_COLUMN}
        unknown = [h for h in header if h not in known]
        if unknown:
            raise DataError(f"unknown columns: {', '.join(unknown)}")
        missing_cols = [f for f in schema.feature_names if f not in header]
        if missing_cols:
            raise DataError(f"missing feature columns: {', '.join(missing_cols)}")
        col_of = {name: header.index(name) for name in schema.feature_names}
        label_col = header.index(LABEL_COLUMN) if LABEL_COLUMN in header else None

        rows: list[list[float]] = []
        labels: list[int] = []
        for row_num, record in enumerate(reader, start=1):
            if len(record) != len(header):
                raise DataError(
                    f"row {row_num} has {len(record)} cells, header has {len(header)}"
                )
            values = []
            for name in schema.feature_names:
                try:
                    values.append(float(record[col_of[name]]))
                except ValueError:
                    values.append(np.nan)  # float('nan'/'inf') parses too: both fail below
            rows.append(values)
            if label_col is not None:
                labels.append(schema.label_index(record[label_col]))

    data = np.asarray(rows, dtype=np.float64).reshape(len(rows), schema.num_features)
    bad_rows = np.flatnonzero(~np.isfinite(data).all(axis=1)) + 1
    if bad_rows.size:
        raise DataError("unparsable values in row(s): " + ", ".join(map(str, bad_rows)))
    label_arr = np.asarray(labels, dtype=np.int64) if label_col is not None else None
    return Dataset(schema, data, label_arr)


@contextlib.contextmanager
def atomic_write(path, newline: str | None = None):
    """Text handle on a temp file that replaces path when the block succeeds;
    if the block raises, the temp file goes and path is left as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_csv(ds: Dataset, path) -> None:
    """Write a Dataset back to CSV, atomically; floats use repr so values round-trip."""
    with atomic_write(path, newline="") as handle:
        writer = csv.writer(handle)
        header = list(ds.schema.feature_names) + ([LABEL_COLUMN] if ds.is_labeled else [])
        writer.writerow(header)
        for i in range(len(ds)):
            record = [repr(float(v)) for v in ds.rows[i]]
            if ds.is_labeled:
                record.append(ds.schema.label_names[ds.labels[i]])
            writer.writerow(record)


def minibatch_indices(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled consecutive index batches covering all n rows once."""
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]

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
        if not self.feature_names:
            raise DataError("need at least 1 feature")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataError("feature names must be unique")
        if len(set(self.label_names)) != len(self.label_names):
            raise DataError("label names must be unique")
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
        if token not in self.label_names:
            raise DataError(f"unknown label {token!r}")
        return self.label_names.index(token)

    def to_dict(self) -> dict:
        return {"features": list(self.feature_names), "labels": list(self.label_names)}

    @classmethod
    def from_dict(cls, d: dict, decode) -> "DatasetSchema":
        """The schema whose to_dict is d; decode(type, value, where) is the codec's from_plain."""
        if d.keys() != {"features", "labels"}:
            raise DataError('a schema is {"features": [str, ...], "labels": [str, ...]}')
        return cls(*(decode(tuple[str, ...], d[key], key) for key in ("features", "labels")))


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
        labels = None if self.labels is None else self.labels[idx]
        return Dataset(self.schema, self.rows[idx], labels)


@dataclass
class Normalizer:
    """Per-feature z-score parameters fitted on the labeled training split.

    Population (1/n) standard deviation. Features with std < 1e-12 are
    constant and map to 0; a negative std is a DataError. Fitting anywhere
    else leaks statistics, so the pipeline fits exactly once, on labeled-train.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if (self.std < 0).any():
            raise DataError("std must be >= 0")

    @property
    def constant(self) -> np.ndarray:
        """The bool mask of the features that map to 0."""
        return self.std < 1e-12


def fit_normalizer(train_labeled: Dataset) -> Normalizer:
    mean = train_labeled.rows.mean(axis=0)
    std = train_labeled.rows.std(axis=0)  # population convention (ddof=0)
    return Normalizer(mean=mean, std=std)


def standardize(norm: Normalizer, rows: np.ndarray) -> np.ndarray:
    """The one z-score rule, written over `rows` in place and returned:
    z = (x - mean) / std, and constant features become 0.

    Not idempotent: applying twice standardizes twice.
    """
    constant = norm.constant
    rows -= norm.mean
    rows /= np.where(constant, 1.0, norm.std)
    rows[:, constant] = 0.0
    return rows


def apply_normalizer(norm: Normalizer, ds: Dataset) -> Dataset:
    """A new Dataset of standardize(norm, ...) over a copy of ds.rows, in
    ds.rows's memory layout; ds is left as it was."""
    labels = None if ds.labels is None else ds.labels.copy()
    return Dataset(ds.schema, standardize(norm, ds.rows.copy(order="K")), labels)


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
        base[order[:leftover]] += 1  # distinct indices: each gets one
    return base


def stratified_split(
    ds: Dataset, fractions: tuple[float, float, float], seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Per-class proportional train/val/test split of a labeled ds, seeded
    and exhaustive, by three fractions >= 0 that sum to 1.

    Every input row lands in exactly one split; per-class allocation uses
    largest-remainder rounding so split sizes are as proportional as
    integer counts allow.
    """
    fr = np.asarray(fractions, dtype=np.float64)
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
    are returned separately, for evaluation only).
    """

    num_features: int = 39
    num_classes: int = 9
    samples_per_class: int = 2223
    labeled_fraction: float = 0.1
    separation_scale: float = 3.0
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_features < 1 or self.num_classes < 2 or self.samples_per_class < 1:
            raise DataError("num_features, num_classes, samples_per_class must be positive")
        if not 0.0 <= self.labeled_fraction <= 1.0:
            raise DataError("labeled_fraction must lie in [0, 1]")
        if self.separation_scale < 0 or self.noise_std < 0:
            raise DataError("separation_scale and noise_std must be >= 0")


def generate_synthetic(cfg: SynthConfig) -> tuple[Dataset, Dataset, np.ndarray]:
    """Returns (labeled, unlabeled, hidden_truth).

    Row i of class c is means[c] + noise_std * z_i, z one (total, F) draw of
    the synth_noise stream, drawn a class at a time straight into the outputs.
    The unlabeled pool is feature-major (order="F"): standardize updates it in
    place and tree scoring reads it a feature at a time, so it is never copied.
    hidden_truth carries the generating class of every unlabeled row; it is
    never consumed by training code, only by evaluation harnesses.
    """
    schema = synthetic_schema(cfg.num_features, cfg.num_classes)
    m, spc, f = cfg.num_classes, cfg.samples_per_class, cfg.num_features
    total = m * spc

    means_rng = named_rng(cfg.seed, "synth_class_means")
    directions = means_rng.normal(size=(m, f))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = cfg.separation_scale * directions / norms

    labels = np.repeat(np.arange(m, dtype=np.int64), spc)

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

    noise_rng = named_rng(cfg.seed, "synth_noise")
    n_labeled = int(labeled_mask.sum())
    labeled_rows = np.empty((n_labeled, f))
    pool_rows = np.empty((total - n_labeled, f), order="F")
    n_lab = n_pool = 0
    for cls in range(m):
        chunk = noise_rng.normal(size=(spc, f))  # the stream's next spc rows
        chunk *= cfg.noise_std
        chunk += means[cls]
        picked = labeled_mask[cls * spc : (cls + 1) * spc]
        k = int(picked.sum())
        labeled_rows[n_lab : n_lab + k] = chunk[picked]
        pool_rows[n_pool : n_pool + spc - k] = chunk[~picked]
        n_lab, n_pool = n_lab + k, n_pool + spc - k

    labeled = Dataset(schema, labeled_rows, labels[labeled_mask])
    unlabeled = Dataset(schema, pool_rows, None)
    hidden_truth = labels[~labeled_mask]
    return labeled, unlabeled, hidden_truth


def load_csv(path, schema: DatasetSchema) -> Dataset:
    """Load a UTF-8 CSV with a header row into a Dataset; a leading
    byte-order mark is skipped.

    Columns are mapped to schema order by header name, and an empty name or
    a name given twice is an error; a `rating` column is optional, holds
    label names (an integer is a name, never an index), and counts as
    absent when all blank. A blank or unknown rating, or an unparsable,
    missing or non-finite feature cell, is an error that names the 1-based
    data row(s). Every error but the one for a file that cannot be opened
    starts with the file's name. A first pass counts the lines; the second
    parses the records into one feature-major array of that many columns,
    and rows is its (n, F) transpose, as for the pool of generate_synthetic.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    with handle:
        try:
            return _parse_csv(handle, schema)
        except DataError as exc:
            raise DataError(f"{os.path.basename(path)}: {exc}") from None


def _parse_csv(handle, schema: DatasetSchema) -> Dataset:
    capacity = sum(1 for _ in handle) - 1  # the record count, unless a cell spans lines
    handle.seek(0)
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("file has no header row") from None
    except csv.Error as exc:  # a cell over csv.field_size_limit(), say
        raise DataError(f"header row: {exc}") from None
    header = [h.strip() for h in header]
    if "" in header:
        raise DataError(f"header column {header.index('') + 1} has no name")
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise DataError(f"columns named more than once: {', '.join(repeated)}")
    known = set(schema.feature_names) | {LABEL_COLUMN}
    unknown = [h for h in header if h not in known]
    if unknown:
        raise DataError(f"unknown columns: {', '.join(unknown)}")
    missing_cols = [f for f in schema.feature_names if f not in header]
    if missing_cols:
        raise DataError(f"missing feature columns: {', '.join(missing_cols)}")
    col_of = {name: header.index(name) for name in schema.feature_names}
    label_col = header.index(LABEL_COLUMN) if LABEL_COLUMN in header else None

    columns = np.empty((schema.num_features, capacity))
    ratings = []  # the rating cells, when there is a rating column
    cells = [col_of[name] for name in schema.feature_names]
    row_num = 0
    try:
        for row_num, record in enumerate(reader, start=1):
            if len(record) != len(header):
                raise DataError(
                    f"row {row_num} has {len(record)} cells, header has {len(header)}"
                )
            try:
                columns[:, row_num - 1] = [float(record[c]) for c in cells]
            except ValueError:  # float('nan'/'inf') parses too: both fail below
                columns[:, row_num - 1] = [_float_or_nan(record[c]) for c in cells]
            if label_col is not None:
                ratings.append(record[label_col])
    except csv.Error as exc:  # raised while reading the record after row_num
        raise DataError(f"row {row_num + 1}: {exc}") from None
    if row_num < capacity:  # a quoted cell held a line break
        columns = columns[:, :row_num].copy()
    labels = None
    if any(cell.strip() for cell in ratings):  # an all-blank column is no rating column
        labels = np.empty(len(ratings), dtype=np.int64)
        for row_num, cell in enumerate(ratings, start=1):
            try:
                labels[row_num - 1] = schema.label_index(cell)
            except DataError as exc:
                raise DataError(f"row {row_num}: {exc}") from None

    bad_rows = np.flatnonzero(~np.isfinite(columns).all(axis=0)) + 1
    if bad_rows.size:
        raise DataError("unparsable values in row(s): " + ", ".join(map(str, bad_rows)))
    return Dataset(schema, columns.T, labels)


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return np.nan


@contextlib.contextmanager
def atomic_write(path):
    """Text handle on a temp file that replaces path when the block succeeds;
    if the block raises, the temp file goes and path is left as it was. Lines
    end in LF on every platform: the handle translates no newline."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def csv_writer(handle):
    """The one CSV format every file and stream is written in: lines end in LF."""
    return csv.writer(handle, lineterminator="\n")


def save_csv(ds: Dataset, path) -> None:
    """Write a Dataset back to CSV, atomically; floats use repr so values round-trip."""
    with atomic_write(path) as handle:
        writer = csv_writer(handle)
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

"""End-to-end orchestration: config file -> data -> Phase I -> Phase II -> report.

A run is fully described by one JSON config (data source, PRM and Phase-II
hyperparameters, split fractions, seeds, variant), decoded strictly by
persist.from_plain. There are no ablation flags: VARIANTS is the one table
of variants, and `ablate` runs them all. Per seed the pipeline generates or
loads data, splits it, fits the normalizer on the labeled training split
only, trains the plain model and pseudo-labels the unlabeled pool
(prepare_seed). Then run_variant trains, evaluates on the held-out test
split and writes each variant: every Phase-II variant, the supervised
baseline included, is trainer.train under its table entry's overrides.
Every artifact lands under <output root>/run-<config hash>/, the root
being the command line's --out.

`ablate` uses both CPUs. A seed's variants share only the PreparedSeed and
draw from their own named RNG streams, so one forked worker trains and
writes WORKER_VARIANTS while this process does prm_only and full, then
writes the tables in VARIANTS order: every artifact has the bytes of a
one-process run. `full` stays here: it is the longest variant (about the
other two together), the paper's model, and the one a profile of this
process should see. worker.forked owns the fork, the channel and the
failure protocol; prm.train_gbdt forks its split worker through it too.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .data import (
    DataError,
    Dataset,
    DatasetSchema,
    Normalizer,
    SynthConfig,
    apply_normalizer,
    atomic_write,
    default_schema,
    fit_normalizer,
    generate_synthetic,
    load_csv,
    save_csv,
    split_fractions,
    stratified_split,
)
from .metrics import MetricsReport, aggregate_runs, classification_report, confusion_matrix
from .persist import ConfigError, finite_number, from_plain, to_plain, write_json
from .persist import save_assl_model, save_plain_model
from .prm import PlainModel, PrmConfig, pseudo_label, train_prm
from .trainer import AsslConfig, predict_proba_matrix, train
from .worker import WorkerTraceback, forked  # WorkerTraceback: re-exported

# Variant name -> AsslConfig overrides (None: the Phase-I model alone), in ablate order.
VARIANTS = {
    "prm_only": None,
    "supervised_mlp": {"suppress_pseudo": True, "inference_head": "supervised"},
    "no_adversarial": {"alpha": 0.0},
    "full": {},
}
# The variants `ablate` trains in its forked worker (see the module docstring).
WORKER_VARIANTS = ("supervised_mlp", "no_adversarial")


@dataclass
class DataSource:
    """Where a run's rows come from: data.synth, or data.labeled_csv (plus
    an optional unlabeled pool in data.unlabeled_csv)."""

    synth: SynthConfig | None = None
    labeled_csv: str | None = None
    unlabeled_csv: str | None = None

    def __post_init__(self):
        if (self.synth is None) == (self.labeled_csv is None):
            raise ConfigError("config needs exactly one data source (synth or labeled_csv)")
        if self.unlabeled_csv is not None and self.labeled_csv is None:
            raise ConfigError("unlabeled_csv needs labeled_csv")


@dataclass
class RunConfig:
    data: DataSource
    schema: DatasetSchema | None = None  # for CSV sources; synth builds its own
    prm: PrmConfig = field(default_factory=PrmConfig)
    assl: AsslConfig = field(default_factory=AsslConfig)
    split: tuple[float, float, float] = (0.7, 0.15, 0.15)
    seeds: tuple[int, ...] = (0,)
    variant: str = "full"

    def __post_init__(self):
        if len(self.seeds) < 1:
            raise ConfigError("need at least one seed")
        for seed in self.seeds:
            if not 0 <= seed < 2**32:
                raise ConfigError(f"seed {seed} lies outside [0, 2**32)")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        split_fractions(self.split)

    def config_hash(self) -> str:
        payload = json.dumps(to_plain(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def parse_config(raw) -> RunConfig:
    """The RunConfig of a parsed JSON config; anything else is a ConfigError."""
    return from_plain(RunConfig, raw, "config")


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle, parse_float=finite_number, parse_constant=finite_number)
    except OSError as exc:
        raise ConfigError(f"cannot read config {os.path.basename(str(path))}: {exc.strerror}")
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, not finite, or too deep
        raise ConfigError(f"config is not valid JSON: {exc}")
    return parse_config(raw)


@dataclass
class PreparedSeed:
    """Everything one seed's variants share: splits, normalizer, PRM, pseudo pool."""

    seed: int
    schema: DatasetSchema
    normalizer: Normalizer
    train: Dataset  # normalized
    val: Dataset
    test: Dataset
    test_raw: Dataset  # pre-normalization rows for the round-trip CSV
    pseudo: object  # PseudoLabeledDataset
    prm_model: PlainModel
    assl_cfg: AsslConfig
    seconds: dict  # phase -> seconds: prepare, phase1_fit, pseudo_label


def _load_source(cfg: RunConfig, seed: int) -> tuple[Dataset, Dataset | None]:
    src = cfg.data
    if src.synth is not None:
        labeled, unlabeled, _ = generate_synthetic(replace(src.synth, seed=seed))
        return labeled, unlabeled
    schema = cfg.schema or default_schema()
    labeled = load_csv(src.labeled_csv, schema)
    if not labeled.is_labeled:
        raise DataError(f"{os.path.basename(src.labeled_csv)} has no rating column")
    unlabeled = None
    if src.unlabeled_csv:
        unlabeled = load_csv(src.unlabeled_csv, schema)
        if unlabeled.is_labeled:
            unlabeled = Dataset(schema, unlabeled.rows, None)
    return labeled, unlabeled


def prepare_seed(cfg: RunConfig, seed: int) -> PreparedSeed:
    t0 = time.monotonic()
    labeled, unlabeled = _load_source(cfg, seed)
    train_raw, val_raw, test_raw = stratified_split(labeled, cfg.split, seed)
    if len(train_raw) == 0 or len(val_raw) == 0 or len(test_raw) == 0:
        raise DataError("a split came out empty; adjust fractions or dataset size")
    normalizer = fit_normalizer(train_raw)
    train = apply_normalizer(normalizer, train_raw)
    val = apply_normalizer(normalizer, val_raw)
    test = apply_normalizer(normalizer, test_raw)
    if unlabeled is None:
        unlabeled = Dataset(labeled.schema, np.empty((0, labeled.schema.num_features)))
    unlabeled = apply_normalizer(normalizer, unlabeled)
    t1 = time.monotonic()
    prm_model = train_prm(train, cfg.prm, seed=seed)
    t2 = time.monotonic()
    pseudo = pseudo_label(prm_model, unlabeled)
    t3 = time.monotonic()
    return PreparedSeed(
        seed=seed,
        schema=labeled.schema,
        normalizer=normalizer,
        train=train,
        val=val,
        test=test,
        test_raw=test_raw,
        pseudo=pseudo,
        prm_model=prm_model,
        assl_cfg=replace(cfg.assl, seed=seed),
        seconds={
            "prepare": round(t1 - t0, 3),
            "phase1_fit": round(t2 - t1, 3),
            "pseudo_label": round(t3 - t2, 3),
        },
    )


def run_variant(prep: PreparedSeed, variant: str, seed_dir: str) -> tuple[dict, MetricsReport]:
    """Train one variant on a prepared seed, evaluate it on the test split and
    write its models, history, report and round-trip CSVs into seed_dir;
    return (artifact paths, report). A variant whose table entry suppresses
    the pseudo pool (the supervised baseline) writes no model.json."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    overrides = VARIANTS[variant]
    if overrides is None:
        probs = prep.prm_model.predict_proba_matrix(prep.test.rows)
    else:
        cfg = replace(prep.assl_cfg, **overrides)
        pseudo = None if cfg.suppress_pseudo else prep.pseudo
        model, history = train(prep.train, pseudo, prep.val, cfg)
        probs = predict_proba_matrix(model, prep.test.rows, cfg.inference_head)
    preds = probs.argmax(axis=1)
    report = classification_report(
        confusion_matrix(prep.test.labels, preds, prep.schema.num_classes)
    )

    os.makedirs(seed_dir, exist_ok=True)
    paths = {}

    def path(name, file):
        paths[name] = os.path.join(seed_dir, file)
        return paths[name]

    schema, normalizer = prep.schema, prep.normalizer
    save_plain_model(path("prm_model", "prm_model.json"), prep.prm_model, schema, normalizer)
    if overrides is not None:
        if not overrides.get("suppress_pseudo"):
            save_assl_model(path("model", "model.json"), model, cfg, schema, normalizer)
        history.to_csv(path("history", "history.csv"))
    conf = prep.pseudo.confidences
    payload = {
        "seed": prep.seed,
        "variant": variant,
        "metrics": report.to_dict(),
        "test_rows": int(preds.shape[0]),
        "pseudo_count": len(prep.pseudo),
        "pseudo_mean_confidence": float(conf.mean()) if conf.size else 0.0,
    }
    write_json(path("report_json", "report.json"), payload)
    with atomic_write(path("report_txt", "report.txt")) as handle:
        handle.write(report.to_text(schema.label_names) + "\n")
    save_csv(prep.test_raw, path("test_split", "test_split.csv"))
    write_predictions_csv(path("predictions", "predictions.csv"), schema, probs)
    return paths, report


def prediction_rows(schema: DatasetSchema, probs: np.ndarray):
    """Per row of probs: the label of its argmax, then repr(float(p)) per class."""
    for row, pred in zip(probs, probs.argmax(axis=1)):
        yield [schema.label_names[pred]] + [repr(float(p)) for p in row]


def write_predictions_csv(path, schema: DatasetSchema, probs: np.ndarray):
    with atomic_write(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["predicted_rating"] + [f"p_{name}" for name in schema.label_names])
        writer.writerows(prediction_rows(schema, probs))


@contextlib.contextmanager
def _run_manifest(cfg: RunConfig, run_dir: str):
    """Create run_dir and yield its manifest, written as "running" on entry,
    then as "complete" with the total time, or as "failed" with the error
    when the body raises (the exception goes on unchanged)."""
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "manifest.json")
    manifest = {
        "config": to_plain(cfg),
        "config_hash": cfg.config_hash(),
        "version": __version__,
        "status": "running",
        "artifacts": {},
        "timings_sec": {},
    }
    write_json(path, manifest)
    t0 = time.monotonic()
    try:
        yield manifest
    except BaseException as exc:
        manifest.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        with contextlib.suppress(OSError):  # keep the run's own error, not this one
            write_json(path, manifest)
        raise
    manifest["timings_sec"]["total"] = round(time.monotonic() - t0, 3)
    manifest["status"] = "complete"
    write_json(path, manifest)


def execute_run(cfg: RunConfig, output_root: str) -> dict:
    """cmd_run body: one variant (per config) across all seeds, plus aggregate.

    The manifest's timings_sec gains, per seed, seed_<s> (the whole seed)
    and seed_<s>/<phase> for the phases prepare (load, split, normalize),
    phase1_fit, pseudo_label and variant (train, evaluate, write).
    """
    run_dir = os.path.join(output_root, f"run-{cfg.config_hash()}")
    reports = []
    with _run_manifest(cfg, run_dir) as manifest:
        timings = manifest["timings_sec"]
        for seed in cfg.seeds:
            t_seed = time.monotonic()
            prep = prepare_seed(cfg, seed)
            t_variant = time.monotonic()
            paths, report = run_variant(prep, cfg.variant, os.path.join(run_dir, f"seed_{seed}"))
            t_end = time.monotonic()
            manifest["artifacts"][f"seed_{seed}"] = paths
            timings.update({f"seed_{seed}/{k}": t for k, t in prep.seconds.items()})
            timings[f"seed_{seed}/variant"] = round(t_end - t_variant, 3)
            timings[f"seed_{seed}"] = round(t_end - t_seed, 3)
            reports.append(report)
        if len(reports) >= 2:
            agg_path = os.path.join(run_dir, "aggregate.json")
            write_json(agg_path, aggregate_runs(reports))
            manifest["artifacts"]["aggregate"] = agg_path
    return {"run_dir": run_dir, "reports": reports}


def _train_seed_variants(prep: PreparedSeed, seed_dir: str) -> dict:
    """Train, evaluate and write every variant of one prepared seed, with
    WORKER_VARIANTS in a forked worker (worker.forked); return variant ->
    (artifact paths, report, seconds in the process that ran it)."""

    def train_and_write(variant):
        t0 = time.monotonic()
        paths, report = run_variant(prep, variant, os.path.join(seed_dir, variant))
        return paths, report, round(time.monotonic() - t0, 3)

    def train_in_worker(parent):
        parent.send({v: train_and_write(v) for v in WORKER_VARIANTS})

    with forked(train_in_worker, "ablation worker") as worker:
        done = {v: train_and_write(v) for v in VARIANTS if v not in WORKER_VARIANTS}
        return {**done, **worker.recv()}


def execute_ablation(cfg: RunConfig, output_root: str) -> dict:
    """cmd_ablate body: all ablation variants on identical data and seeds.

    The manifest's timings_sec gains seed_<s>/<variant>: the seconds that
    variant took to train, evaluate and write in its own process.
    """
    run_dir = os.path.join(output_root, f"ablate-{cfg.config_hash()}")
    rows = []
    by_variant: dict[str, list[MetricsReport]] = {v: [] for v in VARIANTS}
    with _run_manifest(cfg, run_dir) as manifest:
        for seed in cfg.seeds:
            prep = prepare_seed(cfg, seed)
            done = _train_seed_variants(prep, os.path.join(run_dir, f"seed_{seed}"))
            for variant in VARIANTS:
                paths, report, seconds = done[variant]
                manifest["artifacts"][f"seed_{seed}/{variant}"] = paths
                manifest["timings_sec"][f"seed_{seed}/{variant}"] = seconds
                by_variant[variant].append(report)
                rows.append(
                    {
                        "variant": variant,
                        "seed": seed,
                        "macro_f1": report.macro_f1,
                        "macro_precision": report.macro_precision,
                        "macro_recall": report.macro_recall,
                        "accuracy": report.accuracy,
                    }
                )
        summary = {v: aggregate_runs(reps) for v, reps in by_variant.items()}
        table_path = os.path.join(run_dir, "ablation.json")
        write_json(table_path, {"rows": rows, "summary": summary})
        text_path = os.path.join(run_dir, "ablation.txt")
        with atomic_write(text_path) as handle:
            handle.write(format_ablation_table(rows, summary) + "\n")
        manifest["artifacts"]["ablation_json"] = table_path
        manifest["artifacts"]["ablation_txt"] = text_path
    return {"run_dir": run_dir, "rows": rows, "summary": summary}


def format_ablation_table(rows: list[dict], summary: dict) -> str:
    lines = [f"{'variant':<18} {'seed':>6} {'macro_f1':>9} {'accuracy':>9}"]
    for row in rows:
        lines.append(
            f"{row['variant']:<18} {row['seed']:>6} {row['macro_f1']:>9.4f} "
            f"{row['accuracy']:>9.4f}"
        )
    lines.append("-" * 45)
    for variant, agg in summary.items():
        f1 = agg["macro_f1"]
        acc = agg["accuracy"]
        lines.append(
            f"{variant:<18} {'mean':>6} {f1['mean']:>9.4f} {acc['mean']:>9.4f}"
            f"   (f1 std {f1['std']:.4f}, n={agg['runs']})"
        )
    return "\n".join(lines)

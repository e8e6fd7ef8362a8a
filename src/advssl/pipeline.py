"""End-to-end orchestration: config file -> data -> Phase I -> Phase II -> report.

A run is fully described by one JSON config (data source, PRM and Phase-II
hyperparameters, seeds, variant), decoded strictly by persist.from_plain.
There are no ablation flags: VARIANTS is the one table of variants, and
`ablate` runs them all. Per seed the pipeline generates or loads data,
splits it by the fixed SPLIT fractions and fits the normalizer on the
labeled training split only (prepare_data), then trains the plain model
and pseudo-labels the unlabeled pool (run_phase1). Then each variant is
trained (train_variant), evaluated on the held-out test split and written
(write_variant). Every Phase-II variant, the supervised baseline included, is
trainer.train under its table entry's overrides. Every artifact lands
under <output root>/run-<config hash>/, the root being the command line's
--out.

`ablate` uses both CPUs. A seed's variants share only the PreparedSeed and
draw from their own named RNG streams, so one worker, forked as soon as the
seed's data is prepared, trains and writes WORKER_VARIANTS while this
process does Phase I, prm_only and full, then writes ablation.json in
VARIANTS order: every artifact has the bytes of a one-process run. The
worker trains supervised_mlp, which reads no Phase-I output, while Phase I
fits here; it then receives the fitted plain model, pseudo-labels its own
copy of the pool and writes supervised_mlp before it trains
no_adversarial. `full` stays here: it is the longest variant, the paper's
model, and the one a profile of this process should see. `run` forks
nothing. worker.forked owns the fork, the pipes and the failure protocol.
"""

from __future__ import annotations

import contextlib
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
    csv_writer,
    default_schema,
    fit_normalizer,
    generate_synthetic,
    load_csv,
    save_csv,
    standardize,
    stratified_split,
)
from .metrics import MetricsReport, aggregate_runs, classification_report, confusion_matrix
from .persist import ConfigError, finite_number, from_plain, to_plain, write_json
from .persist import save_assl_model, save_plain_model
from .prm import PlainModel, PrmConfig, PseudoLabeledDataset, pseudo_label, train_prm
from .trainer import AsslConfig, predict_proba_matrix, train
from .worker import forked

# Variant name -> AsslConfig overrides (None: the Phase-I model alone), in ablate order.
VARIANTS = {
    "prm_only": None,
    "supervised_mlp": {"suppress_pseudo": True, "inference_head": "supervised"},
    "no_adversarial": {"alpha": 0.0},
    "full": {},
}
# The variants `ablate` trains in its forked worker, in this order (see the
# module docstring); the first reads neither the pseudo pool nor the plain model.
WORKER_VARIANTS = ("supervised_mlp", "no_adversarial")
# Every run's train/val/test fractions of the labeled rows.
SPLIT = (0.7, 0.15, 0.15)


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
    """A run's settings; run and ablate set data.synth.seed and assl.seed to
    each seed. No config sets the split: every run splits by SPLIT."""

    data: DataSource
    schema: DatasetSchema | None = None  # for CSV sources; synth builds its own
    prm: PrmConfig = field(default_factory=PrmConfig)
    assl: AsslConfig = field(default_factory=AsslConfig)
    seeds: tuple[int, ...] = (0,)
    variant: str = "full"

    def __post_init__(self):
        if len(self.seeds) < 1:
            raise ConfigError("need at least one seed")
        for seed in self.seeds:
            if not 0 <= seed < 2**32:
                raise ConfigError(f"seed {seed} lies outside [0, 2**32)")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.schema is not None and self.data.synth is not None:
            raise ConfigError("schema applies to CSV sources only; data.synth builds its own")

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
    """What one seed's variants share; the seed is assl_cfg.seed, the schema train.schema."""

    normalizer: Normalizer
    train: Dataset  # normalized
    val: Dataset
    test: Dataset
    test_raw: Dataset  # pre-normalization rows for the round-trip CSV
    pseudo: PseudoLabeledDataset | None  # None until run_phase1
    prm_model: PlainModel | None
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
    unlabeled = load_csv(src.unlabeled_csv, schema) if src.unlabeled_csv else None
    return labeled, unlabeled


def prepare_data(cfg: RunConfig, seed: int) -> tuple[PreparedSeed, Dataset]:
    """Load, split and normalize one seed's rows: a PreparedSeed whose Phase-I
    fields (pseudo, prm_model) are None and whose seconds hold prepare only,
    and the normalized unlabeled pool."""
    t0 = time.monotonic()
    labeled, unlabeled = _load_source(cfg, seed)
    train_raw, val_raw, test_raw = stratified_split(labeled, SPLIT, seed)
    if len(train_raw) == 0 or len(val_raw) == 0 or len(test_raw) == 0:
        raise DataError("a split came out empty; the dataset is too small")
    normalizer = fit_normalizer(train_raw)
    train = apply_normalizer(normalizer, train_raw)
    val = apply_normalizer(normalizer, val_raw)
    test = apply_normalizer(normalizer, test_raw)
    if unlabeled is None:
        unlabeled = Dataset(labeled.schema, np.empty((0, labeled.schema.num_features)))
    standardize(normalizer, unlabeled.rows)  # the pool is this seed's own: no copy
    return PreparedSeed(
        normalizer=normalizer,
        train=train,
        val=val,
        test=test,
        test_raw=test_raw,
        pseudo=None,
        prm_model=None,
        assl_cfg=replace(cfg.assl, seed=seed),
        seconds={"prepare": round(time.monotonic() - t0, 3)},
    ), unlabeled


def run_phase1(cfg: RunConfig, prep: PreparedSeed, pool: Dataset) -> PreparedSeed:
    """prepare_data's result with Phase I: the plain model fitted on the
    training split and its pseudo labels of pool, with their seconds."""
    t0 = time.monotonic()
    prm_model = train_prm(prep.train, cfg.prm, seed=prep.assl_cfg.seed)
    t1 = time.monotonic()
    pseudo = pseudo_label(prm_model, pool)
    seconds = {"phase1_fit": round(t1 - t0, 3), "pseudo_label": round(time.monotonic() - t1, 3)}
    return replace(prep, pseudo=pseudo, prm_model=prm_model, seconds={**prep.seconds, **seconds})


def train_variant(prep: PreparedSeed, variant: str):
    """trainer.train's (model, history) of one variant, None for prm_only. A
    variant that suppresses the pseudo pool reads no Phase-I field of prep."""
    overrides = VARIANTS[variant]
    if overrides is None:
        return None
    return train(prep.train, prep.pseudo, prep.val, replace(prep.assl_cfg, **overrides))


def write_variant(prep: PreparedSeed, variant: str, trained, seed_dir: str) -> MetricsReport:
    """Evaluate a variant that train_variant trained on the test split and
    return its report. Writes prm_model.json, report.json, test_split.csv and
    predictions.csv into seed_dir; every variant but prm_only adds history.csv,
    and model.json unless its table entry suppresses the pseudo pool."""
    overrides = VARIANTS[variant]
    if overrides is None:
        probs = prep.prm_model.predict_proba_matrix(prep.test.rows)
    else:
        model, history = trained
        cfg = replace(prep.assl_cfg, **overrides)
        probs = predict_proba_matrix(model, prep.test.rows, cfg.inference_head)
    preds = probs.argmax(axis=1)
    schema, normalizer = prep.train.schema, prep.normalizer
    report = classification_report(confusion_matrix(prep.test.labels, preds, schema.num_classes))

    os.makedirs(seed_dir, exist_ok=True)

    def path(file):
        return os.path.join(seed_dir, file)

    save_plain_model(path("prm_model.json"), prep.prm_model, schema, normalizer)
    if overrides is not None:
        if not overrides.get("suppress_pseudo"):
            save_assl_model(path("model.json"), model, cfg, schema, normalizer)
        history.to_csv(path("history.csv"))
    conf = prep.pseudo.confidences
    payload = {
        "seed": prep.assl_cfg.seed,
        "variant": variant,
        "metrics": report.to_dict(),
        "test_rows": int(preds.shape[0]),
        "pseudo_count": len(prep.pseudo),
        "pseudo_mean_confidence": float(conf.mean()) if conf.size else 0.0,
    }
    write_json(path("report.json"), payload)
    save_csv(prep.test_raw, path("test_split.csv"))
    write_predictions_csv(path("predictions.csv"), schema, probs)
    return report


def prediction_rows(schema: DatasetSchema, probs: np.ndarray):
    """Per row of probs: the label of its argmax, then repr(float(p)) per class."""
    for row, pred in zip(probs, probs.argmax(axis=1)):
        yield [schema.label_names[pred]] + [repr(float(p)) for p in row]


def write_predictions_csv(path, schema: DatasetSchema, probs: np.ndarray):
    with atomic_write(path) as handle:
        writer = csv_writer(handle)
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
            prep = run_phase1(cfg, *prepare_data(cfg, seed))
            t_variant = time.monotonic()
            seed_dir = os.path.join(run_dir, f"seed_{seed}")
            report = write_variant(prep, cfg.variant, train_variant(prep, cfg.variant), seed_dir)
            t_end = time.monotonic()
            timings.update({f"seed_{seed}/{k}": t for k, t in prep.seconds.items()})
            timings[f"seed_{seed}/variant"] = round(t_end - t_variant, 3)
            timings[f"seed_{seed}"] = round(t_end - t_seed, 3)
            reports.append(report)
        if len(reports) >= 2:
            write_json(os.path.join(run_dir, "aggregate.json"), aggregate_runs(reports))
    return {"run_dir": run_dir, "reports": reports}


def _ablate_seed(cfg: RunConfig, seed: int, seed_dir: str) -> tuple[PreparedSeed, dict]:
    """Prepare one seed, then train, evaluate and write every variant, with
    WORKER_VARIANTS in a worker (worker.forked) forked before Phase I; return
    the PreparedSeed and variant -> (report, seconds in the process that ran
    it). Before each variant here, a worker that has already failed raises
    its error."""
    data, pool = prepare_data(cfg, seed)

    def train_and_write(prep, variant):
        t0 = time.monotonic()
        trained = train_variant(prep, variant)
        report = write_variant(prep, variant, trained, os.path.join(seed_dir, variant))
        return report, round(time.monotonic() - t0, 3)

    def train_in_worker(receive):
        first, second = WORKER_VARIANTS  # first reads no Phase-I output
        t0 = time.monotonic()
        trained = train_variant(data, first)
        train_s = time.monotonic() - t0
        prm_model = receive()
        prep = replace(data, pseudo=pseudo_label(prm_model, pool), prm_model=prm_model)
        t1 = time.monotonic()
        report = write_variant(prep, first, trained, os.path.join(seed_dir, first))
        first_s = round(train_s + time.monotonic() - t1, 3)
        return {first: (report, first_s), second: train_and_write(prep, second)}

    with forked(train_in_worker, "ablation worker") as (send, worker_result):
        prep = run_phase1(cfg, data, pool)
        send(prep.prm_model)
        done = {}
        for variant in VARIANTS:
            if variant not in WORKER_VARIANTS:
                worker_result(wait=False)
                done[variant] = train_and_write(prep, variant)
        return prep, {**done, **worker_result()}


def execute_ablation(cfg: RunConfig, output_root: str) -> dict:
    """cmd_ablate body: all ablation variants on identical data and seeds.

    The manifest's timings_sec gains, per seed, seed_<s>/<phase> for the
    phases prepare, phase1_fit and pseudo_label (as in execute_run), and
    seed_<s>/<variant>: the seconds that variant took to train, evaluate and
    write in its own process. seed_<s>/supervised_mlp is the worker's
    seconds of training plus evaluating and writing, without its wait for
    the Phase-I model; its training overlaps Phase I.
    """
    run_dir = os.path.join(output_root, f"ablate-{cfg.config_hash()}")
    rows = []
    by_variant: dict[str, list[MetricsReport]] = {v: [] for v in VARIANTS}
    with _run_manifest(cfg, run_dir) as manifest:
        timings = manifest["timings_sec"]
        for seed in cfg.seeds:
            prep, done = _ablate_seed(cfg, seed, os.path.join(run_dir, f"seed_{seed}"))
            timings.update({f"seed_{seed}/{k}": t for k, t in prep.seconds.items()})
            for variant in VARIANTS:
                report, seconds = done[variant]
                timings[f"seed_{seed}/{variant}"] = seconds
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
        write_json(os.path.join(run_dir, "ablation.json"), {"rows": rows, "summary": summary})
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

"""Command-line entry points: run, ablate, predict, synth.

Exit codes: 0 success, 2 config error, 3 data or file-system error, 4
training divergence. Failures print one machine-parsable line to stderr:
`error: code=<n> reason=<text>`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .data import Dataset, apply_normalizer, csv_writer, generate_synthetic
from .data import load_csv, save_csv
from .pipeline import (
    ConfigError,
    RunConfig,
    execute_ablation,
    execute_run,
    format_ablation_table,
    load_config,
    prediction_rows,
)
from .persist import FORMAT_ASSL, load_model
from .trainer import DivergenceError, predict_proba_matrix

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


def _fail(code: int, reason: str) -> int:
    print(f"error: code={code} reason={reason}", file=sys.stderr)
    return code


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.seeds:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}")
        return dataclasses.replace(cfg, seeds=seeds)
    return cfg


def cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out = execute_run(cfg, args.out)
    print(f"run complete: {out['run_dir']}")
    for seed, report in zip(cfg.seeds, out["reports"]):
        print(f"seed {seed}: macro_f1={report.macro_f1:.4f} accuracy={report.accuracy:.4f}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out = execute_ablation(cfg, args.out)
    print(f"ablation complete: {out['run_dir']}")
    print(format_ablation_table(out["rows"], out["summary"]))
    return 0


def cmd_predict(args) -> int:
    fmt, loaded = load_model(args.model)
    if fmt == FORMAT_ASSL:
        model, cfg, schema, normalizer = loaded

        def proba(rows):
            return predict_proba_matrix(model, rows, cfg.inference_head)

    else:
        model, schema, normalizer = loaded
        proba = model.predict_proba_matrix

    ds = load_csv(args.csv, schema)
    if normalizer is not None:
        ds = apply_normalizer(normalizer, ds)
    csv_writer(sys.stdout).writerows(prediction_rows(schema, proba(ds.rows)))
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    if cfg.data.synth is None:
        raise ConfigError("synth command needs a config with a data.synth section")
    out_dir = os.path.join(args.out, f"synth-{cfg.config_hash()}")
    os.makedirs(out_dir, exist_ok=True)
    labeled, unlabeled, truth = generate_synthetic(cfg.data.synth)
    save_csv(labeled, os.path.join(out_dir, "labeled.csv"))
    save_csv(unlabeled, os.path.join(out_dir, "unlabeled.csv"))
    truth_ds = Dataset(labeled.schema, unlabeled.rows, truth)
    save_csv(truth_ds, os.path.join(out_dir, "unlabeled_truth.csv"))
    print(f"synthetic dataset written: {out_dir}")
    print(f"labeled rows: {len(labeled)}, unlabeled rows: {len(unlabeled)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advssl",
        description="Two-phase adversarial semi-supervised training for tabular ratings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, text in (
        ("run", cmd_run, "full pipeline: data -> phase I -> phase II -> report"),
        ("ablate", cmd_ablate, "run all ablation variants on identical data"),
    ):
        command = sub.add_parser(name, help=text)
        command.add_argument("--config", required=True, help="JSON run config")
        command.add_argument("--seeds", help="comma-separated seed override")
        command.add_argument("--out", default="runs", help="output root directory")
        command.set_defaults(fn=fn)

    predict = sub.add_parser("predict", help="rate rows from a CSV with a saved model")
    predict.add_argument("model", help="model JSON file")
    predict.add_argument("csv", help="input CSV (schema columns, no rating needed)")
    predict.set_defaults(fn=cmd_predict)

    synth = sub.add_parser("synth", help="emit a synthetic dataset to CSV and exit")
    synth.add_argument("--config", required=True)
    synth.add_argument("--out", default="runs", help="output root directory")
    synth.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except DivergenceError as exc:
        return _fail(EXIT_DIVERGED, str(exc))
    except (OSError, ValueError) as exc:  # a DataError is a ValueError
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else str(exc)
        if isinstance(exc, OSError) and exc.filename:
            reason = f"{reason}: {os.path.basename(str(exc.filename))}"
        return _fail(EXIT_DATA, reason)


if __name__ == "__main__":
    sys.exit(main())

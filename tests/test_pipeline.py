"""Pipeline-level integration tests, including the data-flow leakage audit."""

import ast
import contextlib
import fcntl
import glob
import json
import os
import pickle
import re
import signal
import time
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import advssl
from advssl import pipeline
from advssl.data import Dataset, DatasetSchema, Normalizer, SynthConfig
from advssl.metrics import MetricsReport
from advssl.persist import to_plain
from advssl.pipeline import (
    VARIANTS,
    WORKER_VARIANTS,
    ConfigError,
    DataSource,
    PreparedSeed,
    RunConfig,
    execute_ablation,
    execute_run,
    load_config,
    parse_config,
    prepare_data,
    prepare_seed,
    run_variant,
    write_predictions_csv,
)
from advssl.nnet import AdamState, DenseLayer, MlpParams
from advssl.prm import GbdtConfig, GbdtModel, LogregConfig, PlainModel, PrmConfig
from advssl.trainer import AsslConfig, AsslModel, DivergenceError, train
from advssl.tree import RegressionTree
from advssl.worker import WorkerTraceback, forked

ROOT = os.path.join(os.path.dirname(__file__), "..")
SMOKE = os.path.join(ROOT, "configs", "smoke.json")


@pytest.fixture(scope="module")
def smoke_cfg():
    return load_config(SMOKE)


class TestPrepareSeed:
    def test_normalizer_fitted_on_train_only(self, smoke_cfg):
        prep = prepare_seed(smoke_cfg, 0)
        # normalized train split must be centered; val/test generally not
        assert np.all(np.abs(prep.train.rows.mean(axis=0)) < 1e-10)
        assert len(prep.train) + len(prep.val) + len(prep.test) == 200

    def test_pseudo_pool_covers_unlabeled(self, smoke_cfg):
        prep = prepare_seed(smoke_cfg, 0)
        assert len(prep.pseudo) == 799  # 999 rows - 200 labeled
        assert np.all(prep.pseudo.confidences >= 1 / 3 - 1e-12)

    def test_variant_config_adjustments(self, smoke_cfg):
        base = prepare_seed(smoke_cfg, 0).assl_cfg
        assert list(VARIANTS) == ["prm_only", "supervised_mlp", "no_adversarial", "full"]
        assert VARIANTS["prm_only"] is None
        assert replace(base, **VARIANTS["no_adversarial"]).alpha == 0.0
        assert replace(base, **VARIANTS["supervised_mlp"]).suppress_pseudo
        assert replace(base, **VARIANTS["full"]) == base


class TestLeakageAudit:
    """Validation/test labels and hidden truth must never steer training
    math. Permuting them may only change snapshot selection, nothing about
    the preprocessing, the PRM, the pseudo labels or the per-step
    parameter trajectory."""

    def test_poisoned_val_test_labels_leave_training_untouched(self, smoke_cfg):
        prep = prepare_seed(smoke_cfg, 0)
        rng = np.random.default_rng(123)
        poisoned_val = Dataset(
            prep.val.schema, prep.val.rows, rng.permutation(prep.val.labels)
        )

        def collect(val_ds):
            traj = []

            def hook(step, model):
                if step <= 20:
                    traj.append(
                        [a.copy() for a in model.encoder.param_arrays()]
                        + [a.copy() for a in model.supervised_head.param_arrays()]
                    )

            cfg = prep.assl_cfg
            train(prep.train, prep.pseudo, val_ds, cfg, on_step=hook)
            return traj

        clean = collect(prep.val)
        poisoned = collect(poisoned_val)
        assert len(clean) == len(poisoned) > 0
        for a, b in zip(clean, poisoned):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)

    def test_normalizer_and_prm_ignore_eval_labels(self, smoke_cfg):
        # identical inputs -> identical prep regardless of what happens to
        # val/test labels afterwards (they are produced by the same split)
        a = prepare_seed(smoke_cfg, 1)
        b = prepare_seed(smoke_cfg, 1)
        np.testing.assert_array_equal(a.normalizer.mean, b.normalizer.mean)
        np.testing.assert_array_equal(a.pseudo.labels, b.pseudo.labels)
        grid = np.random.default_rng(5).normal(size=(10, 5))
        np.testing.assert_array_equal(
            a.prm_model.predict_proba_matrix(grid), b.prm_model.predict_proba_matrix(grid)
        )


class TestRunVariant:
    def test_all_variants_produce_reports(self, smoke_cfg, tmp_path):
        prep = prepare_seed(smoke_cfg, 0)
        for variant in VARIANTS:
            report = run_variant(prep, variant, str(tmp_path / variant))
            with open(tmp_path / variant / "predictions.csv") as handle:
                assert len(handle.readlines()) == 1 + len(prep.test)
            assert 0.0 <= report.accuracy <= 1.0

    def test_model_json_unless_the_table_suppresses_the_pseudo_pool(self, smoke_cfg, tmp_path):
        cfg = replace(smoke_cfg, assl=replace(smoke_cfg.assl, epochs=2))
        written = {}
        for suppress in (False, True):  # a config may suppress the pseudo pool itself
            prep = prepare_seed(replace(cfg, assl=replace(cfg.assl, suppress_pseudo=suppress)), 0)
            for variant in VARIANTS:
                run_variant(prep, variant, str(tmp_path / f"{variant}_{suppress}"))
                written[variant, suppress] = set(os.listdir(tmp_path / f"{variant}_{suppress}"))
        every = {"prm_model.json", "report.json", "test_split.csv", "predictions.csv"}
        for suppress in (False, True):
            assert written["prm_only", suppress] == every
            assert written["supervised_mlp", suppress] == every | {"history.csv"}
            assert written["no_adversarial", suppress] == every | {"history.csv", "model.json"}
            assert written["full", suppress] == every | {"history.csv", "model.json"}


class TestRunConfig:
    def test_hash_changes_with_content(self, smoke_cfg):
        other = replace(smoke_cfg, seeds=(1,))
        assert other.config_hash() != smoke_cfg.config_hash()

    def test_hash_stable(self, smoke_cfg):
        assert smoke_cfg.config_hash() == load_config(SMOKE).config_hash()

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (None, "22ae6f8d3164"),
            # A CSV source leaves its null unlabeled_csv out, like any None-default field.
            (lambda raw: {"data": {"labeled_csv": "l.csv"}, "seeds": [3]}, "7a96c72bedec"),
            # An int given for a float field is hashed as written, not as a float.
            (
                lambda raw: {
                    **raw,
                    "data": {"synth": {**raw["data"]["synth"], "noise_std": 1}},
                    "assl": {**raw["assl"], "alpha": 0},
                },
                "3419ebe94301",
            ),
        ],
        ids=["smoke", "csv_source", "ints_for_floats"],
    )
    def test_hash_pinned(self, tmp_path, edit, expected):
        """run-<hash> directory names must not change with the config code."""
        with open(SMOKE) as handle:
            raw = json.load(handle)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(edit(raw) if edit else raw))
        assert load_config(path).config_hash() == expected

    def test_missing_source_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"seeds": [0]})

    def test_conflicting_ablation_flags_rejected(self, smoke_cfg):
        """There are no ablation flags: the key is unknown, set or not."""
        raw = to_plain(smoke_cfg)
        raw["ablation"] = {"no_adversarial": True, "no_semi": True}
        with pytest.raises(ConfigError, match="unknown key 'ablation'"):
            parse_config(raw)

    def test_round_trip_through_the_codec(self, smoke_cfg):
        assert parse_config(to_plain(smoke_cfg)) == smoke_cfg

    def test_schema_with_a_synth_source_rejected(self, smoke_cfg):
        """data.synth builds its own schema; one given beside it would only move the hash."""
        schema = DatasetSchema(("a", "b"), ("L0", "L1"))
        with pytest.raises(ConfigError, match="schema applies to CSV sources only"):
            replace(smoke_cfg, schema=schema)
        csv_source = DataSource(labeled_csv="l.csv")
        assert replace(smoke_cfg, data=csv_source, schema=schema).schema == schema


# Every setting a config can hold, by config class: adding or removing one
# must change this table (and the option count in ROADMAP aim 2).
OPTION_SURFACE = {
    DataSource: ["synth", "labeled_csv", "unlabeled_csv"],
    RunConfig: ["data", "schema", "prm", "assl", "seeds", "variant"],
    SynthConfig: [
        "num_features",
        "num_classes",
        "samples_per_class",
        "labeled_fraction",
        "separation_scale",
        "noise_std",
        "seed",
    ],
    PrmConfig: ["variant", "gbdt", "logreg"],
    GbdtConfig: ["rounds", "max_depth", "shrinkage", "min_leaf_count"],
    LogregConfig: ["iterations", "learning_rate", "l2"],
    AsslConfig: [
        "embedding_dim",
        "encoder_hidden",
        "head_hidden",
        "disc_hidden",
        "lambda_l",
        "lambda_u",
        "lambda_adv",
        "alpha",
        "epochs",
        "batch_size",
        "learning_rate",
        "disc_learning_rate",
        "seed",
        "inference_head",
        "suppress_pseudo",
    ],
    # The records a model file or an optimizer carries: a field that comes back fails here.
    PlainModel: ["input_dim", "logreg", "gbdt"],
    GbdtModel: ["base_score", "trees", "train_loss"],
    RegressionTree: ["root"],
    DenseLayer: ["weights", "bias", "activation"],
    Normalizer: ["mean", "std"],
    AsslModel: ["encoder", "supervised_head", "semi_head", "discriminator"],
    MlpParams: ["layers"],
    AdamState: ["learning_rate", "step_count", "first_moment", "second_moment", "workspace"],
    # Values stated once: the seed is assl_cfg.seed, the schema train.schema, micro-F1 accuracy.
    PreparedSeed: [
        "normalizer",
        "train",
        "val",
        "test",
        "test_raw",
        "pseudo",
        "prm_model",
        "assl_cfg",
        "seconds",
    ],
    MetricsReport: [
        "precision",
        "recall",
        "f1",
        "support",
        "zero_division",
        "macro_precision",
        "macro_recall",
        "macro_f1",
        "weighted_f1",
        "accuracy",
    ],
}


WORD = re.compile(r"[A-Za-z_]\w*")


def public_definitions(tree):
    """Public module-level functions and classes, and public methods, as
    "name" or "Class.name"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )


def names_used(tree) -> Counter:
    """Identifiers a module names: names, attributes, imports and the words of
    strings other than docstrings. A name inside the def or class of that name
    (recursion) does not count."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node)
    }
    named = Counter()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            words = [node.id]
        elif isinstance(node, ast.Attribute):
            words = [node.attr]
        elif isinstance(node, ast.alias):
            words = [node.name.rsplit(".", 1)[-1]]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words = [] if id(node) in docstrings else WORD.findall(node.value)
        else:
            words = []
        named.update(w for w in words if w not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return named


class TestOptionSurface:
    @pytest.mark.parametrize("cls", OPTION_SURFACE, ids=lambda cls: cls.__name__)
    def test_init_fields_are_pinned(self, cls):
        assert [f.name for f in fields(cls) if f.init] == OPTION_SURFACE[cls]

    def test_no_module_reads_the_environment(self):
        package_dir = os.path.dirname(advssl.__file__)
        modules = sorted(n for n in os.listdir(package_dir) if n.endswith(".py"))
        assert "pipeline.py" in modules
        readers = []
        for name in modules:
            with open(os.path.join(package_dir, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    touched = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    touched = [alias.name for alias in node.names]
                else:
                    continue
                readers += [f"{name}: {t}" for t in touched if t in ("environ", "environb", "getenv")]
        assert readers == []

    def test_every_public_name_has_a_caller_outside_the_unit_tests(self):
        """A public function, class or method of advssl is named somewhere
        else in the package, bench/, configs/ or the acceptance criteria."""
        package = sorted(glob.glob(os.path.join(ROOT, "src", "advssl", "*.py")))
        callers = sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))
        callers.append(os.path.join(ROOT, "tests", "test_acceptance.py"))
        assert len(package) >= 13 and len(callers) >= 8
        named, defined = Counter(), []
        for path in package + callers:
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            named += names_used(tree)
            if path in package:
                defined += [f"{os.path.basename(path)}: {d}" for d in public_definitions(tree)]
        for path in glob.glob(os.path.join(ROOT, "configs", "*.json")) + glob.glob(
            os.path.join(ROOT, "bench", "*.json")
        ):
            with open(path, encoding="utf-8") as handle:
                named.update(WORD.findall(handle.read()))
        assert [d for d in defined if not named[re.split(r"\W+", d)[-1]]] == []


class TestArtifactWriters:
    def test_predictions_csv_failing_part_way_keeps_previous_file(self, tmp_path):
        schema = DatasetSchema(("a",), ("L0", "L1"))
        path = tmp_path / "predictions.csv"
        write_predictions_csv(path, schema, np.full((4, 2), 0.5))
        before = path.read_bytes()
        # A third probability column: row 2's argmax is a label the schema lacks.
        probs = np.array([[0.6, 0.4, 0.0], [0.4, 0.6, 0.0], [0.2, 0.3, 0.5], [0.6, 0.4, 0.0]])
        with pytest.raises(IndexError):  # the writer raises on row 2
            write_predictions_csv(path, schema, probs)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["predictions.csv"]


# A complete run's manifest.json holds these keys, a failed one also "error". The writers
# alone name the artifacts: an index of them in the manifest would only restate the layout.
MANIFEST_KEYS = {"config", "config_hash", "status", "timings_sec", "version"}


class TestRunTimings:
    def test_manifest_times_each_phase_of_each_seed(self, smoke_cfg, tmp_path):
        cfg = replace(smoke_cfg, assl=replace(smoke_cfg.assl, epochs=2), seeds=(3, 4))
        run_dir = execute_run(cfg, str(tmp_path))["run_dir"]
        with open(os.path.join(run_dir, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert set(manifest) == MANIFEST_KEYS
        timings = manifest["timings_sec"]
        phases = ("prepare", "phase1_fit", "pseudo_label", "variant")
        assert set(timings) == {"total"} | {
            key for s in cfg.seeds for key in [f"seed_{s}"] + [f"seed_{s}/{p}" for p in phases]
        }
        assert all(0.0 <= t <= timings["total"] for t in timings.values())
        for s in cfg.seeds:
            parts = sum(timings[f"seed_{s}/{p}"] for p in phases)
            assert parts <= timings[f"seed_{s}"] + 0.002  # each part rounded to 1 ms


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_until_the_worker_has_ended():
    """The worker is this process's only child; WNOWAIT leaves it to forked to reap."""
    deadline = time.monotonic() + 20
    while not os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT | os.WNOHANG):
        assert time.monotonic() < deadline, "the worker did not end"
        time.sleep(0.01)


def files_under(root):
    return {
        os.path.relpath(os.path.join(d, f), root): os.path.join(d, f)
        for d, _, names in os.walk(root)
        for f in names
    }


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run for seconds, even from
    a blocking read, write or wait, so that a hang fails instead of stalling."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def patch_variants(monkeypatch, **actions):
    """Make train_variant call actions[variant]() instead of training those variants."""
    real = pipeline.train_variant

    def train_variant(prep, variant):
        return actions[variant]() if variant in actions else real(prep, variant)

    monkeypatch.setattr(pipeline, "train_variant", train_variant)


class TestForked:
    def test_a_message_larger_than_a_pipe_buffer_arrives_whole(self, smoke_cfg):
        prep, pool = prepare_data(smoke_cfg, 0)
        gbdt = replace(smoke_cfg.prm.gbdt, rounds=300)  # 3 classes: 900 trees
        model = pipeline.train_prm(prep.train, replace(smoke_cfg.prm, gbdt=gbdt), seed=0)
        read_fd, write_fd = os.pipe()
        pipe_size = fcntl.fcntl(write_fd, fcntl.F_GETPIPE_SZ)
        os.close(read_fd)
        os.close(write_fd)
        assert len(pickle.dumps(model, pickle.HIGHEST_PROTOCOL)) > 4 * pipe_size

        def body(receive):
            time.sleep(0.2)  # the parent's send fills the pipe and waits for this read
            return receive().predict_proba_matrix(pool.rows)

        with deadline(30), forked(body, "test worker") as (send, result):
            send(model)
            probs = result()
        assert_no_child_left()
        assert np.array_equal(probs, model.predict_proba_matrix(pool.rows))

    def test_a_child_waiting_for_a_message_never_sent_reads_eof(self):
        with deadline(30), forked(lambda receive: receive(), "test worker") as (_, result):
            with pytest.raises(EOFError):
                result()
        assert_no_child_left()


class TestAblationWorker:
    """execute_ablation trains WORKER_VARIANTS in a forked worker."""

    @pytest.fixture
    def cfg(self, smoke_cfg):
        return replace(smoke_cfg, assl=replace(smoke_cfg.assl, epochs=4), seeds=(0, 1))

    def test_artifacts_match_variants_trained_inline(self, cfg, tmp_path):
        assert set(WORKER_VARIANTS) == {"supervised_mlp", "no_adversarial"}
        run_dir = execute_ablation(cfg, str(tmp_path / "forked"))["run_dir"]
        assert_no_child_left()
        inline_dir, rows = tmp_path / "inline", []
        for seed in cfg.seeds:
            prep = prepare_seed(cfg, seed)
            for variant in VARIANTS:
                rep = run_variant(prep, variant, str(inline_dir / f"seed_{seed}" / variant))
                rows.append(
                    {
                        "variant": variant,
                        "seed": seed,
                        "macro_f1": rep.macro_f1,
                        "macro_precision": rep.macro_precision,
                        "macro_recall": rep.macro_recall,
                        "accuracy": rep.accuracy,
                    }
                )
        forked, inline = files_under(run_dir), files_under(inline_dir)
        tables = {"manifest.json", "ablation.json", "ablation.txt"}
        assert set(forked) == set(inline) | tables
        assert len(inline) == 2 * (4 + 5 + 6 + 6)  # per seed: prm_only has no model or history
        for rel, path in inline.items():
            with open(path, "rb") as a, open(forked[rel], "rb") as b:
                assert a.read() == b.read(), rel
        with open(forked["ablation.json"]) as handle:
            table = json.load(handle)
        assert [(r["seed"], r["variant"]) for r in table["rows"]] == [
            (seed, v) for seed in cfg.seeds for v in VARIANTS
        ]
        assert table["rows"] == rows

    def test_manifest_times_each_variant(self, cfg, tmp_path):
        run_dir = execute_ablation(replace(cfg, seeds=(3,)), str(tmp_path))["run_dir"]
        with open(os.path.join(run_dir, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert set(manifest) == MANIFEST_KEYS
        timings = manifest["timings_sec"]
        phases = ("prepare", "phase1_fit", "pseudo_label")
        assert set(timings) == {"total"} | {f"seed_3/{k}" for k in (*phases, *VARIANTS)}
        assert all(0.0 <= t <= timings["total"] for t in timings.values())

    def test_worker_exception_raised_here_with_its_type_and_message(
        self, cfg, tmp_path, monkeypatch
    ):
        def diverge():
            raise DivergenceError("non-finite L_L in the worker")

        patch_variants(monkeypatch, no_adversarial=diverge)
        with pytest.raises(DivergenceError, match="^non-finite L_L in the worker$"):
            execute_ablation(cfg, str(tmp_path))
        assert_no_child_left()
        (manifest,) = tmp_path.glob("ablate-*/manifest.json")
        payload = json.loads(manifest.read_text())
        assert set(payload) == MANIFEST_KEYS | {"error"}
        assert payload["status"] == "failed"
        assert payload["error"] == "DivergenceError: non-finite L_L in the worker"

    def test_worker_exception_carries_the_worker_traceback(self, cfg, tmp_path, monkeypatch):
        def add_to_none():
            return None + 1  # raises TypeError in the worker

        patch_variants(monkeypatch, supervised_mlp=add_to_none)
        with pytest.raises(TypeError, match="unsupported operand") as info:
            execute_ablation(cfg, str(tmp_path))
        assert_no_child_left()
        cause = info.value.__cause__
        assert isinstance(cause, WorkerTraceback)
        assert "return None + 1  # raises TypeError in the worker" in str(cause)
        assert "in add_to_none" in str(cause)

    def test_worker_failure_is_raised_before_full_trains(self, cfg, tmp_path, monkeypatch):
        real = pipeline.train_variant

        def train_variant(prep, variant):
            if variant == "no_adversarial":  # trains after the model reached the worker
                raise DivergenceError("the worker failed first")
            if variant == "full":
                raise AssertionError("full trained after the worker had failed")
            if variant == "prm_only":
                wait_until_the_worker_has_ended()
            return real(prep, variant)

        monkeypatch.setattr(pipeline, "train_variant", train_variant)
        with pytest.raises(DivergenceError, match="^the worker failed first$"):
            execute_ablation(cfg, str(tmp_path))
        assert_no_child_left()
        (run_dir,) = tmp_path.glob("ablate-*")
        payload = json.loads((run_dir / "manifest.json").read_text())
        assert payload["status"] == "failed"
        assert payload["error"] == "DivergenceError: the worker failed first"
        assert (run_dir / "seed_0" / "prm_only" / "report.json").exists()
        assert not (run_dir / "seed_0" / "full").exists()

    def test_result_read_before_full_is_kept_for_the_end(self, cfg, tmp_path, monkeypatch):
        cfg = replace(cfg, seeds=(0,))
        unheld_dir = execute_ablation(cfg, str(tmp_path / "unheld"))["run_dir"]
        real = pipeline.train_variant

        def train_variant(prep, variant):
            if variant == "prm_only":
                wait_until_the_worker_has_ended()
            if variant == "full":
                assert_no_child_left()  # the poll before full read the result and reaped
            return real(prep, variant)

        monkeypatch.setattr(pipeline, "train_variant", train_variant)
        held_dir = execute_ablation(cfg, str(tmp_path / "held"))["run_dir"]
        assert_no_child_left()
        held, unheld = files_under(held_dir), files_under(unheld_dir)
        assert set(held) == set(unheld)
        assert len(held) == 4 + 5 + 6 + 6 + 3  # the variants, the tables and the manifest
        for rel in sorted(set(held) - {"manifest.json"}):
            with open(held[rel], "rb") as a, open(unheld[rel], "rb") as b:
                assert a.read() == b.read(), rel

    def test_worker_ending_without_a_result_raises_child_process_error(
        self, cfg, tmp_path, monkeypatch
    ):
        patch_variants(monkeypatch, supervised_mlp=lambda: os._exit(1))
        with pytest.raises(ChildProcessError, match="without a result .exit code 1"):
            execute_ablation(cfg, str(tmp_path))
        assert_no_child_left()

    def test_failure_here_kills_and_reaps_the_worker(self, cfg, tmp_path, monkeypatch):
        def stall():
            time.sleep(30)
            raise AssertionError("the worker was not killed")

        def diverge():
            raise DivergenceError("full diverged")

        patch_variants(monkeypatch, supervised_mlp=stall, full=diverge)
        t0 = time.monotonic()
        with pytest.raises(DivergenceError, match="full diverged"):
            execute_ablation(cfg, str(tmp_path))
        assert time.monotonic() - t0 < 20
        assert_no_child_left()

    def test_supervised_mlp_trains_while_phase1_fits(self, cfg, tmp_path, monkeypatch):
        marker = tmp_path / "supervised_mlp started"
        real_train, real_train_prm = pipeline.train, pipeline.train_prm

        def train(labeled, pseudo, validation, assl_cfg):
            if assl_cfg.suppress_pseudo:
                marker.touch()
            return real_train(labeled, pseudo, validation, assl_cfg)

        def train_prm(*args, **kwargs):
            give_up = time.monotonic() + 20
            while not marker.exists():
                assert time.monotonic() < give_up, "supervised_mlp did not start before Phase I"
                time.sleep(0.01)
            return real_train_prm(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train", train)
        monkeypatch.setattr(pipeline, "train_prm", train_prm)
        with deadline(60):
            execute_ablation(replace(cfg, seeds=(0,)), str(tmp_path / "out"))
        assert_no_child_left()

    @pytest.mark.parametrize("ending", ["raise", "exit"])
    def test_worker_ending_before_the_model_reaches_it(self, cfg, tmp_path, monkeypatch, ending):
        def end():
            if ending == "exit":
                os._exit(1)
            raise DivergenceError("the worker ended first")

        real_train_prm = pipeline.train_prm

        def train_prm(*args, **kwargs):  # Phase I starts once the worker has ended
            wait_until_the_worker_has_ended()
            return real_train_prm(*args, **kwargs)

        patch_variants(monkeypatch, supervised_mlp=end)
        monkeypatch.setattr(pipeline, "train_prm", train_prm)
        expected = {"raise": "^the worker ended first$", "exit": "without a result .exit code 1"}
        with deadline(30), pytest.raises(
            DivergenceError if ending == "raise" else ChildProcessError, match=expected[ending]
        ) as info:
            execute_ablation(cfg, str(tmp_path))
        assert_no_child_left()
        assert not isinstance(info.value.__context__, BrokenPipeError)
        if ending == "raise":
            assert isinstance(info.value.__cause__, WorkerTraceback)
        (run_dir,) = tmp_path.glob("ablate-*")
        assert not (run_dir / "seed_0" / "prm_only").exists()  # raised by the send

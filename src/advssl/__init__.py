"""Two-phase adversarial semi-supervised learning for tabular ratings.

Phase I trains a plain rating model on labeled rows and pseudo-labels the
unlabeled pool; Phase II trains a shared encoder, two classifier heads and
a labeled-vs-pseudo discriminator under a combined supervised + semi-
supervised + adversarial objective.
"""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    DataError,
    Dataset,
    DatasetSchema,
    Normalizer,
    SynthConfig,
    apply_normalizer,
    default_schema,
    fit_normalizer,
    generate_synthetic,
    load_csv,
    save_csv,
    stratified_split,
)
from .metrics import (  # noqa: F401
    ConfusionMatrix,
    MetricsReport,
    aggregate_runs,
    classification_report,
    confusion_matrix,
    macro_f1_score,
)
from .prm import (  # noqa: F401
    GbdtConfig,
    LogregConfig,
    PlainModel,
    PrmConfig,
    PseudoLabeledDataset,
    pseudo_label,
    train_gbdt,
    train_logreg,
    train_prm,
)
from .trainer import (  # noqa: F401
    AsslConfig,
    AsslModel,
    DivergenceError,
    TrainHistory,
    classify,
    encode,
    init_assl_model,
    loss_adversarial,
    loss_bce_l2,
    train,
)
from .baseline import SupervisedMlp, train_supervised  # noqa: F401

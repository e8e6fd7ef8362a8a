"""Plain supervised MLP: the Phase-II loop with the pseudo pool suppressed.

The uplift reference is not a second trainer: `train_supervised` runs
`trainer.train` with `suppress_pseudo=True` and keeps the encoder and the
supervised head, so it matches suppressed Phase II bit for bit.
"""

from __future__ import annotations

import dataclasses

from .data import Dataset
from .nnet import Matrix, MlpParams
from .trainer import AsslConfig, TrainHistory, classify, encode, train


@dataclasses.dataclass
class SupervisedMlp:
    encoder: MlpParams
    head: MlpParams

    def predict_proba_matrix(self, x: Matrix) -> Matrix:
        return classify(self.head, encode(self.encoder, x))


def train_supervised(
    labeled: Dataset, validation: Dataset, cfg: AsslConfig, on_step=None
) -> tuple[SupervisedMlp, TrainHistory]:
    """Train on labeled rows only; on_step(step, model) sees a SupervisedMlp.

    Snapshots are picked by the supervised head whatever cfg.inference_head
    says, because the semi head never trains here.
    """
    cfg = dataclasses.replace(cfg, suppress_pseudo=True, inference_head="supervised")

    def hook(step, m):
        on_step(step, SupervisedMlp(m.encoder, m.supervised_head))

    best, history = train(labeled, None, validation, cfg, on_step=hook if on_step else None)
    return SupervisedMlp(best.encoder, best.supervised_head), history

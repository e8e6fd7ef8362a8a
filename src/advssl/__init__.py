"""Two-phase adversarial semi-supervised learning for tabular ratings.

Phase I trains a plain rating model on labeled rows and pseudo-labels the
unlabeled pool; Phase II trains a shared encoder, two classifier heads and
a labeled-vs-pseudo discriminator under a combined supervised + semi-
supervised + adversarial objective.
"""

__version__ = "0.1.0"

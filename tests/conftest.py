import pytest

from swipe.corpus import TASK_MULTILABEL
from swipe.model import ENCODER_PRECOMPUTED, ModelConfig, SwipeModel


@pytest.fixture(scope="session")
def head_model():
    """Build a frozen-vector model around given head parameters.

    `head_model(params, pooling, task_kind)` returns a precomputed-encoder
    `SwipeModel` with no interaction layers whose head is `params`, so
    `predict_features(SegmentMatrix)` runs the model's own forward path on
    hand-made segment vectors.
    """

    def build(params, pooling, task_kind=TASK_MULTILABEL):
        config = ModelConfig(
            labels=tuple(f"label{i}" for i in range(params.n_labels)),
            task_kind=task_kind,
            pooling=pooling,
            encoder_mode=ENCODER_PRECOMPUTED,
            dim=params.dim,
        )
        return SwipeModel(config=config, encoder=None, interaction=None, head=params)

    return build

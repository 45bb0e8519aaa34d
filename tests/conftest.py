import numpy as np
import pytest

from swipe.corpus import TASK_MULTILABEL
from swipe.model import ENCODER_PRECOMPUTED, ModelConfig, SwipeModel


@pytest.fixture(scope="session")
def head_params():
    """Draw head parameters as a seeded test instance.

    `head_params(n_labels, dim, init_seed)` returns the four "head.*" arrays:
    weight then gate weight drawn by one `default_rng(init_seed)` with std
    1/sqrt(dim), biases zero.
    """

    def draw(n_labels, dim, init_seed=0):
        rng = np.random.default_rng(init_seed)
        weight = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(n_labels, dim))
        gate_weight = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(n_labels, dim))
        return {"head.weight": weight, "head.bias": np.zeros(n_labels),
                "head.gate_weight": gate_weight, "head.gate_bias": np.zeros(n_labels)}

    return draw


@pytest.fixture(scope="session")
def head_model():
    """Build a frozen-vector model around given head parameters.

    `head_model(params, pooling, task_kind)` returns a precomputed-encoder
    `SwipeModel` with no interaction layers whose parameters are the "head.*"
    arrays of `params` its pooling has (gate arrays only under gated pooling:
    an ungated model has no gate tensors, so they are not handed over), so
    `predict_features(SegmentMatrix)` runs the model's own forward path on
    hand-made segment vectors.
    """

    def build(params, pooling, task_kind=TASK_MULTILABEL):
        n_labels, dim = params["head.weight"].shape
        config = ModelConfig(
            labels=tuple(f"label{i}" for i in range(n_labels)),
            task_kind=task_kind,
            pooling=pooling,
            encoder_mode=ENCODER_PRECOMPUTED,
            dim=dim,
        )
        return SwipeModel.from_arrays(config, {name: array for name, array in params.items()
                                               if pooling.gated or "gate" not in name})

    return build


@pytest.fixture(scope="session")
def float64_copy():
    """Copy a model into float64.

    `float64_copy(model)` returns a model with the same config and encoder
    (attached vectors included) whose parameters are float64 copies of the
    model's, so its passes run the same ops in float64: every op keeps its
    inputs' dtype. Oracles whose tolerances are float64's run on it.
    """

    def copy(model):
        params = {name: array.astype(np.float64) for name, array in model.params.items()}
        out = SwipeModel.from_arrays(model.config, params)
        out.encoder = model.encoder
        return out

    return copy

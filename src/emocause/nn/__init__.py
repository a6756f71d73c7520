from .core import (
    BiLstm,
    LinearParams,
    LstmParams,
    Rng,
    SgdConfig,
    bce_loss,
    elu,
    linear,
    log_softmax,
    nll_loss,
    sgd_step,
    sigmoid,
)
from .gradcheck import gradient_check, max_relative_error

__all__ = [
    "BiLstm",
    "LinearParams",
    "LstmParams",
    "Rng",
    "SgdConfig",
    "bce_loss",
    "elu",
    "gradient_check",
    "linear",
    "log_softmax",
    "max_relative_error",
    "nll_loss",
    "sgd_step",
    "sigmoid",
]

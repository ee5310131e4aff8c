"""Single-pass uncertainty for dropout networks.

Propagates the expectation and variance of the dropout-induced signal
distribution through every layer in one forward pass, reproducing what
T-sample dropout inference estimates by brute force.  Ships with the sampling
engine used to validate every propagated moment, a minibatch trainer, an
uncertainty metrics suite, and an experiment CLI.
"""

from .moments import MomentTensor, std_normal_cdf
from .layers import (
    Conv2DSpec,
    DenseSpec,
    DropoutSpec,
    FlattenSpec,
    MaxPool2DSpec,
    ReluSpec,
    SoftmaxSpec,
    conv2d_det,
    conv2d_mp,
    dense_det,
    dense_mp,
    dropout_det,
    dropout_mp,
    dropout_sample,
    maxpool2d_det,
    maxpool2d_mp,
    relu_det,
    relu_mp,
    softmax_det,
    softmax_mp,
    variance_clamp_count,
    reset_variance_clamp_count,
)
from .network import (
    CategoricalPrediction,
    Deterministic,
    GaussianPrediction,
    MCSample,
    ModelMeta,
    ModelSpec,
    MomentPropagation,
    cnn_classifier,
    forward_det,
    forward_mp,
    load_model,
    mlp_regression,
    predict,
    save_model,
)
from .mc import MomentEstimate, SampleBatch, estimate_moments, mc_forward
from .training import (
    EarlyStopping,
    GridSearchResult,
    LrReduction,
    TrainConfig,
    TrainReport,
    TrainingDivergedError,
    grid_search_uci,
    train,
)
from .metrics import (
    RegressionScore,
    RocResult,
    ensemble_combine,
    entropy,
    filter_curve,
    one_minus_max,
    pearson_ci,
    regression_nll_mc,
    regression_nll_mp,
    roc_auc,
    wilson_ci,
)
from .data import (
    DataError,
    Dataset,
    gen_synthetic_images,
    gen_toy_regression,
    load_cifar10,
    load_csv_regression,
    ood_partition,
)

__version__ = "0.1.0"

"""Monte Carlo uncertainty quantification with stochastic regularizers.

Train small residual networks with unit drop, block drop, or residual path
drop; keep the sampling active at inference to approximate the predictive
posterior; and measure what that buys with calibration and selective-
prediction metrics, detection fusion, and Pareto sweeps.
"""

from .nn_core import (
    ResidualNet,
    TrainConfig,
    backward,
    forward,
    init_net,
    load_checkpoint,
    loss,
    save_checkpoint,
    sgd_step,
    train,
)
from .stochastic import (
    KIND_BLOCK,
    KIND_PATH,
    KIND_UNIT,
    MaskSample,
    StochasticSpec,
    sample_mask,
)
from .mc_inference import PredictiveSummary, deterministic_predict, mc_predict
from .metrics import (
    ConfigPoint,
    EvalReport,
    ScoredPrediction,
    accuracy_rejection_curve,
    auarc,
    brier,
    ece,
    ipp_select,
    mean_binary_entropy,
    pareto_front,
    shannon_entropy,
)
from .detection import (
    Box,
    ClusteredObservation,
    Detection,
    GroundTruth,
    NoiseSpec,
    bsas_cluster,
    iou,
    label_tp_fp,
    map_50_95,
    synth_detector,
)
from .datasets import ShiftLevel, ShiftSpec, make_blobs, make_box_scenes, make_moons
from .harness import ExperimentConfig, run_shift, run_sweep
from .rng import pass_stream, substream

__version__ = "0.1.0"

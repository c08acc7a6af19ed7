"""Transformer classification of complete weighted connectivity graphs.

Library layout:

- ``bnt.rng``      deterministic counter-based random streams
- ``bnt.linalg``   softmax, Xavier init, Gram-Schmidt, sign-fixed LAPACK eigensolver
- ``bnt.model``    parameter vector layout, attention stack, readouts, analytic gradients
- ``bnt.data``     synthetic correlation graphs, dataset file, splits
- ``bnt.training`` Adam loop, checkpoints, train reports
- ``bnt.metrics``  AUROC, threshold metrics, assignment difference score
- ``bnt.theory``   variance-functional and VIF verification suite
- ``bnt.workers``  ordered fork pool for independent runs and Monte Carlo blocks
- ``bnt.cli``      command line entry points
"""

import os

# Single-threaded BLAS keeps every reduction order, so re-runs are bit-exact.
# The variables act only if set before NumPy first loads; a value the user
# set is kept.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .rng import Rng
from .linalg import (
    DegenerateBasisError,
    gram_schmidt,
    symmetric_eigendecomposition,
    xavier_uniform,
)
from .model import (
    CentersMode,
    FeatureMode,
    ForwardTrace,
    ModelConfig,
    ModelParams,
    Readout,
    baseline_readout,
    forward,
    init_params,
    loss_and_grad,
    node_feature,
    ocread,
)
from .data import (
    ConnectivityGraph,
    GeneratorSpec,
    SplitPlan,
    generate_dataset,
    random_split,
    read_dataset,
    stratified_split,
    write_dataset,
)
from .training import (
    AdamState,
    TrainConfig,
    TrainReport,
    adam_step,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .metrics import EvalResult, auroc, difference_score, threshold_metrics
from .theory import (
    VarianceFunctionalEstimate,
    VifReport,
    correlated_unit_centers,
    orthonormal_centers,
    variance_functional_2d,
    variance_functional_mc,
    vif,
)

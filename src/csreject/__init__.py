"""Cost-sensitive classification with a reject option.

One-vs-rest score ensembles trained with a cost-weighted surrogate, a
three-way decision rule (predict / reject-by-distance / reject-by-ambiguity),
oracle and calibration audits, baselines, weak supervision, and an
experiment harness.
"""

from .core import (
    Dataset,
    Decision,
    MetricsRecord,
    RejectionCost,
    compute_metrics,
)
from .losses import MARGIN_LOSSES, MarginLossSpec, get_loss
from .surrogate import (
    cs_loss_batch,
    decide,
    decide_batch,
)
from .theory import (
    audit_calibration,
    audit_excess_random,
    audit_oracle_equivalence,
    binary_three_way_batch,
    chow_rule_batch,
    ensemble_chow_batch,
    excess_chain_batch,
    psi_inverse,
    psi_transform,
)
from .models import AdamState, LinearModel, MlpModel, TrainConfig, adam_step, make_model, train
from .data import (
    GaussianMixtureSpec,
    PosteriorOracle,
    Standardizer,
    gen_gauss_mixture,
    gen_twonorm,
    load_csv,
    split,
    standardize,
    twonorm_spec,
)
from .weaksup import (
    inject_uniform_noise,
    make_pu_dataset,
    pu_risk_nn,
    pu_risk_unbiased,
    train_pu,
)
from .harness import METHODS, GridSpec, Method, ResultRow, SummaryRow, aggregate, cell_groups, run_cell, run_grid

__version__ = "0.1.0"

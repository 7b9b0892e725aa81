"""Retention-gated attention with a single global KV budget over a paged cache."""

from .backbone import Backbone, student_backward, student_forward, teacher_forward
from .eviction import (
    EvictionPolicy,
    score_entries,
    select_retained,
)
from .gates import (
    GateParams,
    ModelShape,
    cap_loss_global_grad,
    init_gate_params,
    load_gates,
    quality_loss,
    save_gates,
)
from .numerics import EmptySupportError, sigmoid, softmax, softmax_log_space
from .paged_cache import PagedKVStore
from .tasks import TaskSpec, build_task_model, default_shape, generate_dataset, generate_sample
from .theory import (
    DilutionInstance,
    PersistenceConfig,
    StabilityError,
    check_reweighting_identity,
    check_dilution_bound,
    dilution,
    dilution_lower_bound,
    fit_var1,
    simulate_persistence,
    survival_curve,
)
from .training import DivergenceError, loss_and_grads, train_gates

__version__ = "0.1.0"

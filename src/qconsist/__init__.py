"""Dithered uniform quantization of Gaussian random projections.

Library for consistent signal reconstruction from quantized random
projections: exact consistency-cell geometry, feasibility solvers, the
dumbbell crossing-probability machinery, closed-form measurement bounds,
and reproducible Monte Carlo experiment campaigns with a CLI front end.
"""

from .bounds import RhoConstants, covering_bound, min_measurements, predicted_eps, rho_constants
from .buffon import (
    DumbbellConfig,
    BoundChainReport,
    ProbEstimate,
    conditional_integral,
    dumbbell_consistent_event,
    estimate_p1,
    estimate_p1_conditional,
    kappa,
    consistent_pair_bound,
    dumbbell_radius,
    mixture_p1,
    verify_bound_chain,
)
from .cellgeom import (
    ConsistencyCell,
    WidthEstimate,
    WorstCaseResult,
    build_cell,
    cell_contains,
    empirical_worst_case,
    estimate_width,
    ray_exit_relaxed,
    ray_exit_strict,
)
from .experiments import (
    CSV_HEADER,
    DecayFit,
    ExperimentConfig,
    RunRecord,
    bias_experiment,
    decay_sweep,
    fit_loglog,
    noise_power_check,
    proximity_violation_scan,
    write_records,
)
from .quantizer import (
    QuantizedObservation,
    QuantizerSpec,
    decode,
    encode,
    l1_discrepancy,
    quantization_error,
    sense_quantize,
)
from .randkit import Stream, derive_stream, gauss, substream, uniform, unit_sphere
from .reconstruct import (
    ReconstructionResult,
    linear_baseline,
    pocs_consistent,
    pocs_on_support,
    qcs_enumerate,
)
from .sensing import (
    SensingEnsemble,
    Signal,
    SignalModel,
    gen_ensemble,
    load_ensemble,
    sample_signal,
    save_ensemble,
    sense,
)

__version__ = "0.1.0"

"""EMG envelope extraction with Koopman-style grip-force estimation and forecasting."""

from .calibration import (
    CalibrationPolynomial,
    DEFAULT_CALIBRATION,
    MinMaxScaler,
    calibrate_dynamometer,
    prepare_grip,
    zero_offset,
)
from .errors import ConfigError, DataError, EmgripError, NumericError
from .estimation import (
    EstimatorModel,
    HankelParams,
    IndicatorGrid,
    LiftedMatrix,
    build_lifted_matrices,
    estimate_batch,
    fit_estimator,
    fit_static_koopman,
    hankel_lift,
    indicator_observables,
)
from .forecasting import (
    DmdModel,
    ForecastHyperparams,
    fit_amplitudes,
    fit_dmd,
    forecast,
    grid_search,
    log_interaction_lift,
    lowess_smooth,
    predict_batch,
    thin,
)
from .io import Recording, read_recording, write_recording
from .metrics import (
    AnovaTable,
    RunRecord,
    anova_rbd,
    block_effects,
    summary_stats,
    wmape,
)
from .processing import (
    SmoothingParams,
    SpectralMask,
    TimestampedSeries,
    apply_spectral_mask,
    batch_spectra,
    default_optimal_mask,
    envelope_batches,
    peak_cross_correlation,
    process_batch,
    process_recording,
    resample_linear,
    smooth_ema,
    xcorr_side,
)
from .sensitivity import (
    Bounds,
    DecisionVector,
    NarrowingRecord,
    SensitivityResult,
    default_decision_bounds,
    envelope_grip_xcorr,
    latin_hypercube,
    map_objective,
    objective,
    projection_summary,
    rbdfast_indices,
    rbdfast_sample,
    saltelli_sample,
    sobol_indices,
)
from .simulate import (
    LatencyReport,
    StreamResult,
    estimation_wmape,
    evaluate_run,
    prediction_wmape,
    stream_simulate,
)
from .synth import SynthProfile, synth_corpus, synth_recording

__version__ = "0.1.0"

"""Desk-scale simulator and analysis toolkit for an underwater decoy-state
BB84 link: water-channel link budgets, a pulse-level Monte Carlo of the
quantum phase, the full classical coordination protocol (sifting, estimation,
Cascade, privacy amplification) over in-memory or TCP transports, and
decoy-state rate analysis with calibration against measured anchors."""

from .analysis import (
    Anchor,
    CalibrationResult,
    DecoyStatistics,
    KeyRateReport,
    SinglePhotonBounds,
    calibrate,
    cutoff_distance,
    estimate_bounds,
    expected_statistics,
    secure_key_rate,
    sweep_distance,
    sweep_to_csv,
)
from .channel import (
    DB_PER_NEPER,
    JERLOV_COEFFICIENTS,
    ReceiverLoss,
    WaterChannel,
    distance_for_loss,
    end_to_end_transmittance,
    jerlov_coefficient,
    loss_db,
    transmittance,
)
from .detection import (
    BobView,
    DetectorConfig,
    DoubleClickPolicy,
    dark_prob_for_background_yield,
    expected_gain,
    expected_qber,
    simulate_detection,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    RunReport,
    config_from_dict,
    connect,
    load_config,
    override_seeds,
    run_experiment,
    run_sweep,
    serve,
    simulate_quantum_phase,
    tomography_report,
)
from .polarization import (
    Basis,
    Polarization,
    TomographyCounts,
    fidelity,
    ideal_state,
    misalignment_error_prob,
    pure_density,
    rotate,
    simulate_tomography_counts,
    tomography,
    validate_density_matrix,
)
from .postprocess import (
    PASeed,
    binary_entropy,
    final_key_length,
    generate_pa_seed,
    key_hash_64,
    toeplitz_hash,
)
from .protocol import (
    AliceSession,
    BobSession,
    Frame,
    FrameChecksumError,
    FrameDecodeError,
    FrameTruncatedError,
    FrameType,
    Phase,
    ProtocolOptions,
    UnknownFrameTypeError,
    decode_frame,
    encode_frame,
)
from .source import (
    AliceView,
    SourceConfig,
    StateClass,
    WORD_CLASS,
    generate_pulse_train,
)
from .transport import InProcessPump, TranscriptEntry, load_transcript, save_transcript

__version__ = "0.1.0"

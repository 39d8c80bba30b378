"""Desk-scale simulator and analysis toolkit for an underwater decoy-state
BB84 link: water-channel link budgets, a pulse-level Monte Carlo of the
quantum phase, the full classical coordination protocol (sifting, estimation,
Cascade, privacy amplification) over in-memory or TCP transports, and
decoy-state rate analysis with calibration against measured anchors.

Each public name is loaded from its submodule on first use (PEP 562), so
`from uwqkd import config_from_dict` loads the config reader and the
settings it validates, not the sessions, Cascade or sockets.
"""

import importlib

_NAMES = {
    "analysis": (
        "Anchor", "CalibrationResult", "DecoyStatistics", "KeyRateReport", "SinglePhotonBounds",
        "calibrate", "cutoff_distance", "estimate_bounds", "expected_statistics",
        "secure_key_rate", "sweep_distance", "sweep_to_csv",
    ),
    "channel": (
        "DB_PER_NEPER", "JERLOV_COEFFICIENTS", "ReceiverLoss", "WaterChannel", "distance_for_loss",
        "jerlov_coefficient", "loss_db", "transmittance",
    ),
    "config": (
        "ConfigError", "ExperimentConfig", "ProtocolOptions", "config_from_dict", "load_config",
        "override_seeds",
    ),
    "detection": (
        "BobView", "DetectorConfig", "DoubleClickPolicy", "dark_prob_for_background_yield",
        "expected_gain", "expected_qber", "simulate_detection",
    ),
    "harness": (
        "RunReport", "connect", "run_experiment", "run_sweep", "serve", "simulate_quantum_phase",
        "tomography_report",
    ),
    "polarization": (
        "Basis", "Polarization", "TomographyCounts", "fidelity", "ideal_state",
        "misalignment_error_prob", "pure_density", "rotate", "simulate_tomography_counts",
        "tomography", "validate_density_matrix",
    ),
    "postprocess": (
        "PASeed", "binary_entropy", "final_key_length", "generate_pa_seed", "key_hash_64",
        "toeplitz_hash",
    ),
    "protocol": (
        "AliceSession", "BobSession", "Frame", "FrameChecksumError", "FrameDecodeError",
        "FrameTruncatedError", "FrameType", "Phase", "UnknownFrameTypeError", "decode_frame",
        "encode_frame",
    ),
    "source": ("AliceView", "SourceConfig", "StateClass", "WORD_CLASS", "generate_pulse_train"),
    "transport": ("InProcessPump", "TranscriptEntry", "load_transcript", "save_transcript"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value

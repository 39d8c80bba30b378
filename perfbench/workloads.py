"""The benchmark's workloads: which link each session runs and how it is carried.

Each workload is a closed loop, one complete key-exchange session at a time.
The benchmark owns these configs; the program receives only the config built
for each session, whose three role seeds come from the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from uwqkd import ExperimentConfig, config_from_dict, override_seeds

# The values of configs/tank_run.json: a 2.4 m tank at 21.3 dB end to end
# (eta ~ 7.4e-3), 4M pulses, about 12.7k clicks per session.
TANK_LINK = {
    "n_pulses": 4_000_000,
    "seeds": {"alice": 401, "bob": 402, "channel": 403},
    "source": {"mu": 0.8, "nu": 0.1, "repetition_rate_hz": 20000000.0},
    "channel": {"attenuation_coefficient_per_m": 0.98, "length_m": 2.4},
    "receiver": {"optics_loss_db": 4.1, "detector_efficiency": 0.2},
    "detector": {"dark_count_prob_per_gate": 2e-05, "double_click_policy": "random_bit"},
    "misalignment_deg": 6.859,
    "protocol": {"sample_fraction": 0.1, "n_cascade_passes": 4, "timeout_s": 30.0},
}

# The low-loss link of acceptance criteria 6 and 8 (3.1 dB, 8 degree frame
# misalignment) at 500k pulses: about 86k clicks and 36k bits into Cascade
# and privacy amplification per session.
LOW_LOSS_LINK = {
    "n_pulses": 500_000,
    "seeds": {"alice": 11, "bob": 22, "channel": 33},
    "source": {"mu": 0.8, "nu": 0.1, "repetition_rate_hz": 20e6},
    "channel": {"attenuation_coefficient_per_m": 0.05, "length_m": 10.0},
    "receiver": {"optics_loss_db": 0.5, "detector_efficiency": 0.9},
    "detector": {"dark_count_prob_per_gate": 1e-5},
    "misalignment_deg": 8.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    link: dict
    transport: str  # "inprocess": run_experiment; "tcp": serve/connect over loopback

    def config(self, session_seed: int) -> ExperimentConfig:
        """The config of one session: the workload's link with role seeds
        session_seed, +1 and +2."""
        return override_seeds(config_from_dict(self.link), session_seed)


WORKLOADS = {
    # The quantum phase dominates: source and detection over 4M slots, of
    # which about 0.3% click. Post-processing is almost bypassed.
    "tank": Workload("tank", TANK_LINK, "inprocess"),
    # The same link with each endpoint in its own thread, simulating its own
    # half of the quantum phase concurrently under the GIL, and every frame
    # crossing a loopback socket: round trips and thread contention show.
    "tank-tcp": Workload("tank-tcp", TANK_LINK, "tcp"),
    # Post-processing dominates: Toeplitz hashing of ~36k bits (two O(n*m)
    # np.convolve calls) and Cascade; source and detection are almost bypassed.
    # These two run but are not listed in BENCHMARK.json: on a shared 2-core
    # machine their ten-run spread of session time reached 0.22-0.27, at the
    # largest bound a listed metric may have.
    "lowloss": Workload("lowloss", LOW_LOSS_LINK, "inprocess"),
    "lowloss-tcp": Workload("lowloss-tcp", LOW_LOSS_LINK, "tcp"),
}


def session_seeds(workload_seed: int):
    """Endless, reproducible stream of per-session master seeds."""
    rng = np.random.default_rng(workload_seed)
    while True:
        yield int(rng.integers(1, 2**31))

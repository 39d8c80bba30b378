"""Run the two protocol endpoints as separate peers over a TCP socket.

Both sides share one config, and each simulates only its own side: the
receiver listens and then runs the quantum phase for its bases and clicks,
while the transmitter draws only its own pulse stream and connects. Only the
classical frames cross the wire. At the end both hold the same key and
publish the same report, except for the receiver-side quantum fields the
transmitter cannot know. In a real deployment the two processes would run
on different machines with `uwqkd serve` and `uwqkd connect`.
"""

import socket
import threading

from uwqkd import config_from_dict
from uwqkd.harness import connect, serve

config = {
    "n_pulses": 4_000_000,
    "seeds": {"alice": 73, "bob": 74, "channel": 75},
    "source": {"mu": 0.8, "nu": 0.1, "repetition_rate_hz": 20e6},
    "channel": {"attenuation_coefficient_per_m": 0.98, "length_m": 2.4},
    "receiver": {"optics_loss_db": 4.1, "detector_efficiency": 0.2},
    "detector": {"dark_count_prob_per_gate": 2e-4},
    "misalignment_deg": 6.859,
}
cfg = config_from_dict(config)

HOST = "127.0.0.1"
with socket.socket() as probe:  # a free loopback port, so a busy one cannot fail the demo
    probe.bind((HOST, 0))
    PORT = probe.getsockname()[1]
reports = {}


def receiver_side():
    reports["bob"] = serve(cfg, HOST, PORT)


listener = threading.Thread(target=receiver_side)
listener.start()
reports["alice"] = connect(cfg, HOST, PORT)
listener.join()

alice, bob = reports["alice"], reports["bob"]
print(f"transmitter status: {alice.status}")
print(f"receiver status:    {bob.status}")

print(f"\nkey length: {alice.key['length']} bits on both sides")
print(f"transmitter key sha256: {alice.key['sha256'][:32]}...")
print(f"receiver key sha256:    {bob.key['sha256'][:32]}...")
# a link short enough to distil no key would make the agreement check vacuous
assert alice.key["length"] > 0 and bob.key["length"] > 0
assert alice.key["sha256"] == bob.key["sha256"]

# Identical seeds mean identical measured statistics on both ends.
assert alice.statistics == bob.statistics
print("\nboth endpoints agree on the decoy statistics:")
print(f"  Q_mu = {alice.statistics['Q_mu']:.4e}, E_mu = {alice.statistics['E_mu']:.4f}")

# The reports match field for field apart from wall-clock duration, the
# per-side error counters and the receiver-side quantum fields, which the
# transmitter never simulates: it reports only the click count Bob revealed.
a, b = alice.to_dict(), bob.to_dict()
for volatile in ("duration_s", "error_counters"):
    a.pop(volatile), b.pop(volatile)
b["quantum"].update(basis_match_fraction=None, n_multi_clicks=None, discarded_doubles=None)
assert a == b
print(f"\nclicks: {a['quantum']['n_clicks']} on both sides")
print("reports identical apart from timing and receiver-only quantum fields: ok")

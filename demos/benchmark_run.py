"""One full simulated key exchange, from pulse train to final key.

Everything runs in process: the quantum phase is drawn from three seeds
(transmitter, receiver, channel), then both protocol endpoints exchange
framed messages over an in-memory queue to sift, estimate, reconcile, and
amplify. The run report is a plain dict, ready for JSON.
"""

import json
from pathlib import Path

from uwqkd import load_config, run_experiment

# the 2.4 m tank at the clearest operating point plus the standard receiver
cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "tank_run.json")
print(f"total loss: {cfg.total_loss_db:.2f} dB (eta = {cfg.eta:.3e})")

report = run_experiment(cfg)
print(f"\nstatus: {report.status}")

stats = report.statistics
print("\nmeasured decoy statistics")
print(f"  Q_mu = {stats['Q_mu']:.4e}   E_mu = {stats['E_mu']:.4f}")
print(f"  Q_nu = {stats['Q_nu']:.4e}   E_nu = {stats['E_nu']:.4f}")
print(f"  Y0   = {stats['Y0']:.4e}")

bounds = report.bounds
print("\nsingle-photon bounds")
print(f"  Y1 >= {bounds['Y1_L']:.4e}   Q1 = {bounds['Q1']:.4e}   e1 <= {bounds['e1_U']:.4f}")

rec = report.reconciliation
print("\npost-processing")
print(f"  sampled QBER      {rec['qber_sample']:.4f} over {rec['n_sampled']} bits")
print(f"  corrections       {rec['corrections']}")
print(f"  leaked bits       {rec['leaked_bits']} "
      f"({rec['parity_bits']} parity + {rec['leaked_bits'] - rec['parity_bits']} digest)")
print(f"  residual check    {rec['residual_check']}")

key = report.key
print("\nfinal key")
print(f"  length            {key['length']} bits")
print(f"  sha256            {key['sha256'][:32]}...")
print(f"  realized rate     {key['realized_rate_bps']:.1f} bps")
print(f"  asymptotic rate   {report.rate['R_bps']:.1f} bps (analytic formula)")

# The whole report serializes; this is what the CLI writes with --out.
as_json = json.loads(report.to_json())
print(f"\nreport keys: {sorted(as_json)}")

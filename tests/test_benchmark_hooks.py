"""The library names the benchmark reaches still exist, and a benchmark
session that once failed now completes.

perfbench/spans.py wraps each layer's functions at the name where the caller
looks them up, and perfbench/sessions.py imports library names directly.
Deleting or renaming one of them breaks the benchmark run, so it fails here
first.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.sessions import EndpointCapture, run_session  # noqa: E402
from perfbench.spans import _TRACED, Tracer, session_totals  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def test_traced_patch_sites_resolve():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in _TRACED
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing


def test_tank_session_with_low_qber_hint_completes():
    """Tank session 1240841063 samples 0 errors in 593 bits (hint 0.17%, true
    rate about 1.6%); four passes of too-large blocks leave errors, and
    Cascade's second round has to repair them for both endpoints to finish.
    Retries are rare: 3 of the first 6000 `session_seeds(1)` sessions retry,
    and this one has the lowest hint of the three."""
    capture = EndpointCapture()
    with capture.installed():
        record = run_session(WORKLOADS["tank"], 1240841063, capture)
    assert record.ok, record.failure
    for endpoint in capture.endpoints.values():
        assert "reconciliation_retried" in endpoint.flags


def test_tracer_sees_every_chunk_of_the_quantum_phase():
    """The quantum phase calls the source once and detection once per
    chunk, and each endpoint sizes its key through estimate_bounds,
    secure_key_rate and toeplitz_hash, all at the module names the tracer
    wraps; code holding the library's own functions would leave these counts
    short. Over TCP both endpoints draw Alice's stream, and only the
    receiver detects."""
    tracer, capture = Tracer(), EndpointCapture()
    with capture.installed(), tracer.installed():
        for session, (workload, draws) in enumerate([("tank", 1), ("tank-tcp", 2)]):
            tracer.session = session
            record = run_session(WORKLOADS[workload], 1365414681, capture)
            assert record.ok, record.failure
            totals = session_totals(tracer.spans)[session]
            assert totals["source.pulses"] == draws * record.n_pulses
            assert totals["detection.slots"] == record.n_pulses
            assert totals["detection.clicks"] == record.clicks
            analysis_spans = sum(s.name == "analysis" and s.session == session for s in tracer.spans)
            assert analysis_spans == 4
            assert totals["postprocess.toeplitz_out_bits"] == 2 * record.final_key_bits

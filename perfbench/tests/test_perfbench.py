"""Self-test of the benchmark, at tiny sizes.

Every workload prints every metric named in BENCHMARK.json with its unit, a
session whose endpoints end with different keys counts as failed instead of
ending the run, equal seeds give equal sessions, and tracing leaves the
library as it found it.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import uwqkd.harness as harness  # noqa: E402
import uwqkd.protocol as protocol  # noqa: E402
import uwqkd.source as source  # noqa: E402
from perfbench import run, sessions, spans, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_PULSES = {"tank": 1_000_000, "tank-tcp": 1_000_000, "lowloss": 20_000, "lowloss-tcp": 20_000}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for name, pulses in TINY_PULSES.items():
        workload = workloads.WORKLOADS[name]
        tiny = dataclasses.replace(workload, link={**workload.link, "n_pulses": pulses})
        monkeypatch.setitem(workloads.WORKLOADS, name, tiny)


def _result(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY_PULSES))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace, section):
    result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["lowloss", "tank-tcp"])
def test_mismatched_key_counts_as_failed_session(capsys, monkeypatch, workload):
    apply_pa = protocol.BobSession._apply_pa

    def apply_pa_then_flip_a_bit(self, seed):
        apply_pa(self, seed)
        assert len(self.final_key) > 0
        self.final_key = self.final_key.copy()
        self.final_key[0] ^= 1

    monkeypatch.setattr(protocol.BobSession, "_apply_pa", apply_pa_then_flip_a_bit)
    result = _result(capsys, workload, 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["completed_session_ratio"]["value"] == 0.0


def test_equal_seeds_give_equal_sessions():
    workload = workloads.WORKLOADS["lowloss"]
    capture = sessions.EndpointCapture()
    with capture.installed():
        first, second = (sessions.run_session(workload, 5, capture) for _ in range(2))
    assert first.ok and second.ok
    fields = ("clicks", "reconciled_bits", "final_key_bits", "key_bound_bits", "key_sha256")
    assert [getattr(first, f) for f in fields] == [getattr(second, f) for f in fields]


def test_tracing_restores_every_name():
    tracer = spans.Tracer()
    with tracer.installed():
        assert harness.generate_pulse_train is not source.generate_pulse_train
    assert harness.generate_pulse_train is source.generate_pulse_train
    assert "step" not in vars(protocol.AliceSession)
    assert protocol.toeplitz_hash.__module__ == "uwqkd.postprocess"
    assert not hasattr(protocol.toeplitz_hash, "__wrapped__")

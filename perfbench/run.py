"""uwqkd benchmark: closed-loop key-exchange sessions, one at a time, in one process.

    python3 perfbench/run.py --workload {tank,tank-tcp,lowloss,lowloss-tcp} --seed N \\
        --seconds S --trace {0,1}

Each session's seed comes from --seed, so equal seeds give equal sessions.
Sessions run back to back for --seconds (at least one), and every session's
outputs are checked (see `perfbench.sessions`).

--trace 0 times the sessions untraced and reports the end-to-end metrics.
--trace 1 runs each session twice, untraced and traced, checks that both give
the same key, and reports per-layer metrics from the traced copies: per-session
medians of the time in, and counts at, each layer's public functions, plus the
tracing overhead (traced minus untraced mean session time). Per-layer times
from the two endpoint threads of a TCP workload add up, so they can exceed the
session's wall time.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The full report (every session's seed,
clicks, reconciled bits, final key bits and key sha256; the machine and its
software; the spans of a traced run) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBE = ROOT / "perfbench" / "setup_probe.py"
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "session_s_mean": "s",
    "pulses_per_s": "1/s",
    "reconciled_bits_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "completed_session_ratio": "ratio",
}

FRAME_TYPES = (
    "SYNC_HELLO", "BASIS_REVEAL", "INTENSITY_REVEAL", "SIFT_ACK",
    "QBER_SAMPLE", "RECON_MSG", "PA_SEED", "ABORT",
)

PER_LAYER_UNITS = {
    "source.busy_s": "s",
    "source.pulses": "count",
    "detection.busy_s": "s",
    "detection.clicks": "count",
    "detection.click_ratio": "ratio",
    "harness.quantum_self_s": "s",
    "protocol.step_self_s": "s",
    "protocol.codec_s": "s",
    **{f"protocol.frames.{kind}": "count" for kind in FRAME_TYPES},
    **{f"protocol.bytes.{kind}": "bytes" for kind in FRAME_TYPES},
    "postprocess.toeplitz_s": "s",
    "postprocess.toeplitz_in_bits": "bits",
    "postprocess.toeplitz_out_bits": "bits",
    "postprocess.cascade_s": "s",
    "postprocess.cascade_round_trips": "count",
    "postprocess.parity_bits": "bits",
    "postprocess.leak_ratio": "ratio",
    "postprocess.key_hash_s": "s",
    "analysis.busy_s": "s",
    "transport.self_s": "s",
    "transport.wait_s": "s",
    "trace.overhead_s": "s",
}


def _load_program() -> None:
    """Put the checkout's own uwqkd first on the path, or stop."""
    package = ROOT / "src" / "uwqkd" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: {package.relative_to(ROOT)} is missing; run from a checkout of the repository")
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import uwqkd

    if Path(uwqkd.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported uwqkd from {uwqkd.__file__}, not from this checkout")


def _measure_setup(workload: str, seed: int) -> list[float]:
    """Launch the set-up probe SETUP_PROBES times; seconds from launch to 'ready'."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(PROBE), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def _environment() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                platform.processor() or "unknown",
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(),
        "tcp": "TCP workloads send their traffic over the loopback interface (127.0.0.1) only",
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _median(values, default=0.0) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def _tail(walls: list[float]) -> dict | None:
    """Highest percentile of session time with at least ten sessions beyond it."""
    if len(walls) < 11:
        return None
    return {"q": (len(walls) - 10) / len(walls), "value_s": sorted(walls)[-11]}


def _per_wall_second(records, field: str) -> float:
    return sum(getattr(r, field) for r in records) / sum(r.wall_s for r in records)


def _end_to_end(records, setup_times) -> dict:
    # Session time is a mean, not a median: on a shared machine a run's
    # sessions fall into fast and slow spells, and the median jumps between
    # them from run to run while the mean does not (ten-run spread 0.13-0.22
    # against 0.17-0.27 for the median on lowloss-tcp).
    ok = [r for r in records if r.ok] or records
    return {
        "session_s_mean": statistics.mean(r.wall_s for r in ok),
        "pulses_per_s": _per_wall_second(ok, "n_pulses"),
        "reconciled_bits_per_s": _per_wall_second(ok, "reconciled_bits"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": _median(setup_times),
        "completed_session_ratio": sum(r.ok for r in records) / len(records),
    }


def _per_layer(totals, traced, untraced, transport: str) -> dict:
    rows = []
    for session, record in enumerate(traced):
        t = totals[session]
        row = {
            "source.busy_s": t["source.busy"],
            "source.pulses": t["source.pulses"],
            "detection.busy_s": t["detection.busy"],
            "detection.clicks": t["detection.clicks"],
            "detection.click_ratio": t["detection.clicks"] / t["detection.slots"] if t["detection.slots"] else 0.0,
            "harness.quantum_self_s": t["harness.quantum.self"],
            "protocol.step_self_s": t["protocol.step.self"],
            "protocol.codec_s": t["protocol.codec.busy"],
            "postprocess.toeplitz_s": t["postprocess.toeplitz.busy"],
            "postprocess.toeplitz_in_bits": t["postprocess.toeplitz_in_bits"],
            "postprocess.toeplitz_out_bits": t["postprocess.toeplitz_out_bits"],
            "postprocess.cascade_s": t["postprocess.cascade.busy"],
            "postprocess.cascade_round_trips": t["postprocess.cascade_round_trips"],
            "postprocess.parity_bits": t["postprocess.parity_bits"],
            "postprocess.leak_ratio": record.leak_ratio,
            "postprocess.key_hash_s": t["postprocess.key_hash.busy"],
            "analysis.busy_s": t["analysis.busy"],
            "transport.self_s": t["transport.self"],
            # over TCP an endpoint blocks in read_frame_bytes; in process the
            # pump runs one endpoint at a time, so each waits while the other steps
            "transport.wait_s": t["transport.wait.busy"] if transport == "tcp" else t["transport.step_gaps"],
        }
        for kind in FRAME_TYPES:
            row[f"protocol.frames.{kind}"] = t[f"protocol.frames.{kind}"]
            row[f"protocol.bytes.{kind}"] = t[f"protocol.bytes.{kind}"]
        rows.append(row)
    metrics = {name: _median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = (
        statistics.mean(r.wall_s for r in traced) - statistics.mean(r.wall_s for r in untraced)
    )
    return metrics


def _same_outputs(a, b) -> bool:
    keys = ("clicks", "reconciled_bits", "final_key_bits", "key_sha256")
    return all(getattr(a, k) == getattr(b, k) for k in keys)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    from perfbench.sessions import EndpointCapture, run_session
    from perfbench.spans import Tracer, session_totals
    from perfbench.workloads import WORKLOADS, session_seeds

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    setup_times = [] if args.trace else _measure_setup(workload.name, args.seed)

    seeds = session_seeds(args.seed)
    capture = EndpointCapture()
    tracer = Tracer()
    records, traced = [], []

    def traced_session(exchange, cfg):
        return tracer.call("session", exchange, cfg)

    with capture.installed():
        deadline = time.perf_counter() + args.seconds
        while not records or time.perf_counter() < deadline:
            seed = next(seeds)
            if not args.trace:
                records.append(run_session(workload, seed, capture))
                continue
            # untraced and traced copies of one session, alternating which goes first
            tracer.session = len(traced)
            pair = {}
            for use_tracer in (False, True) if len(traced) % 2 == 0 else (True, False):
                if use_tracer:
                    with tracer.installed():
                        pair[True] = run_session(workload, seed, capture, run=traced_session)
                else:
                    pair[False] = run_session(workload, seed, capture)
            records.append(pair[False])
            traced.append(pair[True])
            if not _same_outputs(pair[False], pair[True]):
                pair[True].failure = pair[True].failure or "traced session's outputs differ from untraced"

    everything = records + traced
    failed = sum(not r.ok for r in everything)
    ok = [r for r in everything if r.ok]
    if args.trace:
        metrics = _per_layer(session_totals(tracer.spans), traced, records, workload.transport)
        units = PER_LAYER_UNITS
    else:
        metrics = _end_to_end(records, setup_times)
        units = END_TO_END_UNITS

    informational = {
        "sessions": len(everything),
        "failed_sessions": failed,
        "final_key_bits_p50": _median(r.final_key_bits for r in ok),
        "final_key_bits_per_s": _per_wall_second(ok, "final_key_bits") if ok else 0.0,
        "session_s_p50": _median(r.wall_s for r in records if r.ok),
        # known defect: key sized from all slots, not floor(N_signal * R)
        "key_over_bound_sessions": sum(r.key_over_bound for r in ok),
        "session_s_tail": _tail([r.wall_s for r in records if r.ok]),
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": workload.name,
        "transport": workload.transport,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "informational": informational,
        "setup_times_s": setup_times,
        "sessions": [{**vars(r), "traced": False} for r in records]
        + [{**vars(r), "traced": True} for r in traced],
    }
    report_path = OUT_DIR / f"{stem}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")

    for r in everything:
        print(
            f"session seed={r.seed} wall={r.wall_s:.4f}s clicks={r.clicks} "
            f"reconciled={r.reconciled_bits} key={r.final_key_bits} sha256={r.key_sha256[:16]} "
            f"{'ok' if r.ok else 'FAILED: ' + r.failure}"
        )
    print(f"{workload.name}: {len(everything)} sessions, {failed} failed; report in {os.path.relpath(report_path, ROOT)}")
    for name, value in informational.items():
        print(f"  {name} = {value}")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

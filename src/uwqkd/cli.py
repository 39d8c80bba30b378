"""Command line front end.

Subcommands: run, sweep, serve, connect, calibrate, tomography.
Exit codes: 0 success, 2 protocol abort, 3 validation/config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .analysis import Anchor, calibrate, sweep_to_csv
from .harness import (
    ConfigError,
    connect,
    load_config,
    override_seeds,
    run_experiment,
    run_sweep,
    serve,
    tomography_report,
)

EXIT_OK = 0
EXIT_ABORT = 2
EXIT_VALIDATION = 3


def _add_common(parser: argparse.ArgumentParser, *, config_required: bool = True) -> None:
    parser.add_argument("--config", type=Path, required=config_required, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the three role seeds from one master seed")
    parser.add_argument("--out", type=Path, default=None, help="directory for output files")
    parser.add_argument("--format", choices=("json", "csv"), default=None, help="output format")


def _load(args) -> "ExperimentConfig":
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = override_seeds(cfg, args.seed)
    return cfg


def _ensure_out(args) -> Path | None:
    if args.out is None:
        return None
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def _typed(value, kind: type, key: str):
    """value, or a ConfigError naming its config key unless it is a kind
    (dict for a JSON object, list for an array)."""
    if not isinstance(value, kind):
        raise ConfigError(f"config key {key} must be a JSON {'array' if kind is list else 'object'}")
    return value


def _cast(cast, value, key: str):
    """value cast, or a ConfigError naming its config key."""
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config key {key}: {exc}") from exc


def _report_csv(report_dict: dict) -> str:
    flat = {}

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}{k}." if isinstance(v, dict) else f"{prefix}{k}", v)
        elif isinstance(value, list):
            flat[prefix.rstrip(".")] = json.dumps(value)
        else:
            flat[prefix.rstrip(".")] = value

    walk("", report_dict)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(flat.keys())
    writer.writerow(flat.values())
    return buf.getvalue()


def _emit_report(report, args, default_name: str) -> int:
    out_dir = _ensure_out(args)
    fmt = args.format or "json"
    if fmt == "csv":
        text = _report_csv(report.to_dict())
        suffix = ".csv"
    else:
        text = report.to_json()
        suffix = ".json"
    if out_dir is not None:
        (out_dir / (default_name + suffix)).write_text(text + "\n")
    print(text)
    return EXIT_ABORT if report.status == "aborted" else EXIT_OK


def _cmd_run(args) -> int:
    cfg = _load(args)
    out_dir = _ensure_out(args)
    transcript_path = out_dir / "transcript.jsonl" if out_dir is not None else None
    report = run_experiment(cfg, transcript_path=transcript_path)
    return _emit_report(report, args, "report")


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    sweep_cfg = _typed(cfg.raw.get("sweep", {}), dict, "sweep")
    if "distances_m" not in sweep_cfg:
        raise ConfigError("sweep requires config key sweep.distances_m")
    distances = _typed(sweep_cfg["distances_m"], list, "sweep.distances_m")
    distances = [_cast(float, d, "sweep.distances_m") for d in distances]
    water_types = _typed(sweep_cfg.get("jerlov_types", ["I", "II", "III"]), list, "sweep.jerlov_types")
    noise = {
        key: _cast(float, sweep_cfg[key], f"sweep.{key}")
        for key in ("y0", "e_detector")
        if sweep_cfg.get(key) is not None
    }
    curves = run_sweep(cfg, distances, [str(t) for t in water_types], **noise)
    out_dir = _ensure_out(args)
    fmt = args.format or "csv"
    if fmt == "json":
        payload = {
            wt: [p.__dict__ for p in points] for wt, points in curves.items()
        }
        text = json.dumps(payload, indent=2)
        if out_dir is not None:
            (out_dir / "sweep.json").write_text(text + "\n")
        print(text)
        return EXIT_OK
    for wt, points in curves.items():
        csv_text = sweep_to_csv(points)
        if out_dir is not None:
            (out_dir / f"sweep_jerlov_{wt}.csv").write_text(csv_text)
        print(f"# water_type=Jerlov{wt}")
        print(csv_text, end="")
    return EXIT_OK


def _cmd_serve(args) -> int:
    cfg = _load(args)
    out_dir = _ensure_out(args)
    transcript_path = out_dir / "transcript_serve.jsonl" if out_dir is not None else None
    report = serve(cfg, args.host, args.port, transcript_path=transcript_path)
    return _emit_report(report, args, "report_serve")


def _cmd_connect(args) -> int:
    cfg = _load(args)
    out_dir = _ensure_out(args)
    transcript_path = out_dir / "transcript_connect.jsonl" if out_dir is not None else None
    report = connect(cfg, args.host, args.port, transcript_path=transcript_path)
    return _emit_report(report, args, "report_connect")


def _anchor(entry, key: str) -> Anchor:
    entry = _typed(entry, dict, key)
    for name in ("total_loss_db", "kind", "value"):
        if name not in entry:
            raise ConfigError(f"missing required config key {key}.{name}")
    return Anchor(
        total_loss_db=_cast(float, entry["total_loss_db"], f"{key}.total_loss_db"),
        kind=str(entry["kind"]),
        value=_cast(float, entry["value"], f"{key}.value"),
    )


def _cmd_calibrate(args) -> int:
    cfg = _load(args)
    calib = _typed(cfg.raw.get("calibration", {}), dict, "calibration")
    entries = _typed(calib.get("anchors", []), list, "calibration.anchors")
    if len(entries) < 2:
        raise ConfigError("calibrate requires config key calibration.anchors with >= 2 entries")
    result = calibrate(
        [_anchor(entry, f"calibration.anchors[{i}]") for i, entry in enumerate(entries)],
        mu=_cast(float, calib.get("mu", cfg.source.mu), "calibration.mu"),
        nu=_cast(float, calib.get("nu", cfg.source.nu), "calibration.nu"),
        q=cfg.protocol.q,
        error_correction_efficiency=cfg.protocol.error_correction_efficiency,
        residual_threshold=_cast(
            float, calib.get("residual_threshold", 0.05), "calibration.residual_threshold"
        ),
    )
    payload = {
        "y0": result.y0,
        "e_detector": result.e_detector,
        "residual": result.residual,
        "per_anchor_residuals": list(result.per_anchor),
        "ok": result.ok,
        "threshold": result.threshold,
    }
    text = json.dumps(payload, indent=2)
    out_dir = _ensure_out(args)
    if out_dir is not None:
        (out_dir / "calibration.json").write_text(text + "\n")
    print(text)
    return EXIT_OK if result.ok else EXIT_VALIDATION


def _cmd_tomography(args) -> int:
    report = tomography_report(args.theta_deg, args.shots_per_basis, args.seed if args.seed is not None else 0)
    text = json.dumps(report, indent=2)
    out_dir = _ensure_out(args)
    if out_dir is not None:
        (out_dir / "tomography.json").write_text(text + "\n")
    print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uwqkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one full in-process experiment")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="analytic distance sweep (CSV)")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_serve = sub.add_parser("serve", help="receiver endpoint over TCP")
    _add_common(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, required=True)
    p_serve.set_defaults(func=_cmd_serve)

    p_connect = sub.add_parser("connect", help="transmitter endpoint over TCP")
    _add_common(p_connect)
    p_connect.add_argument("--host", default="127.0.0.1")
    p_connect.add_argument("--port", type=int, required=True)
    p_connect.set_defaults(func=_cmd_connect)

    p_cal = sub.add_parser("calibrate", help="fit background yield and misalignment error")
    _add_common(p_cal)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_tomo = sub.add_parser("tomography", help="four-state tomography report")
    _add_common(p_tomo, config_required=False)
    p_tomo.add_argument("--theta-deg", type=float, default=0.0)
    p_tomo.add_argument("--shots-per-basis", type=int, default=10**6)
    p_tomo.set_defaults(func=_cmd_tomography)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConnectionError as exc:
        print(f"connection failed: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except OSError as exc:  # bind/accept failures (port busy, no permission)
        print(f"network error: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    raise SystemExit(main())

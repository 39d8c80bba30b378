"""Command line front end.

Subcommands: run, serve, connect (one session each), sweep, calibrate,
tomography.
Exit codes: 0 success, 2 protocol abort, 3 validation/config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .analysis import Anchor, anchor_kind, anchor_loss_db, calibrate, sweep_to_csv
from .config import ConfigError, ExperimentConfig, _Section, config_from_dict, override_seeds, read_config
from .harness import connect, run_experiment, run_sweep, serve, tomography_report

EXIT_OK = 0
EXIT_ABORT = 2
EXIT_VALIDATION = 3


def _load(args) -> tuple[dict, ExperimentConfig]:
    """The config file's JSON, for the readers of its other sections, and
    the experiment it describes."""
    data = read_config(args.config)
    return data, config_from_dict(data)


def _out_dir(args) -> Path | None:
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def _emit(args, name: str, text: str) -> None:
    """Print text and, with --out, write it to the file name there."""
    out_dir = _out_dir(args)
    if out_dir is not None:
        (out_dir / name).write_text(text + "\n")
    print(text)


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


def _cmd_session(args) -> int:
    """run in process, or one endpoint (args.endpoint) over TCP."""
    _, cfg = _load(args)
    if args.seed is not None:
        cfg = override_seeds(cfg, args.seed)
    out_dir = _out_dir(args)
    suffix = "" if args.endpoint is None else f"_{args.command}"
    transcript_path = out_dir / f"transcript{suffix}.jsonl" if out_dir is not None else None
    if args.endpoint is None:
        report = run_experiment(cfg, transcript_path=transcript_path)
    else:
        report = args.endpoint(cfg, args.host, args.port, transcript_path=transcript_path)
    text = _report_csv(report.to_dict()) if args.format == "csv" else report.to_json()
    _emit(args, f"report{suffix}.{args.format}", text)
    return EXIT_ABORT if report.status == "aborted" else EXIT_OK


def _cmd_sweep(args) -> int:
    data, cfg = _load(args)
    sweep = _Section(data.get("sweep", {}), "sweep")
    distances = sweep.get("distances_m", [float])
    water_types = sweep.present(jerlov_types=[str]).values()  # else run_sweep's default
    noise = sweep.present(y0=float, e_detector=float)
    sweep.reject_unread()
    curves = run_sweep(cfg, distances, *water_types, **noise)
    if args.format == "json":
        payload = {wt: [p.__dict__ for p in points] for wt, points in curves.items()}
        _emit(args, "sweep.json", json.dumps(payload, indent=2))
        return EXIT_OK
    for wt, points in curves.items():
        print(f"# water_type=Jerlov{wt}")
        _emit(args, f"sweep_jerlov_{wt}.csv", sweep_to_csv(points).rstrip("\n"))
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    data, cfg = _load(args)
    calib = _Section(data.get("calibration", {}), "calibration")
    anchors = [
        Anchor(part.get("total_loss_db", anchor_loss_db), part.get("kind", anchor_kind), part.get("value", float))
        for part in calib.sections("anchors")
    ]
    if len(anchors) < 2:
        raise ConfigError("config key calibration.anchors needs at least two anchors")
    threshold = calib.present(residual_threshold=float)
    calib.reject_unread()
    result = calibrate(
        anchors,
        mu=cfg.source.mu,
        nu=cfg.source.nu,
        q=cfg.protocol.q,
        error_correction_efficiency=cfg.protocol.error_correction_efficiency,
        **threshold,
    )
    payload = {
        "y0": result.y0,
        "e_detector": result.e_detector,
        "residual": result.residual,
        "per_anchor_residuals": list(result.per_anchor),
        "ok": result.ok,
        "threshold": result.threshold,
    }
    _emit(args, "calibration.json", json.dumps(payload, indent=2))
    return EXIT_OK if result.ok else EXIT_VALIDATION


def _cmd_tomography(args) -> int:
    report = tomography_report(args.theta_deg, args.shots_per_basis, args.seed)
    _emit(args, "tomography.json", json.dumps(report, indent=2))
    return EXIT_OK


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=None, help="directory for output files")


def _config_command(sub, name: str, help: str, func, formats=(), **defaults) -> argparse.ArgumentParser:
    """A subcommand that reads --config; formats, if any, are the --format
    choices, the first the default."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--config", type=Path, required=True, help="JSON experiment config")
    _add_out(parser)
    if formats:
        parser.add_argument("--format", choices=formats, default=formats[0], help="output format")
    parser.set_defaults(func=func, **defaults)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uwqkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, endpoint, help in (
        ("run", None, "one full in-process experiment"),
        ("serve", serve, "receiver endpoint over TCP"),
        ("connect", connect, "transmitter endpoint over TCP"),
    ):
        p_session = _config_command(sub, name, help, _cmd_session, ("json", "csv"), endpoint=endpoint)
        p_session.add_argument(
            "--seed", type=int, default=None, help="override the three role seeds from one master seed"
        )
        if endpoint is not None:
            p_session.add_argument("--host", default="127.0.0.1")
            p_session.add_argument("--port", type=int, required=True)

    _config_command(sub, "sweep", "analytic distance sweep (CSV)", _cmd_sweep, ("csv", "json"))
    _config_command(sub, "calibrate", "fit background yield and misalignment error", _cmd_calibrate)

    p_tomo = sub.add_parser("tomography", help="four-state tomography report")
    p_tomo.add_argument("--seed", type=int, default=0, help="sampling seed, default 0")
    _add_out(p_tomo)
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

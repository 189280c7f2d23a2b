"""Command-line interface: fixtures, fitting, file-level codec, sweeps, reports.

Subcommands:
  gen          write per-agent feature-map fixtures for one frame
  fit          train projection/codebook/decoders, save params + codebook
  encode       feature-map file -> wire-format message file
  decode       message file (+ optional side-information map) -> feature map
  sweep-rd     rate-distortion grid over tau / codebook size -> CSV
  sweep-robust pose-noise x delay grid -> CSV
  report       summarize a sweep CSV

The seed is taken from --seed, else the DSC_SEED environment variable, else
the scenario file. Identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .codec import (
    decode_message,
    encode_message,
    load_codec_params,
    save_codec_params,
)
from .errors import CodecError, require_int
from .features import apply_mask, load_feature_map, save_feature_map
from .pipeline import (
    _check_grid,
    fit_codec,
    rd_sweep,
    read_csv,
    robustness_sweep,
    summarize_rows,
    write_csv,
)
from .pruning import mask_from_scores, score_map
from .quantizer import load_codebook, save_codebook
from .simulate import ScenarioConfig, generate_scene, load_scenario, observe, save_scenario
from .wire import Message

SEED_ENV = "DSC_SEED"


def _resolve_seed(args) -> int | None:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CodecError(f"{SEED_ENV} must be an integer, got {env!r}") from exc
    return None


def _load_config(args) -> ScenarioConfig:
    cfg = load_scenario(args.scenario) if args.scenario else ScenarioConfig()
    seed = _resolve_seed(args)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def _parse_list(text: str, kind) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated {kind.__name__} values, got {text!r}"
        ) from None


def _float_list(text: str) -> list[float]:
    """argparse type for flags such as --taus=0,0.5: comma-separated floats."""
    return _parse_list(text, float)


def _int_list(text: str) -> list[int]:
    """argparse type for flags such as --delays=0,2: comma-separated ints."""
    return _parse_list(text, int)


def _cmd_gen(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_scenario(cfg, out / "scenario.cfg")
    scene = generate_scene(cfg, args.t)
    for agent in range(cfg.num_agents):
        f = observe(scene, agent, cfg)
        save_feature_map(f, out / f"agent{agent}_t{args.t}.fmap")
    print(f"wrote scenario + {cfg.num_agents} feature maps for t={args.t} to {out}")
    return 0


def _cmd_fit(args) -> int:
    cfg = _load_config(args)
    fitted = fit_codec(
        cfg,
        codebook_size=args.codebook_size,
        embed_dim=args.embed_dim,
        train_scenes=args.train_scenes,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_codec_params(fitted.params, out / "codec.dccp")
    save_codebook(fitted.codebook, out / "codebook.cdbk")
    print(
        f"fitted codec K={args.codebook_size} D={args.embed_dim} on "
        f"{args.train_scenes} scenes ({fitted.decoder_fit.num_cells} cells); "
        f"wrote codec.dccp + codebook.cdbk to {out}"
    )
    return 0


def _cmd_encode(args) -> int:
    if args.budget is not None:
        require_int("budget", args.budget, 0)
    params = load_codec_params(args.params)
    cb = load_codebook(args.codebook)
    f = load_feature_map(args.input)
    mask = mask_from_scores(score_map(f), args.tau)
    msg = encode_message(apply_mask(f, mask), mask, params, cb)
    data = msg.to_bytes()
    Path(args.out).write_bytes(data)
    within = args.budget is None or len(data) <= args.budget
    print(f"payload_bytes={len(data)} symbols={msg.num_symbols} within_budget={int(within)}")
    return 0


def _cmd_decode(args) -> int:
    params = load_codec_params(args.params)
    cb = load_codebook(args.codebook)
    msg = Message.from_bytes(Path(args.input).read_bytes())
    f_local = load_feature_map(args.side_info) if args.side_info else None
    recon = decode_message(msg, params, cb, f_local=f_local)
    mode = "unconditional" if f_local is None else "conditional"
    save_feature_map(recon, args.out)
    print(f"decoded {msg.num_symbols} symbols ({mode}) -> {args.out}")
    return 0


def _cmd_sweep_rd(args) -> int:
    cfg = _load_config(args)
    rows = rd_sweep(
        cfg,
        taus=args.taus,
        codebook_sizes=args.codebook_sizes,
        embed_dim=args.embed_dim,
        scenes_per_point=args.scenes,
        train_scenes=args.train_scenes,
        budget=args.budget,
    )
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rate-distortion points to {args.out}")
    return 0


def _cmd_sweep_robust(args) -> int:
    cfg = _load_config(args)
    _check_grid(cfg, (args.tau,), args.sigmas, args.delays, None, args.scenes)
    fitted = fit_codec(
        cfg,
        codebook_size=args.codebook_size,
        embed_dim=args.embed_dim,
        train_scenes=args.train_scenes,
    )
    rows = robustness_sweep(
        cfg,
        sigmas=args.sigmas,
        delays=args.delays,
        params=fitted.params,
        cb=fitted.codebook,
        tau=args.tau,
        scenes=args.scenes,
    )
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} robustness rows to {args.out}")
    return 0


def _cmd_report(args) -> int:
    summary = summarize_rows(read_csv(args.input))
    if args.out:
        Path(args.out).write_text(summary, encoding="ascii")
        print(f"wrote summary to {args.out}")
    else:
        sys.stdout.write(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsc-codec",
        description="Conditional feature-map codec and rate-distortion harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p) -> None:
        p.add_argument("--scenario", help="scenario key-value file")
        p.add_argument("--seed", type=int, help=f"seed override (fallback: ${SEED_ENV})")

    p = sub.add_parser("gen", help="write per-agent feature-map fixtures")
    add_scenario_flags(p)
    p.add_argument("--t", type=int, default=0, help="frame index")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fit", help="train the codec and save params + codebook")
    add_scenario_flags(p)
    p.add_argument("--codebook-size", type=int, default=64)
    p.add_argument("--embed-dim", type=int, default=64)
    p.add_argument("--train-scenes", type=int, default=8)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("encode", help="encode a feature-map file into a message")
    p.add_argument("--params", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--input", required=True, help="sender feature map (.fmap)")
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--budget", type=int, help="report budget compliance for this size")
    p.add_argument("--out", required=True, help="message file to write")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a message file into a feature map")
    p.add_argument("--params", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--input", required=True, help="message file")
    p.add_argument("--side-info", help="receiver feature map; omit for unconditional")
    p.add_argument("--out", required=True, help="feature map to write")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("sweep-rd", help="rate-distortion sweep -> CSV")
    add_scenario_flags(p)
    p.add_argument("--taus", type=_float_list, default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--codebook-sizes", type=_int_list, default="64")
    p.add_argument("--embed-dim", type=int, default=64)
    p.add_argument("--scenes", type=int, default=3)
    p.add_argument("--train-scenes", type=int, default=6)
    p.add_argument("--budget", type=int)
    p.add_argument("--out", required=True, help="CSV file to write")
    p.set_defaults(func=_cmd_sweep_rd)

    p = sub.add_parser("sweep-robust", help="pose-noise x delay sweep -> CSV")
    add_scenario_flags(p)
    p.add_argument("--sigmas", type=_float_list, default="0,1,2,4")
    p.add_argument("--delays", type=_int_list, default="0,1,2,4")
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--codebook-size", type=int, default=64)
    p.add_argument("--embed-dim", type=int, default=64)
    p.add_argument("--scenes", type=int, default=3)
    p.add_argument("--train-scenes", type=int, default=6)
    p.add_argument("--out", required=True, help="CSV file to write")
    p.set_defaults(func=_cmd_sweep_robust)

    p = sub.add_parser("report", help="summarize a sweep CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="write the summary here instead of stdout")
    p.set_defaults(func=_cmd_report)

    return parser


def cli_dispatch(argv: list[str] | None = None) -> int:
    """Run one CLI invocation; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CodecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_dispatch())

"""Command-line entry point: world generation, training, tracking,
evaluation, ablation runs, and gradient checks.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
failure (gradient-check breach, NaN, divergence).  Every run stamps its
effective config and seed into the output so it can be reproduced.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import evalkit as ek
from . import gradchecks
from . import learn
from . import synthworld as sw
from . import trackman as tm
from .assocgraph import ModelConfig
from .numcore import NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

GRADCHECK_TOLERANCE = 1e-4

# Named ablation configurations; names mirror the reported study rows.
ABLATIONS = {
    "full": {},
    "limited_gnn": {"limited_gnn": True},
    "association_heuristic": {"heuristic_association": True},
    "no_appearance": {"use_appearance": False},
    "const_variance": {"const_variance": True},
    "scoring_heuristic": {"heuristic_scoring": True},
    "simple_gate": {"gate_mode": "simple"},
    "mlp_node_updates": {"gated_aggregation": False},
    "blocks_1": {"num_blocks": 1},
    "blocks_3": {"num_blocks": 3},
    "no_residual": {"interleave_residuals": False},
}


class UsageError(ValueError):
    pass


def _parse_override(text: str):
    if "=" not in text:
        raise UsageError(f"override {text!r} is not key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply_overrides(config: dict, pairs):
    for text in pairs or []:
        key, value = _parse_override(text)
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise UsageError(f"override {key!r} descends into a non-object")
        node[parts[-1]] = value
    return config


def _stamp(command: str, config: dict, seed) -> dict:
    return {"command": command, "seed": seed, "config": config}


def _write_json(path, payload: dict):
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    config = {
        "world": {"num_classes": 5, "frames": args.frames, "max_objects": args.objects,
                  "appearance_dim": 8, "mask_grid": 24},
        "noise": dataclasses.asdict(sw.SUITE_NOISE),
        "sequences": args.sequences,
        "crossing": args.crossing,
    }
    _apply_overrides(config, args.override)
    _check_generate_config(config)
    world = sw.WorldConfig(seed=args.seed, **config["world"])
    noise = sw.NoiseConfig(**config["noise"])
    out = Path(args.out)
    single_file = out.suffix == ".jsonl" and config["sequences"] == 1
    if not single_file:
        out.mkdir(parents=True, exist_ok=True)
    for k in range(config["sequences"]):
        wc = dataclasses.replace(world, seed=args.seed + 17 * k)
        gt = (sw.crossing_sequence(wc) if config["crossing"]
              else sw.generate_sequence(wc))
        det = sw.corrupt(gt, noise, seed=args.seed + 17 * k + 7)
        if single_file:
            det_path = out
            gt_path = out.with_suffix("").with_suffix(".gt.jsonl") \
                if out.name.endswith(".det.jsonl") else Path(str(out) + ".gt.jsonl")
        else:
            det_path = out / f"seq_{k:03d}.det.jsonl"
            gt_path = out / f"seq_{k:03d}.gt.jsonl"
        sw.save_detections_jsonl(det, det_path)
        sw.save_ground_truth_jsonl(gt, gt_path)
    stamp_path = Path(str(out) + ".stamp.json") if single_file else out / "stamp.json"
    _write_json(stamp_path, _stamp("generate", config, args.seed))
    print(f"wrote {config['sequences']} sequence(s) under {out}")
    return EXIT_OK


def _check_generate_config(config: dict):
    """Data errors (exit 2) that name the key, for the generate config values
    that WorldConfig and NoiseConfig do not check themselves: the sequence
    count, the crossing switch, unknown keys, and the type of each float or
    range field (a number >= 0, or a pair of them; never a bool or a string)."""
    sequences, crossing = config["sequences"], config["crossing"]
    if type(sequences) is not int or sequences < 1:
        raise sw.DataError(f"sequences must be an integer >= 1, got {sequences!r}")
    if type(crossing) is not bool:
        raise sw.DataError(f"crossing must be true or false, got {crossing!r}")
    for section, cls in (("world", sw.WorldConfig), ("noise", sw.NoiseConfig)):
        values = config[section]
        if not isinstance(values, dict):
            raise sw.DataError(f"{section} must be an object of {cls.__name__} fields, "
                               f"got {values!r}")
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        for key, v in values.items():
            name = f"{section}.{key}"
            if name == "world.seed":
                raise sw.DataError("world.seed cannot be overridden: sequence k takes "
                                   "--seed + 17k")
            if key not in defaults:
                raise sw.DataError(f"unknown key {name}; {section} takes {sorted(defaults)}")
            kind = type(defaults[key])
            if kind is float and not (learn.is_number(v) and v >= 0):
                raise sw.DataError(f"{name} must be a number >= 0, got {v!r}")
            if kind is tuple and not (isinstance(v, list) and len(v) == 2 and all(
                    learn.is_number(x) and x >= 0 for x in v)):
                raise sw.DataError(f"{name} must be a pair of numbers >= 0, got {v!r}")


def _load_pairs(data_dir: Path, config: ModelConfig):
    """Each detection stream with its ground truth, and `config` with the
    class count, appearance size and mask grid of the first stream that has
    a detection (as given when none has).  Every other stream with a
    detection must agree with that one.  Each ground truth must cover every
    frame of its stream and lie in the model's classes and, if it has
    objects, on its grid."""
    det_paths = sorted(data_dir.glob("*.det.jsonl"))
    if not det_paths:
        raise sw.DataError(f"no *.det.jsonl sequences found in {data_dir}")
    streams, origin = [], None
    for det_path in det_paths:
        det = sw.load_detections_jsonl(det_path)
        has_dets = any(len(f) for f in det.frames)
        if has_dets:
            frame = det.frames[0]
            shapes = {"num_classes": det.num_classes, "mask_grid": frame.masks.shape[-1],
                      "appearance_dim": frame.appearance.shape[-1]}
            if origin is None:
                try:
                    config, origin = dataclasses.replace(config, **shapes), det_path
                except ValueError as exc:  # e.g. scores with no foreground class
                    raise sw.DataError(f"{det_path}: {exc}") from None
            for name, value in shapes.items():
                if value != getattr(config, name):
                    raise sw.DataError(f"{det_path} has {name} {value}, "
                                       f"{origin} has {getattr(config, name)}")
        streams.append((det_path, det, has_dets))
    pairs = []
    for det_path, det, has_dets in streams:
        gt_path = det_path.with_name(det_path.name.replace(".det.jsonl", ".gt.jsonl"))
        if not gt_path.exists():
            raise sw.DataError(f"missing ground truth for {det_path}")
        gt = sw.load_ground_truth_jsonl(gt_path, num_classes=config.num_classes)
        g, grid = gt.masks.shape[-1], config.mask_grid
        if len(gt) and g != grid:
            where = det_path if has_dets else origin or "the training config"
            raise sw.DataError(f"{gt_path} has masks on a {g}x{g} grid, "
                               f"{where} on a {grid}x{grid} grid")
        if gt.frames < len(det.frames):
            raise sw.DataError(f"{gt_path} covers {gt.frames} frames, "
                               f"{det_path} has {len(det.frames)}")
        pairs.append((det.frames, gt))
    return pairs, config


def cmd_train(args) -> int:
    raw = json.loads(Path(args.config).read_text()) if args.config else {}
    if args.seed is not None:
        raw["seed"] = args.seed
    _apply_overrides(raw, args.override)
    model_config, train_config, thresholds = learn.train_config_from_dict(raw)
    dataset, model_config = _load_pairs(Path(args.data), model_config)
    model = tm.build_model(model_config, seed=train_config.seed)
    curve = learn.train(dataset, model, train_config, thresholds)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    stamp = _stamp("train", {**raw, "model": model_config.to_dict()},
                   train_config.seed)
    learn.save_checkpoint(out, model, extra={"stamp": stamp})
    csv_path = out.with_suffix(".losses.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(f"# stamp: {json.dumps(stamp)}\n")
        fh.write("iteration,score,seg,match,init,total\n")
        for i, b in enumerate(curve):
            fh.write(f"{i},{b.score:.8g},{b.seg:.8g},{b.match:.8g},"
                     f"{b.init:.8g},{b.total:.8g}\n")
    print(f"trained {train_config.iterations} iterations; "
          f"final loss {curve[-1].total:.4f}; checkpoint {out}")
    return EXIT_OK


def cmd_track(args) -> int:
    model = learn.load_checkpoint(args.checkpoint)
    det = sw.load_detections_jsonl(args.detections)
    memory, _ = tm.run_sequence(det.frames, model, tm.Thresholds(), mode="infer")
    blob = tm.tracks_to_json(memory, len(det.frames))
    blob["stamp"] = _stamp("track", {"checkpoint": str(args.checkpoint),
                                     "detections": str(args.detections),
                                     "model": model.config.to_dict()}, args.seed)
    _write_json(args.out, blob)
    print(f"tracked {len(det.frames)} frames -> {len(blob['tracks'])} tracks")
    return EXIT_OK


def cmd_eval(args) -> int:
    blob = json.loads(Path(args.tracks).read_text())
    preds = ek.tracks_from_json(blob)
    gt = sw.load_ground_truth_jsonl(args.gt)
    scored = preds[0].num_classes if preds else None  # tracks_from_json checks it is one
    if scored is not None and (gt.classes >= scored).any():
        k = int(np.argmax(gt.classes >= scored))
        raise sw.DataError(f"{args.gt} has {gt.num_classes} classes (object {gt.ids[k]} "
                           f"has class {gt.classes[k]}), {args.tracks} has {scored}")
    gts = ek.tracks_from_gt(gt)
    report = ek.evaluate(preds, gts)
    payload = report.to_dict()
    payload["stamp"] = _stamp("eval", {"tracks": str(args.tracks),
                                       "gt": str(args.gt)}, args.seed)
    if args.out:
        _write_json(args.out, payload)
    print(report.to_table())
    if args.render:
        render_dir = Path(args.render)
        render_dir.mkdir(parents=True, exist_ok=True)
        # evaluate has checked that every mask lies on one grid
        grid = next((m.shape[-1] for tr in gts + preds for m in tr.masks.values()), 0)
        for t in range(gt.frames):
            ppm = ek.render_overlay_ppm(preds, t, grid)
            (render_dir / f"frame_{t:03d}.ppm").write_bytes(ppm)
        print(f"overlays in {render_dir}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    if args.name not in ABLATIONS:
        raise UsageError(f"unknown ablation {args.name!r}; "
                         f"choose from {sorted(ABLATIONS)}")
    settings = {
        "iterations": 300, "batch_size": 2, "lr": 1e-3, "weight_decay": 1e-4,
        "train_sequences": 24, "eval_sequences": 12, "D": 32, "blocks": 2,
        "num_classes": 5, "appearance_dim": 8, "mask_grid": 12, "T": 10,
        "seed": args.seed, "ablations": dict(ABLATIONS[args.name]),
    }
    _apply_overrides(settings, args.override)
    run = dict(settings)
    n_train, n_eval = int(run.pop("train_sequences")), int(run.pop("eval_sequences"))
    model_config, train_config, _ = learn.train_config_from_dict(run)
    seed = train_config.seed
    world = dict(num_classes=model_config.num_classes, frames=int(settings["T"]),
                 appearance_dim=model_config.appearance_dim,
                 mask_grid=model_config.mask_grid)
    train_suite = ek.make_crossing_suite(n_train, seed=seed, **world)
    heldout = ek.make_crossing_suite(n_eval, seed=seed + 90001, **world)
    model = tm.build_model(model_config, seed=seed)
    curve = learn.train(train_suite, model, train_config)
    report = ek.evaluate_model_on_suite(model, heldout)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stamp = _stamp("ablate", {"name": args.name, **settings,
                              "model": model_config.to_dict()}, seed)
    learn.save_checkpoint(out / "model.npz", model, extra={"stamp": stamp})
    payload = report.to_dict()
    payload["stamp"] = stamp
    payload["final_loss"] = curve[-1].total
    _write_json(out / "report.json", payload)
    print(report.to_table())
    print(f"ablation {args.name}: report in {out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    names = sorted(gradchecks.TARGETS) if args.target == "all" else [args.target]
    worst = 0.0
    for name in names:
        err = gradchecks.run_target(name, epsilon=args.epsilon)
        worst = max(worst, err)
        print(f"{name}: max relative error {err:.3e}")
    if not np.isfinite(worst) or worst >= GRADCHECK_TOLERANCE:
        print(f"FAIL: worst error {worst:.3e} >= {GRADCHECK_TOLERANCE}")
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackgraph",
        description="Recurrent graph-network track manager on detection streams")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="config override, repeatable (dots descend)")

    p = sub.add_parser("generate", help="synthesize a world and detections")
    common(p)
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--objects", type=int, default=6)
    p.add_argument("--sequences", type=int, default=1)
    p.add_argument("--crossing", action="store_true",
                   help="use the crossing-objects stress preset")
    p.add_argument("--out", required=True,
                   help="output .jsonl file (single sequence) or directory")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="train on generated sequence pairs")
    common(p)
    p.add_argument("--config", help="training config JSON")
    p.add_argument("--data", required=True, help="directory of *.det/gt.jsonl pairs")
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("track", help="run inference over a detection stream")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_track)

    p = sub.add_parser("eval", help="score track output against ground truth")
    common(p)
    p.add_argument("--tracks", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out")
    p.add_argument("--render", help="directory for per-frame PPM overlays")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate a named configuration")
    common(p)
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    common(p)
    p.add_argument("--target", default="all",
                   help=f"one of {sorted(gradchecks.TARGETS)} or 'all'")
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.fn(args)
    except (NumericError, learn.DivergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (sw.DataError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

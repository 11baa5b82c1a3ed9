"""Workloads, phases, output checks and metrics of the trackgraph benchmark.

Imported by run.py once the thread settings are pinned.  Drives only public
functions of trackgraph.synthworld, trackman, learn and evalkit; per-layer
timing wraps module attributes (see spans.py), so nothing in src/ changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from trackgraph import appearance as ap
from trackgraph import assocgraph as ag
from trackgraph import evalkit as ek
from trackgraph import learn
from trackgraph import numcore as nc
from trackgraph import recurrence as rec
from trackgraph import synthworld as sw
from trackgraph import trackman as tm

from spans import Tracer

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "checkpoint.npz"
# perfbench/make_checkpoint.py regenerates this file bit for bit.
CHECKPOINT_SHA256 = "704e07207b0f2acd69d63d56b4be43af798ac4e446caa9c4a782b4d2ce542d4e"

LR = 1e-3
BATCH = 2
SETUP_REPS = 3
OVERHEAD_FRAMES = 80     # trace run: frames tracked both untraced and traced
OPS_FRAMES = 80          # trace run: frames counted under a tape
LAYOUT_OPS = frozenset({"reshape", "gather", "concat", "swapaxes01", "swapaxes12",
                        "scatter_rows", "broadcast_to"})
# numcore primitives that inference or training records today.
OP_NAMES = ("add", "affine", "broadcast_to", "clip", "concat", "div", "gather",
            "im2col3x3", "log", "mul", "relu", "reshape", "scatter_rows", "sigmoid",
            "slot_sum", "softmax", "sub", "sum", "swapaxes01", "swapaxes12", "tanh")
# make_crossing_suite's noise; each workload sets the false-positive rate
SUITE_NOISE = dict(miss_prob=0.1, class_temperature=0.3, box_jitter=0.01,
                   appearance_noise=0.1, duplicate_prob=0.05)


class SetupError(RuntimeError):
    """The benchmark cannot start: the checkpoint fixture is missing, changed
    or rejected by learn.load_checkpoint."""


# ---------------------------------------------------------------------------
# workloads


def _crossing_suite(config, n: int, base_seed: int, frames: int):
    """make_crossing_suite worlds as (DetectionSequence, ground truth)."""
    pairs = ek.make_crossing_suite(n, seed=base_seed, num_classes=config.num_classes,
                                   frames=frames, appearance_dim=config.appearance_dim,
                                   mask_grid=config.mask_grid)
    return [(sw.DetectionSequence(num_classes=config.num_classes, frames=f), gt)
            for f, gt in pairs]


# Workload seeds start at 1e6, so they never meet the checkpoint's training
# worlds (suite seeds below 400), and each --seed owns a block of 2000.
def sparse_worlds(config, seed: int, smoke: bool):
    n, frames = (3, 4) if smoke else (100, 10)
    return _crossing_suite(config, n, 1_000_000 + 2_000 * seed, frames)


def crowded_worlds(config, seed: int, smoke: bool):
    n, frames = (1, 6) if smoke else (10, 40)
    noise = sw.NoiseConfig(false_positive_rate=1.0, **SUITE_NOISE)
    out = []
    for k in range(n):
        s = 2_000_000 + 2_000 * seed + 17 * k
        world = sw.WorldConfig(num_classes=config.num_classes, frames=frames,
                               max_objects=20, appearance_dim=config.appearance_dim,
                               mask_grid=config.mask_grid, exit_prob=0.0,
                               entry_window=1, seed=s)
        gt = sw.crossing_sequence(world, num_pairs=2)
        out.append((sw.corrupt(gt, noise, seed=s + 7), gt))
    return out


def train_worlds(config, seed: int, smoke: bool):
    n, frames = (2, 4) if smoke else (60, 10)
    return _crossing_suite(config, n, 3_000_000 + 2_000 * seed, frames)


@dataclass(frozen=True)
class Workload:
    name: str
    worlds: Callable | None   # tracked worlds; None tracks the training worlds
    phases: tuple[str, ...]   # in run order
    shares: dict              # phase -> share of --seconds
    rss_after: str            # peak RSS is read once this phase has run


WORKLOADS = {w.name: w for w in (
    Workload("track-sparse", sparse_worlds, ("track", "eval", "train"),
             {"track": 0.5, "eval": 0.15, "train": 0.35}, "eval"),
    Workload("track-crowded", crowded_worlds, ("track", "eval", "train"),
             {"track": 0.5, "eval": 0.2, "train": 0.3}, "eval"),
    Workload("train", None, ("train", "track", "eval"),
             {"train": 0.6, "track": 0.3, "eval": 0.1}, "train"),
)}


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Context:
    model: tm.TrackModel
    flat0: np.ndarray
    thresholds: tm.Thresholds
    track_files: list[Path]
    track_gts: list
    train_set: list
    max_dets: int


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_model() -> tm.TrackModel:
    try:
        digest = sha256(CHECKPOINT)
        if digest != CHECKPOINT_SHA256:
            raise SetupError(f"{CHECKPOINT} has sha256 {digest}, expected "
                             f"{CHECKPOINT_SHA256}; regenerate it with "
                             "perfbench/make_checkpoint.py")
        return learn.load_checkpoint(CHECKPOINT)
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"learn.load_checkpoint rejected {CHECKPOINT}: {exc}") from exc


def set_up(workload: Workload, seed: int, smoke: bool, run_dir: Path) -> Context:
    """Load the checkpoint, generate the worlds and write the tracked streams
    as JSON Lines, as a `trackgraph track` user would have them."""
    model = load_model()
    config = model.config
    train_pairs = train_worlds(config, seed, smoke)
    tracked = train_pairs if workload.worlds is None else workload.worlds(config, seed, smoke)
    run_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for k, (det, _) in enumerate(tracked):
        path = run_dir / f"seq_{k:03d}.det.jsonl"
        sw.save_detections_jsonl(det, path)
        files.append(path)
    max_dets = max(len(frame) for det, _ in tracked for frame in det.frames)
    return Context(model=model, flat0=model.params.flat_values().copy(),
                   thresholds=tm.Thresholds(), track_files=files,
                   track_gts=[gt for _, gt in tracked],
                   train_set=[(det.frames, gt) for det, gt in train_pairs],
                   max_dets=max_dets)


# ---------------------------------------------------------------------------
# phases


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


@dataclass
class TrackResult:
    frame_s: list[float] = field(default_factory=list)
    stream_rates: list[float] = field(default_factory=list)    # frames per busy second
    sequence_busy_s: list[float] = field(default_factory=list)  # first pass
    preds: list = field(default_factory=list)
    gts: list = field(default_factory=list)
    shapes: Counter = field(default_factory=Counter)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _installed(tracer: Tracer | None):
    return tracer.installed() if tracer is not None else nullcontext()


def _records_ok(memory, t: int) -> bool:
    """Every live track got exactly one record for frame t."""
    return all(tr.records and tr.records[-1].t == t
               and len(tr.records) == t - tr.birth_frame + 1 for tr in memory)


def _round_trip_problem(memory, text: str, num_classes: int, seq: int) -> str | None:
    parsed = ek.tracks_from_json(json.loads(text), sequence=seq)
    direct = ek.tracks_from_memory(memory, num_classes, sequence=seq)
    if [t.id for t in parsed] != [t.id for t in direct]:
        return f"sequence {seq}: tracks_to_json round trip changed the track list"
    for a, b in zip(parsed, direct):
        if (a.class_id != b.class_id or a.confidence != b.confidence
                or a.masks.keys() != b.masks.keys()
                or any(not np.array_equal(a.masks[t], b.masks[t]) for t in a.masks)):
            return f"sequence {seq}: track {a.id} differs after the tracks_to_json round trip"
    return None


def _record_shapes(shapes: Counter, out, memory, model, thr_init: float):
    cfg = model.config
    n = out.num_dets
    shapes["frames"] += 1
    shapes["tracks"] += out.num_tracks
    shapes["dets"] += n
    shapes["live_edges"] += (out.num_tracks + 1) * n
    shapes["padded_edges"] += (cfg.max_tracks + 1) * cfg.max_detections
    shapes["mask_entries"] += len(out.seg_tracks)
    shapes["appearance_updates"] += sum(1 for t in out.track_rows if t.active)
    shapes["births"] += len(out.born)
    wanted = int(np.count_nonzero(out.init_probs.data[:n] >= thr_init))
    shapes["capacity_refusals"] += wanted - len(out.born)
    shapes["active"] += sum(1 for t in memory if t.active)
    shapes["memory"] += len(memory)


def track_sequence(ctx: Context, idx: int, tally: Tally, result: TrackResult | None,
                   first_pass: bool) -> tuple[float, int]:
    """Load one stream, feed its frames to step() one at a time and serialize
    the tracks.  Returns the busy seconds (load + steps + tracks_to_json) and
    the frame count; checks run outside the timed parts."""
    model, thresholds = ctx.model, ctx.thresholds
    t0 = time.perf_counter()
    det = sw.load_detections_jsonl(ctx.track_files[idx])
    busy = time.perf_counter() - t0
    tally.attempted += len(det.frames)
    memory: list = []
    frame_s = []
    thr_init = thresholds.init_for("infer")
    for t, dets in enumerate(det.frames):
        t0 = time.perf_counter()
        try:
            memory, out = tm.step(memory, dets, model, thresholds, "infer", t)
        except (nc.NumericError, sw.DataError) as exc:
            tally.fail(len(det.frames) - t, f"sequence {idx} frame {t}: {exc}")
            return busy + sum(frame_s), t
        frame_s.append(time.perf_counter() - t0)
        if not _records_ok(memory, t):
            tally.fail(1, f"sequence {idx} frame {t}: not one record per live track")
        if result is not None and first_pass:
            _record_shapes(result.shapes, out, memory, model, thr_init)
    t0 = time.perf_counter()
    text = json.dumps(tm.tracks_to_json(memory, len(det.frames)))
    busy += sum(frame_s) + time.perf_counter() - t0
    if result is not None:
        result.frame_s.extend(frame_s)
        if first_pass:
            problem = _round_trip_problem(memory, text, model.config.num_classes, idx)
            if problem:
                tally.fail(len(det.frames), problem)
            result.preds.extend(ek.tracks_from_json(json.loads(text), sequence=idx))
            result.gts.extend(ek.tracks_from_gt(ctx.track_gts[idx], sequence=idx))
    return busy, len(det.frames)


def untraced_baseline(ctx: Context, tally: Tally) -> tuple[float, int]:
    """Busy seconds of the first streams (at least OVERHEAD_FRAMES frames)
    tracked without spans; the traced first pass repeats them."""
    busy_s, frames, seqs = 0.0, 0, 0
    while frames < OVERHEAD_FRAMES and seqs < len(ctx.track_files):
        busy, n = track_sequence(ctx, seqs, tally, None, first_pass=False)
        busy_s += busy
        frames += n
        seqs += 1
    return busy_s, seqs


def track_phase(ctx: Context, budget: float, tally: Tally, tracer: Tracer | None) -> TrackResult:
    """Cycle over the streams until the budget is spent, finishing at least
    one full pass; the first pass feeds the evaluation and shape counts."""
    result = TrackResult()
    n = len(ctx.track_files)
    start = time.perf_counter()
    k = 0
    while k < n or time.perf_counter() - start < budget:
        idx = k % n
        if tracer is not None:
            tracer.context = f"seq{idx}"
        with _span(tracer, "track.sequence"):
            busy, frames = track_sequence(ctx, idx, tally, result, first_pass=k < n)
        if frames:
            result.stream_rates.append(frames / busy)
        if k < n:
            result.sequence_busy_s.append(busy)
        k += 1
    return result


def eval_phase(track: TrackResult, budget: float, tally: Tally, min_reps: int,
               tracer: Tracer | None) -> list[float]:
    """Evaluate the first pass one sequence at a time, as `trackgraph eval`
    scores one tracks file against one ground-truth file, and time the whole
    suite.  (A single pooled report costs in proportion to the ground-truth
    count of whichever class the false tracks fall into, which swings by a
    quarter between seeds; per-sequence reports average that out.)"""
    groups: dict[int, tuple[list, list]] = {}
    for g in track.gts:
        groups.setdefault(g.sequence, ([], []))[1].append(g)
    for p in track.preds:
        groups.setdefault(p.sequence, ([], []))[0].append(p)
    times, first = [], None
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < budget:
        with _span(tracer, "eval.suite"):
            t0 = time.perf_counter()
            reports = [ek.evaluate(preds, gts) for preds, gts in groups.values()]
            times.append(time.perf_counter() - t0)
        dicts = [r.to_dict() for r in reports]
        if first is None:
            first = dicts
        elif dicts != first:
            tally.fail(0, "evalkit.evaluate is not deterministic on the same tracks")
    return times


def pooled_report(track: TrackResult, tally: Tally):
    """One report over all sequences of the first pass, as
    evalkit.evaluate_model_on_suite pools them: the quality guard."""
    t0 = time.perf_counter()
    report = ek.evaluate(track.preds, track.gts)
    seconds = time.perf_counter() - t0
    acc, mean_map = report.association_accuracy, report.mean_map
    if not (0.0 <= acc <= 1.0 and 0.0 <= mean_map <= 1.0):
        tally.fail(0, f"evaluation out of range: accuracy {acc}, mAP {mean_map}")
    return report, seconds


def _finite_losses(curve) -> bool:
    return all(np.isfinite([b.score, b.seg, b.match, b.init, b.total]).all() for b in curve)


def _train_config(seed: int, call: int, frames: int) -> learn.TrainConfig:
    return learn.TrainConfig(iterations=1, batch_size=BATCH, lr=LR,
                             seed=seed * 100_003 + call,
                             loss=learn.LossConfig(sequence_length=frames))


def train_phase(ctx: Context, seed: int, budget: float, tally: Tally,
                tracer: Tracer | None, min_calls: int) -> list[float]:
    """One-iteration learn.train calls, each continuing from the checkpoint
    (the weights are reset outside the timed region), so that every
    iteration costs what the first step from the checkpoint costs."""
    frames = len(ctx.train_set[0][0])
    times = []
    start = time.perf_counter()
    call = 1  # call 0 is the verification iteration
    while len(times) < min_calls or time.perf_counter() - start < budget:
        ctx.model.params.set_flat(ctx.flat0)
        if tracer is not None:
            tracer.context = f"iter{call}"
        config = _train_config(seed, call, frames)
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            curve = learn.train(ctx.train_set, ctx.model, config)
        except learn.DivergenceError as exc:
            tally.fail(1, f"training call {call}: {exc}")
            curve = None
        times.append(time.perf_counter() - t0)
        if curve is not None and not _finite_losses(curve):
            tally.fail(1, f"training call {call}: non-finite loss term")
        call += 1
    ctx.model.params.set_flat(ctx.flat0)
    return times


def verify_training(ctx: Context, seed: int, tally: Tally) -> dict:
    """One untimed learn.train iteration from the checkpoint (also the warm-up
    of the training path).  Its tape must replay bit-exactly and every
    gradient and loss must be finite."""
    found: dict = {}
    real_backward = nc.backward

    def checking_backward(tape, output, params=None):
        try:
            tape.replay()
            found["replay"] = True
        except nc.NumericError as exc:
            found["replay"] = str(exc)
        grads = real_backward(tape, output, params)
        found["finite_grads"] = all(np.all(np.isfinite(g)) for g in grads.values())
        return grads

    frames = len(ctx.train_set[0][0])
    ctx.model.params.set_flat(ctx.flat0)
    nc.backward = checking_backward
    try:
        curve = learn.train(ctx.train_set, ctx.model, _train_config(seed, 0, frames))
    except learn.DivergenceError as exc:
        tally.fail(1, f"verification iteration: {exc}")
        curve = []
    finally:
        nc.backward = real_backward
        ctx.model.params.set_flat(ctx.flat0)
    tally.attempted += 1
    if found.get("replay") is not True:
        tally.fail(1, f"Tape.replay() did not reproduce the iteration: {found.get('replay')}")
    elif not found.get("finite_grads"):
        tally.fail(1, "verification iteration: non-finite gradient")
    elif not _finite_losses(curve):
        tally.fail(1, "verification iteration: non-finite loss term")
    found["loss_total"] = curve[-1].total if curve else float("nan")
    return found


def count_ops(ctx: Context, max_frames: int) -> tuple[Counter, int]:
    """Primitive counts per op name over inference frames, recorded by a
    tape around each step (a separate pass, so spans are not affected)."""
    ops: Counter = Counter()
    frames = 0
    for idx in range(len(ctx.track_files)):
        det = sw.load_detections_jsonl(ctx.track_files[idx])
        memory: list = []
        for t, dets in enumerate(det.frames):
            with nc.Tape() as tape:
                memory, _ = tm.step(memory, dets, ctx.model, ctx.thresholds, "infer", t)
            ops.update(node.op for node in tape.nodes)
            frames += 1
        if frames >= max_frames:
            break
    return ops, frames


# ---------------------------------------------------------------------------
# tracing


def instrument(tracer: Tracer):
    def count_tape(tape, output, params=None):
        tracer.counts["tape.iterations"] += 1
        tracer.counts["tape.nodes"] += len(tape.nodes)
        tracer.counts["tape.layout"] += sum(1 for node in tape.nodes
                                            if node.op in LAYOUT_OPS)

    for module, attr, name in (
            (sw, "crossing_sequence", "synthworld.generate"),
            (sw, "corrupt", "synthworld.generate"),
            (sw, "load_detections_jsonl", "synthworld.load_jsonl"),
            (tm, "step", "trackman.step"),
            (tm, "tracks_to_json", "trackman.tracks_to_json"),
            (tm, "reweight_masks", "trackman.mask_head"),
            (tm, "score_tracks", "trackman.score"),
            (ag, "build_graph_batch", "assocgraph.build_graph"),
            (ag, "iou_matrix", "assocgraph.iou_matrix"),
            (ag, "gnn_forward", "assocgraph.gnn_forward"),
            (ag, "match_probabilities", "assocgraph.heads"),
            (ag, "init_probabilities", "assocgraph.heads"),
            (rec, "gate_step", "recurrence.gate"),
            (ap, "predict_rates", "appearance.update"),
            (ap, "update", "appearance.update"),
            (learn, "train", "learn.train"),
            (learn, "unroll_sequence", "learn.unroll"),
            (learn, "assign_targets", "learn.assign_targets"),
            (learn, "loss_score", "learn.loss_score"),
            (learn, "loss_seg", "learn.loss_seg"),
            (learn, "loss_bce", "learn.loss_bce"),
            (nc, "adam_step", "numcore.adam"),
            (ek, "evaluate", "evalkit.evaluate"),
            (ek, "video_map", "evalkit.video_map"),
            (ek, "id_metrics", "evalkit.id_metrics")):
        tracer.add(module, attr, name)
    tracer.add(nc, "backward", "numcore.backward", before=count_tape)
    tracer.add_counter(ek, "st_iou", "evalkit.st_iou_calls")


def span_table(summary: dict) -> list[str]:
    lines = [f"{'phase':<12}{'span':<26}{'calls':>8}{'total s':>11}{'self s':>11}"]
    for (root, name), row in sorted(summary.items(), key=lambda kv: (kv[0][0], -kv[1]["total_s"])):
        lines.append(f"{root:<12}{name:<26}{row['calls']:>8}{row['total_s']:>11.4f}"
                     f"{row['self_s']:>11.4f}")
    return lines


# ---------------------------------------------------------------------------
# stamp


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = root / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        return {"name": "unknown"}


def make_stamp(args, root: Path, ctx: Context) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    cap = ctx.model.config.max_detections
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "python": platform.python_version(), "numpy": np.__version__, "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(root), "checkpoint_sha256": CHECKPOINT_SHA256,
        "src_lines": src_lines,
        "truncation": {
            "max_detections_per_frame": ctx.max_dets, "cap": cap,
            "truncate_detections_fires": ctx.max_dets > cap,
            "note": "synthworld.corrupt already truncates each frame to the 16 "
                    "highest-scoring detections, so trackman.truncate_detections "
                    "in step never fires on these workloads"},
    }


# ---------------------------------------------------------------------------
# metrics


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def end_to_end_metrics(setup_s, rss_mb, track: TrackResult, report, iter_s) -> dict:
    frame_ms = np.asarray(track.frame_s) * 1e3
    frames = len(frame_ms)
    return {
        "setup_s": _metric(statistics.median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": _metric(rss_mb, "MB", 1),
        "track.frames_per_s": _metric(statistics.median(track.stream_rates), "1/s",
                                      len(track.stream_rates)),
        "track.frame_ms_p50": _metric(np.percentile(frame_ms, 50), "ms", frames),
        "track.frame_ms_p90": _metric(np.percentile(frame_ms, 90), "ms", frames),
        "eval.association_accuracy": _metric(report.association_accuracy, "share",
                                             len(track.gts)),
        "train.iter_s": _metric(statistics.median(iter_s), "s", len(iter_s)),
    }


def per_layer_metrics(tracer: Tracer, track: TrackResult, eval_s: list[float], report,
                      pooled_s: float, verification: dict, ops: Counter, ops_frames: int, setup_reps: int,
                      overhead: float, tally: Tally) -> dict:
    summary, counts = tracer.summarize(), tracer.counts

    def total(root, name, attr="total_s"):
        row = summary.get((root, name))
        return row[attr] if row else 0.0

    def calls(root, name):
        row = summary.get((root, name))
        return row["calls"] if row else 0

    frames = calls("phase.track", "trackman.step")
    iters = calls("phase.train", "numcore.adam")
    suites = calls("phase.eval", "eval.suite")

    def per_frame_ms(name, attr="total_s"):
        return _metric(1e3 * total("phase.track", name, attr) / max(frames, 1), "ms", frames)

    def per_iter_s(name):
        return _metric(total("phase.train", name) / max(iters, 1), "s", iters)

    def per_suite_s(name):
        return _metric(total("phase.eval", name) / max(suites, 1), "s", suites)

    sh = track.shapes
    nf = max(sh["frames"], 1)
    out = {
        "numcore.ops_per_frame": _metric(sum(ops.values()) / max(ops_frames, 1), "count",
                                         ops_frames),
    }
    for op in OP_NAMES:
        out[f"numcore.ops_per_frame.{op}"] = _metric(ops[op] / max(ops_frames, 1), "count",
                                                    ops_frames)
    out.update({
        "numcore.tape_nodes_per_iter": _metric(
            counts["tape.nodes"] / max(counts["tape.iterations"], 1), "count",
            counts["tape.iterations"]),
        "numcore.tape_layout_share": _metric(
            counts["tape.layout"] / max(counts["tape.nodes"], 1), "share",
            counts["tape.iterations"]),
        "numcore.backward_s": per_iter_s("numcore.backward"),
        "numcore.adam_s": per_iter_s("numcore.adam"),
        "assocgraph.build_graph_ms": per_frame_ms("assocgraph.build_graph"),
        "assocgraph.iou_matrix_ms": per_frame_ms("assocgraph.iou_matrix"),
        "assocgraph.gnn_forward_ms": per_frame_ms("assocgraph.gnn_forward"),
        "assocgraph.heads_ms": per_frame_ms("assocgraph.heads"),
        "assocgraph.live_edge_share": _metric(
            sh["live_edges"] / max(sh["padded_edges"], 1), "share", sh["frames"]),
        "recurrence.gate_ms": per_frame_ms("recurrence.gate"),
        "appearance.update_ms": per_frame_ms("appearance.update"),
        "appearance.updates_per_frame": _metric(sh["appearance_updates"] / nf, "count",
                                                sh["frames"]),
        "trackman.step_self_ms": per_frame_ms("trackman.step", "self_s"),
        "trackman.mask_head_ms": per_frame_ms("trackman.mask_head"),
        "trackman.score_ms": per_frame_ms("trackman.score"),
        "trackman.tracks_per_frame": _metric(sh["tracks"] / nf, "count", sh["frames"]),
        "trackman.dets_per_frame": _metric(sh["dets"] / nf, "count", sh["frames"]),
        "trackman.mask_entries_per_frame": _metric(sh["mask_entries"] / nf, "count",
                                                   sh["frames"]),
        "trackman.births": _metric(sh["births"], "count", sh["frames"]),
        "trackman.capacity_refusals": _metric(sh["capacity_refusals"], "count",
                                              sh["frames"]),
        "trackman.active_share": _metric(sh["active"] / max(sh["memory"], 1), "share",
                                         sh["frames"]),
        "learn.unroll_s": per_iter_s("learn.unroll"),
        "learn.assign_targets_s": per_iter_s("learn.assign_targets"),
        "learn.loss_score_s": per_iter_s("learn.loss_score"),
        "learn.loss_seg_s": per_iter_s("learn.loss_seg"),
        "learn.loss_bce_s": per_iter_s("learn.loss_bce"),
        "learn.loss_total_last": _metric(verification["loss_total"], "loss", 1),
        "evalkit.report_s": _metric(statistics.median(eval_s), "s", len(eval_s)),
        "evalkit.video_map_s": per_suite_s("evalkit.video_map"),
        "evalkit.id_metrics_s": per_suite_s("evalkit.id_metrics"),
        "evalkit.st_iou_calls": _metric(counts["evalkit.st_iou_calls"] / max(suites, 1),
                                        "count", suites),
        "evalkit.pooled_report_s": _metric(pooled_s, "s", 1),
        "evalkit.mean_map": _metric(report.mean_map, "share", 1),
        "synthworld.load_jsonl_ms": per_frame_ms("synthworld.load_jsonl"),
        "synthworld.generate_s": _metric(total("setup", "synthworld.generate") / setup_reps,
                                         "s", setup_reps),
        "trace.overhead_share": _metric(overhead, "share", OVERHEAD_FRAMES),
        "ops.failed_share": _metric(tally.failed / max(tally.attempted, 1), "share",
                                    tally.attempted),
    })
    return out


# ---------------------------------------------------------------------------
# the run


def run(args, root: Path, out_dir: Path) -> tuple[dict, dict, Tally, list[str]]:
    workload = WORKLOADS[args.workload]
    run_dir = out_dir / f"run-{workload.name}-seed{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        instrument(tracer)
    tally = Tally()
    min_reps = 1 if args.smoke else 3
    try:
        setup_s = []
        for _ in range(1 if args.smoke else SETUP_REPS):
            with _installed(tracer), _span(tracer, "setup"):
                t0 = time.perf_counter()
                ctx = set_up(workload, args.seed, args.smoke, run_dir)
                setup_s.append(time.perf_counter() - t0)

        rss_mb = 0.0
        baseline_s, baseline_seqs = 0.0, 0
        results: dict = {}
        for phase in workload.phases:
            budget = workload.shares[phase] * args.seconds
            # untimed warm-up right before the phase: one stream for tracking
            # (plus the untraced overhead baseline), the verification
            # iteration for training
            if phase == "track":
                track_sequence(ctx, 0, tally, None, first_pass=False)
                if tracer is not None:
                    baseline_s, baseline_seqs = untraced_baseline(ctx, tally)
            elif phase == "train":
                verification = verify_training(ctx, args.seed, tally)
            with _installed(tracer), _span(tracer, f"phase.{phase}"):
                if phase == "track":
                    results["track"] = track_phase(ctx, budget, tally, tracer)
                elif phase == "eval":
                    results["eval"] = eval_phase(results["track"], budget, tally, min_reps,
                                                 tracer)
                else:
                    results["train"] = train_phase(ctx, args.seed, budget, tally, tracer,
                                                   min_reps)
            if phase == workload.rss_after:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        track = results["track"]
        eval_s = results["eval"]
        report, pooled_s = pooled_report(track, tally)

        table: list[str] = []
        if tracer is None:
            metrics = end_to_end_metrics(setup_s, rss_mb, track, report, results["train"])
        else:
            ops, ops_frames = count_ops(ctx, 8 if args.smoke else OPS_FRAMES)
            traced = track.sequence_busy_s[:baseline_seqs]
            overhead = sum(traced) / baseline_s - 1.0 if baseline_s > 0 else 0.0
            metrics = per_layer_metrics(tracer, track, eval_s, report, pooled_s, verification,
                                        ops, ops_frames, len(setup_s), overhead, tally)
            table = span_table(tracer.summarize())
            tracer.write(out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl")
        stamp = make_stamp(args, root, ctx)
        for name, m in metrics.items():
            if not np.isfinite(m["value"]):
                tally.fail(0, f"metric {name} is not finite")
        return metrics, stamp, tally, table
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(args, root: Path) -> int:
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    try:
        metrics, stamp, tally, table = run(args, root, out_dir)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    correct = tally.failed == 0 and not tally.problems
    for problem in tally.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in table:
        print("  " + line)
    for name, m in metrics.items():
        print(f"  {name:<36}{m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    detail = {"stamp": stamp, "correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "problems": tally.problems, "metrics": metrics,
              "span_table": table}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": max(tally.attempted, 1), "failed": tally.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    return 0

"""Regenerate the benchmark's model checkpoint, perfbench/checkpoint.npz.

The track workloads need a trained model: untrained weights give a workload
whose shape (births, live tracks) depends on the random draw.  This trains
once with the repository's own trainer and stores the result next to the
benchmark.  Run from the repository root:

    OPENBLAS_NUM_THREADS=1 TRACKGRAPH_THREADS=1 PYTHONPATH=src \
        python3 perfbench/make_checkpoint.py

It takes a few minutes on one core.  Settings: default ModelConfig (D=32,
grid 24), make_crossing_suite(24, seed=0, frames=10, mask_grid=24),
200 iterations, batch 2, lr 1e-3, seed 0.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from trackgraph import evalkit as ek  # noqa: E402
from trackgraph import learn  # noqa: E402
from trackgraph import trackman as tm  # noqa: E402
from trackgraph.assocgraph import ModelConfig  # noqa: E402

CHECKPOINT = HERE / "checkpoint.npz"
SETTINGS = {"suite_sequences": 24, "suite_seed": 0, "frames": 10, "mask_grid": 24,
            "iterations": 200, "batch_size": 2, "lr": 1e-3, "seed": 0}
COMMAND = ("OPENBLAS_NUM_THREADS=1 TRACKGRAPH_THREADS=1 PYTHONPATH=src "
           "python3 perfbench/make_checkpoint.py")


def main() -> int:
    s = SETTINGS
    config = ModelConfig()
    suite = ek.make_crossing_suite(s["suite_sequences"], seed=s["suite_seed"],
                                   num_classes=config.num_classes, frames=s["frames"],
                                   appearance_dim=config.appearance_dim,
                                   mask_grid=s["mask_grid"])
    model = tm.build_model(config, seed=s["seed"])
    train_config = learn.TrainConfig(iterations=s["iterations"],
                                     batch_size=s["batch_size"], lr=s["lr"],
                                     seed=s["seed"],
                                     loss=learn.LossConfig(sequence_length=s["frames"]))
    t0 = time.perf_counter()
    curve = learn.train(suite, model, train_config)
    elapsed = time.perf_counter() - t0
    learn.save_checkpoint(CHECKPOINT, model, extra={
        "stamp": {"command": COMMAND, "settings": s,
                  "final_loss": curve[-1].total,
                  "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}})
    print(f"trained {s['iterations']} iterations in {elapsed:.0f} s; "
          f"final loss {curve[-1].total:.4f}; wrote {CHECKPOINT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

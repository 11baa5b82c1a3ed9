"""Training memory against sequence length: the tracemalloc peak of one
batch-1 training iteration of the demo 05 model (grid 10) on a crossing world
of T = 8, 16, 32 and 64 frames.  Training backpropagates through the whole
sequence, so the tape, and with it the peak, grows linearly in T; the last
line gives the growth per frame between T = 8 and T = 64.  Each length is run
once untraced first, so one-time caches stay out of the peaks.

Run:  python demos/06_training_memory.py
"""

import tracemalloc

from trackgraph import evalkit as ek
from trackgraph import learn
from trackgraph import trackman as tm
from trackgraph.assocgraph import ModelConfig

config = ModelConfig(num_classes=4, embed_dim=16, appearance_dim=6, mask_grid=10,
                     num_blocks=2, max_tracks=12, max_detections=10)
model = tm.build_model(config, seed=1)
start = model.params.flat_values().copy()
train_config = learn.TrainConfig(iterations=1, batch_size=1, lr=1e-3, seed=1)

print("| T | tracemalloc peak (MiB) |")
print("|---|---|")
peaks = {}
for frames in (8, 16, 32, 64):
    world = ek.make_crossing_suite(1, seed=500, num_classes=4, frames=frames,
                                   appearance_dim=6, mask_grid=10)
    learn.train(world, model, train_config)
    model.params.set_flat(start)
    tracemalloc.start()
    learn.train(world, model, train_config)
    peaks[frames] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    model.params.set_flat(start)
    print(f"| {frames} | {peaks[frames]:.1f} |")

print(f"\nabout {(peaks[64] - peaks[8]) / 56 * 1024:.0f} KiB per frame between T = 8 and 64")

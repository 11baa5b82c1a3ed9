"""Step an untrained model through a short sequence and narrate what the
track manager decides each frame: graph probabilities, births, matches,
appearance updates, and pixel ownership.

Run:  python demos/03_tracking_walkthrough.py
"""

import numpy as np

from trackgraph import synthworld as sw
from trackgraph import trackman as tm
from trackgraph.assocgraph import ModelConfig

world = sw.WorldConfig(num_classes=4, frames=6, max_objects=2, appearance_dim=6,
                       mask_grid=12, exit_prob=0.0, entry_window=1, seed=3)
gt = sw.generate_sequence(world)
stream = sw.corrupt(gt, sw.NoiseConfig(miss_prob=0.2, class_temperature=0.3),
                    seed=4)

config = ModelConfig(num_classes=4, embed_dim=16, appearance_dim=6, mask_grid=12)
model = tm.build_model(config, seed=0)
thresholds = tm.Thresholds()
print(f"thresholds: init {thresholds.init_train} (train) / "
      f"{thresholds.init_infer} (infer), match {thresholds.match_active}")

memory = []
for t, frame in enumerate(stream.frames):
    # a frame's detections are the rows of one DetectionFrame
    memory, out = tm.step(memory, frame, model, thresholds, "infer", t)
    print(f"\nframe {t}: {out.num_dets} detections from objects "
          f"{list(frame.sources)}, {out.num_tracks} tracks in memory before births")
    if out.num_dets:
        probs = out.init_probs.data[:out.num_dets]
        print(f"  init probabilities: {np.round(probs, 3)}")
    # existing tracks keep their rows of the stacked memory; newborns follow
    for row, track in enumerate(out.track_rows):
        rec = track.records[-1]
        if rec.active:
            print(f"  track {track.id}: matched detection "
                  f"{rec.matched_detection}, box {np.round(rec.box, 2)}, "
                  f"appearance sigma mean {memory.sigma.data[row].mean():.4f}")
        else:
            print(f"  track {track.id}: inactive this frame")
    for track in out.born:
        print(f"  born track {track.id} from detection "
              f"{track.records[-1].matched_detection}")
    if out.instance_map is not None:
        owners, counts = np.unique(out.instance_map, return_counts=True)
        named = {("bg" if o == 0 else out.seg_tracks[o - 1].id): int(c)
                 for o, c in zip(owners, counts)}
        print(f"  pixel ownership: {named}")

print("\nfinal class distributions (untrained, so near-uniform):")
for track in memory:
    print(f"  track {track.id}: {np.round(track.records[-1].scores, 3)}")

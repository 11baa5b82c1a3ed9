"""Short end-to-end training on the crossing-objects suite, then a budget
comparison of the full model against one ablation.  Expect about half a
minute; numbers should improve with a larger budget; no test checks that yet
(see ROADMAP item 2).

Run:  python demos/05_train_and_compare.py
"""

import time

from trackgraph import evalkit as ek
from trackgraph import learn
from trackgraph import trackman as tm
from trackgraph.assocgraph import ModelConfig

BUDGET = 150  # iterations; small on purpose

base = dict(num_classes=4, embed_dim=16, appearance_dim=6, mask_grid=10,
            num_blocks=2, max_tracks=12, max_detections=10)
train_suite = ek.make_crossing_suite(12, seed=500, num_classes=4, frames=8,
                                     appearance_dim=6, mask_grid=10)
heldout = ek.make_crossing_suite(6, seed=9100, num_classes=4, frames=8,
                                 appearance_dim=6, mask_grid=10)

for name, flags in (("full", {}), ("limited_gnn", {"limited_gnn": True})):
    config = ModelConfig(**base, **flags)
    model = tm.build_model(config, seed=1)
    t0 = time.time()
    curve = learn.train(train_suite, model,
                        learn.TrainConfig(iterations=BUDGET, batch_size=2,
                                          lr=1e-3, seed=1,
                                          loss=learn.LossConfig(sequence_length=8)))
    report = ek.evaluate_model_on_suite(model, heldout)
    print(f"{name:12s} loss {curve[9].total:6.2f} -> {curve[-1].total:6.2f}   "
          f"mAP {report.mean_map:.3f}  assoc {report.association_accuracy:.3f}  "
          f"switches {report.id_switches}  ({time.time() - t0:.0f}s)")

print("\nwith a larger budget the full model should pull further ahead of the "
      "ablation; no test checks this yet (ROADMAP item 2)")

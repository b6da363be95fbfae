#!/usr/bin/env python3
"""Encode one object as a compound vector and watch the resonator factor it.

The trace rows are the similarity of each module's estimate to every codeword
in its codebook, i.e. the data behind a per-module convergence heatmap.
"""

import numpy as np

from hdscene import CodebookSet, encode_scene, random_scene, run

cbs = CodebookSet.generate(1000, seed=7)
rng = np.random.default_rng(3)

scene = random_scene(1, rng)
truth = scene.objects[0]
s = encode_scene(cbs, scene)
print(f"ground truth: color={truth.color} digit={truth.digit} "
      f"ypos={truth.ypos} xpos={truth.xpos}")
print(f"scene vector: dimension {s.shape[0]}, components in "
      f"[{s.min():g}, {s.max():g}]\n")

trace = []
estimate, state = run(s, cbs, trace=trace)


def bar(value, width=6):
    filled = max(0, min(width, round(value * width)))
    return "#" * filled + "." * (width - filled)


print("iteration | best color    | best digit    | best ypos     | best xpos")
for row in trace:
    cells = []
    for cb in cbs.books:
        sims = row[cb.label]
        k = int(np.argmax(sims))
        cells.append(f"{k} {bar(max(sims)):6s} {max(sims):+.2f}")
    print(f"{row['iteration']:9d} | " + " | ".join(cells))

readout = " ".join(f"{cb.label}={index}" for cb, index in zip(cbs.books, estimate.indices))
print(f"\nreadout: {readout} after {estimate.iterations_used} iterations "
      f"(converged={estimate.converged})")
print(f"correct: {estimate.indices == truth.as_tuple()}")

#!/usr/bin/env python3
"""Decode a three-object scene by repeated factorization and explain-away.

Each round the resonator extracts one object, its reconstructed compound
vector is subtracted from the residual, and the residual energy tells the
decoder when nothing recognizable is left.
"""

import numpy as np

from hdscene import (
    CodebookSet,
    decode_scene,
    encode_scene,
    estimate_object_count,
    match_objects,
    random_scene,
)

cbs = CodebookSet.generate(1000, seed=7)
rng = np.random.default_rng(1)

scene = random_scene(3, rng)
s = encode_scene(cbs, scene)

print("ground truth objects:")
for obj in scene:
    print(f"  color={obj.color} digit={obj.digit} ypos={obj.ypos} xpos={obj.xpos}")

print(f"\nscene vector energy ||s||^2 = {int(s @ s)}  "
      f"(~ {estimate_object_count(s)} objects x {s.shape[0]} dims)")

decoded = decode_scene(s, cbs, max_runs=3)
print(f"\ndecoder ran {decoded.runs_executed} times, halted by {decoded.halted_by}:")
for est, energy in zip(decoded.objects, decoded.residual_energy_trace):
    found = " ".join(f"{cb.label}={index}" for cb, index in zip(cbs.books, est.indices))
    print(f"  extracted {found}  ({est.iterations_used} iterations, "
          f"residual energy {energy:.0f})")

result = match_objects(decoded, scene)
print(f"\nset match against ground truth: {result.num_correct}/{result.truth_count} "
      f"correct, all_correct={result.all_correct}")

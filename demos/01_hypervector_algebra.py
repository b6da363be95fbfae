#!/usr/bin/env python3
"""Tour of the bipolar hypervector algebra the whole library is built on."""

import numpy as np

from hdscene import bind, bundle, cosine_similarity, random_bipolar, sign

N = 1000
rng = np.random.default_rng(0)

a = random_bipolar(N, rng)
b = random_bipolar(N, rng)
c = random_bipolar(N, rng)

print(f"random bipolar vectors of dimension {N}")
print(f"  cos(a, b) = {cosine_similarity(a, b):+.4f}   (random pairs are near-orthogonal)")
print(f"  cos(a, a) = {cosine_similarity(a, a):+.4f}")

bound = bind(a, b)
print("\nbinding (componentwise multiply) attaches symbols:")
print(f"  cos(a*b, a) = {cosine_similarity(bound, a):+.4f}   (dissimilar to both inputs)")
print(f"  bind(bind(a, b), b) == a: {np.array_equal(bind(bound, b), a)}   (self-inverse)")

stack = bundle([a, b, c])
print("\nbundling (componentwise sum) superposes a set:")
print(f"  component values of bundle([a, b, c]): {sorted(set(stack.astype(int).tolist()))}")
for name, v in (("a", a), ("b", b), ("c", c)):
    print(f"  cos(bundle, {name}) = {cosine_similarity(stack, v):+.4f}   (similar to every member)")

print("\nbinding distributes over bundling:")
lhs = bind(bundle([a, b]), c)
rhs = bundle([bind(a, c), bind(b, c)])
print(f"  bind(bundle([a, b]), c) == bundle([a*c, b*c]): {np.array_equal(lhs, rhs)}")

print("\nsign() snaps a bundled vector back to bipolar (zeros break to +1):")
print(f"  sign(bundle) values: {sorted(set(sign(stack).astype(int).tolist()))}")
print(f"  cos(sign(bundle), a) = {cosine_similarity(sign(stack), a):+.4f}")

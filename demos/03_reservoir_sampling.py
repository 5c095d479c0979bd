"""Weighted reservoir sampling against its closed-form law.

Attaching the key log(u)/w to every candidate and keeping the k largest
draws a weighted sample without replacement.  For k=2 over three
weights the joint law has a short closed form,

    P({i, j}) = p_i p_j (1/(1 - p_i) + 1/(1 - p_j)),

which is the probability either order of the sequential draw produces
the pair.  The demo checks both k=1 and k=2 empirically and then shows
the two properties the training loop leans on: a full-degree row
consumes no randomness at all, and the epoch index changes the draw
while everything else holds still.
"""

import numpy as np

from sparsegt.graphs import AttentionPattern, EdgeType, PatternLayer
from sparsegt.rngutil import derive
from sparsegt.sampling import reservoir_sample, sample_batch

W = np.array([0.5, 0.3, 0.2])


def main():
    rng = derive(0, 1)
    n = 50_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[reservoir_sample(W, 1, rng)[0]] += 1
    print("k=1 inclusion over weights (0.5, 0.3, 0.2):")
    for i in range(3):
        print(f"  item {i}: empirical {counts[i] / n:.4f}, law {W[i]:.4f}")

    pair_law = {}
    for i in range(3):
        for j in range(i + 1, 3):
            pair_law[(i, j)] = W[i] * W[j] * (1 / (1 - W[i]) + 1 / (1 - W[j]))
    pairs = {p: 0 for p in pair_law}
    for _ in range(n):
        pairs[tuple(sorted(reservoir_sample(W, 2, rng)))] += 1
    print("\nk=2 pair frequencies:")
    for p, law in pair_law.items():
        print(f"  {p}: empirical {pairs[p] / n:.4f}, law {law:.4f}")

    # full-degree rows are returned whole, untouched by the generator
    twin_a, twin_b = derive(7, 7), derive(7, 7)
    take = reservoir_sample(W, 3, twin_a)
    print(f"\nk >= row size returns every index in order: {take}")
    print(f"and consumes no randomness: next draws match, "
          f"{twin_a.random():.6f} == {twin_b.random():.6f}")

    # batch plans draw the same law from the counter-based plan stream
    # a score set is a pattern whose layers carry values
    one_row = AttentionPattern(n=3, layers=(PatternLayer(
        row_ptr=np.array([0, 3, 3, 3]), col_idx=np.arange(3),
        edge_type=np.full(3, EdgeType.GRAPH, dtype=np.int8), values=W),))
    print("\nsame node across epochs (seed and node fixed, epoch varies):")
    for epoch in range(6):
        plan = sample_batch(np.array([0]), one_row, (2,), seed=0, epoch=epoch)
        print(f"  epoch {epoch}: kept {plan.layers[0].key_global[0]}")


if __name__ == "__main__":
    main()

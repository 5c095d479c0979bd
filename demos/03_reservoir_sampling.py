"""Weighted reservoir sampling against its closed-form law.

Attaching the key log(u)/w to every candidate and keeping the k largest
draws a weighted sample without replacement.  For k=2 over three
weights the joint law has a short closed form,

    P({i, j}) = p_i p_j (1/(1 - p_i) + 1/(1 - p_j)),

which is the probability either order of the sequential draw produces
the pair.  The demo checks both k=1 and k=2 empirically on the sampler
that training and prediction use, ``sample_batch``: a score set in which
50,000 nodes share one row gives 50,000 independent samples of that row
in a single call, since every uniform is keyed by its node.  It then
shows the two properties the training loop leans on: a row that fits its
budget comes back whole, with nothing left to chance, and the epoch
index changes the draw while everything else holds still.
"""

import numpy as np

from sparsegt.graphs import AttentionPattern, EdgeType, PatternLayer
from sparsegt.sampling import sample_batch, sampling_law

W = np.array([0.5, 0.3, 0.2])


def identical_rows(weights, num_rows):
    """A score set (a pattern whose layer carries values) in which node i's
    row lies over columns 0..k-1 with the k ``weights``, for every node."""
    k = weights.size
    return AttentionPattern(n=num_rows, layers=(PatternLayer(
        row_ptr=np.arange(0, k * num_rows + 1, k),
        col_idx=np.tile(np.arange(k), num_rows),
        edge_type=np.full(k * num_rows, EdgeType.GRAPH, dtype=np.int8),
        values=np.tile(weights, num_rows)),))


def draw(scores, nodes, k, epoch):
    """Each node's drawn columns, one row of the result per node."""
    (layer,) = sample_batch(nodes, sampling_law(scores), (k,), seed=0, epoch=epoch).layers
    return layer.v_nodes[layer.geometry.col_idx].reshape(nodes.size, -1)


def main():
    n = 50_000
    scores = identical_rows(W, n)
    nodes = np.arange(n)
    counts = np.bincount(draw(scores, nodes, 1, epoch=1)[:, 0], minlength=3)
    print("k=1 inclusion over weights (0.5, 0.3, 0.2):")
    for i in range(3):
        print(f"  item {i}: empirical {counts[i] / n:.4f}, law {W[i]:.4f}")

    pair_law = {}
    for i in range(3):
        for j in range(i + 1, 3):
            pair_law[(i, j)] = W[i] * W[j] * (1 / (1 - W[i]) + 1 / (1 - W[j]))
    pairs = draw(scores, nodes, 2, epoch=2)
    print("\nk=2 pair frequencies:")
    for (i, j), law in pair_law.items():
        freq = np.mean((pairs[:, 0] == i) & (pairs[:, 1] == j))
        print(f"  {(i, j)}: empirical {freq:.4f}, law {law:.4f}")

    # a row that fits its budget draws nothing: the same whole row, in
    # CSR order, in every epoch
    whole = [draw(scores, nodes[:1], 3, epoch)[0].tolist() for epoch in range(3)]
    print(f"\nk >= row size returns every index in order, epochs 0-2: {whole}")

    print("\nsame node across epochs (seed and node fixed, epoch varies):")
    for epoch in range(6):
        print(f"  epoch {epoch}: kept {draw(scores, nodes[:1], 2, epoch)[0]}")


if __name__ == "__main__":
    main()

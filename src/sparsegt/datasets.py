"""Synthetic graphs with controllable long-range structure.

The bridge task builds several single-color components (a hub node wired
to every member, plus some random member-member edges) and joins
selected component pairs by exactly one hub-to-hub bridge edge.  A node
is labeled 1 iff its merged component contains both colors, so the only
informative signal reaches most nodes through one specific edge -- the
bridge -- which uniform neighbor sampling almost never picks but trained
attention scores can.  Features are the one-hot color plus Gaussian
noise; everything else about the component is irrelevant to the label.

The SBM generators give homophilous and heterophilous block graphs for
sanity checks; labels are block ids and features are noisy block means.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError
from .graphs import (Graph, TRAIN, VAL, TEST, atomic_path, edges_to_csr, has_json_type,
                     load_graph, save_split, write_json)
from .rngutil import TAG_DATA, derive

GENERATORS = ("bridge", "sbm_homophily", "sbm_heterophily")


@dataclass
class SyntheticSpec:
    """Everything a generator needs; unused fields are ignored per generator."""

    generator: str = "bridge"
    seed: int = 0
    # bridge task
    num_components: int = 8
    component_size: int = 24
    num_bridges: int = 4
    extra_edges: int = -1          # per component; -1 means component_size // 2
    colors: tuple | None = None    # per-component color override (0/1)
    noise: float = 0.1
    # stochastic block model
    blocks: int = 4
    block_size: int = 50
    p_intra: float = 0.15
    p_inter: float = 0.01
    feature_dim: int = 8
    # split fractions, train/val/test
    split: tuple = (0.6, 0.2, 0.2)

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ContractError(f"unknown generator {self.generator!r}")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ContractError(f"split fractions {self.split} do not sum to 1")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["split"] = list(self.split)
        if self.colors is not None:
            d["colors"] = list(self.colors)
        return d

    @classmethod
    def from_json(cls, text: str) -> "SyntheticSpec":
        """The spec ``to_dict`` wrote, read back from JSON text.

        Each field must have its default's type: an int field takes an int
        but not a bool, a float field an int or a float, ``generator`` a
        str, ``split`` a list of numbers and ``colors`` null or a list of
        integers; any other is a FormatError naming the field.
        """
        d = json.loads(text)
        for f in fields(cls):
            if f.name in d and not _spec_type_ok(f.name, d[f.name], type(f.default)):
                want = {"split": "a list of numbers",
                        "colors": "null or a list of integers"}.get(
                            f.name, type(f.default).__name__)
                raise FormatError(f"spec field {f.name!r} must be {want}, "
                                  f"got {d[f.name]!r}")
        if "split" in d:
            d["split"] = tuple(d["split"])
        if d.get("colors") is not None:
            d["colors"] = tuple(d["colors"])
        return cls(**d)


def _spec_type_ok(name: str, value, kind) -> bool:
    if name == "split":
        return isinstance(value, list) and all(has_json_type(v, float) for v in value)
    if name == "colors":
        return value is None or (isinstance(value, list)
                                 and all(has_json_type(v, int) for v in value))
    return has_json_type(value, kind)


def _bridge_pairs(num_components: int, num_bridges: int, colors: np.ndarray):
    """Component pairs to bridge: opposite-color pairs first, then
    same-color pairs among what is left, so both labels occur."""
    opposite = (num_bridges + 1) // 2
    same = num_bridges // 2
    pairs = []
    used = set()
    # opposite-color: walk adjacent index pairs with differing colors
    i = 0
    while len(pairs) < opposite and i < num_components - 1:
        if i not in used and i + 1 not in used and colors[i] != colors[i + 1]:
            pairs.append((i, i + 1))
            used.update((i, i + 1))
            i += 2
        else:
            i += 1
    if len(pairs) < opposite:
        raise ContractError("not enough opposite-color component pairs to bridge")
    remaining = [c for c in range(num_components) if c not in used]
    by_color = {0: [c for c in remaining if colors[c] == 0],
                1: [c for c in remaining if colors[c] == 1]}
    color_cursor = 0
    for _ in range(same):
        placed = False
        for _ in range(2):
            group = by_color[color_cursor]
            color_cursor ^= 1
            if len(group) >= 2:
                pairs.append((group.pop(0), group.pop(0)))
                placed = True
                break
        if not placed:
            raise ContractError("not enough same-color component pairs to bridge")
    return pairs


def gen_bridge_task(spec: SyntheticSpec) -> Graph:
    """Colored hub components, hub-to-hub bridges, labels from merged colors.

    Hubs keep the component diameter at 2 and put the bridge within two
    hops of every member, so a 2-layer attention network can in
    principle solve the task exactly; whether it finds the bridge is the
    interesting part.
    """
    c, size = spec.num_components, spec.component_size
    if c < 2 or size < 2:
        raise ContractError("need at least 2 components of at least 2 nodes")
    if 2 * spec.num_bridges > c:
        raise ContractError(f"{spec.num_bridges} bridges need {2 * spec.num_bridges} "
                            f"components, have {c}")
    colors = (np.asarray(spec.colors, dtype=np.int64) if spec.colors is not None
              else np.arange(c, dtype=np.int64) % 2)
    if colors.shape != (c,) or not np.isin(colors, (0, 1)).all():
        raise ContractError("colors must be one 0/1 entry per component")
    rng = derive(spec.seed, TAG_DATA)
    n = c * size
    extra = spec.extra_edges if spec.extra_edges >= 0 else size // 2

    src, dst = [], []
    hubs = np.arange(c) * size
    for comp in range(c):
        base = comp * size
        members = np.arange(base, base + size)
        # hub star
        src.extend([base] * (size - 1))
        dst.extend(members[1:])
        # extra intra edges for texture (dedup happens in the CSR builder)
        for _ in range(extra):
            a, b = rng.integers(0, size, 2)
            if a != b:
                src.append(base + int(a))
                dst.append(base + int(b))
    pairs = _bridge_pairs(c, spec.num_bridges, colors)
    for ca, cb in pairs:
        src.append(int(hubs[ca]))
        dst.append(int(hubs[cb]))

    row_ptr, col_idx = edges_to_csr(n, np.asarray(src), np.asarray(dst))

    # Each component is a connected hub star and no component is in two
    # pairs, so the merged components are the pairs and the unpaired
    # components: a node is positive iff its pair crosses colors.
    crossing = np.zeros(c, dtype=bool)
    for ca, cb in pairs:
        crossing[[ca, cb]] = colors[ca] != colors[cb]
    labels = np.repeat(crossing, size).astype(np.int64)
    node_color = np.repeat(colors, size)
    onehot = np.eye(2)[node_color]
    features = onehot + rng.normal(0.0, spec.noise, size=(n, 2))
    split = _stratified_split(labels, spec.split, rng)
    return Graph(n=n, row_ptr=row_ptr, col_idx=col_idx,
                 features=features, labels=labels, split=split)


def gen_sbm(spec: SyntheticSpec) -> Graph:
    """Stochastic block model; heterophily just swaps which probability wins."""
    k, bs = spec.blocks, spec.block_size
    if k < 2 or bs < 2:
        raise ContractError("need at least 2 blocks of at least 2 nodes")
    n = k * bs
    rng = derive(spec.seed, TAG_DATA)
    block = np.repeat(np.arange(k), bs)
    same = block[:, None] == block[None, :]
    p = np.where(same, spec.p_intra, spec.p_inter)
    draw = rng.random((n, n))
    upper = np.triu(draw < p, k=1)
    src, dst = np.nonzero(upper)
    row_ptr, col_idx = edges_to_csr(n, src, dst)
    means = rng.normal(0.0, 1.0, size=(k, spec.feature_dim))
    features = means[block] + rng.normal(0.0, spec.noise, size=(n, spec.feature_dim))
    labels = block.astype(np.int64)
    split = _stratified_split(labels, spec.split, rng)
    return Graph(n=n, row_ptr=row_ptr, col_idx=col_idx,
                 features=features, labels=labels, split=split)


def gen_dataset(spec: SyntheticSpec) -> Graph:
    if spec.generator == "bridge":
        return gen_bridge_task(spec)
    if spec.generator == "sbm_homophily":
        return gen_sbm(spec)
    # heterophily flavor: cross-block edges dominate
    flipped = SyntheticSpec(**{**asdict(spec),
                               "p_intra": min(spec.p_intra, spec.p_inter),
                               "p_inter": max(spec.p_intra, spec.p_inter)})
    return gen_sbm(flipped)


def _stratified_split(labels: np.ndarray, fractions, rng) -> np.ndarray:
    """Per-label-class shuffle and cut, so label balance survives the split."""
    split = np.empty(labels.shape[0], dtype=np.int8)
    key = labels if labels.ndim == 1 else labels[:, 0]
    for cls in np.unique(key):
        idx = np.flatnonzero(key == cls)
        idx = idx[rng.permutation(idx.size)]
        n_tr = int(round(fractions[0] * idx.size))
        n_val = int(round(fractions[1] * idx.size))
        split[idx[:n_tr]] = TRAIN
        split[idx[n_tr:n_tr + n_val]] = VAL
        split[idx[n_tr + n_val:]] = TEST
    return split


def homophily_ratio(g: Graph) -> float:
    """Fraction of directed edges whose endpoints share a label."""
    rows = np.repeat(np.arange(g.n), np.diff(g.row_ptr))
    if g.col_idx.size == 0:
        return 0.0
    return float((g.labels[rows] == g.labels[g.col_idx]).mean())


def write_dataset(out_dir, g: Graph, spec: SyntheticSpec) -> dict:
    """Materialize a graph in the plain on-disk formats; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = np.repeat(np.arange(g.n), np.diff(g.row_ptr))
    keep = rows < g.col_idx          # one direction per undirected edge
    with atomic_path(out / "edges.tsv") as tmp, open(tmp, "w") as fh:
        fh.write(f"# undirected edge list, n={g.n}\n")
        for a, b in zip(rows[keep], g.col_idx[keep]):
            fh.write(f"{a}\t{b}\n")
    for name, table, fmt in (("features.csv", g.features, "%.8g"),
                             ("labels.csv", g.labels, "%d")):
        with atomic_path(out / name) as tmp, open(tmp, "w") as fh:
            np.savetxt(fh, table, delimiter=",", fmt=fmt)
    save_split(out / "split.csv", g.split)
    write_json(out / "spec.json", spec.to_dict())
    return {name: str(out / name) for name in
            ("edges.tsv", "features.csv", "labels.csv", "split.csv", "spec.json")}


def load_dataset(in_dir) -> tuple[Graph, SyntheticSpec]:
    """The graph and spec ``write_dataset`` left in ``in_dir``.

    A ``spec.json`` that is not a spec's JSON object (a field of the wrong
    type included), and a non-numeric feature or label table, are
    FormatErrors naming the file.
    """
    d = Path(in_dir)
    path = d / "spec.json"
    try:        # undecodable bytes, text that is not JSON, fields no spec has
        spec = SyntheticSpec.from_json(path.read_text())
    except (FormatError, TypeError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: not a dataset spec ({exc})") from None
    if spec.generator == "bridge":
        n = spec.num_components * spec.component_size
    else:
        n = spec.blocks * spec.block_size
    g = load_graph(d / "edges.tsv", d / "features.csv", d / "labels.csv", n,
                   split_path=d / "split.csv")
    return g, spec

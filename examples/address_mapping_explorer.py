#!/usr/bin/env python
"""Address-mapping explorer: visualize PIM striping and block groups.

Renders paper-Fig. 2b-style maps: for a weight matrix under a chosen XOR
address mapping, which PIM owns each cache block, and how matrix rows fall
into StepStone block groups.  Also prints the per-mapping group counts that
drive the Fig. 11 localization differences.

Run:  python examples/address_mapping_explorer.py [mapping_id]
"""

import sys

import numpy as np

from repro.mapping.analysis import analyze_footprint
from repro.mapping.presets import mapping_by_id
from repro.mapping.xor_mapping import PimLevel

GLYPHS = "0123456789abcdef"


def render_block_map(mapping, level, m_rows, k_cols, max_rows=16, max_cols=64):
    fa = analyze_footprint(mapping, level, m_rows, k_cols)
    print(
        f"\n{mapping.name} / {level.short}: {m_rows}x{k_cols} fp32 -> "
        f"{fa.n_active_pims} active PIMs, {fa.n_groups} block groups"
    )
    bb = mapping.geometry.block_bytes
    rows = min(m_rows, max_rows)
    cols = min(fa.blocks_per_row, max_cols)
    print(f"block -> PIM map (first {rows} rows x {cols} block-columns):")
    groups = fa.grouping.row_groups
    for r in range(rows):
        addrs = (
            np.uint64(r * fa.row_bytes)
            + np.arange(cols, dtype=np.uint64) * np.uint64(bb)
        )
        ids = mapping.pim_ids(addrs, level)
        line = "".join(GLYPHS[int(i)] for i in ids)
        print(f"  row {r:>3} [grp {groups[r]:>2}] {line}")
    print("  (each digit is the owning PIM id; rows of one group share a pattern)")


def main() -> None:
    mid = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    mapping = mapping_by_id(mid)
    print(mapping.describe())

    # The paper's Fig. 4 example and a bigger matrix.
    render_block_map(mapping, PimLevel.BANKGROUP, 16, 512)
    render_block_map(mapping, PimLevel.DEVICE, 32, 2048)

    # Fig. 11 driver: block-group (sharing) counts per mapping and shape.
    print("\nblock-group counts (localization replication factor), BG level:")
    shapes = [(512, 2048), (128, 8192), (8192, 128), (1024, 4096)]
    header = "mapping".ljust(18) + "".join(f"{m}x{k}".rjust(12) for m, k in shapes)
    print(header)
    for i in range(5):
        mp = mapping_by_id(i)
        counts = [
            analyze_footprint(mp, PimLevel.BANKGROUP, m, k).n_groups
            for m, k in shapes
        ]
        print(mp.name.ljust(18) + "".join(str(c).rjust(12) for c in counts))


if __name__ == "__main__":
    main()

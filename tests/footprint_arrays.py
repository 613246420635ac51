"""The whole-array footprint builders, kept as the oracle for the cosets.

Cold pricing reads every footprint from cosets of the address map over
Python ints (``FootprintAnalysis`` and ``executor._gemm_profile``).
Before that, it built them from NumPy arrays in whole-footprint passes:

* the packed code of every matrix row's first byte and every block
  column's offset (:func:`footprint_codes`, by doubling, as
  :func:`code_table` does), so block (r, c) has code
  ``row_codes[r] ^ col_codes[c]``;
* the grouping from one ``cumsum`` over the present raw codes, the rows of
  every group from one stable ``argsort``, one PIM-ID evaluation over the
  ``(n_groups x blocks_per_row)`` matrix of each group's first row, and
  every (PIM, group) column count from one ``bincount``
  (:func:`array_footprint`);
* the critical PIM's profile from one concatenated walk of its groups'
  first and second rows, with the row misses from a ``lexsort`` by
  (walk, bank, position) (:func:`array_profile`, :func:`row_misses`).

``tests/test_footprint_oracle.py`` compares every footprint and profile
field of the coset implementation against these builders.
"""

from __future__ import annotations

import numpy as np

from repro.core.gemm import GroupWork
from repro.mapping.xor_mapping import PimLevel


def code_table(mapping, start, stride, n):
    """Read-only ``int64`` codes of the addresses ``start + i * stride``, ``i < n``.

    ``n`` and ``stride`` are powers of two and ``start`` is aligned to
    ``n * stride``, so each address is ``start`` XOR the bits of ``i *
    stride``: the codes of ``[h, 2h)`` are those of ``[0, h)`` XOR the
    code of ``h * stride``.
    """
    codes = np.empty(n, dtype=np.int64)
    codes[0] = mapping.code(start)
    h = 1
    while h < n:
        codes[h : 2 * h] = codes[:h] ^ mapping.code(h * stride)
        h *= 2
    codes.flags.writeable = False
    return codes


def footprint_codes(mapping, m_rows, row_bytes, base=0):
    """``(row_codes, col_codes)`` of an aligned footprint: the packed codes
    of each matrix row's first byte and of each block column's offset."""
    bb = mapping.geometry.block_bytes
    return code_table(mapping, base, row_bytes, m_rows), code_table(mapping, 0, bb, row_bytes // bb)


def array_footprint(fa):
    """The footprint of ``fa`` in whole-array passes over its code tables:
    the grouping, rows, per-group PIM IDs and column counts, and the
    footprint record's fields."""
    mapping = fa.mapping
    row_codes, col_codes = footprint_codes(mapping, fa.m_rows, fa.row_bytes, fa.base)
    base_id = int(fa.pim_ids_of(row_codes[0]))
    # A row's group code is the ID bits of its row code less the base's.
    codes = fa.pim_ids_of(row_codes) ^ base_id
    present = np.zeros(1 << len(fa.id_masks), dtype=bool)
    present[codes] = True
    row_groups = (np.cumsum(present) - 1)[codes]
    raw_codes = tuple(np.flatnonzero(present).tolist())
    n_groups = len(raw_codes)
    narrow = row_groups.astype(np.min_scalar_type(n_groups - 1))
    rows = np.argsort(narrow, kind="stable")
    starts = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_groups, minlength=n_groups), out=starts[1:])
    sizes = np.diff(starts)
    first = row_codes[rows[starts[:-1]]]
    group_pim_ids = fa.pim_ids_of(first[:, None] ^ col_codes[None, :])
    n_ids = 1 << len(fa.id_masks)
    key = np.arange(n_groups, dtype=np.int64)[:, None] * n_ids + group_pim_ids
    counts = np.bincount(key.ravel(), minlength=n_groups * n_ids).reshape(n_groups, n_ids)
    # Owning (PIM, group) pairs, PIM-major: each PIM's items in group order.
    pims, groups = np.nonzero(counts.T)
    work = {}
    for pim, grp, n_cols, n_rows in zip(
        pims.tolist(), groups.tolist(), counts[groups, pims].tolist(), sizes[groups].tolist()
    ):
        work.setdefault(pim, []).append(GroupWork(pim, grp, n_cols, n_rows))
    blocks_per_id = (sizes @ counts).tolist()
    blocks = {pim: blocks_per_id[pim] for pim in work}
    return dict(
        row_codes=row_codes,
        col_codes=col_codes,
        base_id=base_id,
        raw_codes=raw_codes,
        row_groups=row_groups,
        rows=rows,
        starts=starts,
        group_pim_ids=group_pim_ids,
        col_counts=counts,
        work={pim: tuple(items) for pim, items in work.items()},
        max_group_cols=max(1, int(counts.max())),
        blocks_per_pim=blocks,
        critical_pim=max(blocks, key=blocks.__getitem__),
        total_cols=int(counts.sum()),
        total_blocks=sum(blocks.values()),
    )


def row_misses(flat, dram_row, walk, counted, n_walks):
    """Row-buffer misses of the ``counted`` accesses, per walk.

    The accesses of every walk are in program order (walks may be
    concatenated).  An access misses when it is its walk's first visit to
    its bank, or the bank's previous access in the walk had another row
    open; ordering by (walk, bank, position) puts each bank's visits side
    by side.
    """
    order = np.lexsort((np.arange(len(flat)), flat, walk))
    fo, ro, wo = flat[order], dram_row[order], walk[order]
    miss = np.ones(len(flat), dtype=bool)
    miss[1:] = (wo[1:] != wo[:-1]) | (fo[1:] != fo[:-1]) | (ro[1:] != ro[:-1])
    return np.bincount(wo[miss & counted[order]], minlength=n_walks)


def array_profile(t, fa, unit):
    """The critical PIM's per-group profiles of ``fa`` as dicts of
    ``_GroupProfile`` fields, from one concatenated walk of every group's
    first row, then the second rows of the groups that have two or more."""
    arr = array_footprint(fa)
    mapping = fa.mapping
    pim = arr["critical_pim"]
    items = arr["work"][pim]
    n_groups = len(items)
    groups = np.array([w.group for w in items], dtype=np.int64)
    n_rows = np.array([w.n_rows for w in items], dtype=np.int64)
    rows, starts = arr["rows"], arr["starts"]
    first_row = rows[starts[groups]]
    last_row = rows[starts[groups] + n_rows - 1]

    # One row walk per group, concatenated: walk[j] is access j's group.
    walk, cols = np.nonzero(arr["group_pim_ids"][groups] == pim)
    n_cols = np.bincount(walk, minlength=n_groups)
    head = np.zeros(n_groups, dtype=np.int64)
    np.cumsum(n_cols[:-1], out=head[1:])
    tail = head + n_cols - 1
    is_head = np.zeros(len(walk), dtype=bool)
    is_head[head] = True

    paired = n_rows[walk] > 1
    second_row = rows[starts[groups] + np.minimum(n_rows, 2) - 1]
    walk_rows = np.concatenate([first_row[walk], second_row[walk[paired]]])
    all_walk = np.concatenate([walk, walk[paired]])
    codes = arr["row_codes"][walk_rows] ^ arr["col_codes"][np.concatenate([cols, cols[paired]])]
    rk, bg, bk, dr = (mapping.code_field(codes, f) for f in ("rank", "bankgroup", "bank", "row"))
    g = mapping.geometry
    flat = (rk * g.bankgroups_per_rank + bg) * g.banks_per_bankgroup + bk

    counted = np.concatenate([~paired, np.ones(int(paired.sum()), dtype=bool)])
    misses = row_misses(flat, dr, all_walk, counted, n_groups).tolist()

    n = len(walk)
    rk, bg = rk[:n], bg[:n]
    cadence = np.full(n, float(t.tCCDS))
    same_rank = rk[1:] == rk[:-1]
    same_bg = (bg[1:] == bg[:-1]) & same_rank
    c = np.where(same_bg, float(t.tCCDL), float(t.tCCDS))
    cadence[1:] = np.where(same_rank, c, float(t.tBL + t.tRTRS))
    cadence[is_head] = float(t.tCCDS)
    if unit.level is PimLevel.BANKGROUP:
        cadence[:] = float(unit.cadence(t))
    values, which = np.unique(cadence, return_inverse=True)
    hist = np.bincount(walk * len(values) + which.ravel(), minlength=n_groups * len(values))
    hist = hist.reshape(n_groups, len(values)).tolist()
    values = values.tolist()

    within = np.empty(n, dtype=np.float64)
    within[1:] = np.diff(cols)
    within[is_head] = 1.0
    row_gap_rows = (last_row - first_row) / np.maximum(n_rows - 1, 1)
    row_gap = np.maximum(
        1.0, row_gap_rows * fa.blocks_per_row - cols[tail].astype(np.float64) + cols[head]
    )
    row_gap = np.where(n_rows > 1, row_gap, 2.0).tolist()

    out = []
    for i, w in enumerate(items):
        h = tuple((v, k) for v, k in zip(values, hist[i]) if k)
        lo, hi = head[i], tail[i] + 1
        out.append(
            dict(
                cadence=cadence[lo:hi],
                cadence_hist=h,
                cadence_min=h[0][0],
                cadence_max=h[-1][0],
                cadence_den=max(v.as_integer_ratio()[1] for v, _ in h),
                cadence_sum=sum(k * v for v, k in h),
                n_rows=w.n_rows,
                n_blk=w.n_cols * w.n_rows,
                crossings=float(misses[i]) * w.n_rows,
                naive_within=within[lo:hi],
                naive_row_gap=row_gap[i],
            )
        )
    return out

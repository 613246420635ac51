"""Preset XOR address mappings (Table II, mappings 0-4).

The paper uses DRAMA-reverse-engineered mappings: Skylake as the baseline
(ID 4) and Exynos-/Haswell-/IvyBridge-/SandyBridge-like variants (IDs 0-3)
modified with the PAE randomization method of Liu et al. [26].  The exact
published bit functions cover different DIMM populations than our Table II
geometry, so we re-derive structurally-equivalent functions that preserve
every property the paper's evaluation depends on:

* **Skylake (ID 4, baseline)** — matches §III-B exactly for the Fig. 4
  example: ``BG0 = a7 ^ a14`` and the channel bit is affected by
  ``a8, a9, a12, a13`` (plus row bits ``a19, a20`` for larger footprints).
  Consecutive cache-block *pairs* map to the same PIM (lowest ID-affecting
  bit is a7), as §V-C observes.
* **ID 0 (Exynos-like)** — ID-affecting bits are concentrated low, so a
  128 x 8192 matrix yields only 4 block groups (lowest localization overhead
  in Fig. 11, "matrix columns remain contiguous within each PIM").
* **IDs 1, 2 (Haswell-/IvyBridge-like)** — fine-grained hashing with many
  row bits: 16 block groups for 128 x 8192 (2x mappings 3/4, 4x mapping 0),
  reproducing the sharing ratios quoted in §V-E.
* **IDs 2, 3** additionally interleave bank groups at coarse granularity
  (lowest BG-affecting bit is a14), so channel-level PIM streaming pays
  tCCD_L on back-to-back accesses — the §V-E StepStone-CH anomaly.

`pae_randomized` generates additional randomized-but-invertible variants in
the spirit of PAE for sensitivity studies beyond the paper's five mappings.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.utils.bits import mask_of_bits
from repro.mapping.xor_mapping import DRAMGeometry, XORAddressMapping

__all__ = [
    "default_geometry",
    "make_skylake",
    "make_exynos_like",
    "make_haswell_like",
    "make_ivybridge_like",
    "make_sandybridge_like",
    "make_toy_mapping",
    "pae_randomized",
    "ADDRESS_MAPPINGS",
    "mapping_by_id",
]


def default_geometry() -> DRAMGeometry:
    """Table II geometry: 2 ch x 2 ranks x 4 BGs x 4 banks, 8 KiB rows."""
    return DRAMGeometry()


def _m(*bits: int) -> int:
    return mask_of_bits(bits)


def make_skylake(geometry: DRAMGeometry | None = None) -> XORAddressMapping:
    """Baseline Skylake-like mapping (Table II ID 4)."""
    g = geometry or default_geometry()
    masks = {
        "column": [_m(6), _m(7), _m(8), _m(9), _m(10), _m(11), _m(12)],
        "channel": [_m(8, 9, 12, 13, 19, 20)],
        "bankgroup": [_m(7, 14), _m(15, 19)],
        "bank": [_m(16, 20), _m(17, 21)],
        "rank": [_m(18, 22)],
        "row": [_m(19 + i) for i in range(15)],
    }
    return XORAddressMapping(g, masks, name="skylake", mapping_id=4)


def make_exynos_like(geometry: DRAMGeometry | None = None) -> XORAddressMapping:
    """Mapping ID 0: shallow XORs, ID-affecting bits concentrated low."""
    g = geometry or default_geometry()
    masks = {
        "column": [_m(6), _m(7), _m(8), _m(9), _m(10), _m(11), _m(12)],
        "channel": [_m(13, 7)],
        "bankgroup": [_m(14, 8), _m(15, 9)],
        "bank": [_m(16, 10), _m(17, 11)],
        "rank": [_m(18, 12)],
        "row": [_m(19 + i) for i in range(15)],
    }
    return XORAddressMapping(g, masks, name="exynos-like", mapping_id=0)


def make_haswell_like(geometry: DRAMGeometry | None = None) -> XORAddressMapping:
    """Mapping ID 1: deep hashing — every PIM ID bit mixes column + row bits."""
    g = geometry or default_geometry()
    masks = {
        "column": [_m(6), _m(7), _m(8), _m(9), _m(10), _m(11), _m(12)],
        "channel": [_m(13, 8, 19)],
        "bankgroup": [_m(14, 7, 20), _m(15, 9, 21)],
        "bank": [_m(16, 11), _m(17, 12)],
        "rank": [_m(18, 10, 22)],
        "row": [_m(19 + i) for i in range(15)],
    }
    return XORAddressMapping(g, masks, name="haswell-like", mapping_id=1)


def make_ivybridge_like(geometry: DRAMGeometry | None = None) -> XORAddressMapping:
    """Mapping ID 2: deep hashing + coarse bank-group interleaving.

    The lowest BG-affecting bit is a14, so 256 consecutive cache blocks fall
    in the same bank group — a channel-level PIM therefore streams at the
    tCCD_L cadence (the §V-E StepStone-CH penalty).
    """
    g = geometry or default_geometry()
    masks = {
        "column": [_m(6), _m(7), _m(8), _m(9), _m(10), _m(11), _m(12)],
        "channel": [_m(13, 8, 9, 19)],
        "bankgroup": [_m(14, 20), _m(15, 21)],
        "bank": [_m(16, 10), _m(17, 11)],
        "rank": [_m(18, 12, 22)],
        "row": [_m(19 + i) for i in range(15)],
    }
    return XORAddressMapping(g, masks, name="ivybridge-like", mapping_id=2)


def make_sandybridge_like(geometry: DRAMGeometry | None = None) -> XORAddressMapping:
    """Mapping ID 3: moderate hashing + coarse bank-group interleaving."""
    g = geometry or default_geometry()
    masks = {
        "column": [_m(6), _m(7), _m(8), _m(9), _m(10), _m(11), _m(12)],
        "channel": [_m(13, 7)],
        "bankgroup": [_m(14, 20), _m(15, 19)],
        "bank": [_m(16, 10), _m(17, 11)],
        "rank": [_m(18, 22)],
        "row": [_m(19 + i) for i in range(15)],
    }
    return XORAddressMapping(g, masks, name="sandybridge-like", mapping_id=3)


def make_toy_mapping() -> XORAddressMapping:
    """The toy 4-PIM (rank-level) mapping in the spirit of paper Fig. 2.

    Tiny geometry (512 addresses, element-granular blocks are 4 B here
    modelled as ``block_bits = 2``) used for unit tests and for the
    address-mapping explorer example, which renders Fig. 2b-style PIM-ID
    heat maps.
    """
    g = DRAMGeometry(
        channel_bits=1,
        rank_bits=1,
        bankgroup_bits=1,
        bank_bits=1,
        row_bits=3,
        column_bits=2,
        block_bits=2,
    )
    masks = {
        "column": [_m(2), _m(3)],
        "channel": [_m(4, 8)],
        "rank": [_m(5, 9)],
        "bankgroup": [_m(6, 2)],
        "bank": [_m(7, 3)],
        "row": [_m(8), _m(9), _m(10)],
    }
    return XORAddressMapping(g, masks, name="toy", mapping_id=None)


def pae_randomized(
    base: XORAddressMapping, seed: int, extra_terms: int = 2
) -> XORAddressMapping:
    """Derive a randomized variant of *base* in the spirit of PAE [26].

    XORs up to *extra_terms* randomly-chosen row bits into each channel /
    rank / bank-group function.  The home bits are untouched, so the result
    is always invertible; the randomization only changes *which* address bits
    perturb each PIM ID bit — exactly the degree of freedom PAE explores.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    g = base.geometry
    # Row bits are pass-through in all presets; find their address positions.
    row_positions = [m.bit_length() - 1 for m in base.field_masks["row"]]
    masks: Dict[str, list] = {f: list(ms) for f, ms in base.field_masks.items()}
    for fname in ("channel", "rank", "bankgroup"):
        new = []
        for m in masks[fname]:
            k = int(rng.integers(0, extra_terms + 1))
            for b in rng.choice(row_positions, size=k, replace=False):
                m ^= 1 << int(b)
            new.append(m)
        masks[fname] = new
    return XORAddressMapping(
        g, masks, name=f"{base.name}-pae{seed}", mapping_id=None
    )


#: Table II mapping registry: ID -> factory.
ADDRESS_MAPPINGS: Dict[int, Callable[[], XORAddressMapping]] = {
    0: make_exynos_like,
    1: make_haswell_like,
    2: make_ivybridge_like,
    3: make_sandybridge_like,
    4: make_skylake,
}


def mapping_by_id(mapping_id: int, geometry: DRAMGeometry | None = None) -> XORAddressMapping:
    """Instantiate a Table II mapping by its paper ID (0-4)."""
    try:
        factory = ADDRESS_MAPPINGS[mapping_id]
    except KeyError as exc:
        raise KeyError(
            f"unknown mapping id {mapping_id}; valid ids: {sorted(ADDRESS_MAPPINGS)}"
        ) from exc
    return factory(geometry) if geometry is not None else factory()

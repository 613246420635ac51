"""XOR-based DRAM address mapping: representation, presets, and analysis.

The CPU distributes consecutive cache blocks across channels/ranks/bank-groups
with XOR hash functions (DRAMA-style).  Every output coordinate bit is the
parity of the physical address ANDed with a mask, i.e. the mapping is linear
over GF(2).  StepStone's block-grouping and address generation both derive
directly from these masks.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "xor_mapping": ("DRAMGeometry", "PimLevel", "XORAddressMapping"),
        "presets": (
            "ADDRESS_MAPPINGS",
            "mapping_by_id",
            "make_exynos_like",
            "make_haswell_like",
            "make_ivybridge_like",
            "make_sandybridge_like",
            "make_skylake",
            "make_toy_mapping",
            "pae_randomized",
        ),
        "analysis": ("BlockGrouping", "FootprintAnalysis", "analyze_footprint"),
    },
)

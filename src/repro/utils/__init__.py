"""Shared low-level utilities: bit manipulation and unit helpers."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bits": (
            "bit",
            "bits_of_mask",
            "extract_bits",
            "gather_bits",
            "lowest_set_bit",
            "mask_of_bits",
            "parity",
            "parity_u64",
            "scatter_bits",
        ),
        "units": ("GiB", "KiB", "MiB", "cycles_to_us", "human_bytes", "human_cycles"),
    },
)

"""OS memory-management substrate: colored frame allocation + translation.

StepStone requires weight matrices to be physically contiguous and aligned
so the XOR mapping's striping is predictable, and PIM subsetting requires
*coloring* — keeping chosen PIM-ID bits constant across an allocation
(§III-E, building on Chopim's coloring interface [9]).  The PIM controller
then needs only infrequent address translation because regions are
contiguous (§IV).  This package implements that substrate: a physical frame
allocator with color constraints, a region registry, and the controller's
translation engine.
"""

from repro._exports import lazy_exports

__all__ = [
    "AllocationError",
    "ColorConstraint",
    "ColoredFrameAllocator",
    "Region",
    "TranslationEngine",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "allocator": ("AllocationError", "ColorConstraint", "ColoredFrameAllocator", "Region"),
        "translation": ("TranslationEngine",),
    },
)

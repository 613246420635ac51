"""Linear (XOR-based) physical-address -> DRAM-coordinate mappings.

A mapping takes a physical byte address and produces the tuple
``(channel, rank, bankgroup, bank, row, column)``.  Each output *bit* is the
parity of ``address & mask`` for a per-bit mask, which makes the whole mapping
a linear transform over GF(2) — exactly the class of mappings used by Intel
and Samsung memory controllers (reverse-engineered by DRAMA [36]) and assumed
by the paper (§II, §III).

The **PIM ID** of an address at a given PIM level is the concatenation of the
coordinate fields that select a PIM unit:

- ``PimLevel.CHANNEL``  : (channel)                    — StepStone-CH
- ``PimLevel.DEVICE``   : (rank, channel)              — StepStone-DV (rank/buffer-chip PIM)
- ``PimLevel.BANKGROUP``: (bankgroup, rank, channel)   — StepStone-BG

Bit 0 of the PIM ID is the lowest bank-group bit (paper Fig. 4a: BG0 is PIM ID
bit 0 and the channel bit is the highest PIM ID bit).

Every coordinate of an address also packs into one integer *code*
(:meth:`XORAddressMapping.code`), fields in :data:`CODE_ORDER` from the LSB.
The PIM-ID fields come first, so the PIM ID at any level is a shift-and-mask
of the code, and the map is linear, so the code of ``a ^ b`` is
``code(a) ^ code(b)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.utils.bits import bits_of_mask, gf2_rank, parity_u64

if TYPE_CHECKING:
    import numpy as np

__all__ = ["DRAMGeometry", "PimLevel", "XORAddressMapping", "FIELD_ORDER", "CODE_ORDER"]

#: Coordinate fields from PIM-selection LSB to address MSB side.
FIELD_ORDER: Tuple[str, ...] = ("channel", "rank", "bankgroup", "bank", "row", "column")
#: Fields of a packed code from its LSB: the PIM ID bits in their ID order.
CODE_ORDER: Tuple[str, ...] = ("bankgroup", "rank", "channel", "bank", "row", "column")


class PimLevel(str, enum.Enum):
    """DRAM hierarchy level at which PIM units are integrated (paper Fig. 3a)."""

    CHANNEL = "channel"
    DEVICE = "device"
    BANKGROUP = "bankgroup"

    @property
    def short(self) -> str:
        return {"channel": "CH", "device": "DV", "bankgroup": "BG"}[self.value]


@dataclass(frozen=True)
class DRAMGeometry:
    """Bit widths of each DRAM coordinate field.

    The default geometry matches Table II: DDR4-2400R, x8 devices, 2 channels
    x 2 ranks x 4 bank groups x 4 banks, 32768 rows, 8 KiB row per rank
    (128 cache blocks of 64 B).
    """

    channel_bits: int = 1
    rank_bits: int = 1
    bankgroup_bits: int = 2
    bank_bits: int = 2
    row_bits: int = 15
    column_bits: int = 7
    block_bits: int = 6  # 64 B cache blocks

    @property
    def field_widths(self) -> Dict[str, int]:
        return {
            "channel": self.channel_bits,
            "rank": self.rank_bits,
            "bankgroup": self.bankgroup_bits,
            "bank": self.bank_bits,
            "row": self.row_bits,
            "column": self.column_bits,
        }

    @property
    def address_bits(self) -> int:
        """Total physical-address bits covered by the mapping."""
        return self.block_bits + sum(self.field_widths.values())

    @property
    def capacity_bytes(self) -> int:
        return 1 << self.address_bits

    @property
    def block_bytes(self) -> int:
        return 1 << self.block_bits

    @property
    def channels(self) -> int:
        return 1 << self.channel_bits

    @property
    def ranks_per_channel(self) -> int:
        return 1 << self.rank_bits

    @property
    def bankgroups_per_rank(self) -> int:
        return 1 << self.bankgroup_bits

    @property
    def banks_per_bankgroup(self) -> int:
        return 1 << self.bank_bits

    @property
    def rows_per_bank(self) -> int:
        return 1 << self.row_bits

    @property
    def blocks_per_row(self) -> int:
        return 1 << self.column_bits

    @property
    def row_bytes(self) -> int:
        """Bytes per DRAM row across the rank (row-buffer reach of one bank)."""
        return self.blocks_per_row * self.block_bytes

    def num_pims(self, level: PimLevel) -> int:
        """PIM-unit count at *level* for this geometry (16 BG / 4 DV / 2 CH)."""
        if level is PimLevel.CHANNEL:
            return self.channels
        if level is PimLevel.DEVICE:
            return self.channels * self.ranks_per_channel
        return self.channels * self.ranks_per_channel * self.bankgroups_per_rank


class XORAddressMapping:
    """A concrete XOR-based address mapping.

    Parameters
    ----------
    geometry:
        The DRAM geometry (field bit widths).
    field_masks:
        For each field name, a list of integer masks — one per output bit,
        LSB first.  Output bit *i* of the field is ``parity(addr & mask[i])``.
    name:
        Human-readable identifier (e.g. ``"skylake"``).
    mapping_id:
        The paper's Table II mapping ID (0-4), or ``None`` for custom maps.
    """

    def __init__(
        self,
        geometry: DRAMGeometry,
        field_masks: Dict[str, Sequence[int]],
        name: str = "custom",
        mapping_id: int | None = None,
    ) -> None:
        self.geometry = geometry
        self.name = name
        self.mapping_id = mapping_id
        self.field_masks: Dict[str, Tuple[int, ...]] = {}
        widths = geometry.field_widths
        for fname in FIELD_ORDER:
            masks = tuple(int(m) for m in field_masks.get(fname, ()))
            if len(masks) != widths[fname]:
                raise ValueError(
                    f"field {fname!r}: expected {widths[fname]} masks, got {len(masks)}"
                )
            addr_mask = (1 << geometry.address_bits) - 1
            for m in masks:
                if m == 0:
                    raise ValueError(f"field {fname!r} has a zero mask")
                if m & ~addr_mask:
                    raise ValueError(
                        f"field {fname!r} mask {m:#x} exceeds {geometry.address_bits} address bits"
                    )
                if m & (geometry.block_bytes - 1):
                    raise ValueError(
                        f"field {fname!r} mask {m:#x} uses block-offset bits"
                    )
            self.field_masks[fname] = masks
        self._check_invertible()
        #: Value identity for process-wide memo keys: the geometry and every
        #: mask, in canonical text form.  The name and mapping ID are labels
        #: and do not change a single coordinate, so they are left out.
        self.hardware_key: str = repr(
            (geometry, tuple(self.field_masks[f] for f in FIELD_ORDER))
        )
        code_masks = [m for f in CODE_ORDER for m in self.field_masks[f]]
        if len(code_masks) > 63:
            raise ValueError("packed coordinate codes must fit in 63 bits")
        # The code of each single address bit: one column of the GF(2) map.
        self._bit_codes = [0] * geometry.address_bits
        for i, m in enumerate(code_masks):
            for b in bits_of_mask(m):
                self._bit_codes[b] |= 1 << i
        offsets = accumulate((widths[f] for f in CODE_ORDER), initial=0)
        self._code_offsets: Dict[str, int] = dict(zip(CODE_ORDER, offsets))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mid = "" if self.mapping_id is None else f", id={self.mapping_id}"
        return f"XORAddressMapping({self.name!r}{mid})"

    def _check_invertible(self) -> None:
        """Verify the GF(2) transform is a bijection over the address space.

        Gaussian elimination over the mask rows (plus identity rows for the
        block-offset bits): the mapping is invertible iff the matrix has full
        rank ``geometry.address_bits``.
        """
        rows = [1 << b for b in range(self.geometry.block_bits)]
        for fname in FIELD_ORDER:
            rows.extend(self.field_masks[fname])
        n = self.geometry.address_bits
        if len(rows) != n:
            raise ValueError(f"mapping defines {len(rows)} output bits, expected {n}")
        if gf2_rank(rows) < n:
            raise ValueError(
                f"address mapping {self.name!r} is not invertible "
                "(output bits are linearly dependent)"
            )

    # ------------------------------------------------------------------ #
    # Evaluation (scalar and vectorized)
    # ------------------------------------------------------------------ #

    def field_value(self, addr: int, fname: str) -> int:
        """Scalar field evaluation, e.g. ``field_value(a, 'bankgroup')``."""
        return self.code_field(self.code(addr), fname)

    def coords(self, addr: int) -> Dict[str, int]:
        """Full coordinate tuple of one address as a dict."""
        return {f: self.field_value(addr, f) for f in FIELD_ORDER}

    def field_values(self, addrs: np.ndarray, fname: str) -> np.ndarray:
        """Vectorized field evaluation over a ``uint64`` address array."""
        return self._parities(addrs, self.field_masks[fname])

    def _parities(self, addrs: np.ndarray, masks: Sequence[int]) -> np.ndarray:
        """Bit ``i`` of each result is ``parity(addr & masks[i])``."""
        from numpy import asarray, uint64, zeros

        addrs = asarray(addrs, dtype=uint64)
        out = zeros(addrs.shape, dtype=uint64)
        for i, m in enumerate(masks):
            out |= parity_u64(addrs & uint64(m)) << uint64(i)
        return out

    def coords_arrays(self, addrs: np.ndarray) -> Dict[str, np.ndarray]:
        """Vectorized full-coordinate evaluation."""
        return {f: self.field_values(addrs, f) for f in FIELD_ORDER}

    # ------------------------------------------------------------------ #
    # Packed codes
    # ------------------------------------------------------------------ #

    def code(self, addr: int) -> int:
        """Every coordinate of one address packed into one integer."""
        c = 0
        for b in bits_of_mask(addr & (self.geometry.capacity_bytes - 1)):
            c ^= self._bit_codes[b]
        return c

    def code_field(self, codes: np.ndarray, fname: str) -> np.ndarray:
        """Field ``fname`` of packed codes (ints or an integer array):
        ``field_values`` of their addresses."""
        width = self.geometry.field_widths[fname]
        return (codes >> self._code_offsets[fname]) & ((1 << width) - 1)

    def code_mask(self, *fnames: str) -> int:
        """The code bits of the fields ``fnames``: two codes agree on
        those fields iff their XOR has none of these bits."""
        widths = self.geometry.field_widths
        return sum(((1 << widths[f]) - 1) << self._code_offsets[f] for f in fnames)

    def code_pim_ids(
        self, codes: np.ndarray, level: PimLevel, pinned_id_bits: int = 0
    ) -> np.ndarray:
        """PIM IDs at ``level`` of packed codes, without the lowest
        ``pinned_id_bits`` ID bits: ``pim_ids`` of their addresses when
        nothing is pinned."""
        first = {PimLevel.BANKGROUP: "bankgroup", PimLevel.DEVICE: "rank"}.get(level, "channel")
        shift = self._code_offsets[first] + pinned_id_bits
        return (codes >> shift) & ((1 << (self._code_offsets["bank"] - shift)) - 1)

    # ------------------------------------------------------------------ #
    # PIM IDs
    # ------------------------------------------------------------------ #

    def pim_id_masks(self, level: PimLevel) -> Tuple[int, ...]:
        """Masks of the PIM ID bits at *level*, LSB first.

        Bit order follows the paper (Fig. 4a): bank-group bits first (BG0 is
        PIM ID bit 0), then rank, then channel as the most-significant bit.
        """
        masks: List[int] = []
        if level is PimLevel.BANKGROUP:
            masks.extend(self.field_masks["bankgroup"])
        if level in (PimLevel.BANKGROUP, PimLevel.DEVICE):
            masks.extend(self.field_masks["rank"])
        masks.extend(self.field_masks["channel"])
        return tuple(masks)

    def num_pims(self, level: PimLevel) -> int:
        return self.geometry.num_pims(level)

    def pim_id(self, addr: int, level: PimLevel) -> int:
        """Scalar PIM ID of one address."""
        return self.code_pim_ids(self.code(addr), level)

    def pim_ids(self, addrs: np.ndarray, level: PimLevel) -> np.ndarray:
        """Vectorized PIM IDs of a ``uint64`` address array."""
        return self._parities(addrs, self.pim_id_masks(level))

    def describe(self) -> str:
        """Multi-line description of every output-bit XOR function."""
        lines = [f"mapping {self.name!r} (id={self.mapping_id})"]
        for fname in FIELD_ORDER:
            for i, m in enumerate(self.field_masks[fname]):
                terms = " ^ ".join(f"a{b}" for b in bits_of_mask(m))
                lines.append(f"  {fname}[{i}] = {terms}")
        return "\n".join(lines)

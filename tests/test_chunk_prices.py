"""Golden pricing fixture: ``choose_execution`` and ``execute_gemm`` per width.

``tests/fixtures/chunk_prices.json`` holds the prices the pricing stack gave
before its per-width evaluation was rebuilt around one candidate table per
weight shape.  For a grid of weight shapes at every width 1..40 it pins
``repr`` of every float, so any change to the float operation order shows:

* ``choose``: ``choose_execution``'s cycles, level, pinned ID bits and the
  winner's result volumes on default hardware, a slower DRAM timing,
  relaxed units, small scratchpads (some widths infeasible everywhere:
  the ``ValueError`` text is stored) and a second mapping preset;
* ``execute``: full ``execute_gemm`` breakdowns off the default modes
  (``agen="naive"`` with and without full row gaps, ``flow="echo"``, a
  launch delay) at both levels and pinned-bit subsets.

Regenerate (only when a *deliberate* pricing change is being made):

    PYTHONPATH=src python tests/test_chunk_prices.py --capture
"""

from __future__ import annotations

import json
import pathlib
import sys
from dataclasses import replace

import pytest

from repro.core.config import StepStoneConfig
from repro.core.executor import execute_gemm
from repro.core.gemm import GemmShape
from repro.core.memo import PRICING_MEMO
from repro.core.scheduler import choose_execution
from repro.dram.timing import DDR4Timing
from repro.mapping.presets import make_skylake, mapping_by_id
from repro.mapping.xor_mapping import PimLevel

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "chunk_prices.json"
WIDTHS = range(1, 41)

BG, DV = PimLevel.BANKGROUP, PimLevel.DEVICE
CFG = StepStoneConfig.default()
_RELAXED = CFG.with_unit(CFG.unit(BG).relaxed()).with_unit(CFG.unit(DV).relaxed())
# BG fits one C row plus one B column up to N = 20, DV up to N = 30.
_SMALL_SP = CFG.with_unit(CFG.unit(BG).with_scratchpad(256)).with_unit(
    CFG.unit(DV).with_scratchpad(384)
)
#: name -> (config, mapping factory, weight shapes)
CHOOSE = {
    "default": (
        CFG,
        make_skylake,
        [(64, 256), (768, 768), (1000, 700), (1024, 4096), (1600, 6400), (4096, 1024), (30, 2648)],
    ),
    "slow-timing": (
        replace(CFG, timing=DDR4Timing(tCCDS=5, tCCDL=8)),
        make_skylake,
        [(256, 1024), (1024, 4096), (1000, 700)],
    ),
    "relaxed": (_RELAXED, make_skylake, [(256, 1024), (1024, 4096), (1000, 700)]),
    "small-scratchpad": (_SMALL_SP, make_skylake, [(64, 256), (1024, 1024)]),
    "ivybridge": (CFG, lambda: mapping_by_id(2), [(256, 1024), (1024, 4096), (1000, 700)]),
}
#: name -> execute_gemm keyword arguments off the default modes
MODES = {
    "naive": dict(agen="naive"),
    "naive-short-gaps": dict(agen="naive", naive_full_gaps=False),
    "echo": dict(flow="echo"),
    "naive-echo-delay": dict(agen="naive", flow="echo", launch_delay_cycles=100.0),
}
EXECUTE_SHAPES = [(256, 1024), (1000, 700)]
EXECUTE_WIDTHS = (1, 2, 3, 5, 8, 13, 16, 21, 32, 40)
FIELDS = ("gemm", "fill_b", "fill_c", "drain_c", "localization", "reduction")


def _result_row(res):
    """Every float of a result as ``repr``, with its plan's partitioning."""
    b, p = res.breakdown, res.plan
    return [
        *(repr(getattr(b, f)) for f in FIELDS),
        repr(b.total),
        repr(res.bubble_stall_cycles),
        res.kernel_launches,
        repr(res.pim_dram_blocks),
        repr(res.offchip_blocks),
        repr(res.simd_mac_ops),
        repr(res.scratchpad_accesses),
        [p.rpart_rows, p.cpart_blocks, p.n_rparts, repr(p.scratchpad_c_fraction)],
        p.direct_scratchpad,
    ]


def _choose_rows(config, mapping, m, k):
    rows = []
    for n in WIDTHS:
        try:
            c = choose_execution(config, mapping, GemmShape(m, k, n))
        except ValueError as exc:
            rows.append([n, str(exc)])
            continue
        res = c.result
        rows.append(
            [
                n,
                repr(c.cycles),
                c.level.short,
                c.pinned_id_bits,
                res.kernel_launches,
                repr(res.bubble_stall_cycles),
                repr(res.pim_dram_blocks),
                repr(res.offchip_blocks),
            ]
        )
    return rows


def _execute_rows(mode, m, k):
    mapping, rows = make_skylake(), []
    for level in (BG, DV):
        for pinned in (0, 1):
            for n in EXECUTE_WIDTHS:
                res = execute_gemm(
                    CFG, mapping, GemmShape(m, k, n), level, pinned_id_bits=pinned, **MODES[mode]
                )
                rows.append([level.short, pinned, n, _result_row(res)])
    return rows


def _payload():
    PRICING_MEMO.clear()
    return {
        "choose": {
            name: {f"{m}x{k}": _choose_rows(config, mk(), m, k) for m, k in shapes}
            for name, (config, mk, shapes) in CHOOSE.items()
        },
        "execute": {
            mode: {f"{m}x{k}": _execute_rows(mode, m, k) for m, k in EXECUTE_SHAPES}
            for mode in MODES
        },
    }


@pytest.fixture(scope="module")
def golden():
    if not FIXTURE.exists():
        pytest.fail(f"missing {FIXTURE}; see the module docstring to capture it")
    return json.loads(FIXTURE.read_text())


def _shape(key):
    m, k = key.split("x")
    return int(m), int(k)


@pytest.mark.parametrize("variant", sorted(CHOOSE))
def test_choose_execution_matches_golden(golden, variant):
    config, mk, shapes = CHOOSE[variant]
    assert sorted(golden["choose"][variant]) == sorted(f"{m}x{k}" for m, k in shapes)
    PRICING_MEMO.clear()
    for key, want in golden["choose"][variant].items():
        assert _choose_rows(config, mk(), *_shape(key)) == want, key


@pytest.mark.parametrize("mode", sorted(MODES))
def test_execute_gemm_matches_golden(golden, mode):
    PRICING_MEMO.clear()
    for key, want in golden["execute"][mode].items():
        assert _execute_rows(mode, *_shape(key)) == want, key


def test_some_widths_are_infeasible_everywhere(golden):
    rows = golden["choose"]["small-scratchpad"]["1024x1024"]
    assert [len(r) for r in rows].count(2) == 10  # widths 31..40
    assert rows[-1][1].startswith("no feasible PIM configuration")
    assert {r[2] for r in rows[20:30]} == {"DV"}


def _capture() -> None:
    FIXTURE.write_text(json.dumps(_payload(), separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")


if __name__ == "__main__":
    if "--capture" in sys.argv:
        _capture()
    else:
        print(__doc__)

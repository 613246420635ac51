"""Property test: a batch server's PIM latency is the searched chunk prices.

``BatchServer.pim_latency`` splits a batch into ``max_pim_batch``-wide
chunks and prices each chunk width through the process-wide ``chunk``
memo, which takes the configuration search's cycles without building a
plan or a result.  Hypothesis draws weight shapes (powers of two and
not), batch widths up to eight chunks (so many lie above
``max_pim_batch``), ``max_pim_batch`` from 1 to 64, all five mapping
presets and five hardware variants (one whose scratchpads run out at
small widths), with the memo cleared or left warm.  Then:

* ``pim_latency`` equals the sum of ``choose_execution(...).cycles /
  1.2e9`` over the chunks, bit for bit, or both raise the same error;
* every chunk's ``choose_execution`` picks what the exhaustive scan of
  ``tests/test_search_oracle.py`` picks, with the same breakdown.

CI replays it under ``--hypothesis-seed`` derived from the run id (see
the ``fast-differential`` job in ``.github/workflows/ci.yml``).
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StepStoneConfig
from repro.core.gemm import GemmShape
from repro.core.memo import PRICING_MEMO
from repro.core.scheduler import choose_execution
from repro.core.system import StepStoneSystem
from repro.dram.timing import DDR4Timing
from repro.mapping.presets import make_skylake, mapping_by_id
from repro.mapping.xor_mapping import PimLevel
from repro.serving.scheduler import BatchServer
from test_search_oracle import _outcome, exhaustive_choice

BG, DV = PimLevel.BANKGROUP, PimLevel.DEVICE
CFG = StepStoneConfig.default()
CONFIGS = {
    "default": CFG,
    "fast-cas": replace(CFG, timing=DDR4Timing(tBL=1, tCCDS=1, tCCDL=2)),
    "slow-timing": replace(CFG, timing=DDR4Timing(tCCDS=5, tCCDL=8)),
    "relaxed": CFG.with_unit(CFG.unit(BG).relaxed()).with_unit(CFG.unit(DV).relaxed()),
    # BG fits a C row plus a B column up to N = 20, DV up to N = 30.
    "small-scratchpad": CFG.with_unit(CFG.unit(BG).with_scratchpad(256)).with_unit(
        CFG.unit(DV).with_scratchpad(384)
    ),
}
MAPPINGS = [make_skylake()] + [mapping_by_id(i) for i in range(4)]


def _dim(max_log2):
    return st.one_of(
        st.integers(0, max_log2).map(lambda b: 1 << b), st.integers(1, 1 << max_log2)
    )


def _chunk_seconds(config, mapping, m, k, n):
    return choose_execution(config, mapping, GemmShape(m, k, n)).cycles / 1.2e9


def _latency(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    config=st.sampled_from(sorted(CONFIGS)),
    mapping=st.sampled_from(MAPPINGS),
    m=_dim(12),
    k=_dim(12),
    max_pim_batch=st.integers(1, 64),
    chunks=st.floats(0.0, 8.0),
    cold=st.booleans(),
)
def test_pim_latency_is_the_searched_chunk_prices(
    config, mapping, m, k, max_pim_batch, chunks, cold
):
    config = CONFIGS[config]
    n = max(1, int(chunks * max_pim_batch))
    if cold:
        PRICING_MEMO.clear()
    system = StepStoneSystem(config=config, mapping=mapping)
    server = BatchServer(system, max_pim_batch=max_pim_batch)
    got = _latency(lambda: server.pim_latency(m, k, n))

    full, rem = divmod(n, max_pim_batch)
    widths = ([max_pim_batch] if full else []) + ([rem] if rem else [])

    def expected():
        t = full * _chunk_seconds(config, mapping, m, k, max_pim_batch) if full else 0.0
        if rem:
            t += _chunk_seconds(config, mapping, m, k, rem)
        return t

    assert got == _latency(expected)
    levels = (BG, DV)
    for width in widths:
        args = (config, mapping, GemmShape(m, k, width), levels, 1, "stepstone", "stepstone")
        assert _outcome(choose_execution, *args) == _outcome(exhaustive_choice, *args)

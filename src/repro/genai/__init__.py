"""Generative LLM serving: prefill/decode phases, KV pressure, batching.

The paper's thesis — batch-1, bandwidth-bound GEMV inference is where
main-memory acceleration wins — meets its modern extreme in autoregressive
decode: every generated token re-streams the full decoder weights at an
activation dimension equal to the batch width.  This package lifts the
repo's static GPT2 ``ModelSpec`` into a first-class serving workload on
the shared sim kernel:

* :class:`GenRequest` streams (:func:`gen_requests`,
  :func:`trace_gen_requests`) carry prompts and seeded output lengths;
* a :class:`GenerativeEngine` serves them in PREFILL and DECODE_STEP
  events priced by the existing backend latency models, under a
  :class:`StaticBatcher` or :class:`ContinuousBatcher`;
* a :class:`KVCacheBudget` charges cached tokens against node memory net
  of weights — capacity bounds *concurrency*, with queueing and
  preempt-to-requeue at the wall;
* a :class:`GenReport` streams TTFT, inter-token latency, and tokens/s
  through the PR 6 statistics core.

See the ``serve-genai`` experiment for the two headline results
(continuous > static under mixed output lengths; StepStone under-pricing
the GPU on decode-heavy traffic).
"""

from repro._exports import lazy_exports

__all__ = [
    "GPT2_XL",
    "GenModelConfig",
    "GenRequest",
    "gen_requests",
    "trace_gen_requests",
    "KVCacheBudget",
    "StaticBatcher",
    "ContinuousBatcher",
    "GenerativeEngine",
    "SeqState",
    "GenCompletion",
    "GenRejection",
    "GenReport",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": ("GenerativeEngine", "SeqState"),
        "kvcache": ("KVCacheBudget",),
        "model": ("GPT2_XL", "GenModelConfig"),
        "report": ("GenCompletion", "GenRejection", "GenReport"),
        "schedulers": ("ContinuousBatcher", "StaticBatcher"),
        "workload": ("GenRequest", "gen_requests", "trace_gen_requests"),
    },
)

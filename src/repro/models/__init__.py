"""End-to-end DL inference models (Table II) and the inference engine."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "layers": ("CpuOp", "GemmInvocation", "ModelSpec", "pow2_partition"),
        "dlrm": ("make_dlrm_rm3",),
        "bert": ("make_bert",),
        "gpt2": ("make_gpt2",),
        "xlm": ("make_xlm",),
        "inference": ("BACKENDS", "InferenceEngine", "InferenceResult", "all_models"),
    },
)

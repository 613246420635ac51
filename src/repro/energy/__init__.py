"""Energy and power model (Table II components, Fig. 14)."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "model": ("EnergyBreakdown", "EnergyModel", "ENERGY_TABLE2"),
    },
)

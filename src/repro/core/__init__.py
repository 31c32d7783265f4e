"""The platform layer: the assembled stack."""

from repro.core.platform import ZenPlatform, dataplane_observables

__all__ = [
    "ZenPlatform",
    "dataplane_observables",
]

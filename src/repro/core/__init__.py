"""The platform layer: the assembled stack."""

from repro.core.platform import ZenPlatform, dataplane_digest

__all__ = [
    "ZenPlatform",
    "dataplane_digest",
]

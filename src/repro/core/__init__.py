"""The platform layer: assembled stack and the northbound policy algebra."""

from repro.core.platform import ZenPlatform, dataplane_digest
from repro.core.policy import (
    Policy,
    Rule,
    compile_policy,
    drop,
    filter_,
    flood,
    fwd,
    ifte,
    install_policy,
    mod,
    punt,
)

__all__ = [
    "Policy",
    "Rule",
    "ZenPlatform",
    "compile_policy",
    "dataplane_digest",
    "drop",
    "filter_",
    "flood",
    "fwd",
    "ifte",
    "install_policy",
    "mod",
    "punt",
]

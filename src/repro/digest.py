"""The one canonical content hash every run digest goes through."""

from __future__ import annotations

import hashlib
import json

__all__ = ["canonical_digest"]


def canonical_digest(doc) -> str:
    """SHA-256 over ``doc`` as key-sorted JSON.

    This byte form is what the committed goldens (fuzz corpus, E17
    baseline, workload and trace artifacts) were blessed with, so it
    must not change.
    """
    blob = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()

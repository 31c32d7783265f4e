"""The one canonical content hash every run digest goes through, and
the one reader every document the CLI takes goes through."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, TextIO

from repro.errors import ZenError

__all__ = ["canonical_digest", "load_document"]


def canonical_digest(doc) -> str:
    """SHA-256 over ``doc`` as key-sorted JSON.

    This byte form is what the committed goldens (fuzz corpus, E17
    baseline, workload and trace artifacts) were blessed with, so it
    must not change.
    """
    blob = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def load_document(path: str, what: str,
                  build: Callable[[Any], Any] = lambda doc: doc,
                  parse: Callable[[TextIO], Any] = json.load) -> Any:
    """Read the document at ``path`` and ``build`` an object from it.

    A missing, unreadable or unparseable file, or one ``build`` rejects
    (wrong format tag, malformed spec), is a :class:`ZenError` naming
    ``what`` and the path, so the CLI ends in one ``repro: error:``
    line rather than a traceback.
    """
    try:
        with open(path) as fh:
            return build(parse(fh))
    except (OSError, ValueError, ZenError) as exc:
        # JSONDecodeError is a ValueError
        raise ZenError(f"cannot load {what} {path}: {exc}") from exc

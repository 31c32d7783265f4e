"""The one canonical content hash every run digest goes through, its
per-section form that names what moved, and the one writer and one
reader every document the CLI writes or takes goes through."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, TextIO

from repro.errors import ZenError

__all__ = ["canonical_digest", "document_text", "load_document",
           "save_document", "section_digests"]


def canonical_digest(doc) -> str:
    """SHA-256 over ``doc`` as key-sorted JSON.

    This byte form is what the committed goldens (fuzz corpus, E17
    baseline, workload and trace artifacts) were blessed with, so it
    must not change.
    """
    blob = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def section_digests(artifact: dict) -> Dict[str, str]:
    """One :func:`canonical_digest` per section of a run artifact
    document (``RunArtifact.to_dict()``).

    Every top-level key is a section, except ``series``, which splits
    into one ``series/<family>`` section per metric family (a series id
    up to its first ``{``).  Two runs whose digests differ differ in at
    least one section, so comparing the maps names what moved.
    """
    sections = {key: canonical_digest(value)
                for key, value in artifact.items() if key != "series"}
    families: Dict[str, dict] = {}
    for sid, series in artifact.get("series", {}).items():
        families.setdefault(sid.split("{", 1)[0], {})[sid] = series
    sections.update((f"series/{family}", canonical_digest(doc))
                    for family, doc in families.items())
    return sections


def document_text(doc) -> str:
    """``doc`` as key-sorted, one-space-indented JSON with a trailing
    newline: the byte form of every document a run writes or prints, so
    two identical documents are two identical files."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def save_document(path: str, doc) -> None:
    """Write ``doc`` to ``path`` in its :func:`document_text` form."""
    with open(path, "w") as fh:
        fh.write(document_text(doc))


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

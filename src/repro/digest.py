"""The one canonical content hash every run digest goes through, its
per-section form that names what moved, and the one writer and one
reader every document the CLI writes or takes goes through."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, TextIO

from repro.errors import ZenError

__all__ = ["Rendered", "Spliced", "canonical_digest", "canonical_text",
           "document_text", "load_document", "save_document",
           "section_digests", "sections"]

#: ``doc`` as the key-sorted JSON text :func:`canonical_digest` hashes:
#: ``json.dumps(doc, sort_keys=True)``'s encoder, built once.
canonical_text = json.JSONEncoder(sort_keys=True).encode


class Spliced(dict):
    """A document dict :func:`canonical_digest` walks key by key rather
    than encoding it whole, so its values may be :class:`Rendered` text
    or further :class:`Spliced` dicts.  Its keys are strings."""


class Rendered(str):
    """A value's :func:`canonical_text`, rendered by its owner:
    :func:`canonical_digest` hashes it as it stands inside a
    :class:`Spliced` dict."""


def _feed(doc, update: Callable[[bytes], None]) -> None:
    """Feed ``canonical_text(doc)`` to ``update`` in pieces: a
    :class:`Spliced` dict key by key, each run of its plain values in
    one encoder call."""
    if not isinstance(doc, Spliced):
        update(canonical_text(doc).encode())
        return
    sep, plain = "{", {}
    for key in sorted(doc):
        value = doc[key]
        if not isinstance(value, (Rendered, Spliced)):
            plain[key] = value
            continue
        if plain:
            update((sep + canonical_text(plain)[1:-1]).encode())
            sep, plain = ", ", {}
        head = f"{sep}{canonical_text(key)}: "
        sep = ", "
        if isinstance(value, Rendered):
            update((head + value).encode())
        else:
            update(head.encode())
            _feed(value, update)
    if plain:
        update((sep + canonical_text(plain)[1:-1]).encode())
        sep = ", "
    update(b"{}" if sep == "{" else b"}")


def canonical_digest(doc) -> str:
    """SHA-256 over ``doc`` as key-sorted JSON (:func:`canonical_text`).

    This byte form is what the committed goldens (fuzz corpus, E17
    baseline, workload and trace artifacts) were blessed with, so it
    must not change.  A :class:`Spliced` document hashes to the digest
    of the plain document it stands for, piece by piece, without that
    document or its text ever being built whole.
    """
    digest = hashlib.sha256()
    _feed(doc, digest.update)
    return digest.hexdigest()


def sections(artifact: dict) -> Dict[str, Any]:
    """A run artifact document (``RunArtifact.to_dict()``) by section.

    Every top-level key is a section, except ``series``, which splits
    into one ``series/<family>`` section per metric family (a series id
    up to its first ``{``).
    """
    parts = {key: doc for key, doc in artifact.items() if key != "series"}
    for sid, series in artifact.get("series", {}).items():
        parts.setdefault(f"series/{sid.split('{', 1)[0]}", {})[sid] = series
    return parts


def section_digests(artifact: dict) -> Dict[str, str]:
    """One :func:`canonical_digest` per :func:`sections` entry.  Two runs
    whose digests differ differ in at least one section, so comparing
    the maps names what moved."""
    return {key: canonical_digest(value)
            for key, value in sections(artifact).items()}


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

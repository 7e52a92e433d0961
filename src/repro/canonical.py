"""The one canonical JSON encoding: sorted keys, compact separators.

Byte identity across the serial, cached, served, streamed, fabric and
store paths rests on every path encoding alike, so this leaf module
(importing only :mod:`json`) is the one place the rule is written.
"""

import json


def canonical_json(obj: object) -> str:
    """``obj`` as canonical JSON text (ASCII: non-ASCII is escaped)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_bytes(obj: object) -> bytes:
    """The UTF-8 bytes of :func:`canonical_json`."""
    return canonical_json(obj).encode("utf-8")

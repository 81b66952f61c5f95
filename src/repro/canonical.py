"""The canonical-JSON signature every config, plan, ledger and matrix signs with.

Sorted keys and compact separators make the rendering a pure function of
the payload's content, so two equal payloads hash equal across runs and
processes; ``default=str`` renders the odd non-JSON leaf (a ``Path``) as
text instead of failing.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canonical_sha256(payload: Any) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON rendering."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

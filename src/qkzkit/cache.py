"""Content-addressed cache for normalization data.

The expensive part of the pipeline is the normalizing scalar f0, which
depends only on (family, N, D); an entry's payload is the family descriptor
and f0.  Entries live under QKZ_CACHE_DIR (default ~/.cache/qkzkit) and
carry a digest of their payload; a digest mismatch, an entry of the wrong
shape or a grade that does not parse triggers a warning and a recompute.  An entry that also holds other
keys (rho, the eigenvalue, the coefficients) is read for f0 alone.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import suppress
from pathlib import Path

# CPython's built-in SHA-256, as random.py takes its SHA-512: hashlib would
# load OpenSSL's libcrypto for one digest of a few hundred bytes
try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .families import RMatrixFamily
from .qdet import NormalizedFamily, normalize
from .serialize import list_to_scalar, scalar_to_list

ENV_VAR = "QKZ_CACHE_DIR"


def cache_dir() -> Path:
    root = os.environ.get(ENV_VAR)
    if root:
        return Path(root)
    return Path.home() / ".cache" / "qkzkit"


def _key(F: RMatrixFamily) -> str:
    text = json.dumps(F.descriptor(), sort_keys=True)
    return sha256(text.encode()).hexdigest()[:24]


def _payload_digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True)
    return sha256(text.encode()).hexdigest()


def _encode(nf: NormalizedFamily) -> dict:
    return {"descriptor": nf.descriptor(), "f0": scalar_to_list(nf.f0)}


def _decode(payload: dict, F: RMatrixFamily) -> NormalizedFamily:
    f0 = payload["f0"]
    if not (
        isinstance(f0, list)
        and len(f0) == F.D + 1
        and all(isinstance(g, str) for g in f0)
    ):
        raise ValueError(f"f0 is not a list of {F.D + 1} grade strings")
    return NormalizedFamily(F, list_to_scalar(f0, F.mode))


def load_normalized(F: RMatrixFamily) -> NormalizedFamily:
    """Normalized family via the cache; recomputes (and warns) on a missing,
    unreadable, malformed or tampered entry, and only warns, leaving no
    temporary file, when the entry cannot be written."""
    path = cache_dir() / f"{_key(F)}.json"
    if path.exists():
        try:
            with open(path) as f:
                wrapper = json.load(f)
            payload = wrapper.get("payload") if isinstance(wrapper, dict) else None
            if not isinstance(payload, dict):
                raise ValueError("not an object with an object payload")
            if wrapper.get("digest") != _payload_digest(payload):
                raise ValueError("digest mismatch")
            if payload.get("descriptor") != F.descriptor():
                raise ValueError("descriptor mismatch")
            return _decode(payload, F)
        except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
            warnings.warn(f"cache entry {path} unusable ({e}); recomputing")
    nf = normalize(F)
    payload = _encode(nf)
    # a per-process temporary name, so concurrent runs never share one
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w") as f:
            json.dump({"payload": payload, "digest": _payload_digest(payload)}, f)
        os.replace(tmp, path)
    except OSError as e:
        warnings.warn(f"cache entry {path} not written ({e})")
        with suppress(OSError):
            tmp.unlink(missing_ok=True)
    return nf

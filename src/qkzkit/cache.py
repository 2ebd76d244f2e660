"""Content-addressed cache for normalization data.

The expensive part of the pipeline is the determinant eigenvector and the
normalizing scalar; both depend only on (family, N, D).  Entries live under
QKZ_CACHE_DIR (default ~/.cache/qkzkit), carry a digest of their payload,
and a digest mismatch triggers a warning and a recompute.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path

from .families import RMatrixFamily
from .qdet import NormalizedFamily, QDetData, ladder_shifts, normalize
from .serialize import list_to_scalar, scalar_to_list

ENV_VAR = "QKZ_CACHE_DIR"


def cache_dir() -> Path:
    root = os.environ.get(ENV_VAR)
    if root:
        return Path(root)
    return Path.home() / ".cache" / "qkzkit"


def _key(F: RMatrixFamily) -> str:
    text = json.dumps(F.descriptor(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _payload_digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _encode(nf: NormalizedFamily) -> dict:
    qd = nf.qdet
    return {
        "descriptor": nf.family.descriptor(),
        "f0": scalar_to_list(nf.f0),
        "rho": scalar_to_list(nf.rho),
        "eigenvalue": scalar_to_list(qd.eigenvalue),
        "coeffs": {
            ",".join(str(i) for i in idx): scalar_to_list(c)
            for idx, c in sorted(qd.coeffs.items())
        },
    }


def _decode(payload: dict, F: RMatrixFamily) -> NormalizedFamily:
    mode = F.mode
    coeffs = {
        tuple(int(i) for i in key.split(",")): list_to_scalar(items, mode)
        for key, items in payload["coeffs"].items()
    }
    qd = QDetData(
        tuple(ladder_shifts(F.N, F.D)),
        coeffs,
        list_to_scalar(payload["eigenvalue"], mode),
    )
    rho = list_to_scalar(payload["rho"], mode)
    f0 = list_to_scalar(payload["f0"], mode)
    return NormalizedFamily(F, qd, rho, f0)


def load_normalized(F: RMatrixFamily) -> NormalizedFamily:
    """Normalized family via the cache; recomputes (and warns) on a missing,
    unreadable, or tampered entry, and only warns when the entry cannot be
    written."""
    path = cache_dir() / f"{_key(F)}.json"
    if path.exists():
        try:
            with open(path) as f:
                wrapper = json.load(f)
            payload = wrapper["payload"]
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
    return nf

"""Flat binary checkpoint files: JSON manifest line + raw little-endian float64.

The manifest records the configuration (echoed verbatim for reproducibility),
its hash, and the ordered (name, shape) list of parameters; the payload is the
concatenation of each parameter's values in that order.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .autodiff import ContractError

FORMAT_NAME = "hgmts-checkpoint"
FORMAT_VERSION = 1
DTYPE = "<f8"


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_checkpoint(path, named_values: dict[str, np.ndarray], config: dict) -> None:
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "dtype": DTYPE,
        "config_hash": config_hash(config),
        "config": config,
        "params": [[name, list(np.asarray(v).shape)] for name, v in named_values.items()],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(manifest).encode())
        fh.write(b"\n")
        for v in named_values.values():
            fh.write(np.asarray(v, dtype=DTYPE).tobytes(order="C"))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict, str]:
    """Returns (name -> values, config, config_hash); verifies manifest, hash, sizes."""
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        manifest = json.loads(header.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):  # a CSV, a binary file
        manifest = None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise ContractError(f"not a {FORMAT_NAME} file: {path}")
    for key in ("config_hash", "config", "params"):
        if key not in manifest:
            raise ContractError(f"checkpoint {path} has no {key!r} in its manifest")
    for key, kind, what in (("config", dict, "a JSON object"), ("params", list, "a list")):
        if not isinstance(manifest[key], kind):
            raise ContractError(f"checkpoint {path} has {key} {manifest[key]!r}; expected {what}")
    for key, expected in (("version", FORMAT_VERSION), ("dtype", DTYPE)):
        if manifest.get(key) != expected:
            raise ContractError(f"checkpoint {path} has {key} {manifest.get(key)!r}, "
                                f"expected {expected!r}")
    stored_hash = manifest["config_hash"]
    if config_hash(manifest["config"]) != stored_hash:
        raise ContractError(f"checkpoint config hash mismatch in {path}")
    values: dict[str, np.ndarray] = {}
    offset = 0
    for entry in manifest["params"]:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and isinstance(entry[1], list) and all(type(d) is int and d >= 0 for d in entry[1])):
            raise ContractError(f"checkpoint {path} has params entry {entry!r}; expected a name "
                                "and a list of non-negative ints")
        name, shape = entry
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise ContractError(f"checkpoint truncated at parameter {name}")
        values[name] = np.frombuffer(chunk, dtype=DTYPE).reshape(shape).copy()
        offset += nbytes
    if offset != len(payload):
        raise ContractError(f"checkpoint has {len(payload) - offset} trailing bytes")
    return values, manifest["config"], stored_hash

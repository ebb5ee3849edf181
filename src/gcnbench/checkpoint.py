"""Versioned JSON model checkpoints, lossless at full double precision.

Layout (version 1): a single JSON object with sorted keys and 2-space
indentation holding

    format       "model-checkpoint"
    version      1
    kind         "gcn" | "logreg"
    dims         {"in": ..., "hidden": ..., "classes": ...}   (no "hidden" for logreg)
    hyperparams  {"lr", "epochs", "seed", "hidden", "weight_decay"} or null
    parameters   kind "gcn":    "theta1", "theta2" as nested float lists
                 kind "logreg": "weights", "bias"

Floats are serialized with Python's shortest round-trip repr, so
write -> read -> write is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from .baseline import LogRegModel
from .checks import check_type
from .gcn import GcnModel, Hyperparams

FORMAT = "model-checkpoint"
VERSION = 1


def _dims(model) -> dict:
    if isinstance(model, GcnModel):
        return dict(zip(("in", "hidden", "classes"), model.dims))
    return {"in": model.W.shape[0], "classes": model.W.shape[1]}


def save_checkpoint(model, path, hyperparams: Hyperparams | None = None) -> None:
    """Serialize a trained GCN or logistic-regression model."""
    if isinstance(model, GcnModel):
        kind, params = "gcn", {"theta1": model.theta1.tolist(), "theta2": model.theta2.tolist()}
    elif isinstance(model, LogRegModel):
        kind, params = "logreg", {"weights": model.W.tolist(), "bias": model.b.tolist()}
    else:
        raise ValueError(f"cannot checkpoint {type(model).__name__}")
    payload = {"format": FORMAT, "version": VERSION, "kind": kind, "dims": _dims(model),
               "hyperparams": None if hyperparams is None else asdict(hyperparams), **params}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (model, metadata dict with kind/dims/hyperparams)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise ValueError(f"not a model checkpoint: {path}")
    version = payload.get("version")
    check_type("checkpoint version", version, int)
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    kind = payload.get("kind")
    meta = {"kind": kind, "dims": payload.get("dims"), "hyperparams": payload.get("hyperparams")}
    try:
        if kind == "gcn":
            model = GcnModel(theta1=payload["theta1"], theta2=payload["theta2"])
        elif kind == "logreg":
            model = LogRegModel(W=payload["weights"], b=payload["bias"])
        else:
            raise ValueError(f"unknown checkpoint kind {kind!r}")
    except KeyError as exc:
        raise ValueError(f"{kind} checkpoint lacks parameter {exc}") from None
    if _dims(model) != meta["dims"]:
        raise ValueError(f"checkpoint dims {meta['dims']} contradict its parameters {_dims(model)}")
    return model, meta

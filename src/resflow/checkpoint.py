"""Plain-text checkpoint format.

One ``key = value`` line per field, floats serialized with ``repr`` so
every value round-trips exactly: save -> load -> save is byte-identical.
The file carries the full model (including cached power-iteration
vectors), arbitrary caller arrays (e.g. the Polyak shadow), and string
metadata (config echo, seed, step).  A save writes a temporary file
beside the target and renames it over the target, so a process killed
mid-write leaves the previous checkpoint whole.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

from resflow.blocks import BlockParams, LayerParams
from resflow.errors import ConfigError, ShapeError
from resflow.flow import ActNorm, FlowModel, ResidualBlock

FORMAT_TAG = "resflow-checkpoint-v1"


def _fmt_floats(arr: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(arr, dtype=np.float64).ravel())


def _fmt_matrix(arr: np.ndarray) -> str:
    r, c = arr.shape
    return f"{r}x{c}|" + _fmt_floats(arr)


def _parse_floats(text: str) -> np.ndarray:
    if text == "":
        return np.zeros(0)
    return np.array([float(t) for t in text.split(",")], dtype=np.float64)


def _parse_matrix(text: str) -> np.ndarray:
    shape, values = text.split("|", 1)
    r, c = (int(t) for t in shape.split("x"))
    return _parse_floats(values).reshape(r, c)


def save_checkpoint(
    path: str | Path,
    model: FlowModel,
    meta: dict[str, str] | None = None,
    arrays: dict[str, np.ndarray] | None = None,
) -> None:
    out = io.StringIO()
    out.write(FORMAT_TAG + "\n")
    out.write(f"model.dim = {model.dim}\n")
    out.write(f"model.n_layers = {len(model.layers)}\n")
    for i, lay in enumerate(model.layers):
        p = f"model.layer.{i}"
        if isinstance(lay, ActNorm):
            out.write(f"{p}.kind = actnorm\n")
            out.write(f"{p}.initialized = {int(lay.initialized)}\n")
            out.write(f"{p}.log_scale = {_fmt_floats(lay.log_scale)}\n")
            out.write(f"{p}.shift = {_fmt_floats(lay.shift)}\n")
        else:
            out.write(f"{p}.kind = block\n")
            out.write(f"{p}.n_sublayers = {len(lay.params.layers)}\n")
            norm = repr(float(lay.params.norm))
            for j, sub in enumerate(lay.params.layers):
                sp = f"{p}.sub.{j}"
                out.write(f"{sp}.norm_in = {norm}\n")
                out.write(f"{sp}.norm_out = {norm}\n")
                out.write(f"{sp}.weight = {_fmt_matrix(sub.weight)}\n")
                out.write(f"{sp}.bias = {_fmt_floats(sub.bias)}\n")
                if sub.raw_beta is not None:
                    out.write(f"{sp}.raw_beta = {repr(float(sub.raw_beta))}\n")
                if sub.pi_u is not None:
                    out.write(f"{sp}.pi_u = {_fmt_floats(sub.pi_u)}\n")
                if sub.pi_estimate is not None:
                    out.write(f"{sp}.pi_estimate = {repr(float(sub.pi_estimate))}\n")
    for key in sorted(meta or {}):
        out.write(f"meta.{key} = {(meta or {})[key]}\n")
    for key in sorted(arrays or {}):
        out.write(f"array.{key} = {_fmt_floats((arrays or {})[key])}\n")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(out.getvalue())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path):
    """Returns (model, meta dict, arrays dict).

    A file that is missing, or that does not parse into a valid model and
    arrays, is a ``ConfigError`` naming it.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"checkpoint file not found: {path}")
    lines = path.read_text().splitlines()
    if not lines or lines[0] != FORMAT_TAG:
        raise ConfigError(f"not a recognized checkpoint file: {path}")
    kv: dict[str, str] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, value = line.partition(" = ")
        kv[key] = value
    try:
        model = _model_from_kv(kv)
        arrays = {
            k[len("array.") :]: _parse_floats(v) for k, v in kv.items() if k.startswith("array.")
        }
    except (ConfigError, ShapeError, ValueError) as exc:
        raise ConfigError(f"checkpoint {path} is not valid: {exc}") from exc
    meta = {k[len("meta.") :]: v for k, v in kv.items() if k.startswith("meta.")}
    return model, meta, arrays


def _model_from_kv(kv: dict[str, str]) -> FlowModel:
    def need(key: str) -> str:
        if key not in kv:
            raise ConfigError(f"checkpoint missing key {key!r}")
        return kv[key]

    dim = int(need("model.dim"))
    n_layers = int(need("model.n_layers"))
    layers: list = []
    for i in range(n_layers):
        p = f"model.layer.{i}"
        kind = need(f"{p}.kind")
        if kind == "actnorm":
            layers.append(
                ActNorm(
                    log_scale=_parse_floats(need(f"{p}.log_scale")),
                    shift=_parse_floats(need(f"{p}.shift")),
                    initialized=bool(int(need(f"{p}.initialized"))),
                )
            )
        elif kind == "block":
            subs, orders = [], set()
            for j in range(int(need(f"{p}.n_sublayers"))):
                sp = f"{p}.sub.{j}"
                orders |= {float(need(f"{sp}.norm_in")), float(need(f"{sp}.norm_out"))}
                pi_u = kv.get(f"{sp}.pi_u")
                pi_est = kv.get(f"{sp}.pi_estimate")
                subs.append(
                    LayerParams(
                        weight=_parse_matrix(need(f"{sp}.weight")),
                        bias=_parse_floats(need(f"{sp}.bias")),
                        raw_beta=(
                            float(kv[f"{sp}.raw_beta"]) if f"{sp}.raw_beta" in kv else None
                        ),
                        pi_u=None if pi_u is None else _parse_floats(pi_u),
                        pi_estimate=None if pi_est is None else float(pi_est),
                    )
                )
            # the file keeps per-sublayer orders; a block measures all its layers in one
            if len(orders) > 1:
                raise ConfigError(f"checkpoint block {p}: sublayer norm orders differ: {sorted(orders)}")
            layers.append(ResidualBlock(params=BlockParams(subs, *orders)))
        else:
            raise ConfigError(f"unknown layer kind {kind!r} in checkpoint")
    model = FlowModel(dim=dim, layers=layers)
    model.validate()
    return model

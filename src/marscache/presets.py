"""Named schedule/budget presets shipped as JSON files. A preset is a partial
engine configuration; presets listed later in a run config override earlier
ones, and explicit engine keys override presets. Keys: engine_kind,
tau_text, tau_visual, anchor_budgets, sample_size."""

from __future__ import annotations

import json
from importlib import resources

from .engines import EngineParams
from .mars import RefreshSchedule

PRESET_KEYS = {
    "engine_kind",
    "tau_text",
    "tau_visual",
    "anchor_budgets",
    "sample_size",
}


def available_presets() -> list[str]:
    files = resources.files("marscache").joinpath("presets")
    return sorted(p.name[: -len(".json")] for p in files.iterdir()
                  if p.name.endswith(".json"))


def load_preset(name: str) -> dict:
    files = resources.files("marscache").joinpath("presets")
    path = files.joinpath(f"{name}.json")
    try:
        raw = path.read_text()
    except FileNotFoundError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}"
        ) from None
    data = json.loads(raw)
    unknown = set(data) - PRESET_KEYS
    if unknown:
        raise ValueError(f"preset {name!r} has unknown keys: {sorted(unknown)}")
    return data


def merge_presets(names, overrides: dict | None = None) -> dict:
    merged: dict = {}
    for name in names:
        merged.update(load_preset(name))
    merged.update(overrides or {})
    return merged


def engine_params_from_dict(data: dict) -> EngineParams:
    """Build EngineParams from a merged preset/override dict. Every key but
    engine_kind configures mars only; a key outside PRESET_KEYS, or one that
    does not apply to the kind, raises ValueError."""
    unknown = set(data) - PRESET_KEYS
    if unknown:
        raise ValueError(f"unknown engine config keys: {sorted(unknown)}")
    kind = data.get("engine_kind", "vanilla")
    applies = PRESET_KEYS if kind == "mars" else {"engine_kind"}
    stray = sorted(set(data) - applies)
    if stray:
        raise ValueError(f"keys {stray} do not apply to engine kind {kind!r}")
    if kind != "mars":
        return EngineParams(kind=kind)
    options = {}
    if "tau_text" in data or "tau_visual" in data:
        tau_text = data.get("tau_text")
        tau_visual = data.get("tau_visual")
        if tau_text is None:
            raise ValueError("mars schedule requires tau_text")
        if tau_visual is None:
            tau_visual = tau_text
        options["schedule"] = RefreshSchedule(
            tau_text=tuple(tau_text), tau_visual=tuple(tau_visual)
        )
    if "anchor_budgets" in data:
        options["anchor_budgets"] = tuple(data["anchor_budgets"])
    if "sample_size" in data:
        options["sample_size"] = data["sample_size"]
    return EngineParams(kind="mars", **options)

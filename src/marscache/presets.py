"""Named schedule/budget presets shipped as JSON files. A preset is a partial
engine configuration; presets listed later in a run config override earlier
ones, and explicit engine keys override presets. Keys: engine_kind,
tau_text, tau_visual, anchor_budgets, chunk_enabled, sample_size."""

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
    "chunk_enabled",
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
    if overrides:
        unknown = set(overrides) - PRESET_KEYS
        if unknown:
            raise ValueError(f"unknown engine config keys: {sorted(unknown)}")
        merged.update(overrides)
    return merged


def engine_params_from_dict(data: dict) -> EngineParams:
    """Build EngineParams from a merged preset/override dict."""
    kind = data.get("engine_kind", "vanilla")
    if kind != "mars":
        return EngineParams(kind=kind)
    schedule = None
    if "tau_text" in data or "tau_visual" in data:
        tau_text = data.get("tau_text")
        tau_visual = data.get("tau_visual", None)
        if tau_text is None:
            raise ValueError("mars schedule requires tau_text")
        if tau_visual is None:
            tau_visual = tau_text
        schedule = RefreshSchedule(
            tau_text=tuple(tau_text), tau_visual=tuple(tau_visual)
        )
    return EngineParams(
        kind="mars",
        schedule=schedule,
        anchor_budgets=tuple(data.get("anchor_budgets", ())),
        chunk_enabled=bool(data.get("chunk_enabled", True)),
        sample_size=int(data.get("sample_size", 32)),
    )

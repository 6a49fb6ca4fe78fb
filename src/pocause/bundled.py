"""Locate the example models and queries shipped inside the package.

The package carries a handful of small JSON files: structural models used
by the validation suite and the demos, and ready-made queries against
them. These helpers resolve a bare name like "additive_scalar" to the
installed file so callers do not need to know the install layout.
"""

from __future__ import annotations

from importlib import resources

from .errors import ConfigError


def _asset_dir(subdir: str):
    return resources.files("pocause").joinpath(f"assets/{subdir}")


def _names(subdir: str) -> tuple[str, ...]:
    entries = _asset_dir(subdir).iterdir()
    return tuple(sorted(p.name[:-5] for p in entries if p.name.endswith(".json")))


def _asset(subdir: str, name: str, label: str):
    candidate = _asset_dir(subdir).joinpath(f"{name}.json")
    if not candidate.is_file():
        raise ConfigError(
            f"no bundled {label} named {name!r}; available: {', '.join(_names(subdir))}"
        )
    return candidate


def packaged_spec_path(name: str):
    """Filesystem path of a bundled structural model, by bare name."""
    return _asset("specs", name, "model")


def packaged_query_path(name: str):
    """Filesystem path of a bundled query, by bare name."""
    return _asset("queries", name, "query")

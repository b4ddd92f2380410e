"""Run-configuration schema, loading and validation.

A run configuration is one JSON document naming the input files and the
estimation settings for every subcommand. Validation is strict: unknown
keys are rejected up front so typos fail before any computation starts.
"""

import json
import math

import jsonschema

from .errors import ConfigError, first_non_utf8

_WINDOW = {
    "type": "array", "items": {"type": "integer"},
    "minItems": 2, "maxItems": 2,
}
_PANEL = {
    "type": "object",
    "properties": {
        "path": {"type": "string"},
        "transform": {"enum": ["yoy", "none"]},
    },
    "required": ["path"],
    "additionalProperties": False,
}

# true runs the null at its defaults; an object overrides n and level
_PERMUTATION = {
    "anyOf": [
        {"type": "boolean"},
        {"type": "object",
         "properties": {
             "n": {"type": "integer", "minimum": 1},
             "level": {"type": "number", "exclusiveMinimum": 0,
                       "exclusiveMaximum": 1},
         },
         "additionalProperties": False},
    ]
}

SCHEMA = {
    "type": "object",
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "grids": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "path": {"type": "string"},
                    "step": {
                        "anyOf": [
                            {"type": "number", "exclusiveMinimum": 0},
                            {"type": "array",
                             "items": {"type": "number", "exclusiveMinimum": 0},
                             "minItems": 2, "maxItems": 2},
                        ]
                    },
                    "weighting": {"enum": ["coslat", "uniform"]},
                },
                "required": ["name", "path"],
                "additionalProperties": False,
            },
            "minItems": 1,
        },
        "panels": {
            "type": "object",
            "properties": {
                "sectors": _PANEL,
                "controls": _PANEL,
                "endogenous": _PANEL,
            },
            "additionalProperties": False,
        },
        "regions": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "cells": {"enum": ["all"]},
                    "path": {"type": "string"},
                },
                "required": ["name"],
                "additionalProperties": False,
            },
        },
        "baseline": {
            "type": "object",
            "properties": {"reference_window": _WINDOW},
            "additionalProperties": False,
        },
        "anomaly": {
            "type": "object",
            "properties": {
                "variables": {"type": "array", "items": {"type": "string"}},
                "write_grids": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "shocks": {
            "type": "object",
            "properties": {
                "variable": {"type": "string"},
                "region": {"type": "string"},
                "threshold": {
                    "anyOf": [{"enum": ["auto"]},
                              {"type": "number", "exclusiveMinimum": 0}]
                },
                "threshold_window": _WINDOW,
                "extreme_multiplier": {"type": "number", "minimum": 1},
                "variants": {
                    "type": "array",
                    "items": {"enum": ["all", "spring", "summer", "autumn",
                                       "winter", "positive", "negative",
                                       "extreme"]},
                },
            },
            "required": ["variable"],
            "additionalProperties": False,
        },
        "lp": {
            "type": "object",
            "properties": {
                "h_max": {"type": "integer", "minimum": 1},
                "p_max": {"type": "integer", "minimum": 1},
                "l_max": {"type": "integer", "minimum": 1},
                "r": {"type": "integer", "minimum": 0},
                "lag_selection": {"enum": ["aic", "fixed"]},
                "ci_level": {"type": "number", "exclusiveMinimum": 0,
                             "exclusiveMaximum": 1},
                "contemporaneous_controls": {"type": "boolean"},
                "sectors": {
                    "anyOf": [{"enum": ["all"]},
                              {"type": "array", "items": {"type": "string"}}]
                },
                "figures": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "factors": {
            "type": "object",
            "properties": {
                "variable": {"type": "string"},
                "use_anomalies": {"type": "boolean"},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "k": {"type": "integer", "minimum": 1},
                "permutation": _PERMUTATION,
            },
            "required": ["variable"],
            "additionalProperties": False,
        },
        "fira": {
            "type": "object",
            "properties": {
                "variable": {"type": "string"},
                "use_anomalies": {"type": "boolean"},
                "lags": {"type": "array", "items": {"type": "integer",
                                                    "minimum": 0},
                         "minItems": 3, "maxItems": 3},
                "h_max": {"type": "integer", "minimum": 0},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "k": {"type": "integer", "minimum": 1},
                "standardize": {"type": "boolean"},
                "permutation": _PERMUTATION,
                "shocks": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "properties": {
                            "magnitude": {"type": "number"},
                            "center": {"type": "array",
                                       "items": {"type": "number"},
                                       "minItems": 2, "maxItems": 2},
                            "radius_km": {"type": "number",
                                          "exclusiveMinimum": 0},
                            "profile": {"enum": ["disk", "cosine-taper"]},
                        },
                        "required": ["magnitude", "center", "radius_km"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["variable", "shocks"],
            "additionalProperties": False,
        },
        "synth": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["normals", "planted-lp", "planted-factor",
                                  "fira-demo"]},
                "step": {"type": "number", "exclusiveMinimum": 0},
                "years": _WINDOW,
                "warming": {"type": "number"},
                "format": {"enum": ["csv", "binary"]},
                "sectors": {"type": "integer", "minimum": 1},
                "months": {"type": "integer", "minimum": 24},
                "snr": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


def validate_config(doc):
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.path))
    if errors:
        err = errors[0]
        where = "/".join(str(p) for p in err.path) or "(top level)"
        raise ConfigError(f"config key {where}: {err.message}")
    _check_finite(doc)
    return doc


def _check_finite(node, where=""):
    """Reject NaN and infinities: Python's json reads them, and they pass
    the schema's numeric bounds."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"config key {where}: {node} is not a finite number")
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{where}.{key}" if where else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _check_finite(value, f"{where}[{i}]")


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except UnicodeDecodeError:
        byte, line = first_non_utf8(path)
        raise ConfigError(f"config file {path}, line {line}: byte "
                          f"{byte:#04x} is not UTF-8") from None
    return validate_config(doc)


def require(config, *keys):
    """Fetch a nested key, failing with the dotted name when absent."""
    node = config
    seen = []
    for key in keys:
        seen.append(str(key))
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"config is missing required key {'.'.join(seen)}")
        node = node[key]
    return node

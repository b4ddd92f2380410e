"""Run-configuration schema, loading and validation.

A run configuration is one JSON document naming the input files and the
estimation settings for every subcommand. Validation is strict: unknown
keys are rejected up front so typos fail before any computation starts.

``load_config`` checks a document in two passes, both over the whole
document rather than the sections one command reads, so every command
accepts the same configs and fails before it reads any input:
``validate_config`` checks it against ``SCHEMA`` (plus finite numbers
and id lists without repeats), then ``check_rules`` checks the rules
that link keys, which README lists. Which sections a command needs is
the command's business, and ``cli`` checks it. The rules on a ``synth``
section are facts about its fixtures: ``check_rules`` calls
``synth.check`` for them, and this module knows no fixture kind.

``SCHEMA`` is a JSON Schema (draft 2020-12) document, checked by a small
walker over the twelve keywords it uses rather than by the jsonschema
package, which costs every command about 0.1 s to import. The walker
finds the errors Draft202012Validator finds, in the same order and
words, and reports the first by instance path. It differs in one place:
an ``integer`` is a Python ``int`` (not a ``bool``), so an integral
float such as ``3.0``, which JSON Schema counts as an integer, is
rejected where the library needs an int.
"""

import json
import math
import operator

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

# true runs the null at its defaults; an object overrides n and level.
# The null keeps one value per shuffle for each component it reads.
_PERMUTATION = {
    "anyOf": [
        {"type": "boolean"},
        {"type": "object",
         "properties": {
             "n": {"type": "integer", "minimum": 1, "maximum": 1000000},
             "level": {"type": "number", "exclusiveMinimum": 0,
                       "exclusiveMaximum": 1},
         },
         "additionalProperties": False},
    ]
}

# the keys factors and fira share
_FACTOR_KEYS = {
    "variable": {"type": "string"},
    "use_anomalies": {"type": "boolean"},
    "tol": {"type": "number", "exclusiveMinimum": 0},
    "k": {"type": "integer", "minimum": 1},
    "permutation": _PERMUTATION,
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
            "minItems": 1,
        },
        "baseline": {
            "type": "object",
            "properties": {"reference_window": _WINDOW},
            "additionalProperties": False,
        },
        "anomaly": {
            "type": "object",
            "properties": {
                "variables": {"type": "array", "items": {"type": "string"},
                              "minItems": 1},
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
                    "minItems": 1,
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
                              {"type": "array", "items": {"type": "string"},
                               "minItems": 1}]
                },
                "figures": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "factors": {
            "type": "object",
            "properties": _FACTOR_KEYS,
            "required": ["variable"],
            "additionalProperties": False,
        },
        "fira": {
            "type": "object",
            "properties": {
                **_FACTOR_KEYS,
                "lags": {"type": "array", "items": {"type": "integer",
                                                    "minimum": 0},
                         "minItems": 3, "maxItems": 3},
                "h_max": {"type": "integer", "minimum": 0},
                "standardize": {"type": "boolean"},
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


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float)}


def _is(node, name):
    return isinstance(node, _TYPES[name]) and (
        name == "boolean" or not isinstance(node, bool))


def _errors(node, schema, path):
    """(instance path, message) of each way node breaks schema, in the
    order of the schema's keywords."""
    for keyword, value in schema.items():
        yield from _KEYWORDS[keyword](node, value, schema, path)


def _type(node, name, schema, path):
    if not _is(node, name):
        yield path, f"{node!r} is not of type {name!r}"


def _enum(node, options, schema, path):
    # every enum in SCHEMA lists strings
    if not (isinstance(node, str) and node in options):
        yield path, f"{node!r} is not one of {options!r}"


def _any_of(node, options, schema, path):
    if all(any(_errors(node, option, path)) for option in options):
        yield path, f"{node!r} is not valid under any of the given schemas"


def _properties(node, properties, schema, path):
    if isinstance(node, dict):
        for key, sub in properties.items():
            if key in node:
                yield from _errors(node[key], sub, path + [key])


def _required(node, keys, schema, path):
    if isinstance(node, dict):
        for key in keys:
            if key not in node:
                yield path, f"{key!r} is a required property"


def _additional(node, allowed, schema, path):
    if not isinstance(node, dict) or allowed is not False:
        return
    extras = sorted((key for key in node
                     if key not in schema.get("properties", {})), key=str)
    if extras:
        yield path, (f"Additional properties are not allowed "
                     f"({', '.join(map(repr, extras))} "
                     f"{'was' if len(extras) == 1 else 'were'} unexpected)")


def _items(node, sub, schema, path):
    if isinstance(node, list):
        for i, item in enumerate(node):
            yield from _errors(item, sub, path + [i])


def _min_items(node, n, schema, path):
    if isinstance(node, list) and len(node) < n:
        yield path, (f"{node!r} "
                     f"{'should be non-empty' if n == 1 else 'is too short'}")


def _max_items(node, n, schema, path):
    if isinstance(node, list) and len(node) > n:
        yield path, (f"{node!r} "
                     f"{'is expected to be empty' if n == 0 else 'is too long'}")


def _bound(fails, words):
    def check(node, limit, schema, path):
        if _is(node, "number") and fails(node, limit):
            yield path, f"{node!r} is {words} {limit!r}"
    return check


_KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "anyOf": _any_of,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le,
                               "less than or equal to the minimum of"),
    "exclusiveMaximum": _bound(operator.ge,
                               "greater than or equal to the maximum of"),
}


def validate_config(doc):
    errors = sorted(_errors(doc, SCHEMA, []), key=lambda e: e[0])
    if errors:
        path, message = errors[0]
        where = "/".join(map(str, path)) or "(top level)"
        raise ConfigError(f"config key {where}: {message}")
    _check_finite(doc)
    _check_distinct(doc)
    return doc


# lists of ids, where a repeat would run a cell twice or collapse silently
_DISTINCT = (("lp", "sectors"), ("shocks", "variants"),
             ("anomaly", "variables"))


def _check_distinct(doc):
    lists = [(f"{section}.{key}", doc.get(section, {}).get(key))
             for section, key in _DISTINCT]
    # a repeated region name would overwrite the first region's outputs,
    # and a repeated grid name leaves which grid it means unsaid
    lists += [(key, [e["name"] for e in doc.get(key, ())])
              for key in ("regions", "grids")]
    for where, items in lists:
        if isinstance(items, list):
            repeated = [x for i, x in enumerate(items) if x in items[:i]]
            if repeated:
                raise ConfigError(f"config key {where} lists "
                                  f"{repeated[0]!r} more than once")


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
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except UnicodeDecodeError:
        byte, line = first_non_utf8(path)
        raise ConfigError(f"config file {path}, line {line}: byte "
                          f"{byte:#04x} is not UTF-8") from None
    return check_rules(validate_config(doc))


# an absent regions key is one region of every cell
DEFAULT_REGIONS = ({"name": "ALL", "cells": "all"},)


def check_rules(doc):
    """Reject a document whose keys break a rule that links them, which
    the schema cannot state. It runs over the whole document, not only
    the sections one command reads, so every command accepts the same
    configs and fails before it reads any input."""
    grids = [entry["name"] for entry in doc.get("grids", ())]
    named = [doc[key]["variable"] for key in ("shocks", "factors", "fira")
             if key in doc]
    for name in named + doc.get("anomaly", {}).get("variables", []):
        if name not in grids:
            raise ConfigError(f"config names unknown grid variable {name!r}")
    regions = doc.get("regions", DEFAULT_REGIONS)
    for i, entry in enumerate(regions):
        if ("cells" in entry) == ("path" in entry):
            raise ConfigError(f"config key regions[{i}] needs exactly one "
                              f"of cells and path")
    shocks = doc.get("shocks", {})
    region = shocks.get("region")
    if region is not None and region not in [e["name"] for e in regions]:
        raise ConfigError(f"config names unknown region {region!r}")
    for key in ("factors", "fira"):
        section = doc.get(key, {})
        # k fixes the component count, so the null would never run
        if "k" in section and section.get("permutation", False) is not False:
            raise ConfigError(f"config keys {key}.k and {key}.permutation "
                              f"exclude each other")
        # and tol, the cutoff that would choose it, would go unread
        if "k" in section and "tol" in section:
            raise ConfigError(f"config key {key}.tol is not read when "
                              f"{key}.k is set")
    controls = "controls" in doc.get("panels", {})
    lags = doc.get("fira", {}).get("lags", [0, 0, 0])
    if lags[2] > 0 and not controls:
        # build_design would drop the control block without a word
        raise ConfigError(f"config key fira.lags asks for {lags[2]} control "
                          f"lag(s), but panels.controls is absent")
    if doc.get("lp", {}).get("contemporaneous_controls") and not controls:
        # the LP design would run without controls, as if the key were false
        raise ConfigError("config key lp.contemporaneous_controls is true, "
                          "but panels.controls is absent")
    # keys that another key's value would leave unread
    if "threshold_window" in shocks \
            and shocks.get("threshold", "auto") != "auto":
        raise ConfigError("config key shocks.threshold_window sets the window "
                          "of the auto threshold, but shocks.threshold is "
                          "a number")
    if "extreme_multiplier" in shocks \
            and "extreme" not in shocks.get("variants", ()):
        raise ConfigError("config key shocks.extreme_multiplier needs "
                          "'extreme' in shocks.variants")
    if "synth" in doc:
        from .synth import check  # with numpy, only for a synth section

        check(doc["synth"])
    for section, key in (("baseline", "reference_window"),
                         ("shocks", "threshold_window"), ("synth", "years")):
        start, end = doc.get(section, {}).get(key, (0, 0))
        if start > end:
            raise ConfigError(f"config key {section}.{key} starts in {start}, "
                              f"after it ends in {end}")
    return doc


"""The one reader of config values: no other code decides a value's type."""

import cmath

_REQUIRED = object()
# kind -> (the Python types it accepts, its name in a message)
_KINDS = {"real": ((int, float), "a real number"),
          "positive": ((int, float), "a real number"),
          "complex": ((int, float, complex), "a number"),
          "integer": (int, "an integer"), "count": (int, "an integer"),
          "bool": (bool, "true or false"), "string": (str, "a string"),
          "object": (dict, "a JSON object")}


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the full error list."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def read(block, path, default=_REQUIRED, kind="real", many=False):
    """The config value at ``path`` (its last key in ``block``, else
    ``default``, else required), checked once: a ``real`` number, a
    ``complex`` one (library callers may pass a complex), a ``positive`` real
    (> 0: a length or a mesh size), each finite (``json.load`` accepts NaN,
    Infinity and -Infinity), an ``integer`` (its library helper checks
    the range), a ``count`` (an integer >= 1), a JSON ``bool``, ``string``
    or ``object``; never a bool unless ``bool``.  With
    ``many`` a list of them, non-empty unless the default is ``()``, and with
    ``many=2`` a list of such lists.  A None default: None means off."""
    key = path.rpartition(".")[2]
    if key not in block and default is _REQUIRED:
        raise ConfigError([f"{path} is required"])
    value = block.get(key, default)
    if value is None and default is None:
        return None
    values, where = [value], path
    for _ in range(many):
        for v in values:
            if not (isinstance(v, (list, tuple)) and (v or default == ())):
                raise ConfigError([f"{where} must be a non-empty list, not {v!r}"])
        values, where = [x for v in values for x in v], f"each entry of {path}"
    types, name = _KINDS[kind]
    for x in values:
        if isinstance(x, bool) != (kind == "bool") or not isinstance(x, types):
            raise ConfigError([f"{where} must be {name}, not {x!r}"])
        if isinstance(x, (float, complex)) and not cmath.isfinite(x):
            raise ConfigError([f"{where} must be finite, not {x!r}"])
        if kind == "count" and x < 1:
            raise ConfigError([f"{where} must be at least 1, not {x!r}"])
        if kind == "positive" and not x > 0:
            raise ConfigError([f"{where} must be positive, not {x!r}"])
    return value

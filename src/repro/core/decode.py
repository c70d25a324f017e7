"""JSON -> config dataclass: the one decoder for plan files and POST bodies.

Every experiment that enters the program as JSON — a ``--faults`` /
``--plan`` file on the CLI, the body of ``POST /v1/campaigns`` — becomes
its dataclass here, so the rules are one set:

* an object decodes field by field against the dataclass's annotations;
  a key that is not a field is refused by name;
* a scalar leaf must be its annotation's JSON type: ``bool`` is not an
  ``int`` (``true`` would key another run than ``1``), and an ``int`` is
  a valid ``float`` that stays an ``int``, so ``dataclasses.asdict``
  yields the same canonical JSON and every run key holds;
* a ``Tuple[X, ...]`` or ``List[X]`` field takes a JSON list, decoded
  element by element (``where[i]``); a ``Tuple`` field gets a tuple;
* ``null`` fills only an ``Optional`` field, whatever its type;
* nested dataclass fields recurse; any other annotation (``Dict``,
  ``Any``) takes the value as it is;
* after decoding, the top-level object's ``validate()`` runs, if it has
  one.

Every refusal is a :class:`~repro.errors.ConfigurationError` naming the
dotted path of the offending value (``scenario.attack.attackers[0].count``).
The module imports only the standard library and :mod:`repro.errors` —
nothing from :mod:`repro.serve`, which calls it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from pathlib import Path
from typing import Any, Dict, Mapping, Type, TypeVar, Union

from ..errors import ConfigurationError

T = TypeVar("T")

#: The JSON types a scalar annotation admits, and their name.
_SCALARS = {
    bool: ((bool,), "a boolean"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def decode(cls: Type[T], data: Any, where: str = "") -> T:
    """Build dataclass ``cls`` from parsed JSON ``data``, strictly, and
    validate it.  ``where`` prefixes every path an error names."""
    value = _decode(cls, data, where)
    validate = getattr(value, "validate", None)
    if validate is not None:
        validate()
    return value


def decode_file(cls: Type[T], path: Union[str, Path]) -> T:
    """:func:`decode` the JSON file at ``path``; an unreadable or
    corrupt file is a :class:`~repro.errors.ConfigurationError` naming
    the path."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(
            f"{path} is not a readable JSON file: {exc}"
        ) from exc
    return decode(cls, data)


def _decode(ftype: Any, value: Any, where: str) -> Any:
    args = typing.get_args(ftype) if typing.get_origin(ftype) is Union else ()
    optional = type(None) in args
    if optional:
        if value is None:
            return None
        non_none = [arg for arg in args if arg is not type(None)]
        if len(non_none) == 1:
            ftype = non_none[0]
    if ftype in _SCALARS:
        accepted, name = _SCALARS[ftype]
        if isinstance(value, bool) != (ftype is bool) or not isinstance(
            value, accepted
        ):
            raise _mistyped(where, name, optional, value)
        return value
    if typing.get_origin(ftype) in (tuple, list):
        if not isinstance(value, list):
            raise _mistyped(where, "a list", optional, value)
        item = typing.get_args(ftype)[0]
        items = [
            _decode(item, element, f"{where}[{index}]")
            for index, element in enumerate(value)
        ]
        return tuple(items) if typing.get_origin(ftype) is tuple else items
    if dataclasses.is_dataclass(ftype):
        if not isinstance(value, dict):
            raise _mistyped(where or ftype.__name__, "a JSON object", optional, value)
        return _decode_fields(ftype, value, where)
    if value is None:
        raise ConfigurationError(f"{where} must not be null")
    return value


def _mistyped(where: str, name: str, optional: bool, value: Any) -> ConfigurationError:
    return ConfigurationError(
        f"{where} must be {name}{' or null' if optional else ''}, "
        f"got {json.dumps(value)}"
    )


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> Mapping[str, Any]:
    """``cls``'s field names, in declaration order, each mapped to its
    resolved annotation: resolving them is most of a decode's cost, and
    a class's fields do not change."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _decode_fields(cls: Type[T], data: Dict[str, Any], where: str) -> T:
    label = where or cls.__name__
    types = _field_types(cls)
    unknown = sorted(key for key in data if key not in types)
    if unknown:
        raise ConfigurationError(
            f"unknown field(s) {unknown} for {label} "
            f"(allowed: {sorted(types)})"
        )
    kwargs = {
        name: _decode(
            ftype, data[name], f"{where}.{name}" if where else name
        )
        for name, ftype in types.items()
        if name in data
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid {label}: {exc}") from exc

"""Deterministic report rendering: stable JSON and aligned text.

JSON reports are versioned ({"schema": "kummerlab/1"}), keys sorted, and
never contain floating-point values; repeated runs are byte-identical.
"""

import json

SCHEMA = "kummerlab/1"
_LAYOUT = {"sort_keys": True, "indent": 2}


def _document(command: str, result) -> dict:
    return {"schema": SCHEMA, "command": command, "result": result}


def render_json(command: str, result) -> str:
    return json.dumps(_document(command, result), **_LAYOUT) + "\n"


def write_json(command: str, result, stream) -> None:
    """Write render_json's text to ``stream`` chunk by chunk, as json's
    encoder yields it, without holding the whole report as one string."""
    json.dump(_document(command, result), stream, **_LAYOUT)
    stream.write("\n")


def _text_lines(value, indent: int):
    pad = "  " * indent
    if isinstance(value, dict):
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, (dict, list)) and not _is_flat_list(sub):
                yield f"{pad}{key}:"
                yield from _text_lines(sub, indent + 1)
            else:
                yield f"{pad}{key}: {_flat(sub)}"
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            if isinstance(sub, (dict, list)) and not _is_flat_list(sub):
                yield f"{pad}[{i}]"
                yield from _text_lines(sub, indent + 1)
            else:
                yield f"{pad}- {_flat(sub)}"
    else:
        yield f"{pad}{_flat(value)}"


def _is_flat_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(v, (dict, list)) for v in value
    )


def _flat(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_flat(v) for v in value) + "]"
    if value is None:
        return "none"
    return str(value)


def render_text(result) -> str:
    return "\n".join(_text_lines(result, 0)) + "\n"

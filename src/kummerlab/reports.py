"""Deterministic report rendering: stable JSON and aligned text.

JSON reports are versioned ({"schema": "kummerlab/1"}), keys sorted, and
never contain floating-point values; repeated runs are byte-identical.
"""

import io
import json

SCHEMA = "kummerlab/1"


def _document(command: str, result) -> dict:
    return {"schema": SCHEMA, "command": command, "result": result}


def render_json(command: str, result) -> str:
    """write_json's text as one string."""
    stream = io.StringIO()
    write_json(command, result, stream)
    return stream.getvalue()


def write_json(command: str, result, stream) -> None:
    """Write the report to ``stream`` piece by piece, in json's sort_keys,
    indent=2 layout, without holding the whole report as one string."""
    _write_json(_document(command, result), stream, "\n")
    stream.write("\n")


def _write_json(value, stream, newline: str) -> None:
    """value in json's sort_keys, indent=2 layout, newline being the line
    break and indentation it starts at.

    json's indented encoder is pure Python, one small piece per token; its
    C encoder takes no indent but any separators.  So a container of
    scalars is one C encoding whose item separator is a comma and the
    inner line break, and only the containers above them are walked here.
    Keys are converted as json converts them: a str as it is, any other
    key through its JSON text.
    """
    is_dict = isinstance(value, dict)
    if not is_dict and not isinstance(value, (list, tuple)):
        stream.write(json.dumps(value))
        return
    inner = newline + "  "
    children = value.values() if is_dict else value
    if not any(isinstance(v, (dict, list, tuple)) for v in children):
        text = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
        if value:
            text = text[0] + inner + text[1:-1] + newline + text[-1]
        stream.write(text)
        return
    stream.write("{" if is_dict else "[")
    separator = inner
    for key, item in sorted(value.items()) if is_dict else enumerate(value):
        if is_dict:
            name = key if isinstance(key, str) else json.dumps(key)
            separator += json.dumps(name) + ": "
        stream.write(separator)
        _write_json(item, stream, inner)
        separator = "," + inner
    stream.write(newline + ("}" if is_dict else "]"))


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

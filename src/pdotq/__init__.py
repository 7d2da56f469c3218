"""Exact q-series arithmetic and congruence certificates for the
designated-summand partition counters, and their indented JSON."""

from json import dumps
from json.encoder import encode_basestring_ascii as _quote

# a plain leaf's or key's JSON text, from a callable written in C
_leaf = {str: _quote, int: int.__repr__, bool: ("false", "true").__getitem__,
         type(None): {None: "null"}.__getitem__}.get
_key = {str: _quote, int: '"{}"'.format}.get


def indented_json(obj, newline="\n") -> str:
    """json.dumps's text of obj with indent=2, lines after `newline`, joined
    per container in C; json writes any other leaf or key (float, subclass)."""
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        body = f",{inner}".join([
            w(x) if (w := _leaf(type(x))) else indented_json(x, inner)
            for x in obj])
        return f"[{inner}{body}{newline}]" if obj else "[]"
    if isinstance(obj, dict):
        body = f",{inner}".join([
            f"{_key(type(k), _json_key)(k)}: "
            f"{w(v) if (w := _leaf(type(v))) else indented_json(v, inner)}"
            for k, v in obj.items()])
        return f"{{{inner}{body}{newline}}}" if obj else "{}"
    return dumps(obj)


def _json_key(key):
    return dumps({key: 0})[1:-4]

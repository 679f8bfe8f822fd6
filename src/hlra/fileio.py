"""Reading and writing algebra files.

One JSON document per algebra: dimensions, labels, the four structure
tensors as sorted sparse [i, j, k, "p/q"] entries, dense twist matrices,
flags, and optionally rows spanning a chosen abelian subalgebra.  The
serializer is canonical: sorted keys, sorted entries, lowest-term scalars.
Parsing is strict; errors carry a line and column whenever the offending
token can be located in the source text.
"""

import json

from .model import HLRAlgebra, InputError, tensor_shapes
from .scalars import format_scalar, parse_scalar

FORMAT_VERSION = "1"

_TOP_KEYS = {
    "format_version",
    "dimL",
    "dimA",
    "labels",
    "bracket",
    "mul",
    "action",
    "anchor",
    "psi",
    "phi",
    "flags",
    "declared_H",
}


class ParseError(InputError):
    """Bad algebra file.  line and col are 1-based when known."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


def _locate(text, token):
    """(line, col) of the first occurrence of token, or (None, None)."""
    if text is None:
        return None, None
    idx = text.find(token)
    if idx < 0:
        return None, None
    line = text.count("\n", 0, idx) + 1
    col = idx - (text.rfind("\n", 0, idx) + 1) + 1
    return line, col


def _dim(doc, key):
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ParseError(f"{key} must be a nonnegative integer, got {v!r}")
    return v


def _scalar(value, where, text):
    try:
        return parse_scalar(value)
    except ValueError as exc:
        line = col = None
        if isinstance(value, str):
            line, col = _locate(text, json.dumps(value))
        raise ParseError(f"{where}: {exc}", line, col) from None


def _tensor_from_sparse(entries, dims, name, text):
    if not isinstance(entries, list):
        raise ParseError(f"{name} must be a list of [i, j, k, value] entries")
    out = {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 4:
            raise ParseError(f"{name}[{pos}] must be [i, j, k, value]")
        i, j, k, raw = entry
        for idx, bound, axis in zip((i, j, k), dims, "ijk"):
            if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < bound:
                raise ParseError(
                    f"{name}[{pos}]: index {axis}={idx!r} outside 0..{bound - 1}"
                )
        if (i, j, k) in out:
            raise ParseError(f"{name}[{pos}]: duplicate entry for ({i}, {j}, {k})")
        out[i, j, k] = _scalar(raw, f"{name}[{pos}]", text)
    return out


def _matrix(doc, key, n, text):
    rows = doc.get(key)
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f"{key} must be a dense {n}x{n} matrix")
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{key}[{r}] must have {n} entries")
        out.append(tuple(_scalar(x, f"{key}[{r}]", text) for x in row))
    return tuple(out)


def _labels(doc, dim_l, dim_a):
    labels = doc.get("labels")
    if labels is None:
        return (), ()
    if not isinstance(labels, dict) or set(labels) - {"L", "A"}:
        raise ParseError('labels must be an object with keys "L" and "A"')
    out = []
    for key, dim in (("L", dim_l), ("A", dim_a)):
        part = labels.get(key, [])
        if not isinstance(part, list) or not all(isinstance(s, str) for s in part):
            raise ParseError(f"labels.{key} must be a list of strings")
        if part and len(part) != dim:
            raise ParseError(f"labels.{key} has {len(part)} entries for dimension {dim}")
        out.append(tuple(part))
    return tuple(out)


def from_document(doc, text=None):
    """Build an algebra from a parsed JSON document.

    text, when given, is the original source used to annotate scalar errors
    with their position.
    """
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown top-level keys: {', '.join(sorted(unknown))}")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f'format_version must be "{FORMAT_VERSION}", got {version!r}'
        )
    nl = _dim(doc, "dimL")
    na = _dim(doc, "dimA")
    l_labels, a_labels = _labels(doc, nl, na)
    # a file with both a bad twist and a bad tensor names the twist
    psi = _matrix(doc, "psi", nl, text)
    phi = _matrix(doc, "phi", na, text)
    tensors = {}
    for name, dims in tensor_shapes(nl, na).items():
        if name not in doc:
            raise ParseError(f"missing field {name}")
        tensors[name] = _tensor_from_sparse(doc[name], dims, name, text)
    flags = doc.get("flags", {})
    if not isinstance(flags, dict) or set(flags) - {"regular", "unital"}:
        raise ParseError('flags must be an object with keys "regular" and "unital"')
    regular = flags.get("regular", True)
    unital = flags.get("unital", False)
    if not isinstance(regular, bool) or not isinstance(unital, bool):
        raise ParseError("flags.regular and flags.unital must be booleans")
    declared = doc.get("declared_H")
    if declared is not None:
        if not isinstance(declared, list):
            raise ParseError("declared_H must be a list of rows")
        rows = []
        for r, row in enumerate(declared):
            if not isinstance(row, list) or len(row) != nl:
                raise ParseError(f"declared_H[{r}] must have {nl} entries")
            rows.append(tuple(_scalar(x, f"declared_H[{r}]", text) for x in row))
        declared = tuple(rows)
    try:
        return HLRAlgebra(
            dimL=nl,
            dimA=na,
            **tensors,
            psi=psi,
            phi=phi,
            L_labels=l_labels,
            A_labels=a_labels,
            regular=regular,
            unital=unital,
            declared_H=declared,
        )
    except InputError as exc:
        raise ParseError(str(exc)) from None


def loads_algebra(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except (RecursionError, ValueError) as exc:
        # nesting too deep, or an integer literal over Python's digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    return from_document(doc, text=text)


def load_algebra(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_algebra(fh.read())


def _sparse(tensor):
    return [[i, j, k, format_scalar(c)] for (i, j, k), c in sorted(tensor.items())]


def to_document(h):
    doc = {
        "format_version": FORMAT_VERSION,
        "dimL": h.dimL,
        "dimA": h.dimA,
        "labels": {"L": list(h.L_labels), "A": list(h.A_labels)},
        "bracket": _sparse(h.bracket),
        "mul": _sparse(h.mul),
        "action": _sparse(h.action),
        "anchor": _sparse(h.anchor),
        "psi": [[format_scalar(x) for x in row] for row in h.psi],
        "phi": [[format_scalar(x) for x in row] for row in h.phi],
        "flags": {"regular": h.regular, "unital": h.unital},
    }
    if h.declared_H is not None:
        doc["declared_H"] = [[format_scalar(x) for x in row] for row in h.declared_H]
    return doc


def canonical_dumps(doc):
    """Sorted keys, one top-level field per line, compact values."""
    keys = sorted(doc)
    lines = ["{"]
    for idx, key in enumerate(keys):
        body = json.dumps(doc[key], sort_keys=True, separators=(", ", ": "))
        comma = "," if idx < len(keys) - 1 else ""
        lines.append(f'  "{key}": {body}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps_algebra(h):
    return canonical_dumps(to_document(h))


def save_algebra(h, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_algebra(h))

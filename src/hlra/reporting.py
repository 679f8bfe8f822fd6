"""Deterministic report rendering shared by all CLI commands.

Two surfaces: line oriented text and a sorted-keys JSON document.  Both
must be byte identical across runs on the same input, so nothing in this
module may consult clocks, environment, or anything else that varies.
Timing belongs on stderr and is the caller's business.
"""

import hashlib
import json

from .claims import title
from .roots import format_class, format_root
from .scalars import format_scalar, format_vector


def input_digest(data):
    """sha256 hex digest of the raw input; str is taken as utf-8."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def render(doc, lines, fmt):
    """Final output string for one command run."""
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return "\n".join(lines) + "\n"


# -- claims and checks ------------------------------------------------------


def claim_line(c):
    line = f"[{c.status}] {c.claim_id} {title(c.claim_id)}"
    if c.detail:
        line += f": {c.detail}"
    return line


def claim_json(c):
    return {
        "id": c.claim_id,
        "status": c.status,
        "title": title(c.claim_id),
        "detail": c.detail,
    }


def check_line(c):
    line = f"[{c.status}] {c.key}"
    if c.detail:
        line += f": {c.detail}"
    return line


def check_json(c):
    return {"key": c.key, "status": c.status, "detail": c.detail}


# -- spaces, functionals, partitions ----------------------------------------


def space_json(s):
    return {"dim": s.dim, "basis": [[format_scalar(x) for x in row] for row in s.basis]}


def space_text(s):
    if s.dim == 0:
        return "dim 0"
    return f"dim {s.dim}, basis " + ", ".join(format_vector(row) for row in s.basis)


def partition_json(part):
    return {
        "items": [format_root(f) for f in part.items],
        "classes": [[format_root(f) for f in cls] for cls in part.classes],
        "witnesses": [
            {"from": format_root(a), "to": format_root(b), "witness": w.describe()}
            for (a, b), w in sorted(part.witnesses.items())
        ],
        "raw_symmetric": part.raw_symmetric,
        "reflexive_ok": part.reflexive_ok,
    }


def partition_lines(name, part, out):
    out.append(f"{name} items ({len(part.items)}): " + (", ".join(format_root(f) for f in part.items) or "none"))
    if not part.classes:
        out.append(f"{name} classes: none")
    for cls in part.classes:
        out.append(f"{name} class {format_class(cls)}")
    for (a, b), w in sorted(part.witnesses.items()):
        out.append(f"  {format_root(a)} ~ {format_root(b)}: {w.describe()}")
    out.append(f"{name} raw relation symmetric: {'yes' if part.raw_symmetric else 'no'}")

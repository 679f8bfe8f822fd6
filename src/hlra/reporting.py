"""The report record every command builds, and its two renderings.

A command builds one `Report`.  `Report.add(key, value, *lines)` stores the
JSON value under its key and appends the text lines that show it, so each
datum is written once and reaches both surfaces.  A key of None adds text
only; an add with no lines is JSON only, which is how the document carries
fields the text leaves out.  The methods below hold the text form of each
kind of datum: `dim 0` or a basis for a space, `none` for an absent space
or an empty list, `[status] id title: detail` for claims and checks, and
`yes`/`no` for flags.  `render` turns the record into a sorted-keys JSON
document or the text lines.

Both renderings must be byte identical across runs on the same input, so
nothing in this module may consult clocks, environment, or anything else
that varies.  Timing belongs on stderr and is the caller's business.
"""

import hashlib
import json

from .claims import title
from .roots import format_class, format_root
from .scalars import format_scalar, format_vector


def flags(*bits):
    """yes or no for each flag, space separated."""
    return " ".join("yes" if b else "no" for b in bits)


def roots(functionals):
    """The functionals joined by ', ', or none."""
    return ", ".join(format_root(f) for f in functionals) or "none"


def space_json(s):
    return {"dim": s.dim, "basis": [[format_scalar(x) for x in row] for row in s.basis]}


def space_text(s):
    if s.dim == 0:
        return "dim 0"
    return f"dim {s.dim}, basis " + ", ".join(format_vector(row) for row in s.basis)


def check_line(c):
    return f"[{c.status}] {c.key}" + (f": {c.detail}" if c.detail else "")


class Report:
    """One command's JSON document and text lines, filled in report order."""

    def __init__(self, command):
        self.doc = {"command": command}
        self.lines = []

    def add(self, key, value, *lines):
        if key is not None:
            self.doc[key] = value
        self.lines.extend(lines)
        return self

    def source(self, key, path, text, digest_key="sha256"):
        """An input file by path and the sha256 of its utf-8 text."""
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self.add(key, path, f"{key}: {path}").add(digest_key, digest, f"sha256: {digest}")

    def space(self, key, label, s):
        """A subspace; None stands for one that does not exist."""
        if s is None:
            return self.add(key, None, f"{label}: none")
        return self.add(key, space_json(s), f"{label}: {space_text(s)}")

    def checks(self, key, checks):
        rows = [{"key": c.key, "status": c.status, "detail": c.detail} for c in checks]
        return self.add(key, rows, *map(check_line, checks))

    def claims(self, claims):
        return self.add(
            "claims",
            [{"id": c.claim_id, "status": c.status, "title": title(c.claim_id), "detail": c.detail} for c in claims],
            *(f"[{c.status}] {c.claim_id} {title(c.claim_id)}" + (f": {c.detail}" if c.detail else "") for c in claims),
        )

    def partition(self, name, part):
        """The items, classes and ordered witnesses of one connection
        partition, under `<name>_partition`."""
        witnesses = sorted(part.witnesses.items())
        doc = {
            "items": [format_root(f) for f in part.items],
            "classes": [[format_root(f) for f in cls] for cls in part.classes],
            "witnesses": [
                {"from": format_root(a), "to": format_root(b), "witness": w.describe()} for (a, b), w in witnesses
            ],
            "raw_symmetric": part.raw_symmetric,
            "reflexive_ok": part.reflexive_ok,
        }
        return self.add(
            f"{name}_partition",
            doc,
            f"{name} items ({len(part.items)}): {roots(part.items)}",
            *([f"{name} class {format_class(cls)}" for cls in part.classes] or [f"{name} classes: none"]),
            *(f"  {format_root(a)} ~ {format_root(b)}: {w.describe()}" for (a, b), w in witnesses),
            f"{name} raw relation symmetric: {flags(part.raw_symmetric)}",
        )


def render(report, fmt):
    """Final output string for one command run."""
    if fmt == "json":
        return json.dumps(report.doc, sort_keys=True, indent=2) + "\n"
    return "\n".join(report.lines) + "\n"

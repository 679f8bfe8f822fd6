"""Command line surface.

One subcommand per library entry point.  Exit codes: 0 when everything
checked passes, 1 when a mathematical claim or identity fails, 2 when the
input cannot be read or parsed.  Stdout is deterministic byte for byte;
timing is printed to stderr only.
"""

import argparse
import dataclasses
import functools
import json
import sys
import time

from . import reporting
from .claims import ClaimResult, FAIL, PASS
from .decomposition import run_decomposition
from .fileio import dumps_algebra, loads_algebra
from .model import (
    FiberClosureError,
    InputError,
    RELAXED,
    STRICT,
    TwistError,
    check_morphism,
    compute_J,
    fiber_product,
    twist_by_endomorphism,
    validate_hlr,
)
from .roots import (
    CartanError,
    format_class,
    format_root,
    root_decomposition,
    weight_decomposition,
)
from .scalars import parse_scalar
from .structure import Analysis, run_structure

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2

# claims that describe which structural profile an instance has, as opposed
# to claims asserting a statement that must hold once its hypotheses do
DESCRIPTIVE_CLAIMS = frozenset(
    {
        "def5.3.1",
        "def5.3.2",
        "def5.3.3",
        "def5.3.4",
        "def5.4",
        "def5.6",
        "tight.1",
        "tight.2",
        "tight.3",
        "tight.4",
        "tight.5",
        "tight.6",
    }
)


def _read_text(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not utf-8: {exc}")


def _load(path):
    text = _read_text(path)
    return loads_algebra(text), text


def _matrix_arg(text, flag, shape=None):
    """JSON rows with integer or rational-string entries; with shape
    (rows, columns) the matrix must have exactly that shape."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{flag}: not valid JSON: {exc.msg}")
    except (RecursionError, ValueError) as exc:
        # nesting too deep, or an integer literal over Python's digit limit
        raise InputError(f"{flag}: not valid JSON: {exc}")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{flag}: expected a JSON array of arrays")
    if shape and (len(rows) != shape[0] or any(len(r) != shape[1] for r in rows)):
        raise InputError(f"{flag}: expected a {shape[0]}x{shape[1]} matrix")
    try:
        return tuple(tuple(parse_scalar(x) for x in r) for r in rows)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{flag}: {exc}")


def _header(path, text):
    digest = reporting.input_digest(text)
    return digest, [f"input: {path}", f"sha256: {digest}"]


def _emit(args, doc, lines):
    sys.stdout.write(reporting.render(doc, lines, args.format))


def _open_split(args):
    """Shared opening of the decomposition commands: load, header, relaxed
    validation, H, both eigen-decompositions and the split status.

    Returns (Analysis, doc, lines) when the instance splits; otherwise the
    report already says why, has been emitted, and the exit code comes back.
    """
    h, text = _load(args.file)
    # a malformed flag is bad input even when the file fails validation
    H = _matrix_arg(args.cartan, "--cartan") if args.cartan is not None else None
    digest, lines = _header(args.file, text)
    doc = {"command": args.command, "input": args.file, "sha256": digest}
    rep = validate_hlr(h, strictness=RELAXED)
    doc["validation_ok"] = rep.ok
    if not rep.ok:
        lines.append("validation failed; decomposition not attempted")
        for c in rep.failures():
            lines.append(reporting.check_line(c))
        doc["validation_failures"] = [reporting.check_json(c) for c in rep.failures()]
        return _finish(args, doc, lines, failed=True)
    rd = root_decomposition(h, H)
    wd = weight_decomposition(h, rd)
    doc["cartan"] = reporting.space_json(rd.H)
    lines.append(f"cartan subalgebra: {reporting.space_text(rd.H)}")
    for name, items, space, zero in (
        ("root", rd.gamma, rd.space, rd.zero_space),
        ("weight", wd.lam, wd.space, wd.A0),
    ):
        doc[f"{name}s"] = [{name: format_root(f), "dim": space(f).dim} for f in items]
        lines.append(
            f"{name}s ({len(items)}): "
            + ("; ".join(f"{format_root(f)} dim {space(f).dim}" for f in items) or "none")
        )
        lines.append(f"zero {name} space: dim {zero.dim}")
    doc["split"] = rd.split and wd.split
    if not rd.split or not wd.split:
        side = "bracket side" if not rd.split else "scalar side"
        diag = rd.diagnosis if not rd.split else wd.diagnosis
        lines.append(f"split: no ({side}): {diag}")
        doc["diagnosis"] = diag
        return _finish(args, doc, lines, failed=True)
    lines.append("split: yes")
    return Analysis(h, rd, wd), doc, lines


def _append_claims(claims, doc, lines):
    doc["claims"] = [reporting.claim_json(c) for c in claims]
    for c in claims:
        lines.append(reporting.claim_line(c))


def _rejected(h, noun):
    """Print one error line per failed relaxed check of h; True if any."""
    failures = validate_hlr(h, strictness=RELAXED).failures()
    for c in failures:
        print(f"error: {noun} fails validation: {reporting.check_line(c)}", file=sys.stderr)
    return bool(failures)


def _finish(args, doc, lines, failed):
    doc["ok"] = not failed
    lines.append(f"result: {'pass' if not failed else 'fail'}")
    _emit(args, doc, lines)
    return EXIT_MATH if failed else EXIT_OK


# -- commands ---------------------------------------------------------------


def cmd_validate(args):
    h, text = _load(args.file)
    digest, lines = _header(args.file, text)
    strictness = STRICT if args.strict else RELAXED
    rep = validate_hlr(h, strictness=strictness)
    lines.append(f"strictness: {rep.strictness}")
    for c in rep.checks:
        lines.append(reporting.check_line(c))
    warns = sum(1 for c in rep.checks if c.status == "warn")
    fails = len(rep.failures())
    lines.append(f"result: {'valid' if rep.ok else 'invalid'} ({fails} failures, {warns} warnings)")
    doc = {
        "command": "validate",
        "input": args.file,
        "sha256": digest,
        "strictness": rep.strictness,
        "checks": [reporting.check_json(c) for c in rep.checks],
        "ok": rep.ok,
    }
    _emit(args, doc, lines)
    return EXIT_OK if rep.ok else EXIT_MATH


def cmd_decompose(args):
    opened = _open_split(args)
    if isinstance(opened, int):
        return opened
    a, doc, lines = opened
    h, rd = a.h, a.rd
    dec = run_decomposition(a)
    if not rd.gamma and dec.U == rd.H and rd.H.dim == h.dimL:
        lines.append("no roots; L = U = H")
    doc["root_classes"] = [[format_root(f) for f in c] for c in a.root_part.classes]
    doc["weight_classes"] = [[format_root(f) for f in c] for c in a.weight_part.classes]
    for side, ideals in (("root", a.root_ideals), ("weight", a.weight_ideals)):
        doc[f"{side}_class_ideals"] = []
        for ideal in ideals:
            lines.append(f"{side} class {format_class(ideal.cls)} ideal: dim {ideal.space.dim}")
            doc[f"{side}_class_ideals"].append(
                {"class": [format_root(f) for f in ideal.cls], **reporting.space_json(ideal.space)}
            )
    # a sum identity that fails by escape leaves no complement
    for name, side, comp in (("U", "bracket", dec.U), ("V", "scalar", dec.V)):
        lines.append(f"{side}-side complement {name}: {'none' if comp is None else reporting.space_text(comp)}")
        doc[name] = None if comp is None else reporting.space_json(comp)
    enum = a.enum
    lines.append(
        f"ideal enumeration: {len(enum.ideals)} found, "
        f"{'complete' if enum.complete else 'incomplete'}"
        + (f" ({enum.note})" if enum.note else "")
    )
    doc["ideal_enumeration"] = {"count": len(enum.ideals), "complete": enum.complete, "note": enum.note}
    _append_claims(dec.claims, doc, lines)
    return _finish(args, doc, lines, failed=any(c.failed for c in dec.claims))


def cmd_analyze(args):
    opened = _open_split(args)
    if isinstance(opened, int):
        return opened
    a, doc, lines = opened
    st = run_structure(a)
    js, prof, enum = a.js, a.profile, a.enum

    lines.append(f"ideal J: {reporting.space_text(js.J)}")
    lines.append(
        "root classes inside J: "
        + (", ".join(format_root(f) for f in js.gamma_J) or "none")
    )
    lines.append(
        "root classes outside J: "
        + (", ".join(format_root(f) for f in js.gamma_notJ) or "none")
    )
    lines.append(f"j-split clean: {'yes' if js.clean else 'no'}; graded: {'yes' if js.graded else 'no'}")
    doc["J"] = reporting.space_json(js.J)
    doc["gamma_J"] = [format_root(f) for f in js.gamma_J]
    doc["gamma_notJ"] = [format_root(f) for f in js.gamma_notJ]
    doc["j_split"] = {"clean": js.clean, "graded": js.graded, "notes": list(js.notes)}

    def flags(t):
        return " ".join("yes" if b else "no" for b in t)

    lines.append(f"maximal length: {'yes' if prof.maximal_length else 'no'}")
    lines.append(f"root multiplicativity clauses: {flags(prof.root_multiplicative)}")
    lines.append(f"tightness clauses: {flags(prof.tight)}")
    lines.append(f"Lie annihilator: {reporting.space_text(prof.Z_Lie)}")
    lines.append(
        "symmetric weight set: "
        + ("yes" if prof.symmetric_Lambda else "no")
        + "; symmetric J roots: "
        + ("yes" if prof.symmetric_gamma_J else "no")
        + "; symmetric non-J roots: "
        + ("yes" if prof.symmetric_gamma_notJ else "no")
    )
    doc["profile"] = {f.name: getattr(prof, f.name) for f in dataclasses.fields(prof)}
    doc["profile"]["Z_Lie"] = reporting.space_json(prof.Z_Lie)

    doc["thm512_runs"] = []
    for run in st.thm512_runs:
        lines.append(
            f"two-ideal split run: seed dim {run.seed_dim}, branch {run.branch}, "
            f"{'ok' if run.ok else 'FAILED'}: {run.detail}"
        )
        doc["thm512_runs"].append(
            {"seed_dim": run.seed_dim, "branch": run.branch, "ok": run.ok, "detail": run.detail}
        )
    doc["components"] = []
    for comp in st.cor513.components:
        lines.append(
            f"component {format_class(comp.cls)}: dim {comp.dim}, "
            f"verdict {comp.simple_verdict}, paired weight class {comp.paired}"
        )
        doc["components"].append(
            {
                "class": [format_root(f) for f in comp.cls],
                "dim": comp.dim,
                "verdict": comp.simple_verdict,
                "paired": comp.paired,
            }
        )
    doc["weight_component_dims"] = list(st.cor513.weight_dims)
    doc["pairing"] = [
        {
            "root_class": [format_root(f) for f in r.root_class],
            "zero_classes": r.zero_classes,
            "nonzero_classes": r.nonzero_classes,
        }
        for r in st.pairing.rows
    ]
    doc["ideal_enumeration"] = {"count": len(enum.ideals), "complete": enum.complete, "note": enum.note}
    _append_claims(st.claims, doc, lines)
    # descriptive clauses measure the instance; only verified statements
    # about it count as mathematical failures for the exit code
    math_failed = [c.claim_id for c in st.claims if c.failed and c.claim_id not in DESCRIPTIVE_CLAIMS]
    desc_failed = [c.claim_id for c in st.claims if c.failed and c.claim_id in DESCRIPTIVE_CLAIMS]
    doc["descriptive_failures"] = desc_failed
    doc["ok"] = not math_failed
    tail = f" (descriptive clauses failing: {', '.join(desc_failed)})" if desc_failed else ""
    lines.append(f"result: {'pass' if not math_failed else 'fail'}{tail}")
    _emit(args, doc, lines)
    return EXIT_MATH if math_failed else EXIT_OK


def cmd_twist(args):
    h, _text = _load(args.file)
    f = _matrix_arg(args.psi, "--psi", (h.dimL, h.dimL))
    g = _matrix_arg(args.phi, "--phi", (h.dimA, h.dimA))
    if _rejected(h, "input"):
        return EXIT_MATH
    twisted = twist_by_endomorphism(h, g, f)
    sys.stdout.write(dumps_algebra(twisted))
    return EXIT_OK


def cmd_fiber(args):
    h1, _t1 = _load(args.file1)
    h2, _t2 = _load(args.file2)
    result = fiber_product(h1, h2)
    if _rejected(result.algebra, "fiber product"):
        return EXIT_MATH
    sys.stdout.write(dumps_algebra(result.algebra))
    return EXIT_OK


def cmd_morphism(args):
    src, t1 = _load(args.file1)
    dst, t2 = _load(args.file2)
    g = _matrix_arg(args.g, "--g", (dst.dimA, src.dimA))
    f = _matrix_arg(args.f, "--f", (dst.dimL, src.dimL))
    checks = check_morphism(g, f, src, dst)
    lines = [
        f"source: {args.file1}",
        f"sha256: {reporting.input_digest(t1)}",
        f"target: {args.file2}",
        f"sha256: {reporting.input_digest(t2)}",
    ]
    for c in checks:
        lines.append(reporting.check_line(c))
    ok = all(c.status == "pass" for c in checks)
    lines.append(f"result: {'morphism' if ok else 'not a morphism'}")
    doc = {
        "command": "morphism",
        "source": args.file1,
        "source_sha256": reporting.input_digest(t1),
        "target": args.file2,
        "target_sha256": reporting.input_digest(t2),
        "checks": [reporting.check_json(c) for c in checks],
        "ok": ok,
    }
    _emit(args, doc, lines)
    return EXIT_OK if ok else EXIT_MATH


def cmd_connect(args):
    opened = _open_split(args)
    if isinstance(opened, int):
        return opened
    a, doc, lines = opened
    rp, wp = a.root_part, a.weight_part
    reporting.partition_lines("root", rp, lines)
    reporting.partition_lines("weight", wp, lines)
    doc["root_partition"] = reporting.partition_json(rp)
    doc["weight_partition"] = reporting.partition_json(wp)
    failed = not (rp.reflexive_ok and wp.reflexive_ok)
    return _finish(args, doc, lines, failed=failed)


def cmd_j(args):
    h, text = _load(args.file)
    digest, lines = _header(args.file, text)
    jrep = compute_J(h)
    lines.append(f"symmetrized-square ideal J: {reporting.space_text(jrep.J)}")
    lines.append(f"closure rules fired: {', '.join(jrep.closure.fired) or 'none'}")
    lines.append(f"brackets [J, L] all zero: {'yes' if jrep.J_bracket_L_zero else 'no'}")
    claim = ClaimResult(
        "eq2.1",
        PASS if jrep.L_bracket_J_zero else FAIL,
        "" if jrep.L_bracket_J_zero else jrep.witness,
    )
    doc = {
        "command": "j",
        "input": args.file,
        "sha256": digest,
        "J": reporting.space_json(jrep.J),
        "closure_rules_fired": list(jrep.closure.fired),
        "bracket_J_L_zero": jrep.J_bracket_L_zero,
        "bracket_L_J_zero": jrep.L_bracket_J_zero,
        "witness": jrep.witness,
    }
    _append_claims([claim], doc, lines)
    return _finish(args, doc, lines, failed=claim.failed)


# -- parser -----------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="hlra",
        description="exact verification of twisted Leibniz-Rinehart structure on files of structure constants",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text, report=True):
        sp = sub.add_parser(name, help=help_text)
        if report:
            sp.add_argument("--format", choices=("text", "json"), default="text")
        return sp

    sp = add("validate", "check every defining identity on one file")
    sp.add_argument("file")
    sp.add_argument(
        "--strict",
        action="store_true",
        help="fail (instead of warn) on the two representation identities",
    )
    sp.set_defaults(func=cmd_validate)

    for name, func, help_text in (
        ("decompose", cmd_decompose, "root and weight decomposition, class ideals, sum identities"),
        ("analyze", cmd_analyze, "J-split, structure profile, two-ideal split and simple-component checks"),
        ("connect", cmd_connect, "connection partitions of the root and weight sets"),
    ):
        sp = add(name, help_text)
        sp.add_argument("file")
        sp.add_argument(
            "--cartan",
            help="JSON rows spanning the abelian subalgebra; default is the one declared in the file",
        )
        sp.set_defaults(func=func)

    sp = add("twist", "apply an endomorphism pair as new twists; writes the canonical file", report=False)
    sp.add_argument("file")
    sp.add_argument("--psi", required=True, help="JSON matrix acting on the bracket side")
    sp.add_argument("--phi", required=True, help="JSON matrix acting on the scalar side")
    sp.set_defaults(func=cmd_twist)

    sp = add("fiber", "anchor-equalizer product of two algebras over the same scalars", report=False)
    sp.add_argument("file1")
    sp.add_argument("file2")
    sp.set_defaults(func=cmd_fiber)

    sp = add("morphism", "check a matrix pair for the five morphism conditions")
    sp.add_argument("file1")
    sp.add_argument("file2")
    sp.add_argument("--g", required=True, help="JSON matrix on the scalar side")
    sp.add_argument("--f", required=True, help="JSON matrix on the bracket side")
    sp.set_defaults(func=cmd_morphism)

    sp = add("j", "the ideal generated by symmetrized brackets, with its annihilation claim")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_j)

    return p


@functools.cache
def _parser():
    """The parser, built on the first call to main rather than at import
    and kept for the rest of the process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        code = args.func(args)
    except (TwistError, FiberClosureError, CartanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"elapsed: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return code

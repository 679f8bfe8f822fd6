"""Command line surface.

One subcommand per library entry point.  Each report command builds one
`reporting.Report`, adding every datum once with its JSON value and the text
lines that show it, and hands it to `_finish`, which adds the `ok` field and
the `result:` line, prints the record through `reporting.render` in the
chosen `--format` and returns the exit code: 0 when everything checked
passes, 1 when a mathematical claim or identity fails.  Input that cannot be
read or parsed exits 2 with an error on stderr.  Stdout is deterministic
byte for byte; timing is printed to stderr only.
"""

import argparse
import functools
import json
import sys
import time

from . import reporting
from .claims import DESCRIPTIVE_CLAIMS, ClaimResult, FAIL, PASS
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


def _open_split(args):
    """Shared opening of the decomposition commands: load, header, relaxed
    validation, H, both eigen-decompositions and the split status.

    Returns (Analysis, report) when the instance splits, else (None, report)
    with the report saying why.
    """
    h, text = _load(args.file)
    # a malformed flag is bad input even when the file fails validation
    H = _matrix_arg(args.cartan, "--cartan") if args.cartan is not None else None
    r = reporting.Report(args.command).source("input", args.file, text)
    rep = validate_hlr(h, strictness=RELAXED)
    if not rep.ok:
        r.add("validation_ok", False, "validation failed; decomposition not attempted")
        return None, r.checks("validation_failures", rep.failures())
    r.add("validation_ok", True)
    rd = root_decomposition(h, H)
    wd = weight_decomposition(h, rd)
    r.space("cartan", "cartan subalgebra", rd.H)
    for name, items, space, zero in (
        ("root", rd.gamma, rd.space, rd.zero_space),
        ("weight", wd.lam, wd.space, wd.A0),
    ):
        r.add(
            f"{name}s",
            [{name: format_root(f), "dim": space(f).dim} for f in items],
            f"{name}s ({len(items)}): " + ("; ".join(f"{format_root(f)} dim {space(f).dim}" for f in items) or "none"),
            f"zero {name} space: dim {zero.dim}",
        )
    if rd.split and wd.split:
        return Analysis(h, rd, wd), r.add("split", True, "split: yes")
    side, diag = ("bracket side", rd.diagnosis) if not rd.split else ("scalar side", wd.diagnosis)
    return None, r.add("split", False, f"split: no ({side}): {diag}").add("diagnosis", diag)


def _enumeration(enum):
    return {"count": len(enum.ideals), "complete": enum.complete, "note": enum.note}


def _rejected(h, noun):
    """Print one error line per failed relaxed check of h; True if any."""
    failures = validate_hlr(h, strictness=RELAXED).failures()
    for c in failures:
        print(f"error: {noun} fails validation: {reporting.check_line(c)}", file=sys.stderr)
    return bool(failures)


def _finish(args, r, failed, result=None):
    """Close the report with its ok field and result line, print it in the
    chosen format, and return the exit code."""
    r.add("ok", not failed, f"result: {result or ('fail' if failed else 'pass')}")
    sys.stdout.write(reporting.render(r, args.format))
    return EXIT_MATH if failed else EXIT_OK


# -- commands ---------------------------------------------------------------


def cmd_validate(args):
    h, text = _load(args.file)
    rep = validate_hlr(h, strictness=STRICT if args.strict else RELAXED)
    r = reporting.Report(args.command).source("input", args.file, text)
    r.add("strictness", rep.strictness, f"strictness: {rep.strictness}").checks("checks", rep.checks)
    warns = sum(1 for c in rep.checks if c.status == "warn")
    verdict = "valid" if rep.ok else "invalid"
    return _finish(args, r, not rep.ok, f"{verdict} ({len(rep.failures())} failures, {warns} warnings)")


def cmd_decompose(args):
    a, r = _open_split(args)
    if a is None:
        return _finish(args, r, failed=True)
    h, rd = a.h, a.rd
    dec = run_decomposition(a)
    if not rd.gamma and dec.U == rd.H and rd.H.dim == h.dimL:
        r.add(None, None, "no roots; L = U = H")
    for side, part, ideals in (("root", a.root_part, a.root_ideals), ("weight", a.weight_part, a.weight_ideals)):
        r.add(f"{side}_classes", [[format_root(f) for f in c] for c in part.classes])
        r.add(
            f"{side}_class_ideals",
            [{"class": [format_root(f) for f in i.cls], **reporting.space_json(i.space)} for i in ideals],
            *(f"{side} class {format_class(i.cls)} ideal: dim {i.space.dim}" for i in ideals),
        )
    # a sum identity that fails by escape leaves no complement
    r.space("U", "bracket-side complement U", dec.U).space("V", "scalar-side complement V", dec.V)
    enum = a.enum
    r.add(
        "ideal_enumeration",
        _enumeration(enum),
        f"ideal enumeration: {len(enum.ideals)} found, {'complete' if enum.complete else 'incomplete'}"
        + (f" ({enum.note})" if enum.note else ""),
    )
    return _finish(args, r.claims(dec.claims), any(c.failed for c in dec.claims))


def cmd_analyze(args):
    a, r = _open_split(args)
    if a is None:
        return _finish(args, r, failed=True)
    st = run_structure(a)
    js, prof, flags = a.js, a.profile, reporting.flags
    r.space("J", "ideal J", js.J)
    for key, where, fs in (("gamma_J", "inside", js.gamma_J), ("gamma_notJ", "outside", js.gamma_notJ)):
        r.add(key, [format_root(f) for f in fs], f"root classes {where} J: {reporting.roots(fs)}")
    r.add(
        "j_split",
        {"clean": js.clean, "graded": js.graded, "notes": list(js.notes)},
        f"j-split clean: {flags(js.clean)}; graded: {flags(js.graded)}",
    )
    r.add(
        "profile",
        {**vars(prof), "Z_Lie": reporting.space_json(prof.Z_Lie)},
        f"maximal length: {flags(prof.maximal_length)}",
        f"root multiplicativity clauses: {flags(*prof.root_multiplicative)}",
        f"tightness clauses: {flags(*prof.tight)}",
        f"Lie annihilator: {reporting.space_text(prof.Z_Lie)}",
        f"symmetric weight set: {flags(prof.symmetric_Lambda)}; symmetric J roots: {flags(prof.symmetric_gamma_J)}; "
        f"symmetric non-J roots: {flags(prof.symmetric_gamma_notJ)}",
    )
    runs, comps = st.thm512_runs, st.cor513.components
    r.add(
        "thm512_runs",
        [{"seed_dim": run.seed_dim, "branch": run.branch, "ok": run.ok, "detail": run.detail} for run in runs],
        *(
            f"two-ideal split run: seed dim {run.seed_dim}, branch {run.branch}, "
            f"{'ok' if run.ok else 'FAILED'}: {run.detail}"
            for run in runs
        ),
    )
    r.add(
        "components",
        [
            {"class": [format_root(f) for f in c.cls], "dim": c.dim, "verdict": c.simple_verdict, "paired": c.paired}
            for c in comps
        ],
        *(
            f"component {format_class(c.cls)}: dim {c.dim}, verdict {c.simple_verdict}, paired weight class {c.paired}"
            for c in comps
        ),
    )
    r.add("weight_component_dims", list(st.cor513.weight_dims))
    r.add("pairing", [{**vars(p), "root_class": [format_root(f) for f in p.root_class]} for p in st.pairing.rows])
    r.add("ideal_enumeration", _enumeration(a.enum)).claims(st.claims)
    # descriptive clauses measure the instance; only verified statements
    # about it count as mathematical failures for the exit code
    failing = [c.claim_id for c in st.claims if c.failed]
    descriptive = [cid for cid in failing if cid in DESCRIPTIVE_CLAIMS]
    failed = len(failing) > len(descriptive)
    r.add("descriptive_failures", descriptive)
    tail = f" (descriptive clauses failing: {', '.join(descriptive)})" if descriptive else ""
    return _finish(args, r, failed, ("fail" if failed else "pass") + tail)


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
    r = reporting.Report(args.command).source("source", args.file1, t1, "source_sha256")
    r.source("target", args.file2, t2, "target_sha256").checks("checks", checks)
    ok = all(c.status == "pass" for c in checks)
    return _finish(args, r, not ok, "morphism" if ok else "not a morphism")


def cmd_connect(args):
    a, r = _open_split(args)
    if a is None:
        return _finish(args, r, failed=True)
    rp, wp = a.root_part, a.weight_part
    r.partition("root", rp).partition("weight", wp)
    return _finish(args, r, not (rp.reflexive_ok and wp.reflexive_ok))


def cmd_j(args):
    h, text = _load(args.file)
    jrep = compute_J(h)
    r = reporting.Report(args.command).source("input", args.file, text)
    r.space("J", "symmetrized-square ideal J", jrep.J)
    fired, zero = jrep.closure.fired, jrep.J_bracket_L_zero
    r.add("closure_rules_fired", list(fired), f"closure rules fired: {', '.join(fired) or 'none'}")
    r.add("bracket_J_L_zero", zero, f"brackets [J, L] all zero: {reporting.flags(zero)}")
    r.add("bracket_L_J_zero", jrep.L_bracket_J_zero).add("witness", jrep.witness)
    ok = jrep.L_bracket_J_zero
    claim = ClaimResult("eq2.1", PASS if ok else FAIL, "" if ok else jrep.witness)
    return _finish(args, r.claims([claim]), claim.failed)


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

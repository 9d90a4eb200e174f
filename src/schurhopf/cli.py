"""Command-line surface: expand, verify, search.

All mathematics lives in the library modules; this file only parses
arguments, selects structures, and renders text or JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str

from . import schur, verifier, wow
from .shapes import (
    Partition,
    ShapeError,
    SkewShape,
    conjugate,
    connected_shapes,
    format_shape,
    parse_partition,
    parse_shape,
    rotate180,
    shape_sort_key,
    transpose,
)

SCHEMA = 1


def _emit(payload, as_json: bool, text_lines):
    """Write payload() as JSON under --json, else the lines of text_lines()."""
    if as_json:
        _write_json(payload())
    else:
        for line in text_lines():
            print(line)


def _write_json(payload):
    """Write json.dumps(payload, sort_keys=True) and a newline to stdout, piece by piece.

    No whole text is built: stdout's buffer gathers the pieces into writes.
    """
    for piece in _json_pieces(payload):
        sys.stdout.write(piece)
    sys.stdout.write("\n")


def _json_pieces(value):
    """The text of json.dumps(value, sort_keys=True), in pieces.

    Dict keys are str; a schur.JsonText is copied as it is.
    """
    if isinstance(value, dict):
        sep = "{"
        for key in sorted(value):
            yield sep + _json_str(key) + ": "
            yield from _json_pieces(value[key])
            sep = ", "
        yield "}" if value else "{}"
    elif isinstance(value, (list, tuple)):
        sep = "["
        for item in value:
            yield sep
            yield from _json_pieces(item)
            sep = ", "
        yield "]" if value else "[]"
    elif isinstance(value, schur.JsonText):
        yield value
    elif isinstance(value, str):
        yield _json_str(value)
    elif value is None or isinstance(value, bool):
        yield _JSON_LITERAL[value]
    elif isinstance(value, int):
        yield int.__repr__(value)
    else:
        yield json.dumps(value)


_JSON_LITERAL = {None: "null", False: "false", True: "true"}


def _monomial_text(exponents, coeff) -> str:
    """c*x1^2*x3, with a coefficient of 1 left out unless no variable is left."""
    variables = "*".join(
        f"x{i+1}^{p}" if p > 1 else f"x{i+1}" for i, p in enumerate(exponents) if p
    )
    if not variables:
        return str(coeff)
    return variables if coeff == 1 else f"{coeff}*{variables}"


def cmd_expand(args) -> int:
    shape = parse_shape(args.shape)
    if args.vars is not None:
        poly = schur.monomial_expansion(shape, args.vars)
        _emit(lambda: {
            "schema": SCHEMA,
            "shape": format_shape(shape),
            "vars": args.vars,
            "monomials": [
                {"exponents": list(e), "coefficient": c} for e, c in poly.terms
            ],
        }, args.json, lambda: [" + ".join(_monomial_text(e, c) for e, c in poly.terms) or "0"])
        return 0
    f = schur.schur_expand(shape)
    _emit(lambda: {
        "schema": SCHEMA,
        "shape": format_shape(shape),
        "expansion": f.to_json(),
    }, args.json, lambda: [f.render()])
    return 0


def _pick_structure(gamma: SkewShape, index: int | None):
    structures = wow.detect_wow(gamma)
    if not structures:
        raise ShapeError(f"{format_shape(gamma)} admits no W->O->W / W^O^W structure")
    if index is None:
        return structures[0], structures
    if not 0 <= index < len(structures):
        raise ShapeError(
            f"--w index {index} out of range; {len(structures)} structures found"
        )
    return structures[index], structures


def _parse_beta(text: str) -> Partition:
    """A nonempty partition given as text; a skew shape with a nonempty inner part is refused."""
    outer, _, inner = text.partition("/")
    if parse_partition(inner):
        raise ShapeError(f"beta {text!r} must be a partition")
    beta = parse_partition(outer)
    if not beta:
        raise ShapeError("beta must be nonempty")
    return beta


def cmd_verify(args) -> int:
    beta_parts = _parse_beta(args.beta)
    gamma = parse_shape(args.gamma)
    structure, structures = _pick_structure(gamma, args.w)

    # the column-sum argument needs beta's filled rectangle; report without it
    traced = args.trace and verifier.is_rect_minus_corner(beta_parts)
    try:
        trace = verifier.proof_trace(beta_parts, structure, strict=args.strict) if traced else None
        if args.corollary:
            report = verifier.verify_corollary(beta_parts, structure, strict=args.strict)
        elif trace is not None:
            report = trace.report
        else:
            report = verifier.verify_main_theorem(beta_parts, structure, strict=args.strict)
    except (verifier.BadBetaError, verifier.HypothesesFailError) as exc:
        print(f"hypotheses fail: {exc}", file=sys.stderr)
        return 3
    if args.trace and not traced:
        print(f"note: no proof trace: beta {args.beta} is not a rectangle minus its corner",
              file=sys.stderr)

    def payload():
        data = report.to_json()
        if trace is not None:
            data["trace"] = trace.to_json()
        data["structure"] = structure.to_json()
        data["structureCount"] = len(structures)
        return data

    def summary(f):
        if f is None:
            return ""
        if len(f.coeffs) > 12:
            return f" = ({len(f.coeffs)} Schur terms)"
        return f" = {f.render()}"

    def text_lines():
        yield structure.describe()
        yield (f"hypotheses: betaShape={report.hypotheses['betaShape']} "
               f"looseEnds={report.hypotheses['looseEnds']} mode={report.mode}")
        yield f"lhs {format_shape(report.lhs_shape)}" + summary(report.lhs)
        yield f"rhs {format_shape(report.rhs_shape)}" + summary(report.rhs)
        yield f"equal: {report.equal}"
        if trace is not None:
            yield (f"trace: oneKey={trace.one_key_left_ok and trace.one_key_right_ok} "
                   f"columns={trace.all_column_equalities_hold()} balance={trace.balance_ok}")

    _emit(payload, args.json, text_lines)
    return 0 if report.equal else 1


def _search_one(gamma, rotated, flipped, beta_list):
    """Rows of gamma and of its other images under half-turn and transpose.

    rotated and flipped are rotate180(gamma) and transpose(gamma).  An
    image's rows copy gamma's but for their names, and keep its key size
    and loose ends: the half-turn keeps each verdict (wow.rotate_structure),
    and beta on the transposed structure has the verdict of its conjugate on
    gamma's (wow.transpose_structure).  The image structures are built
    unchecked and serve only to name the rows.
    """
    rows = []
    for structure in wow.detect_wow(gamma):
        images = [(structure, beta_list)]  # each with the betas whose verdicts it takes
        if flipped not in (gamma, rotated):
            images.append((wow.transpose_structure(structure), [conjugate(b) for b in beta_list]))
        verdicts = {}  # beta -> (hypothesesHold, equal) on structure
        for image, keys in images:
            turned = wow.rotate_structure(image) if rotated != gamma else None
            for beta, key in zip(beta_list, keys):
                if key not in verdicts:
                    report = verifier.verify_main_theorem(key, structure)
                    verdicts[key] = (report.mode == "theorem", report.equal)
                hold, equal = verdicts[key]
                row = {
                    "gamma": format_shape(image.gamma),
                    "structure": image.describe(),
                    "orientation": image.orientation,
                    "keySize": structure.keys.size,
                    "looseEnds": structure.loose_ends.found,
                    "beta": list(beta),
                    "hypothesesHold": hold,
                    "equal": equal,
                }
                rows.append(row)
                if turned is not None:
                    rows.append(dict(row, gamma=format_shape(turned.gamma),
                                     structure=turned.describe()))
    return rows


def cmd_search(args) -> int:
    """Rows of every structure up to the size bound, one symmetry orbit at a time.

    Each orbit under half-turn and transpose is searched from its first
    gamma in (size, shape_sort_key) order.
    """
    if args.max_size < 1:
        raise ValueError("--max-size must be at least 1")
    betas = [_parse_beta(text) for text in args.beta or ["2,1"]]

    rows = []
    done = set()  # the images of the gammas searched so far
    for n in range(1, args.max_size + 1):
        for gamma in sorted(connected_shapes(n), key=shape_sort_key):
            if gamma not in done:
                rotated, flipped = rotate180(gamma), transpose(gamma)
                done.update((rotated, flipped, rotate180(flipped)))
                rows += _search_one(gamma, rotated, flipped, betas)
    rows.sort(key=lambda r: (r["gamma"], r["structure"], r["beta"]))

    def text_lines():
        for r in rows:
            yield (f"{r['structure']}  beta={r['beta']}  keySize={r['keySize']} "
                   f"looseEnds={r['looseEnds']} hypotheses={r['hypothesesHold']} equal={r['equal']}")
        yield f"total instances: {len(rows)}"

    _emit(lambda: {"schema": SCHEMA, "maxSize": args.max_size, "instances": rows}, args.json, text_lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurhopf",
        description="Exact skew Schur function identities via the shape Hopf algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand a shape's Schur function")
    p_expand.add_argument("shape", help='shape, e.g. "4,4,2,2/2,1" or "3,1" or "0"')
    p_expand.add_argument("--vars", type=int, default=None, help="print the k-variable monomial expansion instead")
    p_expand.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="verify the composition identity on one instance")
    p_verify.add_argument("--beta", required=True)
    p_verify.add_argument("--gamma", required=True)
    p_verify.add_argument("--w", type=int, default=None, help="structure index from detect_wow ordering")
    p_verify.add_argument("--corollary", action="store_true", help="compare against the rotated structure")
    p_verify.add_argument("--trace", action="store_true", help="attach the proof trace of beta o gamma "
                          "against beta* o gamma, also with --corollary (its equal compares those two)")
    p_verify.add_argument("--strict", action="store_true")
    p_verify.add_argument("--json", action="store_true")

    p_search = sub.add_parser("search", help="scan all structures up to a size bound")
    p_search.add_argument("--max-size", type=int, required=True,
                          help="largest gamma size (12 takes about 10 s and 32 MB)")
    p_search.add_argument("--beta", action="append", help="repeatable; default 2,1")
    p_search.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"expand": cmd_expand, "verify": cmd_verify, "search": cmd_search}
    try:
        code = command[args.command](args)
        sys.stdout.flush()  # a closed pipe then raises here, not at interpreter exit
        return code
    except ValueError as exc:
        # library input errors all derive from ValueError; exit 1 means "differ"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'the input is too large'}", file=sys.stderr)
        return 2
    except (RecursionError, OverflowError) as exc:
        # too deep for the interpreter, or a size past what a list can index
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left: send the unflushed rest to devnull, as the signal
        # docs advise, and exit like a process killed by SIGPIPE (128 + 13)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())

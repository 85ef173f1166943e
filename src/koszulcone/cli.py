"""Command-line front end: ring-file parsing, orchestration, reports.

Input format (line oriented, '#' starts a comment):

    field p=101        # or: field q   (rationals)
    vars x1 x2 x3
    rel x1*x3          # one homogeneous degree-2 relation per line,
    rel x3^2           # terms like 1*x1*x2 + -1*x2*x3, coefficient optional
    prefer x1*x2, x2*x3
    ideal x1*x2, x2*x3 # ordered generators

Exit codes: 0 = all requested checks passed, 1 = a mathematical check failed
(witness printed), 2 = input error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .algebra import GradedAlgebra, RingPresentation, format_monomial
from .complexes import (
    betti_table,
    closed_form_resolution,
    complex_from_json,
    complex_to_json,
    iterated_mapping_cone,
    koszulness_certificate,
    priddy_complex,
    verify_complex,
)
from .dual import QuadraticDual
from .errors import InputError, KoszulConeError, ParseError
from .ideals import MonomialIdeal, check_strongly_koszul
from .linalg import GF, QQ

_NUM = re.compile(r"^-?\d+(/\d+)?$")


@dataclass(frozen=True)
class JobSpec:
    field_char: int
    var_names: tuple
    relations: tuple
    preferred: tuple
    ideal: tuple

    def field(self):
        return QQ if self.field_char == 0 else GF(self.field_char)

    def presentation(self):
        return RingPresentation(self.var_names, self.field(),
                                self.relations, self.preferred)


def _parse_monomial(text, var_index, line_no, col):
    exp = [0] * len(var_index)
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise ParseError("empty factor in monomial", line_no, col)
        if "^" in factor:
            name, _, power = factor.partition("^")
            try:
                e = int(power)
            except ValueError:
                raise ParseError(f"bad exponent {power!r}", line_no, col) from None
        else:
            name, e = factor, 1
        name = name.strip()
        if name not in var_index:
            raise ParseError(f"unknown variable {name!r}", line_no, col)
        if e < 0:
            raise ParseError("negative exponent", line_no, col)
        exp[var_index[name]] += e
    return tuple(exp)


def _parse_monomial_list(keyword, text, var_index, line_no):
    items = [m.strip() for m in text.split(",")]
    if not all(items):
        raise ParseError(f"empty item in {keyword} list", line_no, 1)
    return [_parse_monomial(m, var_index, line_no, 1) for m in items]


def _parse_relation(text, var_index, field, line_no):
    # split into signed terms at top level; the signs before a term multiply
    terms = []
    buf = ""
    sign = 1
    for ch in text:
        if ch in "+-":
            if buf.strip():
                terms.append((sign, buf.strip()))
                sign = 1
            buf = ""
            if ch == "-":
                sign = -sign
        else:
            buf += ch
    if buf.strip():
        terms.append((sign, buf.strip()))
    elif terms:
        raise ParseError("relation ends with a sign", line_no, 1)
    out = []
    for sgn, term in terms:
        parts = term.split("*")
        head = parts[0].strip()
        if _NUM.match(head):
            try:
                coeff = field.parse(head)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad coefficient {head!r} for {field!r}", line_no, 1) from None
            mono = "*".join(parts[1:])
            if not mono:
                raise ParseError("coefficient without monomial", line_no, 1)
        else:
            coeff = field.one
            mono = term
        if sgn < 0:
            coeff = field.neg(coeff)
        exp = _parse_monomial(mono, var_index, line_no, 1)
        if sum(exp) != 2:
            raise ParseError(f"relation term {mono.strip()!r} is not degree 2", line_no, 1)
        support = [i for i, e in enumerate(exp) for _ in range(e)]
        out.append((coeff, (support[0], support[1])))
    if not out:
        raise ParseError("empty relation", line_no, 1)
    return tuple(out)


def parse_ring_text(text, field_override=None):
    field = None
    var_names = None
    var_index = {}
    rel_lines = []
    preferred = []
    ideal = []
    first_line = {}  # "field" and "vars" -> the line that set it
    if field_override is not None:
        try:
            field = QQ if field_override == "q" else GF(int(field_override))
        except ValueError as e:
            raise InputError(
                f"--field must be a prime or 'q', got {field_override!r} ({e})") from None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword in first_line:
            raise ParseError(f"second {keyword!r} line (the first is line "
                             f"{first_line[keyword]})", line_no, 1)
        if keyword in ("field", "vars"):
            first_line[keyword] = line_no
        if keyword == "field":
            got = None
            if rest == "q":
                got = QQ
            elif rest.startswith("p="):
                try:
                    got = GF(int(rest[2:]))
                except ValueError as e:
                    raise ParseError(str(e), line_no, len(keyword) + 2) from None
            else:
                raise ParseError("field must be 'p=<prime>' or 'q'", line_no,
                                 len(keyword) + 2)
            if field is None:
                field = got
        elif keyword == "vars":
            var_names = tuple(rest.split())
            if not var_names:
                raise ParseError("vars line needs at least one name", line_no, 1)
            var_index = {name: i for i, name in enumerate(var_names)}
            if len(var_index) != len(var_names):
                raise ParseError("duplicate variable name", line_no, 1)
        elif keyword == "rel":
            if var_names is None:
                raise ParseError("rel before vars", line_no, 1)
            # coefficients are read once the field is settled
            rel_lines.append((rest, var_index, line_no))
        elif keyword == "prefer":
            if var_names is None:
                raise ParseError("prefer before vars", line_no, 1)
            preferred.extend(_parse_monomial_list(keyword, rest, var_index, line_no))
        elif keyword == "ideal":
            if var_names is None:
                raise ParseError("ideal before vars", line_no, 1)
            ideal.extend(_parse_monomial_list(keyword, rest, var_index, line_no))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line_no, 1)
    if var_names is None:
        raise ParseError("missing vars line", 1, 1)
    if field is None:
        field = GF(101)
    relations = [_parse_relation(rest, vi, field, line_no) for rest, vi, line_no in rel_lines]
    return JobSpec(field.char, var_names, tuple(relations), tuple(preferred), tuple(ideal))


def format_jobspec(js):
    """Canonical text for a JobSpec; parse(format(parse(f))) == parse(f)."""
    field = js.field()
    lines = ["field q" if js.field_char == 0 else f"field p={js.field_char}"]
    lines.append("vars " + " ".join(js.var_names))
    for rel in js.relations:
        terms = []
        for coeff, (i, j) in rel:
            exp = [0] * len(js.var_names)
            exp[i] += 1
            exp[j] += 1
            terms.append(f"{field.format(coeff)}*{format_monomial(js.var_names, exp)}")
        lines.append("rel " + " + ".join(terms))
    if js.preferred:
        lines.append("prefer " + ", ".join(format_monomial(js.var_names, m) for m in js.preferred))
    if js.ideal:
        lines.append("ideal " + ", ".join(format_monomial(js.var_names, m) for m in js.ideal))
    return "\n".join(lines) + "\n"


def _load_jobspec(args):
    try:
        with open(args.ringfile) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {args.ringfile}: {e}") from None
    return parse_ring_text(text, field_override=getattr(args, "field", None))


def _algebra_for(js, cutoff):
    return GradedAlgebra(js.presentation(), cutoff)


def _ideal_for(js, algebra):
    if not js.ideal:
        raise InputError("this command needs an 'ideal' line in the input file")
    try:
        return MonomialIdeal(algebra, js.ideal)
    except ValueError as e:
        raise InputError(str(e)) from None


# the layout of every JSON document the CLI writes: sorted keys, one space
# per level; _json_text gives the same bytes faster
_ENCODER = json.JSONEncoder(sort_keys=True, indent=1)
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, indent="\n"):
    """_ENCODER.encode(value), byte for byte, for a value that sits on a line
    starting with indent (a newline and the line's leading spaces).

    Dicts with str keys, lists, tuples, str, int, bool and None are written
    here, str through the C string encoder; other values go to _ENCODER.
    """
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + " "
        try:
            items = [_SCALAR_JSON[type(x)](x) for x in value]
        except KeyError:
            items = [_json_text(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        try:
            keys = sorted(value)
            names = list(map(encode_basestring_ascii, keys))
        except TypeError:  # a key that is not a str
            return _ENCODER.encode(value).replace("\n", indent)
        inner = indent + " "
        items = []
        for name, key in zip(names, keys):
            v = value[key]
            scalar = _SCALAR_JSON.get(type(v))
            items.append(name + ": " + (scalar(v) if scalar else _json_text(v, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    scalar = _SCALAR_JSON.get(kind)
    if scalar:
        return scalar(value)
    # floats and subclasses: JSON text holds no raw newline, so shifting the
    # encoder's lines by the indent is exact
    return _ENCODER.encode(value).replace("\n", indent)


def _emit(args, payload, text_lines):
    """Print the text lines, or under --out json the document that the
    function payload builds: text runs never build it."""
    if args.out == "json":
        print(_json_text(payload()))
    else:
        for line in text_lines:
            print(line)


# -- subcommands -------------------------------------------------------------


def cmd_dual(args):
    js = _load_jobspec(args)
    A = _algebra_for(js, max(2, args.dmax))
    D = QuadraticDual(A)
    fmt = A.field.format
    comps = [D.component(l) for l in range(args.hmax + 1)]
    pairs = D.ordered_excluded_pairs()

    def payload():
        return {
            "command": "dual",
            "dims": {str(l): comp.dim for l, comp in enumerate(comps)},
            "bases": {str(l): [[[i, fmt(row[i])] for i in sorted(row)] for row in comp.rows]
                      for l, comp in enumerate(comps)},
            "excluded_pairs": [list(p) for p in pairs],
        }
    lines = [f"dual component dims up to degree {args.hmax}:"]
    lines += [f"  degree {l}: dim {comp.dim}" for l, comp in enumerate(comps)]
    lines.append(f"degree-2 dual basis labels (excluded pairs): {pairs}")
    _emit(args, payload, lines)
    return 0


def cmd_priddy(args):
    js = _load_jobspec(args)
    A = _algebra_for(js, max(2, args.dmax))
    D = QuadraticDual(A)
    cert = koszulness_certificate(D, args.hmax, args.dmax)

    def payload():
        return {
            "command": "priddy",
            "passed": cert["passed"],
            "ranks": cert["ranks"],
            "witness": cert["witness"],
            "homology": {f"{i},{d}": h for (i, d), h in sorted(cert["homology"].items())},
        }
    lines = [f"Priddy complex ranks to homological degree {args.hmax}: {cert['ranks']}"]
    if cert["passed"]:
        lines.append(f"bounded Koszulness certificate PASSED "
                     f"(homology zero for i <= {args.hmax - 1}, degree <= {args.dmax})")
    else:
        lines.append(f"bounded Koszulness certificate FAILED, witness "
                     f"(i, degree, rank) = {cert['witness']}")
    _emit(args, payload, lines)
    return 0 if cert["passed"] else 1


def _check_cutoff(js, dmax):
    maxdeg = max((sum(m) for m in js.ideal), default=1)
    return maxdeg + dmax + 2


def cmd_check(args):
    js = _load_jobspec(args)
    if args.what == "strongly-koszul":
        A = _algebra_for(js, args.dmax + 2)
        report = check_strongly_koszul(A, check_to=args.dmax)
    else:
        A = _algebra_for(js, _check_cutoff(js, args.dmax))
        J = _ideal_for(js, A)
        if args.what == "quotients":
            report = J.check_linear_quotients(args.dmax)
        elif args.what == "regular":
            mode = "literal" if args.literal else "symmetric"
            report = J.check_regular_ordering(args.dmax, mode=mode)
        else:
            report = J.check_star_condition()
    lines = [f"check {args.what}: {'PASS' if report.passed else 'FAIL'}"]
    for w in report.warnings:
        lines.append(f"  note: {w}")
    if not report.passed:
        # check regular nests the failed linear-quotient report in its details
        shown = [f for d in report.details for f in d.get("details", [d])
                 if _detail_is_failure(f)][:10]
        for d in shown:
            lines.append(f"  witness: {d}")
    _emit(args, lambda: {"command": f"check {args.what}", **report.as_dict()}, lines)
    return 0 if report.passed else 1


def _detail_is_failure(d):
    if "condition" in d or "clause" in d:
        return True
    if d.get("fail_degree") is not None:
        return True
    if d.get("linear") is False:
        return True
    return False


def _resolution_cutoff(js, hmax, dmax):
    maxdeg = max((sum(m) for m in js.ideal), default=1)
    return max(maxdeg + hmax + 1, dmax + 1, maxdeg + dmax + 2)


def _require_linear_quotients(J, dmax):
    """The cone and the rank-sum Betti formula need linear quotients."""
    if not J.check_linear_quotients(dmax).passed:
        raise InputError("ideal does not have linear quotients to the checked degree")


def _build_resolution(js, args):
    A = _algebra_for(js, _resolution_cutoff(js, args.hmax, args.dmax))
    J = _ideal_for(js, A)
    if args.method == "closed":
        # the differentials only consume ideal containments up to the
        # homological window, so the ordering check is bounded by hmax
        F = closed_form_resolution(J, args.hmax, check_to=min(args.dmax, args.hmax))
    else:
        _require_linear_quotients(J, args.dmax)
        F = iterated_mapping_cone(J, args.hmax)
    return A, J, F


def cmd_resolve(args):
    js = _load_jobspec(args)
    A, J, F = _build_resolution(js, args)
    if args.export or args.out == "json":
        doc = complex_to_json(F)
        doc["job"] = {"ring": format_jobspec(js), "method": args.method, "hmax": args.hmax}
    if args.export:
        try:
            with open(args.export, "w") as fh:
                fh.write(_json_text(doc))
        except OSError as e:
            raise InputError(f"cannot write {args.export}: {e}") from None
    # the constructor certified d.d = 0 on F, or raised
    rep = verify_complex(F, args.dmax, d2_certified=True)
    lines = [f"resolution of A/J by the {args.method} method, ranks {F.ranks()}"]
    lines.append(f"graded ranks: {sorted((l, d, v) for (l, d), v in F.graded_ranks().items())}")
    lines.append(f"d.d = 0: {rep.d2_zero}; minimal: {rep.minimal}; "
                 f"exact in 0 < i < {F.length} up to degree {args.dmax}: {rep.exact_positive}")
    if args.export:
        lines.append(f"complex JSON written to {args.export}")
    _emit(args, lambda: {"command": "resolve", "complex": doc, "verified": rep.as_dict()},
          lines)
    return 0 if rep.passed else 1


def cmd_betti(args):
    js = _load_jobspec(args)
    A = _algebra_for(js, _resolution_cutoff(js, args.hmax, args.dmax))
    J = _ideal_for(js, A)
    _require_linear_quotients(J, args.dmax)
    bt = betti_table(J, args.hmax)
    lines = ["ideal-level graded Betti numbers (rows q, columns homological degree):",
             bt.text(),
             f"regularity: {bt.regularity}",
             f"linear resolution: {bt.linear_resolution}"]
    _emit(args, lambda: {"command": "betti", **bt.as_dict()}, lines)
    return 0


def cmd_verify(args):
    js = _load_jobspec(args)
    if args.complex:
        A = _algebra_for(js, _resolution_cutoff(js, args.hmax, args.dmax))
        try:
            with open(args.complex) as fh:
                doc = json.load(fh)
        except OSError as e:
            raise InputError(f"cannot read {args.complex}: {e}") from None
        except ValueError as e:
            raise InputError(f"{args.complex} is not JSON: {e}") from None
        except RecursionError:
            raise InputError(f"{args.complex}: JSON nested too deeply to read") from None
        F = complex_from_json(A, doc)
        r = len(js.ideal)
        for l, mod in enumerate(F.modules):
            for g in mod:
                if g.gen is not None and g.gen > r:
                    raise InputError(f"modules[{l}].basis[{g.dual_index}]: generator_index "
                                     f"{g.gen} exceeds the ideal's {r} generators")
    else:
        A, J, F = _build_resolution(js, args)
    # a built resolution's d.d = 0 was certified by its constructor; an
    # exported one is checked in full
    rep = verify_complex(F, args.dmax, d2_certified=not args.complex)
    lines = [f"d.d = 0: {rep.d2_zero}",
             f"minimal: {rep.minimal}",
             f"exact in positive degrees to degree {args.dmax}: {rep.exact_positive}"]
    if not rep.passed:
        lines.append(f"witnesses: d2={rep.d2_witness} minimality={rep.minimality_witness}")
        nz = {k: v for k, v in rep.homology.items() if v}
        if nz:
            lines.append(f"nonzero homology ranks: {nz}")
    _emit(args, lambda: {"command": "verify", **rep.as_dict()}, lines)
    return 0 if rep.passed else 1


def cmd_selftest(args):
    rng = random.Random(args.seed)
    results = []

    def record(name, passed):
        results.append((name, passed))
        print(f"{'PASS' if passed else 'FAIL'}  {name}")

    from .linalg import kernel, rank as mat_rank, transpose

    f101 = GF(101)
    ok = True
    for _ in range(10):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [{j: x for j in range(n) if (x := rng.randrange(101))} for _ in range(m)]
        rk = mat_rank(f101, rows, n)
        ok &= rk == mat_rank(f101, transpose(rows, n), m) and rk + kernel(f101, rows, n).dim == n
    record("exact linear algebra invariants (seeded)", ok)

    pres = RingPresentation(("x1", "x2", "x3"), f101)
    A = GradedAlgebra(pres, 8)
    D = QuadraticDual(A)
    c = priddy_complex(D, 4)
    record("polynomial-ring Priddy calibration (ranks + d.d = 0)",
           c.ranks() == [1, 3, 3, 1, 0])
    cert = koszulness_certificate(D, 4, 6)
    record("polynomial-ring bounded Koszulness certificate", cert["passed"])

    one = f101.one
    hhr = RingPresentation(("x1", "x2", "x3"), f101,
                           (((one, (0, 2)),), ((one, (2, 2)),)))
    Ah = GradedAlgebra(hhr, 9)
    Jh = MonomialIdeal(Ah, [(1, 1, 0), (0, 1, 1)])
    record("linear quotients + regular ordering on the quadratic monomial fixture",
           Jh.check_linear_quotients(4).passed and Jh.check_regular_ordering(4).passed)
    Fc = iterated_mapping_cone(Jh, 4)
    Ff = closed_form_resolution(Jh, 4, check_regular=False)
    record("closed form matches cone ranks and verifies",
           Fc.graded_ranks() == Ff.graded_ranks()
           and verify_complex(Ff, 8).passed and verify_complex(Fc, 8).passed)

    sq = RingPresentation(("x1", "x2", "x3"), f101,
                          tuple(((one, (i, i)),) for i in range(3)))
    Asq = GradedAlgebra(sq, 8)
    Jsq = MonomialIdeal(Asq, list(Asq.basis(2)))
    bt = betti_table(Jsq, 2)
    record("power-ideal Betti spot values 3, 8, 15",
           (bt.ideal[(0, 2)], bt.ideal[(1, 3)], bt.ideal[(2, 4)]) == (3, 8, 15))

    conca = RingPresentation(
        ("a", "b", "c", "d"), f101,
        (((one, (0, 2)),), ((one, (0, 3)),),
         ((one, (0, 1)), (f101.neg(one), (1, 3))),
         ((one, (0, 0)), (one, (1, 2))), ((one, (1, 1)),)),
    )
    Ac = GradedAlgebra(conca, 6)
    rep = check_strongly_koszul(Ac, check_to=3)
    record("non-strongly-Koszul witness ((), b, degree 2)",
           (not rep.passed) and rep.first_witness == ((), 1, 2))

    passed = all(p for _, p in results)
    print(f"selftest: {'all checks passed' if passed else 'FAILURES present'}")
    return 0 if passed else 1


_COMMON = (
    (("ringfile",), {"help": "input ring/ideal description file"}),
    (("--hmax",), {"type": int, "default": 4, "help": "homological cutoff"}),
    (("--dmax",), {"type": int, "default": 4, "help": "internal-degree cutoff"}),
    (("--field",), {"default": None, "help": "override the input field: a prime, or 'q'"}),
    (("--out",), {"choices": ("text", "json"), "default": "text"}),
)
_METHOD = (("--method",), {"choices": ("cone", "closed"), "default": "cone"})

# subcommand -> (function, help line, arguments in the order of their usage text)
SUBCOMMANDS = {
    "dual": (cmd_dual, "dims and bases of the dual components", _COMMON),
    "priddy": (cmd_priddy, "bounded Koszulness certificate", _COMMON),
    "check": (cmd_check, "ordering / Koszulness checks", (
        (("what",), {"choices": ("quotients", "regular", "strongly-koszul", "star")}),
        *_COMMON,
        (("--literal",), {"action": "store_true",
                          "help": "use the printed reading of regular-ordering condition (1)"}),
    )),
    "resolve": (cmd_resolve, "build and export a resolution", (
        *_COMMON, _METHOD,
        (("--export",), {"default": None, "help": "write complex JSON to this file"}),
    )),
    "betti": (cmd_betti, "graded Betti table", _COMMON),
    "verify": (cmd_verify, "verify a built or exported complex", (
        *_COMMON, _METHOD,
        (("--complex",), {"default": None, "help": "exported complex JSON to verify"}),
    )),
    "selftest": (cmd_selftest, "run the built-in fixture suite",
                 ((("--seed",), {"type": int, "default": 0}),)),
}


def _add_arguments(parser, name):
    func, _, arguments = SUBCOMMANDS[name]
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(func=func)


def build_parser():
    """The whole command tree: for --help, and for a command line that does
    not start with a subcommand or that one subcommand's parser leaves
    arguments of."""
    p = argparse.ArgumentParser(
        prog="koszulcone",
        description="Exact quadratic duals, Priddy complexes and iterated "
                    "mapping-cone resolutions of monomial ideals.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _) in SUBCOMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_line), name)
    return p


def _parse_args(argv):
    """build_parser().parse_args(argv), building only the parser of the
    subcommand argv[0] names when that parser takes every argument."""
    if argv and argv[0] in SUBCOMMANDS:
        # the subparser's prog, so usage and error text are the same
        parser = argparse.ArgumentParser(prog=f"koszulcone {argv[0]}")
        _add_arguments(parser, argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    # the whole tree words the error: "koszulcone: error: unrecognized arguments"
    return build_parser().parse_args(argv)


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        for name in ("hmax", "dmax"):
            if getattr(args, name, 1) < 1:
                raise InputError(f"--{name} must be positive")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: the recipe of the signal module docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, InputError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except KoszulConeError as e:
        print(f"check failed: {e}", file=sys.stderr)
        witness = getattr(e, "witness", None)
        if witness is not None:
            print(f"witness: {witness}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

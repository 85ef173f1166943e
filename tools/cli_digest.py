"""Digest of the koszulcone CLI's behaviour on ring files, for byte-identity checks.

    python tools/cli_digest.py CHECKOUT [--fixture NAME ...] [--ring PATH ...]
                               [--hmax 3] [--dmax 5]

Imports koszulcone from CHECKOUT/src and runs its CLI in this one process over
every fixture (or the named fixtures and ring files) x the twelve subcommands
(resolve and verify with --method cone and closed; dual, priddy, betti; check
quotients, regular, regular --literal, strongly-koszul and star) x {GF(101),
QQ} x {json, text}, and then, per ring and field, one round trip: `resolve
--method cone --export EXPORT` and `verify --complex EXPORT --out json`, where
EXPORT is .cli_digest/export-FIELD.json under CHECKOUT, removed before each
export.
That is 52 runs per ring, 416 on the eight fixtures.  Each run prints one line

    <sha256 of stdout, a NUL byte and stderr> <exit code> <label>

so two checkouts are compared with `diff` of their outputs.  With no --fixture
and no --ring, the fixture lines are followed by two `selftest` runs (the one
CLI caller of closed_form_resolution(..., check_regular=False)), with the
default seed and with --seed 1, and one line per run of PARSER_RUNS (--help
texts and malformed command lines, at 80 columns), whose label starts with
"parser:", so the diff also covers the argument parser's text: 433 lines in
all.  Fixtures and exports are passed relative to CHECKOUT, so no path of the
checkout enters the output.
A --ring file (a perfbench ring, a generated ring) is passed by its absolute
path, which is the same for both checkouts.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

COMMANDS = (
    ("resolve", "--method", "cone"),
    ("resolve", "--method", "closed"),
    ("dual",),
    ("priddy",),
    ("betti",),
    ("check", "quotients"),
    ("check", "regular"),
    ("check", "regular", "--literal"),
    ("check", "strongly-koszul"),
    ("check", "star"),
    ("verify", "--method", "cone"),
    ("verify", "--method", "closed"),
)
FIELDS = ("101", "q")
FORMATS = ("json", "text")
HHR = "fixtures/hhr_example.ring"
PARSER_RUNS = (
    ("--help",),
    *((name, "--help") for name in
      ("dual", "priddy", "check", "resolve", "betti", "verify", "selftest")),
    (),
    ("bogus", HHR),
    ("dual", HHR, "--bogus"),
    ("dual", HHR, "--out", "xml"),
    ("dual", HHR, "--hmax", "x"),
    ("dual",),
    ("check", "bogus", HHR),
)


def run_cli(main, argv):
    """Exit code, stdout and stderr of one CLI call, as the console script gives them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = 0 if e.code is None else e.code if isinstance(e.code, int) else 1
        except Exception as e:  # an uncaught error exits 1 with a traceback
            print(f"uncaught {type(e).__name__}: {e}", file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue()


def digest(main, argv):
    """"<sha256 of stdout, a NUL byte and stderr> <exit code>" of one CLI call."""
    code, out, err = run_cli(main, argv)
    sha = hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()
    return f"{sha} {code}"


def digest_lines(checkout, fixtures=None, hmax=3, dmax=5, rings=None):
    checkout = Path(checkout).resolve()
    rings = [str(Path(ring).resolve()) for ring in rings or ()]
    sys.path.insert(0, str(checkout / "src"))
    from koszulcone.cli import main

    os.chdir(checkout)
    defaults = not fixtures and not rings
    if defaults:
        fixtures = sorted(p.name for p in Path("fixtures").glob("*.ring"))
    for ring in [f"fixtures/{name}" for name in fixtures or ()] + rings:
        for command in COMMANDS:
            for field in FIELDS:
                for fmt in FORMATS:
                    argv = [*command, ring, "--hmax", str(hmax), "--dmax", str(dmax),
                            "--field", field, "--out", fmt]
                    yield f"{digest(main, argv)} {' '.join(argv)}"
        for field in FIELDS:
            export = Path(".cli_digest", f"export-{field}.json")
            export.parent.mkdir(exist_ok=True)
            export.unlink(missing_ok=True)
            common = [ring, "--hmax", str(hmax), "--dmax", str(dmax), "--field", field]
            for argv in (["resolve", "--method", "cone", *common, "--export", str(export)],
                         ["verify", *common, "--complex", str(export), "--out", "json"]):
                yield f"{digest(main, argv)} {' '.join(argv)}"
    for argv in (["selftest"], ["selftest", "--seed", "1"]) if defaults else ():
        yield f"{digest(main, argv)} {' '.join(argv)}"
    os.environ["COLUMNS"] = "80"  # argparse wraps its text at the terminal width
    for argv in PARSER_RUNS if defaults else ():
        yield f"{digest(main, list(argv))} parser: {' '.join(argv)}".rstrip()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", help="directory holding src/koszulcone and fixtures/")
    p.add_argument("--fixture", action="append", help="fixture file name (repeatable)")
    p.add_argument("--ring", action="append", help="path of a ring file outside fixtures/ (repeatable)")
    p.add_argument("--hmax", type=int, default=3)
    p.add_argument("--dmax", type=int, default=5)
    args = p.parse_args(argv)
    for line in digest_lines(args.checkout, args.fixture, args.hmax, args.dmax, args.ring):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

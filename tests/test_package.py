import ast
import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "koszulcone"


def test_no_assert_statements_in_the_package():
    # python -O strips assert, so every check in the package must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the only runtime dependency; scipy, sympy and hypothesis may
    # be installed but belong to test and bench code only
    allowed = set(sys.stdlib_module_names) | {"numpy", "koszulcone"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []


def test_every_public_name_is_used_outside_the_tests():
    # a public module-level function or class of the package, or a public
    # method or property of one of its classes, that no package module, tool
    # or bench file names is code only tests run, and belongs with them; a
    # name counts as used where it appears as a name or an attribute outside
    # a definition of that name, and the re-exports of __init__ do not count.
    # Members are matched by name alone, so a member that shares its name
    # with one in use elsewhere is not seen: a ChainComplex.rank would pass
    # on QuotientDual.rank, a GradedAlgebra.one on the fields' one, and a
    # GradedAlgebra.relation_space on QuadraticDual.relation_space.  A
    # public field of a dataclass counts as used where its name is loaded as
    # an attribute (x.name), by name alone too: a field whose name any other
    # attribute read in use shares is not seen
    root = SRC.parent.parent
    defined, used, loaded, fields = {}, set(), set(), {}

    def define(node, where):
        if not node.name.startswith("_"):
            defined.setdefault(node.name, []).append(f"{where}{node.name}")

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = own | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name is not None and name not in own:
            used.add(name)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    paths = [*SRC.glob("*.py"), *(root / "tools").glob("*.py"), *(root / "perfbench").glob("*.py")]
    for path in sorted(paths):
        if path.name == "__init__.py" and path.parent == SRC:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        visit(tree, frozenset())
        if path.parent != SRC:
            continue
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                define(top, f"{path.name}:{top.lineno}:")
            if isinstance(top, ast.ClassDef):
                is_dataclass = any(
                    getattr(dec, "id", None) == "dataclass"
                    or getattr(getattr(dec, "func", None), "id", None) == "dataclass"
                    for dec in top.decorator_list)
                for member in top.body:
                    if isinstance(member, ast.FunctionDef):
                        define(member, f"{path.name}:{member.lineno}:{top.name}.")
                    elif (is_dataclass and isinstance(member, ast.AnnAssign)
                          and not member.target.id.startswith("_")):
                        fields[f"{path.name}:{member.lineno}:{top.name}.{member.target.id}"] = \
                            member.target.id
    assert len(defined) >= 120 and len(fields) >= 30
    unused = [where for name, wheres in defined.items() if name not in used for where in wheres]
    unused += [where for where, name in fields.items() if name not in loaded]
    assert sorted(unused) == []


def test_sparse_cli_runs_leave_numpy_unloaded():
    # numpy is imported only when the dense kernel runs, so the CLI's start-up
    # and a resolve whose matrices all fit the sparse budget never load it;
    # a matrix over the budget does, and gets the sparse kernel's RREF
    script = """if True:
        import math, random, sys
        import koszulcone.cli
        from koszulcone import linalg
        loaded = ['numpy' in sys.modules]
        code = koszulcone.cli.main(['resolve', 'hhr_example.ring', '--method', 'cone',
                                    '--hmax', '4', '--dmax', '6', '--out', 'json'])
        loaded.append('numpy' in sys.modules)
        rng = random.Random(7)
        full = [{j: rng.randrange(1, 101) for j in range(30)} for _ in range(30)]
        got = linalg.GF(101).rref(full, 30)
        loaded.append('numpy' in sys.modules)
        assert got == linalg._rref(full, 30, 101, math.inf, True)
        print(code, loaded, file=sys.stderr)
    """
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=SRC.parent.parent / "fixtures",
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)), capture_output=True, text=True,
        check=True, timeout=120)
    assert done.stdout.startswith("{")
    assert done.stderr == "0 [False, False, True]\n"


def load_tracer():
    """perfbench/tracer.py as a module."""
    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def tracer_keys():
    """Every koszulcone function that perfbench/tracer.py keys a metric on."""
    tracer = load_tracer()
    keys = {*tracer.RREF, tracer.RANK, *tracer.COMPONENT, tracer.MULT_COLUMNS,
            tracer.DEGREEWISE}
    for group in (*tracer.INCLUSIVE.values(), tracer.CALL_COUNTS.values()):
        keys.update(group)
    keys.update(f"{layer}.{name}" for layer, names in tracer.EXTRA.items() for name in names)
    return keys


def test_every_traced_function_still_resolves():
    # a renamed function is silently absent from the trace and reads 0 in
    # the per-layer metrics, so every key must name a live function
    keys = tracer_keys()
    assert len(keys) >= 24
    missing = []
    for key in sorted(keys):
        layer, *attrs = key.split(".")
        obj = importlib.import_module(f"koszulcone.{layer}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(key)
    assert missing == []


def test_tracer_tells_a_multiplication_columns_miss_from_a_hit():
    # the tracer counts a multiplication_columns call that reaches no traced
    # function as a cache hit, so a miss on built degrees must still reach
    # one: it reads the source basis through GradedAlgebra.basis
    import koszulcone.cli  # imports every layer module the tracer wraps
    from koszulcone.algebra import GradedAlgebra, RingPresentation
    from koszulcone.linalg import GF

    A = GradedAlgebra(RingPresentation(("x", "y"), GF(101)), 4)
    x, y = A.var(0), A.var(1)
    elements = (x, A.scale(2, x), A.add(x, y))
    for d in range(5):
        A.dim(d)  # builds degree d, outside the trace
    tracer = load_tracer().Tracer(koszulcone)
    with tracer.installed():
        for a in elements * 2:
            A.multiplication_columns(a, 2)
    raw = tracer.snapshot()
    assert (raw["algebra.mult_columns_calls"], raw["algebra.mult_columns_hits"]) == (6, 3)


def test_cli_digest_prints_one_line_per_run(tmp_path):
    # tools/cli_digest.py: fixtures x 12 subcommands x {GF(101), QQ} x {json, text},
    # then an export -> verify --complex round trip per field
    root = SRC.parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "tools" / "cli_digest.py"), str(root),
         "--fixture", "hhr_example.ring"],
        capture_output=True, text=True, check=True, timeout=120)
    lines = done.stdout.splitlines()
    assert len(lines) == 12 * 2 * 2 + 2 * 2
    assert [line.split(" ", 3)[2] for line in lines[-4:]] == ["resolve", "verify"] * 2
    assert not any(str(root) in line for line in lines)
    assert all(re.fullmatch(r"[0-9a-f]{64} 0 \S.* fixtures/hhr_example\.ring .*", line)
               for line in lines), lines
    assert len({line.split(" ", 2)[2] for line in lines}) == len(lines)
    # --ring: a ring file outside fixtures/ digests like the same fixture
    copy = tmp_path / "copy.ring"
    copy.write_text((root / "fixtures" / "hhr_example.ring").read_text())
    done = subprocess.run(
        [sys.executable, str(root / "tools" / "cli_digest.py"), str(root), "--ring", str(copy)],
        capture_output=True, text=True, check=True, timeout=120)
    ring_lines = done.stdout.splitlines()
    assert [line.split(" ", 2)[:2] for line in ring_lines] == [
        line.split(" ", 2)[:2] for line in lines]
    assert [line.split(" ", 2)[2] for line in ring_lines] == [
        line.split(" ", 2)[2].replace("fixtures/hhr_example.ring", str(copy)) for line in lines]


def test_rungs_prints_one_json_line_per_run():
    # tools/rungs.py: each rung is its own CLI process, timed from outside
    root = SRC.parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "tools" / "rungs.py"), str(root), "--rung", "hhr-resolve"],
        capture_output=True, text=True, check=True, timeout=120)
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    run = json.loads(lines[0])
    argv = ["resolve", "--method", "cone", "hhr_example.ring", "--hmax", "3", "--dmax", "4"]
    assert (run["rung"], run["argv"], run["rc"]) == ("hhr-resolve", argv, 0)
    assert run["wall_s"] > 0 and run["maxrss_mb"] > 0
    # the digest is of the same bytes the CLI prints on the fixture itself
    direct = subprocess.run(
        [sys.executable, "-m", "koszulcone.cli", *argv], cwd=root / "fixtures",
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)), capture_output=True, check=True, timeout=120)
    assert run["stdout_sha256"] == hashlib.sha256(direct.stdout).hexdigest()


def test_rungs_in_process_prints_cpu_seconds_and_the_same_digest():
    # tools/rungs.py --in-process: CPU seconds of koszulcone.cli.main in one
    # process, their median and quartiles, with the digest a child process
    # prints for the same rung
    root = SRC.parent.parent
    argv = [sys.executable, str(root / "tools" / "rungs.py"), str(root), "--rung", "hhr-resolve"]
    child = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True,
                                      timeout=120).stdout)
    done = subprocess.run(argv + ["--in-process", "3"], capture_output=True, text=True,
                          check=True, timeout=120)
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    run = json.loads(lines[0])
    assert (run["rung"], run["argv"], run["rc"], run["runs"]) == (
        "hhr-resolve", child["argv"], 0, 3)
    assert 0 < run["cpu_q1_s"] <= run["cpu_s"] <= run["cpu_q3_s"] and "wall_s" not in run
    assert run["stdout_sha256"] == child["stdout_sha256"]
    # one timed call is its own median and quartiles
    one = json.loads(subprocess.run(argv + ["--in-process", "1"], capture_output=True,
                                    text=True, check=True, timeout=120).stdout)
    assert one["runs"] == 1 and one["cpu_q1_s"] == one["cpu_s"] == one["cpu_q3_s"]
    bad = subprocess.run(argv + ["--in-process", "0"], capture_output=True, text=True, timeout=120)
    assert bad.returncode == 2 and "--in-process" in bad.stderr

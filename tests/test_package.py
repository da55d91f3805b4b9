"""What code outside the package relies on: the README's commands and library
example, and the names the benchmark in perfbench/ looks up and wraps."""

import ast
import importlib
import importlib.util
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from landmarkloc.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list:
    """The argv of each `landmarkloc` command in the README's bash blocks, in
    order: the walkthrough, then the config example."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        commands += [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                     if line.startswith("landmarkloc ")]
    return commands


@pytest.fixture(scope="module")
def demo_files(tmp_path_factory) -> Path:
    """The README's commands run verbatim in a new directory, with
    default_config.yaml copied in; each must exit 0. Returns the directory."""
    work = tmp_path_factory.mktemp("readme")
    shutil.copy(ROOT / "default_config.yaml", work)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["synth", "select", "partition", "visibility",
                                              "simulate", "localize", "evaluate", "localize"]
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        for argv in commands:
            assert main(argv) == 0, argv
    return work


def test_readme_library_example_runs(demo_files, monkeypatch, capsys):
    block, = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    demo = demo_files / "demo"
    capsys.readouterr()
    monkeypatch.chdir(demo_files)
    exec(compile(block, "README.md", "exec"), {})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    detected = {line.split(",")[0] for line in (demo / "dets.csv").read_text().splitlines()[1:]}
    assert sorted(row[0] for row in rows) == sorted(detected)
    assert any(row[1] == "ok" for row in rows)


def test_no_stage_imports_numpy_ma(demo_files, tmp_path):
    # numpy.ma costs each fresh CLI process about 9 ms to import, and
    # np.median and np.unique without a return_* argument import it. The
    # README's synth, select and evaluate run in one process, on a copy of
    # their files, each followed by whether numpy.ma is loaded by then.
    work = tmp_path / "work"
    shutil.copytree(demo_files, work)
    stages = [argv for argv in readme_commands() if argv[0] in ("synth", "select", "evaluate")]
    code = ("import sys\nfrom landmarkloc.cli import main\n"
            f"for argv in {stages!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "    print(argv[0], 'numpy.ma' in sys.modules, file=sys.stderr)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], cwd=work, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["synth", "False", "select", "False", "evaluate", "False"]


def test_private_src_names_are_used():
    # Each module-level private function, class or assigned name of src/ is
    # read, imported or taken as an attribute somewhere in src/ besides its
    # own definition. A referee that only the tests call belongs in tests/.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in (ROOT / "src" / "landmarkloc").glob("*.py")}
    used = set()  # (module, name)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((module, node.id))
            elif isinstance(node, ast.ImportFrom):
                used.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                used.update((other, node.attr) for other in trees)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                names = []
            unused += [f"{module}.{name}" for name in names if name.startswith("_")
                       and not name.startswith("__") and (module, name) not in used]
    assert unused == []


@pytest.fixture
def bench():
    """perfbench's worker and tracer modules, imported as the worker imports
    them (it puts the checkout's src/ and perfbench/ first on sys.path);
    sys.path is restored afterwards."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                      ROOT / "perfbench" / "worker.py")
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        return worker, worker.tracing
    finally:
        sys.path[:] = saved


def test_every_name_the_bench_looks_up_resolves(bench):
    worker, tracer = bench

    def resolves(target):
        # As tracer.Tracer.wrap finds it: package.module, then attributes.
        package, module, *path = target.split(".")
        owner = importlib.import_module(f"{package}.{module}")
        for part in path:
            owner = getattr(owner, part, None)
        return callable(owner)

    targets = [target for target, _, _ in tracer.LAYERS] + ["landmarkloc.cli.localize"]
    targets += [f"{module.__name__}.{name}" for module, name in worker.PER_IMAGE.values()]
    assert [t for t in targets if not resolves(t)] == []


def test_unused_imports_are_bench_layers(bench):
    # A module of the package imports no name that it never uses, unless the
    # import says `# noqa: F401`. Such a name is kept so that the bench's
    # tracer can wrap it there, so it must be a LAYERS target under that
    # module, and each such import must keep at least one name. The package
    # root's imports are its exports, and a `__future__` import is a compiler
    # directive.
    _, tracer = bench
    wrapped = {target for target, _, _ in tracer.LAYERS}
    kept, stray, stale, unused_plain = [], [], [], []
    for path in sorted((ROOT / "src" / "landmarkloc").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            names = [a.asname or a.name.split(".")[0] for a in node.names]
            unused = [name for name in names if name not in used]
            if not any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                unused_plain += [f"{path.name}:{node.lineno}: {name}" for name in unused]
                continue
            targets = [f"landmarkloc.{path.stem}.{name}" for name in unused]
            kept += targets
            stray += [target for target in targets if target not in wrapped]
            stale += [] if unused else [f"{path.name}:{node.lineno}"]
    assert unused_plain == []
    assert kept, "no `# noqa: F401` import found"
    assert stray == []
    assert stale == []


def test_traced_layers_record_spans(bench, demo_files, capsys):
    # The bench's tracer wraps each layer under the name its caller looks up.
    # A traced two-CSV localize with the default "weighted" refinement and an
    # evaluate must reach these layers through those names; localize runs
    # PROSAC through pose.prosac_estimate, so its iterations are counted.
    # pose.p3p_solve reads 0, since PROSAC solves whole blocks in _p3p_block.
    _, tracing = bench
    demo = demo_files / "demo"
    header, *rows = (demo / "dets.csv").read_text().splitlines()
    parts = [demo / "dets_even.csv", demo / "dets_odd.csv"]
    for k, part in enumerate(parts):
        part.write_text("\n".join([header] + [r for r in rows if int(r.split(",")[1]) % 2 == k]))
    scene, sel, poses = str(demo / "scene"), str(demo / "sel.txt"), str(demo / "poses.txt")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert main(["localize", "--scene", scene, "--landmarks", sel, "--detections",
                     *map(str, parts), "--seed", "0", "--out", poses]) == 0
        assert main(["evaluate", "--scene", scene, "--estimates", poses, "--detections",
                     str(demo / "dets.csv"), "--landmarks", sel,
                     "--out", str(demo / "report.txt")]) == 0
    finally:
        tracer.unwrap_all()
    capsys.readouterr()
    counts = tracing.call_counts(tracer)
    layers = ("pose.prosac_estimate", "pose.refine_pose", "detection.merge_ensemble",
              "detection.load_detections", "evaluation.build_report")
    assert [name for name in layers if not counts.get(name)] == []
    assert counts["detection.load_detections"] == 3
    metrics = tracing.layer_metrics(tracer)
    assert metrics["pose.prosac_estimate.iterations"][0] > 0
    assert metrics["pose.refine_pose.iterations_per_call"][0] > 0

"""Repository hygiene: doctests, console entry point, docs cross-refs."""

import ast
import doctest
import inspect
import pathlib
import re
import subprocess
import sys

import pytest


ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestDoctests:
    def test_utils_bits_doctests(self):
        import repro.utils.bits as m

        results = doctest.testmod(m)
        assert results.failed == 0
        assert results.attempted >= 2

    def test_system_docstring_example(self):
        """The quickstart in the system facade docstring is runnable."""
        from repro import PimLevel, StepStoneSystem

        sys_ = StepStoneSystem.default()
        r = sys_.run_gemm(m=1024, k=4096, n=4, level=PimLevel.BANKGROUP)
        assert r.breakdown.total > 0


class TestCli:
    def test_module_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "fig14", "--fast"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=120,
        )
        assert out.returncode == 0
        assert "fig14" in out.stdout

    def test_chart_flag(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "fig09", "--fast", "--chart"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=120,
        )
        assert out.returncode == 0
        assert "legend" not in out.stderr
        assert "|" in out.stdout  # a rendered bar


class TestDocs:
    def test_readme_references_exist(self):
        readme = (ROOT / "README.md").read_text()
        for ref in ("DESIGN.md", "EXPERIMENTS.md", "examples/"):
            assert ref in readme
        for path in ("DESIGN.md", "EXPERIMENTS.md"):
            assert (ROOT / path).exists()

    def test_design_covers_every_experiment(self):
        from repro.experiments.registry import EXPERIMENTS

        design = (ROOT / "DESIGN.md").read_text()
        for eid in EXPERIMENTS:
            if eid.startswith("fig") or eid.startswith("tab"):
                assert eid in design, f"{eid} missing from DESIGN.md index"

    def test_experiments_md_covers_artifacts(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for artifact in ("Fig. 6", "Fig. 8", "Fig. 9", "Fig. 13", "Fig. 14", "Table I"):
            assert artifact in text

    def test_examples_listed_in_readme_exist(self):
        readme = (ROOT / "README.md").read_text()
        for line in readme.splitlines():
            if line.startswith("| `") and line.endswith("|") and ".py" in line:
                name = line.split("`")[1]
                assert (ROOT / "examples" / name).exists(), name

    def test_readme_fleet_quickstart_snippet(self):
        """The "choosing a fleet" quickstart exists, is a bash block, and
        points at a registered experiment (CI executes it verbatim)."""
        from repro.experiments.registry import EXPERIMENTS

        readme = (ROOT / "README.md").read_text()
        m = re.search(r"## Choosing a fleet.*?```bash\n(.*?)```", readme, re.S)
        assert m, "README is missing the 'Choosing a fleet' quickstart"
        snippet = m.group(1)
        assert "serve-hetero" in snippet
        assert "serve-hetero" in EXPERIMENTS

    def test_readme_genai_quickstart_snippet(self):
        """The generative-serving quickstart exists, is a bash block, and
        points at a registered experiment (CI executes it verbatim)."""
        from repro.experiments.registry import EXPERIMENTS

        readme = (ROOT / "README.md").read_text()
        m = re.search(r"## Generative LLM serving.*?```bash\n(.*?)```", readme, re.S)
        assert m, "README is missing the generative-serving quickstart"
        snippet = m.group(1)
        assert "serve-genai" in snippet
        assert "serve-genai" in EXPERIMENTS

    def test_readme_observe_quickstart_snippet(self):
        """The tracing quickstart exists, is a bash block, and points at
        the registered serve-observe experiment (CI executes it)."""
        from repro.experiments.registry import EXPERIMENTS

        readme = (ROOT / "README.md").read_text()
        m = re.search(r"## Tracing a run.*?```bash\n(.*?)```", readme, re.S)
        assert m, "README is missing the 'Tracing a run' quickstart"
        snippet = m.group(1)
        assert "serve-observe" in snippet
        assert "--trace-out" in snippet
        assert "serve-observe" in EXPERIMENTS

    def test_readme_instant_capacity_snippet_runs(self):
        """The "instant capacity estimate" quickstart is *executed*
        verbatim — the README's analytic-planner code must keep
        running (and keep asserting its own conservatism claim)."""
        readme = (ROOT / "README.md").read_text()
        m = re.search(
            r"### Instant capacity estimate.*?```python\n(.*?)```",
            readme,
            re.S,
        )
        assert m, "README is missing the 'Instant capacity estimate' quickstart"
        snippet = m.group(1)
        assert 'mode="analytic"' in snippet
        exec(compile(snippet, "README.md::instant-capacity", "exec"), {})

    def test_cluster_autoscale_public_docstrings(self):
        """Every public ``__all__`` member of the fleet packages — and
        every public method/property it defines — documents itself (the
        docstring-audit gate for `repro.sim`, `repro.cluster`,
        `repro.autoscale`, `repro.genai`, and `repro.obs`)."""
        import repro.autoscale
        import repro.cluster
        import repro.genai
        import repro.obs
        import repro.sim

        missing = []
        for pkg in (repro.sim, repro.cluster, repro.autoscale, repro.genai, repro.obs):
            for name in pkg.__all__:
                obj = getattr(pkg, name)
                if not (isinstance(obj, type) or callable(obj)):
                    continue  # plain constants (tuples, strings)
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{pkg.__name__}.{name}")
                if not isinstance(obj, type):
                    continue
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member) or isinstance(member, property):
                        if not (member.__doc__ or "").strip():
                            missing.append(f"{pkg.__name__}.{name}.{attr}")
        assert not missing, f"undocumented public API: {sorted(set(missing))}"

    def test_every_public_module_has_docstring(self):
        import importlib

        for mod in (
            "repro.mapping.xor_mapping",
            "repro.mapping.analysis",
            "repro.dram.controller",
            "repro.dram.stream",
            "repro.core.agen",
            "repro.core.gemm",
            "repro.core.executor",
            "repro.core.fusion",
            "repro.core.functional",
            "repro.core.validation",
            "repro.baselines.cpu",
            "repro.models.inference",
            "repro.energy.model",
            "repro.colocation.contention",
            "repro.osmem.allocator",
            "repro.serving.scheduler",
            "repro.serving.nodespec",
            "repro.cluster.planner",
            "repro.autoscale.hetero",
            "repro.autoscale._loop",
            "repro.reporting.charts",
            "repro.sim.kernel",
            "repro.sim.metrics",
            "repro.sim.failures",
            "repro.sim.stats",
            "repro.sim.sweep",
            "repro.genai.model",
            "repro.genai.workload",
            "repro.genai.kvcache",
            "repro.genai.schedulers",
            "repro.genai.engine",
            "repro.genai.report",
            "repro.obs.trace",
            "repro.obs.telemetry",
            "repro.obs.profile",
        ):
            m = importlib.import_module(mod)
            assert m.__doc__ and len(m.__doc__) > 40, mod


class TestRepoHygiene:
    def test_no_bytecode_is_tracked(self):
        """Compiled bytecode never enters version control (.gitignore
        covers it; this catches a forced add)."""
        try:
            out = subprocess.run(
                ["git", "ls-files"],
                capture_output=True,
                text=True,
                cwd=ROOT,
                timeout=60,
            )
        except (FileNotFoundError, subprocess.TimeoutExpired):
            pytest.skip("git is unavailable")
        if out.returncode != 0:
            pytest.skip("not a git checkout")
        tracked = [
            p
            for p in out.stdout.splitlines()
            if p.endswith(".pyc") or "__pycache__/" in p
        ]
        assert tracked == []

    def test_no_unused_imports(self):
        """No module-level (or ``TYPE_CHECKING``) import in a non-package
        file under the linted trees goes unread — the offline half of
        the CI lint's F401 rule.  A name counts as read when the module
        loads it anywhere, lists it in ``__all__`` or names it in a
        string annotation; ``__future__`` imports are exempt."""
        unused = []
        for tree_dir in ("src", "tests", "benchmarks", "examples"):
            for path in sorted((ROOT / tree_dir).rglob("*.py")):
                if path.name != "__init__.py":
                    unused += _unused_imports(path)
        assert unused == []

    def test_no_unused_locals(self):
        """No function assigns a plain local it never reads — the offline
        half of the CI lint's F841 rule, with its exemptions:
        ``_``-prefixed names, tuple-unpacking targets, and names a
        ``global``/``nonlocal`` statement binds elsewhere."""
        unused = []
        for tree_dir in ("src", "tests", "benchmarks", "examples"):
            for path in sorted((ROOT / tree_dir).rglob("*.py")):
                unused += _unused_locals(path)
        assert unused == []

    def test_no_ambiguous_variable_names(self):
        """No variable is named ``l``, ``O`` or ``I`` — the offline half
        of the CI lint's E741 rule: assignment, loop and comprehension
        targets, ``with``/``except`` aliases, and function and lambda
        parameters."""
        ambiguous = []
        for tree_dir in ("src", "tests", "benchmarks", "examples"):
            for path in sorted((ROOT / tree_dir).rglob("*.py")):
                ambiguous += _ambiguous_names(path)
        assert ambiguous == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_AMBIGUOUS = {"l", "O", "I"}


def _ambiguous_names(path):
    """``path:line name`` of each variable ``path`` binds to one of
    :data:`_AMBIGUOUS`: a stored name (assignment, loop, comprehension
    or ``with`` target), an ``except`` alias or a parameter."""
    rel = path.relative_to(ROOT)
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(node, ast.ExceptHandler):
            name = node.name
        else:
            continue
        if name in _AMBIGUOUS:
            out.append(f"{rel}:{node.lineno} {name}")
    return out


def _own_nodes(scope):
    """The nodes of one function's own scope: not those of the functions,
    classes, lambdas or comprehensions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES + (ast.comprehension,)):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(path):
    """``path:line name`` of each function-local name assigned (``=``,
    annotated ``=``, ``with ... as``, ``except ... as``) and never read
    in the function or the scopes nested in it."""
    module = ast.parse(path.read_text())
    rel = path.relative_to(ROOT)
    out = []
    for fn in ast.walk(module):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, declared = {}, set()
        for node in _own_nodes(fn):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                targets = [node.optional_vars]
            elif isinstance(node, ast.ExceptHandler) and node.name:
                stored.setdefault(node.name, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            for t in targets:
                if isinstance(t, ast.Name):
                    stored.setdefault(t.id, t.lineno)
        read = {
            n.id
            for n in ast.walk(fn)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        out += [
            f"{rel}:{line} {name}"
            for name, line in stored.items()
            if name not in read and name not in declared and not name.startswith("_")
        ]
    return out


def _unused_imports(path):
    """``path:line name`` of each module-level import ``path`` never reads."""
    module = ast.parse(path.read_text())
    imports = []
    for stmt in module.body:
        body = [stmt]
        if isinstance(stmt, ast.If) and "TYPE_CHECKING" in ast.unparse(stmt.test):
            body = stmt.body
        for node in body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imports.append((node.lineno, name))
    read = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in {
            getattr(t, "id", None) for t in node.targets
        }:
            read.update(
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            )
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for ann in filter(None, annotations):
            for part in ast.walk(ann):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    for sub in ast.walk(ast.parse(part.value, mode="eval")):
                        if isinstance(sub, ast.Name):
                            read.add(sub.id)
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for line, name in imports if name not in read]

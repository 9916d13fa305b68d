"""The package's own namespace is exactly what README's Library section
documents, so the public surface cannot grow back unnoticed, and README's
examples print what README says they print."""

import gc
import io
import re
import types
import warnings
from contextlib import redirect_stdout

import spa
from spa.strands import OPS

from .helpers import ROOT, read, readme_examples, readme_library_block, run_cli


def test_spa_exports_the_readme_library_names():
    library = read(str(ROOT / "README.md")).split("\n## Library\n", 1)[1]
    library = library.split("\n## ", 1)[0]
    documented = set(re.findall(r"`spa\.(\w+)\(", library))
    for imported in re.findall(r"^from spa import (.+)$", library, re.M):
        documented.update(name.strip() for name in imported.split(","))
    public = {
        name
        for name, value in vars(spa).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(documented) == 9
    assert public == documented
    pyproject = read(str(ROOT / "pyproject.toml"))
    assert re.search(r'^version = "(.+)"$', pyproject, re.M)[1] == spa.__version__


def test_readme_operation_table_matches_ops():
    readme = read(str(ROOT / "README.md"))
    documented = dict(re.findall(r"^\| `(C_\w+)` \|.*\| `(f_\w+)\(.*\|$", readme, re.M))
    assert documented == {c.value: op.cost.value for c, op in OPS.items()}


def test_readme_cli_examples_print_their_output(monkeypatch):
    monkeypatch.chdir(ROOT)
    examples = readme_examples(read(str(ROOT / "README.md")))
    assert [argv[0] for argv, _ in examples] == ["check", "cost", "compare", "eval"]
    for argv, expected in examples:
        assert run_cli(*argv) == (0, expected, ""), argv


def test_readme_library_example_prints_its_comments(monkeypatch):
    # the block's comments say what it prints: the op counts, in words, and
    # the simplified cost, on a comment line of its own; and it leaves no
    # file open
    monkeypatch.chdir(ROOT)
    block = readme_library_block(read(str(ROOT / "README.md")))
    counts = re.search(r"print\(ext\.op_counts\(\)\)\s*# Counter: (.+)$", block, re.M)[1]
    times = {"once": 1, "twice": 2}
    expected = {c: times[n] for c, n in re.findall(r"(C_\w+) (\w+)", counts)}
    cost = re.search(r"^# (f_.+)$", block, re.M)[1]
    namespace: dict = {}
    out = io.StringIO()
    with redirect_stdout(out), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exec(compile(block, "README.md", "exec"), namespace)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    got = namespace["ext"].op_counts()
    assert {c.value: n for c, n in got.items()} == expected
    assert out.getvalue().splitlines() == [str(got), cost]

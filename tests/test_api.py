"""The package's own namespace is exactly what README's Library section
documents, so the public surface cannot grow back unnoticed."""

import re
import types

import spa
from spa.strands import OPS

from .helpers import ROOT, read


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

"""The package's shape: one module, data, writes every file the package
writes, and neither the file code nor the rules depend on the sampler."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pbpolicy"
MODULES = sorted(SRC.glob("*.py"))


def _writes(tree: ast.Module) -> list[int]:
    """Lines that rename a file (os.replace, os.rename) or open one in a
    mode that writes, appends or creates; a mode that is not a literal
    counts as one that writes."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os" and \
                {a.name for a in node.names} & {"replace", "rename"}:
            lines.append(node.lineno)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and \
                func.attr in ("replace", "rename") and \
                getattr(func.value, "id", None) == "os":
            lines.append(node.lineno)
        elif getattr(func, "id", None) == "open":
            mode = [kw.value for kw in node.keywords if kw.arg == "mode"]
            mode = node.args[1:2] or mode
            if mode and not (isinstance(mode[0], ast.Constant)
                             and set(mode[0].value).isdisjoint("wax+")):
                lines.append(node.lineno)
    return lines


def _imports_smc(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "smc" or (
                    module in ("", "pbpolicy")
                    and any(a.name == "smc" for a in node.names)):
                return True
        elif isinstance(node, ast.Import) and \
                any(a.name == "pbpolicy.smc" for a in node.names):
            return True
    return False


def test_only_data_writes_files():
    writers = {p.name: _writes(ast.parse(p.read_text())) for p in MODULES}
    assert writers.pop("data.py")
    assert {name: lines for name, lines in writers.items() if lines} == {}


def test_data_and_rules_do_not_import_the_sampler():
    assert SRC.joinpath("smc.py").exists()
    for name in ("data.py", "rules.py"):
        assert not _imports_smc(ast.parse((SRC / name).read_text())), name


def test_the_checks_see_each_form():
    writes = ["import os\nos.replace(a, b)\n", "os.rename(a, b)\n",
              "from os import replace\n", "open(p, 'w')\n",
              "open(p, mode='a')\n", "open(p, 'r+')\n", "open(p, m)\n"]
    for code in writes:
        assert _writes(ast.parse(code)), code
    for code in ("open(p)\n", "open(p, 'rb')\n", "open(p, newline='')\n",
                 "s.replace('a', 'b')\n"):
        assert not _writes(ast.parse(code)), code
    for code in ("from .smc import run_smc\n",
                 "from pbpolicy.smc import ess\n", "from . import smc\n",
                 "from pbpolicy import smc\n", "import pbpolicy.smc\n"):
        assert _imports_smc(ast.parse(code)), code
    assert not _imports_smc(ast.parse("from .gibbs import smc_like\n"))

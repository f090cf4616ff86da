"""Only the command-line module writes files: the numerical modules return
arrays, and cli.py turns them into report.json, timings.json and the CSVs."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "semilab")
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "cli.py")


def file_access(tree: ast.AST) -> list:
    """Lines of ``tree`` that import csv or call a function named open."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            names = ["open()"] if name == "open" else []
        else:
            continue
        if any(n == "csv" or n.startswith("csv.") or n == "open()" for n in names):
            found.append(node.lineno)
    return found


def test_package_has_modules():
    assert "heatkernel.py" in MODULES and "cli.py" not in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_only_cli_writes_files(name):
    with open(os.path.join(PACKAGE, name)) as fh:
        tree = ast.parse(fh.read(), filename=name)
    assert file_access(tree) == [], f"{name} imports csv or calls open()"


def test_detector_sees_csv_and_open():
    src = "import csv\nfrom csv import writer\nopen('x')\nio.open('y')\nlen(z)\n"
    assert file_access(ast.parse(src)) == [1, 2, 3, 4]

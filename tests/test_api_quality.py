"""API-quality meta tests.

Enforces the documentation deliverable mechanically: every public
module, class and function in the ``repro`` package carries a docstring,
every package re-exports what its ``__all__`` promises, and the public
entry points are importable from the top level.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path


import repro

ROOT = Path(__file__).resolve().parent.parent

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.bluetooth",
    "repro.faults",
    "repro.testbed",
    "repro.workload",
    "repro.collection",
    "repro.recovery",
    "repro.core",
    "repro.extensions",
    "repro.obs",
    "repro.reporting",
]


def iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            yield importlib.import_module(f"{package_name}.{info.name}")


def public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-exported from elsewhere; documented at home
        yield name, member


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        undocumented = [
            m.__name__ for m in iter_modules() if not (m.__doc__ or "").strip()
        ]
        assert not undocumented, f"modules without docstrings: {undocumented}"

    def test_every_public_class_and_function_documented(self):
        undocumented = []
        for module in iter_modules():
            for name, member in public_members(module):
                if not (member.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"undocumented public items: {undocumented}"

    def test_public_methods_documented(self):
        # Trivial one-expression accessors are exempt (their names are
        # the documentation); anything with real body must explain itself.
        undocumented = []
        for module in iter_modules():
            for _, cls in public_members(module):
                if not inspect.isclass(cls):
                    continue
                for method_name, method in vars(cls).items():
                    if method_name.startswith("_"):
                        continue
                    if not inspect.isfunction(method):
                        continue
                    if (method.__doc__ or "").strip():
                        continue
                    try:
                        body_lines = len(inspect.getsource(method).splitlines())
                    except OSError:
                        body_lines = 0
                    if body_lines <= 4:  # signature + <= 3 body lines
                        continue
                    undocumented.append(
                        f"{module.__name__}.{cls.__name__}.{method_name}"
                    )
        assert not undocumented, f"undocumented methods: {undocumented}"


class TestExports:
    def test_all_lists_resolve(self):
        broken = []
        for module in iter_modules():
            for name in getattr(module, "__all__", []):
                if not hasattr(module, name):
                    broken.append(f"{module.__name__}.{name}")
        assert not broken, f"__all__ names that do not exist: {broken}"

    def test_top_level_api(self):
        for name in (
            "build_relationship_table",
            "build_sira_table",
            "build_dependability_report",
            "MaskingPolicy",
            "Scorecard",
            "summarize_repository",
            "FailureModel",
        ):
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2
        # One version string: the package must report the version it
        # is published under.  Read with a regex, not tomllib (py3.9).
        pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        project = re.search(r"^\[project\]$(.*?)^\[", pyproject, re.M | re.S)
        assert project is not None, "pyproject.toml has no [project] table"
        declared = re.search(r'^version\s*=\s*"([^"]+)"', project.group(1), re.M)
        assert declared is not None, "[project] declares no version"
        assert repro.__version__ == declared.group(1)

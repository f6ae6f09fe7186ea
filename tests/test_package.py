import sys
import types

import pytest

import shapval
from conftest import run_python


def run_fresh(code: str) -> str:
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_every_exported_name_is_its_submodules_object():
    for name in shapval.__all__:
        value = getattr(shapval, name)
        if isinstance(value, types.ModuleType):
            assert value.__name__ == f"shapval.{name}"
        else:
            assert value is getattr(sys.modules[value.__module__], name)
            assert value.__module__.startswith("shapval.")


def test_star_import_binds_the_public_names():
    namespace: dict = {}
    exec("from shapval import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(shapval.__all__)
    assert namespace["knn_shapley_testset"] is shapval.knn.knn_shapley_testset
    modules = {k for k, v in namespace.items() if isinstance(v, types.ModuleType)}
    assert modules == {
        "analytics", "compressive", "errors", "games", "group_testing",
        "knn", "parallel", "permutation", "rng",
    }


@pytest.mark.parametrize("module", sorted(shapval._SUBMODULES))
def test_submodule_star_import_binds_its_exports(module):
    namespace: dict = {}
    exec(f"from shapval.{module} import *", namespace)  # a stale __all__ name raises here
    exported = getattr(sys.modules[f"shapval.{module}"], "__all__", ())
    assert set(exported) <= set(namespace)
    assert set(shapval._EXPORTS.get(module, ())) <= set(namespace)


def test_dir_lists_the_public_names():
    assert set(shapval.__all__) <= set(dir(shapval))
    assert "__version__" in dir(shapval)


def test_import_loads_no_submodule():
    out = run_fresh(
        "import sys, shapval\n"
        "print(sorted(m for m in sys.modules if m.startswith('shapval.')))"
    )
    assert out.strip() == "[]"


def test_submodule_resolves_without_an_explicit_import():
    out = run_fresh(
        "import sys, shapval\n"
        "print(shapval.knn.__name__, 'shapval.knn' in sys.modules, shapval.games.Game.__name__)"
    )
    assert out.split() == ["shapval.knn", "True", "Game"]


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_estimator'"):
        shapval.no_such_estimator
    with pytest.raises(ImportError):
        from shapval import no_such_estimator  # noqa: F401

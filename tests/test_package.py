"""The package namespace is the union of its modules' ``__all__``."""

import ast
import inspect
import types
from itertools import combinations
from pathlib import Path

import newmansum
from newmansum import analysis, core, oracle, verify

MODULES = (core, oracle, analysis, verify)

# every name the package exported while it listed them by hand
EXPORTED = [
    # core
    "digit_sum", "thue_morse_sign", "bit_exponents", "alt_exponent_sum",
    "classify_prefix", "power_sum", "dyadic_sum", "boundary_term",
    "newman_sum_decomposition", "decomposition_terms",
    "recursion_correction", "newman_sum_recursive", "recursion_trace",
    "residue_sum", "six_residue_sum", "scaled_residue_sum",
    # oracle
    "OracleCapError", "DEFAULT_ORACLE_CAP", "KERNEL_BACKEND", "oracle_cap",
    "oracle_sum", "oracle_interval_sum", "oracle_prefix",
    # analysis
    "LAMBDA", "growth_exponent", "delta_liminf", "delta_limsup",
    "ratio_liminf", "ratio_limsup", "delta", "lower_bound", "upper_bound",
    "coquet_ratio", "newman_inequality_check", "eta_defined", "eta_derived",
    "eta_half", "DeltaRecord", "delta_record", "extremal_sequences", "scan",
    "EtaRow", "eta_row", "eta_rows",
    # verify
    "CheckReport", "run_core_checks", "BoundsReport", "bounds_sweep",
]


def _star_import():
    ns = {}
    exec("from newmansum import *", ns)
    del ns["__builtins__"]
    return ns


def test_star_import_binds_the_exported_names():
    assert len(EXPORTED) == len(set(EXPORTED)) == 48
    ns = _star_import()
    assert [name for name in EXPORTED if name not in ns] == []


def test_star_import_binds_the_modules_all_and_nothing_else():
    # besides the union of the four lists, only submodules are bound
    names = {name for name, value in _star_import().items()
             if not isinstance(value, types.ModuleType)}
    assert names == {name for m in MODULES for name in m.__all__}


def test_each_public_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(newmansum, name) is getattr(module, name), name


def test_module_all_lists_are_disjoint():
    # a name in two lists would be shadowed by the later star import
    for a, b in combinations(MODULES, 2):
        assert set(a.__all__).isdisjoint(b.__all__), (a.__name__, b.__name__)


def _top_level_names(module):
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            names.add(node.target.id)
    return names


def test_each_public_name_is_defined_in_its_module():
    for module in MODULES:
        assert set(module.__all__) <= _top_level_names(module), module.__name__


def _parses_at_the_floor(source):
    """Whether source parses as the grammar of Python 3.10, the oldest
    version pyproject.toml's requires-python accepts."""
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError:
        return False
    return True


def test_sources_parse_at_the_supported_python_floor():
    sources = sorted(Path(newmansum.__file__).parent.glob("*.py"))
    assert len(sources) == 7
    assert [p.name for p in sources if not _parses_at_the_floor(p.read_text())] == []
    # the check has teeth: an exception group needs Python 3.11
    assert not _parses_at_the_floor("try:\n    pass\nexcept* ValueError:\n    pass\n")

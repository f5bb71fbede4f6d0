"""The ctypes declarations in ``native.py`` match ``native.c``.

A kernel whose C signature changes without its ``_SIGNATURES`` entry
would be called with the wrong arguments: a crash or, worse, a wrong
answer.  These checks read the C source and need no compiler.
"""

import re

from repro.kernels import native

C_SOURCE = native.SOURCE.read_text()

#: Every exported (non-static) ``repro_*`` definition:
#: name -> (return type, parameter list).
EXPORTED = {
    name: (ret, params)
    for ret, name, params in re.findall(
        r"^(i64|void)\s+(repro_\w+)\s*\(([^)]*)\)\s*\{", C_SOURCE, re.M
    )
}


def _param_count(params: str) -> int:
    params = params.strip()
    return 0 if params in ("", "void") else params.count(",") + 1


def test_abi_versions_agree():
    found = re.findall(r"^#define REPRO_NATIVE_ABI (\d+)$", C_SOURCE, re.M)
    assert found == [str(native.ABI)]


def test_exported_functions_are_declared():
    assert EXPORTED  # the pattern still finds the definitions
    assert set(EXPORTED) == set(native._SIGNATURES)


def test_parameter_counts_match_argtypes():
    for name, (_, params) in EXPORTED.items():
        argtypes, _ = native._SIGNATURES[name]
        assert _param_count(params) == len(argtypes), name


def test_return_types_match_restype():
    for name, (ret, _) in EXPORTED.items():
        _, restype = native._SIGNATURES[name]
        assert (ret == "void") == (restype is None), name

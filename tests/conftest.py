"""The ``ckernels`` fixture: the C kernel extension, compiled when needed.

Tests that compare the C and pure kernels, or that need the C speed for an
exhaustive search, take it.  When the extension is not importable, or the
imported file is older than its source (an in-place build from before an
edit), it is compiled from source into a temporary directory; tests that
use it skip only when there is no C compiler.  ``kernel_backends`` gives
the pure kernels and, where a compiler exists, the C ones, each with the
attributes `pairing_report`, `encode_table`, `fd_search`,
`count_strong_starters`, `dimacs_clauses` and `dimacs_text`, for tests that
must also run without a compiler.
"""

import importlib.util
import shutil
import sysconfig
import types
from pathlib import Path

import pytest

C_SOURCE = Path(__file__).resolve().parent.parent / "src" / "tristarter" / "_ckernels.c"
COMPILER = (sysconfig.get_config_var("CC") or "cc").split()[0]


def _compile(out_dir: Path) -> Path:
    from setuptools import Distribution, Extension

    # Python's CFLAGS carry -Wall; with -Wextra, a new warning fails the build
    ext = Extension("_ckernels", [str(C_SOURCE)],
                    extra_compile_args=["-Wextra", "-Werror"])
    dist = Distribution({"ext_modules": [ext]})
    cmd = dist.get_command_obj("build_ext")
    cmd.build_lib = str(out_dir)
    cmd.build_temp = str(out_dir / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    return Path(cmd.get_ext_fullpath("_ckernels"))


@pytest.fixture(scope="session")
def _compiled(tmp_path_factory):
    """The C extension, compiled when needed; None without a compiler."""
    try:
        from tristarter import _ckernels
    except ImportError:
        pass
    else:
        if Path(_ckernels.__file__).stat().st_mtime >= C_SOURCE.stat().st_mtime:
            return _ckernels
    if shutil.which(COMPILER) is None:
        return None
    path = _compile(tmp_path_factory.mktemp("ckernels"))
    spec = importlib.util.spec_from_file_location("_ckernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def ckernels(_compiled):
    if _compiled is None:
        pytest.skip(f"no C compiler ({COMPILER}) to build the kernels")
    return _compiled


@pytest.fixture(scope="session")
def kernel_backends(_compiled):
    from tristarter import _kernels

    names = ("pairing_report", "encode_table", "fd_search", "count_strong_starters",
             "dimacs_clauses", "dimacs_text")
    pure = types.SimpleNamespace(**{name: getattr(_kernels, "pure_" + name)
                                    for name in names})
    return [pure] if _compiled is None else [pure, _compiled]

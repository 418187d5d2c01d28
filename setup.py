"""Build script: compiles the C search kernels when a C compiler is
available, and degrades to the pure-Python kernels otherwise.

    python setup.py build_ext --inplace
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Treat extension build failures as a downgrade, not an error."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, broken toolchain
            warnings.warn(f"kernel extension build skipped: {exc}")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"kernel extension build skipped: {exc}")


setup(
    ext_modules=[Extension("tristarter._ckernels", ["src/tristarter/_ckernels.c"])],
    cmdclass={"build_ext": OptionalBuildExt},
)

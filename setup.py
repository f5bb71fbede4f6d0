"""Legacy setup shim.

This environment has setuptools but no ``wheel`` package, so PEP 660
editable installs (``pip install -e .``) fail while preparing metadata.
This shim enables the legacy editable path::

    pip install -e . --no-build-isolation --no-use-pep517

All project metadata lives in ``pyproject.toml``.  There are no extras:
the native kernel backend needs only a C compiler (``$CC``, default
``cc``) at run time, and falls back to pure Python without one.
"""

from setuptools import setup

setup()

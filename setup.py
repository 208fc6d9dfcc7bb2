"""Legacy shim for an offline editable install without the ``wheel``
package: ``python setup.py develop``.

With setuptools older than 70.1 both of pip's editable paths — PEP 660
(``pip install --no-build-isolation -e .``) and ``--no-use-pep517`` —
need ``wheel``; this one does not.  All real metadata lives in
pyproject.toml (PEP 621); setuptools reads it from there on this code
path too.
"""
from setuptools import setup

setup()

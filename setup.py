"""Setuptools shim so `pip install -e .` works on environments without PEP 517 wheel support."""

from setuptools import setup

setup(install_requires=["numpy", "cryptography"])

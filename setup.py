"""Setup shim enabling legacy editable installs in offline environments
(where the ``wheel`` package needed by PEP 660 editable wheels may be
unavailable).  All project metadata lives in setup.cfg."""

from setuptools import setup

setup()

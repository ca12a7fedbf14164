"""Stub of the retired native C DTA backend.

It exists only for perfbench's host fingerprint
(``perfbench/child.py::_host``); nothing in the package imports it.
"""


def native_available() -> bool:
    return False

"""Compiler-probe stub: reports the native backend as retired."""

from collections import namedtuple

CompilerProbe = namedtuple("CompilerProbe", "ok version reason")


def probe_compiler() -> CompilerProbe:
    return CompilerProbe(False, None, "native backend retired")

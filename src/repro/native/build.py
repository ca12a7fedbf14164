"""On-demand compilation and ctypes binding of the fused level kernels.

No binary is ever vendored: the C source is rendered from the template
in :mod:`repro.native.source` and compiled *once per (source hash,
compiler)* into a shared library cached under the result-store
directory (``$REPRO_NATIVE_CACHE`` overrides, tests point it at a
tmpdir).  Every later process -- including forked campaign workers -- just
``dlopen``\\ s the cached file; a template edit, compiler upgrade or
flag change produces a different hash and therefore a fresh build next
to the stale one.

The backend is strictly optional.  :func:`probe_compiler` looks for a
working C compiler (``$CC``, then ``gcc``/``cc``/``clang``) by
compiling a one-line probe program; when none works -- or when
``REPRO_NO_CC`` is set, the test hook that masks the toolchain -- the
backend reports unavailable with the reason and every consumer falls
back to the numpy engines.  Nothing in the repo hard-depends on a
toolchain.

Build failures raise :class:`NativeBuildError` with the compiler's
stderr; they are bugs (the probe passed), not availability conditions.
"""

from __future__ import annotations

import ctypes
import logging
import os
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro import faults, obs
from repro.native.source import KERNEL_ABI, render_source, source_hash

_LOG = logging.getLogger("repro.native")

#: Ceiling on one kernel compile; a wedged compiler (NFS stall, broken
#: LTO plugin) becomes a NativeBuildError -- and thereby a numpy
#: fallback -- instead of hanging the campaign.
DEFAULT_CC_TIMEOUT_S = 300.0


def compile_timeout() -> float:
    env = os.environ.get("REPRO_CC_TIMEOUT_S")
    if env:
        try:
            return float(env)
        except ValueError:
            pass
    return DEFAULT_CC_TIMEOUT_S

#: Flag sets tried in order; the first one whose probe compiles wins
#: and is hashed into the cache key.  The kernels only vectorize --
#: the whole point of the backend -- when the compiler may assume the
#: column loops are dependence-free (``#pragma omp simd`` +
#: ``-fopenmp-simd``, no OpenMP runtime involved) and may emit wide
#: masked blends (``-march=native``; measured 6x over the pragma-less
#: scalar build on AVX-512).  ``-march=native`` makes the cached .so
#: machine-local, which is exactly the scope of a per-host cache
#: directory; toolchains that reject any of this fall through to the
#: plain set and still work, just slower.
CFLAG_SETS = (
    ("-O3", "-march=native", "-fopenmp-simd", "-std=c11", "-fPIC",
     "-shared"),
    ("-O3", "-fopenmp-simd", "-std=c11", "-fPIC", "-shared"),
    ("-O3", "-std=c11", "-fPIC", "-shared"),
)

#: Default flags, for callers that only need a stable reference (the
#: probe records the actually chosen set in :class:`CompilerProbe`).
CFLAGS = CFLAG_SETS[0]

#: Extra flags of the ``REPRO_CC_SANITIZE=1`` debug build variant:
#: AddressSanitizer + UBSan with frame pointers kept for readable
#: reports.  The flags join the probed set before hashing, so the
#: sanitized library lives under its own cache key next to the fast
#: one (a ``-san`` tag in the file name keeps ``ls`` honest too).
#: Loading an ASan-instrumented .so into a non-ASan python requires
#: the ASan runtime to be preloaded (``LD_PRELOAD=$(cc
#: -print-file-name=libasan.so)``); without it dlopen fails and the
#: engine degrades to numpy through the normal runtime-failure latch.
#: ``make sanitize-smoke`` wires all of this up.
SANITIZE_FLAGS = ("-fsanitize=address,undefined",
                  "-fno-omit-frame-pointer")


def sanitize_enabled() -> bool:
    """Whether the sanitizer build variant is selected
    (``REPRO_CC_SANITIZE``)."""
    return os.environ.get("REPRO_CC_SANITIZE", "0") not in ("", "0")

#: Compilers tried in order when ``$CC`` is unset.
COMPILER_CANDIDATES = ("gcc", "cc", "clang")

#: Count of actual compiler invocations this process performed
#: (probes excluded); the build-cache tests assert it stays flat on a
#: cache hit.
build_count = 0


class NativeBuildError(RuntimeError):
    """A kernel compilation failed although the compiler probe passed."""


@dataclass(frozen=True)
class CompilerProbe:
    """Result of the working-compiler probe."""

    ok: bool
    exe: str | None = None
    version: str | None = None
    reason: str | None = None
    #: Flag set the probe succeeded with (see :data:`CFLAG_SETS`).
    cflags: tuple[str, ...] = CFLAGS


@dataclass(frozen=True)
class BuildResult:
    """One ensured kernel library on disk."""

    path: Path
    sha256: str
    built: bool  # False = served from the cache


def cache_dir() -> Path:
    """Directory holding the compiled kernel libraries.

    ``$REPRO_NATIVE_CACHE`` overrides; the default lives under the
    result-store root so ``repro cache``-adjacent state stays in one
    place (the store itself never indexes these files -- they are
    derived artifacts keyed by their own hash).
    """
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    from repro.store.store import default_root
    return default_root() / "native"


def masked_reason() -> str | None:
    """Why the toolchain is masked, or None (the ``REPRO_NO_CC`` hook).

    The mask disables the whole backend -- not just compilation -- so
    a previously cached .so cannot sneak native execution into a run
    that asked for a toolchain-free environment.
    """
    if os.environ.get("REPRO_NO_CC"):
        return "REPRO_NO_CC is set (toolchain masked)"
    return None


_PROBES: dict[str, CompilerProbe] = {}


def probe_compiler() -> CompilerProbe:
    """Find a working C compiler (cached per candidate list + $CC).

    "Working" means it compiled a one-line shared library, not merely
    that an executable exists on PATH -- a broken toolchain (missing
    headers, no linker) is reported as unavailable with its stderr.
    """
    env_cc = os.environ.get("CC")
    candidates = ([env_cc] if env_cc else []) + list(COMPILER_CANDIDATES)
    # The sanitize state is part of the cache key: a toolchain that
    # compiles the fast build may lack libasan, and vice versa.
    key = "\x00".join(candidates + ["san" if sanitize_enabled() else ""])
    cached = _PROBES.get(key)
    if cached is not None:
        return cached
    failures = []
    probe = None
    for exe in candidates:
        result = _try_compiler(exe)
        if result.ok:
            probe = result
            break
        failures.append(f"{exe}: {result.reason}")
    if probe is None:
        probe = CompilerProbe(
            ok=False,
            reason="no working C compiler (tried "
                   + "; ".join(failures) + ")")
    _PROBES[key] = probe
    return probe


def _try_compiler(exe: str) -> CompilerProbe:
    """Compile a one-line probe program with one candidate."""
    try:
        version_proc = subprocess.run(
            [exe, "--version"], capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired) as error:
        return CompilerProbe(ok=False, reason=str(error))
    if version_proc.returncode != 0:
        return CompilerProbe(ok=False, reason="--version failed")
    version = version_proc.stdout.splitlines()[0].strip() \
        if version_proc.stdout else exe
    extra = SANITIZE_FLAGS if sanitize_enabled() else ()
    last_detail = ""
    with tempfile.TemporaryDirectory(prefix="repro-cc-probe-") as tmp:
        src = Path(tmp) / "probe.c"
        src.write_text("int repro_probe(void) { return 1; }\n")
        for base in CFLAG_SETS:
            cflags = base + extra
            out = Path(tmp) / "probe.so"
            out.unlink(missing_ok=True)
            try:
                proc = subprocess.run(
                    [exe, *cflags, str(src), "-o", str(out)],
                    capture_output=True, text=True, timeout=60)
            except (OSError, subprocess.TimeoutExpired) as error:
                return CompilerProbe(ok=False, reason=str(error))
            if proc.returncode == 0 and out.exists():
                return CompilerProbe(ok=True, exe=exe, version=version,
                                     cflags=cflags)
            detail = (proc.stderr or "").strip().splitlines()
            last_detail = f": {detail[-1]}" if detail else ""
    reason = "probe compile failed" + last_detail
    if extra:
        reason = f"sanitizer {reason} (toolchain lacks libasan/ubsan?)"
    return CompilerProbe(ok=False, reason=reason)


def library_name(sha256: str) -> str:
    # "f64" names the double settle pipeline; keeping the tag keeps
    # the names of libraries already in the cache.
    tag = "f64-san" if sanitize_enabled() else "f64"
    return f"levelkern-{tag}-{sha256[:16]}.so"


def ensure_library(directory: Path | None = None) -> BuildResult:
    """Compile (or reuse) the kernel library.

    Raises :class:`NativeBuildError` when the toolchain is masked or
    absent, or when the compile itself fails.  The write is atomic
    (compile to a temp name, then ``os.replace``), so concurrent
    builders -- e.g. campaign workers racing a cold cache -- at worst do
    redundant work, never serve a torn file.
    """
    global build_count
    masked = masked_reason()
    if masked:
        raise NativeBuildError(f"native backend unavailable: {masked}")
    probe = probe_compiler()
    if not probe.ok:
        raise NativeBuildError(
            f"native backend unavailable: {probe.reason}")
    mode = faults.fire("native.compile")
    if mode is not None:
        raise NativeBuildError(
            f"injected {mode} fault at native.compile")
    with obs.span("native.cache_probe") as rec:
        source = render_source()
        sha = source_hash(source, probe.version or "", probe.cflags)
        directory = Path(directory) if directory is not None \
            else cache_dir()
        path = directory / library_name(sha)
        cached = path.exists()
        rec.set(cached=cached)
    if cached:
        return BuildResult(path=path, sha256=sha, built=False)
    with obs.span("native.compile", sha=sha[:16]):
        directory.mkdir(parents=True, exist_ok=True)
        src_path = directory / f"levelkern-{sha[:16]}.c"
        # The source file is shared between concurrent cold-cache
        # builders (its name is content-addressed), so it gets the same
        # atomic write-then-replace as the library: a truncating
        # write_text could hand a racing compiler a torn file.
        tmp_src = src_path.with_name(
            f".{src_path.name}.{os.getpid()}.tmp")
        tmp_src.write_text(source)
        os.replace(tmp_src, src_path)
        tmp_out = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        command = [probe.exe, *probe.cflags, str(src_path),
                   "-o", str(tmp_out)]
        timeout = compile_timeout()
        try:
            proc = subprocess.run(command, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            build_count += 1
            tmp_out.unlink(missing_ok=True)
            raise NativeBuildError(
                f"kernel compile timed out after {timeout:g}s "
                f"({' '.join(command)})")
        build_count += 1
        if proc.returncode != 0 or not tmp_out.exists():
            tmp_out.unlink(missing_ok=True)
            raise NativeBuildError(
                f"kernel compile failed ({' '.join(command)}):\n"
                f"{proc.stderr.strip()}")
        os.replace(tmp_out, path)
    return BuildResult(path=path, sha256=sha, built=True)


class Kernels:
    """ctypes binding of one compiled kernel library."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._lib = ctypes.CDLL(str(self.path))
        abi = self._lib.repro_kernel_abi
        abi.restype = ctypes.c_int
        abi.argtypes = ()
        loaded_abi = abi()
        if loaded_abi != KERNEL_ABI:  # pragma: no cover - hash keys ABI
            raise NativeBuildError(
                f"kernel ABI mismatch: library {self.path} has "
                f"{loaded_abi}, expected {KERNEL_ABI}")
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        self.run = self._lib.repro_run
        self.run.restype = None
        self.run.argtypes = [
            # stimulus: bits, tables x3, words x2, stride, arrival
            i64, ptr, ptr, ptr, ptr, ptr, i64, ptr,
            # propagate: ops, descriptor x6, row0, delays
            i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr,
            # extract: bits, tables x3, words, out x2, out stride
            i64, ptr, ptr, ptr, i64, ptr, ptr, i64,
            # shared: value_change, prev/values/events/settles,
            # stride, n_cols
            i64, ptr, ptr, ptr, ptr, i64, i64]


_KERNELS: dict[str, Kernels] = {}

_WARM: dict[tuple, Kernels] = {}


def _warm_key(directory: Path | None) -> tuple:
    """Everything that can change which library a load resolves to.

    The warm fast path may only skip :func:`ensure_library` while the
    answer is provably the same: the explicit directory, plus
    every environment knob the ensure step reads (cache location,
    toolchain mask, compiler choice, sanitize variant).  A changed
    knob changes the key, so the next load takes the slow path and
    re-resolves honestly.
    """
    return (str(directory) if directory is not None else None,
            os.environ.get("REPRO_NATIVE_CACHE"),
            os.environ.get("REPRO_NO_CC"),
            os.environ.get("CC"),
            sanitize_enabled())


def load_kernels(directory: Path | None = None) -> Kernels:
    """Ensure + dlopen the kernels (cached per path).

    Safe in forked workers: a worker either inherits the parent's
    already-loaded handle through fork or lazily opens the cached file
    itself -- the build step was completed by whoever ran first.

    Warm loads are memoized on (directory, toolchain environment): the
    ensure step re-renders and re-hashes the kernel source (~0.1 ms),
    which would otherwise tax every propagate call.
    The memo is bypassed whenever a fault plane is active, so injected
    ``native.compile`` / ``native.dlopen`` faults keep their per-call
    hit semantics under chaos schedules.

    A cached library that will not load (truncated by a full disk,
    bit-rotted, built by an incompatible toolchain state) is **rebuilt
    once**: the corrupt file is moved aside (``<name>.corrupt``, kept
    for forensics) and the compile re-runs against the now-empty cache
    slot; a second failure propagates as :class:`NativeBuildError`.
    """
    warm_key = _warm_key(directory)
    faulted = faults.get_plane() is not None
    if not faulted:
        warm = _WARM.get(warm_key)
        if warm is not None:
            return warm
    result = ensure_library(directory)
    key = str(result.path)
    kernels = _KERNELS.get(key)
    if kernels is not None:
        if not faulted:
            _WARM[warm_key] = kernels
        return kernels
    if faults.fire("native.dlopen") == "corrupt":
        result.path.write_bytes(b"injected corruption: not ELF\n")
    try:
        kernels = Kernels(result.path)
    except (OSError, AttributeError, NativeBuildError) as error:
        _LOG.warning("cached kernel library %s failed to load (%s); "
                     "rebuilding once", result.path, error)
        try:
            os.replace(result.path,
                       result.path.with_name(result.path.name + ".corrupt"))
        except OSError:  # pragma: no cover - already reclaimed
            pass
        result = ensure_library(directory)
        kernels = Kernels(result.path)
    _KERNELS[key] = kernels
    if not faulted:
        _WARM[warm_key] = kernels
    return kernels

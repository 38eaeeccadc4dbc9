"""Build/load harness for the compiled replay kernels (``kernels.c``).

The compiled kernels are the only fast path of the kernel-backed
policies; the policy classes are the specification. When this module
reports the library unavailable, :func:`repro.sim.kernels.resolve_kernel`
returns None and every policy replays through the engine's generic
per-access loop. Availability requires only a system C compiler
(``cc``/``gcc``/``clang``, override with ``REPRO_CC``) — the
shared object is built on first use, cached under ``build/ckernels/``
keyed by a hash of everything that shapes the binary (the C source, the
generated header and the flag list, so edits rebuild automatically and
concurrent workers racing the build land on the same file via an atomic
rename), and loaded with :mod:`ctypes`. No third-party packaging or FFI
dependency is involved.

The kernel ABI is declared once, in :data:`KERNEL_ABI` below, and the C
side is generated from it rather than checked against it: the build
writes ``kernels_abi_<digest>.h`` holding the scalar typedefs, one
prototype per table entry and every :data:`~repro.sim.constants.C_PARITY`
value as a ``#define``, then compiles ``kernels.c`` with that header
force-included under :data:`CFLAGS` (no system include path, warnings
as errors). So a definition that disagrees with its table entry is a
"conflicting types" error, an exported ``k_*`` function missing from
the table fails ``-Wmissing-prototypes``, a re-``#define``d constant is
a "redefined" error, and a libc call has no header to come from. Each
kernel is bound through a ``CFUNCTYPE`` prototype with named
parameters built from the same table, so a call with the wrong number
of arguments raises ``TypeError`` instead of reading past the frame.

A failed build is *not* silent: the compiler diagnostic is kept in
:func:`build_error`, surfaced once as a ``RuntimeWarning``, and
reported by ``python -m repro.analysis`` alongside the lint summary —
the generic loop still engages, but never invisibly.

``REPRO_CC=/bin/false`` with a fresh ``REPRO_CKERNELS_DIR`` runs the
no-toolchain configuration on a host that has one (the equivalence
suite compares it against the compiled run), and is the escape hatch
if a toolchain miscompiles.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple, Union

from .constants import C_PARITY

__all__ = [
    "lib",
    "available",
    "build_dir",
    "build_error",
    "header_text",
    "reset",
    "KERNEL_ABI",
    "CFLAGS",
    "CC_ENV",
]

#: Environment variable overriding the compiler executable.
CC_ENV = "REPRO_CC"

_SOURCE = Path(__file__).with_name("kernels.c")

#: Tri-state cache: None = not tried yet, False = tried and unavailable,
#: namespace of bound kernels = loaded.
_LIB: Union[None, bool, SimpleNamespace] = None

#: Human-readable reason the last build/load attempt failed (compiler
#: diagnostic, missing toolchain, dlopen error), or None.
_BUILD_ERROR: Optional[str] = None

_I64P = ctypes.POINTER(ctypes.c_longlong)
_U8P = ctypes.POINTER(ctypes.c_ubyte)
_F64P = ctypes.POINTER(ctypes.c_double)

#: Parameter kind -> (C spelling, ctypes scalar, ctypes pointer).
_KINDS: Dict[str, Tuple[str, Any, Any]] = {
    "i64": ("i64", ctypes.c_longlong, _I64P),
    "u8": ("u8", ctypes.c_ubyte, _U8P),
    "f64": ("double", ctypes.c_double, _F64P),
}

#: One parameter: ``"[const ]kind [*]name"``. ``const`` marks a
#: read-only input array; a pointer without it is a writable output or
#: workspace.
_PARAM = re.compile(r"(const )?(i64|u8|f64) (\*?)(\w+)")

_PARTITIONED = (
    "const i64 *lines", "const u8 *writes", "const i64 *counts",
    "i64 num_sets", "i64 ways", "i64 *ws", "i64 *out",
)

#: The kernel ABI: every exported ``k_*`` function of ``kernels.c``
#: with its parameters in C order. The only declaration of the
#: boundary — the header prototypes and the ctypes bindings are both
#: generated from it.
KERNEL_ABI: Dict[str, Tuple[str, ...]] = {
    "k_lru": _PARTITIONED,
    "k_lip": _PARTITIONED,
    "k_bit_plru": _PARTITIONED,
    "k_srrip": (
        "const i64 *lines", "const u8 *writes", "const i64 *counts",
        "i64 num_sets", "i64 ways", "i64 rmax", "i64 *ws", "i64 *out",
    ),
    "k_opt": (
        "const i64 *lines", "const u8 *writes", "const i64 *snext",
        "const i64 *counts", "i64 num_sets", "i64 ways", "i64 *ws",
        "i64 *out",
    ),
    "k_brrip": (
        "const i64 *lines", "const u8 *writes", "const i64 *sidx", "i64 n",
        "i64 num_sets", "i64 ways", "i64 rmax", "f64 trickle",
        "const f64 *draws", "i64 *ws", "i64 *out",
    ),
    "k_drrip": (
        "const i64 *lines", "const u8 *writes", "const i64 *sidx", "i64 n",
        "i64 num_sets", "i64 ways", "i64 rmax", "f64 trickle", "i64 psel",
        "i64 psel_max", "const i64 *leader", "const f64 *draws",
        "i64 *ws", "i64 *out",
    ),
    "k_topt": (
        "const i64 *lines", "const u8 *writes", "const i64 *vertices",
        "const i64 *lo", "const i64 *hi", "const i64 *refs",
        "const i64 *counts", "i64 num_sets", "i64 ways", "i64 *ws",
        "i64 *out", "i64 *cnt",
    ),
    "k_popt": (
        "const i64 *lines", "const u8 *writes", "const i64 *vertices",
        "const i64 *sidx", "const i64 *sid", "const i64 *row_base",
        "i64 n", "i64 num_sets", "i64 ways", "const i64 *sparams",
        "const i64 *entries", "i64 prefer_streaming", "i64 rmax",
        "f64 trickle", "i64 psel_max", "const i64 *leader",
        "const f64 *draws", "i64 *ws", "i64 *out", "i64 *cnt",
    ),
    "k_private_filter": (
        "const i64 *addrs", "const u8 *writes", "i64 n", "i64 line_shift",
        "i64 l1_sets", "i64 l1_ways", "i64 l1_pow2", "i64 l2_sets",
        "i64 l2_ways", "i64 l2_pow2", "i64 *visible_idx", "i64 *vis_lines",
        "u8 *vis_writes", "i64 *ws", "i64 *out",
    ),
    "k_next_use": (
        "const i64 *lines", "i64 n", "i64 cap", "i64 *ws", "i64 *next_use",
    ),
    "k_set_partition": (
        "const i64 *lines", "const u8 *writes", "const i64 *sidx", "i64 n",
        "i64 num_sets", "i64 *counts", "i64 *order", "i64 *sorted_lines",
        "u8 *sorted_writes", "i64 *ws",
    ),
    "k_ship": (
        "const i64 *lines", "const u8 *writes", "const u8 *pcs",
        "const i64 *sidx", "i64 n", "i64 num_sets", "i64 ways", "i64 rmax",
        "i64 *ws", "i64 *out",
    ),
    "k_hawkeye": (
        "const i64 *lines", "const u8 *writes", "const u8 *pcs",
        "const i64 *sidx", "i64 n", "i64 num_sets", "i64 ways",
        "i64 sample_every", "i64 window", "i64 cap", "i64 *ws", "i64 *out",
    ),
}

#: Compiler flags. ``-nostdinc`` leaves the generated header as the
#: only declarations in scope, and ``-Werror`` turns every drift from
#: it into a build failure. Every drift diagnostic used (conflicting
#: types, macro redefinition, implicit declaration, missing prototype)
#: is on without ``-Wall``/``-Wextra``; those wider warnings run in CI
#: only, so a new compiler's extra warning cannot disable this build.
CFLAGS = (
    "-O2", "-shared", "-fPIC", "-nostdinc",
    "-Wmissing-prototypes", "-Werror",
)


def _params(name: str) -> List[Tuple[str, str, bool, bool]]:
    """``(param name, kind, is_pointer, is_const)`` per table parameter."""
    out: List[Tuple[str, str, bool, bool]] = []
    for spec in KERNEL_ABI[name]:
        match = _PARAM.fullmatch(spec)
        if match is None or (match.group(1) and not match.group(3)):
            raise ValueError(f"{name}: malformed ABI parameter {spec!r}")
        const, kind, star, pname = match.groups()
        out.append((pname, kind, bool(star), bool(const)))
    return out


def header_text() -> str:
    """The generated ``kernels_abi.h``: typedefs, constants, prototypes."""
    lines = [
        "/* Generated by repro.sim.ckernels from KERNEL_ABI and",
        " * constants.C_PARITY at build time; do not edit. */",
        "typedef __INT64_TYPE__ i64;",
        "typedef __UINT8_TYPE__ u8;",
        "typedef __UINT64_TYPE__ u64;",
        '_Static_assert(sizeof(i64) == 8, "i64 is 64-bit");',
        '_Static_assert(sizeof(u8) == 1, "u8 is 8-bit");',
        '_Static_assert(sizeof(u64) == 8, "u64 is 64-bit");',
        '_Static_assert(sizeof(double) == 8, "f64 is 64-bit");',
        "",
    ]
    lines += [
        f"#define {name} ((i64){value})"
        for name, value in sorted(C_PARITY.items())
    ]
    lines.append("")
    for name in KERNEL_ABI:
        args = ", ".join(
            f"{'const ' if const else ''}{_KINDS[kind][0]} "
            f"{'*' if pointer else ''}{pname}"
            for pname, kind, pointer, const in _params(name)
        )
        lines.append(f"void {name}({args});")
    return "\n".join(lines) + "\n"


def _bind(cdll: ctypes.CDLL) -> SimpleNamespace:
    """One ``CFUNCTYPE`` prototype per table entry; named parameters
    make ctypes enforce the exact arity (plain ``argtypes`` accepts
    surplus arguments)."""
    bound: Dict[str, Any] = {}
    for name in KERNEL_ABI:
        params = _params(name)
        proto = ctypes.CFUNCTYPE(None, *(
            _KINDS[kind][2 if pointer else 1]
            for pname, kind, pointer, const in params
        ))
        bound[name] = proto(
            (name, cdll), tuple((1, param[0]) for param in params)
        )
    return SimpleNamespace(**bound)


def build_dir() -> Path:
    """Where compiled kernels are cached (override: REPRO_CKERNELS_DIR)."""
    override = os.environ.get("REPRO_CKERNELS_DIR")
    if override:
        return Path(override)
    # repo-root/build/ckernels (this file lives at src/repro/sim/)
    return Path(__file__).resolve().parents[3] / "build" / "ckernels"


def _compiler() -> Optional[str]:
    override = os.environ.get(CC_ENV)
    if override:
        return override
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _record_failure(reason: str) -> None:
    """Remember *why* the compiled path is unavailable and say so once.

    The generic loop still engages — the kernels are optional — but a
    toolchain that exists and fails is a real diagnostic the user (and
    CI) should see, not a silent 20-75x slowdown.
    """
    global _BUILD_ERROR
    _BUILD_ERROR = reason
    warnings.warn(
        f"compiled replay kernels unavailable, falling back to "
        f"the generic replay loop: {reason}",
        RuntimeWarning,
        stacklevel=3,
    )


def _first_error(stderr: str) -> str:
    """The compiler's first ``error:`` line (gcc prefixes in-function
    errors with an ``In function`` context line), else its first line."""
    lines = stderr.strip().splitlines()
    for line in lines:
        if "error:" in line:
            return line
    return lines[0] if lines else "(no stderr)"


def _build() -> Optional[SimpleNamespace]:
    cc = _compiler()
    if cc is None:
        # Missing toolchain is the expected no-compiler configuration:
        # recorded for `repro.analysis` reporting, but not warned about.
        global _BUILD_ERROR
        _BUILD_ERROR = "no C compiler found (cc/gcc/clang)"
        return None
    header = header_text().encode()
    digest = hashlib.sha256(b"\0".join(
        [_SOURCE.read_bytes(), header, " ".join(CFLAGS).encode()]
    )).hexdigest()[:16]
    out_dir = build_dir()
    so_path = out_dir / f"repro_kernels_{digest}.so"
    if not so_path.exists():
        out_dir.mkdir(parents=True, exist_ok=True)
        header_path = out_dir / f"kernels_abi_{digest}.h"
        fd, tmp = tempfile.mkstemp(suffix=".h", dir=str(out_dir))
        with os.fdopen(fd, "wb") as handle:
            handle.write(header)
        os.replace(tmp, header_path)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out_dir))
        os.close(fd)
        try:
            subprocess.run(
                [cc, *CFLAGS, "-include", str(header_path), str(_SOURCE),
                 "-o", tmp],
                check=True,
                capture_output=True,
            )
            os.replace(tmp, so_path)  # atomic: racing workers converge
        except subprocess.CalledProcessError as exc:
            stderr = (exc.stderr or b"").decode("utf-8", "replace")
            _record_failure(
                f"{cc} exited with status {exc.returncode}: "
                f"{_first_error(stderr)}"
            )
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return None
        except OSError as exc:
            _record_failure(f"could not run {cc}: {exc}")
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return None
    try:
        return _bind(ctypes.CDLL(str(so_path)))
    except (OSError, AttributeError) as exc:
        _record_failure(f"could not load {so_path.name}: {exc}")
        return None


def lib() -> Optional[SimpleNamespace]:
    """The compiled kernel library, or None (generic-loop fallback).

    Builds/loads once per process and memoizes the outcome (including
    failure — a missing toolchain is not retried).
    """
    global _LIB
    if _LIB is None:
        built = _build()
        _LIB = built if built is not None else False
    return _LIB if isinstance(_LIB, SimpleNamespace) else None


def available() -> bool:
    """Whether the compiled fast path would be used right now."""
    return lib() is not None


def build_error() -> Optional[str]:
    """Why the compiled kernels are unavailable, or None.

    Populated by the first failed :func:`lib` attempt (compiler exit
    status + first stderr line, missing toolchain, or dlopen failure);
    stays None while the compiled path works or was never tried.
    """
    return _BUILD_ERROR


def reset() -> None:
    """Forget the memoized build outcome (test hook).

    The next :func:`lib` call re-runs discovery/compilation; cached
    ``.so`` files under :func:`build_dir` are left in place.
    """
    global _LIB, _BUILD_ERROR
    _LIB = None
    _BUILD_ERROR = None

"""Build and load ``quantize.c``, the compiled quantization kernel: block
quantization under either statistic and the softmax derivative of the
statistic, with NumPy's ``exp`` and ``log`` called between its steps.

The library is compiled on first import with the system C compiler into
this package's ``__pycache__``, under a name keyed by a hash of the source,
the compile command and the CPU that ``-march=native`` compiles for, so an
edited source, command or host is rebuilt and a stale build is never
loaded.  The compiler writes to a temporary name that is then renamed into
place, so processes importing at once are safe.  When anything fails (no
compiler, a read-only directory, another platform) :func:`load` returns
None and ``mx`` and ``qgrad`` stay on NumPy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import tempfile
from pathlib import Path

from .formats import FloatFormat

SOURCE = Path(__file__).with_name("quantize.c")
CACHE_DIR = SOURCE.with_name("__pycache__")
# IEEE double arithmetic exactly as written: no fused multiply-add, and
# never -ffast-math or -Ofast.  Of -ffast-math's parts only
# -fno-trapping-math is taken: it changes no value (the kernel reads no
# floating-point exception flag), and without it gcc keeps the floor and
# ceil of the stochastic and round-up element loops scalar.
COMMAND = ("cc", "-O3", "-march=native", "-ffp-contract=off", "-fno-trapping-math",
           "-shared", "-fPIC")


class Format(ctypes.Structure):
    """``format_t`` of quantize.c."""

    _fields_ = [(name, ctypes.c_double) for name in (
        "max_finite", "min_value", "min_binade", "ties_big", "ulp", "zero_fill")] + [
        ("bias", ctypes.c_int64), ("exponent_only", ctypes.c_int64)]


def format_params(fmt: FloatFormat, zero_fill: float) -> Format:
    """What the kernel's rounding reads of ``fmt``; a scale that rounds to
    zero or below becomes ``zero_fill``."""
    data, mb = fmt._grid, fmt.mantissa_bits
    return Format(data.max_finite, data.min_value, data.min_binade,
                  1.5 * 2.0 ** (52 - mb), 2.0**-mb, zero_fill, fmt.bias, fmt.exponent_only)


def _cpu(cpuinfo: Path = Path("/proc/cpuinfo")) -> str:
    """The model and flags lines of ``cpuinfo``, else the platform's name
    for the processor."""
    try:
        lines = cpuinfo.read_text().splitlines()
    except OSError:
        return f"{platform.machine()} {platform.processor()}"
    keep = ("model name", "flags", "Features", "CPU part")
    return "\n".join(sorted({line for line in lines if line.startswith(keep)}))


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    ptr, i64, f64, fmt = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.POINTER(Format)
    rows = [ptr, i64, i64, i64, i64, i64, i64]  # x, nrows, n, strides, l, tensor_scaling
    lib.mx_absmax_stats.argtypes = rows + [f64, ptr]
    lib.mx_round.argtypes = [i64, i64, f64, fmt, i64, fmt, i64, ptr, ptr, ptr]
    lib.mx_absmax_quantize.argtypes = rows + [f64, fmt, i64, fmt, i64, ptr]
    # blocks, mask, nb, l, g, beta, bound, rows, m, e
    lib.mx_lse_shift.argtypes = [ptr, ptr, i64, i64, f64, f64, f64, ptr, ptr, ptr]
    lib.mx_lse_sum.argtypes = [ptr, i64, i64, ptr]
    lib.mx_softmax_grad.argtypes = [ptr, i64, i64, ptr]
    lib.mx_absmax_stats.restype = lib.mx_absmax_quantize.restype = i64
    lib.mx_lse_shift.restype = i64
    lib.mx_round.restype = lib.mx_lse_sum.restype = lib.mx_softmax_grad.restype = None
    return lib


def _build(path: Path) -> None:
    """Compile the source to ``path``, through a temporary name beside it."""
    import subprocess  # only a build needs it, and it costs milliseconds to import

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        run = subprocess.run([*COMMAND, "-o", tmp, str(SOURCE)], capture_output=True)
        if run.returncode:
            raise OSError(f"{COMMAND[0]} exited with {run.returncode}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(cache_dir: Path = CACHE_DIR) -> ctypes.CDLL | None:
    """The kernel library, compiled into ``cache_dir`` unless a build of this
    source, command and CPU is there; None when it cannot be built or loaded."""
    try:
        key = hashlib.sha256(b"\0".join(
            [SOURCE.read_bytes(), " ".join(COMMAND).encode(), _cpu().encode()]))
        path = cache_dir / f"quantize-{key.hexdigest()[:16]}.so"
        if not path.exists():
            cache_dir.mkdir(exist_ok=True)
            _build(path)
        return _bind(ctypes.CDLL(str(path)))
    except OSError:
        return None

"""Builds termilog_cli from the checkout and guards the build flavour.

The benchmark configures its own CMake tree (Release, no sanitizer,
instrumentation compiled in so the traced run works) and refuses to time a
Debug or sanitizer build, which a reused tree could otherwise hand it.
"""

import os
import subprocess


class BenchError(Exception):
    pass


def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def read_cache(path):
    values = {}
    with open(path) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.partition("=")
                values[key.split(":")[0]] = value.strip()
    return values


def ensure_built(root):
    """Configures and builds the CLI; returns (binary path, build info)."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt here: run from a termilog checkout")
    out = build_dir(root)
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench_build.log")
    cache = os.path.join(out, "CMakeCache.txt")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(cache):
            steps.append(["cmake", "-S", root, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DTERMILOG_SANITIZE=OFF", "-DTERMILOG_OBS=ON"])
        steps.append(["cmake", "--build", out, "--target", "termilog_cli",
                      "-j", "4"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                raise BenchError("build failed: %s (log: %s)" %
                                 (" ".join(step[:2]), log_path))
    values = read_cache(cache)
    info = {
        "build_type": values.get("CMAKE_BUILD_TYPE", ""),
        "sanitizer": values.get("TERMILOG_SANITIZE", "OFF"),
        "obs": values.get("TERMILOG_OBS", "ON"),
        "failpoints": values.get("TERMILOG_FAILPOINTS", "ON"),
    }
    if info["build_type"].lower() not in ("release", "relwithdebinfo",
                                          "minsizerel"):
        raise BenchError("refusing to time a %r build" % info["build_type"])
    if info["sanitizer"].upper() not in ("OFF", "", "FALSE", "0"):
        raise BenchError("refusing to time a sanitizer build (%s)" %
                         info["sanitizer"])
    binary = os.path.join(out, "examples", "termilog_cli")
    if not os.access(binary, os.X_OK):
        raise BenchError("build produced no %s" % binary)
    return binary, info

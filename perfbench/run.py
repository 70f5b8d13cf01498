#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload commit_mix --seed 1 --seconds 45 --trace 0

Builds the `perfbench` package (release profile, offline; the build
directory is $CARGO_TARGET_DIR, else perfbench/target), then runs it with
the given arguments. The benchmark's standard output is passed through;
its last line is the JSON result. Exits non-zero, without a result, when
the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# A run measures for --seconds and exits within 180 s; this is the hard
# stop for a run that hangs.
RUN_LIMIT_S = 175


def source_digest():
    """A digest of the sources the measured program is built from."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH / "Cargo.toml"]
    for base in (ROOT / "crates", ROOT / "vendor", BENCH / "src"):
        if base.is_dir():
            files += [p for p in base.rglob("*") if p.suffix in (".rs", ".toml")]
    for path in sorted(files):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", BENCH / "target"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(BENCH / "Cargo.toml")],
        cwd=ROOT,
        env={**os.environ, "CARGO_TARGET_DIR": str(target)},
    )
    if build.returncode != 0:
        print(f"perfbench: build failed (exit {build.returncode})", file=sys.stderr)
        return 1
    env = {
        **os.environ,
        "PERFBENCH_DIR": str(BENCH),
        "PERFBENCH_GIT_COMMIT": git_commit(),
        "PERFBENCH_SOURCE_DIGEST": source_digest(),
    }
    child = subprocess.Popen([str(target / "release" / "perfbench"), *sys.argv[1:]], cwd=ROOT, env=env)
    started = time.monotonic()
    try:
        code = child.wait(timeout=RUN_LIMIT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        child.kill()
        child.wait()
        print(f"perfbench: run stopped after {time.monotonic() - started:.0f} s", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the ProRP benchmark.

    python3 perfbench/run.py --workload des_wide --seed 11 --seconds 10 --trace 0

Run from the repository root.  Builds `prorp-server` from the repository
workspace and the benchmark package from `perfbench/`, both in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
benchmark binary with the given arguments.  The benchmark's last stdout
line is its JSON result; records and span traces go to `perfbench/out/`.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()


def source_rev():
    """The git rev when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base in ("Cargo.toml", "crates", "vendor", "perfbench/src", "perfbench/Cargo.toml"):
        path = ROOT / base
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file() and f.suffix in (".rs", ".toml"):
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return "src-" + h.hexdigest()[:16]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "prorp-server", "--bin", "prorp-server"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        sys.exit("perfbench: run from the repository root (Cargo.toml and crates/ not found)")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build(target)
    cmd = [
        str(target / "release" / "prorp-perfbench"),
        *sys.argv[1:],
        "--server-bin",
        str(target / "release" / "prorp-server"),
        "--out",
        str(ROOT / "perfbench" / "out"),
        "--rev",
        source_rev(),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()

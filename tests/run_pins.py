"""Check every pinned result of tests/pins.py: `python tests/run_pins.py`, no options.

Each record runs as a process group of its own, killed at its cap; one line per
record, exit 1 on any miss.  Children import ttrose from this checkout's src, and
a `ttrose` running `python -m ttrose.cli` comes last on PATH, after any installed one.
"""

import hashlib
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pins import RECORDS, ROOT


def _sha256(path: Path) -> str:
    # in chunks: a child's peak RSS, as os.wait4 gives it (in KB on Linux),
    # includes this process's peak from before the child's exec
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _run(record: dict, env: dict, tmp: Path) -> tuple[float, int, list[str]]:
    """Seconds, peak RSS in MB and the reasons record misses, run in tmp."""
    (tmp / "stdin").write_text(record.get("stdin", ""))
    with open(tmp / "stdin") as stdin, open(tmp / "stdout", "w") as stdout, \
            open(tmp / "stderr", "w") as stderr:
        proc = subprocess.Popen(record["cmd"], cwd=tmp, env=env, stdin=stdin, stdout=stdout,
                                stderr=stderr, start_new_session=True)
    start, cap = time.monotonic(), record["cap"]
    while not (waited := os.wait4(proc.pid, os.WNOHANG))[0] and time.monotonic() - start < cap:
        time.sleep(0.01)
    if not waited[0]:
        os.killpg(proc.pid, signal.SIGKILL)
        waited = os.wait4(proc.pid, 0)
    seconds, peak = time.monotonic() - start, waited[2].ru_maxrss // 1024
    proc.returncode = os.waitstatus_to_exitcode(waited[1])
    if seconds > cap:
        return seconds, peak, [f"over its {cap} s cap"]
    if proc.returncode:
        err = (tmp / "stderr").read_text(errors="replace").strip().splitlines()
        return seconds, peak, [f"exit {proc.returncode}" + (f": {err[-1]}" if err else "")]
    have = (tmp / "stdout").read_text().splitlines()
    reasons = [f"no line {line!r}" for line in record.get("lines", ()) if line not in have]
    pinned = record.get("files", {})
    got = {name: _sha256(tmp / name) if (tmp / name).is_file() else "missing" for name in pinned}
    reasons += [f"{name} sha256 {got[name]}" for name in pinned if got[name] != pinned[name]]
    return seconds, peak, reasons


def main(records: list[dict]) -> int:
    peaks: dict[str, int] = {}
    missed = 0
    with tempfile.TemporaryDirectory() as bin_dir:
        shim = Path(bin_dir) / "ttrose"
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m ttrose.cli "$@"\n')
        shim.chmod(0o755)
        env = {k: v for k, v in os.environ.items() if k != "TTROSE_CACHE_DIR"}
        env.update(PATH=env["PATH"] + os.pathsep + bin_dir, PYTHONPATH=str(ROOT / "src"))
        for record in records:
            with tempfile.TemporaryDirectory() as tmp:
                seconds, peak, reasons = _run(record, env, Path(tmp))
            peaks[record["name"]] = peak
            if peak > record.get("rss", peak):
                reasons.append(f"peak RSS {peak} MB over {record['rss']} MB")
            if "rss_of" in record:
                other, ratio = record["rss_of"]
                if peak > ratio * peaks[other]:
                    reasons.append(f"peak RSS {peak} MB over {ratio} x {other}'s {peaks[other]} MB")
            missed += bool(reasons)
            print(f"{'FAIL' if reasons else 'ok':4} {record['name']} ({seconds:.1f} s, {peak} MB)"
                  + (": " + "; ".join(reasons) if reasons else ""), flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(RECORDS))

"""The pinned-result runner on tiny synthetic records: one passes, and each
other misses in one way, on one line naming it and the reason."""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _record(name: str, code: str, **checks) -> dict:
    return {"name": name, "cmd": [sys.executable, "-c", code], "cap": 10, **checks}


def _alive(pid: int) -> bool:
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_each_miss_is_one_line_naming_the_record(tmp_path):
    pid_file = tmp_path / "pid"
    sleeper = ("import subprocess, sys, time; p = subprocess.Popen([sys.executable, '-c', "
               f"'import time; time.sleep(60)']); open({str(pid_file)!r}, 'w').write(str(p.pid)); "
               "time.sleep(60)")
    passes = _record("passes", "import sys; print(sys.stdin.read().upper()); "
                               "open('a', 'w').write('x')",
                     stdin="hi", lines=["HI"], files={"stdout": _sha256("HI\n"), "a": _sha256("x")},
                     rss=100)
    misses = [
        (_record("missing line", "print('hi')", lines=["hi", "ho"]), "no line 'ho'"),
        (_record("stdout digest", "print('hi')", files={"stdout": _sha256("ho\n")}),
         f"stdout sha256 {_sha256('hi' + chr(10))}"),
        (_record("artifact digest", "open('a', 'w').write('y')", files={"a": _sha256("x")}),
         f"a sha256 {_sha256('y')}"),
        (_record("nonzero exit", "raise SystemExit('no')"), "exit 1: no"),
        ({**_record("over cap", sleeper), "cap": 1}, "over its 1 s cap"),
        (_record("absolute RSS", "b = b'x' * (60 << 20)", rss=40), "over 40 MB"),
        (_record("relative RSS", "b = b'x' * (60 << 20)", rss_of=["passes", 1.1]),
         "over 1.1 x passes's"),
    ]

    # in a fresh interpreter, since a child's peak RSS includes the runner's
    run = subprocess.run([sys.executable, "-c", "import json, sys; from run_pins import main; "
                          "sys.exit(main(json.load(sys.stdin)))"],
                         cwd=Path(__file__).parent, capture_output=True, text=True, timeout=60,
                         input=json.dumps([passes] + [record for record, _ in misses]))

    assert run.returncode == 1, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1 + len(misses)
    assert lines[0].startswith("ok   passes ("), lines[0]
    for line, (record, reason) in zip(lines[1:], misses):
        assert line.startswith(f"FAIL {record['name']} (") and reason in line, line
        assert ";" not in line, line
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 5
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _alive(pid), "the over-cap record's process group outlived it"

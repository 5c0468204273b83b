"""Byte-for-byte pin on the text the CLI and the report harness render.

``tests/data/rendered_runs.txt`` holds the stdout of a fixed set of
``repro`` commands: serve runs (plain and under overload control), a
fleet under every overload path, an observed flaky-replica fleet, a
capacity plan, an autoscale trace with its Markdown report, and
``repro report`` on each checked-in sample record and on a directory
of copies of them.  The record pins check the numbers; this one checks
the tables, columns and sparklines built from them.  The file is
read-only: regenerate it by hand (``_rendered_runs`` into the file)
only for an intended change to the rendered text.
"""

import contextlib
import io
import shutil
from pathlib import Path

from repro.cli import main

DATA = Path(__file__).parent / "data"
PIN_PATH = DATA / "rendered_runs.txt"

#: The sample records ``repro report`` renders, each alone and together.
SAMPLES = (
    "sample_fleet_run.json",
    "sample_overload_run.json",
    "probe_chaos_power_of_two_run.json",
)

#: Commands whose stdout is pinned; ``{tmp}`` is a scratch directory.
COMMANDS = (
    "serve --network alexnet --rate 40 --duration-ms 150 --seed 1",
    "serve --network alexnet --rate 40 --duration-ms 150 --seed 1 "
    "--queue-policy edf --deadline-ms 50 --admission 35 --retries 2",
    "fleet simulate --networks alexnet squeezenet --replicas 3 --rate 150 "
    "--duration-ms 300 --priorities 1 0 --retries 3 --deadline-ms 100 "
    "--queue-policy edf --deadline-admission --hedge-ms 50 "
    "--brownout-p99-ms 500 --brownout-window-ms 100 "
    "--scenario gray-failure --detector oracle --request-timeout-ms 50",
    "fleet simulate --network alexnet --replicas 4 --rate 400 "
    "--duration-ms 200 --scenario flaky-replica --detector probe "
    "--request-timeout-ms 30 --policy drop-head --queue-depth 4 "
    "--balancer power-of-two --emit-timeseries",
    "fleet plan --network alexnet --rate 150 --p99-ms 600 --max-replicas 8 "
    "--duration-ms 100",
    "fleet autoscale --network alexnet --rates 50 400 150 --window-ms 40 "
    "--max-replicas 3 --p99-high-ms 300 --p99-low-ms 100 "
    "--report {tmp}/autoscale.md",
    *(f"report {{tmp}}/{name}" for name in SAMPLES),
    "report {tmp}",
)


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _rendered_runs(tmp: Path) -> str:
    """Every pinned command's stdout (and the autoscale report file),
    each under a ``$ repro ...`` line; ``tmp`` reads as ``{tmp}``."""
    for name in SAMPLES:
        shutil.copy(DATA / name, tmp / name)
    blocks = []
    for command in COMMANDS:
        argv = command.format(tmp=tmp).split()
        text = _stdout(argv).replace(str(tmp), "{tmp}")
        blocks.append(f"$ repro {command}\n{text}")
        if "--report" in argv:
            report = Path(argv[argv.index("--report") + 1]).read_text()
            blocks.append(f"$ cat {{tmp}}/autoscale.md\n{report}")
    return "\n".join(blocks)


class TestRenderedPin:
    def test_rendered_text_matches_pin(self, tmp_path):
        assert _rendered_runs(tmp_path) == PIN_PATH.read_text()

    def test_overload_fleet_table_shows_every_counter_column(self):
        pinned = PIN_PATH.read_text()
        table = pinned.split(f"$ repro {COMMANDS[2]}\n")[1]
        header = table.splitlines()[1].split()
        for column in ("lost", "rejected", "expired", "timed-out", "failed-over"):
            assert column in header

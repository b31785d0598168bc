"""The pair runner's summary, and the failure report of one benchmark run."""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def tools(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs
    import bench_record

    return bench_pairs, bench_record


@pytest.mark.parametrize("better, wins", [("higher", 2), ("lower", 1)])
def test_compare_on_fixed_values_with_ties(tools, better, wins):
    bench_pairs, _ = tools
    # two of the five pairs tie, and count for neither side
    pairs = [(1.0, 2.0), (2.0, 2.0), (3.0, 1.0), (4.0, 5.0), (5.0, 5.0)]
    got = bench_pairs.compare(pairs, better)
    assert got["wins"] == wins
    assert got["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                             "values": [1.0, 2.0, 3.0, 4.0, 5.0]}
    assert got["change"] == {"median": 2.0, "q1": 2.0, "q3": 5.0,
                             "values": [2.0, 2.0, 1.0, 5.0, 5.0]}
    assert got["parent_iqr"] == 2.0


def test_failed_run_names_its_command_and_stderr(tools, tmp_path):
    # it raised CalledProcessError, which shows neither
    _, bench_record = tools
    script = "import sys; sys.stderr.write('first\\nlast words\\n'); sys.exit(3)"
    spec = {"command": [sys.executable, "-c", script], "run_seconds": 1}
    with pytest.raises(RuntimeError) as error:
        bench_record.run_once(spec, tmp_path, "c10-worked-example", 7, 0)
    message = str(error.value)
    assert "--workload c10-worked-example --seed 7 --seconds 1 --trace 0" in message
    assert "exited 3" in message
    assert message.endswith("first\nlast words")

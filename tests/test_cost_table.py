"""The cost table of the guard rows (tests/cost_table.py): one measured call per
LIMITS row, and a runner that fails on what the table does not state."""
from cost_table import REFUSED, SLOWEST, Cost, lib, run, timeout

from hurwitzkit import LIMITS


def test_every_limits_row_has_its_slowest_admitted_call():
    assert set(SLOWEST) == set(LIMITS)
    for cost in (*SLOWEST.values(), *REFUSED):
        assert cost.seconds > 0 and cost.peak_mb > 0, cost.argv[:3]
    assert {cost.code for cost in SLOWEST.values()} == {0}
    assert {cost.code for cost in REFUSED} == {2, 3}


def test_the_timeout_is_five_times_the_stated_seconds_and_at_least_10_s():
    assert timeout(Cost(lib("pass"), 0.3, 30)) == 10.0
    assert timeout(Cost(lib("pass"), 23.0, 1700)) == 115.0


def test_the_runner_fails_on_what_the_table_does_not_state():
    measured, faults = run(Cost(lib("raise SystemExit(3)"), 0.1, 10, 3), 10)
    assert measured["code"] == 3 and measured["seconds"] > 0 and faults == []
    assert run(Cost(lib("pass"), 0.1, 10, 3), 10)[1] == ["exited 0, not 3"]
    assert run(Cost(lib("1 / 0"), 0.1, 10), 10)[1] == ["exited 1, not 0", "wrote a traceback"]
    assert run(Cost(lib("import sys; sys.stderr.write('x' * 1024); sys.exit(2)"), 0.1, 10, 2),
               10)[1] == ["wrote 1024 bytes to stderr"]
    assert run(Cost(lib("import time; time.sleep(30)"), 0.1, 10), 0.5)[1] == [
        "ran past its timeout of 0.5 s"]

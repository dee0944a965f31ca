import worker
import workloads


class Flaky(workloads.Workload):
    name = "flaky"
    pass_seconds = 1.0

    def inputs(self, rng):
        return [1, 2, 3]

    def op(self, x):
        if x == 2:
            raise ValueError("boom")
        return x

    def check(self, x, out):
        return None if out == x else "wrong"

    def label(self, x):
        return f"item {x}"


def test_a_raising_op_is_counted_and_named():
    report = worker.run(Flaky(), [1, 2, 3], [False, True])
    assert report["attempted"] == 6
    assert report["failed"] == 2
    assert report["first_failure"].startswith("item 2: ")
    assert "boom" in report["first_failure"]
    assert len(report["op_s"]) == len(report["traced_pass_s"]) == 1


def test_plan_alternates_traced_passes():
    assert worker.plan(Flaky(), 4, 0) == [False] * 4
    assert worker.plan(Flaky(), 4, 1) == [False, True, False, True]
    assert worker.plan(Flaky(), 0, 1) == [False, True]

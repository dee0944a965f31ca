import math
import time

import fbblat
from fbblat import counting, fbb, labeling, poset
from tracer import Tracer


def test_self_time_plus_children_equals_total():
    tracer = Tracer()

    def inner():
        time.sleep(0.002)

    def outer():
        time.sleep(0.001)
        wrapped_inner()
        wrapped_inner()

    wrapped_inner = tracer.wrap("toy.inner", inner)
    tracer.wrap("toy.outer", outer)()
    calls, total, self_s = tracer.stats["toy.outer"]
    inner_calls, inner_total, inner_self = tracer.stats["toy.inner"]
    assert (calls, inner_calls) == (1, 2)
    assert inner_self == inner_total
    assert math.isclose(self_s + inner_total, total, rel_tol=1e-9)
    assert 0.001 <= self_s < total


def test_install_rebinds_every_copy_and_uninstall_restores():
    originals = (labeling.rank, fbb.rank, fbblat.rank, counting._COUNTERS["f"],
                 poset.Poset.__init__, counting.comb)
    assert fbb.rank is labeling.rank
    tracer = Tracer()
    tracer.install()
    try:
        assert labeling.rank is not originals[0]
        assert fbb.rank is labeling.rank is fbblat.rank
        assert counting._COUNTERS["f"] is counting.count_f
        fbblat.build_fbb(4, {1, 3, 4, 5})
    finally:
        tracer.uninstall()
    assert (labeling.rank, fbb.rank, fbblat.rank, counting._COUNTERS["f"],
            poset.Poset.__init__, counting.comb) == originals
    stats = tracer.snapshot()["stats"]
    assert stats["fbb.build_fbb"][0] == 1
    assert stats["poset.Poset"][0] == 1
    assert stats["labeling.unrank"][0] > 0
    assert stats["kernel.closure"][0] == 1
    assert tracer.counters["kernel.dispatch_calls"] == 1
